"""Record the golden outputs of the default seed.

    python3 perfbench/record_golden.py

Runs the first rounds of every workload for the default seed through the
same calls the benchmark makes and writes ``perfbench/golden/seed0.json``.
An operation that fails its closed-form or unanimity check gets no golden
entry (``null``) and is listed on standard error: it fails in every run of
the benchmark anyway, and a later fix must not then differ from a recorded
wrong output.  Run it only at a commit whose outputs are trusted: later runs
of the default seed must reproduce these scan labels, DEGENERATE cells,
boundaries, Chern values and refusals, transition locations (to 1e-6), fan
verdicts and CLI exit codes.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import one

#: rounds recorded per workload: about twice what a 12 s run completes
ROUNDS = {"chern_points": 30, "phase_scan": 20, "transitions": 2, "cli_oneshot": 6}


def main() -> int:
    import chernkit
    import chernkit.cli  # noqa: F401  (the CLI workload runs it in a subprocess)

    golden, problems = {}, []
    for name, wl in workloads.WORKLOADS.items():
        drawn = wl.rounds(chernkit, workloads.DEFAULT_SEED)
        rounds = [drawn[r] for r in range(ROUNDS[name])]
        ctx = wl.setup(chernkit)
        golden[name] = []
        for r, ops in enumerate(rounds):
            views = []
            for op in ops:
                _, out = one(wl, ctx, op)
                verdict = wl.check(op, out, None)
                if verdict not in (workloads.OK, workloads.REFUSED):
                    problems.append(f"{name} round {r}: {verdict}")
                    views.append(None)
                else:
                    views.append(wl.golden_view(op, out))
            golden[name].append(views)
        print(f"{name}: {len(rounds)} rounds recorded", flush=True)
    if problems:
        print("recorded without a golden entry; checks failed:\n  " + "\n  ".join(problems), file=sys.stderr)
    workloads.GOLDEN.mkdir(exist_ok=True)
    path = workloads.GOLDEN / f"seed{workloads.DEFAULT_SEED}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
