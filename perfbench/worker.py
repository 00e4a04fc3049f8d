"""One benchmark workload in a fresh process.

Started by ``run.py`` with one JSON argument::

    {"workload": ..., "seed": ..., "seconds": ..., "mode": ..., "spawned_at": ...}

``spawned_at`` is the parent's wall clock just before it started this
process, so the set-up time covers interpreter start, import, model build,
the first round's inputs and warm-up.  Later rounds are drawn between
calls, outside every timed call.  Modes:

* ``setup``  -- set up, report the set-up time, exit;
* ``timed``  -- closed loop over rounds for ``seconds``, tracing off;
* ``trace``  -- round 0 untraced, then round 0 traced (layer metrics);
* ``repeat`` -- round 0 traced only, to check that counts repeat.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import workloads
from tracer import Tracer, layer_metrics

sys.path.insert(0, str(workloads.SRC))


def environment(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CHERNKIT_WORKERS")
        },
    }


def one(wl, ctx, op, call=None):
    """Time one operation; its output is summarised after the clock stops."""
    call = call or wl.call
    t0 = time.perf_counter()
    try:
        ret = call(ctx, op)
    except Exception as exc:  # a failed operation is recorded, not fatal
        dt = time.perf_counter() - t0
        return dt, workloads.error_outcome(exc)
    dt = time.perf_counter() - t0
    return dt, wl.summarize(op, ret)


def timed(wl, ctx, rounds, golden, seconds) -> dict:
    """Whole rounds until ``seconds`` have passed."""
    latencies, verdicts, per_round, r = [], [], [], 0
    start = time.perf_counter()
    while True:
        items, busy = 0, 0.0
        for i, op in enumerate(rounds[r]):
            dt, out = one(wl, ctx, op)
            latencies.append(dt)
            items += wl.items(op)
            busy += dt
            verdicts.append(wl.check(op, out, workloads.golden_entry(golden, r, i)))
        per_round.append([items, busy])
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "per_round": per_round, "rounds": r, "verdicts": verdicts}


def one_pass(wl, ctx, ops, golden, call=None):
    times, verdicts = [], []
    for i, op in enumerate(ops):
        dt, out = one(wl, ctx, op, call)
        times.append(dt)
        verdicts.append(wl.check(op, out, workloads.golden_entry(golden, 0, i)))
    return times, verdicts


def traced_pass(ck, wl, ctx, ops, golden):
    tracer = Tracer()
    tctx = wl.traced(ctx, tracer)
    tracer.install(ck)
    try:
        times, verdicts = one_pass(
            wl, tctx, ops, golden, call=lambda c, op: tracer.operation(wl.kind, wl.call, c, op)
        )
    finally:
        tracer.uninstall()
    return tracer, times, verdicts


def main() -> None:
    cfg = json.loads(sys.argv[1])
    import numpy as np
    import scipy

    import chernkit
    import chernkit.cli

    wl = workloads.WORKLOADS[cfg["workload"]]
    rounds = wl.rounds(chernkit, cfg["seed"])
    ops = rounds[0][: wl.traced_calls]  # drawn inside the set-up time
    ctx = wl.setup(chernkit)
    setup_s = time.time() - cfg["spawned_at"]
    result = {"setup_s": setup_s, "env": environment(np, scipy)}
    golden = workloads.load_golden(cfg["seed"], wl.name)
    mode = cfg["mode"]

    if mode == "timed":
        result.update(timed(wl, ctx, rounds, golden, cfg["seconds"]))
    elif mode == "trace":
        verdicts = []
        if wl.name == "cli_oneshot":
            result["subprocess_s"], v = one_pass(wl, ctx, ops, golden)
            verdicts += v
            ctx = {**ctx, "inprocess": True}
        result["untraced_s"], v = one_pass(wl, ctx, ops, golden)
        verdicts += v
        tracer, result["traced_s"], v = traced_pass(chernkit, wl, ctx, ops, golden)
        result["verdicts"] = verdicts + v
        result["layers"] = layer_metrics(tracer.spans)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT / f"spans-{wl.name}-seed{cfg['seed']}.json")
    elif mode == "repeat":
        ctx = {**ctx, "inprocess": True} if wl.name == "cli_oneshot" else ctx
        tracer, result["traced_s"], result["verdicts"] = traced_pass(chernkit, wl, ctx, ops, golden)
        result["layers"] = layer_metrics(tracer.spans)

    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
