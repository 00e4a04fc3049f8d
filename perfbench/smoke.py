"""Smoke test of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

* runs every workload once untraced and once traced with ``--seconds 1``
  (one round each) and checks that the last line carries exactly the keys
  of the contract, every metric of ``BENCHMARK.json`` with its unit, and
  ``correct: true``;
* feeds the correctness checks recorded outputs together with a
  deliberately wrong expected value and checks that each one objects
  (this tests the checker, not the library);
* runs the benchmark in a directory that holds only ``BENCHMARK.json`` and
  ``perfbench/`` and checks that it fails without printing a result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import workloads

RUN = [sys.executable, str(workloads.ROOT / "perfbench" / "run.py")]


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(problems: list) -> None:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, level in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[level]}
        for name in workloads.WORKLOADS:
            argv = [*RUN, "--workload", name, "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=workloads.ROOT, capture_output=True, text=True, timeout=300)
            res = last_json(proc.stdout)
            tag = f"{name} --trace {trace}"
            print(f"{tag}: exit {proc.returncode}", flush=True)
            if proc.returncode != 0 or res is None:
                problems.append(f"{tag}: exit {proc.returncode}, stderr {proc.stderr[-500:]}")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={res.get('correct')} failed={res.get('failed')}")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != want:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is not positive")


def check_checker(problems: list) -> None:
    """Each check must object when the expected value is wrong."""
    import chernkit

    golden = {name: workloads.load_golden(workloads.DEFAULT_SEED, name) for name in workloads.WORKLOADS}
    if not all(golden.values()):
        problems.append("golden outputs missing")
        return

    def objects(tag, wl, op, out, expected):
        verdict = wl.check(op, out, expected)
        print(f"checker {tag}: {verdict[:100]}")
        if verdict in (workloads.OK, workloads.REFUSED, workloads.DISAGREED):
            problems.append(f"checker accepted a wrong expected value: {tag}")

    def accepts(tag, wl, op, out, expected):
        verdict = wl.check(op, out, expected)
        if verdict not in (workloads.OK, workloads.REFUSED):
            problems.append(f"checker rejected a recorded output: {tag}: {verdict}")

    W = workloads.WORKLOADS
    rounds = {name: [wl.rounds(chernkit, workloads.DEFAULT_SEED)[0]] for name, wl in W.items()}

    # chern_points: a recorded value against a wrong golden value
    i, op = next((i, op) for i, op in enumerate(rounds["chern_points"][0]) if op["model"] == "haldane")
    rec = golden["chern_points"][0][i]
    out = {"value": rec["value"], "values": {}}
    accepts("chern golden", W["chern_points"], op, out, rec)
    objects("chern golden", W["chern_points"], op, out, {"value": rec["value"] + 1})
    # and a wrong closed form: the same output at a point of the other phase
    objects("chern closed form", W["chern_points"], {**op, "params": {**op["params"], "m": 5.0}}, out, None)
    # an engine disagreement is tallied apart, unless the golden output has a value
    split = {"error": "CrossValidationError", "message": "engine disagreement"}
    if W["chern_points"].check(op, split, None) != workloads.DISAGREED:
        problems.append("checker did not tally an engine disagreement")
    objects("chern disagreement golden", W["chern_points"], op, split, rec)

    # phase_scan: one recorded label flipped in the golden output
    op, rec = rounds["phase_scan"][0][1], golden["phase_scan"][0][1]
    accepts("scan golden", W["phase_scan"], op, rec, rec)
    wrong = dict(rec, labels=list(rec["labels"]))
    wrong["labels"][0] = wrong["labels"][0] + 1
    objects("scan golden", W["phase_scan"], op, rec, wrong)
    # and against the closed form, with no golden output
    objects("scan closed form", W["phase_scan"], op, wrong, None)

    # transitions: a recorded location against a shifted analytic value
    op, rec = rounds["transitions"][0][0], golden["transitions"][0][0]
    accepts("transition", W["transitions"], op, rec, rec)
    objects("transition analytic", W["transitions"], {**op, "expected": op["expected"] + 1e-3}, rec, None)
    objects("transition golden", W["transitions"], op, rec, {"x": rec["x"] + 1e-3})

    # cli_oneshot: a ring listing and an exit code against wrong expectations
    op = rounds["cli_oneshot"][0][4]
    distances = workloads.commensurate_rule(op["d"], op["limit"])
    out = {"rc": 0, "stdout": json.dumps({"distances": distances}), "stderr": ""}
    accepts("cli ring", W["cli_oneshot"], op, out, {"rc": 0, "distances": distances})
    objects("cli ring golden", W["cli_oneshot"], op, out, {"rc": 0, "distances": distances[:-1]})
    objects("cli ring rule", W["cli_oneshot"], {**op, "limit": op["limit"] + 30}, out, None)
    objects("cli exit code", W["cli_oneshot"], op, out, {"rc": 3, "distances": distances})


def check_bare_directory(problems: list) -> None:
    workloads.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(workloads.ROOT / "perfbench", f"{tmp}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "chern_points", "--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()[:120]}")
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append("benchmark did not fail without the package source")


def main() -> int:
    problems: list[str] = []
    sys.path.insert(0, str(workloads.SRC))
    check_checker(problems)
    check_bare_directory(problems)
    check_runs(problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
