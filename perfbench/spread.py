"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads chern_points,...] [--seeds 1-10]
                                [--seconds 12] [--save set1.json] [--against set0.json]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every end-to-end metric its median and quartile spread
(Q3 - Q1) / median over the seeds, with ``statistics.quantiles(n=4)``,
next to the bound of ``BENCHMARK.json`` and a third of it.  It also pools
the latency samples of all runs of a workload and prints the pooled p90
with its sample count, for workloads whose single run is too short to
have ten calls beyond p90.  ``--against`` compares the medians with an
earlier saved set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads
from run import p90


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    runs = {}
    for name in args.workloads.split(","):
        runs[name] = {"metrics": [], "latencies": [], "correct": []}
        for seed in seeds_of(args.seeds):
            argv = [sys.executable, str(workloads.ROOT / "perfbench" / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(argv, cwd=workloads.ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(workloads.OUT / f"result-{name}-seed{seed}-trace0.json", encoding="utf-8") as fh:
                record = json.load(fh)
            runs[name]["latencies"] += record["latencies"]
            runs[name]["metrics"].append({k: v["value"] for k, v in res["metrics"].items()})
            runs[name]["correct"].append(res["correct"])
            print(f"{name} seed {seed}: correct={res['correct']} disagreed={record['disagreed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)
    summary = {}
    print(f"\n{'workload':13s} {'metric':16s} {'median':>10s} {'spread':>7s} {'bound/3':>7s} {'bound':>6s}")
    for name, r in runs.items():
        summary[name] = {}
        for metric, bound in bounds.items():
            vals = [m[metric] for m in r["metrics"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = {"median": med, "spread": spread, "values": vals}
            flag = "" if spread < bound / 3 else "  above bound/3" if spread <= bound else "  ABOVE BOUND"
            line = f"{name:13s} {metric:16s} {med:10.4g} {spread:7.3f} {bound / 3:7.3f} {bound:6.2f}{flag}"
            if name in before:
                line += f"  vs earlier median {before[name][metric]['median']:.4g} ({med / before[name][metric]['median'] - 1:+.1%})"
            print(line)
        lat = r["latencies"]
        print(f"{name:13s} pooled over {len(r['metrics'])} runs: {len(lat)} calls, "
              f"p50 {1e3 * statistics.median(lat):.4g} ms, p90 {1e3 * p90(lat):.4g} ms "
              f"({sum(1 for x in lat if x > p90(lat))} calls beyond p90); all correct: {all(r['correct'])}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
