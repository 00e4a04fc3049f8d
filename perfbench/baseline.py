"""Reprint the ROADMAP baseline table with one command (not gated).

    python3 perfbench/baseline.py

Times each path of the baseline table in this process: the median of three
calls for paths under two seconds, one call otherwise.  The 20x20 Haldane
scan runs serially and with ``workers=4``, which shows whether the scan
thread pool helps on this machine.
"""

from __future__ import annotations

import math
import platform
import statistics
import sys
import time

import workloads

sys.path.insert(0, str(workloads.SRC))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    first = time.perf_counter() - t0
    if first > 2.0:
        return first, out
    times = [first]
    for _ in range(2):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def fmt(t: float) -> str:
    return f"{t * 1e3:.0f} ms" if t < 1.0 else f"{t:.2f} s"


def main() -> int:
    import numpy as np
    import scipy

    import chernkit as ck
    from chernkit import phasediag

    haldane, h3nn, bhz = (ck.builtin_model(n) for n in ("haldane", "haldane3nn", "bhz_square"))
    rows = []

    t60, _ = timed(lambda: ck.chern_berry_lattice(haldane, grid=60))
    t200, _ = timed(lambda: ck.chern_berry_lattice(haldane, grid=200))
    rows.append(("`chern_berry_lattice` haldane, grid 60 / 200", f"{fmt(t60)} / {fmt(t200)}"))
    t, _ = timed(lambda: ck.degree_integral(haldane, grid=200))
    rows.append(("`degree_integral` haldane, grid 200", fmt(t)))
    ta, _ = timed(lambda: ck.pre_dirac_points(haldane))
    tb, _ = timed(lambda: ck.pre_dirac_points(h3nn))
    rows.append(("`pre_dirac_points` haldane / haldane3nn", f"{fmt(ta)} / {fmt(tb)}"))
    t, rep = timed(lambda: ck.cross_validate(haldane))
    rows.append((f"`cross_validate` haldane (ray engine is {fmt(rep['timings']['degree_ray'])} of it)", fmt(t)))

    solves = 0
    original = phasediag.pre_dirac_points

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return original(*args, **kwargs)

    phasediag.pre_dirac_points = counting
    try:
        t, _ = timed(lambda: ck.locate_transition(bhz, "m", -1.0, 1.0))
    finally:
        phasediag.pre_dirac_points = original
    rows.append((f"`locate_transition` bhz on [-1, 1] ({solves} pre-Dirac solves)", fmt(t)))

    t, _ = timed(lambda: ck.scan(bhz, [("m", -3.0, 3.0, 121)]))
    rows.append(("`scan` bhz 1D, 121 cells", fmt(t)))
    axes = [("phi", -math.pi, math.pi, 20), ("m", -3.0, 3.0, 20)]
    ts, serial = timed(lambda: ck.scan(haldane, axes))
    tw, pooled = timed(lambda: ck.scan(haldane, axes, workers=4))
    same = [c.chern for c in serial.cells] == [c.chern for c in pooled.cells]
    rows.append(("`scan` haldane 2D, 20x20 (serial / `workers=4`)", f"{fmt(ts)} / {fmt(tw)}" + ("" if same else " (labels differ!)")))
    t, _ = timed(lambda: ck.verify_realization(ck.FanDiagram(3, (0, 1, 2))))
    rows.append(("`verify_realization` k = 3", fmt(t)))

    print(f"Baseline ({workloads.nproc()} cores, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; median of 3 calls under 2 s, else one call)\n")
    print("| path | time |\n|---|---|")
    for path, t in rows:
        print(f"| {path} | {t} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
