"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller over *rounds*: a round is a
fixed list of operations whose inputs are drawn from the seed.  The library
receives only those inputs (model names, params, axes, brackets, argv).

Outputs are checked three ways:

* closed-form labels and transition locations where the model has them,
  in the package's convention C0 = -deg h for the ground band;
* the engines' unanimity (``cross_validate`` raises on disagreement);
  a disagreement is tallied apart from failed ops, see ``DISAGREED``;
* for the default seed, golden outputs recorded at the commit that added
  this benchmark (``golden/seed0.json``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
#: where runs leave result records and span dumps (ignored by git)
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
REFUSALS = ("DegenerateFamilyError", "ResolutionError", "RaySelectionError", "MethodInapplicableError")
SQ3 = math.sqrt(3.0)
OK, REFUSED = "ok", "refused"
#: verdict of a chern_points op where ``cross_validate`` raised
#: CrossValidationError: the oracle declined to certify a point because one
#: engine gave another integer (a known library defect near gap closings).
#: It is tallied apart from failed ops and from honest refusals, printed on
#: every run and counted as ``invariants.cross_validate.disagreements``.
DISAGREED = "disagreed"


# ---------------------------------------------------------------------------
# closed-form phase diagrams (ground band, C0 = -deg h)
# ---------------------------------------------------------------------------
#
# Each returns (label, margin): margin is the smallest |h3| over the Dirac
# points of (h1, h2), i.e. half the analytic gap; label is None on a boundary.


def _haldane(p):
    mstar = 3.0 * SQ3 * p["t2"] * math.sin(p["phi"])
    margin = min(abs(p["m"] - mstar), abs(p["m"] + mstar))
    return (int(np.sign(mstar)) if abs(p["m"]) < abs(mstar) else 0), margin


def _bhz(p):
    m, t = p["m"], p["t1"]
    margin = min(abs(m), abs(m - 2 * t), abs(m + 2 * t))
    return (1 if 0 < m < 2 * t else -1 if -2 * t < m < 0 else 0), margin


def _mb_dirac(p):
    M, B = p["M"], p["B"]
    margin = min(abs(M), abs(M - B), abs(M - 2 * B))
    return (-1 if 0 < M < B else 1 if B < M < 2 * B else 0), margin


def _kagome(p):
    # complex nearest-neighbour hopping t1 + i u1 = r e^{i theta}: the flux
    # 3 theta per triangle sets the label; the gap closes where sin 3 theta = 0
    s = math.sin(3.0 * math.atan2(p["u1"], p["t1"]))
    return int(np.sign(s)), abs(s)


CLOSED_FORM = {
    "haldane": _haldane,
    "bhz_square": _bhz,
    "mb_dirac": _mb_dirac,
    "kagome": _kagome,
    # -h(d kx, ky) and -h(d1 kx, d2 ky) built on a degree-one map: deg = -d, -d1 d2
    "spin_ssphere": lambda p: (int(p["d"]), 1.0),
    "torus_wind": lambda p: (int(p["d1"]) * int(p["d2"]), 1.0),
}


def closed_form(model: str, params: dict, scale: int | None = None):
    """Analytic label or None (no closed form, or exactly on a boundary)."""
    rule = CLOSED_FORM.get(model)
    if rule is None:
        return None
    label, margin = rule(params)
    if margin < 1e-9:
        return None
    return label * (scale or 1) ** 2


def commensurate_rule(d: int, limit: int) -> list[int]:
    """Distances N <= limit with no split prime factor in Z[i] (d=1) or
    Z[omega] (d=3): primes 1 mod 4, respectively 1 mod 3."""
    mod = 4 if d == 1 else 3

    def ok(n):
        p = 2
        while p * p <= n:
            while n % p == 0:
                if p % mod == 1:
                    return False
                n //= p
            p += 1
        return not (n > 1 and n % mod == 1)

    return [n for n in range(1, limit + 1) if ok(n)]


def scan_cell_ok(label, model: str, params: dict, steps: dict):
    """Check one scan cell; cells within one grid step of an analytic
    boundary may be DEGENERATE, an engine refusal, or either neighbour's label."""
    want = closed_form(model, params)
    nearby = {want}
    for name, step in steps.items():
        for s in (-step, step):
            nearby.add(closed_form(model, {**params, name: params[name] + s}))
    if len(nearby) == 1 and want is not None:
        return OK if label == want else f"cell {params} labelled {label}, expected {want}"
    if label == "DEGENERATE" or label is None:
        return REFUSED if label is None else OK
    return OK if label in nearby else f"cell {params} near a boundary labelled {label}, allowed {sorted(x for x in nearby if x is not None)}"


def _first_failure(verdicts):
    bad = [v for v in verdicts if v not in (OK, REFUSED)]
    if bad:
        return bad[0]
    return REFUSED if REFUSED in verdicts else OK


def _jitter(rng, defaults: dict) -> dict:
    """Floats scaled by U(0.8, 1.2); zero-valued floats moved by U(-0.2, 0.2)."""
    out = dict(defaults)
    for k, v in defaults.items():
        if isinstance(v, float):
            out[k] = v * float(rng.uniform(0.8, 1.2)) if v else float(rng.uniform(-0.2, 0.2))
    return out


def error_outcome(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)[:300]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Rounds:
    """The rounds of one workload and seed, drawn in order on first use."""

    def __init__(self, wl, ck, seed: int):
        self.wl, self.ck = wl, ck
        self.rng = np.random.default_rng(seed)
        self.drawn: list[list[dict]] = []

    def __getitem__(self, r: int) -> list[dict]:
        while len(self.drawn) <= r:
            self.drawn.append(self.wl.make_round(self.ck, self.rng, len(self.drawn)))
        return self.drawn[r]


class Workload:
    name = ""
    kind = ""
    #: calls of round 0 the traced run covers (None: the whole round)
    traced_calls: int | None = None

    def rounds(self, ck, seed: int) -> Rounds:
        return Rounds(self, ck, seed)

    def traced(self, ctx: dict, tracer) -> dict:
        """The context with every model's field and Jacobian counted."""
        if "models" not in ctx:
            return ctx
        return {**ctx, "models": {k: tracer.counted_model(m) for k, m in ctx["models"].items()}}

    def items(self, op: dict) -> int:
        return 1

    def golden_view(self, op: dict, out: dict) -> dict:
        return out

    def check_golden(self, view: dict, golden: dict | None):
        if golden is None or view == golden:
            return OK
        return f"differs from golden output: {view} != {golden}"


class ChernPoints(Workload):
    """cross_validate at jittered points across the 2-band catalog.

    Every float param is jittered by +-20% with no filter, so some points lie
    close to a gap closing (haldane3nn, mb_dirac near M = B).  There an
    engine may refuse, which is counted as an honest refusal, or the engines
    may disagree, which ``cross_validate`` reports by raising and which is
    tallied as ``DISAGREED``.  A disagreement where the golden output has a
    value, and any returned integer that contradicts a closed form or the
    golden output, is a failed op.
    """

    name, kind = "chern_points", "cross_validate"
    MODELS = [
        ("haldane", None), ("haldane3nn", None), ("bhz_square", None), ("triangular", None),
        ("mb_dirac", None), ("square_power", None), ("spin_ssphere", None), ("torus_wind", None),
        ("haldane", 2),
    ]
    #: points per round of the five fast models, which cost about a third of
    #: the others: the median call then lies inside their cost cluster and
    #: p90 inside that of the slow models, not on the edge of either
    REPEAT = {"bhz_square": 3, "mb_dirac": 3, "square_power": 3, "spin_ssphere": 3, "torus_wind": 3}

    def make_round(self, ck, rng, r):
        ops = []
        for model, scale in self.MODELS:
            m = ck.builtin_model(model)
            for _ in range(self.REPEAT.get(model, 1)):
                ops.append({"model": model, "scale": scale, "params": _jitter(rng, m.defaults)})
        return ops

    @staticmethod
    def key(op):
        return op["model"] if op["scale"] is None else f"{op['model']}@scale{op['scale']}"

    def setup(self, ck):
        models = {}
        for model, scale in self.MODELS:
            m = ck.builtin_model(model)
            op = {"model": model, "scale": scale}
            models[self.key(op)] = m if scale is None else ck.scale_model(m, scale)
        ck.invariants.cross_validate(models["bhz_square"], None)  # warm-up
        return {"ck": ck, "models": models}

    def call(self, ctx, op):
        return ctx["ck"].invariants.cross_validate(ctx["models"][self.key(op)], op["params"])

    def summarize(self, op, ret):
        return {"value": int(ret["value"])}

    def golden_view(self, op, out):
        return {"error": out["error"]} if "error" in out else {"value": out["value"]}

    def check(self, op, out, golden):
        if "error" in out:
            if golden is not None and golden != self.golden_view(op, out):
                return f"{self.key(op)}: {out['error']} where golden has {golden}: {out['message']}"
            if out["error"] == "CrossValidationError":
                return DISAGREED
            if out["error"] not in REFUSALS:
                return f"{self.key(op)} {op['params']}: {out['error']}: {out['message']}"
            return REFUSED
        want = closed_form(op["model"], op["params"], op["scale"])
        if want is not None and out["value"] != want:
            return f"{self.key(op)} {op['params']}: C = {out['value']}, closed form {want}"
        return self.check_golden(self.golden_view(op, out), golden)


class PhaseScan(Workload):
    """Serial 25-cell scans: Haldane phi-m grids, bhz and kagome lines.

    Every window has the same shape, with seeded ends: a Haldane grid spans
    about one period of phi, so each one crosses the same phase boundaries
    and costs about the same.  A round holds four Haldane grids, one bhz line
    and one kagome line.  The bhz line costs about half a Haldane grid and
    the kagome line a little more than one, so the median call lies well
    inside the cluster of Haldane grids.
    """

    name, kind = "phase_scan", "scan"
    MODELS = ("haldane", "bhz_square", "kagome")

    @staticmethod
    def _haldane(rng):
        return {"model": "haldane", "axes": [
            ["phi", -math.pi * float(rng.uniform(0.85, 1.0)), math.pi * float(rng.uniform(0.85, 1.0)), 5],
            ["m", -float(rng.uniform(2.5, 3.5)), float(rng.uniform(2.5, 3.5)), 5]]}

    def make_round(self, ck, rng, r):
        ops = [
            self._haldane(rng),
            {"model": "bhz_square", "axes": [
                ["m", -float(rng.uniform(2.5, 3.5)), float(rng.uniform(2.5, 3.5)), 25]]},
            self._haldane(rng),
            self._haldane(rng),
            {"model": "kagome", "axes": [
                ["u1", -float(rng.uniform(2.0, 2.5)), float(rng.uniform(2.0, 2.5)), 25]]},
            self._haldane(rng),
        ]
        for op in ops:
            op["defaults"] = ck.builtin_model(op["model"]).defaults
        return ops

    def setup(self, ck):
        models = {name: ck.builtin_model(name) for name in self.MODELS}
        ck.phasediag.scan(models["bhz_square"], [("m", -1.0, 1.0, 2)])  # warm-up
        return {"ck": ck, "models": models}

    def items(self, op):
        return math.prod(ax[3] for ax in op["axes"])

    def call(self, ctx, op):
        return ctx["ck"].phasediag.scan(ctx["models"][op["model"]], [tuple(ax) for ax in op["axes"]])

    def summarize(self, op, ret):
        return {
            "labels": [c.chern for c in ret.cells],
            "boundary": [[list(a), list(b)] for a, b in ret.boundary],
        }

    def check(self, op, out, golden):
        if "error" in out:
            return f"scan {op['model']}: {out['error']}: {out['message']}"
        defaults = op["defaults"]
        grids = [np.linspace(lo, hi, n) for _, lo, hi, n in op["axes"]]
        steps = {ax[0]: float(g[1] - g[0]) for ax, g in zip(op["axes"], grids)}
        verdicts = []
        for index, label in zip(np.ndindex(*(len(g) for g in grids)), out["labels"]):
            params = {**defaults, **{ax[0]: float(g[i]) for ax, g, i in zip(op["axes"], grids, index)}}
            verdicts.append(scan_cell_ok(label, op["model"], params, steps))
        verdicts.append(self.check_golden(self.golden_view(op, out), golden))
        return _first_failure(verdicts)


class Transitions(Workload):
    """locate_transition on brackets holding exactly one analytic closing.

    A round is bhz, mb_dirac, haldane, bhz, mb_dirac: a Haldane call costs
    about three of the others, and with four cheaper calls per round the
    median call is not a single sample.
    """

    name, kind = "transitions", "locate_transition"
    #: the traced run covers one call per model; a whole round, traced twice
    #: and run once untraced, would not fit the run's time budget
    traced_calls = 3

    def make_round(self, ck, rng, r):
        def bracket(x, lo, hi):
            return x - float(rng.uniform(lo, hi)), x + float(rng.uniform(lo, hi))

        def bhz(j):
            t1 = float(rng.uniform(0.8, 1.2))
            return "bhz_square", "m", (-2 * t1, 0.0, 2 * t1)[j % 3], {"t1": t1}, (0.2, 0.6)

        def mb(j):
            B = float(rng.uniform(0.8, 1.2))
            return "mb_dirac", "M", (0.0, B, 2 * B)[j % 3], {"B": B}, (0.1, 0.35)

        def haldane(j):
            t2 = 0.5 * float(rng.uniform(0.8, 1.2))
            phi = math.pi / 2 * float(rng.uniform(0.8, 1.2))
            x = (1, -1)[j % 2] * 3 * SQ3 * t2 * math.sin(phi)
            return "haldane", "m", x, {"t2": t2, "phi": phi}, (0.2, 0.6)

        ops = []
        for model, axis, x, params, (lo, hi) in (bhz(2 * r), mb(2 * r + 1), haldane(r), bhz(2 * r + 1), mb(2 * r + 2)):
            a, b = bracket(x, lo, hi)
            ops.append({"model": model, "axis": axis, "lo": a, "hi": b, "params": params, "expected": x})
        return ops

    def setup(self, ck):
        models = {name: ck.builtin_model(name) for name in ("bhz_square", "mb_dirac", "haldane")}
        ck.models.pre_dirac_points(models["bhz_square"])  # warm-up
        return {"ck": ck, "models": models}

    def call(self, ctx, op):
        return ctx["ck"].phasediag.locate_transition(
            ctx["models"][op["model"]], op["axis"], op["lo"], op["hi"], params=op["params"]
        )

    def summarize(self, op, ret):
        return {"x": float(ret)}

    def check(self, op, out, golden):
        if "error" in out:
            return f"locate_transition {op['model']}: {out['error']}: {out['message']}"
        if abs(out["x"] - op["expected"]) > 1e-6:
            return f"{op['model']} transition at {out['x']!r}, analytic {op['expected']!r}"
        if golden is not None and ("x" not in golden or abs(out["x"] - golden["x"]) > 1e-6):
            return f"{op['model']} transition at {out['x']!r}, golden {golden}"
        return OK


class CliOneshot(Workload):
    """One chernkit CLI subprocess at a time over a seeded command mix."""

    name, kind = "cli_oneshot", "cli"

    def make_round(self, ck, rng, r):
        chern = {"m": float(rng.uniform(-0.5, 0.5)), "phi": math.pi / 2 * float(rng.uniform(0.8, 1.2))}
        validate = {"m": -float(rng.uniform(0.8, 1.2))}
        lo, hi = -float(rng.uniform(2.5, 3.5)), float(rng.uniform(2.5, 3.5))
        k = 3 + r % 3
        labels = ",".join(str(int(x)) for x in rng.integers(-2, 3, size=k))
        d = (1, 3)[r % 2]
        limit = int(rng.integers(20, 41))
        haldane, bhz = (ck.builtin_model(name).defaults for name in ("haldane", "bhz_square"))
        return [
            {"check": "chern", "params": {**haldane, **chern}, "argv": [
                "chern", "--model-config", json.dumps({"model": "haldane", "params": chern}), "--method", "all"]},
            {"check": "validate", "argv": [
                "validate", "--model-config", json.dumps({"model": "bhz_square", "params": validate}),
                "--points", "3", "--seed", str(int(rng.integers(0, 2**31)))]},
            {"check": "scan", "defaults": bhz, "argv": [
                "scan", "--model-config", json.dumps({"model": "bhz_square"}), "--axis", f"m:{lo!r}:{hi!r}:9"]},
            {"check": "fan", "argv": ["fan", "--k", str(k), f"--labels={labels}"]},
            {"check": "ring", "d": d, "limit": limit, "argv": [
                "ring", "--op", "distances", "--d", str(d), "--limit", str(limit)]},
        ]

    def setup(self, ck):
        return {"ck": ck, "inprocess": False}

    def call(self, ctx, op):
        if ctx["inprocess"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ctx["ck"].cli.run(op["argv"])
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "chernkit.cli", *op["argv"]],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def summarize(self, op, ret):
        rc, stdout, stderr = ret
        return {"rc": rc, "stdout": stdout, "stderr": stderr[-2000:]}

    def golden_view(self, op, out):
        if "error" in out:
            return {"error": out["error"]}
        view = {"rc": out["rc"]}
        if out["rc"] != 0:
            return view
        kind = op["check"]
        if kind == "scan":
            view["labels"] = [row["chern"] for row in csv.DictReader(io.StringIO(out["stdout"]))]
            return view
        payload = json.loads(out["stdout"])
        if kind == "chern":
            view["value"] = payload["value"]
        elif kind == "validate":
            view["values"] = [pt["value"] for pt in payload["points"]]
        elif kind == "fan":
            view["passed"] = payload["passed"]
        elif kind == "ring":
            view["distances"] = payload["distances"]
        return view

    def check(self, op, out, golden):
        kind = op["check"]
        if "error" in out:
            return f"cli {kind}: {out['error']}: {out['message']}"
        if out["rc"] != 0:
            return f"cli {kind} exited {out['rc']}: {out['stderr'][-300:]}"
        try:
            verdict = self._check_output(op, out)
            view = self.golden_view(op, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"cli {kind}: unreadable output ({type(exc).__name__}: {exc})"
        return _first_failure([verdict, self.check_golden(view, golden)])

    def _check_output(self, op, out):
        kind = op["check"]
        if kind == "scan":
            rows = list(csv.DictReader(io.StringIO(out["stdout"])))
            ms = [float(row["m"]) for row in rows]
            steps = {"m": ms[1] - ms[0]}
            verdicts = []
            for row, m in zip(rows, ms):
                label = row["chern"]
                label = None if label == "ERROR" else label if label == "DEGENERATE" else int(label)
                verdicts.append(scan_cell_ok(label, "bhz_square", {**op["defaults"], "m": m}, steps))
            return _first_failure(verdicts) if len(rows) == 9 else f"scan wrote {len(rows)} rows, expected 9"
        payload = json.loads(out["stdout"])
        if kind == "chern":
            want = closed_form("haldane", op["params"])
            if len(set(payload["values"].values())) != 1 or payload["value"] != want:
                return f"chern haldane {op['params']}: {payload['values']}, closed form {want}"
        elif kind == "validate":
            if not payload["passed"] or len(payload["points"]) != 3:
                return f"validate: {payload}"
            for pt in payload["points"]:
                want = closed_form("bhz_square", pt["params"])
                if len(set(pt["values"].values())) != 1 or pt["value"] != want:
                    return f"validate bhz {pt['params']}: {pt['values']}, closed form {want}"
        elif kind == "fan":
            if payload["passed"] is not True:
                return f"fan {op['argv']}: not realized"
        elif kind == "ring":
            want = commensurate_rule(op["d"], op["limit"])
            if payload["distances"] != want:
                return f"ring d={op['d']} limit={op['limit']}: {payload['distances']} != {want}"
        return OK


WORKLOADS = {w.name: w for w in (ChernPoints(), PhaseScan(), Transitions(), CliOneshot())}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def child_env() -> dict:
    """Environment for every process the benchmark starts: the package from
    ``src/`` and no more BLAS or scan threads than the machine's cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    n = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, n)
    if (os.cpu_count() or 1) > nproc():
        env.setdefault("CHERNKIT_WORKERS", n)
    return env


def load_golden(seed: int, workload: str) -> list:
    """Golden rounds for ``workload``; empty unless ``seed`` is the default."""
    path = GOLDEN / f"seed{DEFAULT_SEED}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, [])


def golden_entry(golden: list, r: int, i: int):
    return golden[r][i] if r < len(golden) else None
