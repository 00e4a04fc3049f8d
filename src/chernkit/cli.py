"""Command-line front end.

Subcommands: ring, models, chern, scan, rose, wall, fan, validate.  Results go
to stdout as JSON, or as CSV for sampled data (``scan``, ``rose``; ``--out``
sends the CSV to a file, and the ``scan`` summary then goes to stdout instead
of stderr).  ``ring --op distances`` takes its lattice from ``--d``: 1 is the
square lattice, 3 the triangular one.

Exit codes: 0 success; 2 configuration or validation errors (any
``ValueError``: ``ModelError``, ``RingError``, ``CapacityError``, ``CliError``);
3 numeric failures (``InvariantError``: degeneracy on the grid, unresolved
residuals, engine disagreement) and a fan that is not realized.  :func:`run`
is the one place that turns an exception into an exit code: it writes
``{"error": message, "kind": exception class}`` to stderr, plus ``k`` (the
degenerate momentum) and ``raw`` (the unrounded invariant) when the exception
carries them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys

import numpy as np

from . import __version__, invariants, models, phasediag, quadring


class CliError(ValueError):
    """A bad command line or config; exits 2 unless ``exit_code`` says otherwise."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, invariants.ChernResult):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(payload, stream=None):
    stream = stream or sys.stdout
    json.dump(payload, stream, indent=2, sort_keys=True, default=_json_default)
    stream.write("\n")


def _write_csv(path: str | None, header, rows) -> bool:
    """Write a CSV table to ``path``, or to stdout for None and "-"; True for stdout."""
    to_stdout = path in (None, "-")
    sink = (contextlib.nullcontext(sys.stdout) if to_stdout
            else open(path, "w", newline="", encoding="utf-8"))
    with sink as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    return to_stdout


def _load_model_config(spec: str):
    """Model config: a JSON file path or an inline JSON object string.

    Schema: {"model": name, "params": {...}, "N": int?, "variant":
    "all"|"hopping_only"?}.  N with a variant applies scale_model.
    """
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read model config {spec!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"model config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise CliError('model config must be an object with a "model" key')
    model = models.builtin_model(cfg["model"])
    params = cfg.get("params") or {}
    if not isinstance(params, dict):
        raise CliError('"params" must be an object')
    if cfg.get("N") is not None:
        model = models.scale_model(model, cfg["N"], cfg.get("variant", "all"))
    model.params_with_defaults(params)
    return model, params


def _parse_grid(text: str) -> int:
    try:
        nx, ny = text.lower().split("x") if "x" in text else (text, text)
        nx, ny = int(nx), int(ny)
    except ValueError as exc:
        raise CliError(f"bad grid spec {text!r}") from exc
    if nx != ny:
        raise CliError("only square grids NxN are supported")
    return nx


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise CliError(f"axis must be name:lo:hi:n, got {text!r}")
    name, lo, hi, n = parts
    try:
        return (name, float(lo), float(hi), int(n))
    except ValueError as exc:
        raise CliError(f"bad axis spec {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_DISTANCE_LATTICES = {1: "square", 3: "triangular"}


def _cmd_ring(args) -> int:
    if args.op == "distances":
        lattice = _DISTANCE_LATTICES.get(args.d)
        if lattice is None:
            raise CliError(
                f"--op distances needs --d 1 (square) or --d 3 (triangular), got {args.d}"
            )
        vals = quadring.commensurate_distances(lattice, args.limit, rotated=args.rotated)
        _emit_json({"lattice": lattice, "limit": args.limit, "distances": vals})
        return 0
    ring = quadring.make_ring(args.d)
    if args.op == "shell":
        sh = quadring.shell_enumerate(ring, args.n)
        payload = {"n": args.n, "points": sh.points, "represented": sh.represented,
                   "isolated": sh.isolated, "distance": sh.distance}
    elif args.op == "classify":
        payload = {"p": args.p, "behavior": quadring.classify_prime(ring, args.p).value}
    else:  # isolated
        payload = {"n": args.n, "isolated": quadring.is_isolated_norm(ring, args.n),
                   "advisory": quadring.isolated_norm_advisory(ring, args.n)}
    _emit_json({"d": args.d, **payload})
    return 0


def _describe(m) -> dict:
    return {"bands": m.bands, "lattice": m.lattice, "defaults": m.defaults}


def _cmd_models(args) -> int:
    if args.name:
        m = models.builtin_model(args.name)
        _emit_json({**_describe(m), "name": m.name, "periodicity": m.periodicity,
                    "zone": {"g1": m.zone.g1, "g2": m.zone.g2}})
    else:
        listing = {name: _describe(models.builtin_model(name)) for name in models.catalog()}
        _emit_json({"models": listing})
    return 0


# one engine each; looked up on the module at call time so wrappers see every call
_ENGINES = {
    "berry": lambda model, params, band, grid: invariants.chern_berry_lattice(
        model, params, band=band, grid=grid),
    "integral": lambda model, params, band, grid: invariants.degree_integral(
        model, params, grid=max(grid, 100), band=band),
    "ray": lambda model, params, band, grid: invariants.degree_ray(model, params, band=band),
}


def _cmd_chern(args) -> int:
    model, params = _load_model_config(args.model_config)
    grid = _parse_grid(args.grid)
    if args.method == "all":
        report = invariants.cross_validate(model, params, grids={"berry": grid}, band=args.band)
        result = {key: report[key] for key in ("value", "band", "values", "residuals", "results")}
    else:
        result = _ENGINES[args.method](model, params, args.band, grid)
    _emit_json(result)
    return 0


def _cmd_scan(args) -> int:
    model, params = _load_model_config(args.model_config)
    if params:
        model = dataclasses.replace(model, defaults=model.params_with_defaults(params))
    axes = [_parse_axis(a) for a in args.axis]
    diagram = phasediag.scan(
        model,
        axes,
        degeneracy_threshold=args.threshold,
        band=args.band,
        grid=_parse_grid(args.grid),
    )
    names = [ax[0] for ax in diagram.axes]
    rows = (
        [repr(cell.params[n]) for n in names]
        + ["ERROR" if cell.chern is None else cell.chern, repr(cell.min_gap)]
        for cell in diagram.cells
    )
    to_stdout = _write_csv(args.out, names + ["chern", "min_gap"], rows)
    certified = sum(cell.certified for cell in diagram.cells)
    summary = {
        "axes": [list(ax) for ax in diagram.axes],
        "boundaries": [[list(a), list(b)] for a, b in diagram.boundary],
        "errors": list(diagram.errors),
        "certified": certified,
        "refined": len(diagram.cells) - certified,
    }
    _emit_json(summary, stream=sys.stderr if to_stdout else sys.stdout)
    return 0


def _cmd_rose(args) -> int:
    rc = phasediag.rose_curve(args.d, args.dprime, args.t, args.samples)
    _write_csv(args.out, ["x", "y"], ([repr(float(x)), repr(float(y))] for x, y in rc.samples))
    return 0


def _cmd_wall(args) -> int:
    zeros = phasediag.wall_zeros(args.d, args.dprime)
    fam = phasediag.wall_family(args.d, args.dprime)
    trace = [[float(t), fam.min_norm(t)] for t in np.linspace(0.0, 1.0, args.tsamples)]
    _emit_json({"d": args.d, "dprime": args.dprime, "delta": fam.delta, "zeros": zeros,
                "trace": trace})
    return 0


def _cmd_fan(args) -> int:
    labels = tuple(int(x) for x in args.labels.split(","))
    report = phasediag.verify_realization(
        phasediag.FanDiagram(k=args.k, labels=labels), probe_radius=args.probe_radius
    )
    _emit_json(report)
    return 0 if report["passed"] else 3


def _cmd_validate(args) -> int:
    if args.points < 1:
        raise CliError(f"--points must be at least 1, got {args.points}")
    model, params = _load_model_config(args.model_config)
    rng = np.random.default_rng(args.seed)
    base = model.params_with_defaults(params)
    reports = []
    attempts = 0
    while len(reports) < args.points and attempts < 20 * args.points:
        attempts += 1
        if reports:
            trial = {
                k: (v * float(rng.uniform(0.8, 1.2)) if isinstance(v, float) else v)
                for k, v in base.items()
            }
        else:
            trial = dict(base)  # the configured point itself comes first
        try:
            rep = invariants.cross_validate(model, trial, band=args.band)
        except invariants.InvariantError as exc:
            if not reports or isinstance(exc, invariants.CrossValidationError):
                raise  # a disagreement, or a refusal at the configured point, is the answer
            continue  # degenerate draw; resample
        reports.append({"params": trial, "value": rep["value"], "values": rep["values"]})
    if len(reports) < args.points:
        raise CliError(
            f"could not find {args.points} non-degenerate points", exit_code=3
        )
    _emit_json({"passed": True, "points": reports})
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chernkit")
    p.add_argument("--version", action="version", version=f"chernkit {__version__}")
    p.add_argument(
        "--list-models", action="store_true", help="list builtin models and exit"
    )
    sub = p.add_subparsers(dest="command")

    ring = sub.add_parser("ring", help="quadratic-ring shells and distances")
    ring.add_argument("--d", type=int, default=1)
    ring.add_argument("--op", choices=["distances", "shell", "classify", "isolated"], required=True)
    ring.add_argument("--limit", type=int, default=20)
    ring.add_argument("--n", type=int, default=1)
    ring.add_argument("--p", type=int, default=2)
    ring.add_argument("--rotated", action="store_true")
    ring.set_defaults(func=_cmd_ring)

    mdl = sub.add_parser("models", help="describe builtin models")
    mdl.add_argument("--name", default=None)
    mdl.set_defaults(func=_cmd_models)

    ch = sub.add_parser("chern", help="Chern number of one band")
    ch.add_argument("--model-config", required=True)
    ch.add_argument("--method", choices=[*_ENGINES, "all"], default="all")
    ch.add_argument("--band", type=int, default=0)
    ch.add_argument("--grid", default="60")
    ch.set_defaults(func=_cmd_chern)

    sc = sub.add_parser("scan", help="phase-diagram scan over 1 or 2 parameters")
    sc.add_argument("--model-config", required=True)
    sc.add_argument("--axis", action="append", required=True, help="name:lo:hi:n")
    sc.add_argument("--threshold", type=float, default=phasediag.DEGENERACY_THRESHOLD)
    sc.add_argument("--band", type=int, default=0)
    sc.add_argument("--grid", default="40")
    sc.add_argument("--out", default=None, help="CSV path (default stdout)")
    sc.set_defaults(func=_cmd_scan)

    ro = sub.add_parser("rose", help="sampled rose/interpolation curve")
    ro.add_argument("--d", type=int, required=True)
    ro.add_argument("--dprime", type=int, required=True)
    ro.add_argument("--t", type=float, required=True)
    ro.add_argument("--samples", type=int, default=None)
    ro.add_argument("--out", default=None)
    ro.set_defaults(func=_cmd_rose)

    wa = sub.add_parser("wall", help="wall-family zeros and min-norm trace")
    wa.add_argument("--d", type=int, required=True)
    wa.add_argument("--dprime", type=int, required=True)
    wa.add_argument("--tsamples", type=int, default=21)
    wa.set_defaults(func=_cmd_wall)

    fa = sub.add_parser("fan", help="verify a fan realization")
    fa.add_argument("--k", type=int, required=True)
    fa.add_argument("--labels", required=True, help="comma-separated integers")
    fa.add_argument("--probe-radius", type=float, default=1.0)
    fa.set_defaults(func=_cmd_fan)

    va = sub.add_parser("validate", help="cross-validate the three engines")
    va.add_argument("--model-config", required=True)
    va.add_argument("--band", type=int, default=0)
    va.add_argument("--points", type=int, default=1)
    va.add_argument("--seed", type=int, default=0)
    va.set_defaults(func=_cmd_validate)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_models:
        _emit_json({"models": models.catalog()})
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, invariants.InvariantError) as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        for key in ("k", "raw"):
            if getattr(exc, key, None) is not None:
                payload[key] = getattr(exc, key)
        _emit_json(payload, stream=sys.stderr)
        return getattr(exc, "exit_code", 2 if isinstance(exc, ValueError) else 3)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
