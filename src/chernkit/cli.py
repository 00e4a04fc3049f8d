"""Command-line front end.

Subcommands: ring, models, chern, scan, rose, wall, fan, validate.
Exit codes: 0 success, 2 configuration/validation errors, 3 numeric failures
(degeneracy, unresolved residuals); on failure a machine-readable JSON error
object is written to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, invariants, models, phasediag, quadring


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 2, **payload):
        super().__init__(message)
        self.exit_code = exit_code
        self.payload = payload


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, invariants.ChernResult):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _emit_json(payload, stream=None):
    json.dump(_jsonable(payload), stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


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
    try:
        model = models.builtin_model(cfg["model"])
        params = cfg.get("params") or {}
        if not isinstance(params, dict):
            raise CliError('"params" must be an object')
        if "N" in cfg and cfg["N"] is not None:
            model = models.scale_model(model, cfg["N"], cfg.get("variant", "all"))
        model.params_with_defaults(params)
    except models.ModelError as exc:
        raise CliError(str(exc)) from exc
    return model, params


def _parse_grid(text: str) -> int:
    try:
        if "x" in text:
            nx, ny = text.lower().split("x")
            if int(nx) != int(ny):
                raise CliError("only square grids NxN are supported")
            return int(nx)
        return int(text)
    except ValueError as exc:
        raise CliError(f"bad grid spec {text!r}") from exc


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise CliError(f"axis must be name:lo:hi:n, got {text!r}")
    name, lo, hi, n = parts
    try:
        return (name, float(lo), float(hi), int(n))
    except ValueError as exc:
        raise CliError(f"bad axis spec {text!r}") from exc


def _open_out(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ring(args) -> int:
    try:
        if args.op == "distances":
            vals = quadring.commensurate_distances(
                args.lattice, args.limit, rotated=args.rotated
            )
            _emit_json({"lattice": args.lattice, "limit": args.limit, "distances": vals})
        elif args.op == "shell":
            ring = quadring.make_ring(args.d)
            sh = quadring.shell_enumerate(ring, args.n)
            _emit_json(
                {
                    "d": args.d,
                    "n": args.n,
                    "points": [list(p) for p in sh.points],
                    "represented": sh.represented,
                    "isolated": sh.isolated,
                    "distance": sh.distance,
                }
            )
        elif args.op == "classify":
            ring = quadring.make_ring(args.d)
            _emit_json({"d": args.d, "p": args.p, "behavior": quadring.classify_prime(ring, args.p).value})
        elif args.op == "isolated":
            ring = quadring.make_ring(args.d)
            _emit_json(
                {
                    "d": args.d,
                    "n": args.n,
                    "isolated": quadring.is_isolated_norm(ring, args.n),
                    "advisory": quadring.isolated_norm_advisory(ring, args.n),
                }
            )
    except quadring.RingError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _cmd_models(args) -> int:
    if args.name:
        try:
            m = models.builtin_model(args.name)
        except models.ModelError as exc:
            raise CliError(str(exc)) from exc
        _emit_json(
            {
                "name": m.name,
                "bands": m.bands,
                "lattice": m.lattice,
                "defaults": m.defaults,
                "zone": {"g1": m.zone.g1, "g2": m.zone.g2},
                "periodicity": m.periodicity,
            }
        )
    else:
        listing = {}
        for name in models.catalog():
            m = models.builtin_model(name)
            listing[name] = {
                "bands": m.bands,
                "lattice": m.lattice,
                "defaults": m.defaults,
            }
        _emit_json({"models": listing})
    return 0


def _cmd_chern(args) -> int:
    model, params = _load_model_config(args.model_config)
    grid = _parse_grid(args.grid)
    if args.method == "berry":
        result = invariants.chern_berry_lattice(model, params, band=args.band, grid=grid)
        _emit_json(result)
    elif args.method == "integral":
        result = invariants.degree_integral(model, params, grid=max(grid, 100), band=args.band)
        _emit_json(result)
    elif args.method == "ray":
        result = invariants.degree_ray(model, params, band=args.band)
        _emit_json(result)
    else:  # all
        report = invariants.cross_validate(
            model, params, grids={"berry": grid}, band=args.band
        )
        _emit_json(
            {
                "value": report["value"],
                "band": report["band"],
                "values": report["values"],
                "residuals": report["residuals"],
                "results": report["results"],
            }
        )
    return 0


def _cmd_scan(args) -> int:
    model, params = _load_model_config(args.model_config)
    if params:
        model = dataclasses.replace(model, defaults=model.params_with_defaults(params))
    axes = [_parse_axis(a) for a in args.axis]
    try:
        diagram = phasediag.scan(
            model,
            axes,
            degeneracy_threshold=args.threshold,
            band=args.band,
            grid=_parse_grid(args.grid),
        )
    except models.ModelError as exc:
        raise CliError(str(exc)) from exc
    out, close = _open_out(args.out)
    try:
        writer = csv.writer(out)
        names = [ax[0] for ax in diagram.axes]
        writer.writerow(names + ["chern", "min_gap"])
        for cell in diagram.cells:
            label = cell.chern if cell.chern is not None else "ERROR"
            writer.writerow(
                [repr(cell.params[n]) for n in names]
                + [label, repr(cell.min_gap)]
            )
    finally:
        if close:
            out.close()
    certified = sum(cell.certified for cell in diagram.cells)
    summary = {
        "axes": [list(ax) for ax in diagram.axes],
        "boundaries": [[list(a), list(b)] for a, b in diagram.boundary],
        "errors": list(diagram.errors),
        "certified": certified,
        "refined": len(diagram.cells) - certified,
    }
    if close:
        _emit_json(summary)
    else:
        _emit_json(summary, stream=sys.stderr)
    return 0


def _cmd_rose(args) -> int:
    rc = phasediag.rose_curve(args.d, args.dprime, args.t, args.samples)
    out, close = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(["x", "y"])
        for x, y in rc.samples:
            writer.writerow([repr(float(x)), repr(float(y))])
    finally:
        if close:
            out.close()
    return 0


def _cmd_wall(args) -> int:
    try:
        zeros = phasediag.wall_zeros(args.d, args.dprime)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    fam = phasediag.wall_family(args.d, args.dprime)
    ts = np.linspace(0.0, 1.0, args.tsamples)
    trace = [[float(t), fam.min_norm(t)] for t in ts]
    _emit_json(
        {
            "d": args.d,
            "dprime": args.dprime,
            "delta": fam.delta,
            "zeros": zeros,
            "trace": trace,
        }
    )
    return 0


def _cmd_fan(args) -> int:
    try:
        labels = [int(x) for x in args.labels.split(",")]
        fan = phasediag.FanDiagram(k=args.k, labels=tuple(labels))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = phasediag.verify_realization(fan, probe_radius=args.probe_radius)
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
    ring.add_argument("--lattice", choices=["square", "triangular"], default=None)
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
    ch.add_argument("--method", choices=["berry", "integral", "ray", "all"], default="all")
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
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    if args.command == "ring" and args.op == "distances" and args.lattice is None:
        args.lattice = "square" if args.d == 1 else "triangular"
    try:
        return args.func(args)
    except CliError as exc:
        _emit_json({"error": str(exc), **exc.payload}, stream=sys.stderr)
        return exc.exit_code
    except (quadring.RingError, models.ModelError, ValueError) as exc:
        _emit_json({"error": str(exc), "kind": type(exc).__name__}, stream=sys.stderr)
        return 2
    except invariants.InvariantError as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        if isinstance(exc, invariants.DegenerateFamilyError) and exc.k is not None:
            payload["k"] = exc.k.tolist()
        if isinstance(exc, invariants.ResolutionError) and exc.raw is not None:
            payload["raw"] = exc.raw
        _emit_json(payload, stream=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
