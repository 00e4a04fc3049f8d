"""In-memory span recorder for the traced benchmark run.

The recorder wraps chernkit's public functions at the module attributes
their callers look up (``phasediag.assemble``, ``invariants.pre_dirac_points``,
``numpy.linalg.eigh``, ``FanFamily.min_norm`` ...), so nothing inside
``src/`` changes.  Each wrapped call becomes a span with a parent id; the
coefficient-field and Jacobian callbacks of a model are counted, not spanned,
through a model rebuilt with ``dataclasses.replace``.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time

import numpy as np

from workloads import REFUSALS

ENGINES = ("invariants.berry", "invariants.integral", "invariants.ray")


def _kpoints(args, kwargs):
    k = np.asarray(args[2] if len(args) > 2 else kwargs["k"])
    return int(np.prod(k.shape[:-1]))


def _matrices(args, kwargs):
    return int(np.prod(np.shape(args[0])[:-2]))


def _zeros(out):
    return {"zeros": len(out)}


def _cells(out):
    labels = [c.chern for c in out.cells]
    return {
        "cells": len(labels),
        "degenerate_cells": sum(1 for x in labels if x == "DEGENERATE"),
        "error_cells": sum(1 for x in labels if x is None),
    }


def targets(chernkit):
    """(owner, attribute, layer, size-of-call, counts-from-result) to wrap."""
    inv, pd, qr, cli = chernkit.invariants, chernkit.phasediag, chernkit.quadring, chernkit.cli
    return [
        (inv, "pre_dirac_points", "models.pre_dirac_points", None, _zeros),
        (pd, "pre_dirac_points", "models.pre_dirac_points", None, _zeros),
        (inv, "assemble", "models.assemble", _kpoints, None),
        (pd, "assemble", "models.assemble", _kpoints, None),
        (np.linalg, "eigh", "linalg.eig", _matrices, None),
        (np.linalg, "eigvalsh", "linalg.eig", _matrices, None),
        (inv, "chern_berry_lattice", "invariants.berry", None, None),
        (pd, "chern_berry_lattice", "invariants.berry", None, None),
        (inv, "degree_integral", "invariants.integral", None, None),
        (inv, "degree_ray", "invariants.ray", None, None),
        (inv, "cross_validate", "invariants.cross_validate", None, None),
        (pd, "minimum_gap", "phasediag.minimum_gap", None, None),
        (pd, "scan", "phasediag.scan", None, _cells),
        (pd, "locate_transition", "phasediag.locate_transition", None, None),
        (pd, "sphere_map_degree", "invariants.sphere_map", None, None),
        (pd.FanFamily, "min_norm", "phasediag.min_norm", None, None),
        (pd, "verify_realization", "phasediag.verify_realization", None, None),
        (qr, "commensurate_distances", "quadring.commensurate_distances", None, None),
        (qr, "shell_enumerate", "quadring.shell_enumerate", None, None),
        (cli, "run", "cli.run", None, None),
    ]


class Tracer:
    """Spans ``[id, parent, op, name, t0, t1, info]`` kept in a list.

    ``op`` is the id of the benchmark operation (one public call or one CLI
    argv) a span belongs to.  Spans started on a thread with no open span
    (the scan thread pool) take the operation as their parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: list | None = None
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._op
        pid = parent[0] if parent else None
        op = self._op[0] if self._op else None
        rec = [next(self._ids), pid, op, name, 0.0, 0.0, {}]
        stack.append(rec)
        rec[4] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def operation(self, kind: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span."""
        rec = self._open("bench." + kind)
        rec[2] = rec[0]
        self._op = rec
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)
            self._op = None

    def wrap(self, name: str, fn, size=None, result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            if size is not None:
                rec[6]["n"] = size(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[6]["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
            if result is not None:
                rec[6].update(result(out))
            return out

        return traced

    def count(self, key: str, n: int) -> None:
        stack = self._stack()
        rec = stack[-1] if stack else self._op
        if rec is None:
            return
        with self._lock:
            rec[6][key] = rec[6].get(key, 0) + n

    def counted_model(self, model):
        """The same model with its field and Jacobian callbacks counted."""

        def counted(key, fn):
            def call(p, kx, ky):
                self.count(key + ".calls", 1)
                self.count(key + ".kpoints", int(np.broadcast(kx, ky).size))
                return fn(p, kx, ky)

            return call

        repl = {"field": counted("models.field", model.field)}
        if model.jac12 is not None:
            repl["jac12"] = counted("models.jac12", model.jac12)
        return dataclasses.replace(model, **repl)

    def install(self, chernkit) -> None:
        for owner, attr, name, size, result in targets(chernkit):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, size, result))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "op", "name", "t0", "t1", "info"], "spans": self.spans},
                fh,
            )


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer counts, busy and self times from one traced pass.

    Children finish before their parent, so one pass in finish order folds
    every span's counters and span counts into its ancestors.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    pending: dict[int, dict] = {}
    tree: dict[int, dict] = {}
    for rec in spans:
        sid, pid, _, name, t0, t1, info = rec
        by_name.setdefault(name, []).append(rec)
        agg = pending.pop(sid, {})
        for key, val in info.items():
            if isinstance(val, int) and key != "n":
                agg[key] = agg.get(key, 0) + val
        agg["span:" + name] = agg.get("span:" + name, 0) + 1
        if pid is not None:
            children.setdefault(pid, []).append((t0, t1))
            into = pending.setdefault(pid, {})
            for key, val in agg.items():
                into[key] = into.get(key, 0) + val
        tree[sid] = agg

    def recs(name):
        return by_name.get(name, [])

    def calls(name):
        return len(recs(name))

    def busy(name):
        return sum(r[5] - r[4] for r in recs(name))

    def self_time(name):
        return sum((r[5] - r[4]) - _union(children.get(r[0], [])) for r in recs(name))

    def total(key):
        return sum(r[6].get(key, 0) for r in spans)

    def under(name, key):
        return sum(tree[r[0]].get(key, 0) for r in recs(name))

    def per(a, b):
        return a / b if b else 0.0

    def info_sum(name, key):
        return sum(r[6].get(key, 0) for r in recs(name))

    pre = "models.pre_dirac_points"
    errors = [r[6].get("error") for e in ENGINES for r in recs(e)]
    m = {
        f"{pre}.calls": calls(pre),
        f"{pre}.busy_s": busy(pre),
        f"{pre}.zeros": info_sum(pre, "zeros"),
        "models.field.calls": total("models.field.calls"),
        "models.field.kpoints": total("models.field.kpoints"),
        "models.field.calls_per_solve": per(under(pre, "models.field.calls"), calls(pre)),
        "models.jac12.calls": total("models.jac12.calls"),
        "phasediag.locate_transition.calls": calls("phasediag.locate_transition"),
        "phasediag.locate_transition.busy_s": busy("phasediag.locate_transition"),
        "phasediag.locate_transition.pre_dirac_per_call": per(
            under("phasediag.locate_transition", "span:" + pre), calls("phasediag.locate_transition")
        ),
        "phasediag.minimum_gap.calls": calls("phasediag.minimum_gap"),
        "phasediag.minimum_gap.busy_s": busy("phasediag.minimum_gap"),
        "phasediag.minimum_gap.self_s": self_time("phasediag.minimum_gap"),
        "phasediag.minimum_gap.assemble_per_call": per(
            under("phasediag.minimum_gap", "span:models.assemble"), calls("phasediag.minimum_gap")
        ),
        "models.assemble.calls": calls("models.assemble"),
        "models.assemble.kpoints": info_sum("models.assemble", "n"),
        "models.assemble.busy_s": busy("models.assemble"),
        "linalg.eig.calls": calls("linalg.eig"),
        "linalg.eig.matrices": info_sum("linalg.eig", "n"),
        "linalg.eig.busy_s": busy("linalg.eig"),
        "linalg.eig.matrices_per_call": per(info_sum("linalg.eig", "n"), calls("linalg.eig")),
        "invariants.berry.calls": calls("invariants.berry"),
        "invariants.berry.busy_s": busy("invariants.berry"),
        "invariants.berry.self_s": self_time("invariants.berry"),
        "invariants.integral.calls": calls("invariants.integral"),
        "invariants.integral.busy_s": busy("invariants.integral"),
        "invariants.ray.calls": calls("invariants.ray"),
        "invariants.ray.busy_s": busy("invariants.ray"),
        "invariants.ray.ray_retries": under("invariants.ray", "span:" + pre) - calls("invariants.ray"),
        "invariants.cross_validate.busy_s": busy("invariants.cross_validate"),
        "invariants.refusals": sum(1 for e in errors if e in REFUSALS),
        "invariants.cross_validate.disagreements": sum(
            1 for r in recs("invariants.cross_validate") if r[6].get("error") == "CrossValidationError"
        ),
        "phasediag.scan.cells": info_sum("phasediag.scan", "cells"),
        "phasediag.scan.degenerate_cells": info_sum("phasediag.scan", "degenerate_cells"),
        "phasediag.scan.error_cells": info_sum("phasediag.scan", "error_cells"),
        "phasediag.scan.busy_s": busy("phasediag.scan"),
        "invariants.sphere_map.calls": calls("invariants.sphere_map"),
        "invariants.sphere_map.busy_s": busy("invariants.sphere_map"),
        "phasediag.min_norm.calls": calls("phasediag.min_norm"),
        "phasediag.min_norm.busy_s": busy("phasediag.min_norm"),
        "phasediag.verify_realization.busy_s": busy("phasediag.verify_realization"),
        "quadring.commensurate_distances.busy_s": busy("quadring.commensurate_distances"),
        "quadring.shell_enumerate.calls": calls("quadring.shell_enumerate"),
        "cli.run.busy_s": busy("cli.run"),
    }
    for kind in REFUSALS:
        m[f"invariants.refusals.{kind}"] = sum(1 for e in errors if e == kind)
    return m
