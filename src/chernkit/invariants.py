"""First-Chern-number engines.

Three independent computations of the Chern number of an isolated band:

* :func:`chern_berry_lattice` -- gauge-invariant plaquette (lattice field
  strength) method; works for any band count.
* :func:`degree_integral` -- quadrature of the mapping degree of the
  normalized coefficient field (2-band models).
* :func:`degree_ray` -- signed count of ray pre-images through the pre-Dirac
  points (2-band models).

Orientation convention, fixed once: the zone is oriented by (g1, g2) with
g1 x g2 > 0 and plaquettes are traversed counterclockwise.  Under this
convention the ground band of H = h . sigma satisfies C_0 = -deg(h), and band
b has C_b = (-1)^(b+1) deg(h).  The degree engines convert accordingly and
expose the raw mapping degree in their diagnostics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .models import (
    BlochModel,
    ModelError,
    _hop_terms,
    _int_in,
    _rotated,
    _with_terms,
    assemble,
    eigh,
    pre_dirac_points,
)

TWO_PI = 2.0 * math.pi

#: the Berry engine refuses a band whose gap on the grid is at or below this
GAP_FLOOR = 1e-8
#: the ray engine refuses a pre-image with |h3| below this: it lies on the ray's
#: critical set
_H3_FLOOR = 1e-9


class InvariantError(RuntimeError):
    """Base class for engine failures."""


class DegenerateFamilyError(InvariantError):
    """Gap collapse (or field zero) detected on the evaluation grid."""

    def __init__(self, message: str, k=None):
        super().__init__(message)
        self.k = None if k is None else np.asarray(k, dtype=float)


class ResolutionError(InvariantError):
    """Raw value too far from an integer; refine the grid."""

    def __init__(self, message: str, raw: float | None = None):
        super().__init__(message)
        self.raw = raw


class MethodInapplicableError(InvariantError):
    """The requested engine cannot handle this model/point."""


class RaySelectionError(InvariantError):
    """No admissible ray found within the retry budget."""


class CrossValidationError(InvariantError):
    """Engine disagreement; carries all individual results."""

    def __init__(self, message: str, results: dict):
        super().__init__(message)
        self.results = results


@dataclass(frozen=True)
class ChernResult:
    """Integer invariant plus the evidence it was computed from."""

    value: int
    method: str
    raw: float
    residual: float
    grid: tuple[int, int]
    band: int
    diagnostics: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class PlanarCurve:
    """Ordered planar samples; ``closed`` means first and last coincide."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise ValueError("PlanarCurve needs an (n, 2) array with n >= 3")
        object.__setattr__(self, "points", pts)
        if self.closed and np.linalg.norm(pts[0] - pts[-1]) > 1e-9 * max(
            1.0, np.abs(pts).max()
        ):
            raise ValueError("closed curve must end where it starts")


def _round_result(raw: float, method: str, grid, band, diagnostics):
    value = int(round(raw))
    residual = abs(raw - value)
    if residual >= 0.25:
        raise ResolutionError(
            f"{method}: raw value {raw:.6f} is not within 0.25 of an "
            "integer; refine the grid",
            raw=raw,
        )
    return ChernResult(
        value=value,
        method=method,
        raw=float(raw),
        residual=float(residual),
        grid=tuple(grid),
        band=int(band),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Berry plaquette engine
# ---------------------------------------------------------------------------


def _berry_grid(grid) -> int:
    """The Berry engine's grid N as an int: at least 4, and refused rather
    than truncated when it is not an integer."""
    return _int_in(grid, "grid", 4)


def chern_berry_lattice(
    model: BlochModel,
    params: dict | None = None,
    band: int = 0,
    grid: int = 60,
    _eigvec_transform=None,
) -> ChernResult:
    """Plaquette Chern number of one band on an (N+1)^2 open momentum grid.

    Every grid point is evaluated at its exact k (no periodic wrapping of
    eigenvectors), so the plaquette-phase sum is quantized even for models
    that are periodic only up to a fixed unitary conjugation.  Below the top
    band the diagnostics also give the grid minimum of the gap above the band
    (``gap_above``) and its k (``gap_above_k``).
    """
    band = _int_in(band, "band", 0, model.bands - 1)
    N = _berry_grid(grid)
    frac = np.arange(N + 1) / N
    S, T = np.meshgrid(frac, frac, indexing="ij")
    K = model.zone.kpoint(S, T)
    H = assemble(model, params, K)
    vals, vecs = eigh(H)

    gaps = []
    diagnostics = {}
    if band + 1 < model.bands:
        above = vals[..., band + 1] - vals[..., band]
        at = np.unravel_index(np.argmin(above), above.shape)
        diagnostics = {"gap_above": float(above[at]), "gap_above_k": tuple(K[at].tolist())}
        gaps.append(above)
    if band > 0:
        gaps.append(vals[..., band] - vals[..., band - 1])
    gmin_grid = np.minimum.reduce(gaps)
    gmin = float(gmin_grid.min())
    if gmin <= GAP_FLOOR:
        idx = np.unravel_index(np.argmin(gmin_grid), gmin_grid.shape)
        raise DegenerateFamilyError(
            f"band {band} gap {gmin:.3e} <= gap floor {GAP_FLOOR:.1e} on the grid",
            k=K[idx],
        )

    u = vecs[..., :, band]
    if _eigvec_transform is not None:
        u = _eigvec_transform(u)
    Us = np.einsum("ijc,ijc->ij", u[:-1, :, :].conj(), u[1:, :, :])
    Ut = np.einsum("ijc,ijc->ij", u[:, :-1, :].conj(), u[:, 1:, :])
    plaq = Us[:, :-1] * Ut[1:, :] * np.conj(Us[:, 1:]) * np.conj(Ut[:-1, :])
    flux = np.angle(plaq)
    raw = float(flux.sum() / TWO_PI)
    return _round_result(
        raw,
        "berry_lattice",
        (N, N),
        band,
        {
            "min_gap": gmin,
            "max_plaquette_flux": float(np.abs(flux).max()),
            **diagnostics,
        },
    )


# ---------------------------------------------------------------------------
# degree quadrature engine
# ---------------------------------------------------------------------------


def _degree_quadrature(model: BlochModel, params, N: int):
    frac = (np.arange(N) + 0.5) / N
    S, T = np.meshgrid(frac, frac, indexing="ij")
    K = model.zone.kpoint(S, T)
    h = model.field(model.params_with_defaults(params), K[..., 0], K[..., 1])
    norm = np.linalg.norm(h, axis=-1)
    nmin = float(norm.min())
    if nmin < 1e-12:
        idx = np.unravel_index(np.argmin(norm), norm.shape)
        raise DegenerateFamilyError(
            f"coefficient field vanishes on the grid (min |h| = {nmin:.3e})",
            k=K[idx],
        )
    f = h / norm[..., None]
    # central differences on the periodic fractional-coordinate grid
    dfs = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) * (N / 2.0)
    dft = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) * (N / 2.0)
    integrand = np.einsum("ijc,ijc->ij", f, np.cross(dfs, dft))
    deg = float(integrand.sum() / (N * N) / (4.0 * math.pi))
    return deg, nmin


def degree_integral(
    model: BlochModel, params: dict | None = None, grid: int = 200, band: int = 0
) -> ChernResult:
    """Mapping degree of h/|h| by midpoint quadrature over the zone.

    The band value is (-1)^(band+1) times the degree; the raw degree and the
    smallest |h| on the grid are kept in the diagnostics.
    """
    if model.bands != 2:
        raise MethodInapplicableError("degree_integral requires a 2-band coefficient model")
    band = _int_in(band, "band", 0, 1)
    N = _int_in(grid, "grid", 8)
    deg, nmin = _degree_quadrature(model, params, N)
    sign = -1 if band == 0 else 1
    return _round_result(
        sign * deg,
        "degree_integral",
        (N, N),
        band,
        {"degree_raw": deg, "min_field_norm": nmin},
    )


# ---------------------------------------------------------------------------
# ray engine
# ---------------------------------------------------------------------------


def _rotation_to_z(ray: np.ndarray) -> np.ndarray:
    """Rotation matrix R with R @ ray = +z for a unit ray near +z (Rodrigues construction)."""
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(ray, z)
    c = float(ray @ z)
    s = np.linalg.norm(v)
    if s < 1e-15:
        return np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * ((1 - c) / (s * s))


def _rotated_model(model: BlochModel, R: np.ndarray) -> BlochModel:
    """The model with h -> R h, a table like any other."""
    terms = _rotated(model.table.terms, R)
    return _with_terms(model, terms, name=model.name + "_rot", hopping_family=None)


def _ray_perturbations():
    yield np.array([0.0, 0.0, 1.0])
    golden = 2.399963229728653
    for j in range(1, 6):
        eps = 1e-3 * j
        v = np.array([eps * math.cos(golden * j), eps * math.sin(golden * j), 1.0])
        yield v / np.linalg.norm(v)


def _ray_count(pts) -> int | None:
    """The +z ray's degree from pre-Dirac points: sum of sgn det d(h1,h2)/dk over
    those with h3 > 0, None where a point is degenerate or has |h3| below the floor."""
    if any(p.degenerate or abs(p.h3) < _H3_FLOOR for p in pts):
        return None
    return sum(p.jac_sign for p in pts if p.h3 > 0)


def degree_ray(model: BlochModel, params: dict | None = None, band: int = 0) -> ChernResult:
    """Mapping degree by counting signed ray pre-images.

    For the +z ray: deg = sum over pre-Dirac points with h3 > 0 of
    sgn det d(h1,h2)/dk.  The half-sum over *all* pre-Dirac points of
    sgn(J) sgn(h3) is computed as well and must agree.  A ray hitting a
    degenerate pre-image is retried along a deterministic perturbation spiral
    about +z; ``diagnostics["ray"]`` is the ray that was used, and ``grid`` the
    degrees in z and w of the polynomials whose common roots were its pre-images.
    """
    if model.bands != 2:
        raise MethodInapplicableError("degree_ray requires a 2-band coefficient model")
    band = _int_in(band, "band", 0, 1)

    last_error: Exception | None = None
    for probe in _ray_perturbations():
        R = _rotation_to_z(probe)
        work = model if np.allclose(R, np.eye(3)) else _rotated_model(model, R)
        pts = pre_dirac_points(work, params)
        if not pts:
            last_error = RaySelectionError("no pre-Dirac points found for this ray")
            continue
        if any(p.degenerate for p in pts):
            bad = next(p for p in pts if p.degenerate)
            last_error = MethodInapplicableError(
                f"degenerate pre-Dirac point at k = {bad.k} (singular Jacobian)"
            )
            continue
        deg = _ray_count(pts)
        if deg is None:
            last_error = DegenerateFamilyError(
                "pre-Dirac point lies on the ray's critical set (h3 = 0)",
                k=next(p.k for p in pts if abs(p.h3) < _H3_FLOOR),
            )
            continue
        half = 0.5 * sum(p.jac_sign * (1 if p.h3 > 0 else -1) for p in pts)
        if abs(half - deg) > 1e-9:
            last_error = RaySelectionError(
                f"ray-count {deg} disagrees with half-sum {half}; "
                "some pre-image was missed"
            )
            continue
        sign = -1 if band == 0 else 1
        reach = _hop_terms(work.table._compiled(work.params_with_defaults(params)))[2]
        return ChernResult(
            value=sign * deg,
            method="degree_ray",
            raw=float(sign * deg),
            residual=0.0,
            grid=(2 * int(reach[0]), 2 * int(reach[1])),
            band=band,
            diagnostics={
                "degree_raw": deg,
                "half_sum": half,
                "ray": probe,
                "pre_dirac": [
                    {
                        "k": p.k.tolist(),
                        "frac": list(p.frac),
                        "jac_sign": p.jac_sign,
                        "h3": p.h3,
                    }
                    for p in pts
                ],
            },
        )
    if isinstance(last_error, (MethodInapplicableError, DegenerateFamilyError)):
        raise last_error
    raise RaySelectionError(
        f"no admissible ray after retries: {last_error}"
    )


# ---------------------------------------------------------------------------
# winding numbers and sphere-map degrees
# ---------------------------------------------------------------------------


def winding_number(curve: PlanarCurve) -> int:
    """Classical winding number of a closed planar curve about the origin."""
    if not curve.closed:
        raise ValueError("winding_number requires a closed curve")
    w = curve.points[:, 0] + 1j * curve.points[:, 1]
    if np.abs(w).min() < 1e-12:
        raise ValueError("origin lies on the curve")
    inc = np.angle(w[1:] / w[:-1])
    total = inc.sum() / TWO_PI
    value = int(round(total))
    if abs(total - value) > 1e-6:
        raise ValueError(f"winding sum {total} is not an integer; refine sampling")
    return value


def sphere_map_degree(fn) -> float:
    """Degree of a map (phi, theta) -> R^3 \\ {0} on the standard sphere chart.

    ``fn(phi, theta)`` must broadcast; it is sampled on a 400 x 200 grid, phi
    in [0, 2pi) periodic and theta in (0, pi) at midpoints.  Normalized so
    that the identity embedding (sin t cos p, sin t sin p, cos t) has degree +1.
    """
    nphi, ntheta = 400, 200
    phi = (np.arange(nphi) + 0.5) * (TWO_PI / nphi)
    theta = (np.arange(ntheta) + 0.5) * (math.pi / ntheta)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    F = np.asarray(fn(P, T), dtype=float)
    norm = np.linalg.norm(F, axis=-1)
    if norm.min() < 1e-12:
        raise DegenerateFamilyError("sphere map vanishes on the sampling grid")
    f = F / norm[..., None]
    dphi = TWO_PI / nphi
    dtheta = math.pi / ntheta
    dfp = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * dphi)
    dft = np.gradient(f, dtheta, axis=1)
    integrand = np.einsum("ijc,ijc->ij", f, np.cross(dft, dfp))
    return float(integrand.sum() * dphi * dtheta / (4 * math.pi))


# ---------------------------------------------------------------------------
# cross-validation harness
# ---------------------------------------------------------------------------


def cross_validate(
    model: BlochModel,
    params: dict | None = None,
    grids: dict | None = None,
    band: int = 0,
) -> dict:
    """Run all three engines and demand unanimous integer values.

    ``grids`` may set the Berry and the quadrature grid, as ``"berry"`` and
    ``"integral"``; the ray engine has none.  Returns a report with per-engine
    results and timings; raises :class:`CrossValidationError` (carrying every
    result) on disagreement.
    """
    if model.bands != 2:
        raise MethodInapplicableError("cross_validate requires a 2-band model")
    grids = grids or {}
    unknown = set(grids) - {"berry", "integral"}
    if unknown:
        raise ModelError(f"grids takes only 'berry' and 'integral', got {sorted(unknown)}")
    results: dict[str, ChernResult] = {}
    timings: dict[str, float] = {}
    runs = [
        ("berry_lattice", lambda: chern_berry_lattice(model, params, band=band, grid=grids.get("berry", 60))),
        ("degree_integral", lambda: degree_integral(model, params, grid=grids.get("integral", 200), band=band)),
        ("degree_ray", lambda: degree_ray(model, params, band=band)),
    ]
    for name, run in runs:
        t0 = time.perf_counter()
        results[name] = run()
        timings[name] = time.perf_counter() - t0
    values = {name: r.value for name, r in results.items()}
    if len(set(values.values())) != 1:
        raise CrossValidationError(
            f"engine disagreement: {values}", results=results
        )
    return {
        "passed": True,
        "value": results["berry_lattice"].value,
        "band": band,
        "values": values,
        "residuals": {n: r.residual for n, r in results.items()},
        "timings": timings,
        "results": results,
    }
