"""Phase-diagram scanning and wall-crossing / rose-curve / fan synthesis.

A phase diagram is the assignment of a Chern label to each point of a
parameter grid, with DEGENERATE cells where the spectral gap collapses.
Wall families interpolate between two suspension maps of different degrees
(forcing a degeneracy at the midpoint parameter), rose curves are their
planar critical loci, and fan families realize a prescribed circular fan of
integer labels by a Hamiltonian family over the plane that is degenerate
exactly on the fan's rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from .invariants import (
    ChernResult,
    DegenerateFamilyError,
    InvariantError,
    PlanarCurve,
    chern_berry_lattice,
    sphere_map_degree,
    winding_number,
)
from .models import (
    BlochModel,
    ModelError,
    _check_gap_band,
    _fd_jac,
    assemble,
    gap,
    pre_dirac_points,
)

TWO_PI = 2.0 * math.pi

#: label used for cells whose refined minimum gap is below the threshold
DEGENERATE = "DEGENERATE"

#: gap below which a cell is DEGENERATE and a transition counts as found
DEGENERACY_THRESHOLD = 1e-6

# ---------------------------------------------------------------------------
# gap scanning
# ---------------------------------------------------------------------------


def minimum_gap(
    model: BlochModel,
    params: dict | None = None,
    band: int = 0,
    kgrid: int = 32,
) -> tuple[float, np.ndarray]:
    """Refined minimum gap above ``band`` over the zone and its location.

    A coarse grid locates the candidate minimum; Nelder-Mead descent in
    fractional momentum coordinates refines it.
    """
    from scipy import optimize  # imported on first use; it is slow to import

    _check_gap_band(model, band)
    p = model.params_with_defaults(params)
    frac = np.arange(kgrid) / kgrid
    S, T = np.meshgrid(frac, frac, indexing="ij")
    K = model.zone.kpoint(S, T)
    vals = np.linalg.eigvalsh(assemble(model, p, K))
    gaps = vals[..., band + 1] - vals[..., band]
    idx = np.unravel_index(np.argmin(gaps), gaps.shape)
    x0 = np.array([S[idx], T[idx]])
    res = optimize.minimize(
        lambda x: gap(model, p, model.zone.kpoint(x[0], x[1]), band),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12},
    )
    best = min(float(gaps[idx]), float(res.fun))
    loc = model.zone.kpoint(res.x[0] % 1.0, res.x[1] % 1.0)
    return best, loc


def _covering_radius(zone, grid: int) -> float:
    """Distance within which every k of the zone has a node of the Berry grid.

    A grid cell is a parallelogram with sides g1/grid and g2/grid; its shorter
    diagonal cuts it into two congruent triangles, and every point of a
    triangle lies within its circumradius of a vertex, or within half its
    longest side when the triangle is right or obtuse.
    """
    a, b = zone.g1 / grid, zone.g2 / grid
    diagonal = min(np.linalg.norm(a + b), np.linalg.norm(a - b))
    x, y, z = sorted([float(np.linalg.norm(a)), float(np.linalg.norm(b)), diagonal])
    if z * z >= x * x + y * y:
        return z / 2
    return x * y * z / (2 * abs(a[0] * b[1] - a[1] * b[0]))


@dataclass(frozen=True)
class Cell:
    """One scan cell.

    A ``certified`` cell skipped the refinement: its Berry grid alone proves
    the gap open, and ``min_gap`` and ``min_gap_location`` are the grid
    minimum and its k.  The true minimum then lies in
    ``[min_gap - slope * delta, min_gap]``, with ``slope`` the ``gap_slope``
    of the model's table and ``delta`` the grid's covering radius.  Other
    cells carry the refined minimum of :func:`minimum_gap`.
    """

    index: tuple[int, ...]
    params: dict
    chern: object  # int, DEGENERATE, or None when an engine error occurred
    min_gap: float
    min_gap_location: tuple[float, float]
    error: str | None = None
    certified: bool = False


@dataclass(frozen=True)
class PhaseDiagram:
    axes: tuple[tuple[str, float, float, int], ...]
    cells: tuple[Cell, ...]
    boundary: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    errors: tuple[str, ...] = ()

    def cell_at(self, *index) -> Cell:
        return self.cells[np.ravel_multi_index(index, tuple(ax[3] for ax in self.axes))]

    def labels(self) -> np.ndarray:
        shape = tuple(ax[3] for ax in self.axes)
        out = np.empty(shape, dtype=object)
        for c in self.cells:
            out[c.index] = c.chern
        return out


def _axis_values(axis):
    name, lo, hi, n = axis
    if n < 2:
        raise ModelError("resolution must be >= 2 per axis")
    return name, np.linspace(float(lo), float(hi), int(n))


def scan(
    model: BlochModel,
    axes,
    degeneracy_threshold: float = DEGENERACY_THRESHOLD,
    band: int = 0,
    grid: int = 40,
    kgrid: int = 32,
    workers: int | None = None,
) -> PhaseDiagram:
    """Label a 1D or 2D parameter grid with Chern numbers.

    ``axes`` is a list of one or two ``(name, lo, hi, n)`` tuples.  Each cell
    runs the Berry engine first.  When the model is a hopping table and the
    Berry grid's minimum gap above ``band``, less the slope times the grid's
    covering radius, is at least the threshold, the gap is proven open and
    the cell is certified with the Berry value.  Other cells refine the gap
    with :func:`minimum_gap`: below the threshold they are DEGENERATE, else
    they take the Berry value.  Engine failures are recorded per cell without
    aborting the scan.  Cells run serially; ``workers`` is accepted for
    compatibility and ignored.
    """
    axes = [tuple(a) for a in axes]
    if not 1 <= len(axes) <= 2:
        raise ModelError("scan supports 1 or 2 axes")
    _check_gap_band(model, band)
    schema = model.defaults
    for name, *_ in axes:
        if name not in schema:
            raise ModelError(f"axis {name!r} is not a parameter of {model.name}")
    named = [_axis_values(a) for a in axes]

    indices = list(np.ndindex(*(len(v) for _, v in named)))

    def run_cell(index):
        params = {name: float(vals[i]) for (name, vals), i in zip(named, index)}
        try:
            berry = chern_berry_lattice(model, params, band=band, grid=grid)
        except (InvariantError, ModelError) as exc:
            berry = exc
        try:
            if isinstance(berry, ChernResult) and model.table is not None:
                gmin = berry.diagnostics["gap_above"]
                slope = model.table.gap_slope(model.params_with_defaults(params))
                if gmin - slope * _covering_radius(model.zone, int(grid)) >= degeneracy_threshold:
                    loc = berry.diagnostics["gap_above_k"]
                    return Cell(index, params, berry.value, gmin, loc, certified=True)
            gmin, loc = minimum_gap(model, params, band=band, kgrid=kgrid)
            if gmin < degeneracy_threshold:
                return Cell(index, params, DEGENERATE, gmin, tuple(loc))
            if isinstance(berry, Exception):
                raise berry
            return Cell(index, params, berry.value, gmin, tuple(loc))
        except (InvariantError, ModelError) as exc:
            return Cell(
                index, params, None, float("nan"), (float("nan"),) * 2, error=str(exc)
            )

    cells = [run_cell(ix) for ix in indices]

    by_index = {c.index: c for c in cells}
    boundary = []
    for c in cells:
        for axis in range(len(axes)):
            nb = list(c.index)
            nb[axis] += 1
            nb = tuple(nb)
            other = by_index.get(nb)
            if other is None:
                continue
            a, b = c.chern, other.chern
            if isinstance(a, int) and isinstance(b, int) and a != b:
                boundary.append((c.index, nb))
    errors = tuple(f"{c.index}: {c.error}" for c in cells if c.error)
    return PhaseDiagram(
        axes=tuple((n, float(lo), float(hi), int(sz)) for (n, lo, hi, sz) in axes),
        cells=tuple(cells),
        boundary=tuple(boundary),
        errors=errors,
    )


class CriticalPoint(NamedTuple):
    """A zero of h(k, lambda): the gap of a 2-band model closes at ``k`` when the
    axis parameter is ``param``.

    ``charge`` is sgn det [dh/dkx, dh/dky, dh/dlambda], or None where that
    Jacobian is singular.
    """

    param: float
    k: np.ndarray
    charge: int | None


#: |(h1, h2)| at which a point counts as on a zero curve, as in ``pre_dirac_points``
_CURVE_TOL = 1e-10
#: continuation steps, in (kx, ky, u) with u the bracket rescaled to [0, 1]
_FIRST_STEP, _MAX_STEP, _MIN_STEP = 0.25, 0.5, 1e-9
_MAX_STEPS = 4000
#: half the default seed spacing of ``pre_dirac_points``, in fractional coordinates
_SEAM_TOL = 0.5 / 48


def _check_axis(model: BlochModel, axis: str) -> None:
    """A bracket's axis is a parameter that can vary continuously: one whose
    default is an int (a range or a power) is refused by name."""
    if axis not in model.defaults:
        raise ModelError(f"{axis!r} is not a parameter of {model.name}")
    default = model.defaults[axis]
    if isinstance(default, int) and not isinstance(default, bool):
        raise ModelError(f"{axis!r} is integer-valued and cannot vary along a bracket")


def _ray_degree(pts) -> int | None:
    """The ray engine's degree from pre-Dirac points, None where it is undefined."""
    if any(q.degenerate or abs(q.h3) < 1e-9 for q in pts):
        return None
    return sum(q.jac_sign for q in pts if q.h3 > 0)


def critical_points(
    model: BlochModel,
    axis: str,
    lo: float,
    hi: float,
    params: dict | None = None,
) -> list[CriticalPoint]:
    """The zeros of h(k, lambda) of a 2-band model with lambda = ``axis`` in [lo, hi].

    The curves (h1, h2) = 0 in (kx, ky, lambda) are traced by pseudo-arclength
    continuation from the pre-Dirac points at lo and at hi (one solve at each
    end; an end point that an earlier curve reached is not traced again).  A
    sign change of h3 along a curve is a closing; Newton on the 3x3 system
    h = 0, with Jacobian [jac | dh/dlambda] (dh/dlambda by central difference
    on the params), polishes it, and the sign of that determinant is its
    charge.  The zeros come sorted by parameter value.

    Under the global convention the ground band's Chern number changes by
    -sum(charge) from lo to hi, so a bracket needs at least |Delta C| zeros.
    That sum must equal deg(hi) - deg(lo), the ray engine's count on the
    seeds; a mismatch means a closing was missed and raises
    :class:`DegenerateFamilyError`.  The check is skipped when an end point
    is itself degenerate or a charge is None.  Zero curves that begin and end
    inside the bracket touch no seed and are not seen.
    """
    if model.bands != 2 or model.field is None:
        raise ModelError("critical_points requires a 2-band coefficient model")
    base = model.params_with_defaults(params)
    _check_axis(model, axis)
    lo, hi = sorted((float(lo), float(hi)))
    if lo == hi:
        raise ModelError(f"the bracket [{lo}, {hi}] is empty")
    width = hi - lo
    eps = 1e-6 * max(1.0, abs(lo), abs(hi))
    jac = partial(_fd_jac, model) if model.table is None else model.table.jac

    def at(u):
        return {**base, axis: lo + width * float(u)}

    def field(y):
        return model.field(at(y[2]), y[:1], y[1:2])[0]

    def jacobian(y):
        """[dh/dkx, dh/dky, dh/du] at y = (kx, ky, u), shape (3, 3)."""
        p = at(y[2])
        J = jac(p, y[:1], y[1:2])[0]
        up = {**p, axis: p[axis] + eps}
        down = {**p, axis: p[axis] - eps}
        dh = model.field(up, y[:1], y[1:2])[0] - model.field(down, y[:1], y[1:2])[0]
        return np.column_stack([J, dh * (width / (2 * eps))])

    ends = [pre_dirac_points(model, at(0.0)), pre_dirac_points(model, at(1.0))]
    visited = [np.zeros(len(pts), dtype=bool) for pts in ends]
    zeros: list[tuple[np.ndarray, int | None]] = []

    def tangent(D, prev):
        t = np.cross(D[0], D[1])
        n = np.linalg.norm(t)
        if n < _CURVE_TOL**2:  # a singular point of the zero set: keep the direction
            return prev
        t /= n
        return t if t @ prev >= 0 else -t

    def correct(y, t):
        """Newton on (h1, h2) = 0 within the plane through y normal to t."""
        for it in range(6):
            h = field(y)
            if math.hypot(h[0], h[1]) < _CURVE_TOL:
                return y, h[2], it
            A = np.vstack([jacobian(y)[:2], t])
            try:
                y = y - np.linalg.solve(A, np.array([h[0], h[1], 0.0]))
            except np.linalg.LinAlgError:
                return None
        return None

    def polish(a, b):
        """The zero of h between curve points a and b, (y, h3) each."""
        (ya, ha), (yb, hb) = a, b
        y0 = ya + (yb - ya) * (ha / (ha - hb)) if ha != hb else ya
        y, h = y0, field(y0)
        for _ in range(30):  # Newton while it lowers |h|
            try:
                trial = y - np.linalg.solve(jacobian(y), h)
            except np.linalg.LinAlgError:
                break
            h_trial = field(trial)
            if not np.linalg.norm(h_trial) < np.linalg.norm(h):
                break
            y, h = trial, h_trial
        if -1e-12 <= y[2] <= 1 + 1e-12:
            M = jacobian(y) / [1.0, 1.0, width]
            det = np.linalg.det(M)
            # relative to the Jacobian's scale, as pre_dirac_points judges det jac12
            singular = abs(det) < 1e-8 * max(1.0, np.abs(M).max()) ** 3
            zeros.append((y, None if singular else int(np.sign(det))))

    def exit_at(end, y):
        """Mark the seed at ``end`` where the curve through y leaves the bracket."""
        u = float(end)
        for _ in range(30):
            y = np.array([y[0], y[1], u])
            h = field(y)
            if math.hypot(h[0], h[1]) < _CURVE_TOL:
                break
            try:
                y[:2] -= np.linalg.solve(jacobian(y)[:2, :2], h[:2])
            except np.linalg.LinAlgError:
                return
        pts = ends[end]
        if pts:
            d = model.zone.frac(np.array([q.k for q in pts])) - model.zone.frac(y[:2])
            d = np.hypot(*(d - np.round(d)).T)
            i = int(np.argmin(d))
            if d[i] < _SEAM_TOL:
                visited[end][i] = True

    def trace(y, direction):
        h3, D = field(y)[2], jacobian(y)
        t = tangent(D[:2], np.array([0.0, 0.0, direction]))
        if abs(h3) < 1e-9:  # the gap closes at the end of the bracket, or next to it
            polish((y, h3), (y, h3))
        s = _FIRST_STEP
        for _ in range(_MAX_STEPS):
            guess = y + s * t
            got = correct(guess, t)
            if got is not None:
                y_new, h3_new, iters = got
                D_new = jacobian(y_new)
                t_new = tangent(D_new[:2], t)
                turn = t_new @ t
                # h3 off its linear prediction: a step that h3 bends across could
                # hide two sign changes
                bend = abs(h3_new - h3 - s * (D[2] @ t)) / (abs(h3) + abs(h3_new) + 1e-300)
            if got is None or np.linalg.norm(y_new - guess) > 0.5 * s or turn < 0.95 or bend > 0.5:
                s /= 2
                if s < _MIN_STEP:
                    raise DegenerateFamilyError(
                        f"continuation of a zero curve of {model.name} stalled near "
                        f"{axis} = {lo + width * y[2]!r}", k=y[:2]
                    )
                continue
            if h3_new == 0.0 or h3 * h3_new < 0:
                polish((y, h3), (y_new, h3_new))
            y, h3, D, t = y_new, h3_new, D_new, t_new
            if not 0.0 < y[2] < 1.0:
                return exit_at(int(y[2] >= 1.0), y)
            if iters <= 1 and turn > 0.995 and bend < 0.1:
                s = min(2 * s, _MAX_STEP)
        raise DegenerateFamilyError(
            f"a zero curve of {model.name} did not leave the bracket in {_MAX_STEPS} steps"
        )

    for end, direction in ((0, 1.0), (1, -1.0)):
        for i, q in enumerate(ends[end]):
            if not visited[end][i]:
                visited[end][i] = True
                trace(np.array([q.k[0], q.k[1], float(end)]), direction)

    found = _distinct(model.zone, zeros)
    out = [CriticalPoint(float(np.clip(lo + width * y[2], lo, hi)), y[:2], q) for y, q in found]
    out.sort(key=lambda c: c.param)
    degrees = [_ray_degree(pts) for pts in ends]
    charges = [c.charge for c in out]
    if None not in degrees and None not in charges:
        if sum(charges) != degrees[1] - degrees[0]:
            raise DegenerateFamilyError(
                f"the charges of the closings of {model.name} on {axis} in [{lo}, {hi}] "
                f"sum to {sum(charges)}, but the ray degree changes by "
                f"{degrees[1] - degrees[0]}: a closing was missed"
            )
    return out


def _distinct(zone, zeros):
    """The zeros with copies (the same closing reached from two curves) dropped."""
    out = []
    for y, q in zeros:
        for z, _ in out:
            d = zone.frac(y[:2]) - zone.frac(z[:2])
            if abs(y[2] - z[2]) < 1e-7 and np.hypot(*(d - np.round(d))) < 1e-6:
                break
        else:
            out.append((y, q))
    return out


def locate_transition(
    model: BlochModel,
    axis: str,
    lo: float,
    hi: float,
    params: dict | None = None,
    band: int = 0,
) -> float:
    """Parameter value in [lo, hi] where the gap above ``band`` closes.

    Two-band models return the smallest parameter value of
    :func:`critical_points`, the zeros of h(k, lambda), to about 1e-12 and
    raise :class:`ModelError` when there is none.  Multi-band models use
    bounded minimization of the refined minimum gap, to 1e-9, and raise
    :class:`ModelError` when the gap does not drop below
    ``DEGENERACY_THRESHOLD`` on the bracket.
    """
    _check_gap_band(model, band)
    base = model.params_with_defaults(params)
    _check_axis(model, axis)

    if model.bands == 2 and model.field is not None:
        zeros = critical_points(model, axis, lo, hi, params)
        if not zeros:
            raise ModelError(f"the gap does not close on [{lo}, {hi}]")
        return zeros[0].param

    from scipy import optimize  # imported on first use; it is slow to import

    def gap_of(x):
        return minimum_gap(model, {**base, axis: float(x)}, band=band)[0]

    res = optimize.minimize_scalar(
        gap_of, bounds=(float(lo), float(hi)), method="bounded",
        options={"xatol": 1e-9},
    )
    if res.fun >= DEGENERACY_THRESHOLD:
        raise ModelError(f"the gap does not close on [{lo}, {hi}] (least gap {res.fun:.3e})")
    return float(res.x)


# ---------------------------------------------------------------------------
# suspension maps, wall families, rose curves
# ---------------------------------------------------------------------------


def suspension(d: int, phi, theta) -> np.ndarray:
    """The degree-d suspension map f_d(phi, theta) on the standard chart."""
    phi, theta = np.broadcast_arrays(
        np.asarray(phi, dtype=float), np.asarray(theta, dtype=float)
    )
    st = np.sin(theta)
    return np.stack(
        [st * np.cos(d * phi), st * np.sin(d * phi), np.cos(theta)], axis=-1
    )


@dataclass(frozen=True)
class WallFamily:
    """F(t, phi, theta) = (1-t) f_d + t f_d' ; degenerate only at t = 1/2."""

    d: int
    dprime: int

    @property
    def delta(self) -> int:
        return abs(self.d - self.dprime)

    def __call__(self, t, phi, theta) -> np.ndarray:
        t = float(t)
        return (1.0 - t) * suspension(self.d, phi, theta) + t * suspension(
            self.dprime, phi, theta
        )

    def min_norm(self, t) -> float:
        return _min_norm_on_sphere(lambda P, T: self(t, P, T), 180, 91)


def _min_norm_on_sphere(fn, nphi: int, ntheta: int) -> float:
    """Grid minimum of |fn(phi, theta)| polished by simplex descent."""
    from scipy import optimize  # imported on first use; it is slow to import

    phi = np.linspace(0.0, TWO_PI, nphi, endpoint=False)
    theta = np.linspace(0.0, math.pi, ntheta)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    norms = np.linalg.norm(fn(P, T), axis=-1)
    idx = np.unravel_index(np.argmin(norms), norms.shape)
    x0 = np.array([P[idx], T[idx]])

    def objective(x):
        return float(np.linalg.norm(fn(np.array(x[0]), np.array(x[1]))))

    res = optimize.minimize(
        objective, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14}
    )
    return min(float(norms[idx]), float(res.fun))


def wall_family(d: int, dprime: int) -> WallFamily:
    if int(d) != d or int(dprime) != dprime:
        raise ValueError("d and d' must be integers")
    return WallFamily(int(d), int(dprime))


def wall_zeros(d: int, dprime: int) -> list[float]:
    """Equatorial angles where the t = 1/2 wall family hits the origin.

    The zeros of (z^d + z^{d'})/2 on the unit circle are the odd powers of a
    primitive 2*delta-th root of unity, delta = |d - d'|.
    """
    if d == dprime:
        raise ValueError("d = d' has no wall")
    delta = abs(d - dprime)
    return [(2 * j + 1) * math.pi / delta for j in range(delta)]


@dataclass(frozen=True)
class RoseCurve:
    """Samples of g_t(phi) = (1-t) e^{i d phi} + t e^{i d' phi}."""

    d: int
    dprime: int
    t: float
    phis: np.ndarray
    samples: np.ndarray
    #: polar exponent |d-d'|/|d+d'| (None when d = -d')
    k_rose: float | None
    #: length of the polar-identity parameter interval, in units of pi
    interval: float

    def curve(self) -> PlanarCurve:
        pts = np.vstack([self.samples, self.samples[:1]])
        return PlanarCurve(points=pts, closed=True)

    def winding(self) -> int:
        return winding_number(self.curve())

    def polar_residual(self) -> float:
        """Max deviation from r = cos(k theta) along the t = 1/2 locus.

        Only defined at t = 1/2 (where the identity holds); the signed radius
        is cos(a phi) along the direction angle theta = b phi with
        a = (d-d')/2, b = (d+d')/2.
        """
        if abs(self.t - 0.5) > 1e-12:
            raise ValueError("polar identity only holds at t = 1/2")
        if self.k_rose is None:
            raise ValueError("polar exponent undefined for d = -d'")
        a = 0.5 * (self.d - self.dprime)
        b = 0.5 * (self.d + self.dprime)
        r = np.hypot(self.samples[:, 0], self.samples[:, 1])
        pred = np.abs(np.cos(self.k_rose * b * self.phis))
        want = np.abs(np.cos(a * self.phis))
        # sanity: k_rose * b = +/- a
        return float(np.max(np.abs(r - want)) + np.max(np.abs(pred - want)))


def _rose_interval(d: int, dprime: int) -> float:
    if d + dprime == 0:
        return 2.0
    frac = Fraction(abs(d - dprime), abs(d + dprime))
    r, s = frac.numerator, frac.denominator
    return float(2 * s if (r % 2 == 1 and s % 2 == 1) else s)


def rose_curve(d: int, dprime: int, t: float, nsamples: int | None = None) -> RoseCurve:
    """Sampled interpolation curve g_t over one full period.

    The sample count is raised until adjacent samples subtend < 0.1 rad
    about the origin (away from zeros), so winding sums are unambiguous.
    """
    if int(d) != d or int(dprime) != dprime:
        raise ValueError("d and d' must be integers")
    d, dprime = int(d), int(dprime)
    floor = max(
        16 * (abs(d) + abs(dprime) + 1),
        math.ceil(TWO_PI * max(abs(d), abs(dprime), 1) / 0.1),
    )
    n = max(int(nsamples or 0), floor)
    phis = np.arange(n) * (TWO_PI / n)
    g = (1.0 - t) * np.exp(1j * d * phis) + t * np.exp(1j * dprime * phis)
    k_rose = None if d + dprime == 0 else abs(d - dprime) / abs(d + dprime)
    return RoseCurve(
        d=d,
        dprime=dprime,
        t=float(t),
        phis=phis,
        samples=np.stack([g.real, g.imag], axis=-1),
        k_rose=k_rose,
        interval=_rose_interval(d, dprime),
    )


def dirac_count(d: int, dprime: int) -> int:
    """Number of Dirac points created when crossing the (d, d') wall."""
    return abs(int(d) - int(dprime))


# ---------------------------------------------------------------------------
# fan realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanDiagram:
    """k rays at the k-th roots of unity; labels[i] labels the chamber
    between ray i (angle 2 pi i / k) and ray i+1."""

    k: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("a fan needs at least 2 rays")
        labels = tuple(int(x) for x in self.labels)
        if len(labels) != self.k:
            raise ValueError("need exactly one label per chamber")
        object.__setattr__(self, "labels", labels)

    def ray_angle(self, i: int) -> float:
        return TWO_PI * (i % self.k) / self.k

    def bisector_angle(self, i: int) -> float:
        return (2 * i + 1) * math.pi / self.k


@dataclass(frozen=True)
class FanFamily:
    """Plane family of sphere maps realizing a fan of Chern labels.

    Around ray i the flanking suspension maps are blended with the
    barycentric coordinates of p in the basis of the two adjacent chamber
    bisectors (the odd 2k-th roots of unity); the blend vanishes somewhere on
    the sphere iff the coordinates are equal (p on the ray) and the flanking
    labels differ.  The family is scale-covariant along rays.
    """

    fan: FanDiagram

    def _cone(self, x: float, y: float):
        k = self.fan.k
        alpha = math.atan2(y, x) % TWO_PI
        i = int(round(alpha / (TWO_PI / k))) % k  # nearest ray
        if k == 2:
            # two-ray fans: the flanking bisectors are antiparallel and the
            # barycentric basis degenerates; sine weights around the nearest
            # ray give the same wall structure (equal weights exactly on rays,
            # pure suspensions at the chamber bisectors, scale covariant)
            r = math.hypot(x, y)
            s = math.sin(alpha - self.fan.ray_angle(i))
            return i, 0.5 * r * (1.0 - s), 0.5 * r * (1.0 + s)
        a1_dir = (2 * i - 1) * math.pi / k  # bisector of chamber i-1
        a2_dir = (2 * i + 1) * math.pi / k  # bisector of chamber i
        E = np.array(
            [
                [math.cos(a1_dir), math.cos(a2_dir)],
                [math.sin(a1_dir), math.sin(a2_dir)],
            ]
        )
        a = np.linalg.solve(E, np.array([x, y]))
        return i, float(a[0]), float(a[1])

    def __call__(self, p, phi, theta) -> np.ndarray:
        x, y = float(p[0]), float(p[1])
        if x == 0.0 and y == 0.0:
            raise ValueError("the fan family is undefined at the origin")
        i, a1, a2 = self._cone(x, y)
        labels = self.fan.labels
        return a1 * suspension(labels[(i - 1) % self.fan.k], phi, theta) + a2 * suspension(
            labels[i], phi, theta
        )

    def min_norm(self, p) -> float:
        return _min_norm_on_sphere(lambda P, T: self(p, P, T), 240, 121)


def fan_family(fan: FanDiagram) -> FanFamily:
    return FanFamily(fan)


def verify_realization(fan: FanDiagram, probe_radius: float = 1.0) -> dict:
    """Check that :func:`fan_family` realizes the fan.

    One probe per chamber (at the angular bisector, radius ``probe_radius``)
    must reproduce the chamber label as the degree of the normalized sphere
    map; each ray must be degenerate iff its flanking labels differ, and
    nearby off-ray points must be non-degenerate.
    """
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    family = fan_family(fan)
    k = fan.k
    chambers = []
    passed = True
    for i in range(k):
        ang = fan.bisector_angle(i)
        p = (probe_radius * math.cos(ang), probe_radius * math.sin(ang))
        mn = family.min_norm(p)
        if mn < 1e-9:
            chambers.append(
                {"chamber": i, "label": fan.labels[i], "degree": DEGENERATE, "ok": False}
            )
            passed = False
            continue
        raw = sphere_map_degree(lambda P, T: family(p, P, T))
        deg = int(round(raw))
        ok = abs(raw - deg) < 0.02 and deg == fan.labels[i]
        passed &= ok
        chambers.append(
            {
                "chamber": i,
                "label": fan.labels[i],
                "degree": deg,
                "degree_raw": raw,
                "min_norm": mn,
                "ok": ok,
            }
        )
    rays = []
    off = math.pi / (64 * k)
    for i in range(k):
        ang = fan.ray_angle(i)
        p_on = (probe_radius * math.cos(ang), probe_radius * math.sin(ang))
        wall = fan.labels[(i - 1) % k] != fan.labels[i]
        mn_on = family.min_norm(p_on)
        mns_off = [
            family.min_norm(
                (probe_radius * math.cos(ang + s * off), probe_radius * math.sin(ang + s * off))
            )
            for s in (-1.0, 1.0)
        ]
        ok = (mn_on < 1e-6) == wall and all(m > 1e-6 for m in mns_off)
        passed &= ok
        rays.append(
            {
                "ray": i,
                "wall": wall,
                "min_norm_on_ray": mn_on,
                "min_norm_off_ray": min(mns_off),
                "ok": ok,
            }
        )
    return {"passed": bool(passed), "chambers": chambers, "rays": rays}
