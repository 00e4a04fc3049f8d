"""Momentum-space Bloch Hamiltonian families (the model zoo).

Every model is a :class:`BlochModel`: a named map from the momentum torus to a
real coefficient vector in the Pauli basis (2 bands) or the Gell-Mann basis
(3 bands), together with its Brillouin zone, neighbor geometry, parameter
schema, and (for 2-band models) the analytic Jacobian of h: the root finder
uses its (h1, h2) rows, and the ray engine rotates all three rows.

Each builtin is a tight-binding Hamiltonian H(k) = sum_R T_R e^{ik.R} held as
a :class:`HoppingTable`: a function of the params that returns the vectors R
and, per R, complex coefficients over the basis components and the identity.
The table derives ``field``, ``h0``, the exact Jacobians ``jac`` and ``jac12``,
and ``gap_slope`` (a bound on how fast any band gap can change with k, which
lets a phase scan certify a cell's gap from a grid), and gives ``assemble``
every component in one pass.  Range families come from two rules on the terms:
:func:`_dilated` (R -> (n1 Rx, n2 Ry), the model at k -> (n1 kx, n2 ky):
``scale_model(..., "all")``, the ``_n2`` builtins, ``spin_ssphere``,
``torus_wind``) and :func:`_hopping` (R -> N R on the (h1, h2) terms:
``haldane_n``, ``triangular_n``).  A new model is a terms function plus one
``_CATALOG`` entry; a hand-written :class:`BlochModel` with its own callbacks
works as well, but cannot be scaled.

Honeycomb-family coefficient fields are written in the periodic gauge: the
inter-sublattice amplitude carries a common phase exp(-i N k.a1) so the
coefficient vector is exactly periodic under the reciprocal vectors.  This is
a k-dependent U(1) rotation of (h1, h2); it moves no zeros and changes no
Jacobian sign, gap, or Chern number.  The kagome matrix is periodic up to
conjugation by fixed sign matrices (see ``geometry["gauge_matrices"]``);
consumers that walk across the zone boundary must evaluate at the actual k
rather than wrapping indices.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import quadring

SQRT3 = math.sqrt(3.0)

# Pauli matrices
SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Gell-Mann matrices, lambda_1 .. lambda_8
GELL_MANN = np.zeros((8, 3, 3), dtype=complex)
GELL_MANN[0][0, 1] = GELL_MANN[0][1, 0] = 1
GELL_MANN[1][0, 1] = -1j
GELL_MANN[1][1, 0] = 1j
GELL_MANN[2][0, 0] = 1
GELL_MANN[2][1, 1] = -1
GELL_MANN[3][0, 2] = GELL_MANN[3][2, 0] = 1
GELL_MANN[4][0, 2] = -1j
GELL_MANN[4][2, 0] = 1j
GELL_MANN[5][1, 2] = GELL_MANN[5][2, 1] = 1
GELL_MANN[6][1, 2] = -1j
GELL_MANN[6][2, 1] = 1j
GELL_MANN[7][0, 0] = GELL_MANN[7][1, 1] = 1 / SQRT3
GELL_MANN[7][2, 2] = -2 / SQRT3

#: the Pauli or Gell-Mann matrices and then the identity, flattened, by band count
_BASIS = {
    2: np.concatenate([SIGMA, np.eye(2)[None]]).reshape(4, 4),
    3: np.concatenate([GELL_MANN, np.eye(3)[None]]).reshape(9, 9),
}


class ModelError(ValueError):
    """Bad model name, parameters, or construction."""


@dataclass(frozen=True)
class BrillouinZone:
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g1", np.asarray(self.g1, dtype=float))
        object.__setattr__(self, "g2", np.asarray(self.g2, dtype=float))
        if abs(self.area) < 1e-12:
            raise ModelError("reciprocal vectors are linearly dependent")

    @property
    def area(self) -> float:
        return float(self.g1[0] * self.g2[1] - self.g1[1] * self.g2[0])

    @property
    def matrix(self) -> np.ndarray:
        """Columns g1, g2."""
        return np.stack([self.g1, self.g2], axis=1)

    def kpoint(self, s, t) -> np.ndarray:
        """k = s g1 + t g2 for fractional coordinates s, t (broadcasting)."""
        s = np.asarray(s, dtype=float)[..., None]
        t = np.asarray(t, dtype=float)[..., None]
        return s * self.g1 + t * self.g2

    def frac(self, k) -> np.ndarray:
        """Fractional coordinates of k, shape (2,) or (n, 2) (inverse of :meth:`kpoint`)."""
        return np.linalg.solve(self.matrix, np.asarray(k, dtype=float).T).T


SQUARE_ZONE = BrillouinZone(g1=(2 * math.pi, 0.0), g2=(0.0, 2 * math.pi))


@dataclass(frozen=True)
class BlochModel:
    """A parameterized Bloch Hamiltonian family over a 2D momentum zone."""

    name: str
    bands: int
    lattice: str
    defaults: dict
    zone: BrillouinZone
    #: coefficient map: (params, kx, ky) -> (..., 3) Pauli or (..., 8) Gell-Mann
    field: Callable | None
    #: optional scalar sigma_0 / identity part
    h0: Callable | None = None
    #: analytic d(h1,h2)/d(kx,ky), shape (..., 2, 2); 2-band builtins supply it,
    #: and the root finder falls back to central differences without it
    jac12: Callable | None = None
    #: direct matrix map for models without a coefficient field (band folding)
    matrix_fn: Callable | None = None
    geometry: dict = dc_field(default_factory=dict)
    #: "exact" or "conjugate" (periodic only up to fixed unitary conjugation)
    periodicity: str = "exact"
    #: name of the builtin implementing the hopping-only range-N family
    hopping_family: str | None = None
    #: (params with defaults) -> upper bound on |grad_k| of every band gap; None
    #: when unknown (the certified scan then refines every cell)
    gap_slope: Callable | None = None
    #: analytic dh/d(kx,ky), shape (..., 3, 2), of which ``jac12`` is rows 1-2;
    #: 2-band builtins supply it so that rotated rays get exact Jacobians too
    jac: Callable | None = None

    def params_with_defaults(self, params: dict | None) -> dict:
        p = dict(self.defaults)
        if params:
            unknown = set(params) - set(p)
            if unknown:
                raise ModelError(f"unknown parameters for {self.name}: {sorted(unknown)}")
            p.update(params)
        for name, val in p.items():
            if val is None or (isinstance(val, float) and math.isnan(val)):
                raise ModelError(f"parameter {name} of {self.name} is missing or NaN")
        return p


def eval_field(model: BlochModel, params: dict | None, k) -> np.ndarray:
    """Coefficient vector at k (validates parameters against the schema)."""
    if model.field is None:
        raise ModelError(f"model {model.name} has no coefficient field")
    p = model.params_with_defaults(params)
    k = np.asarray(k, dtype=float)
    return model.field(p, k[..., 0], k[..., 1])


def assemble(model: BlochModel, params: dict | None, k) -> np.ndarray:
    """Hermitian matrix value H(k)."""
    p = model.params_with_defaults(params)
    k = np.asarray(k, dtype=float)
    kx, ky = k[..., 0], k[..., 1]
    if model.matrix_fn is not None:
        return model.matrix_fn(p, kx, ky)
    if isinstance(model.field, HoppingTable) and model.h0 is model.field.h0:
        c = model.field._sum(p, kx, ky)  # every component from one evaluation of the phases
        return (c @ _BASIS[model.bands]).reshape(c.shape[:-1] + (model.bands, model.bands))
    h = model.field(p, kx, ky)
    basis = SIGMA if model.bands == 2 else GELL_MANN
    H = np.einsum("...i,ijk->...jk", h, basis)
    if model.h0 is not None:
        H = H + model.h0(p, kx, ky)[..., None, None] * np.eye(model.bands)
    return H


def spectrum(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (stack of) Hermitian matrices."""
    return np.linalg.eigvalsh(H)


def _check_gap_band(model: BlochModel, band: int) -> None:
    """A gap lies above ``band`` only below the top band."""
    if not 0 <= band <= model.bands - 2:
        raise ModelError(f"band must be in [0, {model.bands - 2}]")


def gap(model: BlochModel, params: dict | None, k, band: int = 0) -> float:
    """Gap above the given band at k (2-band models use the closed form)."""
    _check_gap_band(model, band)
    if model.bands == 2 and model.field is not None:
        h = eval_field(model, params, k)
        return float(2.0 * np.linalg.norm(h[..., :3], axis=-1))
    ev = spectrum(assemble(model, params, k))
    return float(ev[..., band + 1] - ev[..., band])


# ---------------------------------------------------------------------------
# hopping tables
# ---------------------------------------------------------------------------


class HoppingTable:
    """A Bloch Hamiltonian as a finite Fourier series H(k) = sum_R T_R e^{ik.R}.

    ``terms(p)`` returns vectors R, shape (T, 2), and coefficients C, shape
    (T, K): component c is Re sum_R C[R, c] e^{ik.R}, over the Pauli (K = 4) or
    Gell-Mann (K = 9) components and then the identity.  The table is a model's
    ``field``; it keeps the terms of the last params, folded by :func:`_fold`,
    for the root finder.
    """

    def __init__(self, terms: Callable, h0: bool = False):
        self.terms = terms
        self.h0 = self._identity if h0 else None
        self._last: tuple = (None, None)

    def _compiled(self, p) -> tuple:
        key = tuple(p.items())
        last_key, compiled = self._last
        if key != last_key:
            R, C = _fold(*self.terms(p))
            dC = (C[:, :3, None] * (1j * R[:, None, :])).reshape(len(R), 6)
            compiled = (R[:, 0].copy(), R[:, 1].copy(), C, dC)
            self._last = (key, compiled)
        return compiled

    def _sum(self, p, kx, ky, jac: bool = False) -> np.ndarray:
        """All components at k, or d(h1, h2, h3)/d(kx, ky) = Re sum_R i R C e^{ik.R} flattened."""
        Rx, Ry, C, dC = self._compiled(p)
        kx = np.asarray(kx, dtype=float)[..., None]
        ky = np.asarray(ky, dtype=float)[..., None]
        ph = 1j * (kx * Rx + ky * Ry)
        np.exp(ph, out=ph)
        return (ph @ (dC if jac else C)).real

    def gap_slope(self, p) -> float:
        """Upper bound 2 kappa sum_R |R| sigma_R on |grad_k| of any band gap.

        The traceless part moves along a unit direction u at rate
        Re sum_R i (u.R) C_R e^{ik.R}, whose norm is at most sum_R |R| sigma_R
        with sigma_R the largest singular value of [Re C_R, Im C_R] over the
        non-identity components.  A coefficient vector v gives a matrix of
        operator norm kappa |v| (1 for Pauli, 2/sqrt 3 for Gell-Mann), and by
        Weyl's inequality a gap moves at most twice as fast as the matrix.
        """
        Rx, Ry, C, _ = self._compiled(p)
        parts = np.stack([C[:, :-1].real, C[:, :-1].imag], axis=-1)
        sigma = np.linalg.svd(parts, compute_uv=False)[:, 0]
        kappa = 1.0 if C.shape[1] == 4 else 2.0 / SQRT3
        return float(2.0 * kappa * np.hypot(Rx, Ry) @ sigma)

    def __call__(self, p, kx, ky) -> np.ndarray:
        return self._sum(p, kx, ky)[..., :-1]

    def _identity(self, p, kx, ky) -> np.ndarray:
        return self._sum(p, kx, ky)[..., -1]

    def jac(self, p, kx, ky) -> np.ndarray:
        J = self._sum(p, kx, ky, jac=True)
        return J.reshape(J.shape[:-1] + (3, 2))

    def jac12(self, p, kx, ky) -> np.ndarray:
        return self.jac(p, kx, ky)[..., :2, :]


def _fold(R, C) -> tuple[np.ndarray, np.ndarray]:
    """Terms with each -R folded into +R and equal R merged.

    Re(c e^{-ik.R}) = Re(conj(c) e^{ik.R}), so a term in the lower half-plane
    becomes its mirror with the conjugate coefficient; the table then costs
    one exponential per distinct +-R pair.
    """
    R = np.asarray(R, dtype=float).reshape(-1, 2)
    C = np.asarray(C, dtype=complex)
    flip = (R[:, 1] < 0) | ((R[:, 1] == 0) & (R[:, 0] < 0))
    R = np.where(flip[:, None], -R, R)
    C = np.where(flip[:, None], C.conj(), C)
    _, first, group = np.unique(np.round(R, 9), axis=0, return_index=True, return_inverse=True)
    merged = np.zeros((len(first), C.shape[1]), dtype=complex)
    np.add.at(merged, group.ravel(), C)
    return R[first], merged


# ---------------------------------------------------------------------------
# lattice geometry and base tables
# ---------------------------------------------------------------------------

HONEYCOMB_A = np.array([[0.0, 1.0], [SQRT3 / 2, -0.5], [-SQRT3 / 2, -0.5]])
HONEYCOMB_B = np.array([[SQRT3, 0.0], [-SQRT3 / 2, 1.5], [-SQRT3 / 2, -1.5]])
HONEYCOMB_C = -2.0 * HONEYCOMB_A
HONEYCOMB_ZONE = BrillouinZone(
    g1=(2 * math.pi / SQRT3, 2 * math.pi / 3), g2=(-2 * math.pi / SQRT3, 2 * math.pi / 3)
)
K_POINT = np.array([4 * math.pi / (3 * SQRT3), 0.0])

# triangular lattice: nearest vectors w_j and second-nearest u_j with the sign
# pattern fixed so the Chern number is exactly 3x the honeycomb value at
# matched parameters (the only pattern, up to conjugacy, that does this)
TRI_W = np.array([[1.0, 0.0], [0.5, SQRT3 / 2], [-0.5, SQRT3 / 2]])
TRI_W_SIGNS = np.array([1.0, -1.0, 1.0])
TRI_U = np.array([[1.5, SQRT3 / 2], [0.0, SQRT3], [-1.5, SQRT3 / 2]])
TRI_U_SIGNS = np.array([1.0, -1.0, 1.0])
TRIANGULAR_ZONE = BrillouinZone(
    g1=(2 * math.pi, -2 * math.pi / SQRT3), g2=(0.0, 4 * math.pi / SQRT3)
)

KAGOME_A = np.array([[1.0, 0.0], [0.5, SQRT3 / 2], [-0.5, SQRT3 / 2]])
KAGOME_ZONE = BrillouinZone(g1=(math.pi, -math.pi / SQRT3), g2=(0.0, 2 * math.pi / SQRT3))

_HONEYCOMB_R = np.concatenate(
    [HONEYCOMB_A - HONEYCOMB_A[0], HONEYCOMB_B, HONEYCOMB_C - HONEYCOMB_A[0]]
)
_TRIANGULAR_R = np.concatenate([TRI_W_SIGNS[:, None] * TRI_W, TRI_U, [[0.0, 0.0]]])
_SQUARE_R = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _honeycomb(p):
    """h1 + i h2 = t1 sum_j e^{ik.(a_j - a_1)} [+ t3 sum_j e^{ik.(c_j - a_1)}],
    h3 = m - 2 t2 sin(phi) sum_j sin(k.b_j), h0 = 2 t2 cos(phi) sum_j cos(k.b_j)."""
    t, s = p["t1"], 2 * p["t2"]
    b = [0, 0, 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])]
    rows = [[t, -1j * t, p["m"], 0], [t, -1j * t, 0, 0], [t, -1j * t, 0, 0], b, b, b]
    if "t3" in p:
        rows += [[p["t3"], -1j * p["t3"], 0, 0]] * 3
    return _HONEYCOMB_R[: len(rows)], rows


def _triangular(p):
    """h1 + i h2 = -t1 sum_j e^{ik.s_j w_j}; with the signs s'_j of the u_j,
    h3 = m - 2 t2 sin(phi) sum_j s'_j sin(k.u_j), h0 = 2 t2 cos(phi) sum s'_j cos(k.u_j)."""
    t, s = p["t1"], 2 * p["t2"]
    sin, cos = 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])
    u = [[0, 0, sg * sin, sg * cos] for sg in TRI_U_SIGNS]
    return _TRIANGULAR_R, [[-t, 1j * t, 0, 0]] * 3 + u + [[0, 0, p["m"], 0]]


def _kagome(p):
    """Gell-Mann pairs (1, 2), (4, 5), (6, 7): -2 (t1, u1) cos(k.a_j), u1 negated on (4, 5)."""
    t, u = -2 * p["t1"], -2 * p["u1"]
    rows = [[t, u, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, t, -u, 0, 0, 0, 0]]
    return KAGOME_A, rows + [[0, 0, 0, 0, 0, t, u, 0, 0]]


def _bhz(p):
    """h = (t1 sin kx, t1 sin ky, m - t1 cos kx - t1 cos ky)."""
    t = p["t1"]
    return _SQUARE_R, [[0, 0, p["m"], 0], [-1j * t, 0, -t, 0], [0, -1j * t, -t, 0]]


def _mb_dirac(p):
    """h = (sin kx, sin ky, M - B sin^2(kx/2) - B sin^2(ky/2))."""
    b = p["B"] / 2
    return _SQUARE_R, [[0, 0, p["M"] - p["B"], 0], [-1j, 0, b, 0], [0, -1j, b, 0]]


def _collapse(p):
    """The fixed smooth degree-one map -(sin kx, sin ky, cos kx + cos ky - 1)."""
    return _SQUARE_R, [[0, 0, 1, 0], [1j, 0, -1, 0], [0, 1j, -1, 0]]


def _square_power(p):
    """h1 + i h2 = (alpha cos kx + i beta cos ky)^d for integer d >= 0, expanded with
    cos^n x = 2^-n sum_l C(n, l) e^{i(n - 2l)x}; h3 = m0 + gamma1 sin kx + gamma2 sin ky."""
    d = _integer(p, "d")
    if d < 0:
        raise ModelError(f"square_power needs an integer power d >= 0, got {p['d']}")
    R = [_SQUARE_R]
    rows = [[0, 0, p["m0"], 0], [0, 0, -1j * p["gamma1"], 0], [0, 0, -1j * p["gamma2"], 0]]
    for j in range(d + 1):
        c = math.comb(d, j) * p["alpha"] ** (d - j) * (1j * p["beta"]) ** j / 2**d
        for l, m in itertools.product(range(d - j + 1), range(j + 1)):
            w = c * math.comb(d - j, l) * math.comb(j, m)
            R.append([[d - j - 2 * l, j - 2 * m]])
            rows.append([w, -1j * w, 0, 0])
    return np.concatenate(R), rows


# ---------------------------------------------------------------------------
# range rules and catalog
# ---------------------------------------------------------------------------


def _integer(p: dict, name: str) -> int:
    """Parameter ``name`` as an int: 2.0 is accepted, 2.5 refused rather than truncated."""
    if not float(p[name]).is_integer():
        raise ModelError(f"parameter {name} must be an integer, got {p[name]!r}")
    return int(p[name])


def _dilated(terms: Callable, ns: tuple) -> Callable:
    """R -> (n1 Rx, n2 Ry) on every term: the model at k -> (n1 kx, n2 ky).  Each of
    ``ns`` is an integer or the name of an integer parameter."""

    def scaled(p):
        R, rows = terms(p)
        n = [_integer(p, x) if isinstance(x, str) else x for x in ns]
        return np.asarray(R, dtype=float) * n, rows

    return scaled


def _hopping(terms: Callable) -> Callable:
    """R -> N R, N = p["N"], on the terms with an (h1, h2) part: the hopping-only family."""

    def scaled(p):
        R, rows = terms(p)
        C = np.asarray(rows, dtype=complex)
        return np.where(C[:, :2].any(axis=1)[:, None], _integer(p, "N") * R, R), C

    return scaled


_ZONES = {"honeycomb": HONEYCOMB_ZONE, "triangular": TRIANGULAR_ZONE, "kagome": KAGOME_ZONE}
_HALDANE = {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "m": 0.0}
_HALDANE3NN = {"t1": 1.0, "t2": 0.5, "t3": 0.35, "phi": math.pi / 2, "m": 0.0}
_HALDANE_N = {**_HALDANE, "N": 2}
_BHZ = {"t1": 1.0, "m": -1.0}
_KAGOME = {"t1": 1.0, "u1": 1.0}
_POWER = {"alpha": 1.0, "beta": 1.0, "gamma1": 0.5, "gamma2": 0.25, "m0": 0.0, "d": 1}


def _table_fields(table: HoppingTable, bands: int) -> dict:
    """The model callbacks a table derives; the Jacobians only for 2 bands."""
    jac, jac12 = (table.jac, table.jac12) if bands == 2 else (None, None)
    return dict(field=table, h0=table.h0, jac12=jac12, jac=jac, gap_slope=table.gap_slope)


def _model(name, terms, lattice, defaults, bands=2, h0=False, **fields) -> BlochModel:
    zone = _ZONES.get(lattice, SQUARE_ZONE)
    table = _table_fields(HoppingTable(terms, h0), bands)
    return BlochModel(name, bands, lattice, dict(defaults), zone, **table, **fields)


def _haldane(name, defaults=_HALDANE_N, extra=None, terms=_honeycomb, **fields):
    geometry = {"a": HONEYCOMB_A, "b": HONEYCOMB_B, **(extra or {})}
    return _model(name, terms, "honeycomb", defaults, h0=True, geometry=geometry, **fields)


def _triangular_model(name, terms=_triangular, defaults=_HALDANE_N, **fields):
    return _model(name, terms, "triangular", defaults, h0=True, **fields)


def _kagome_model(name, defaults, terms=_kagome):
    gauge = (np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, -1.0]))
    geometry = {"a": KAGOME_A, "gauge_matrices": gauge}
    return _model(name, terms, "kagome", defaults, 3, geometry=geometry, periodicity="conjugate")


_NN = ("N", "N")

_CATALOG: dict[str, Callable[[], BlochModel]] = {
    "haldane": lambda: _haldane("haldane", _HALDANE, {"K": K_POINT}, hopping_family="haldane_n"),
    "haldane3nn": lambda: _haldane("haldane3nn", _HALDANE3NN, extra={"c": HONEYCOMB_C}),
    "haldane_n2": lambda: _haldane("haldane_n2", terms=_dilated(_honeycomb, _NN)),
    "haldane_n": lambda: _haldane("haldane_n", terms=_hopping(_honeycomb)),
    "bhz_square": lambda: _model(
        "bhz_square", _bhz, "square", _BHZ, geometry={"a": np.eye(2)[:1], "b": np.eye(2)[1:]}
    ),
    "square_n2": lambda: _model("square_n2", _dilated(_bhz, _NN), "square", {**_BHZ, "N": 2}),
    "square_power": lambda: _model("square_power", _square_power, "square", _POWER),
    "triangular": lambda: _triangular_model(
        "triangular",
        defaults=_HALDANE,
        geometry={"w": TRI_W, "u": TRI_U, "w_signs": TRI_W_SIGNS, "u_signs": TRI_U_SIGNS},
        hopping_family="triangular_n",
    ),
    "triangular_n2": lambda: _triangular_model("triangular_n2", _dilated(_triangular, _NN)),
    "triangular_n": lambda: _triangular_model("triangular_n", _hopping(_triangular)),
    "kagome": lambda: _kagome_model("kagome", _KAGOME),
    "kagome_n2": lambda: _kagome_model("kagome_n2", {**_KAGOME, "N": 3}, _dilated(_kagome, _NN)),
    "mb_dirac": lambda: _model("mb_dirac", _mb_dirac, "square", {"M": 1.0, "B": 1.0}),
    "spin_ssphere": lambda: _model(
        "spin_ssphere", _dilated(_collapse, ("d", 1)), "square", {"d": 1}
    ),
    "torus_wind": lambda: _model(
        "torus_wind", _dilated(_collapse, ("d1", "d2")), "square", {"d1": 2, "d2": 3}
    ),
}


def catalog() -> list[str]:
    return sorted(_CATALOG)


def builtin_model(name: str) -> BlochModel:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise ModelError(f"unknown model {name!r}; known: {', '.join(catalog())}") from None


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

_ADMISSIBLE_ALL = {
    "square": quadring.square_admissible,
    "triangular": quadring.triangular_admissible,
    "honeycomb": lambda N: quadring.triangular_admissible(abs(N)),
    "kagome": quadring.kagome_admissible,
}

_ADMISSIBLE_HOPPING = {
    "honeycomb": quadring.honeycomb_admissible,
    "triangular": quadring.triangular_admissible,
}


def scale_model(model: BlochModel, N: int, which: str = "all") -> BlochModel:
    """Range-N version of a model.

    ``all`` replaces k.v by N k.v in every term (Chern numbers scale by N^2);
    ``hopping_only`` rescales only the nearest-neighbor terms (the C = N
    families) and is available for models that declare a hopping family.
    Inadmissible N is rejected with the number-theoretic reason.
    """
    if N == 0 or int(N) != N:
        raise ModelError("N must be a nonzero integer")
    N = int(N)
    if which == "all":
        check = _ADMISSIBLE_ALL.get(model.lattice)
        if check is None:
            raise ModelError(f"no admissibility rule for lattice {model.lattice!r}")
        if not check(N):
            raise ModelError(
                f"N={N} is not admissible for a {model.lattice} lattice: a split "
                "prime divides it (or the sublattice species do not match), so the "
                "range-N shell does not replicate the nearest-neighbor structure"
            )
        if not isinstance(model.field, HoppingTable):
            raise ModelError(f"model {model.name} is not a hopping table and cannot be scaled")
        table = HoppingTable(_dilated(model.field.terms, (N, N)), model.field.h0 is not None)
        return dataclasses.replace(
            model, name=f"{model.name}_scaled{N}", hopping_family=None,
            **_table_fields(table, model.bands)
        )
    if which == "hopping_only":
        if model.hopping_family is None:
            raise ModelError(f"model {model.name} has no hopping-only range family")
        check = _ADMISSIBLE_HOPPING[model.lattice]
        if not check(N):
            raise ModelError(
                f"N={N} is not admissible for hopping-only scaling on a "
                f"{model.lattice} lattice (split-prime or sublattice-species rule)"
            )
        fam = builtin_model(model.hopping_family)
        shared = {k: v for k, v in model.defaults.items() if k in fam.defaults}
        defaults = {**fam.defaults, **shared, "N": N}
        return dataclasses.replace(fam, name=f"{model.name}_hop{N}", defaults=defaults)
    raise ModelError(f"which must be 'all' or 'hopping_only', got {which!r}")


def fold_bands(model: BlochModel, N: int) -> BlochModel:
    """Super-cell block model: eigenvalues at k are the union over the N^2
    reciprocal shifts v of the original spectra at k + v (square zones only)."""
    if N <= 0 or int(N) != N:
        raise ModelError("N must be a positive integer")
    N = int(N)
    zone = model.zone
    if not (
        np.allclose(zone.g1, [2 * math.pi, 0]) and np.allclose(zone.g2, [0, 2 * math.pi])
    ):
        raise ModelError("fold_bands requires a square 2pi x 2pi zone")
    if N == 1:
        return model
    shifts = [
        (2 * math.pi * i / N, 2 * math.pi * j / N) for i in range(N) for j in range(N)
    ]
    nb = model.bands

    def matrix_fn(p, kx, ky):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        out = np.zeros(np.broadcast(kx, ky).shape + (nb * N * N, nb * N * N), dtype=complex)
        for idx, (vx, vy) in enumerate(shifts):
            blk = assemble(model, p, np.stack(np.broadcast_arrays(kx + vx, ky + vy), axis=-1))
            out[..., idx * nb : (idx + 1) * nb, idx * nb : (idx + 1) * nb] = blk
        return out

    return BlochModel(
        name=f"{model.name}_folded{N}",
        bands=nb * N * N,
        lattice=model.lattice,
        defaults=model.defaults,
        zone=BrillouinZone(g1=zone.g1 / N, g2=zone.g2 / N),
        field=None,
        matrix_fn=matrix_fn,
        periodicity=model.periodicity,
    )


# ---------------------------------------------------------------------------
# pre-Dirac points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreDiracPoint:
    """A zero of (h1, h2) with its local orientation data."""

    k: np.ndarray
    frac: tuple[float, float]
    jac_sign: int
    h3: float
    degenerate: bool


def _fd_jac12(model, p, kx, ky) -> np.ndarray:
    """Central-difference d(h1, h2)/d(kx, ky) at 1-D arrays of k, shape (n, 2, 2),
    from one field call on the four shifted copies of the points."""
    eps = 1e-7
    X = np.concatenate([kx + eps, kx - eps, kx, kx])
    Y = np.concatenate([ky, ky, ky + eps, ky - eps])
    h = model.field(p, X, Y)[:, :2].reshape(4, len(kx), 2)
    return np.stack([h[0] - h[1], h[2] - h[3]], axis=-1) / (2 * eps)


def pre_dirac_points(
    model: BlochModel,
    params: dict | None = None,
    seed_density: int = 48,
) -> list[PreDiracPoint]:
    """All zeros of (h1, h2) on the zone, Newton-refined from a dense seed grid.

    Newton runs on the best seeds at once: each step is one batched field and
    Jacobian call on the seeds still iterating, with the 2x2 systems solved in
    closed form; a seed leaves when it converges or its Jacobian is singular.
    Each zero carries sgn det d(h1,h2)/d(kx,ky); zeros with a singular Jacobian
    are reported with ``degenerate=True`` rather than dropped.  The zeros come
    in the order of their seam keys (fractional coordinates on a 1e-6 grid).
    """
    if model.bands != 2 or model.field is None:
        raise ModelError("pre_dirac_points requires a 2-band coefficient model")
    p = model.params_with_defaults(params)
    zone = model.zone

    def jac12(kx, ky):
        return model.jac12(p, kx, ky) if model.jac12 else _fd_jac12(model, p, kx, ky)

    ss = (np.arange(seed_density) + 0.5) / seed_density
    S, T = np.meshgrid(ss, ss, indexing="ij")
    K = zone.kpoint(S.ravel(), T.ravel())
    H = model.field(p, K[:, 0], K[:, 1])
    res = np.hypot(H[:, 0], H[:, 1])
    scale = max(res.max(), 1.0)
    k = K[np.argsort(res)[: max(64, 8 * seed_density)]]

    converged = np.zeros(len(k), dtype=bool)
    alive = np.arange(len(k))
    for _ in range(60):
        f = model.field(p, k[alive, 0], k[alive, 1])[:, :2]
        done = np.hypot(f[:, 0], f[:, 1]) < 1e-10
        converged[alive[done]] = True
        alive, f = alive[~done], f[~done]
        if not alive.size:
            break
        a, b, c, d = jac12(k[alive, 0], k[alive, 1]).reshape(-1, 4).T
        det = a * d - b * c
        regular = det != 0  # where np.linalg.solve would raise: the seed is dropped
        step = np.stack([d * f[:, 0] - b * f[:, 1], a * f[:, 1] - c * f[:, 0]], axis=-1)
        step = step[regular] / det[regular, None]
        alive = alive[regular]
        norm = np.hypot(step[:, 0], step[:, 1])[:, None]
        k[alive] -= np.where(norm > 2.0, 2.0 * step / norm, step)
    if not converged.any():
        return []

    frac = zone.frac(k[converged]) % 1.0
    frac[frac > 1.0 - 1e-7] = 0.0  # canonical representative at the seam
    keys = np.round(frac * 1e6).astype(int) % 1000000
    _, first = np.unique(keys[:, 0] * 1000000 + keys[:, 1], return_index=True)
    frac = frac[first]
    kred = zone.kpoint(frac[:, 0], frac[:, 1])
    h3 = model.field(p, kred[:, 0], kred[:, 1])[:, 2]
    det = np.linalg.det(jac12(kred[:, 0], kred[:, 1]))
    degenerate = np.abs(det) < 1e-8 * scale**2
    return [
        PreDiracPoint(
            k=kred[i],
            frac=(float(frac[i, 0]), float(frac[i, 1])),
            jac_sign=0 if degenerate[i] else int(np.sign(det[i])),
            h3=float(h3[i]),
            degenerate=bool(degenerate[i]),
        )
        for i in range(len(first))
    ]
