"""Momentum-space Bloch Hamiltonian families (the model zoo).

Every model is a :class:`BlochModel`: a named, parameterized Hermitian matrix
H(k) on the momentum torus, together with its Brillouin zone, neighbor
geometry and parameter schema, and held as a :class:`HoppingTable`: the
tight-binding Hamiltonian H(k) = Herm sum_R T_R e^{ik.R}, with
Herm A = (A + A^dagger) / 2, given by a function of the params that returns
the vectors R and the n x n matrices T_R.  2-band terms write each T_R as
Pauli rows through :func:`_pauli`; kagome writes its three site-to-site
hoppings.  The table gives ``assemble`` the whole matrix in one pass and
``gap_slope`` (a bound on how fast any band gap can change with k, which lets
a phase scan certify a cell's gap from a grid).  For 2 bands it also derives
the coefficient field h, with H = h . sigma + (tr H / 2) 1, and the exact
Jacobians ``jac`` and ``jac12`` of h: the root finder uses the (h1, h2) rows.

Range families and probes come from rules on the terms: :func:`_dilated`
(R -> (n1 Rx, n2 Ry), the model at k -> (n1 kx, n2 ky):
``scale_model(..., "all")``, the ``_n2`` builtins, ``spin_ssphere``,
``torus_wind``), :func:`_hopping` (R -> N R on the inter-orbital terms:
``haldane_n``, ``triangular_n``), :func:`_folded` (the N x N super-cell of
``fold_bands``) and :func:`_rotated` (h -> R h, the ray engine's rotated
probes).  A new model is a terms function plus one ``_CATALOG`` entry, or
``BlochModel(name, bands, lattice, defaults, zone, HoppingTable(terms))``.

Honeycomb-family coefficient fields are written in the periodic gauge: the
inter-sublattice amplitude carries a common phase exp(-i N k.a1) so the
coefficient vector is exactly periodic under the reciprocal vectors.  This is
a k-dependent U(1) rotation of (h1, h2); it moves no zeros and changes no
Jacobian sign, gap, or Chern number.  The kagome and folded matrices are
periodic up to conjugation by fixed unitaries, H(k + g) = S H(k) S^dagger
(see ``geometry["gauge_matrices"]``); consumers that walk across the zone
boundary must evaluate at the actual k rather than wrapping indices.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

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

#: sigma_x, sigma_y, sigma_z and the identity: the components of a 2-band field
PAULI = np.concatenate([SIGMA, np.eye(2)[None]])


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
    #: the hopping table the model is built from
    table: HoppingTable
    #: 2-band Pauli coefficient map (params, kx, ky) -> (..., 3) and its analytic
    #: d(h1,h2)/d(kx,ky), shape (..., 2, 2): None means the table's, and both stay
    #: None for n > 2 bands.  They are fields only so that a wrapped callback
    #: (a call counter) can be swapped in; a rule that swaps the table resets them
    #: through :func:`_with_terms`.
    field: Callable | None = None
    jac12: Callable | None = None
    geometry: dict = dc_field(default_factory=dict)
    #: "exact" or "conjugate" (periodic only up to fixed unitary conjugation)
    periodicity: str = "exact"
    #: name of the builtin implementing the hopping-only range-N family
    hopping_family: str | None = None

    def __post_init__(self):
        if self.bands == 2:
            object.__setattr__(self, "field", self.field or self.table.field)
            object.__setattr__(self, "jac12", self.jac12 or self.table.jac12)

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
    if model.bands != 2:
        raise ModelError(f"model {model.name} has no coefficient field")
    p = model.params_with_defaults(params)
    k = np.asarray(k, dtype=float)
    return model.field(p, k[..., 0], k[..., 1])


def assemble(model: BlochModel, params: dict | None, k) -> np.ndarray:
    """Hermitian matrix value H(k), the table's sum."""
    p = model.params_with_defaults(params)
    k = np.asarray(k, dtype=float)
    return model.table.matrix(p, k[..., 0], k[..., 1])


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
    if model.bands == 2:
        h = eval_field(model, params, k)
        return float(2.0 * np.linalg.norm(h, axis=-1))
    ev = spectrum(assemble(model, params, k))
    return float(ev[..., band + 1] - ev[..., band])


# ---------------------------------------------------------------------------
# hopping tables
# ---------------------------------------------------------------------------


class _Compiled(NamedTuple):
    """A table's terms at one params, folded by :func:`_fold`."""

    Rx: np.ndarray
    Ry: np.ndarray
    #: the coefficients T_R, shape (T, n, n)
    T: np.ndarray
    #: [T_R; T_R^dagger] / 2 flattened, so that H(k) = [e^{ik.R}, e^{-ik.R}] @ pm
    pm: np.ndarray
    #: 2 bands only: the Pauli and identity components, shape (T, 4), and the
    #: k-derivatives i R c of the first three, shape (T, 6).  Nothing reads the
    #: identity column; a product over three columns would round h3 differently.
    C: np.ndarray | None
    dC: np.ndarray | None


class HoppingTable:
    """A Bloch Hamiltonian as a finite Fourier series H(k) = Herm sum_R T_R e^{ik.R}.

    ``terms(p)`` returns vectors R, shape (T, 2), and n x n coefficients T_R,
    shape (T, n, n); Herm A = (A + A^dagger) / 2.  The compiled terms are
    cached for the last few params.  For 2 bands the compile step also
    projects each T_R on the Pauli matrices and the identity,
    c = tr(P_c T_R) / 2, so that component c of the field is
    Re sum_R c e^{ik.R} and its Jacobian is Re sum_R i R c e^{ik.R}.
    """

    def __init__(self, terms: Callable):
        self.terms = terms
        self._cached = functools.lru_cache(maxsize=4)(self._compile)

    def _compile(self, key: tuple) -> _Compiled:
        R, T = _fold(*self.terms(dict(key)))
        pm = np.concatenate([T, T.conj().swapaxes(-1, -2)]).reshape(2 * len(T), -1) / 2
        C = dC = None
        if T.shape[-1] == 2:
            C = np.einsum("cji,tij->tc", PAULI, T) / 2
            dC = (C[:, :3, None] * (1j * R[:, None, :])).reshape(len(R), 6)
        return _Compiled(R[:, 0].copy(), R[:, 1].copy(), T, pm, C, dC)

    def _compiled(self, p) -> _Compiled:
        return self._cached(tuple(p.items()))

    @staticmethod
    def _phases(c: _Compiled, kx, ky) -> np.ndarray:
        """e^{ik.R} for every term, shape (..., T)."""
        kx = np.asarray(kx, dtype=float)[..., None]
        ky = np.asarray(ky, dtype=float)[..., None]
        ph = 1j * (kx * c.Rx + ky * c.Ry)
        return np.exp(ph, out=ph)

    def matrix(self, p, kx, ky) -> np.ndarray:
        """H(k), shape (..., n, n): Herm(T e^{ik.R}) = (T e^{ik.R} + T^dagger e^{-ik.R}) / 2."""
        c = self._compiled(p)
        ph = self._phases(c, kx, ky)
        H = np.concatenate([ph, ph.conj()], axis=-1) @ c.pm
        return H.reshape(ph.shape[:-1] + c.T.shape[1:])

    def _sum(self, p, kx, ky, jac: bool = False) -> np.ndarray:
        """The 2-band components at k, or d(h1, h2, h3)/d(kx, ky) flattened."""
        c = self._compiled(p)
        return (self._phases(c, kx, ky) @ (c.dC if jac else c.C)).real

    def field(self, p, kx, ky) -> np.ndarray:
        return self._sum(p, kx, ky)[..., :3]

    def jac(self, p, kx, ky) -> np.ndarray:
        """dh/d(kx, ky), shape (..., 3, 2)."""
        J = self._sum(p, kx, ky, jac=True)
        return J.reshape(J.shape[:-1] + (3, 2))

    def jac12(self, p, kx, ky) -> np.ndarray:
        return self.jac(p, kx, ky)[..., :2, :]

    def gap_slope(self, p) -> float:
        """Upper bound 2 sum_R |R| w(T_R°) on |grad_k| of any band gap.

        Along a unit direction u the traceless part of H moves at rate
        Herm sum_R i (u.R) T_R° e^{ik.R}, with T° = T - tr(T)/n.  The norm of
        Herm A is at most the numerical radius w(A), and w is a norm that
        ignores phases, so that rate is at most sum_R |R| w(T_R°); by Weyl's
        inequality a gap moves at most twice as fast.  For 2 bands,
        w(c . sigma) is the largest singular value of [Re c, Im c].  For n > 2,
        w is bounded from above by the support lines of the field of values at
        64 angles: the largest eigenvalue of Herm(e^{i theta} T°) over those
        angles, divided by cos(pi/64).
        """
        Rx, Ry, T, _, C, _ = self._compiled(p)
        if C is not None:
            parts = np.stack([C[:, :3].real, C[:, :3].imag], axis=-1)
            w = np.linalg.svd(parts, compute_uv=False)[:, 0]
        else:
            n = T.shape[-1]
            A = T - np.trace(T, axis1=-2, axis2=-1)[:, None, None] / n * np.eye(n)
            A = np.exp(1j * np.pi * np.arange(64) / 32)[:, None, None, None] * A
            top = np.linalg.eigvalsh((A + A.conj().swapaxes(-1, -2)) / 2)[..., -1]
            w = top.max(axis=0) / math.cos(math.pi / 64)
        return float(2.0 * np.hypot(Rx, Ry) @ w)


def _pauli(rows) -> np.ndarray:
    """2x2 coefficients sum_c C[R, c] P_c from rows over (sigma_x, sigma_y, sigma_z, 1)."""
    return np.einsum("tc,cij->tij", np.asarray(rows, dtype=complex), PAULI)


def _fold(R, T) -> tuple[np.ndarray, np.ndarray]:
    """Terms with each -R folded into +R and equal R merged.

    Herm(T e^{-ik.R}) = Herm(T^dagger e^{ik.R}), so a term in the lower
    half-plane becomes its mirror with the adjoint coefficient; the table then
    costs one exponential per distinct +-R pair.
    """
    R = np.asarray(R, dtype=float).reshape(-1, 2)
    T = np.asarray(T, dtype=complex)
    flip = (R[:, 1] < 0) | ((R[:, 1] == 0) & (R[:, 0] < 0))
    R = np.where(flip[:, None], -R, R)
    T = np.where(flip[:, None, None], T.conj().swapaxes(-1, -2), T)
    key = np.round(R[:, 0], 9) + 1j * np.round(R[:, 1], 9)  # sorts as the rows (x, y) do
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    merged = np.zeros((len(first),) + T.shape[1:], dtype=complex)
    np.add.at(merged, group.ravel(), T)
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
_KAGOME_BONDS = ((0, 1), (0, 2), (1, 2))


def _honeycomb(p):
    """h1 + i h2 = t1 sum_j e^{ik.(a_j - a_1)} [+ t3 sum_j e^{ik.(c_j - a_1)}],
    h3 = m - 2 t2 sin(phi) sum_j sin(k.b_j), h0 = 2 t2 cos(phi) sum_j cos(k.b_j)."""
    t, s = p["t1"], 2 * p["t2"]
    b = [0, 0, 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])]
    rows = [[t, -1j * t, p["m"], 0], [t, -1j * t, 0, 0], [t, -1j * t, 0, 0], b, b, b]
    if "t3" in p:
        rows += [[p["t3"], -1j * p["t3"], 0, 0]] * 3
    return _HONEYCOMB_R[: len(rows)], _pauli(rows)


def _triangular(p):
    """h1 + i h2 = -t1 sum_j e^{ik.s_j w_j}; with the signs s'_j of the u_j,
    h3 = m - 2 t2 sin(phi) sum_j s'_j sin(k.u_j), h0 = 2 t2 cos(phi) sum s'_j cos(k.u_j)."""
    t, s = p["t1"], 2 * p["t2"]
    sin, cos = 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])
    u = [[0, 0, sg * sin, sg * cos] for sg in TRI_U_SIGNS]
    return _TRIANGULAR_R, _pauli([[-t, 1j * t, 0, 0]] * 3 + u + [[0, 0, p["m"], 0]])


def _kagome(p):
    """Sites 0-1, 0-2 and 1-2 hop across +-a_1, +-a_2 and +-a_3: H_ij = z cos(k.a_j)
    with z = -2 (t1 - i u1), conjugated on the 0-2 bond."""
    z = -2 * complex(p["t1"], -p["u1"])
    T = np.zeros((3, 3, 3), dtype=complex)
    for j, ((a, b), w) in enumerate(zip(_KAGOME_BONDS, (z, z.conjugate(), z))):
        T[j, a, b], T[j, b, a] = w, w.conjugate()
    return KAGOME_A, T


def _bhz(p):
    """h = (t1 sin kx, t1 sin ky, m - t1 cos kx - t1 cos ky)."""
    t = p["t1"]
    return _SQUARE_R, _pauli([[0, 0, p["m"], 0], [-1j * t, 0, -t, 0], [0, -1j * t, -t, 0]])


def _mb_dirac(p):
    """h = (sin kx, sin ky, M - B sin^2(kx/2) - B sin^2(ky/2))."""
    b = p["B"] / 2
    return _SQUARE_R, _pauli([[0, 0, p["M"] - p["B"], 0], [-1j, 0, b, 0], [0, -1j, b, 0]])


def _collapse(p):
    """The fixed smooth degree-one map -(sin kx, sin ky, cos kx + cos ky - 1)."""
    return _SQUARE_R, _pauli([[0, 0, 1, 0], [1j, 0, -1, 0], [0, 1j, -1, 0]])


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
    return np.concatenate(R), _pauli(rows)


# ---------------------------------------------------------------------------
# range rules and catalog
# ---------------------------------------------------------------------------


def _integer(p: dict, name: str) -> int:
    """Parameter ``name`` as an int: 2.0 is accepted, 2.5 refused rather than truncated."""
    if not float(p[name]).is_integer():
        raise ModelError(f"parameter {name} must be an integer, got {p[name]!r}")
    return int(p[name])


def _whole(value, name: str, positive: bool) -> int:
    """``value`` as an int, refused unless it is a positive (or a nonzero) integer:
    2.0 is accepted, while a bool, a string or 2.5 is refused rather than coerced."""
    whole = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (whole and float(value).is_integer() and value != 0 and (value > 0 or not positive)):
        kind = "a positive" if positive else "a nonzero"
        raise ModelError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _dilated(terms: Callable, ns: tuple) -> Callable:
    """R -> (n1 Rx, n2 Ry) on every term: the model at k -> (n1 kx, n2 ky).  Each of
    ``ns`` is an integer or the name of an integer parameter."""

    def scaled(p):
        R, T = terms(p)
        n = [_integer(p, x) if isinstance(x, str) else x for x in ns]
        return np.asarray(R, dtype=float) * n, T

    return scaled


def _hopping(terms: Callable) -> Callable:
    """R -> N R, N = p["N"], on the terms that hop between orbitals (off-diagonal
    T_R; for 2 bands, the (h1, h2) part): the hopping-only family."""

    def scaled(p):
        R, T = terms(p)
        hops = (T * (1 - np.eye(T.shape[-1]))).any(axis=(1, 2))
        return np.where(hops[:, None], _integer(p, "N") * R, R), T

    return scaled


def _rotated(terms: Callable, rot: np.ndarray) -> Callable:
    """h -> rot h for a rotation ``rot``: the Pauli rows of every T_R turn and the
    identity row stays.  This is T_R -> U T_R U^dagger with U the SU(2) lift of
    ``rot``, so the spectrum and ``gap_slope`` are unchanged."""

    def rotated(p):
        R, T = terms(p)
        c = np.einsum("cji,tij->tc", PAULI, np.asarray(T, dtype=complex)) / 2
        c[:, :3] = c[:, :3] @ rot.T
        return R, _pauli(c)

    return rotated


_ZONES = {"honeycomb": HONEYCOMB_ZONE, "triangular": TRIANGULAR_ZONE, "kagome": KAGOME_ZONE}
_HALDANE = {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "m": 0.0}
_HALDANE3NN = {"t1": 1.0, "t2": 0.5, "t3": 0.35, "phi": math.pi / 2, "m": 0.0}
_HALDANE_N = {**_HALDANE, "N": 2}
_BHZ = {"t1": 1.0, "m": -1.0}
_KAGOME = {"t1": 1.0, "u1": 1.0}
_POWER = {"alpha": 1.0, "beta": 1.0, "gamma1": 0.5, "gamma2": 0.25, "m0": 0.0, "d": 1}


def _model(name, terms, lattice, defaults, bands=2, **fields) -> BlochModel:
    zone = _ZONES.get(lattice, SQUARE_ZONE)
    return BlochModel(name, bands, lattice, dict(defaults), zone, HoppingTable(terms), **fields)


def _with_terms(model: BlochModel, terms: Callable, **changes) -> BlochModel:
    """The model on a new table of ``terms``, with the callbacks it derives reset:
    ``dataclasses.replace(model, table=...)`` alone would keep the old table's."""
    return dataclasses.replace(model, table=HoppingTable(terms), field=None, jac12=None, **changes)


def _haldane(name, defaults=_HALDANE_N, extra=None, terms=_honeycomb, **fields):
    geometry = {"a": HONEYCOMB_A, "b": HONEYCOMB_B, **(extra or {})}
    return _model(name, terms, "honeycomb", defaults, geometry=geometry, **fields)


def _triangular_model(name, terms=_triangular, defaults=_HALDANE_N, **fields):
    return _model(name, terms, "triangular", defaults, **fields)


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
    "honeycomb": quadring.triangular_admissible,
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
    N = _whole(N, "N", positive=False)
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
        terms = _dilated(model.table.terms, (N, N))
        return _with_terms(model, terms, name=f"{model.name}_scaled{N}", hopping_family=None)
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


def _folded(terms: Callable, N: int) -> Callable:
    """Term R moves cell s of the N x N super-cell to (s + R) mod N: T'_R = P_R (x) T_R
    with P_R that cell shift, and R unchanged.  The P_R commute and are diagonal in
    the cells' Fourier basis, with e^{-iv.R} on the shift v, so H'(k) is unitarily
    equivalent to the block-diagonal sum of H(k + v) over the N^2 shifts v."""
    cells = np.array(list(itertools.product(range(N), repeat=2)))

    def folded(p):
        R, T = terms(p)
        R = np.asarray(R, dtype=float).reshape(-1, 2)
        Ri = np.round(R).astype(int)
        if not np.array_equal(Ri, R):
            raise ModelError("fold_bands needs integer lattice vectors R")
        to = ((cells[None] + Ri[:, None]) % N) @ [N, 1]  # (T, N^2) target cell indices
        P = np.eye(N * N)[to].swapaxes(1, 2)  # P[t, to[t, s], s] = 1
        n = N * N * T.shape[-1]
        return R, np.einsum("tab,tij->taibj", P, T).reshape(len(R), n, n)

    return folded


def fold_bands(model: BlochModel, N: int) -> BlochModel:
    """Super-cell table model: its eigenvalues at k are the union over the N^2
    reciprocal shifts v of the original spectra at k + v (square zones only).

    The folded matrix is periodic on the folded zone up to conjugation by the
    cell phases e^{2 pi i s_x / N} and e^{2 pi i s_y / N}
    (``geometry["gauge_matrices"]``, with H(k + g) = S H(k) S^dagger)."""
    N = _whole(N, "N", positive=True)
    zone = model.zone
    if not (
        np.allclose(zone.g1, [2 * math.pi, 0]) and np.allclose(zone.g2, [0, 2 * math.pi])
    ):
        raise ModelError("fold_bands requires a square 2pi x 2pi zone")
    if N == 1:
        return model
    nb = model.bands * N * N
    phases = np.exp(2j * math.pi / N * np.array(list(itertools.product(range(N), repeat=2))))
    gauge = tuple(np.diag(np.repeat(phases[:, i], model.bands)) for i in (0, 1))
    return _with_terms(
        model,
        _folded(model.table.terms, N),
        name=f"{model.name}_folded{N}",
        bands=nb,
        zone=BrillouinZone(g1=zone.g1 / N, g2=zone.g2 / N),
        geometry={"gauge_matrices": gauge},
        periodicity="conjugate",
        hopping_family=None,
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


def _merge_degenerate(frac, degenerate, residual, tol) -> np.ndarray:
    """Indices of the zeros to keep, in their order.

    Newton converges only linearly at a singular Jacobian, so the seeds of one
    degenerate zero stop at scattered points that miss the seam-key grid.  Of
    the degenerate zeros within ``tol`` of each other on the torus (in
    fractional coordinates), the one of least residual stays.
    """
    keep = ~degenerate
    kept: list[int] = []
    for i in np.flatnonzero(degenerate)[np.argsort(residual[degenerate], kind="stable")]:
        d = frac[kept] - frac[i]
        d -= np.round(d)
        if not kept or np.hypot(d[:, 0], d[:, 1]).min() >= tol:
            kept.append(i)
    keep[kept] = True
    return np.flatnonzero(keep)


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
    are reported with ``degenerate=True`` rather than dropped, and degenerate
    zeros closer than half a seed spacing count as one.  The zeros come in the
    order of their seam keys (fractional coordinates on a 1e-6 grid).
    """
    if model.bands != 2:
        raise ModelError("pre_dirac_points requires a 2-band coefficient model")
    seed_density = _whole(seed_density, "seed_density", positive=True)
    p = model.params_with_defaults(params)
    zone = model.zone
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
        a, b, c, d = model.jac12(p, k[alive, 0], k[alive, 1]).reshape(-1, 4).T
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
    h = model.field(p, kred[:, 0], kred[:, 1])
    det = np.linalg.det(model.jac12(p, kred[:, 0], kred[:, 1]))
    degenerate = np.abs(det) < 1e-8 * scale**2
    keep = _merge_degenerate(frac, degenerate, np.hypot(h[:, 0], h[:, 1]), 0.5 / seed_density)
    return [
        PreDiracPoint(
            k=kred[i],
            frac=(float(frac[i, 0]), float(frac[i, 1])),
            jac_sign=0 if degenerate[i] else int(np.sign(det[i])),
            h3=float(h[i, 2]),
            degenerate=bool(degenerate[i]),
        )
        for i in keep
    ]
