"""Momentum-space Bloch Hamiltonian families (the model zoo).

Every model is a :class:`BlochModel`: a named, parameterized Hermitian matrix
H(k) with its parameter schema, held as a :class:`HoppingTable` on a Brillouin
zone.  A terms function of the params returns integer lattice vectors n and
n x n matrices T_n and, for a table whose orbitals do not sit at the cell
origin, the orbital sites as integer numerators s over one denominator q;
element (a, b) of T_n hops by n + (s_a - s_b) / q.  2-band terms write each
T_n as Pauli rows through :func:`_pauli`.  The table gives ``assemble`` the
whole matrix in one pass, ``gap_slope`` (a bound on how fast any band gap can
change with k, which lets a phase scan certify a cell's gap from a grid) and,
for 2 bands, the field h with H = h . sigma + (tr H / 2) 1 and its exact
Jacobians.  The sites alone fix the gauge S_i = diag e^{2 pi i s_i / q}, with
H(k + g_i) = S_i H(k) S_i^dagger, and so ``BlochModel.periodicity``: "exact"
for a table without sites (the honeycomb fields carry a common phase, which
moves no zero, gap or Chern number), "conjugate" for kagome and folded tables,
whose consumers evaluate at the actual k rather than wrap indices.

Range families and probes are rules on the terms: :func:`_dilated` (n and the
sites scaled: ``scale_model(..., "all")``, the ``_n2`` builtins,
``spin_ssphere``, ``torus_wind``), :func:`_hopping` (n -> N n on the
inter-orbital terms: ``haldane_n``, ``triangular_n``), :func:`_folded` (the
super-cell of ``fold_bands``) and :func:`_rotated` (h -> R h, the ray engine's
probes).  A new model is a terms function plus one ``_CATALOG`` entry, or
``BlochModel(name, bands, lattice, defaults, HoppingTable(terms, zone))``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
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

    def kpoint(self, s, t) -> np.ndarray:
        """k = s g1 + t g2 for fractional coordinates s, t (broadcasting)."""
        s = np.asarray(s, dtype=float)[..., None]
        t = np.asarray(t, dtype=float)[..., None]
        return s * self.g1 + t * self.g2

    def frac(self, k) -> np.ndarray:
        """Fractional coordinates of k, shape (2,) or (n, 2) (inverse of :meth:`kpoint`)."""
        return np.asarray(k, dtype=float) @ self.basis.T / (2 * math.pi)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Rows a1, a2: the lattice vectors, with a_i . g_j = 2 pi delta_ij."""
        (g1x, g1y), (g2x, g2y) = self.g1, self.g2
        return 2 * math.pi * np.array([[g2y, -g2x], [-g1y, g1x]]) / self.area


SQUARE_ZONE = BrillouinZone(g1=(2 * math.pi, 0.0), g2=(0.0, 2 * math.pi))


@dataclass(frozen=True)
class BlochModel:
    """A parameterized Bloch Hamiltonian family over a 2D momentum zone."""

    name: str
    bands: int
    lattice: str
    defaults: dict
    #: the hopping table the model is built from, on its Brillouin zone
    table: HoppingTable
    #: 2-band Pauli coefficient map (params, kx, ky) -> (..., 3) and its analytic
    #: d(h1,h2)/d(kx,ky), shape (..., 2, 2): None means the table's, and both stay
    #: None for n > 2 bands.  They are fields only so that a wrapped callback
    #: (a call counter) can be swapped in; a rule that swaps the table resets them
    #: through :func:`_with_terms`.
    field: Callable | None = None
    jac12: Callable | None = None
    #: name of the builtin implementing the hopping-only range-N family
    hopping_family: str | None = None

    def __post_init__(self):
        if self.bands == 2:
            object.__setattr__(self, "field", self.field or self.table.field)
            object.__setattr__(self, "jac12", self.jac12 or self.table.jac12)

    @property
    def zone(self) -> BrillouinZone:
        return self.table.zone

    @property
    def periodicity(self) -> str:
        """"exact" where H(k + g) = H(k) at the defaults, "conjugate" where only
        H(k + g_i) = S_i H(k) S_i^dagger with S_i the table's :meth:`~HoppingTable.gauge`."""
        exact = all(np.array_equal(S, np.eye(self.bands)) for S in self.table.gauge(self.defaults))
        return "exact" if exact else "conjugate"

    def params_with_defaults(self, params: dict | None) -> dict:
        p = dict(self.defaults)
        if params:
            unknown = set(params) - set(p)
            if unknown:
                raise ModelError(f"unknown parameters for {self.name}: {sorted(unknown)}")
            p.update(params)
        for name, val in p.items():
            if val is None or (isinstance(val, (float, np.floating)) and not math.isfinite(val)):
                raise ModelError(f"parameter {name} of {self.name} is missing or not finite")
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


def eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of a stack of Hermitian
    matrices, as ``np.linalg.eigh`` returns them; closed form for 2x2.

    With a, c the diagonal, b the conjugate of the entry below it (the
    triangle LAPACK reads), d = (a - c) / 2 and r = hypot(d, |b|), the
    eigenvalues are (a + c) / 2 -+ r.  The lower eigenvector is the larger of
    the null vectors of the first and of the second row of H - lambda_-,
    (b, -(d + r)) and (d - r, conj b), whose free entry is -(|d| + r) in
    either case, so no cancellation occurs; the upper one is its orthogonal
    complement.  Each point takes its own phase,
    which gauge-invariant consumers (the Berry plaquettes) may.  Where r = 0
    both candidates vanish and the vectors are the unit columns.  Other sizes
    go to ``np.linalg.eigh``.
    """
    H = np.asarray(H)
    if H.shape[-1] != 2:
        return np.linalg.eigh(H)
    a, c, b = H[..., 0, 0].real, H[..., 1, 1].real, H[..., 1, 0].conj()
    d, mid, babs = (a - c) / 2, (a + c) / 2, np.abs(b)
    r = np.hypot(d, babs)
    s = np.abs(d) + r
    flip = d < 0
    zero = s == 0  # r = 0: the unit columns, with no division by zero
    norm = np.hypot(babs, s) + zero
    u0 = (np.where(flip, -s, b) + zero) / norm
    u1 = np.where(flip, b.conj(), -s) / norm
    vecs = np.stack([u0, -u1.conj(), u1, u0.conj()], axis=-1)
    return np.stack([mid - r, mid + r], axis=-1), vecs.reshape(H.shape)


def spectrum(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (stack of) Hermitian matrices: those of
    :func:`eigh`, so a 2x2 stack takes the closed form and larger matrices
    ``np.linalg.eigvalsh``."""
    H = np.asarray(H)
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    return eigh(H)[0]


def _check_gap_band(model: BlochModel, band: int) -> int:
    """A gap lies above ``band`` only below the top band."""
    return _int_in(band, "band", 0, model.bands - 2)


def gap(model: BlochModel, params: dict | None, k, band: int = 0) -> float:
    """Gap above the given band at k.

    A 2-band model's gap is 2 |h|, the 2r of :func:`eigh`'s closed form read
    from the field without assembling H; larger models take it from
    :func:`spectrum`, that is from ``np.linalg.eigvalsh``.
    """
    band = _check_gap_band(model, band)
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
    #: the displacements in the lattice basis times q, integers, shape (T, 2)
    n: np.ndarray
    q: int
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
    """A Bloch Hamiltonian as a finite Fourier series H(k) = Herm sum T_n e^{ik.R}.

    ``terms(p)`` returns integer vectors n, shape (T, 2), in ``zone.basis``,
    coefficients T_n, shape (T, n, n), and optionally the sites ``(s, q)``:
    integer numerators s, shape (n, 2), over q.  Element (a, b) of T_n hops by
    R = (n + (s_a - s_b) / q) . (a1, a2); Herm A = (A + A^dagger) / 2.  The
    compiled terms are cached for the last few params.  For 2 bands the compile
    step also projects each T_R on the Pauli matrices and the identity,
    c = tr(P_c T_R) / 2, so that component c of the field is
    Re sum_R c e^{ik.R} and its Jacobian is Re sum_R i R c e^{ik.R}.
    """

    def __init__(self, terms: Callable, zone: BrillouinZone):
        self.terms = terms
        self.zone = zone
        self._cached = functools.lru_cache(maxsize=4)(self._compile)

    def _compile(self, key: tuple) -> _Compiled:
        terms = self.terms(dict(key))
        d, T = _fold(*terms)
        q = _sites(T, terms[2:])[1]
        R = d @ self.zone.basis
        pm = np.concatenate([T, T.conj().swapaxes(-1, -2)]).reshape(2 * len(T), -1) / 2
        C = dC = None
        if T.shape[-1] == 2:
            C = np.einsum("cji,tij->tc", PAULI, T) / 2
            dC = (C[:, :3, None] * (1j * R[:, None, :])).reshape(len(R), 6)
        n = np.rint(q * d).astype(int)
        return _Compiled(R[:, 0].copy(), R[:, 1].copy(), n, q, T, pm, C, dC)

    def _compiled(self, p) -> _Compiled:
        return self._cached(tuple(p.items()))

    def gauge(self, p) -> tuple[np.ndarray, np.ndarray]:
        """S_1, S_2 with H(k + g_i) = S_i H(k) S_i^dagger: diag e^{2 pi i s_a,i / q}
        over the orbitals a, the identity for a table without sites."""
        _, T, *sites = self.terms(p)
        s, q = _sites(T, sites)
        phase = np.exp(2j * math.pi * (np.asarray(s) % q) / q)
        return np.diag(phase[:, 0]), np.diag(phase[:, 1])

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
        c = self._compiled(p)
        Rx, Ry, T, C = c.Rx, c.Ry, c.T, c.C
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


def _sites(T, sites: list) -> tuple[np.ndarray, int]:
    """The sites ``(s, q)`` a terms function returned, else all at the origin."""
    return sites[0] if sites else (np.zeros((np.shape(T)[-1], 2), dtype=int), 1)


def _fold(n, T, sites=None) -> tuple[np.ndarray, np.ndarray]:
    """Terms keyed by their displacement d in the lattice basis (on the exact
    integer q d), each -d folded into +d and equal d merged.

    With sites, each nonzero element (a, b) of T_n is a term of its own at
    d = n + (s_a - s_b) / q.  Herm(T e^{-ik.R}) = Herm(T^dagger e^{ik.R}), so a
    term in the lower half-plane becomes its mirror with the adjoint
    coefficient; the table then costs one exponential per distinct +-d pair.
    """
    d = np.asarray(n).reshape(-1, 2)
    T = np.asarray(T, dtype=complex)
    q = 1
    if sites is not None:
        s, q = np.asarray(sites[0]), sites[1]
        t, a, b = np.nonzero(T)
        d = q * d[t] + s[a] - s[b]
        E = np.zeros((len(t),) + T.shape[1:], dtype=complex)
        E[np.arange(len(t)), a, b] = T[t, a, b]
        T = E
    if d.dtype.kind != "i":  # a Cartesian R or a fractional site is refused, not truncated
        raise ModelError(f"lattice vectors n and sites (s, q) must be integers, got {d.dtype}")
    flip = (d[:, 1] < 0) | ((d[:, 1] == 0) & (d[:, 0] < 0))
    d = np.where(flip[:, None], -d, d)
    T = np.where(flip[:, None, None], T.conj().swapaxes(-1, -2), T)
    width = 2 * np.abs(d[:, 0]).max(initial=0) + 1  # d[:, 1] >= 0 now: one key per d
    _, first, group = np.unique(d[:, 1] * width + d[:, 0], return_index=True, return_inverse=True)
    merged = np.zeros((len(first),) + T.shape[1:], dtype=complex)
    np.add.at(merged, group.ravel(), T)
    return d[first] / q, merged


# ---------------------------------------------------------------------------
# lattice geometry and base tables
# ---------------------------------------------------------------------------

# honeycomb lattice a1 = (sqrt3/2, 3/2), a2 = (-sqrt3/2, 3/2); its table has no sites
HONEYCOMB_ZONE = BrillouinZone(
    g1=(2 * math.pi / SQRT3, 2 * math.pi / 3), g2=(-2 * math.pi / SQRT3, 2 * math.pi / 3)
)
K_POINT = np.array([4 * math.pi / (3 * SQRT3), 0.0])

# triangular lattice a1 = (1, 0), a2 = (1/2, sqrt3/2); the sign pattern of the
# first and second neighbors makes the Chern number exactly 3x the honeycomb
# value at matched parameters (the only pattern, up to conjugacy, that does this)
TRI_U_SIGNS = np.array([1.0, -1.0, 1.0])
TRIANGULAR_ZONE = BrillouinZone(
    g1=(2 * math.pi, -2 * math.pi / SQRT3), g2=(0.0, 4 * math.pi / SQRT3)
)

# kagome lattice a1 = (2, 0), a2 = (1, sqrt3): sites 0, a1/2 and a2/2
KAGOME_ZONE = BrillouinZone(g1=(math.pi, -math.pi / SQRT3), g2=(0.0, 2 * math.pi / SQRT3))
_KAGOME_SITES = np.array([[0, 0], [1, 0], [0, 1]])
#: bonds 0-1, 0-2 and 1-2 at n = 0 and at n = s_b - s_a
_KAGOME_N = np.array([[0, 0], [1, 0], [0, 0], [0, 1], [0, 0], [-1, 1]])

# honeycomb: the A -> B bonds less the first, the second neighbors, the third neighbors
# less the first bond; triangular: the signed first and the second neighbors, the origin
_HONEYCOMB_N = np.array(
    [[0, 0], [0, -1], [-1, 0], [1, -1], [0, 1], [-1, 0], [-1, -1], [-1, 1], [1, -1]]
)
_TRIANGULAR_N = np.array([[1, 0], [0, -1], [-1, 1], [1, 1], [-1, 2], [-2, 1], [0, 0]])
_SQUARE_N = np.array([[0, 0], [1, 0], [0, 1]])


def _honeycomb(p):
    """h1 + i h2 = t1 sum_j e^{ik.(a_j - a_1)} [+ t3 sum_j e^{ik.(c_j - a_1)}],
    h3 = m - 2 t2 sin(phi) sum_j sin(k.b_j), h0 = 2 t2 cos(phi) sum_j cos(k.b_j),
    with a_j the three A -> B bonds, b_j the second and c_j the third neighbors."""
    t, s = p["t1"], 2 * p["t2"]
    b = [0, 0, 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])]
    rows = [[t, -1j * t, p["m"], 0], [t, -1j * t, 0, 0], [t, -1j * t, 0, 0], b, b, b]
    if "t3" in p:
        rows += [[p["t3"], -1j * p["t3"], 0, 0]] * 3
    return _HONEYCOMB_N[: len(rows)], _pauli(rows)


def _triangular(p):
    """h1 + i h2 = -t1 sum_j e^{ik.s_j w_j}; with the signs s'_j of the u_j,
    h3 = m - 2 t2 sin(phi) sum_j s'_j sin(k.u_j), h0 = 2 t2 cos(phi) sum s'_j cos(k.u_j)."""
    t, s = p["t1"], 2 * p["t2"]
    sin, cos = 1j * s * math.sin(p["phi"]), s * math.cos(p["phi"])
    u = [[0, 0, sg * sin, sg * cos] for sg in TRI_U_SIGNS]
    return _TRIANGULAR_N, _pauli([[-t, 1j * t, 0, 0]] * 3 + u + [[0, 0, p["m"], 0]])


def _kagome(p):
    """Sites a and b of bonds 0-1, 0-2 and 1-2 hop to both neighbors at
    +-(s_b - s_a) / 2: H_ab = z cos(k.(s_b - s_a) / 2) with z = -2 (t1 - i u1),
    conjugated on the 0-2 bond."""
    z = -2 * complex(p["t1"], -p["u1"])
    T = np.zeros((6, 3, 3), dtype=complex)
    T[0:2, 0, 1], T[2:4, 0, 2], T[4:6, 1, 2] = z, z.conjugate(), z
    return _KAGOME_N, T, (_KAGOME_SITES, 2)


def _bhz(p):
    """h = (t1 sin kx, t1 sin ky, m - t1 cos kx - t1 cos ky)."""
    t = p["t1"]
    return _SQUARE_N, _pauli([[0, 0, p["m"], 0], [-1j * t, 0, -t, 0], [0, -1j * t, -t, 0]])


def _mb_dirac(p):
    """h = (sin kx, sin ky, M - B sin^2(kx/2) - B sin^2(ky/2))."""
    b = p["B"] / 2
    return _SQUARE_N, _pauli([[0, 0, p["M"] - p["B"], 0], [-1j, 0, b, 0], [0, -1j, b, 0]])


def _collapse(p):
    """The fixed smooth degree-one map -(sin kx, sin ky, cos kx + cos ky - 1)."""
    return _SQUARE_N, _pauli([[0, 0, 1, 0], [1j, 0, -1, 0], [0, 1j, -1, 0]])


def _square_power(p):
    """h1 + i h2 = (alpha cos kx + i beta cos ky)^d for integer d >= 0, expanded with
    cos^n x = 2^-n sum_l C(n, l) e^{i(n - 2l)x}; h3 = m0 + gamma1 sin kx + gamma2 sin ky."""
    d = _integer(p, "d")
    if d < 0:
        raise ModelError(f"square_power needs an integer power d >= 0, got {p['d']}")
    n = [_SQUARE_N]
    rows = [[0, 0, p["m0"], 0], [0, 0, -1j * p["gamma1"], 0], [0, 0, -1j * p["gamma2"], 0]]
    for j in range(d + 1):
        c = math.comb(d, j) * p["alpha"] ** (d - j) * (1j * p["beta"]) ** j / 2**d
        for l, m in itertools.product(range(d - j + 1), range(j + 1)):
            w = c * math.comb(d - j, l) * math.comb(j, m)
            n.append([[d - j - 2 * l, j - 2 * m]])
            rows.append([w, -1j * w, 0, 0])
    return np.concatenate(n), _pauli(rows)


# ---------------------------------------------------------------------------
# range rules and catalog
# ---------------------------------------------------------------------------


def _integer(p: dict, name: str) -> int:
    """Parameter ``name`` as an int: 2.0 is accepted, 2.5 refused rather than truncated."""
    if not float(p[name]).is_integer():
        raise ModelError(f"parameter {name} must be an integer, got {p[name]!r}")
    return int(p[name])


def _is_int(value) -> bool:
    """2.0 counts as an integer, while a bool, a string or 2.5 does not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and float(value).is_integer()


def _whole(value, name: str, positive: bool) -> int:
    """``value`` as an int, refused unless it is a positive (or a nonzero) integer
    rather than coerced."""
    if not (_is_int(value) and value != 0 and (value > 0 or not positive)):
        kind = "a positive" if positive else "a nonzero"
        raise ModelError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _int_in(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi] (no upper end when hi is None), refused
    rather than truncated or coerced."""
    if not (_is_int(value) and lo <= value and (hi is None or value <= hi)):
        span = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ModelError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _dilated(terms: Callable, ms: tuple) -> Callable:
    """n -> (m1 n1, m2 n2) on every term and site: the model at fractional coordinates
    (m1 s, m2 t).  Each of ``ms`` is an integer or the name of an integer parameter."""

    def scaled(p):
        n, T, *sites = terms(p)
        m = [_integer(p, x) if isinstance(x, str) else x for x in ms]
        return (np.asarray(n) * m, T, *((np.asarray(s) * m, q) for s, q in sites))

    return scaled


def _hopping(terms: Callable) -> Callable:
    """n -> N n, N = p["N"], on the terms that hop between orbitals (off-diagonal
    T_n; for 2 bands, the (h1, h2) part): the hopping-only family."""

    def scaled(p):
        n, T = terms(p)
        hops = (T * (1 - np.eye(T.shape[-1]))).any(axis=(1, 2))
        return np.where(hops[:, None], _integer(p, "N") * np.asarray(n), n), T

    return scaled


def _rotated(terms: Callable, rot: np.ndarray) -> Callable:
    """h -> rot h for a rotation ``rot``: the Pauli rows of every T_n turn and the
    identity row stays.  This is T_n -> U T_n U^dagger with U the SU(2) lift of
    ``rot``, so the spectrum and ``gap_slope`` are unchanged."""

    def rotated(p):
        n, T = terms(p)
        c = np.einsum("cji,tij->tc", PAULI, np.asarray(T, dtype=complex)) / 2
        c[:, :3] = c[:, :3] @ rot.T
        return n, _pauli(c)

    return rotated


_ZONES = {"honeycomb": HONEYCOMB_ZONE, "triangular": TRIANGULAR_ZONE, "kagome": KAGOME_ZONE}
_HALDANE = {"t1": 1.0, "t2": 0.5, "phi": math.pi / 2, "m": 0.0}
_HALDANE3NN = {"t1": 1.0, "t2": 0.5, "t3": 0.35, "phi": math.pi / 2, "m": 0.0}
_HALDANE_N = {**_HALDANE, "N": 2}
_BHZ = {"t1": 1.0, "m": -1.0}
_KAGOME = {"t1": 1.0, "u1": 1.0}
_POWER = {"alpha": 1.0, "beta": 1.0, "gamma1": 0.5, "gamma2": 0.25, "m0": 0.0, "d": 1}


def _model(name, terms, lattice, defaults, bands=2, **fields) -> BlochModel:
    table = HoppingTable(terms, _ZONES.get(lattice, SQUARE_ZONE))
    return BlochModel(name, bands, lattice, dict(defaults), table, **fields)


def _with_terms(model: BlochModel, terms: Callable, zone=None, **changes) -> BlochModel:
    """The model on a new table of ``terms`` on ``zone`` (by default the model's), with
    the callbacks it derives reset: ``dataclasses.replace`` alone would keep the old."""
    table = HoppingTable(terms, model.zone if zone is None else zone)
    return dataclasses.replace(model, table=table, field=None, jac12=None, **changes)


_NN = ("N", "N")

#: name -> terms, lattice, defaults and any further BlochModel fields
_CATALOG: dict[str, tuple] = {
    "haldane": (_honeycomb, "honeycomb", _HALDANE, {"hopping_family": "haldane_n"}),
    "haldane3nn": (_honeycomb, "honeycomb", _HALDANE3NN),
    "haldane_n2": (_dilated(_honeycomb, _NN), "honeycomb", _HALDANE_N),
    "haldane_n": (_hopping(_honeycomb), "honeycomb", _HALDANE_N),
    "bhz_square": (_bhz, "square", _BHZ),
    "square_n2": (_dilated(_bhz, _NN), "square", {**_BHZ, "N": 2}),
    "square_power": (_square_power, "square", _POWER),
    "triangular": (_triangular, "triangular", _HALDANE, {"hopping_family": "triangular_n"}),
    "triangular_n2": (_dilated(_triangular, _NN), "triangular", _HALDANE_N),
    "triangular_n": (_hopping(_triangular), "triangular", _HALDANE_N),
    "kagome": (_kagome, "kagome", _KAGOME, {"bands": 3}),
    "kagome_n2": (_dilated(_kagome, _NN), "kagome", {**_KAGOME, "N": 3}, {"bands": 3}),
    "mb_dirac": (_mb_dirac, "square", {"M": 1.0, "B": 1.0}),
    "spin_ssphere": (_dilated(_collapse, ("d", 1)), "square", {"d": 1}),
    "torus_wind": (_dilated(_collapse, ("d1", "d2")), "square", {"d1": 2, "d2": 3}),
}


def catalog() -> list[str]:
    return sorted(_CATALOG)


def builtin_model(name: str) -> BlochModel:
    try:
        terms, lattice, defaults, *fields = _CATALOG[name]
    except KeyError:
        raise ModelError(f"unknown model {name!r}; known: {', '.join(catalog())}") from None
    return _model(name, terms, lattice, defaults, **dict(*fields))


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
    """The N x N super-cell: orbital a of cell c sits at (c + s_a / q) / N in the
    super-cell's coordinates, and a term n takes cell c to cell (c + n) mod N of
    the super-cell (c + n) // N.  Each term splits into one per cell, every
    element keeping its displacement, so H'(k) is unitarily equivalent to the
    block-diagonal sum of H(k + v) over the N^2 shifts v = (c1 g1 + c2 g2) / N."""
    cells = np.array(list(itertools.product(range(N), repeat=2)))

    def folded(p):
        n, T, *sites = terms(p)
        s, q = _sites(T, sites)
        to = np.asarray(n).reshape(-1, 1, 2) + cells  # (T, N^2, 2): where cell c lands
        t, c = np.indices(to.shape[:2])
        nb, size = T.shape[-1], N * N * T.shape[-1]
        F = np.zeros(to.shape[:2] + (N * N, nb, N * N, nb), dtype=complex)
        F[t, c, (to % N) @ [N, 1], :, c, :] = T[t]
        super_sites = (q * cells[:, None] + np.asarray(s)).reshape(-1, 2)
        return (to // N).reshape(-1, 2), F.reshape(-1, size, size), (super_sites, q * N)

    return folded


def fold_bands(model: BlochModel, N: int) -> BlochModel:
    """Super-cell table model on any lattice: its eigenvalues at k are the union
    over the N^2 reciprocal shifts v of the original spectra at k + v.  The cells
    become sites, so its ``table.gauge`` carries the cell phases e^{2 pi i c_i / N}."""
    N = _whole(N, "N", positive=True)
    if N == 1:
        return model
    zone = BrillouinZone(g1=model.zone.g1 / N, g2=model.zone.g2 / N)
    name, bands = f"{model.name}_folded{N}", model.bands * N * N
    terms = _folded(model.table.terms, N)
    return _with_terms(model, terms, zone, name=name, bands=bands, hopping_family=None)


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


#: the Cayley map w = e^{i theta} (1 + ix) / (1 - ix) takes the real x line onto the
#: unit circle less -e^{i theta}; any theta whose -e^{i theta} is no zero's w will do
_CAYLEY_ANGLE = 2.399963229728653
#: the polished copies of one zero of multiplicity m scatter by about u^(1/m), with
#: u the unit roundoff: degenerate zeros within twice this count as one up to m = 5
_MULTIPLE_RADIUS = 5e-4


def _torus_distance(a, b) -> np.ndarray:
    """Distance of fractional coordinates a and b, shape (..., 2), on the unit
    torus: each coordinate difference is taken to its nearest integer."""
    d = np.asarray(a, dtype=float) - b
    d -= np.round(d)
    return np.hypot(d[..., 0], d[..., 1])


def _hop_terms(c: _Compiled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of h1 and h2, as their n and (c1, c2), and their reach: the
    largest |n1| and |n2|, so that z^r1 w^r2 h_c has degrees 2 r in z and w."""
    hop = (c.C[:, :2] != 0).any(axis=1)
    return c.n[hop], c.C[hop, :2], np.abs(c.n[hop]).max(axis=0, initial=0)


def _torus_roots(c: _Compiled) -> np.ndarray:
    """Fractional coordinates (s, t), shape (M, 2), near every isolated common
    zero of h1 and h2.

    With z = e^{2 pi i s / q} and w = e^{2 pi i t / q}, P_c = z^r1 w^r2 h_c is a
    polynomial, r the reach of the h1 and h2 terms.  Their Sylvester matrix in
    z, M(w) = sum_k S_k w^k of size 4 r1, is singular where they share a root z.
    The Cayley map turns (1 - ix)^(2 r2) M(w) into a matrix polynomial in x with
    leading coefficient +-M(-e^{i theta}), invertible unless h1 and h2 share a
    factor.  Its block companion has size 8 r1 r2, Bernstein's bound on the
    number of common zeros, and its eigenvalues near the real line are the w of
    the zeros on the torus.  The null space of M(w) is spanned by the vectors
    (1, z, z^2, ...) of the common roots there, so their z are the eigenvalues
    of the shift from each row of a null basis to the next.  The coordinate of
    larger reach is the hidden w, which keeps M small.
    """
    n, C, reach = _hop_terms(c)
    flip = reach[0] > reach[1]
    n = n[:, ::-1] if flip else n
    r1, r2 = sorted(reach)
    if r1 == 0:  # (h1, h2) is constant along a zone direction: no isolated zero
        return np.zeros((0, 2))
    N, D = 4 * r1, 2 * r2
    A = np.zeros((2, 2 * r1 + 1, D + 1), dtype=complex)
    np.add.at(A, (slice(None), r1 + n[:, 0], r2 + n[:, 1]), C.T / 2)
    np.add.at(A, (slice(None), r1 - n[:, 0], r2 - n[:, 1]), C.T.conj() / 2)
    S = np.zeros((D + 1, N, N), dtype=complex)
    for row in range(N):  # rows z^i P1, then z^i P2, over the columns z^0 .. z^(N-1)
        i = row % (2 * r1)
        S[:, row, i : i + 2 * r1 + 1] = A[row // (2 * r1)].T

    # Q_j, the coefficient of x^j in (1 - ix)^D M(w(x)), which is
    # sum_k S_k e^{ik theta} (1 + ix)^k (1 - ix)^(D - k)
    B = [functools.reduce(np.convolve, [[1, 1j]] * k + [[1, -1j]] * (D - k), [1])
         for k in range(D + 1)]
    Q = np.einsum("kj,kab->jab", np.exp(1j * _CAYLEY_ANGLE * np.arange(D + 1))[:, None] * B, S)
    sv = np.linalg.svd(Q[D], compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:  # det M(w) vanishes for every w
        raise ModelError("h1 and h2 share a factor: their zeros need not be isolated points")
    companion = np.eye(N * D, N * D, N, dtype=complex)
    companion[-N:] = -np.linalg.solve(Q[D], np.concatenate(Q[:D], axis=1))
    x = np.linalg.eigvals(companion)
    # |w| = |1 + ix| / |1 - ix| is 1 - 2 Im x / (1 + |x|^2) to first order: keep the w
    # within about 2e-3 of the unit circle, as a near-double root may leave it by ~1e-8
    x = x[np.abs(x.imag) < 1e-3 * (1 + np.abs(x) ** 2)].real
    phi = _CAYLEY_ANGLE + 2 * np.arctan(x)  # w = e^{i phi}
    M = np.einsum("kab,mk->mab", S, np.exp(1j * phi[:, None] * np.arange(D + 1)))
    _, sv, vh = np.linalg.svd(M)
    # roots whose w agree to ~1e-6 share one null space and are found together
    nullity = np.maximum((sv < 1e-6 * sv[:, :1]).sum(axis=1), 1)
    roots = [np.zeros((0, 2))]
    for m in np.unique(nullity):
        V = vh[nullity == m, N - m :].conj().swapaxes(-1, -2)  # a basis of the null space
        H = V[:, :-1].conj().swapaxes(-1, -2)
        z = np.linalg.eigvals(np.linalg.solve(H @ V[:, :-1], H @ V[:, 1:])).ravel()
        st = np.column_stack([np.angle(z), np.repeat(phi[nullity == m], m)])
        roots.append(st[np.abs(np.abs(z) - 1) < 1e-3])
    st = np.concatenate(roots) * c.q / (2 * math.pi)
    return st[:, ::-1] if flip else st


def pre_dirac_points(model: BlochModel, params: dict | None = None) -> list[PreDiracPoint]:
    """All isolated zeros of (h1, h2) on the zone: the common roots of two Laurent
    polynomials on the unit torus (:func:`_torus_roots`), Newton-polished.

    Newton runs on all roots at once, one batched field and Jacobian call per
    step with the 2x2 systems solved in closed form, and each root keeps its
    best iterate once a step no longer halves |(h1, h2)|; below 1e-10 it is a
    zero.  Each zero carries sgn det d(h1,h2)/d(kx,ky), or ``degenerate=True``
    where that det is below 1e-8 of the square of a bound on |h1| and |h2|.
    Copies count once: a simple zero lies within its last Newton step of the
    true one, and degenerate zeros within 2 ``_MULTIPLE_RADIUS`` of each other,
    or of a simple one, are one.  A table whose h1 and h2 share a factor raises
    :class:`ModelError`.  The zeros come in the order of their seam keys
    (fractional coordinates on a 1e-6 grid).
    """
    if model.bands != 2:
        raise ModelError("pre_dirac_points requires a 2-band coefficient model")
    p = model.params_with_defaults(params)
    zone = model.zone
    compiled = model.table._compiled(p)
    st = _torus_roots(compiled)
    k = zone.kpoint(st[:, 0], st[:, 1])
    polished, best, radius = k.copy(), np.full(len(k), np.inf), np.zeros(len(k))
    alive = np.arange(len(k))
    for _ in range(60):
        f = model.field(p, k[alive, 0], k[alive, 1])[:, :2]
        res = np.hypot(f[:, 0], f[:, 1])
        better = res < 0.5 * best[alive]
        alive, f = alive[better], f[better]
        best[alive], polished[alive] = res[better], k[alive]
        if not alive.size:
            break
        a, b, c, d = model.jac12(p, k[alive, 0], k[alive, 1]).reshape(-1, 4).T
        det = a * d - b * c
        regular = det != 0  # where np.linalg.solve would raise: the root stops here
        step = np.stack([d * f[:, 0] - b * f[:, 1], a * f[:, 1] - c * f[:, 0]], axis=-1)
        alive, step = alive[regular], step[regular] / det[regular, None]
        radius[alive] = np.linalg.norm(zone.frac(step), axis=-1)
        norm = np.hypot(step[:, 0], step[:, 1])[:, None]
        k[alive] -= np.divide(2.0 * step, norm, out=step, where=norm > 2.0)
    zero = best < 1e-10
    if not zero.any():
        return []

    frac = zone.frac(polished[zero]) % 1.0
    frac[frac > 1.0 - 1e-12] = 0.0  # canonical representative at the seam
    kred = zone.kpoint(frac[:, 0], frac[:, 1])
    h = model.field(p, kred[:, 0], kred[:, 1])
    det = np.linalg.det(model.jac12(p, kred[:, 0], kred[:, 1]))
    scale = max(np.abs(compiled.C[:, :2]).sum(axis=0).max(), 1.0)
    degenerate = np.abs(det) < 1e-8 * scale**2
    radius = np.where(degenerate, _MULTIPLE_RADIUS, radius[zero])[:, None]
    # degenerate zeros first, then by residual: the first of each set of copies stays;
    # 1e-12 absorbs the rounding of fractional coordinates
    order = np.lexsort((np.hypot(h[:, 0], h[:, 1]), ~degenerate))
    apart = _torus_distance(frac[order, None], frac[order])
    same = apart <= radius[order] + radius[order].T + 1e-12
    keep = order[~np.triu(same, 1).any(axis=0)]
    keys = np.round(frac[keep] * 1e6).astype(int) % 1000000
    keep = keep[np.lexsort((keys[:, 1], keys[:, 0]))]
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
