"""Arithmetic and shell classification in imaginary quadratic integer rings.

The ring of integers of Q(sqrt(-d)) is Z[omega], omega = (-t + i sqrt(-D))/2,
with discriminant D = t^2 - 4c and t = 1 when d = 3 (mod 4), else 0.  Elements
are integer pairs (a, b) meaning a + b*omega, of norm a^2 - t ab + c b^2: the
squared Euclidean length of the planar embedding, which makes shells of
constant norm the same thing as shells of lattice points at a fixed distance
-- the object used to decide which higher-neighbor hopping ranges of a
square/triangular/honeycomb/kagome lattice reproduce the nearest-neighbor
structure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

HEEGNER_UFD = frozenset({1, 2, 3, 7, 11, 19, 43, 67, 163})

#: elements with norm above this are refused by shell_enumerate
ENUMERATION_BOUND = 10**8


class RingError(ValueError):
    """Invalid ring construction or invalid element/argument."""


class CapacityError(RingError):
    """Requested enumeration exceeds the configured bound."""


class PrimeBehavior(Enum):
    INERT = "inert"
    SPLIT = "split"
    RAMIFIED = "ramified"


def _as_int(n, name: str = "n") -> int:
    """``n`` as an int; a bool, a float such as 2.0 or a string is refused."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise RingError(f"{name} must be an integer, got {n!r}")
    return int(n)


def _factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of 1 <= n <= ENUMERATION_BOUND, by trial division."""
    n = _as_int(n)
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"{n} exceeds the factoring bound {ENUMERATION_BOUND}")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorint(n).values())


@dataclass(frozen=True)
class QuadraticRing:
    """Integers of Q(sqrt(-d)) for square-free d >= 1."""

    d: int
    half_basis: bool
    discriminant: int
    ufd: bool

    @property
    def _form(self) -> tuple[int, int]:
        """(t, c) of the norm form a^2 - t ab + c b^2."""
        t = int(self.half_basis)
        return t, (t - self.discriminant) // 4

    @property
    def omega(self) -> complex:
        return complex(-self._form[0] / 2.0, math.sqrt(-self.discriminant) / 2.0)

    # -- exact integer arithmetic on (a, b) pairs --------------------------

    def norm(self, a: int, b: int) -> int:
        t, c = self._form
        return a * a - t * a * b + c * b * b

    def conj(self, a: int, b: int) -> tuple[int, int]:
        # conj(omega) = -t - omega
        return (a - self._form[0] * b, -b)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # omega^2 = -t omega - c
        a, b = x
        e, f = y
        t, c = self._form
        return (a * e - c * b * f, a * f + b * e - t * b * f)

    def embed(self, a: int, b: int) -> complex:
        return a + b * self.omega

    def element(self, a: int, b: int) -> "RingElement":
        return RingElement(self, int(a), int(b))

    def units(self) -> tuple[tuple[int, int], ...]:
        return shell_enumerate(self, 1).points


@dataclass(frozen=True)
class RingElement:
    ring: QuadraticRing
    a: int
    b: int

    def norm(self) -> int:
        return self.ring.norm(self.a, self.b)

    def conjugate(self) -> "RingElement":
        return RingElement(self.ring, *self.ring.conj(self.a, self.b))

    def __mul__(self, other: "RingElement") -> "RingElement":
        if other.ring.d != self.ring.d:
            raise RingError("elements belong to different rings")
        return RingElement(self.ring, *self.ring.mul((self.a, self.b), (other.a, other.b)))

    def embed(self) -> complex:
        return self.ring.embed(self.a, self.b)


@lru_cache(maxsize=None, typed=True)  # typed: make_ring(True) is refused, not read as d = 1
def make_ring(d: int) -> QuadraticRing:
    """Construct the ring of integers of Q(sqrt(-d))."""
    d = _as_int(d, "d")
    if d < 1:
        raise RingError(f"d must be a positive integer, got {d!r}")
    if not _squarefree(d):
        raise RingError(f"d must be square-free, got {d}")
    half = d % 4 == 3
    disc = -d if half else -4 * d
    return QuadraticRing(d=d, half_basis=half, discriminant=disc, ufd=d in HEEGNER_UFD)


def norm_of(ring: QuadraticRing, z: RingElement | tuple[int, int]) -> int:
    if isinstance(z, RingElement):
        if z.ring.d != ring.d:
            raise RingError("element belongs to a different ring")
        return z.norm()
    return ring.norm(*z)


def _kronecker_is_one(D: int, p: int) -> bool:
    """Whether the Kronecker symbol (D/p) is 1, for a prime p not dividing D."""
    if p == 2:
        return D % 8 == 1
    return pow(D, (p - 1) // 2, p) == 1  # Euler's criterion


def classify_prime(ring: QuadraticRing, p: int) -> PrimeBehavior:
    """Behavior of the rational prime p in the ring.

    p ramifies iff it divides the discriminant D; otherwise it splits iff the
    Kronecker symbol (D/p) is 1 and stays inert iff it is -1.
    """
    if not isinstance(p, int) or p < 2 or _factorint(p) != {p: 1}:
        raise RingError(f"p must be a rational prime, got {p!r}")
    if ring.discriminant % p == 0:
        return PrimeBehavior.RAMIFIED
    return PrimeBehavior.SPLIT if _kronecker_is_one(ring.discriminant, p) else PrimeBehavior.INERT


@dataclass(frozen=True)
class Shell:
    """All ring elements of a fixed norm n."""

    ring: QuadraticRing
    n: int
    points: tuple[tuple[int, int], ...]
    represented: bool
    isolated: bool

    @property
    def distance(self) -> float:
        return math.sqrt(self.n)


def _check_norm(n: int) -> int:
    n = _as_int(n)
    if n < 0:
        raise RingError("n must be non-negative")
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"norm {n} exceeds enumeration bound {ENUMERATION_BOUND}")
    return n


def shell_enumerate(ring: QuadraticRing, n: int) -> Shell:
    """Exhaustively list elements of norm n (positive-definite form bound)."""
    n = _check_norm(n)
    t, D = ring._form[0], ring.discriminant
    pts = []
    # 4 N(a + b omega) = (2a - t b)^2 - D b^2  =>  |b| <= sqrt(4n / -D)
    n4 = 4 * n
    bmax = math.isqrt(n4 // -D)
    for b in range(-bmax, bmax + 1):
        disc = n4 + D * b * b
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for a2 in {t * b + r, t * b - r}:
            if a2 % 2 == 0:
                pts.append((a2 // 2, b))
    points = tuple(sorted(pts))
    # the unit group has 4 elements for D = -4, 6 for D = -3 and 2 otherwise
    return Shell(ring=ring, n=n, points=points, represented=bool(points),
                 isolated=len(points) == {-4: 4, -3: 6}.get(D, 2))


def is_isolated_norm(ring: QuadraticRing, n: int) -> bool:
    """Whether every element of norm n is an associate of a single element.

    For UFD rings this is decided arithmetically by the advisory condition,
    which is exact there: every ramified prime is the norm of its prime
    element.  For non-UFD rings only brute-force enumeration is authoritative.
    """
    if _as_int(n) < 1:
        raise RingError("n must be positive")
    if not ring.ufd:
        return shell_enumerate(ring, n).isolated
    return isolated_norm_advisory(ring, n)


def isolated_norm_advisory(ring: QuadraticRing, n: int) -> bool:
    """Sufficient (not necessary) isolation condition for arbitrary rings.

    True when n factors into inert primes with even exponents and ramified
    primes that are themselves represented by the norm form.  A False result
    is inconclusive for non-UFD rings.
    """
    if _as_int(n) < 1:
        raise RingError("n must be positive")
    for p, e in _factorint(n).items():
        behavior = classify_prime(ring, p)
        if behavior is PrimeBehavior.SPLIT:
            return False
        if behavior is PrimeBehavior.INERT and e % 2 == 1:
            return False
        if behavior is PrimeBehavior.RAMIFIED and not shell_enumerate(ring, p).represented:
            return False
    return True


# -- lattice admissibility ------------------------------------------------

_LATTICE_RING = {"square": 1, "triangular": 3}


def _split_free(lattice: str, N: int) -> bool:
    """No prime that splits in the lattice's ring may divide the range N."""
    if _as_int(N, "N") == 0:
        return False
    ring = make_ring(_LATTICE_RING[lattice])
    return all(classify_prime(ring, p) is not PrimeBehavior.SPLIT for p in _factorint(abs(N)))


def square_admissible(N: int) -> bool:
    """No prime that splits in the Gaussian integers may divide the hopping range."""
    return _split_free("square", N)


def triangular_admissible(N: int) -> bool:
    """No prime that splits in the Eisenstein integers may divide the hopping range."""
    return _split_free("triangular", N)


def honeycomb_admissible(N: int) -> bool:
    """Ranges whose endpoint is an opposite-sublattice site of a honeycomb.

    Positive N must avoid N = 2 (mod 3) (those ranges end on a hexagon
    center); negative N is allowed exactly when -N = 2 (mod 3).
    """
    if N == 0:
        raise RingError("N must be nonzero")
    if not triangular_admissible(N):
        return False
    if N > 0:
        return N % 3 != 2
    return (-N) % 3 == 2


def kagome_admissible(N: int) -> bool:
    """Triangular criterion plus odd N (even ranges end on same-species sites)."""
    if N == 0:
        raise RingError("N must be nonzero")
    return triangular_admissible(N) and N % 2 != 0


def honeycomb_site_kind(N: int) -> str:
    """Species of the site at N * a1 along a nearest-neighbor direction.

    Decomposing N*a1 over the Bravais lattice spanned by a1-a2 and a1-a3
    gives a B-type site iff N = 1 (mod 3), an A-type site iff N = 0, and a
    hexagon center (no atom) iff N = 2.
    """
    return {0: "A", 1: "B", 2: "hole"}[N % 3]


def kagome_site_kind(N: int) -> str:
    """Species of the site at N * a1 on a kagome lattice (A at the origin)."""
    return "B" if N % 2 else "A"


def _shells(lattice: str, limit: float):
    """(N, size, unit count, whether it dilates the unit shell) of the norm-N^2 shells."""
    if limit < 1:
        raise RingError("limit must be >= 1")
    if lattice not in _LATTICE_RING:
        raise RingError(f"unknown lattice {lattice!r}; expected square or triangular")
    top = int(limit)
    _check_norm(min(top, math.isqrt(ENUMERATION_BOUND) + 1) ** 2)  # before any enumeration
    ring = make_ring(_LATTICE_RING[lattice])
    units = ring.units()
    for N in range(1, top + 1):
        pts = shell_enumerate(ring, N * N).points
        yield N, len(pts), len(units), set(pts) == {(N * a, N * b) for (a, b) in units}


def commensurate_distances(
    lattice: str, limit: float, rotated: bool = False
) -> list[int]:
    """Integer distances N <= limit whose shell replicates the unit shell.

    A distance qualifies when the norm-N^2 shell has exactly |units| points
    and is the N-fold dilation of the unit shell.  With ``rotated=True`` the
    rotated class (right point count, different orientation) is also admitted.
    """
    return [N for N, size, nunits, aligned in _shells(lattice, limit)
            if size == nunits and (aligned or rotated)]


def distance_report(lattice: str, limit: float) -> list[dict]:
    """Per-distance diagnostics: shell size, alignment, and the prime criterion."""
    return [
        {"N": N, "shell_size": size, "aligned": aligned, "unit_count": nunits,
         "nt_admissible": _split_free(lattice, N), "admitted": size == nunits and aligned}
        for N, size, nunits, aligned in _shells(lattice, limit)
    ]
