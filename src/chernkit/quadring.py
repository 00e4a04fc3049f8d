"""Arithmetic and shell classification in imaginary quadratic integer rings.

The ring of integers of Q(sqrt(-d)) is Z[omega] with omega = (-1 + i sqrt(d))/2
when d = 3 (mod 4) ("half basis") and omega = i sqrt(d) otherwise.  Elements are
stored as integer pairs (a, b) meaning a + b*omega.  The norm is the squared
Euclidean length of the planar embedding, which makes shells of constant norm
the same thing as shells of lattice points at a fixed distance -- the object
used to decide which higher-neighbor hopping ranges of a square/triangular/
honeycomb/kagome lattice reproduce the nearest-neighbor structure.
"""

from __future__ import annotations

import math
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


def _factorint(n: int) -> dict[int, int]:
    # imported on first use: only ring arithmetic needs sympy, and it is slow to import
    from sympy import factorint
    return factorint(n)


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
    def omega(self) -> complex:
        if self.half_basis:
            return complex(-0.5, math.sqrt(self.d) / 2.0)
        return complex(0.0, math.sqrt(self.d))

    # -- exact integer arithmetic on (a, b) pairs --------------------------

    def norm(self, a: int, b: int) -> int:
        if self.half_basis:
            return a * a - a * b + b * b * (1 + self.d) // 4
        return a * a + self.d * b * b

    def conj(self, a: int, b: int) -> tuple[int, int]:
        # conj(omega) = -1 - omega in the half basis, -omega otherwise
        if self.half_basis:
            return (a - b, -b)
        return (a, -b)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        e, f = y
        if self.half_basis:
            # omega^2 = -omega - (1+d)/4
            c = (1 + self.d) // 4
            return (a * e - b * f * c, a * f + b * e - b * f)
        return (a * e - self.d * b * f, a * f + b * e)

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


@lru_cache(maxsize=None)
def make_ring(d: int) -> QuadraticRing:
    """Construct the ring of integers of Q(sqrt(-d))."""
    if not isinstance(d, int) or d < 1:
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


def classify_prime(ring: QuadraticRing, p: int) -> PrimeBehavior:
    """Behavior of the rational prime p in the ring.

    Odd p: ramified iff p | d, otherwise split/inert by the Legendre symbol
    of -d mod p.  p = 2: ramified iff 2 | discriminant, otherwise split for
    d = 7 (mod 8) and inert for d = 3 (mod 8).
    """
    if not isinstance(p, int) or p < 2 or _factorint(p) != {p: 1}:
        raise RingError(f"p must be a rational prime, got {p!r}")
    d = ring.d
    if p == 2:
        if ring.discriminant % 2 == 0:
            return PrimeBehavior.RAMIFIED
        return PrimeBehavior.SPLIT if d % 8 == 7 else PrimeBehavior.INERT
    if d % p == 0:
        return PrimeBehavior.RAMIFIED
    ls = pow(-d % p, (p - 1) // 2, p)  # Euler's criterion
    return PrimeBehavior.SPLIT if ls == 1 else PrimeBehavior.INERT


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


def shell_enumerate(ring: QuadraticRing, n: int) -> Shell:
    """Exhaustively list elements of norm n (positive-definite form bound)."""
    if n < 0:
        raise RingError("n must be non-negative")
    if n > ENUMERATION_BOUND:
        raise CapacityError(f"norm {n} exceeds enumeration bound {ENUMERATION_BOUND}")
    d = ring.d
    pts: list[tuple[int, int]] = []
    if ring.half_basis:
        # N(a+b*omega) = (a - b/2)^2 + d b^2/4  =>  |b| <= sqrt(4n/d)
        bmax = math.isqrt(4 * n // d)
        c = (1 + d) // 4
        for b in range(-bmax, bmax + 1):
            # a^2 - a b + (c b^2 - n) = 0
            disc = b * b - 4 * (c * b * b - n)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for a2 in {b + r, b - r}:
                if a2 % 2 == 0:
                    pts.append((a2 // 2, b))
    else:
        bmax = math.isqrt(n // d)
        for b in range(-bmax, bmax + 1):
            a2 = n - d * b * b
            r = math.isqrt(a2)
            if r * r != a2:
                continue
            pts.append((r, b))
            if r != 0:
                pts.append((-r, b))
    points = tuple(sorted(set(pts)))
    represented = bool(points)
    if n == 1:
        nunits = len(points)
    else:
        nunits = len(shell_enumerate(ring, 1).points)
    isolated = represented and len(points) == nunits
    return Shell(ring=ring, n=n, points=points, represented=represented, isolated=isolated)


def is_isolated_norm(ring: QuadraticRing, n: int) -> bool:
    """Whether every element of norm n is an associate of a single element.

    For UFD rings this is decided arithmetically: n may contain no split prime,
    and inert primes only to even powers (ramified primes are unrestricted).
    For non-UFD rings only brute-force enumeration is authoritative.
    """
    if n < 1:
        raise RingError("n must be positive")
    if not ring.ufd:
        return shell_enumerate(ring, n).isolated
    for p, e in _factorint(n).items():
        behavior = classify_prime(ring, p)
        if behavior is PrimeBehavior.SPLIT:
            return False
        if behavior is PrimeBehavior.INERT and e % 2 == 1:
            return False
    return True


def isolated_norm_advisory(ring: QuadraticRing, n: int) -> bool:
    """Sufficient (not necessary) isolation condition for arbitrary rings.

    True when n factors into inert primes with even exponents and ramified
    primes that are themselves represented by the norm form.  A False result
    is inconclusive for non-UFD rings.
    """
    if n < 1:
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


def square_admissible(N: int) -> bool:
    """No split prime (p = 1 mod 4) may divide the hopping range."""
    if N == 0:
        return False
    return all(p % 4 != 1 for p in _factorint(abs(N)))


def triangular_admissible(N: int) -> bool:
    """No split prime (p = 1 mod 3) may divide the hopping range."""
    if N == 0:
        return False
    return all(p % 3 != 1 for p in _factorint(abs(N)))


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


def _shell_record(ring: QuadraticRing, units: tuple, N: int) -> dict:
    sh = shell_enumerate(ring, N * N)
    dilated = {(N * a, N * b) for (a, b) in units}
    return {
        "N": N,
        "shell_size": len(sh.points),
        "aligned": set(sh.points) == dilated,
        "unit_count": len(units),
    }


def commensurate_distances(
    lattice: str, limit: float, rotated: bool = False
) -> list[int]:
    """Integer distances N <= limit whose shell replicates the unit shell.

    A distance qualifies when the norm-N^2 shell has exactly |units| points
    and is the N-fold dilation of the unit shell.  With ``rotated=True`` the
    rotated class (right point count, different orientation) is also admitted.
    """
    if limit < 1:
        raise RingError("limit must be >= 1")
    if lattice not in _LATTICE_RING:
        raise RingError(f"unknown lattice {lattice!r}; expected square or triangular")
    ring = make_ring(_LATTICE_RING[lattice])
    units = ring.units()
    out = []
    for N in range(1, int(limit) + 1):
        rec = _shell_record(ring, units, N)
        if rec["shell_size"] != rec["unit_count"]:
            continue
        if rec["aligned"] or rotated:
            out.append(N)
    return out


def distance_report(lattice: str, limit: float) -> list[dict]:
    """Per-distance diagnostics: shell size, alignment, and the prime criterion."""
    if lattice not in _LATTICE_RING:
        raise RingError(f"unknown lattice {lattice!r}; expected square or triangular")
    ring = make_ring(_LATTICE_RING[lattice])
    units = ring.units()
    nt = square_admissible if lattice == "square" else triangular_admissible
    report = []
    for N in range(1, int(limit) + 1):
        rec = _shell_record(ring, units, N)
        rec["nt_admissible"] = nt(N)
        rec["admitted"] = rec["shell_size"] == rec["unit_count"] and rec["aligned"]
        report.append(rec)
    return report
