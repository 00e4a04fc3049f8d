"""Tests for quadratic-ring arithmetic and lattice shell classification."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime

import chernkit
from chernkit import quadring
from chernkit.quadring import (
    CapacityError,
    PrimeBehavior,
    RingError,
    classify_prime,
    commensurate_distances,
    distance_report,
    honeycomb_admissible,
    honeycomb_site_kind,
    is_isolated_norm,
    isolated_norm_advisory,
    kagome_admissible,
    kagome_site_kind,
    make_ring,
    norm_of,
    shell_enumerate,
    square_admissible,
    triangular_admissible,
)

GAUSS = make_ring(1)
EISEN = make_ring(3)
RING_DS = [1, 2, 3, 5, 7, 11, 14, 23]


# ---------------------------------------------------------------------------
# ring construction
# ---------------------------------------------------------------------------


def test_gaussian_ring():
    assert not GAUSS.half_basis
    assert GAUSS.discriminant == -4
    assert GAUSS.ufd
    assert len(GAUSS.units()) == 4
    assert set(GAUSS.units()) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_eisenstein_ring():
    assert EISEN.half_basis
    assert EISEN.discriminant == -3
    assert EISEN.ufd
    assert len(EISEN.units()) == 6


def test_eisenstein_omega_is_primitive_cube_root():
    w = EISEN.omega
    assert abs(w - complex(-0.5, math.sqrt(3) / 2)) < 1e-15
    assert abs(w**3 - 1) < 1e-14


def test_non_ufd_ring():
    assert not make_ring(5).ufd


def test_squarefree_rejected():
    for bad in (4, 8, 9, 12, 18):
        with pytest.raises(RingError):
            make_ring(bad)
    with pytest.raises(RingError):
        make_ring(0)
    with pytest.raises(RingError):
        make_ring(-3)


# ---------------------------------------------------------------------------
# norms and elements
# ---------------------------------------------------------------------------


def test_norm_examples():
    assert norm_of(GAUSS, (1, 1)) == 2
    assert norm_of(EISEN, (2, 1)) == 3
    assert norm_of(make_ring(5), (1, 1)) == 6


def test_norm_matches_embedding():
    for d in RING_DS:
        ring = make_ring(d)
        for a, b in [(3, -2), (0, 1), (-4, 5), (7, 7)]:
            z = ring.embed(a, b)
            assert abs(ring.norm(a, b) - abs(z) ** 2) < 1e-9 * max(1, abs(z) ** 2)


def test_conjugation_embeds_as_complex_conjugate():
    for d in RING_DS:
        ring = make_ring(d)
        for a, b in [(2, 3), (-1, 4), (5, -2)]:
            ca, cb = ring.conj(a, b)
            assert abs(ring.embed(ca, cb) - ring.embed(a, b).conjugate()) < 1e-12


def test_element_multiplication_matches_embedding():
    ring = make_ring(7)
    x = ring.element(2, 3)
    y = ring.element(-1, 4)
    z = x * y
    assert abs(z.embed() - x.embed() * y.embed()) < 1e-9


def test_cross_ring_multiplication_rejected():
    with pytest.raises(RingError):
        GAUSS.element(1, 0) * EISEN.element(1, 0)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(RING_DS),
    pairs=st.lists(
        st.tuples(
            st.integers(-10**4, 10**4),
            st.integers(-10**4, 10**4),
            st.integers(-10**4, 10**4),
            st.integers(-10**4, 10**4),
        ),
        min_size=40,
        max_size=40,
    ),
)
def test_norm_multiplicative(d, pairs):
    ring = make_ring(d)
    for a, b, e, f in pairs:
        x, y = (a, b), (e, f)
        assert ring.norm(*ring.mul(x, y)) == ring.norm(*x) * ring.norm(*y)


# ---------------------------------------------------------------------------
# prime behavior
# ---------------------------------------------------------------------------


def test_factorint_matches_sympy():
    for n in range(1, 20001):
        assert quadring._factorint(n) == factorint(n), n
    for n in np.random.default_rng(18).integers(1, 10**8 + 1, size=3000):
        assert quadring._factorint(int(n)) == factorint(int(n)), n
    assert quadring._factorint(10**8) == {2: 8, 5: 8}
    assert quadring._factorint(99999989) == {99999989: 1}  # the largest prime below 10^8


def test_factorint_refusals():
    with pytest.raises(CapacityError):
        quadring._factorint(10**8 + 1)
    for bad in (2.0, True, "6"):
        with pytest.raises(RingError):
            quadring._factorint(bad)


@pytest.mark.parametrize("bad", [2.0, True, "6"])
def test_non_integers_are_refused(bad):
    for call in (
        lambda: shell_enumerate(GAUSS, bad),
        lambda: square_admissible(bad),
        lambda: kagome_admissible(bad),
        lambda: is_isolated_norm(GAUSS, bad),
        lambda: isolated_norm_advisory(make_ring(5), bad),
        lambda: make_ring(bad),
    ):
        with pytest.raises(RingError, match="must be an integer"):
            call()


def test_factoring_bound_is_a_capacity_error():
    big = 10**8 + 7  # prime
    for call in (
        lambda: make_ring(big),
        lambda: classify_prime(GAUSS, big),
        lambda: square_admissible(big),
        lambda: triangular_admissible(-big),
        lambda: is_isolated_norm(GAUSS, big),
    ):
        with pytest.raises(CapacityError):
            call()


def test_classify_prime_examples():
    assert classify_prime(GAUSS, 5) is PrimeBehavior.SPLIT
    assert classify_prime(GAUSS, 3) is PrimeBehavior.INERT
    assert classify_prime(EISEN, 3) is PrimeBehavior.RAMIFIED
    assert classify_prime(GAUSS, 2) is PrimeBehavior.RAMIFIED


def test_classify_prime_rejects_composites():
    with pytest.raises(RingError):
        classify_prime(GAUSS, 6)
    with pytest.raises(RingError):
        classify_prime(GAUSS, 1)


def _brute_behavior(ring, p):
    """Oracle: classify p by shell representation patterns alone."""
    shell_p = shell_enumerate(ring, p)
    if shell_p.represented:
        # p = N(z); ramified iff z is an associate of its conjugate
        units = ring.units()
        for a, b in shell_p.points:
            conj = ring.conj(a, b)
            if any(ring.mul((a, b), u) == conj for u in units):
                return PrimeBehavior.RAMIFIED
        return PrimeBehavior.SPLIT
    return PrimeBehavior.INERT


@pytest.mark.parametrize("d", RING_DS)
def test_prime_behavior_against_brute_force(d):
    ring = make_ring(d)
    for p in range(2, 200):
        if not isprime(p):
            continue
        want = _brute_behavior(ring, p)
        # the representation-based oracle is only complete for UFD rings:
        # in non-UFD rings a split prime need not be a norm
        if not ring.ufd and want is PrimeBehavior.INERT:
            continue
        assert classify_prime(ring, p) is want, (d, p)


@pytest.mark.parametrize("d", RING_DS)
def test_inert_primes_not_represented(d):
    # inert primes are never norms (in any ring, UFD or not)
    ring = make_ring(d)
    for p in range(2, 200):
        if isprime(p) and classify_prime(ring, p) is PrimeBehavior.INERT:
            assert not shell_enumerate(ring, p).represented, (d, p)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_inert_prime_squares_have_unit_shells(d):
    ring = make_ring(d)
    nunits = len(ring.units())
    for p in range(2, 50):
        if isprime(p) and classify_prime(ring, p) is PrimeBehavior.INERT:
            sh = shell_enumerate(ring, p * p)
            assert len(sh.points) == nunits, (d, p)


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------


def test_shell_examples():
    assert len(shell_enumerate(GAUSS, 1).points) == 4
    sh25 = shell_enumerate(GAUSS, 25)
    assert len(sh25.points) == 12
    assert not sh25.isolated
    sh4 = shell_enumerate(EISEN, 4)
    assert len(sh4.points) == 6
    assert sh4.isolated


def test_shell_norms_exact():
    for d in RING_DS:
        ring = make_ring(d)
        for n in (1, 2, 9, 25, 49):
            for pt in shell_enumerate(ring, n).points:
                assert ring.norm(*pt) == n


def test_shell_closure_under_units_and_conjugation():
    for d in RING_DS:
        ring = make_ring(d)
        units = ring.units()
        for n in (1, 4, 9, 12, 25, 36, 49):
            pts = set(shell_enumerate(ring, n).points)
            for pt in pts:
                assert ring.conj(*pt) in pts
                for u in units:
                    assert ring.mul(pt, u) in pts


def test_z_sqrt_minus_14_norm_225_counterexample():
    ring = make_ring(14)
    sh = shell_enumerate(ring, 225)
    pts = set(sh.points)
    for special in [(1, 4), (1, -4), (13, 2), (13, -2)]:
        assert special in pts
    assert not sh.isolated
    # the advisory sufficient condition must not claim isolation either
    assert not isolated_norm_advisory(ring, 225) or not sh.isolated


def test_empty_shell_flags():
    sh = shell_enumerate(GAUSS, 3)  # 3 is inert: unrepresented
    assert not sh.represented
    assert not sh.isolated
    assert sh.points == ()


def test_shell_distance():
    assert shell_enumerate(GAUSS, 25).distance == 5.0


def test_capacity_error():
    with pytest.raises(CapacityError):
        shell_enumerate(GAUSS, 10**8 + 1)


@pytest.mark.parametrize("distances", [commensurate_distances, distance_report])
def test_oversized_distance_limit_refused_before_enumerating(distances, monkeypatch):
    calls = []
    original = quadring.shell_enumerate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadring, "shell_enumerate", counting)
    with pytest.raises(CapacityError, match="norm 100020001 exceeds"):
        distances("square", 12000)
    monkeypatch.setattr(quadring, "ENUMERATION_BOUND", 100)
    with pytest.raises(CapacityError, match="norm 121 exceeds"):
        distances("square", 11)
    assert calls == []
    # the largest limit whose last shell is within the bound is not refused
    distances("square", 10)
    assert (100,) in [args[1:] for args in calls]


@pytest.mark.parametrize("distances", [commensurate_distances, distance_report])
@pytest.mark.parametrize("limit", [0, 0.5, -4])
def test_distance_limit_below_one_refused(distances, limit):
    with pytest.raises(RingError, match="limit must be >= 1"):
        distances("square", limit)


# ---------------------------------------------------------------------------
# isolated norms
# ---------------------------------------------------------------------------


def test_is_isolated_norm_examples():
    assert is_isolated_norm(GAUSS, 9)
    assert not is_isolated_norm(GAUSS, 25)
    assert not is_isolated_norm(EISEN, 49)
    assert len(shell_enumerate(EISEN, 49).points) == 18


def test_is_isolated_rejects_nonpositive():
    with pytest.raises(RingError):
        is_isolated_norm(GAUSS, 0)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11, 19])
def test_isolated_norm_oracle_equivalence(d):
    ring = make_ring(d)
    nunits = len(ring.units())
    for n in range(1, 401):
        sh = shell_enumerate(ring, n)
        if not sh.represented:
            continue
        assert is_isolated_norm(ring, n) == (len(sh.points) == nunits), (d, n)


@pytest.mark.parametrize("d", [5, 14, 23])
def test_advisory_is_sufficient(d):
    ring = make_ring(d)
    nunits = len(ring.units())
    for n in range(1, 200):
        if isolated_norm_advisory(ring, n):
            sh = shell_enumerate(ring, n)
            if sh.represented:
                assert len(sh.points) == nunits, (d, n)


# ---------------------------------------------------------------------------
# commensurate distances and admissibility
# ---------------------------------------------------------------------------


def test_square_distances_limit_12():
    assert commensurate_distances("square", 12) == [1, 2, 3, 4, 6, 7, 8, 9, 11, 12]


def test_square_distances_limit_1():
    assert commensurate_distances("square", 1) == [1]


def test_square_distances_match_brute_force():
    ring = GAUSS
    units = set(ring.units())
    expected = []
    for N in range(1, 21):
        pts = set(shell_enumerate(ring, N * N).points)
        if pts == {(N * a, N * b) for a, b in units}:
            expected.append(N)
    assert commensurate_distances("square", 20) == expected


def test_triangular_distances():
    got = commensurate_distances("triangular", 12)
    for n in (1, 2, 3, 4, 6):
        assert n in got
    # split-prime multiples must be excluded (7, 13 split; 7 | 7)
    assert 7 not in got
    # inert distances admitted by the oracle
    assert 5 in got and 10 in got and 11 in got


def test_rotated_flag_superset():
    plain = set(commensurate_distances("square", 30))
    rotated = set(commensurate_distances("square", 30, rotated=True))
    assert plain <= rotated


def test_distance_report_consistency():
    for lattice in ("square", "triangular"):
        for rec in distance_report(lattice, 15):
            if rec["admitted"]:
                assert rec["shell_size"] == rec["unit_count"]


@pytest.mark.parametrize(
    "admissible, m",
    [(square_admissible, 4), (triangular_admissible, 3)],
    ids=["square", "triangular"],
)
def test_square_admissible_rule(admissible, m):
    """A range is admissible iff no prime p = 1 (mod 4), resp. (mod 3), divides it."""
    for N in range(1, 40):
        assert admissible(N) == all(p % m != 1 for p in factorint(N))
        assert admissible(-N) == admissible(N)


def test_admissibility_examples():
    assert not honeycomb_admissible(2)
    assert honeycomb_admissible(-2)
    assert kagome_admissible(3)
    assert not kagome_admissible(2)
    assert honeycomb_admissible(1)
    assert honeycomb_admissible(4)
    assert not honeycomb_admissible(5)  # 5 = 2 mod 3
    assert honeycomb_admissible(-5)
    assert not triangular_admissible(7)
    assert not kagome_admissible(7)
    assert kagome_admissible(5)


def test_site_kinds():
    assert honeycomb_site_kind(1) == "B"
    assert honeycomb_site_kind(2) == "hole"
    assert honeycomb_site_kind(3) == "A"
    assert kagome_site_kind(1) == "B"
    assert kagome_site_kind(2) == "A"


def test_site_kind_matches_admissibility_parity():
    # kagome extension needs an opposite-species endpoint, i.e. odd N
    for N in range(1, 20):
        assert (kagome_site_kind(N) == "B") == (N % 2 == 1)


def test_sympy_is_imported_only_by_ring_arithmetic():
    """No runtime path loads sympy: not the engines, scans and fans, and not the
    ring arithmetic, which factors by trial division."""
    script = """
import sys
import chernkit as ck
ck.cross_validate(ck.builtin_model("haldane"))
ck.scan(ck.builtin_model("bhz_square"), [("m", -1.0, 1.0, 3)])
assert ck.verify_realization(ck.FanDiagram(k=3, labels=(0, 1, 2)))["passed"]
assert ck.make_ring(5).discriminant == -20
assert ck.classify_prime(ck.make_ring(1), 5) is ck.PrimeBehavior.SPLIT
assert ck.scale_model(ck.builtin_model("haldane"), 2).name == "haldane_scaled2"
assert ck.is_isolated_norm(ck.make_ring(1), 9)
assert "sympy" not in sys.modules, "sympy was imported"
"""
    src = str(Path(chernkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
