"""Tests for phase-diagram scans, wall families, rose curves, and fans."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chernkit
from chernkit import phasediag
from chernkit.models import (
    ModelError,
    assemble,
    builtin_model,
    catalog,
    fold_bands,
    gap,
    spectrum,
)
from chernkit.invariants import DegenerateFamilyError, chern_berry_lattice
from chernkit.phasediag import (
    DEGENERATE,
    _covering_radius,
    FanDiagram,
    WallFamily,
    critical_points,
    dirac_count,
    fan_family,
    locate_transition,
    minimum_gap,
    rose_curve,
    scan,
    suspension,
    verify_realization,
    wall_family,
    wall_zeros,
)

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


def _runs(labels):
    out = []
    for lab in labels:
        if out and out[-1][0] == lab:
            out[-1][1] += 1
        else:
            out.append([lab, 1])
    return [(a, b) for a, b in out]


# ---------------------------------------------------------------------------
# minimum gap
# ---------------------------------------------------------------------------


def test_minimum_gap_haldane():
    h = builtin_model("haldane")
    g, loc = minimum_gap(h, {"m": 3.0 * SQRT3 * 0.5})  # gap closes at K
    assert g < 1e-7
    g2, _ = minimum_gap(h, {"m": 0.0})
    assert g2 > 1.0


def _nelder_mead_min_gap(model, p, band, kgrid=32):
    """Reference: grid minimum of the gap above ``band``, polished by Nelder-Mead
    in fractional coordinates."""
    from scipy import optimize

    frac = np.arange(kgrid) / kgrid
    S, T = np.meshgrid(frac, frac, indexing="ij")
    vals = spectrum(assemble(model, p, model.zone.kpoint(S, T)))
    gaps = vals[..., band + 1] - vals[..., band]
    idx = np.unravel_index(np.argmin(gaps), gaps.shape)
    res = optimize.minimize(
        lambda x: gap(model, p, model.zone.kpoint(x[0], x[1]), band),
        np.array([S[idx], T[idx]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12},
    )
    return min(float(gaps[idx]), float(res.fun))


def test_minimum_gap_matches_nelder_mead_or_lower():
    """On jittered params of every catalog model and band, the pattern search
    ends within 1e-9 of a Nelder-Mead polish of the same grid minimum, or lower."""
    rng = np.random.default_rng(5)
    models = [builtin_model(name) for name in catalog()]
    models.append(fold_bands(builtin_model("bhz_square"), 2))
    for model in models:
        p = {
            k: v * rng.uniform(0.8, 1.2) if isinstance(v, float) else v
            for k, v in model.defaults.items()
        }
        for band in range(model.bands - 1):
            got, loc = minimum_gap(model, p, band=band)
            want = _nelder_mead_min_gap(model, p, band)
            assert got <= want + 1e-9, (model.name, band, got, want)
            assert got == pytest.approx(gap(model, p, loc, band), abs=1e-12)


def test_minimum_gap_location_at_dirac_point():
    b = builtin_model("bhz_square")
    g, loc = minimum_gap(b, {"m": 2.0})
    assert g < 1e-7
    # gap closes at the zone center
    frac = np.array(loc) / TWO_PI % 1.0
    frac[frac > 0.5] -= 1.0
    assert np.allclose(frac, [0.0, 0.0], atol=1e-4)
    g2, loc2 = minimum_gap(b, {"m": -2.0})
    assert g2 < 1e-7
    # gap closes at the zone corner (pi, pi)
    frac2 = np.array(loc2) / TWO_PI % 1.0
    assert np.allclose(frac2, [0.5, 0.5], atol=1e-4)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_bhz_1d_scan_phase_sequence():
    b = builtin_model("bhz_square")
    pd = scan(b, [("m", -3.0, 3.0, 121)], grid=32, kgrid=24)
    labels = [c.chern for c in pd.cells]
    assert _runs(labels) == [
        (0, 20),
        (DEGENERATE, 1),
        (-1, 39),
        (DEGENERATE, 1),
        (1, 39),
        (DEGENERATE, 1),
        (0, 20),
    ]
    assert not pd.errors


def test_haldane_2d_scan_lobes():
    h = builtin_model("haldane")
    pd = scan(
        h,
        [("phi", -math.pi, math.pi, 9), ("m", -4.0, 4.0, 9)],
        grid=32,
        kgrid=24,
        workers=4,
    )
    labels = pd.labels()
    assert labels.shape == (9, 9)
    crit = 3.0 * SQRT3 * 0.5  # phase boundary |m| = 3 sqrt(3) t2 |sin phi|
    phis = np.linspace(-math.pi, math.pi, 9)
    ms = np.linspace(-4.0, 4.0, 9)
    for i, phi in enumerate(phis):
        for j, m in enumerate(ms):
            want_nontrivial = abs(m) < crit * abs(math.sin(phi)) - 1e-9
            got = labels[i, j]
            if got == DEGENERATE:
                continue
            if want_nontrivial:
                assert got == int(np.sign(math.sin(phi))), (phi, m)
            else:
                assert got == 0, (phi, m)


def test_cell_at_rejects_bad_index():
    """On a 3x4 scan an index past an axis or of the wrong length raises."""
    axes = (("a", 0.0, 1.0, 3), ("b", 0.0, 1.0, 4))
    cells = tuple(
        phasediag.Cell(ix, {}, 0, 1.0, (0.0, 0.0)) for ix in np.ndindex(3, 4)
    )
    pd = phasediag.PhaseDiagram(axes=axes, cells=cells, boundary=())
    assert all(pd.cell_at(*ix).index == ix for ix in np.ndindex(3, 4))
    for bad in ((0, 5), (3, 0), (1,), (0, 0, 0)):
        with pytest.raises(ValueError):
            pd.cell_at(*bad)


def test_scan_cell_lookup_and_boundary():
    h = builtin_model("haldane")
    pd = scan(h, [("m", 0.0, 4.0, 9)], grid=32, kgrid=24)
    assert pd.cell_at(0).chern == 1
    assert pd.cell_at(8).chern == 0
    # every adjacent differing pair of integer labels is a boundary edge
    labels = [c.chern for c in pd.cells]
    for (i,), (j,) in pd.boundary:
        assert labels[i] != labels[j]
    changes = [
        i
        for i in range(8)
        if isinstance(labels[i], int)
        and isinstance(labels[i + 1], int)
        and labels[i] != labels[i + 1]
    ]
    assert len(pd.boundary) == len(changes)


def test_scan_rejects_bad_axes():
    h = builtin_model("haldane")
    with pytest.raises(ModelError):
        scan(h, [("mass", 0.0, 1.0, 4)])
    with pytest.raises(ModelError):
        scan(h, [("m", 0.0, 1.0, 4)] * 3)
    with pytest.raises(ModelError):
        scan(h, [("m", 0.0, 1.0, 1)])


def test_scan_refuses_fractional_resolution_and_nan_threshold():
    m = builtin_model("bhz_square")
    with pytest.raises(ModelError, match="resolution must be a positive integer"):
        scan(m, [("m", -1.0, 1.0, 2.5)])
    for threshold in (float("nan"), float("inf"), -1e-6):
        with pytest.raises(ModelError, match="degeneracy_threshold"):
            scan(m, [("m", -1.0, 1.0, 3)], degeneracy_threshold=threshold)


@pytest.mark.parametrize(
    "options", [{"grid": 2}, {"grid": 40.5}, {"kgrid": 0}, {"kgrid": 16.5}, {"band": 0.5}]
)
def test_scan_refuses_bad_grids_before_any_cell(options, monkeypatch):
    """A bad grid, kgrid or band is one ModelError up front, not a scan of
    error cells with a DEGENERATE label among them."""
    ran = []
    monkeypatch.setattr(phasediag, "chern_berry_lattice", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(phasediag, "minimum_gap", lambda *a, **k: ran.append(a))
    with pytest.raises(ModelError, match="must be an integer|must be a positive integer"):
        scan(builtin_model("bhz_square"), [("m", -1.0, 1.0, 3)], **options)
    assert ran == []


def test_minimum_gap_refuses_empty_kgrid():
    with pytest.raises(ModelError, match="kgrid must be a positive integer"):
        minimum_gap(builtin_model("bhz_square"), kgrid=0)


def test_scan_computes_the_covering_radius_once(monkeypatch):
    calls = []
    radius = phasediag._covering_radius
    monkeypatch.setattr(
        phasediag, "_covering_radius", lambda *a: calls.append(a) or radius(*a)
    )
    pd = scan(builtin_model("haldane"), [("m", 0.0, 0.5, 3), ("phi", 1.0, 2.0, 2)])
    assert all(c.certified for c in pd.cells)
    assert len(calls) == 1


def test_kagome_scan_flags_degeneracies():
    kg = builtin_model("kagome")
    pd = scan(kg, [("u1", -2.0, 2.0, 5)], grid=32, kgrid=24)
    labels = [c.chern for c in pd.cells]
    assert labels[2] == DEGENERATE  # u1 = 0 collapses the spectrum
    assert all(isinstance(v, int) for i, v in enumerate(labels) if i != 2)


# ---------------------------------------------------------------------------
# certified cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bhz_square", "haldane", "triangular", "kagome"])
@pytest.mark.parametrize("grid", [7, 40])
def test_covering_radius_reaches_every_k(name, grid):
    zone = builtin_model(name).zone
    delta = _covering_radius(zone, grid)
    frac = np.arange(grid + 1) / grid
    nodes = zone.kpoint(*np.meshgrid(frac, frac, indexing="ij")).reshape(-1, 2)
    ks = zone.kpoint(*np.random.default_rng(7).uniform(0, 1, (2, 2000)))
    nearest = np.linalg.norm(ks[:, None, :] - nodes[None], axis=-1).min(axis=1)
    assert nearest.max() <= delta
    assert nearest.max() > 0.8 * delta  # the radius is not loose


@pytest.mark.parametrize(
    "name, axes",
    [
        ("haldane", [("phi", -math.pi, math.pi, 5), ("m", -4.0, 4.0, 5)]),
        ("kagome", [("u1", -2.5, 2.5, 11)]),
    ],
)
def test_certified_gap_brackets_refined_minimum(name, axes):
    model = builtin_model(name)
    pd = scan(model, axes)
    certified = [c for c in pd.cells if c.certified]
    assert certified and len(certified) < len(pd.cells)
    delta = _covering_radius(model.zone, 40)
    for c in certified:
        slope = model.table.gap_slope(model.params_with_defaults(c.params))
        refined, _ = minimum_gap(model, c.params, kgrid=64)
        assert 1e-6 <= c.min_gap - slope * delta <= refined <= c.min_gap + 1e-9, c.params
    for c in pd.cells:
        if not c.certified and c.chern != DEGENERATE:
            assert c.min_gap == minimum_gap(model, c.params)[0]


def test_scan_refuses_fractional_power():
    pd = scan(builtin_model("square_power"), [("d", 0.0, 3.0, 7)])
    assert [c.params["d"] for c in pd.cells if c.error] == [0.5, 1.5, 2.5]
    assert all("must be an integer" in c.error for c in pd.cells if c.error)
    assert all(isinstance(c.chern, int) for c in pd.cells[::2])


def test_band_outside_gap_range_raises_model_error():
    with pytest.raises(ModelError):
        scan(builtin_model("bhz_square"), [("m", -1.0, 1.0, 3)], band=1)
    with pytest.raises(ModelError):
        locate_transition(builtin_model("kagome"), "u1", 1.0, 2.5, band=2)
    with pytest.raises(ModelError):
        minimum_gap(builtin_model("haldane"), band=-1)


# ---------------------------------------------------------------------------
# transition location
# ---------------------------------------------------------------------------


def test_locate_transition_haldane():
    h = builtin_model("haldane")
    x = locate_transition(h, "m", 2.0, 3.5)
    assert abs(x - 3.0 * SQRT3 * 0.5) < 1e-8


def test_locate_transition_haldane_t2_one():
    h = builtin_model("haldane")
    x = locate_transition(h, "m", 4.0, 6.0, params={"t2": 1.0})
    assert abs(x - 3.0 * SQRT3) < 1e-8


def test_locate_transition_bhz():
    b = builtin_model("bhz_square")
    for lo, hi, want in [(-3.0, -1.0, -2.0), (-1.0, 1.0, 0.0), (1.0, 3.0, 2.0)]:
        x = locate_transition(b, "m", lo, hi)
        assert abs(x - want) < 1e-8, (lo, hi)


def test_locate_transition_solves_pre_dirac_twice(monkeypatch):
    """The zero curves are traced from the pre-Dirac points at the two ends
    of the bracket, one solve each."""
    calls = []
    original = phasediag.pre_dirac_points

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(phasediag, "pre_dirac_points", counting)
    b = builtin_model("bhz_square")
    for lo, hi, want in [(-0.73, 1.31, 0.0), (1.1, 3.3, 2.0), (-2.9, -1.3, -2.0)]:
        calls.clear()
        x = locate_transition(b, "m", lo, hi)
        assert abs(x - want) < 1e-12, (lo, hi)
        assert len(calls) <= 2, (lo, hi)


def test_locate_transition_returns_the_smallest_closing():
    """haldane3nn at the default t3 closes at m = 1.4316 (three new Dirac
    points) before the K point closes at 3 sqrt(3)/2."""
    h = builtin_model("haldane3nn")
    assert abs(locate_transition(h, "m", 1.0, 3.0) - 1.431593014419171) < 1e-9
    assert abs(locate_transition(h, "m", 2.0, 3.0) - 3.0 * SQRT3 / 2) < 1e-12


def test_locate_transition_closing_at_bracket_end():
    b = builtin_model("bhz_square")
    assert locate_transition(b, "m", 0.0, 1.0) == 0.0
    assert locate_transition(b, "m", -1.0, 0.0) == 0.0


def test_locate_transition_degenerate_zeros():
    """square_power at d = 2 touches at double zeros of (h1, h2)."""
    x = locate_transition(builtin_model("square_power"), "m0", -0.3, 0.2, params={"d": 2})
    assert abs(x + 0.25) < 1e-9


def test_locate_transition_kagome_three_band():
    """The three brackets of acceptance check 07, to the stated 1e-9."""
    kg = builtin_model("kagome")
    for lo, hi, want in [(-2.5, -1.0, -SQRT3), (-0.5, 0.5, 0.0), (1.0, 2.5, SQRT3)]:
        x = locate_transition(kg, "u1", lo, hi)
        assert abs(x - want) < 1e-9, (lo, hi, x)


def test_locate_transition_requires_sign_change():
    h = builtin_model("haldane")
    with pytest.raises(ModelError):
        locate_transition(h, "m", 0.0, 1.0)


def _berry_jump(model, axis, lo, hi, params=None, grid=120):
    p = model.params_with_defaults(params)
    c = [chern_berry_lattice(model, {**p, axis: x}, grid=grid).value for x in (lo, hi)]
    return c[1] - c[0]


@pytest.mark.parametrize(
    "name, axis, lo, hi, params, want, charges",
    [
        ("haldane", "m", 2.0, 3.0, None, [3.0 * SQRT3 / 2], [1]),
        ("bhz_square", "m", -1.0, 1.0, None, [0.0, 0.0], [-1, -1]),
        ("mb_dirac", "M", -0.5, 0.5, None, [0.0], [1]),
        ("mb_dirac", "M", 0.5, 1.5, None, [1.0, 1.0], [-1, -1]),
        ("haldane3nn", "t3", 0.0, 1.0, {"m": 0.0}, [1 / 3] * 3, [1, 1, 1]),
    ],
)
def test_critical_points_closed_forms(name, axis, lo, hi, params, want, charges):
    """Closing values, charges, and Delta C = -sum q against Berry at the ends."""
    model = builtin_model(name)
    zeros = critical_points(model, axis, lo, hi, params)
    assert [z.charge for z in zeros] == charges
    assert np.allclose([z.param for z in zeros], want, rtol=0, atol=1e-9)
    p = model.params_with_defaults(params)
    for z in zeros:
        assert np.linalg.norm(model.field({**p, axis: z.param}, *z.k)) < 1e-9
    assert _berry_jump(model, axis, lo, hi, params) == -sum(charges)


def test_critical_points_bhz_dirac_points():
    zeros = critical_points(builtin_model("bhz_square"), "m", -1.0, 1.0)
    assert sorted(tuple(np.round(z.k / np.pi, 12) % 2) for z in zeros) == [(0, 1), (1, 0)]


@pytest.mark.parametrize(
    "name, axis, lo, hi, params",
    [
        ("triangular", "m", 2.0, 3.0, None),
        ("haldane3nn", "m", 1.0, 2.0, None),
        ("haldane_n", "m", 2.0, 3.0, None),
        ("square_power", "m0", -0.5, 0.0, None),
        ("bhz_square", "m", -3.0, 3.0, None),
    ],
)
def test_critical_points_bound_the_chern_jump(name, axis, lo, hi, params):
    """The paper's lower bound: a bracket holds at least |Delta C| closings."""
    model = builtin_model(name)
    zeros = critical_points(model, axis, lo, hi, params)
    jump = _berry_jump(model, axis, lo, hi, params)
    assert jump == -sum(z.charge for z in zeros)
    assert len(zeros) >= abs(jump)


def test_critical_points_degenerate_zero_has_no_charge():
    zeros = critical_points(builtin_model("square_power"), "m0", -0.3, 0.2, {"d": 2})
    assert [(round(z.param, 9), z.charge) for z in zeros] == [(-0.25, None)]


def test_critical_points_refuses_a_missed_closing(monkeypatch):
    """A pre-Dirac point lost at one end breaks sum q = deg(hi) - deg(lo)."""
    original = phasediag.pre_dirac_points

    def losing(model, params):
        pts = original(model, params)
        return pts[:-1] if params["m"] > 0 else pts

    monkeypatch.setattr(phasediag, "pre_dirac_points", losing)
    with pytest.raises(DegenerateFamilyError, match="missed"):
        critical_points(builtin_model("bhz_square"), "m", -1.0, 1.0)


@pytest.mark.parametrize("name", ["spin_ssphere", "square_power"])
def test_critical_points_refuse_an_integer_axis(name, monkeypatch):
    """An integer-valued parameter cannot vary along a bracket: refused by name,
    before any pre-Dirac solve."""

    def unreachable(*args, **kwargs):
        raise AssertionError("pre_dirac_points was called")

    monkeypatch.setattr(phasediag, "pre_dirac_points", unreachable)
    for call in (critical_points, locate_transition):
        with pytest.raises(ModelError, match="'d' is integer-valued"):
            call(builtin_model(name), "d", 0, 1)


def test_multi_band_locate_transition_refuses_an_integer_axis():
    with pytest.raises(ModelError, match="'N' is integer-valued"):
        locate_transition(builtin_model("kagome_n2"), "N", 1, 5)


def test_critical_points_require_two_band_field():
    with pytest.raises(ModelError):
        critical_points(builtin_model("kagome"), "u1", 1.0, 2.5)
    with pytest.raises(ModelError):
        critical_points(builtin_model("haldane"), "m", 1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.floats(-2.5, 2.5),
    t2=st.floats(0.2, 1.0),
    start=st.floats(-math.pi, math.pi),
)
def test_charges_cancel_around_a_closed_phi_loop(m, t2, start):
    """Haldane is 2 pi periodic in phi, so C returns to its start value and the
    charges of the closings met along one period sum to zero."""
    lobe = 3.0 * SQRT3 * t2
    assume(abs(abs(m) - lobe * abs(math.sin(start))) > 1e-3)  # the loop starts off a closing
    assume(abs(abs(m) - lobe) > 1e-3)  # the closings are simple
    zeros = critical_points(builtin_model("haldane"), "phi", start, start + TWO_PI, {"m": m, "t2": t2})
    assert sum(z.charge for z in zeros) == 0
    assert len(zeros) == (4 if abs(m) < lobe else 0)


def test_locate_transition_multiband_refuses_open_gap():
    """The least gap of kagome on [0.5, 1.5] is about 0.8, at the bracket's end."""
    with pytest.raises(ModelError, match="does not close"):
        locate_transition(builtin_model("kagome"), "u1", 0.5, 1.5)


# ---------------------------------------------------------------------------
# suspension and wall families
# ---------------------------------------------------------------------------


def test_suspension_values():
    f = suspension(3, 0.0, math.pi / 2)
    assert np.allclose(f, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(suspension(2, 0.3, 0.0), [0, 0, 1], atol=1e-12)


def test_wall_zero_positions():
    assert np.allclose(wall_zeros(1, 2), [math.pi])
    assert np.allclose(wall_zeros(1, -2), [math.pi / 3, math.pi, 5 * math.pi / 3])
    assert np.allclose(wall_zeros(1, -1), [math.pi / 2, 3 * math.pi / 2])
    assert len(wall_zeros(-2, 4)) == 6


def test_wall_zeros_are_family_zeros():
    for d, dp in [(1, 2), (1, -2), (-2, 4), (3, -3)]:
        fam = wall_family(d, dp)
        for phi in wall_zeros(d, dp):
            F = fam(0.5, phi, math.pi / 2)
            assert np.linalg.norm(F) < 1e-12, (d, dp, phi)


@pytest.mark.parametrize("d,dp", [(1, 2), (1, -2), (-2, 4), (2, 5), (-3, 1)])
def test_wall_zero_count_exhaustive(d, dp):
    zeros = wall_zeros(d, dp)
    assert len(zeros) == abs(d - dp) == dirac_count(d, dp)
    assert all(0.0 <= z < TWO_PI for z in zeros)
    # no other equatorial zeros: sample densely between the listed angles
    fam = wall_family(d, dp)
    phi = np.linspace(0, TWO_PI, 2000, endpoint=False)
    norms = np.linalg.norm(fam(0.5, phi, math.pi / 2), axis=-1)
    small = phi[norms < 1e-3]
    for s in small:
        assert min(abs(s - z) for z in zeros) < 0.05


def test_wall_family_rejects_equal_degrees():
    with pytest.raises(ValueError):
        wall_zeros(2, 2)
    assert dirac_count(3, 3) == 0


def test_wall_localization_at_half():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = int(rng.integers(-4, 5))
        dp = int(rng.integers(-4, 5))
        if d == dp:
            dp += 1
        fam = wall_family(d, dp)
        assert fam.min_norm(0.5) < 1e-6
        for t in (0.0, 0.2, 0.44, 0.56, 0.8, 1.0):
            assert fam.min_norm(t) > abs(t - 0.5) / 2.0, (d, dp, t)


def _search_min_norm(fn, nphi, ntheta):
    """Reference: grid minimum of |fn(phi, theta)| over the sphere, polished by
    Nelder-Mead."""
    from scipy import optimize

    phi = np.linspace(0.0, TWO_PI, nphi, endpoint=False)
    theta = np.linspace(0.0, math.pi, ntheta)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    norms = np.linalg.norm(fn(P, T), axis=-1)
    idx = np.unravel_index(np.argmin(norms), norms.shape)
    res = optimize.minimize(
        lambda x: float(np.linalg.norm(fn(np.array(x[0]), np.array(x[1])))),
        np.array([P[idx], T[idx]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14},
    )
    return min(float(norms[idx]), float(res.fun))


def test_wall_min_norm_matches_sphere_search():
    rng = np.random.default_rng(18)
    for _ in range(40):
        d, dp = (int(x) for x in rng.integers(-4, 5, size=2))
        t = float(rng.uniform(-0.5, 1.5))
        fam = wall_family(d, dp)
        want = _search_min_norm(lambda P, T: fam(t, P, T), 180, 91)
        assert fam.min_norm(t) == pytest.approx(want, abs=1e-9), (d, dp, t)


def test_fan_min_norm_matches_sphere_search():
    rng = np.random.default_rng(19)
    for k in range(2, 8):
        fam = fan_family(FanDiagram(k, tuple(int(x) for x in rng.integers(-3, 4, size=k))))
        for _ in range(6):
            r, ang = rng.uniform(0.3, 2.0), rng.uniform(0.0, TWO_PI)
            p = (r * math.cos(ang), r * math.sin(ang))
            want = _search_min_norm(lambda P, T: fam(p, P, T), 240, 121)
            assert fam.min_norm(p) == pytest.approx(want, abs=1e-9), (fam.fan, p)


def test_wall_winding_plateaus():
    for d, dp in [(1, 2), (5, 7), (1, -2), (-2, 4)]:
        for t in (0.1, 0.25, 0.4):
            assert rose_curve(d, dp, t).winding() == d, (d, dp, t)
        for t in (0.6, 0.75, 0.9):
            assert rose_curve(d, dp, t).winding() == dp, (d, dp, t)


# ---------------------------------------------------------------------------
# rose curves
# ---------------------------------------------------------------------------


def test_rose_winding_examples():
    assert rose_curve(1, 2, 0.25).winding() == 1
    assert rose_curve(5, 7, 0.75).winding() == 7


def test_rose_polar_identity():
    for d, dp in [(1, 3), (5, 7), (1, 2), (-2, 4)]:
        r = rose_curve(d, dp, 0.5)
        assert r.polar_residual() < 1e-9, (d, dp)


def test_rose_interval_parity_rule():
    assert rose_curve(1, 3, 0.5).interval == 2.0  # 2/4 = 1/2, even s -> s
    assert rose_curve(5, 7, 0.5).interval == 6.0  # 2/12 = 1/6, even s -> s
    assert rose_curve(1, 2, 0.5).interval == 6.0  # 1/3 odd/odd -> 2s
    assert rose_curve(2, -2, 0.5).interval == 2.0  # antipodal pair
    assert rose_curve(-2, 4, 0.5).interval == 2.0  # 6/2 = 3/1, odd/odd -> 2s


def test_rose_circle_degenerate_case():
    # d = 0 against d' gives a circle of radius t about the point (1-t, 0)
    r = rose_curve(0, 5, 0.5)
    radii = np.hypot(r.samples[:, 0] - 0.5, r.samples[:, 1])
    assert np.allclose(radii, 0.5, atol=1e-12)


def test_rose_sample_density_floor():
    r = rose_curve(5, 7, 0.75, nsamples=4)
    assert len(r.phis) >= math.ceil(TWO_PI * 7 / 0.1)
    assert r.curve().closed


def test_rose_curve_refuses_fractional_degrees():
    for d, dp in [(2.5, 1), (1, 0.5)]:
        with pytest.raises(ValueError, match="must be integers"):
            rose_curve(d, dp, 0.5)
    assert rose_curve(2.0, 1, 0.5).d == 2


def test_rose_k_exponent():
    assert rose_curve(5, 7, 0.5).k_rose == pytest.approx(1.0 / 6.0)
    assert rose_curve(3, -3, 0.5).k_rose is None


# ---------------------------------------------------------------------------
# fan realizations
# ---------------------------------------------------------------------------


def test_fan_two_rays_matches_wall():
    fan = FanDiagram(k=2, labels=(1, -1))
    report = verify_realization(fan)
    assert report["passed"], report
    assert [c["degree"] for c in report["chambers"]] == [1, -1]
    assert all(r["wall"] for r in report["rays"])


def test_fan_three_chambers():
    fan = FanDiagram(k=3, labels=(0, 1, 2))
    report = verify_realization(fan)
    assert report["passed"], report
    assert [c["degree"] for c in report["chambers"]] == [0, 1, 2]


def test_fan_constant_labels_have_no_walls():
    fan = FanDiagram(k=4, labels=(1, 1, 1, 1))
    report = verify_realization(fan)
    assert report["passed"], report
    assert not any(r["wall"] for r in report["rays"])
    assert all(r["min_norm_on_ray"] > 1e-6 for r in report["rays"])


def test_fan_scale_covariance():
    fan = FanDiagram(k=3, labels=(2, 0, -1))
    fam = fan_family(fan)
    p = (math.cos(1.0), math.sin(1.0))
    F1 = fam(p, 0.7, 1.1)
    F3 = fam((3 * p[0], 3 * p[1]), 0.7, 1.1)
    assert np.allclose(F3, 3.0 * F1, atol=1e-12)


def test_fan_probe_radius_independence():
    fan = FanDiagram(k=3, labels=(1, -2, 0))
    for radius in (0.5, 2.0):
        assert verify_realization(fan, probe_radius=radius)["passed"]


def test_fan_validation_errors():
    with pytest.raises(ValueError):
        FanDiagram(k=1, labels=(0,))
    with pytest.raises(ValueError):
        FanDiagram(k=3, labels=(0, 1))
    with pytest.raises(ValueError):
        verify_realization(FanDiagram(k=2, labels=(0, 0)), probe_radius=0.0)
    with pytest.raises(ValueError):
        fan_family(FanDiagram(k=2, labels=(0, 1)))((0.0, 0.0), 0.0, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: FanDiagram(3, (1.5, 2, 3)),
        lambda: FanDiagram(3.5, (1, 2, 3)),
        lambda: FanDiagram(2, ("1", 2)),
        lambda: dirac_count(1.5, 3),
        lambda: wall_zeros(1.5, 3),
        lambda: wall_family(True, 2),
        lambda: wall_family(1, "2"),
        lambda: rose_curve(1, False, 0.5),
        lambda: WallFamily(1.5, 3),
        lambda: WallFamily(1, True),
    ],
)
def test_integer_arguments_are_not_truncated(call):
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_integral_floats_are_accepted_as_integers():
    fan = FanDiagram(3.0, (1.0, 2, 3))
    assert (fan.k, fan.labels) == (3, (1, 2, 3)) and type(fan.k) is int
    assert dirac_count(1.0, 3) == 2
    assert wall_zeros(1.0, 3.0) == wall_zeros(1, 3)
    wall = WallFamily(1.0, 3.0)
    assert (wall.d, wall.dprime) == (1, 3) and type(wall.d) is int


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
def test_verify_realization_refuses_a_non_finite_radius(radius):
    with pytest.raises(ValueError, match="probe_radius must be positive and finite"):
        verify_realization(FanDiagram(k=3, labels=(0, 1, 2)), probe_radius=radius)


def test_adjacent_chamber_rule():
    # a ray is degenerate iff it separates different labels
    fan = FanDiagram(k=4, labels=(0, 0, 1, 1))
    report = verify_realization(fan)
    assert report["passed"], report
    walls = [r["wall"] for r in report["rays"]]
    assert walls == [True, False, True, False]


def test_scipy_is_never_imported():
    """numpy is the only runtime dependency: the engines, a scan that refines
    cells, locate_transition on 3 and 2 bands and the wall and fan checks load
    no scipy module."""
    script = """
import sys
import chernkit as ck
ck.cross_validate(ck.builtin_model("haldane"))
diagram = ck.scan(ck.builtin_model("kagome"), [("u1", -2.5, 2.5, 11)])
refined = sum(not c.certified for c in diagram.cells)
assert refined >= 1, "no cell was refined"
ck.locate_transition(ck.builtin_model("kagome"), "u1", 1.0, 2.5)
ck.locate_transition(ck.builtin_model("bhz_square"), "m", -1.0, 1.0)
assert ck.verify_realization(ck.FanDiagram(k=3, labels=(0, 1, 2)))["passed"]
assert ck.wall_family(1, 3).min_norm(0.5) == 0.0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(chernkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
