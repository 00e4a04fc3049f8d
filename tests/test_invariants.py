"""Tests for the three Chern engines and their cross-validation harness."""

import dataclasses
import math

import numpy as np
import pytest

from chernkit import invariants
from chernkit.invariants import (
    DegenerateFamilyError,
    InvariantError,
    MethodInapplicableError,
    PlanarCurve,
    ResolutionError,
    chern_berry_lattice,
    cross_validate,
    degree_integral,
    degree_ray,
    sphere_map_degree,
    winding_number,
)
from chernkit.models import ModelError, builtin_model, catalog, gap, pre_dirac_points, scale_model
from chernkit.phasediag import scan

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# pinned engine values (each independently audited before being frozen here)
# ---------------------------------------------------------------------------


def test_haldane_ground_band_all_engines():
    h = builtin_model("haldane")
    assert chern_berry_lattice(h, grid=60).value == 1
    assert degree_integral(h, grid=200).value == 1
    assert degree_ray(h).value == 1


def test_haldane_degree_sign_bookkeeping():
    # ground band value is minus the mapping degree; raw degree is exposed
    h = builtin_model("haldane")
    r0 = degree_integral(h, grid=160, band=0)
    r1 = degree_integral(h, grid=160, band=1)
    assert r0.value == 1 and r1.value == -1
    assert round(r0.diagnostics["degree_raw"]) == -1
    ray = degree_ray(h)
    assert ray.diagnostics["degree_raw"] == -1
    assert ray.diagnostics["half_sum"] == -1


def test_haldane_trivial_phases():
    h = builtin_model("haldane")
    assert chern_berry_lattice(h, {"m": 3.0}, grid=60).value == 0
    # image confined to a half-space cannot enclose the origin
    assert degree_integral(h, {"m": 9.0, "t2": 0.0}, grid=100).value == 0


def test_haldane_inside_lobe():
    # |m| below 3*sqrt(3)*t2*sin(phi) ~ 2.598 stays topological
    h = builtin_model("haldane")
    assert chern_berry_lattice(h, {"m": 1.5}, grid=60).value == 1
    assert chern_berry_lattice(h, {"m": 2.5}, grid=120).value == 1


def test_haldane3nn_value():
    m3 = builtin_model("haldane3nn")
    assert chern_berry_lattice(m3, grid=80).value == -2
    assert degree_ray(m3).value == -2
    assert degree_ray(m3).diagnostics["degree_raw"] == 2
    assert degree_integral(m3, grid=400).value == -2


@pytest.mark.parametrize("N", [-2, 3, 4])
def test_haldane_n_family_equals_N(N):
    hn = builtin_model("haldane_n")
    assert chern_berry_lattice(hn, {"N": N}, grid=40 * abs(N)).value == N
    assert degree_ray(hn, {"N": N}).value == N


def test_bhz_value():
    b = builtin_model("bhz_square")
    assert chern_berry_lattice(b, grid=60).value == -1
    assert degree_integral(b, grid=200).value == -1
    assert degree_ray(b).value == -1


def test_square_n2_value():
    sq = builtin_model("square_n2")
    assert chern_berry_lattice(sq, {"N": 3}, grid=120).value == -9


def test_kagome_lowest_band():
    kg = builtin_model("kagome")
    r = chern_berry_lattice(kg, grid=100)
    assert abs(r.value) == 1
    assert r.value == 1
    assert r.residual < 1e-8


def test_kagome_band_sum_zero():
    kg = builtin_model("kagome")
    total = sum(chern_berry_lattice(kg, band=b, grid=80).value for b in range(3))
    assert total == 0


def test_triangular_value():
    t = builtin_model("triangular")
    assert chern_berry_lattice(t, grid=60).value == 3
    assert degree_ray(t).value == 3


@pytest.mark.parametrize("d", [1, 2, 3, -2])
def test_spin_ssphere_degree(d):
    sp = builtin_model("spin_ssphere")
    assert degree_integral(sp, {"d": d}, grid=200).value == d
    assert degree_ray(sp, {"d": d}).value == d


def test_torus_wind_degree():
    tw = builtin_model("torus_wind")
    assert degree_integral(tw, grid=200).value == 6
    assert chern_berry_lattice(tw, grid=80).value == 6


# ---------------------------------------------------------------------------
# invariants and properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,params", [
    ("haldane", None),
    ("bhz_square", None),
    ("mb_dirac", {"M": 1.0, "B": 2.0}),
    ("triangular", None),
])
def test_band_sum_rule(name, params):
    model = builtin_model(name)
    total = sum(
        chern_berry_lattice(model, params, band=b, grid=60).value
        for b in range(model.bands)
    )
    assert total == 0


def test_grid_stability():
    h = builtin_model("haldane")
    vals = {chern_berry_lattice(h, {"m": 0.7}, grid=g).value for g in (40, 80, 160)}
    assert vals == {1}
    kg = builtin_model("kagome")
    vals = {chern_berry_lattice(kg, grid=g).value for g in (40, 80, 160)}
    assert len(vals) == 1


def test_berry_records_grid_gap_above_band():
    h = builtin_model("haldane")
    diag = chern_berry_lattice(h, {"m": 0.7}, grid=40).diagnostics
    assert diag["gap_above"] == pytest.approx(gap(h, {"m": 0.7}, diag["gap_above_k"]), abs=1e-12)
    assert diag["gap_above"] >= diag["min_gap"]
    assert "gap_above" not in chern_berry_lattice(h, {"m": 0.7}, band=1, grid=40).diagnostics
    kg = builtin_model("kagome")
    diag = chern_berry_lattice(kg, band=1, grid=40).diagnostics
    assert diag["gap_above"] == pytest.approx(gap(kg, None, diag["gap_above_k"], band=1), abs=1e-12)


def _berry_or_refusal(model, grid):
    try:
        r = chern_berry_lattice(model, grid=grid)
    except DegenerateFamilyError as exc:
        return exc.k
    return r.value, r.raw, r.diagnostics["gap_above"], r.diagnostics["gap_above_k"]


@pytest.mark.parametrize("grid", [40, 60])
@pytest.mark.parametrize("name", [n for n in catalog() if builtin_model(n).bands == 2])
def test_berry_closed_form_agrees_with_lapack(name, grid, monkeypatch):
    """The 2x2 kernel changes Berry's raw value and grid gap by rounding only:
    the reference runs the same engine on np.linalg.eigh."""
    model = builtin_model(name)
    ours = _berry_or_refusal(model, grid)
    monkeypatch.setattr(invariants, "eigh", np.linalg.eigh)
    ref = _berry_or_refusal(model, grid)
    if isinstance(ref, np.ndarray):  # a refusal, at the same k
        assert isinstance(ours, np.ndarray) and np.array_equal(ours, ref)
        return
    assert ours[0] == ref[0]
    assert abs(ours[1] - ref[1]) < 1e-9
    assert abs(ours[2] - ref[2]) < 1e-12
    # the grid minimum may be tied to rounding at several k: any of them will do
    assert abs(gap(model, None, ours[3]) - ref[2]) < 1e-12


def test_gauge_randomization_invariance():
    h = builtin_model("haldane")
    base = chern_berry_lattice(h, grid=48)
    rng = np.random.default_rng(7)

    def randomize(u):
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, u.shape[:-1]))
        return u * phases[..., None]

    rand = chern_berry_lattice(h, grid=48, _eigvec_transform=randomize)
    assert rand.value == base.value
    # plaquette products cancel the phases; only float rounding can differ
    assert abs(rand.raw - base.raw) < 1e-11


def test_phi_antisymmetry():
    h = builtin_model("haldane")
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = float(rng.uniform(0.2, math.pi - 0.2))
        m = float(rng.uniform(-1.0, 1.0))
        plus = chern_berry_lattice(h, {"phi": phi, "m": m}, grid=48).value
        minus = chern_berry_lattice(h, {"phi": -phi, "m": m}, grid=48).value
        assert plus == -minus


@pytest.mark.parametrize("name,N", [("haldane", 2), ("haldane", 3), ("bhz_square", 2), ("bhz_square", 3), ("triangular", 2), ("kagome", 3)])
def test_pullback_multiplicativity(name, N):
    model = builtin_model(name)
    base = chern_berry_lattice(model, grid=48).value
    scaled = chern_berry_lattice(scale_model(model, N, "all"), grid=48 * N).value
    assert scaled == N * N * base


def test_triangular_is_three_times_haldane():
    h = builtin_model("haldane")
    t = builtin_model("triangular")
    points = [
        {"m": 0.0, "t2": 0.5, "phi": math.pi / 2},
        {"m": 1.0, "t2": 0.5, "phi": math.pi / 2},
        {"m": -0.8, "t2": 1.0, "phi": 0.9},
        {"m": 3.0, "t2": 0.5, "phi": math.pi / 2},
        {"m": 0.5, "t2": 0.7, "phi": -1.2},
    ]
    for p in points:
        ch = chern_berry_lattice(h, p, grid=48).value
        ct = chern_berry_lattice(t, p, grid=48).value
        assert ct == 3 * ch, p


def test_ray_half_sum_identity():
    for name in ("haldane", "bhz_square", "haldane3nn", "torus_wind"):
        r = degree_ray(builtin_model(name))
        assert r.diagnostics["half_sum"] == r.diagnostics["degree_raw"]


def test_ray_perturbation_resolves_degenerate_preimages():
    # the power-map zeros are degenerate on the +z ray; the deterministic
    # perturbation spiral must find a regular nearby ray
    sq = builtin_model("square_power")
    r = degree_ray(sq, {"d": 2})
    assert r.value == 0


def test_ray_degree_near_a_pair_creation():
    """haldane3nn just past its pair creation at t3 = 1/3 + eps, where a pair of
    zeros ~sqrt(eps) apart with nearly singular Jacobians sits at each M point: a
    seeded Newton left copies of them, and the ray engine alone counted -4 where
    Berry gives -2.  The ray engine gives -2 or refuses, and the zeros number 8."""
    model = builtin_model("haldane3nn")
    assert chern_berry_lattice(model, {"t3": 1 / 3 + 1e-8}, grid=240).value == -2
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        p = {"t3": 1 / 3 + eps}
        assert len(pre_dirac_points(model, p)) == 8, eps
        try:
            r = degree_ray(model, p)
        except InvariantError:
            continue
        assert r.value == -2, eps
        assert len(r.diagnostics["pre_dirac"]) == 8, eps


def test_ray_diagnostics_contributions():
    r = degree_ray(builtin_model("bhz_square"))
    assert len(r.diagnostics["pre_dirac"]) == 4
    signs = sorted(p["jac_sign"] for p in r.diagnostics["pre_dirac"])
    assert signs == [-1, -1, 1, 1]


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_degenerate_family_error_carries_k():
    b = builtin_model("bhz_square")
    with pytest.raises(DegenerateFamilyError) as exc:
        chern_berry_lattice(b, {"m": 2.0}, grid=40)
    assert exc.value.k is not None
    assert np.linalg.norm(exc.value.k % (2 * math.pi)) < 1e-6


def test_degree_integral_rejects_three_band():
    with pytest.raises(MethodInapplicableError):
        degree_integral(builtin_model("kagome"))
    with pytest.raises(MethodInapplicableError):
        degree_ray(builtin_model("kagome"))


@pytest.mark.parametrize(
    "run",
    [
        lambda: chern_berry_lattice(builtin_model("kagome"), band=0.5),
        lambda: chern_berry_lattice(builtin_model("kagome"), band=True),
        lambda: chern_berry_lattice(builtin_model("kagome"), band=3),
        lambda: chern_berry_lattice(builtin_model("haldane"), grid=40.9),
        lambda: chern_berry_lattice(builtin_model("haldane"), grid="40"),
        lambda: degree_integral(builtin_model("haldane"), grid=200.5),
        lambda: degree_integral(builtin_model("haldane"), band=0.5),
        lambda: degree_ray(builtin_model("haldane"), band=True),
        lambda: cross_validate(builtin_model("haldane"), grids={"berry": 40.9}),
        lambda: cross_validate(builtin_model("haldane"), grids={"integral": 200.5}),
    ],
    ids=[
        "berry-band-fraction", "berry-band-bool", "berry-band-range", "berry-grid-fraction",
        "berry-grid-string", "integral-grid-fraction", "integral-band-fraction",
        "ray-band-bool", "cross-validate-berry", "cross-validate-integral",
    ],
)
def test_engines_refuse_non_integer_band_and_grid(run):
    """A fractional, boolean or out-of-range band or grid is refused, not
    truncated to a smaller grid or left to fail inside numpy."""
    with pytest.raises(ModelError, match="must be an integer"):
        run()


def test_engines_accept_integral_floats():
    kagome, haldane = builtin_model("kagome"), builtin_model("haldane")
    assert chern_berry_lattice(kagome, band=1.0).value == chern_berry_lattice(kagome, band=1).value
    assert chern_berry_lattice(haldane, grid=40.0).grid == (40, 40)
    assert degree_integral(haldane, grid=np.int64(100)).grid == (100, 100)


@pytest.mark.parametrize(
    "params", [{"bogus": 1.0}, {"m": float("nan")}, {"m": float("inf")}, {"t1": -float("inf")}]
)
def test_bad_params_raise_model_error_in_every_engine(params):
    bhz = builtin_model("bhz_square")
    for engine in (chern_berry_lattice, degree_integral, degree_ray):
        with pytest.raises(ModelError):
            engine(bhz, params)


def test_non_finite_params_are_refused_before_any_numerics():
    """An infinite parameter used to reach the Berry grid as NaN and fail there
    with a bare ValueError; every engine, and a scan cell, refuse it by name."""
    haldane = builtin_model("haldane")
    for run in (
        lambda: chern_berry_lattice(haldane, {"m": float("inf")}, grid=8),
        lambda: degree_integral(haldane, {"m": float("inf")}),
        lambda: degree_ray(haldane, {"t2": float("-inf")}),
        lambda: pre_dirac_points(haldane, {"t1": float("inf")}),
    ):
        with pytest.raises(ModelError, match="not finite"):
            run()
    infinite = dataclasses.replace(haldane, defaults={**haldane.defaults, "t2": math.inf})
    cells = scan(infinite, [("m", -1.0, 1.0, 2)]).cells
    for c in cells:
        assert c.chern is None and "t2 of haldane is missing or not finite" in c.error


@pytest.mark.parametrize("grids", [{"bogus": 3}, {"ray": 96}, {"berry": 40, "Integral": 100}])
def test_cross_validate_refuses_unknown_grids(grids):
    """Only the Berry and the quadrature engine have a grid; any other key is refused
    rather than ignored."""
    with pytest.raises(ModelError, match="grids takes only"):
        cross_validate(builtin_model("bhz_square"), grids=grids)


def test_resolution_error_on_underresolved_quadrature():
    # an 8x8 quadrature aliases the (6, 6) torus winding far from its degree
    tw = builtin_model("torus_wind")
    with pytest.raises(ResolutionError) as exc:
        degree_integral(tw, {"d1": 6, "d2": 6}, grid=8)
    assert exc.value.raw is not None
    assert abs(exc.value.raw - round(exc.value.raw)) >= 0.25


def test_degree_integral_degenerate_field():
    # field vanishes exactly at (pi, pi), which an odd midpoint grid samples
    from chernkit.models import SQUARE_ZONE, BlochModel, HoppingTable, _pauli

    def terms(p):
        """h = (sin kx, sin ky, cos kx + cos ky + 2)."""
        rows = [[0, 0, 2, 0], [-1j, 0, 1, 0], [0, -1j, 1, 0]]
        return [[0, 0], [1, 0], [0, 1]], _pauli(rows)

    model = BlochModel("pinched", 2, "square", {}, HoppingTable(terms, SQUARE_ZONE))
    with pytest.raises(DegenerateFamilyError) as exc:
        degree_integral(model, grid=9)
    assert np.allclose(exc.value.k, [math.pi, math.pi], atol=1e-9)


# ---------------------------------------------------------------------------
# winding numbers and sphere degrees
# ---------------------------------------------------------------------------


def _circle(center, radius, n=200):
    t = np.linspace(0, 2 * math.pi, n)
    pts = np.stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=-1)
    return PlanarCurve(points=pts, closed=True)


def test_winding_unit_circle():
    assert winding_number(_circle((0, 0), 1)) == 1


def test_winding_origin_outside():
    assert winding_number(_circle((2, 0), 1)) == 0


def test_winding_errors():
    with pytest.raises(ValueError):
        # odd sample count puts t = pi in the sample set, so the curve
        # passes through the origin exactly
        winding_number(_circle((1, 0), 1, n=201))
    open_curve = PlanarCurve(points=np.array([[1, 0], [0, 1], [-1, 0]]), closed=False)
    with pytest.raises(ValueError):
        winding_number(open_curve)


def test_planar_curve_validation():
    with pytest.raises(ValueError):
        PlanarCurve(points=np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]]), closed=True)


def test_sphere_map_degree_identity():
    def ident(phi, theta):
        return np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
            axis=-1,
        )

    assert abs(sphere_map_degree(ident) - 1.0) < 1e-3


@pytest.mark.parametrize("d", [-2, 0, 1, 3])
def test_sphere_map_degree_suspension(d):
    def f(phi, theta):
        return np.stack(
            [
                np.sin(theta) * np.cos(d * phi),
                np.sin(theta) * np.sin(d * phi),
                np.cos(theta),
            ],
            axis=-1,
        )

    assert abs(sphere_map_degree(f) - d) < 1e-2


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------

TWO_BAND_SWEEP = [
    "haldane",
    "haldane3nn",
    "haldane_n",
    "bhz_square",
    "square_n2",
    "square_power",
    "triangular",
    "mb_dirac",
    "spin_ssphere",
    "torus_wind",
]


@pytest.mark.parametrize("name", TWO_BAND_SWEEP)
def test_cross_validate_seeded_points(name):
    model = builtin_model(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    base = model.params_with_defaults(None)
    done = 0
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        trial = {
            k: (v * float(rng.uniform(0.75, 1.25)) if isinstance(v, float) else v)
            for k, v in base.items()
        }
        try:
            report = cross_validate(model, trial, grids={"berry": 48, "integral": 160})
        except Exception as exc:  # degenerate draw or unresolved: resample
            if isinstance(exc, AssertionError):
                raise
            continue
        assert report["passed"]
        assert len(set(report["values"].values())) == 1
        done += 1
    assert done == 20, f"only {done} non-degenerate points for {name}"


def test_cross_validate_report_shape():
    report = cross_validate(builtin_model("bhz_square"), {"m": -1.0})
    assert report["value"] == -1
    assert set(report["values"]) == {"berry_lattice", "degree_integral", "degree_ray"}
    assert all(t >= 0 for t in report["timings"].values())
    assert all(r < 0.5 for r in report["residuals"].values())


def test_cross_validate_rejects_three_band():
    with pytest.raises(MethodInapplicableError):
        cross_validate(builtin_model("kagome"))
