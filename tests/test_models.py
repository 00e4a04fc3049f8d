"""Tests for the Bloch model zoo, scaling transforms, and band folding."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernkit import models
from chernkit.invariants import (
    _ray_perturbations,
    _rotated_model,
    _rotation_to_z,
    degree_integral,
    degree_ray,
)
from chernkit.phasediag import critical_points
from chernkit.models import (
    K_POINT,
    BlochModel,
    BrillouinZone,
    HoppingTable,
    ModelError,
    assemble,
    builtin_model,
    catalog,
    eigh,
    eval_field,
    fold_bands,
    gap,
    pre_dirac_points,
    scale_model,
    spectrum,
)

SQRT3 = math.sqrt(3.0)
RNG = np.random.default_rng(20240817)

ALL_MODELS = catalog()
#: field/h0/jac12/assemble of every catalog model at its defaults, one jittered
#: parameter point and some integer parameters, at 6 random k in [-6, 6]^2
with open(Path(__file__).parent / "data" / "catalog_reference.json", encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
TWO_BAND = [n for n in ALL_MODELS if builtin_model(n).bands == 2]
#: (seam key, jac_sign, degenerate, h3) of every pre-Dirac zero, recorded with the
#: scalar Newton loop that the batched one replaced: each 2-band catalog model at
#: its defaults and two +-20% draws, unrotated (probe null) and on the six ray probes
with open(Path(__file__).parent / "data" / "pre_dirac_reference.json", encoding="utf-8") as _fh:
    PRE_DIRAC_REFERENCE = json.load(_fh)
#: assemble at 4 seeded k and gap_slope of folded and kagome_n2 tables, and gap_slope
#: of every catalog model at its defaults, recorded while tables held Cartesian R
with open(Path(__file__).parent / "data" / "derived_reference.json", encoding="utf-8") as _fh:
    DERIVED_REFERENCE = json.load(_fh)
RAYS = list(_ray_perturbations())


def _gell_mann() -> np.ndarray:
    """lambda_1 .. lambda_8: the off-diagonal pairs (1, 2), (4, 5), (6, 7) and the
    diagonal lambda_3 and lambda_8."""
    lam = np.zeros((8, 3, 3), dtype=complex)
    for (re, im), (i, j) in zip([(0, 1), (3, 4), (5, 6)], [(0, 1), (0, 2), (1, 2)]):
        lam[re, i, j] = lam[re, j, i] = 1
        lam[im, i, j], lam[im, j, i] = -1j, 1j
    lam[2] = np.diag([1, -1, 0])
    lam[7] = np.diag([1, 1, -2]) / SQRT3
    return lam


GELL_MANN = _gell_mann()


def coefficients(model, params, k):
    """The field of a 2-band model; for 3 bands, the Gell-Mann coefficients
    tr(lambda_a H) / 2 of the assembled matrix, as the reference recorded them."""
    if model.bands == 2:
        return eval_field(model, params, k)
    return np.einsum("aji,...ij->...a", GELL_MANN, assemble(model, params, k)).real / 2


def same_k(zone, k1, k2, tol=1e-5):
    """Momentum equality modulo the reciprocal lattice."""
    df = zone.frac(np.asarray(k1) - np.asarray(k2))
    return np.allclose(df - np.round(df), 0.0, atol=tol)


# ---------------------------------------------------------------------------
# catalog and schemas
# ---------------------------------------------------------------------------


def test_catalog_contents():
    for name in [
        "haldane",
        "haldane3nn",
        "haldane_n2",
        "haldane_n",
        "bhz_square",
        "square_n2",
        "square_power",
        "triangular",
        "triangular_n2",
        "triangular_n",
        "kagome",
        "kagome_n2",
        "mb_dirac",
        "spin_ssphere",
        "torus_wind",
    ]:
        assert name in ALL_MODELS


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        builtin_model("no_such_model")


def test_unknown_parameter_rejected():
    with pytest.raises(ModelError):
        eval_field(builtin_model("haldane"), {"bogus": 1.0}, (0.0, 0.0))


def test_nan_parameter_rejected():
    with pytest.raises(ModelError):
        eval_field(builtin_model("haldane"), {"m": float("nan")}, (0.0, 0.0))


def test_zone_orientation_positive():
    for name in ALL_MODELS:
        assert builtin_model(name).zone.area > 0


def test_degenerate_zone_rejected():
    with pytest.raises(ModelError):
        BrillouinZone(g1=(1.0, 2.0), g2=(2.0, 4.0))


@pytest.mark.parametrize(
    "terms",
    [
        lambda p: ([[0.5, 0.0]], models._pauli([[0, 0, 1, 0]])),
        lambda p: ([[0, 0]], np.eye(2)[None], ([[0, 0], [0.5, 0]], 1)),
    ],
    ids=["cartesian-R", "fractional-site"],
)
def test_table_refuses_non_integer_lattice_coordinates(terms):
    """n and the site numerators are integers: a float is refused, not truncated."""
    model = BlochModel("float", 2, "square", {}, HoppingTable(terms, models.SQUARE_ZONE))
    with pytest.raises(ModelError, match="must be integers"):
        assemble(model, None, (0.3, 0.7))


# ---------------------------------------------------------------------------
# pinned field values
# ---------------------------------------------------------------------------


def test_haldane_field_vanishes_at_K():
    h = builtin_model("haldane")
    K = K_POINT
    for m in (0.0, 0.7, -2.0):
        f = eval_field(h, {"m": m}, K)
        assert abs(f[0]) < 1e-12 and abs(f[1]) < 1e-12


def test_haldane_h3_at_K():
    h = builtin_model("haldane")
    K = K_POINT
    for m, t2 in [(0.0, 0.5), (0.3, 0.5), (-1.0, 1.0)]:
        f = eval_field(h, {"m": m, "t2": t2, "phi": math.pi / 2}, K)
        assert abs(f[2] - (m + 3 * SQRT3 * t2)) < 1e-12


def test_haldane_degeneracy_locus():
    h = builtin_model("haldane")
    K = K_POINT
    for t2, phi in [(0.5, math.pi / 2), (1.0, 0.7), (0.8, -1.1)]:
        m_star = -3 * SQRT3 * t2 * math.sin(phi)
        assert gap(h, {"m": m_star, "t2": t2, "phi": phi}, K) < 1e-9
        assert gap(h, {"m": m_star + 0.1, "t2": t2, "phi": phi}, K) > 1e-3


def test_bhz_field_at_origin():
    b = builtin_model("bhz_square")
    for m in (-1.0, 0.4, 2.0):
        f = eval_field(b, {"m": m}, (0.0, 0.0))
        assert np.allclose(f, [0.0, 0.0, m - 2.0])
    assert gap(b, {"m": 2.0}, (0.0, 0.0)) < 1e-12


def test_kagome_field_at_origin():
    kg = builtin_model("kagome")
    f = coefficients(kg, {"u1": 0.0}, (0.0, 0.0))
    assert np.allclose(f, [-2, 0, 0, -2, 0, -2, 0, 0])
    with pytest.raises(ModelError, match="no coefficient field"):
        eval_field(kg, None, (0.0, 0.0))


def test_kagome_gapped_at_unit_couplings():
    kg = builtin_model("kagome")
    frac = np.arange(50) / 50
    S, T = np.meshgrid(frac, frac, indexing="ij")
    K = kg.zone.kpoint(S, T)
    vals = spectrum(assemble(kg, None, K))
    assert float((vals[..., 1] - vals[..., 0]).min()) > 0.1


def test_kagome_gapless_at_u1_zero():
    kg = builtin_model("kagome")
    # flat-band touching: the spectrum at u1=0 has degenerate pairs somewhere
    frac = np.arange(60) / 60
    S, T = np.meshgrid(frac, frac, indexing="ij")
    K = kg.zone.kpoint(S, T)
    vals = spectrum(assemble(kg, {"u1": 0.0}, K))
    assert float((vals[..., 1] - vals[..., 0]).min()) < 1e-6


def test_kagome_coefficients_span_rank_3():
    kg = builtin_model("kagome")
    ks = RNG.uniform(-4, 4, (300, 2))
    F = coefficients(kg, None, ks)
    assert np.linalg.matrix_rank(F, tol=1e-8) == 3


def test_mb_dirac_field_values():
    mb = builtin_model("mb_dirac")
    assert np.allclose(eval_field(mb, {"M": 1.0, "B": 1.0}, (math.pi, math.pi)), [0, 0, -1])
    assert np.allclose(eval_field(mb, {"M": 1.0, "B": 1.0}, (0.0, 0.0)), [0, 0, 1])


def test_torus_wind_is_scaled_spin_map():
    tw = builtin_model("torus_wind")
    sp = builtin_model("spin_ssphere")
    ks = RNG.uniform(-7, 7, (30, 2))
    f_tw = eval_field(tw, {"d1": 2, "d2": 3}, ks)
    scaled = np.stack([2 * ks[:, 0], 3 * ks[:, 1]], axis=-1)
    # feeding the scaled angles to the d=1 map reproduces the (d1,d2) winding
    f_sp = eval_field(sp, {"d": 1}, scaled)
    assert np.allclose(f_tw, f_sp)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_catalog_matches_recorded_reference(name):
    """Field, h0, Jacobian and matrix agree to 1e-12 with values recorded from
    the hand-written catalog that the hopping tables replaced; a 3-band field is
    read off the matrix in the Gell-Mann basis, and h0 is tr H / 2, which is 0
    where no h0 was recorded."""
    model = builtin_model(name)
    for case in REFERENCE["models"][name]:
        p = model.params_with_defaults(case["params"])
        ks = np.array(case["k"])
        kx, ky = ks[:, 0], ks[:, 1]
        H = assemble(model, p, ks)
        h0 = np.trace(H, axis1=-2, axis2=-1) / 2
        got = {"field": coefficients(model, p, ks), "assemble": H}
        if "h0" in case:
            got["h0"] = h0
        else:
            assert np.max(np.abs(h0)) < 1e-12, (name, case["params"])
        if model.jac12 is not None:
            got["jac12"] = model.jac12(p, kx, ky)
        re, im = case["assemble"]
        want = dict(case, assemble=np.array(re) + 1j * np.array(im))
        assert set(got) == {"field", "h0", "jac12", "assemble"} & set(want), name
        for key, value in got.items():
            err = np.max(np.abs(value - np.asarray(want[key])))
            assert err < 1e-12, (name, case["params"], key, err)


@pytest.mark.parametrize(
    "name, terms", [("haldane", 4), ("haldane3nn", 5), ("square_power", 3)]
)
def test_table_folds_mirror_terms(name, terms):
    """-R terms are folded into +R and equal R merged: one exponential per +-R pair."""
    model = builtin_model(name)
    R, T = models._fold(*model.table.terms(model.defaults))
    assert len(R) == terms == len(T)


SLOPE_MODELS = [(n, None) for n in TWO_BAND] + [
    ("kagome", None),
    ("kagome_n2", None),
    pytest.param("haldane", scale_model, id="haldane-2"),
    pytest.param("bhz_square", fold_bands, id="bhz_square-folded2"),
]


@pytest.mark.parametrize("name, rule", SLOPE_MODELS)
def test_gap_slope_bounds_directional_derivative(name, rule):
    """The central difference of every band gap along a random direction never
    exceeds ``gap_slope``, at random k and +-20% jittered float params."""
    model = builtin_model(name)
    if rule is not None:
        model = rule(model, 2)
    rng = np.random.default_rng(20261018)
    eps = 1e-6
    for _ in range(8):
        p = {
            key: val * rng.uniform(0.8, 1.2) if isinstance(val, float) else val
            for key, val in model.defaults.items()
        }
        slope = model.table.gap_slope(model.params_with_defaults(p))
        for k in rng.uniform(-6, 6, (25, 2)):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            for band in range(model.bands - 1):
                rise = gap(model, p, k + eps * u, band) - gap(model, p, k - eps * u, band)
                assert abs(rise) / (2 * eps) <= slope * (1 + 1e-6), (name, p, k, band)


def test_gap_slope_is_attained_by_a_single_cosine():
    """h = (0, 0, m + t cos kx): the gap 2|m + t cos kx| changes at rate 2t at kx = pi/2."""
    model = models._model(
        "cosine",
        lambda p: ([[0, 0], [1, 0]], models._pauli([[0, 0, p["m"], 0], [0, 0, p["t"], 0]])),
        "square", {"m": 0.5, "t": 1.3},
    )
    eps = 1e-6
    rise = gap(model, None, (math.pi / 2 - eps, 0.0)) - gap(model, None, (math.pi / 2 + eps, 0.0))
    slope = model.table.gap_slope(model.defaults)
    assert rise / (2 * eps) == pytest.approx(slope, rel=1e-6)
    assert slope == pytest.approx(2 * 1.3)


def test_gap_slope_only_where_it_is_known():
    """Every table has a slope: scaling by N multiplies it by N; folding keeps each
    |R| and each T_R up to a permutation, so only the 64-angle bound's 1/cos(pi/64)
    is added."""
    haldane, bhz = builtin_model("haldane"), builtin_model("bhz_square")
    assert scale_model(haldane, 2).table.gap_slope(haldane.defaults) == pytest.approx(
        2 * haldane.table.gap_slope(haldane.defaults)
    )
    assert fold_bands(bhz, 2).table.gap_slope(bhz.defaults) == pytest.approx(
        bhz.table.gap_slope(bhz.defaults) / math.cos(math.pi / 64)
    )


def test_square_power_rejects_negative_degree():
    with pytest.raises(ModelError):
        eval_field(builtin_model("square_power"), {"d": -1}, (math.pi / 2, math.pi / 2))


@pytest.mark.parametrize(
    "name, param, value",
    [
        ("haldane_n", "N", 2.7),
        ("torus_wind", "d1", 2.5),
        ("square_power", "d", 1.5),
        ("square_n2", "N", 3.2),
        ("spin_ssphere", "d", 0.5),
    ],
)
def test_fractional_integer_params_are_refused(name, param, value):
    """A range or power with a fractional part raises instead of being truncated;
    the same value as an integral float, as a scan passes it, is accepted."""
    model = builtin_model(name)
    k = (0.3, 0.7)
    with pytest.raises(ModelError, match="must be an integer"):
        eval_field(model, {param: value}, k)
    integral = float(model.defaults[param])
    assert np.array_equal(eval_field(model, {param: integral}, k), eval_field(model, None, k))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, params",
    [pytest.param(name, None, id=name) for name in ALL_MODELS]
    + [pytest.param("kagome_n2", {"N": N}, id=f"kagome_n2-N{N}") for N in (2, 3)],
)
def test_field_periodicity(name, params):
    """H(k + g_i) = S_i H(k) S_i^dagger with the gauge the table derives from its
    sites; where every S_i is the identity the model reads "exact" and its 2-band
    field is periodic.  kagome_n2 at even N has its sites on lattice points."""
    model = builtin_model(name)
    p = model.params_with_defaults(params)
    ks = RNG.uniform(-6, 6, (100, 2))
    gauge = model.table.gauge(p)
    exact = all(np.array_equal(S, np.eye(model.bands)) for S in gauge)
    if params is None:
        assert model.periodicity == ("exact" if exact else "conjugate"), name
    if exact and model.bands == 2:
        f0 = eval_field(model, p, ks)
        for g in (model.zone.g1, model.zone.g2):
            fg = eval_field(model, p, ks + g)
            assert np.max(np.abs(fg - f0)) < 1e-10, name
    for g, S in zip((model.zone.g1, model.zone.g2), gauge):
        H = assemble(model, p, ks[:25])
        Hg = assemble(model, p, ks[:25] + g)
        assert np.allclose(Hg, S @ H @ S.conj().T, atol=1e-10), name
    if name == "kagome_n2":
        assert exact == (p["N"] % 2 == 0)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_assembled_matrix_hermitian(name):
    model = builtin_model(name)
    ks = RNG.uniform(-5, 5, (20, 2))
    H = assemble(model, None, ks)
    assert np.allclose(H, np.conj(np.swapaxes(H, -1, -2)), atol=1e-12)


@pytest.mark.parametrize("name", ["haldane", "haldane3nn", "triangular"])
def test_traceless_reduction_leaves_eigenvectors(name):
    model = builtin_model(name)

    def traceless(p):
        """The model's terms with the identity row of every T_R zeroed."""
        R, T = model.table.terms(p)
        c = np.einsum("cji,tij->tc", models.PAULI, np.asarray(T, dtype=complex)) / 2
        c[:, 3] = 0
        return R, models._pauli(c)

    stripped = BlochModel(
        model.name + "_traceless", 2, model.lattice, model.defaults,
        HoppingTable(traceless, model.zone),
    )
    for k in RNG.uniform(-4, 4, (20, 2)):
        _, v1 = np.linalg.eigh(assemble(model, None, k))
        _, v2 = np.linalg.eigh(assemble(stripped, None, k))
        for band in (0, 1):
            overlap = abs(np.vdot(v1[:, band], v2[:, band]))
            assert abs(overlap - 1.0) < 1e-10


def _hermitian_2x2(kind, a, c, re, im, scale):
    """One 2x2 Hermitian matrix with entries of size up to 10^scale; ``kind``
    forces a diagonal matrix with a < c or a > c, or an exact degeneracy."""
    if kind == "degenerate":
        c, re, im = a, 0.0, 0.0
    elif kind in ("rising", "falling"):
        lo, hi = sorted((a, c))
        a, c = (lo, hi + 1.0) if kind == "rising" else (hi + 1.0, lo)
        re = im = 0.0
    b = complex(re, im)
    return np.array([[a, b], [b.conjugate(), c]]) * 10.0**scale


#: a mantissa of size 1e-3 to 1, or zero, so that entries span 1e-9 to 1e6
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
_MATRIX = st.builds(
    _hermitian_2x2,
    st.sampled_from(["random", "rising", "falling", "degenerate"]),
    _ENTRY, _ENTRY, _ENTRY, _ENTRY,
    st.integers(-6, 6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_MATRIX, min_size=1, max_size=6))
def test_closed_form_eigh_matches_lapack(stack):
    """The 2x2 kernel: LAPACK's eigenvalues, eigenpairs to rounding, orthonormal
    columns, and no floating-point warning, even at an exact degeneracy."""
    H = np.array(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eigh(H)
    size = np.linalg.norm(H, axis=(-2, -1))
    tol = 1e-12 * size[:, None]
    assert np.all(np.abs(vals - np.linalg.eigvalsh(H)) <= tol)
    residual = np.linalg.norm(H @ vecs - vecs * vals[:, None, :], axis=-2)
    assert np.all(residual <= tol)
    gram = vecs.conj().swapaxes(-1, -2) @ vecs
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    assert np.array_equal(spectrum(H), vals)


def test_eigh_shapes_and_larger_matrices(monkeypatch):
    """A single matrix, a real stack and a complex stack keep the shapes and
    dtypes of np.linalg.eigh; 3x3 goes to np.linalg.eigh itself, looked up at
    call time."""
    rng = np.random.default_rng(5)
    vals, vecs = eigh(np.array([[2.0, 1.0], [1.0, -1.0]]))
    assert vals.shape == (2,) and vecs.shape == (2, 2) and vecs.dtype == float
    H = assemble(builtin_model("haldane"), None, rng.uniform(-4, 4, (3, 5, 2)))
    vals, vecs = eigh(H)
    assert vals.shape == (3, 5, 2) and vecs.shape == (3, 5, 2, 2) and vecs.dtype == complex
    kagome = assemble(builtin_model("kagome"), None, rng.uniform(-4, 4, (4, 2)))
    lapack, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: seen.append(M.shape) or lapack(M))
    vals, _ = eigh(kagome)
    assert seen == [(4, 3, 3)]
    assert np.array_equal(vals, lapack(kagome)[0])


def test_two_band_gap_closed_form():
    h = builtin_model("haldane")
    for k in RNG.uniform(-4, 4, (10, 2)):
        f = eval_field(h, None, k)
        ev = spectrum(assemble(h, None, k))
        assert abs(gap(h, None, k) - 2 * np.linalg.norm(f)) < 1e-12
        assert abs((ev[1] - ev[0]) - 2 * np.linalg.norm(f)) < 1e-10


def test_analytic_jacobian_matches_finite_differences():
    eps = 1e-4
    for name in TWO_BAND:
        model = builtin_model(name)
        if model.jac12 is None:
            continue
        p = model.params_with_defaults(None)
        for k in RNG.uniform(-3, 3, (5, 2)):
            J = model.jac12(p, k[0], k[1])
            for j in range(2):
                dk = np.zeros(2)
                dk[j] = eps
                fd = (
                    model.field(p, *(k + dk))[:2] - model.field(p, *(k - dk))[:2]
                ) / (2 * eps)
                assert np.allclose(J[:, j], fd, atol=1e-6), name


# ---------------------------------------------------------------------------
# pre-Dirac points
# ---------------------------------------------------------------------------


def test_haldane_pre_dirac_points_are_K_and_Kprime():
    h = builtin_model("haldane")
    pts = pre_dirac_points(h)
    assert len(pts) == 2
    K = K_POINT
    assert any(same_k(h.zone, p.k, K) for p in pts)
    assert any(same_k(h.zone, p.k, -K) for p in pts)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_haldane_n_pre_dirac_count(N):
    hn = builtin_model("haldane_n")
    pts = pre_dirac_points(hn, {"N": N})
    assert len(pts) == 2 * N * N
    assert all(not p.degenerate for p in pts)


def test_bhz_pre_dirac_points():
    b = builtin_model("bhz_square")
    pts = pre_dirac_points(b)
    got = sorted(tuple(np.round(p.frac, 6)) for p in pts)
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_mb_pre_dirac_signs():
    mb = builtin_model("mb_dirac")
    pts = pre_dirac_points(mb, {"M": 1.0, "B": 1.0})
    table = {tuple(np.round(p.frac, 6)): (p.jac_sign, round(p.h3, 9)) for p in pts}
    assert table == {
        (0.0, 0.0): (1, 1.0),
        (0.0, 0.5): (-1, 0.0),
        (0.5, 0.0): (-1, 0.0),
        (0.5, 0.5): (1, -1.0),
    }


def test_degenerate_pre_dirac_flagged():
    sq = builtin_model("square_power")
    pts = pre_dirac_points(sq, {"d": 2})
    assert pts and all(p.degenerate and p.jac_sign == 0 for p in pts)


def _seam_key(frac):
    return tuple(int(round(f * 1e6)) % 1000000 for f in frac)


def _on_probe(model, probe):
    return model if probe is None else _rotated_model(model, _rotation_to_z(RAYS[probe]))


@pytest.mark.parametrize("name", TWO_BAND)
def test_pre_dirac_matches_recorded_reference(name):
    """Same zeros, signs and flags, and h3 to 1e-8, as the recorded scalar loop;
    compared as sets, since the recorded order was not stable."""
    model = builtin_model(name)
    cases = [c for c in PRE_DIRAC_REFERENCE["cases"] if c["model"] == name]
    assert len(cases) == 21
    for case in cases:
        pts = pre_dirac_points(_on_probe(model, case["probe"]), case["params"])
        got = {_seam_key(q.frac): q for q in pts}
        want = {(z[0], z[1]): z[2:] for z in case["zeros"]}
        where = (name, case["params"], case["probe"])
        assert set(got) == set(want), where
        for key, (sign, degenerate, h3) in want.items():
            assert (got[key].jac_sign, got[key].degenerate) == (sign, degenerate), where
            assert abs(got[key].h3 - h3) < 1e-8, where


@pytest.mark.parametrize("name", TWO_BAND)
def test_pre_dirac_points_come_in_seam_key_order(name):
    """Sorted by integer key, so zeros whose fractional coordinates tie up to the
    last bits (triangular_n2: (1/6, ~0) and (1/6, 1/2)) keep their order."""
    keys = [_seam_key(q.frac) for q in pre_dirac_points(builtin_model(name))]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("name", TWO_BAND)
def test_rotated_jacobian_matches_central_differences(name):
    """A rotated ray's (h1, h2) Jacobian, its table's, matches central differences."""
    model = builtin_model(name)
    p = model.params_with_defaults(None)
    rng = np.random.default_rng(20261019)
    eps = 1e-5
    for probe in RAYS[1:]:
        rot = _rotated_model(model, _rotation_to_z(probe))
        assert rot.jac12 is not None
        k = rng.uniform(-3, 3, (6, 2))
        J = rot.jac12(p, k[:, 0], k[:, 1])
        for j in range(2):
            dk = np.zeros(2)
            dk[j] = eps
            hp, hm = rot.field(p, *(k + dk).T), rot.field(p, *(k - dk).T)
            fd = (hp[:, :2] - hm[:, :2]) / (2 * eps)
            assert np.allclose(J[:, :, j], fd, atol=1e-6), (name, probe)


@pytest.mark.parametrize("name", TWO_BAND)
def test_rotated_tables_are_first_class(name):
    """h -> R h conjugates every T_R by the SU(2) lift of R: the spectrum is the
    base model's, the rotation keeps the singular values of [Re c, Im c] and so
    ``gap_slope``, and the rotated table scales like any table.  Float params are
    jittered by +-20%, so that haldane's phi leaves pi/2 and h0 is not 0."""
    model = builtin_model(name)
    rng = np.random.default_rng(20261020)
    p = {
        key: val * rng.uniform(0.8, 1.2) if isinstance(val, float) else val
        for key, val in model.params_with_defaults(None).items()
    }
    for probe in RAYS[1:]:
        rot = _rotated_model(model, _rotation_to_z(probe))
        assert isinstance(rot.table, HoppingTable)
        k = rng.uniform(-4, 4, (12, 2))
        err = np.abs(spectrum(assemble(rot, p, k)) - spectrum(assemble(model, p, k))).max()
        assert err < 1e-12, (name, probe)
        assert rot.table.gap_slope(p) == pytest.approx(model.table.gap_slope(p), rel=1e-12)
        scaled = scale_model(rot, 3)
        assert np.allclose(assemble(scaled, p, k), assemble(rot, p, 3 * k), atol=1e-12)
        assert np.allclose(eval_field(scaled, p, k), eval_field(rot, p, 3 * k), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pre_dirac_degenerate_zeros_are_merged(d):
    """square_power has four zeros of (h1, h2) at frac (1/4 or 3/4, 1/4 or 3/4),
    of multiplicity d; Newton reaches them only linearly, and each counts once."""
    pts = pre_dirac_points(builtin_model("square_power"), {"d": d})
    assert all(q.degenerate and q.jac_sign == 0 for q in pts)
    got = np.array([q.frac for q in pts])
    near = np.round(got * 4) / 4
    assert sorted(map(tuple, near)) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    assert np.abs(got - near).max() < 1e-3


def test_pre_dirac_requires_two_band_field():
    with pytest.raises(ModelError):
        pre_dirac_points(builtin_model("kagome"))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TWO_BAND),
    st.lists(st.floats(0.8, 1.2), min_size=6, max_size=6),
    st.sampled_from([None, 1, 4]),
)
def test_pre_dirac_zeros_are_zeros_and_cancel(name, jitter, probe):
    """At +-20% jittered float params, on and off the +z ray: every returned zero
    has |(h1, h2)| < 1e-10, and where none is degenerate their signs cancel, as
    the degree of (h1, h2) / |(h1, h2)| on the torus, a map to the circle, is 0."""
    model = _on_probe(builtin_model(name), probe)
    p = model.params_with_defaults(None)
    p = {
        key: val * x if isinstance(val, float) else val
        for (key, val), x in zip(p.items(), jitter)
    }
    pts = pre_dirac_points(model, p)
    for q in pts:
        h = model.field(p, q.k[0], q.k[1])
        assert math.hypot(h[0], h[1]) < 1e-10, (name, p, probe)
    if not any(q.degenerate for q in pts):
        assert sum(q.jac_sign for q in pts) == 0, (name, p, probe)


def test_pre_dirac_points_of_a_sited_table():
    """bhz_square with its second orbital at (a1 + a2) / 2: the hops take the phase
    of the half-cell displacement, which moves no zero of (h1, h2), so the zeros,
    signs and h3 are bhz_square's although the Laurent exponents are over q = 2."""

    def terms(p):
        n, T = models._bhz(p)
        return n, T, ([[0, 0], [1, 1]], 2)

    table = HoppingTable(terms, models.SQUARE_ZONE)
    sited = BlochModel("sited", 2, "square", {"t1": 1.0, "m": 0.5}, table)
    got, want = pre_dirac_points(sited), pre_dirac_points(builtin_model("bhz_square"), {"m": 0.5})
    assert [q.frac for q in got] == [q.frac for q in want]
    assert [(q.jac_sign, q.degenerate) for q in got] == [(q.jac_sign, q.degenerate) for q in want]
    assert np.allclose([q.h3 for q in got], [q.h3 for q in want], atol=1e-12)


def test_pre_dirac_refuses_a_shared_factor():
    """h = sin kx (cos ky, sin ky, 0) + (0, 0, 1): h1 and h2 share the factor
    sin kx and vanish on the lines kx = 0 and pi, so no finite list holds the zeros."""

    def terms(p):
        return [[0, 0], [1, 1], [1, -1]], models._pauli(
            [[0, 0, 1, 0], [-0.5j, -0.5, 0, 0], [-0.5j, 0.5, 0, 0]]
        )

    model = BlochModel("shared", 2, "square", {}, HoppingTable(terms, models.SQUARE_ZONE))
    with pytest.raises(ModelError, match="share a factor"):
        pre_dirac_points(model)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "base, builtin",
    [
        ("haldane", "haldane_n2"),
        ("bhz_square", "square_n2"),
        ("triangular", "triangular_n2"),
        ("kagome", "kagome_n2"),
    ],
)
def test_scale_all_matches_builtin_haldane_n2(base, builtin):
    h = builtin_model(base)
    scaled = scale_model(h, 3, "all")
    hn2 = builtin_model(builtin)
    ks = RNG.uniform(-4, 4, (50, 2))
    assert np.allclose(coefficients(scaled, None, ks), coefficients(hn2, {"N": 3}, ks))
    assert np.allclose(
        assemble(scaled, None, ks[:5]), assemble(hn2, {"N": 3}, ks[:5])
    )


@pytest.mark.parametrize(
    "base, N",
    # kagome refuses even N (an even range ends on a site of the same species)
    [(b, n) for b in ("haldane", "bhz_square", "triangular") for n in (3, -2)]
    + [("kagome", 3), ("kagome", -3), ("bhz_square", -1)],
)
def test_scale_all_is_base_at_dilated_k(base, N):
    """scale_model(base, N) at k is base at N k, its (h1, h2) Jacobian N times base's."""
    h = builtin_model(base)
    scaled = scale_model(h, N, "all")
    p = h.params_with_defaults(None)
    ks = RNG.uniform(-4, 4, (20, 2))
    kx, ky = ks[:, 0], ks[:, 1]
    assert np.allclose(coefficients(scaled, p, ks), coefficients(h, p, N * ks))
    assert np.allclose(assemble(scaled, p, ks), assemble(h, p, N * ks))
    if h.jac12 is not None:
        assert np.allclose(scaled.jac12(p, kx, ky), N * h.jac12(p, N * kx, N * ky))


def test_every_catalog_model_is_a_hopping_table():
    for name in ALL_MODELS:
        assert isinstance(builtin_model(name).table, models.HoppingTable), name


@pytest.mark.parametrize(
    "base, builtin", [("haldane", "haldane_n"), ("triangular", "triangular_n")]
)
def test_scale_hopping_only_matches_haldane_n(base, builtin):
    h = builtin_model(base)
    hop = scale_model(h, -2, "hopping_only")
    hn = builtin_model(builtin)
    ks = RNG.uniform(-4, 4, (40, 2))
    assert np.allclose(eval_field(hop, None, ks), eval_field(hn, {"N": -2}, ks))


def test_scale_model_rejections():
    with pytest.raises(ModelError):
        scale_model(builtin_model("bhz_square"), 5, "all")  # 5 splits in Z[i]
    with pytest.raises(ModelError):
        scale_model(builtin_model("triangular"), 7, "all")  # 7 splits in Z[w]
    with pytest.raises(ModelError):
        scale_model(builtin_model("haldane"), 2, "hopping_only")  # hexagon center
    with pytest.raises(ModelError):
        scale_model(builtin_model("haldane"), 0, "all")
    with pytest.raises(ModelError):
        scale_model(builtin_model("bhz_square"), 2, "hopping_only")
    with pytest.raises(ModelError):
        scale_model(builtin_model("haldane"), 2, "bogus")


def test_scale_rejection_reason_mentions_number_theory():
    with pytest.raises(ModelError, match="split"):
        scale_model(builtin_model("bhz_square"), 5, "all")


def test_fold_bands_identity():
    b = builtin_model("bhz_square")
    assert fold_bands(b, 1) is b


def test_fold_bands_multiset_and_trace():
    b = builtin_model("bhz_square")
    folded = fold_bands(b, 2)
    assert folded.bands == 8
    shifts = [(0, 0), (0, math.pi), (math.pi, 0), (math.pi, math.pi)]
    for k in RNG.uniform(-3, 3, (10, 2)):
        Hf = assemble(folded, None, k)
        evs = spectrum(Hf)
        direct = np.sort(
            np.concatenate(
                [spectrum(assemble(b, None, k + np.array(v))) for v in shifts]
            )
        )
        assert np.allclose(evs, direct, atol=1e-10)
        assert abs(
            np.trace(Hf)
            - sum(np.trace(assemble(b, None, k + np.array(v))) for v in shifts)
        ) < 1e-10


@pytest.mark.parametrize("N", [True, "2", 2.5, 0, -1])
def test_fold_bands_needs_a_positive_integer(N):
    with pytest.raises(ModelError, match="positive integer"):
        fold_bands(builtin_model("bhz_square"), N)


@pytest.mark.parametrize("N", [True, "2", 2.5, 0])
def test_scale_model_needs_a_nonzero_integer(N):
    with pytest.raises(ModelError, match="nonzero integer"):
        scale_model(builtin_model("bhz_square"), N)


def test_fold_bands_rejections():
    with pytest.raises(ModelError):
        fold_bands(builtin_model("bhz_square"), 0)


def test_fold_bands_is_periodic_up_to_the_cell_phases():
    """H(k + g) = S H(k) S^dagger on the folded zone, and H(k + g) != H(k)."""
    folded = fold_bands(builtin_model("bhz_square"), 2)
    assert folded.periodicity == "conjugate"
    S1, S2 = folded.table.gauge(folded.defaults)
    for g, S in ((folded.zone.g1, S1), (folded.zone.g2, S2)):
        for k in RNG.uniform(-3, 3, (10, 2)):
            H, Hg = assemble(folded, None, k), assemble(folded, None, k + g)
            assert np.allclose(Hg, S @ H @ S.conj().T, atol=1e-10)
            assert np.abs(Hg - H).max() > 0.1


@pytest.mark.parametrize("name", ["haldane", "triangular", "kagome"])
def test_fold_bands_on_every_lattice(name):
    """On any zone the folded spectrum at k is the union of the base spectra at the
    N^2 shifts k + (c1 g1 + c2 g2) / N, and the folded matrix is periodic up to
    the gauge its sites give."""
    base = builtin_model(name)
    folded = fold_bands(base, 2)
    shifts = [base.zone.kpoint(c1 / 2, c2 / 2) for c1 in (0, 1) for c2 in (0, 1)]
    ks = RNG.uniform(-3, 3, (10, 2))
    direct = np.concatenate([spectrum(assemble(base, None, ks + v)) for v in shifts], axis=-1)
    assert np.allclose(spectrum(assemble(folded, None, ks)), np.sort(direct), atol=1e-10)
    H = assemble(folded, None, ks)
    for g, S in zip((folded.zone.g1, folded.zone.g2), folded.table.gauge(folded.defaults)):
        Hg = assemble(folded, None, ks + g)
        assert np.allclose(Hg, S @ H @ S.conj().T, atol=1e-10)
        assert np.abs(Hg - H).max() > 0.1


@pytest.mark.parametrize(
    "case",
    DERIVED_REFERENCE["derived"],
    ids=lambda c: f"{c['model']}-folded{c['fold']}" if c["fold"] else f"{c['model']}-N{c['params']['N']}",
)
def test_derived_tables_match_recorded_matrices(case):
    """The matrix itself, not only its spectrum, and the gap slope of folded and
    dilated tables: a unitarily equivalent super-cell convention passes every
    spectral test, yet can change the matrix and multiply gap_slope."""
    model = builtin_model(case["model"])
    if case["fold"]:
        model = fold_bands(model, case["fold"])
    p = model.params_with_defaults(case["params"])
    re, im = case["assemble"]
    err = np.abs(assemble(model, p, np.array(case["k"])) - (np.array(re) + 1j * np.array(im)))
    assert err.max() < 1e-12
    assert model.table.gap_slope(p) == pytest.approx(case["gap_slope"], rel=1e-12)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_gap_slope_matches_recorded(name):
    model = builtin_model(name)
    want = DERIVED_REFERENCE["catalog_gap_slope"][name]
    assert model.table.gap_slope(model.defaults) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N", [3, -3])
def test_folded_model_scales(N):
    """scale_model of a folded table is the folded model at N k, with N times its slope."""
    bhz = builtin_model("bhz_square")
    folded = fold_bands(bhz, 2)
    scaled = scale_model(folded, N, "all")
    ks = RNG.uniform(-3, 3, (10, 2))
    assert scaled.bands == 8
    assert np.allclose(assemble(scaled, None, ks), assemble(folded, None, N * ks))
    assert scaled.table.gap_slope(bhz.defaults) == pytest.approx(
        abs(N) * folded.table.gap_slope(bhz.defaults)
    )


# ---------------------------------------------------------------------------
# callbacks: the contract of a call counter
# ---------------------------------------------------------------------------


def _counted(model):
    """The model with its field and Jacobian callbacks counted, swapped in the way
    a tracing harness does it, and the running counts."""
    calls = {"field": 0, "jac12": 0}

    def counted(key, fn):
        def call(p, kx, ky):
            calls[key] += 1
            return fn(p, kx, ky)

        return call

    repl = {key: counted(key, getattr(model, key)) for key in calls}
    return dataclasses.replace(model, **repl), calls


@pytest.mark.parametrize(
    "run, jac12",
    [
        (pre_dirac_points, True),
        (degree_integral, False),
        (degree_ray, True),
        (lambda m: critical_points(m, "m", -1.0, 1.0), True),
    ],
    ids=["pre_dirac_points", "degree_integral", "degree_ray", "critical_points"],
)
def test_engines_call_the_model_callbacks(run, jac12):
    """Every 2-band engine evaluates h (and the root finders jac12) through the
    model's callbacks, so that a counter swapped in by ``dataclasses.replace``
    sees each call."""
    model, calls = _counted(builtin_model("bhz_square"))
    run(model)
    assert calls["field"] > 0
    assert (calls["jac12"] > 0) == jac12


def _derived_models():
    """Every catalog model, scaled by 3, and on each rotated probe; each also
    built from a counted model, whose callbacks a rule must not carry over."""
    for name in ALL_MODELS:
        model = builtin_model(name)
        yield name, model
        for base in (model, _counted(model)[0]):
            yield name + "_scaled3", scale_model(base, 3)
            if base.bands == 2:
                for probe in RAYS[1:]:
                    yield name + "_rot", _rotated_model(base, _rotation_to_z(probe))


def test_model_callbacks_are_the_tables():
    """``field`` and ``jac12`` are the table's own, for builtins and for every
    model a rule derives (3-band models have neither)."""
    rng = np.random.default_rng(20261021)
    for name, model in _derived_models():
        if model.bands != 2:
            assert model.field is None and model.jac12 is None, name
            continue
        p = model.params_with_defaults(None)
        kx, ky = rng.uniform(-4, 4, (2, 7))
        assert model.field == model.table.field and model.jac12 == model.table.jac12, name
        assert np.array_equal(model.field(p, kx, ky), model.table.field(p, kx, ky)), name
        assert np.array_equal(model.jac12(p, kx, ky), model.table.jac12(p, kx, ky)), name
