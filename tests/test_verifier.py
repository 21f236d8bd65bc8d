import math

import numpy as np
import pytest

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.polymer as pg
import lclt_lab.verifier as vf
import oracles
from conftest import free_chain, nn_chain, regime_finite_range, regime_weak_coupling
from lclt_lab._system import build_system
from lclt_lab.errors import CapacityError, DomainError, PreconditionError


def test_constants_free_model_oracle():
    """With zero coupling: kappa = 1/card, delta = kappa / (12 sigma),
    and the curvature rate is sigma^2 kappa / 4."""
    model = free_chain(radius=2, spin=(-1, 1))
    c = vf.constants(model)
    assert c.kappa == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert c.delta == pytest.approx(1.0 / 36.0, rel=1e-15)
    assert c.gauss_decay == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert c.c_stated == pytest.approx(c.kappa * math.sin(c.delta / 2.0) ** 2, rel=1e-15)
    assert c.c_proved == pytest.approx(c.kappa**2 * math.sin(c.delta / 2.0) ** 2, rel=1e-15)
    assert c.c_selected == c.c_proved
    assert c.r0_condition_lhs == 0.0
    assert c.r0_condition_ok
    assert c.nu == 0.0 and c.eps == 0.0
    assert c.a_series == pytest.approx(math.log(2.0), rel=1e-15)
    assert c.a_dressed == pytest.approx(c.c_selected / 4.0, rel=1e-15)


def test_constants_binary_oracle():
    model = free_chain(radius=1, spin=(0, 1))
    c = vf.constants(model)
    assert c.kappa == 0.5
    assert c.delta == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert c.gauss_decay == 0.125


def test_constants_raise_when_delta_underflows():
    """kappa = e^-1600 / 2 is 0.0 in float64; the constants refuse instead of
    deriving a condition that passes as 0 <= 0."""
    model = nn_chain(radius=3, strength=400.0, spin=(0, 1), boundary=1, r0=2)
    for variant in ("proved", "stated"):
        with pytest.raises(CapacityError, match=r"log delta is -1603\.2, float64 normals end at -708\.4"):
            vf.constants(model, variant)
    # log delta = -2 J_full - log 24 with J_full = 2 J: a subnormal delta
    # raises too, while one just inside the normal range passes this check
    # and stops at the large-t rate c = kappa^2 sin^2(delta/2), far below it
    with pytest.raises(CapacityError, match=r"log delta is -709\.2"):
        vf.constants(nn_chain(radius=3, strength=176.5, spin=(0, 1), boundary=1, r0=2))
    with pytest.raises(CapacityError, match=r"rate c is not a positive normal float64: log c is -2825\.1"):
        vf.constants(nn_chain(radius=3, strength=176.0, spin=(0, 1), boundary=1, r0=2))


def test_large_t_rate_without_cancellation_or_underflow():
    """The dressed threshold takes expm1(c/4), which exp(c/4) - 1 rounds to
    0 once c/4 is below one ulp of 1; a rate c that underflows raises, naming
    log c, instead of making every large-t check e^0 = 1."""
    for strength in (1.0, 3.0):
        consts = vf.constants(nn_chain(radius=3, strength=strength, spin=(0, 1), boundary=1, r0=2))
        c, sigma = consts.c_selected, consts.sigma
        a = c / 4.0
        # a + a^2/2 is expm1(a) to within a^2/6 relative, far below 1e-15 here
        want = math.exp(-5.0 * c / 4.0) * (a + a * a / 2.0) / ((1.0 + consts.delta * sigma) * math.e * sigma**2)
        assert consts.r0_threshold_dressed > 0.0
        assert consts.r0_threshold_dressed == pytest.approx(want, rel=1e-14)
    # strength 50: the proved rate kappa^2 sin^2(delta/2) underflows, the stated one does not
    model = nn_chain(radius=3, strength=50.0, spin=(0, 1), boundary=1, r0=2)
    assert vf.constants(model, "stated").c_selected > 0.0
    with pytest.raises(CapacityError, match=r"the proved large-t rate c .* log c is -809\.1"):
        vf.constants(model, "proved")
    model = nn_chain(radius=3, strength=100.0, spin=(0, 1), boundary=1, r0=2)
    with pytest.raises(CapacityError, match=r"the stated large-t rate c .* log c is -1208\.4"):
        vf.constants(model, "stated")


def test_constants_variant_switch():
    model = regime_finite_range()
    proved = vf.constants(model, "proved")
    stated = vf.constants(model, "stated")
    assert stated.c_selected == stated.c_stated
    assert proved.c_selected == proved.c_proved
    assert proved.c_proved == pytest.approx(proved.kappa * proved.c_stated, rel=1e-12)
    with pytest.raises(DomainError):
        vf.constants(model, "optimistic")


def test_constants_as_dict_round():
    d = vf.constants(regime_finite_range()).as_dict()
    assert d["r0"] == 2
    assert d["step_norm"] == 0.0
    assert set(d) >= {"kappa", "delta", "gauss_decay", "c_stated", "c_proved", "nu", "eps"}


def test_min_r0_cases():
    assert vf.min_r0(free_chain(radius=2)) == 1
    assert vf.min_r0(regime_finite_range()) == 2
    assert vf.min_r0(regime_weak_coupling()) == 1
    # long-range coupling too strong for any step up to the cap
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=2, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.power_law(2.0, 3.0),
        boundary=lm.BoundaryCondition.zero(),
    )
    # the candidates differ only in r0, and the window totals are cached on
    # what they read, so each step's total is computed once
    vf._constants_cached.cache_clear()
    lm._window_coupling_total.cache_clear()
    with pytest.raises(PreconditionError):
        vf.min_r0(model, r0_max=6)
    assert lm._window_coupling_total.cache_info().misses == 6


def test_failing_branch_labels():
    model = nn_chain(radius=2, strength=0.5, spin=(-1, 1), boundary=None, r0=1)
    c = vf.constants(model)
    assert not c.r0_condition_ok
    labels = c.failing_branches()
    assert "small-t curvature budget" in labels
    assert "large-t dressed series" in labels


def test_single_spin_cf_contraction():
    model = regime_finite_range()
    c = vf.constants(model)
    grid = np.linspace(c.delta, 2 * math.pi - c.delta, 32)
    reports = vf.check_single_spin_cf(model, grid)
    assert len(reports) == 32
    assert vf.all_passed(reports)
    with pytest.raises(DomainError):
        vf.check_single_spin_cf(model, [c.delta / 2])


def test_small_t_decay_regimes():
    for model in (regime_finite_range(), regime_weak_coupling()):
        c = vf.constants(model)
        ts = [c.delta * f for f in (0.25, 0.7, 1.0)]
        reports = vf.check_small_t_decay(model, ts, seed=2)
        assert vf.all_passed(reports)
        for r in reports:
            assert r.check_name == "small_t_gaussian_decay"
            assert 0 < r.lhs <= r.rhs + 1e-15


def test_large_t_decay_regimes():
    for model in (regime_finite_range(), regime_weak_coupling()):
        c = vf.constants(model)
        ts = [c.delta + (math.pi - c.delta) * f for f in (0.2, 0.8, 1.0)]
        reports = vf.check_large_t_decay(model, ts, seed=2)
        assert vf.all_passed(reports)
        assert all(r.check_name == "large_t_volume_decay" for r in reports)


def test_decay_requires_admissible_step():
    model = nn_chain(radius=2, strength=0.5, spin=(-1, 1), boundary=None, r0=1)
    with pytest.raises(PreconditionError, match="dressed series"):
        vf.check_small_t_decay(model, [0.001])


def test_curvature_reports_biased_model():
    """Biased binary spins: every report holds except the as-displayed
    per-site bound on the quadratic cluster term, whose direction the
    -1/2 prefactor flips; the assembled total still passes. The same chain
    at radius 5000 (5001 decimated sites of one law) holds the identity to
    the same precision."""
    for model in (regime_finite_range(), nn_chain(radius=5000, strength=0.1, spin=(0, 1), boundary=1, r0=2)):
        c = vf.constants(model)
        reports = {r.check_name: r for r in vf.check_curvature_decomposition(model, theta=c.delta / 2)}
        assert reports["curvature_series_identity"].passed
        assert reports["curvature_series_identity"].lhs <= 1e-12
        assert reports["curvature_leading_term"].passed
        assert reports["curvature_derivative_sign"].passed
        assert reports["curvature_quadratic_chain"].passed
        assert reports["curvature_series_tail"].passed
        assert reports["curvature_total"].passed
        assert not reports["curvature_quadratic_term"].passed
        assert reports["curvature_quadratic_term"].lhs > reports["curvature_quadratic_term"].rhs


def test_curvature_reports_centered_model():
    """Centered spins: the quadratic term is tiny so its displayed bound
    holds, while the derivative-sign claim fails by order theta^2."""
    model = nn_chain(radius=3, strength=0.1, spin=(-1, 1), boundary=None, r0=2)
    c = vf.constants(model)
    reports = {r.check_name: r for r in vf.check_curvature_decomposition(model, theta=c.delta / 2)}
    assert reports["curvature_quadratic_term"].passed
    assert not reports["curvature_derivative_sign"].passed
    assert 0 < reports["curvature_derivative_sign"].lhs < (c.delta * c.sigma**2) ** 2
    assert reports["curvature_total"].passed


def test_curvature_rejects_coupled_region():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), r0=1)
    with pytest.raises(PreconditionError):
        vf.check_curvature_decomposition(model, theta=0.01)
    with pytest.raises(DomainError):
        vf.check_curvature_decomposition(regime_finite_range(), theta=1.0)


def test_site_checks_reject_empty_region():
    """An empty region has no single-site measure to bound: both checks
    raise a DomainError naming it instead of reporting on nothing."""
    model = regime_finite_range()
    c = vf.constants(model)
    with pytest.raises(DomainError, match=r"region \(\) has no sites"):
        vf.check_single_spin_cf(model, [c.delta], region=())
    with pytest.raises(DomainError, match=r"region \(\) has no sites"):
        vf.check_curvature_decomposition(model, theta=c.delta / 2, region=())


def _opposite_end_fields():
    """A 7-site chain whose end sites see fields -0.15 and +0.15 and whose
    inner sites see none: the two end laws are mirror images, so their
    |cf| tie, and the first site in np.unique's sorted order is the last."""
    return lm.GibbsModel(
        box=lm.Box(dimension=1, radius=3, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.nearest_neighbor(0.15),
        boundary=lm.BoundaryCondition.explicit([((-4,), -1), ((4,), 1)]),
    )


def test_single_spin_cf_matches_per_site_dot():
    """Each line's lhs against the largest of each site's own dot with its
    phases, within 1e-15 relative; the lhs is the largest one-site,
    one-t kernel value bit for bit, and the worst site is the first site
    attaining it, also where two mirror-image laws tie."""
    for model in (nn_chain(radius=4, strength=0.15, spin=(-1, 1), boundary=1, r0=1), _opposite_end_fields()):
        c = vf.constants(model)
        grid = np.linspace(c.delta, 2 * math.pi - c.delta, 9)
        system = build_system(model, "decimated")
        probs = system.site_probs()
        ties = 0
        for rep, t in zip(vf.check_single_spin_cf(model, grid), grid):
            vals = [abs(complex(np.dot(p, np.exp(1j * t * system.value_array)))) for p in probs]
            assert rep.lhs == pytest.approx(max(vals), rel=1e-15)
            kernel = [float(np.abs(ee._fourier(p, np.array([t])))[0]) for p in probs]
            assert rep.lhs == max(kernel)
            assert tuple(rep.parameters["worst_site"]) == system.sites[kernel.index(max(kernel))]
            ties += kernel[0] == kernel[-1] == max(kernel)
        if model.boundary.kind == "explicit":
            assert ties >= 4


def test_dressed_route_weak_coupling():
    """Large-t decay rebuilt from the dressed gas: the absolute dressed
    series through clusters of 4 polymers, plus its certified tail, stays
    within (c/4) |region| at t and at 0; |E(e^{itS})| stays under
    e^{-c n} e^{series at t + series at 0}; and under e^{-(c/2) n}."""
    model = regime_weak_coupling()
    consts = vf.constants(model)
    assert consts.r0_condition_ok
    t, c = 2.0, consts.c_selected
    n = len(lm.resolve_region(model, "decimated"))
    totals = []
    for tau in (t, 0.0):
        params = pg.ActivityParams(t=tau, c=c, delta_cap=consts.delta)
        series = pg.truncated_log_partition(model, params, "decimated", K=4, absolute=True)
        assert series.dominating_tail is not None
        totals.append(float(series.partial_sums[-1].real) + series.dominating_tail)
    assert max(totals) <= consts.a_dressed * n
    measured = abs(ee.char_fn(model, "decimated", t))
    assert measured <= math.exp(-c * n) * math.exp(sum(totals))
    assert measured <= math.exp(-(c / 2.0) * n)


def test_integral_decomposition():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    c = vf.constants(model)
    d = ee.statistics(model, region="decimated").variance_S
    a_cut = 0.5 * c.delta * math.sqrt(d)
    dec = vf.integral_decomposition(model, a_cut)
    assert dec.g_n <= dec.total + 1e-8
    assert dec.total == pytest.approx(dec.i1 + dec.i2 + dec.i3 + dec.i4, rel=1e-12)
    assert dec.bound_holds and dec.bound_margin >= -1e-8
    if dec.lemma_ok:
        assert dec.i2_within and dec.i2 <= dec.b_j2 + 1e-12
        assert dec.i3_within and dec.i3 <= dec.b_j3 + 1e-12
    with pytest.raises(DomainError):
        vf.integral_decomposition(model, c.delta * math.sqrt(d) * 1.5)


README_MODEL = nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2)
BOX_Q3 = nn_chain(radius=1, strength=0.05, spin=(-1, 1), boundary=1, r0=2, dimension=2)


@pytest.mark.parametrize(
    "model, a_cut",
    [
        (nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2), None),
        (nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2), None),
        (nn_chain(radius=2, strength=0.05, spin=(-1, 1), boundary=None, r0=1), None),
        (regime_weak_coupling(), None),
        (README_MODEL, 0.02),
        (BOX_Q3, None),
    ],
    ids=["c09-chain5", "c09-chain7", "c09-free-q2", "c09-weak", "readme", "box-q3"],
)
def test_integral_decomposition_matches_quad_route(model, a_cut):
    """Criterion 09's models (a_cut at half its range), the README model at
    --a-cut 0.02 and the 3x3 q = 3 box: every field of the decomposition
    keeps the bits of scipy's quad on scalar integrands."""
    if a_cut is None:
        a_cut = 0.5 * vf.constants(model).delta * math.sqrt(ee.statistics(model, region="decimated").variance_S)
    dec = vf.integral_decomposition(model, a_cut)
    i1, i2, i3 = oracles.integral_parts_by_quad(model, a_cut)
    assert abs(dec.i1 - i1) <= 1e-18
    total = i1 + i2 + i3 + dec.i4
    expected = {
        "i1": i1, "i2": i2, "i3": i3, "total": total, "bound_margin": total - dec.g_n,
        "bound_holds": dec.g_n <= total + vf.GAP_SLACK,
        "i2_within": i2 <= dec.b_j2 + vf.DECAY_INTEGRAL_SLACK,
        "i3_within": i3 <= dec.b_j3 + vf.DECAY_INTEGRAL_SLACK,
    }
    got = {key: getattr(dec, key) for key in expected}
    assert {k: v.hex() if isinstance(v, float) else v for k, v in got.items()} == {
        k: v.hex() if isinstance(v, float) else v for k, v in expected.items()
    }


def test_lclt_trend_free_models():
    rows = vf.lclt_trend([free_chain(radius=r) for r in (2, 4, 8)])
    counts = [row.site_count for row in rows]
    gaps = [row.gap for row in rows]
    assert counts == [5, 9, 17]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(row.variance_density == pytest.approx(0.25, rel=1e-12) for row in rows)


def test_report_dict_is_stable():
    model = regime_finite_range()
    c = vf.constants(model)
    rep = vf.check_single_spin_cf(model, [c.delta])[0]
    d = rep.as_dict()
    assert set(d) == {"check", "parameters", "lhs", "rhs", "margin", "pass"}
    # The verdict is lhs <= rhs unless the check passes its own.
    assert vf.report("tie", {}, 1.0, 1.0).passed
    assert not vf.report("strict", {}, 0.0, 0.0, passed=False).passed
