import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.montecarlo as mc
import lclt_lab.polymer as pg
import lclt_lab.verifier as vf
import oracles
from conftest import free_chain, frustrated_complete_graph, nn_chain, random_model, random_omega
from lclt_lab._system import System, _energy_bounds, build_system, windowed_exterior
from lclt_lab.errors import CapacityError, DegenerateDistributionError


def brute_char_fn(model, region, ts, omega=None):
    """sum over configurations of e^{-H} e^{itS} / Z, one term per config.

    Without omega the weight is the model's own Hamiltonian on the region;
    with omega every assigned site outside the region acts through J alone.
    """
    sites = lm.resolve_region(model, region)
    weights, spins = [], []
    for values in itertools.product(model.spin.values, repeat=len(sites)):
        if omega is None:
            log_w = oracles.hamiltonian(model, oracles.SpinConfig(sites=sites, values=values))
        else:
            log_w = sum(
                model.coupling.value(sites[i], sites[k]) * values[i] * values[k]
                for i, k in itertools.combinations(range(len(sites)), 2)
            )
            log_w += sum(
                model.coupling.value(x, y) * s * v
                for x, s in zip(sites, values)
                for y, v in omega.items()
                if y not in sites
            )
        weights.append(math.exp(log_w))
        spins.append(sum(values))
    weights = np.array(weights)
    return np.exp(1j * np.outer(ts, spins)) @ weights / weights.sum()


def two_site_pair_model():
    return lm.GibbsModel(
        box=lm.Box(dimension=1, radius=1, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit([((-1,), (1,), 0.1)]),
        boundary=lm.BoundaryCondition.zero(),
    )


def test_partition_function_two_site_oracle():
    # Z = sum over 9 spin pairs of e^{0.1 s1 s2} = 2e^0.1 + 2e^-0.1 + 5
    model = two_site_pair_model()
    z = ee.partition_function(model, region=((-1,), (1,)))
    assert z == pytest.approx(9.020016672223218, rel=1e-15)
    assert ee.log_partition_function(model, region=((-1,), (1,))) == pytest.approx(math.log(z), rel=1e-15)


def test_statistics_field_oracle():
    # two sites each seeing one exterior spin fixed at 1 through J = 0.1:
    # E S = 2 (e^0.1 - e^-0.1) / (e^0.1 + 1 + e^-0.1)
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=1, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.nearest_neighbor(0.1),
        boundary=lm.BoundaryCondition.explicit([((0,), 1)]),
    )
    stats = ee.statistics(model, region=((-1,), (1,)))
    assert stats.mean_S == pytest.approx(0.13311159151039637, rel=1e-14)
    assert stats.site_count == 2
    assert stats.variance_density == pytest.approx(stats.variance_S / 2.0, rel=1e-15)


def test_lclt_gap_free_site_oracle():
    # one fair binary site: sqrt(D) P - phi(z) peaks at 1/4 - phi(1)
    model = free_chain(radius=0)
    expected = 0.25 - math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert ee.lclt_gap(model, region="box") == pytest.approx(expected, rel=1e-14)
    assert ee.lclt_gap(model, region="box") == pytest.approx(0.008029275480856635, rel=1e-13)


def test_pmf_normalization_and_moments():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_model(rng)
        table = ee.pmf(model, region="decimated")
        probs = np.asarray(table.probabilities)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        assert (probs >= -1e-18).all()
        stats = ee.statistics(model, region="decimated")
        ps = np.arange(table.p_min, table.p_min + len(probs))
        assert float(ps @ probs) == pytest.approx(stats.mean_S, abs=1e-12)
        var = float((ps - stats.mean_S) ** 2 @ probs)
        assert var == pytest.approx(stats.variance_S, abs=1e-12)


def test_each_law_takes_its_moments_once(monkeypatch):
    """statistics, pmf, lclt_gap and the integral decomposition on the
    README model's box all read one law, whose mean offset and variance
    come from one _pmf_moments pass; a second region is a second law and a
    second pass."""
    passes = []
    real = ee._pmf_moments

    def counted(probs):
        passes.append(len(probs))
        return real(probs)

    monkeypatch.setattr(ee, "_pmf_moments", counted)
    ee._moments.cache_clear()
    model = nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    stats = ee.statistics(model)
    table = ee.pmf(model)
    ee.lclt_gap(model)
    decomposition = vf.integral_decomposition(model, a_cut=0.02)
    assert passes == [8]
    assert decomposition.mean == stats.mean_S == table.p_min + real(table.probability_array)[0]
    assert decomposition.variance == stats.variance_S
    ee.statistics(model, "decimated")
    assert passes == [8, 4]


def test_char_fn_against_pmf_transform():
    """The pmf Fourier transform agrees with a brute-force sum over configs."""
    rng = np.random.default_rng(4)
    for _ in range(8):
        model = random_model(rng)
        ts = np.linspace(0.0, math.pi, 9)
        brute = brute_char_fn(model, "decimated", ts)
        assert np.allclose(ee.char_fn(model, "decimated", ts), brute, rtol=0, atol=1e-12)
        for t, want in zip(ts, brute):
            assert ee.char_fn(model, region="decimated", t=t) == pytest.approx(want, abs=1e-12)


def test_char_fn_basic_symmetries():
    model = nn_chain(radius=2, strength=0.15, spin=(-1, 1), boundary=1)
    assert ee.char_fn(model, "box", 0.0) == pytest.approx(1.0, abs=1e-14)
    for t in (0.2, 0.9):
        plus = ee.char_fn(model, "box", t)
        minus = ee.char_fn(model, "box", -t)
        assert minus == pytest.approx(plus.conjugate(), abs=1e-13)
        assert abs(plus) <= 1.0 + 1e-13


def transfer_matrix_pmf(values, strength, fields):
    """pmf of S for a nearest-neighbor chain with per-site field slopes,
    summed site by site over (last spin, running total)."""
    values = np.asarray(values)
    assert values.min() <= 0 <= values.max(), "running totals must stay on the final support"
    n = len(fields)
    lo = n * int(values.min())
    # weight[v, p - lo]: the chain so far ends in values[v] with total p
    weight = np.zeros((len(values), n * int(np.ptp(values)) + 1))
    for v, s in enumerate(values):
        weight[v, s - lo] = math.exp(fields[0] * s)
    for b in fields[1:]:
        step = np.exp(strength * np.outer(values, values) + b * values)
        new = np.zeros_like(weight)
        for v, s in enumerate(values):
            new[v] = np.roll(step[:, v] @ weight, s)
        # rescaled at each site, so long chains stay finite
        weight = new / new.sum()
    probs = weight.sum(axis=0)
    return lo, probs / probs.sum()


def _one_row(route, system):
    """route's sums on the System's own fields: the one-row call _moments
    makes, as (shift, Z_shifted, bins, s_min)."""
    *sums, s_min = route(system, system.field_array[None])
    return (*(col[0] for col in sums), s_min)


@pytest.mark.parametrize("n, spin", [(20, (0, 1)), (12, (-1, 1))])
def test_multi_chunk_scan_matches_transfer_matrix(n, spin):
    """Past the 2^18-state chunk the scan splits into several chunks; its pmf
    and moments still match a transfer-matrix sum on the chain. The public
    entry points take the engine's transfer route on these chains, so _scan
    is called directly as well."""
    assert (spin[1] - spin[0] + 1) ** n > 1 << 18
    strength, omega = 0.3, spin[1]
    model = nn_chain(radius=n // 2, strength=strength, spin=spin, boundary=omega)
    region = lm.resolve_region(model, "box")[:n]
    # the two end sites each see one exterior neighbor at spin omega
    fields = [strength * omega] + [0.0] * (n - 2) + [strength * omega]
    lo, want = transfer_matrix_pmf(model.spin.values, strength, fields)
    ps = np.arange(lo, lo + len(want))
    mean = float(ps @ want)
    var = float((ps - mean) ** 2 @ want)

    sums = _one_row(ee._scan, build_system(model, region))
    _, z, bins, s_min = sums
    assert s_min == lo
    assert np.allclose(bins / z, want, rtol=1e-11, atol=1e-15)
    _, _, scan_mean, scan_var = _law(sums)
    assert scan_mean == pytest.approx(mean, rel=1e-11)
    assert scan_var == pytest.approx(var, rel=1e-10)

    table = ee.pmf(model, region)
    assert table.p_min == lo
    assert np.allclose(table.probabilities, want, rtol=1e-11, atol=1e-15)
    stats = ee.statistics(model, region)
    assert stats.mean_S == pytest.approx(mean, rel=1e-11)
    assert stats.variance_S == pytest.approx(var, rel=1e-10)


def _law(sums):
    """(log Z, pmf, mean, variance) from a (shift, Z, bins, s_min) tuple of
    either route, the moments by two passes over bins normalized to sum 1."""
    shift, z, bins, s_min = sums
    probs = bins / bins.sum()
    k = np.arange(len(probs))
    mu = float(probs @ k)
    return shift + math.log(z), bins / z, s_min + mu, float(probs @ (k - mu) ** 2)


def _banded_systems():
    """Banded systems of at most 24 sites, with their bandwidths."""
    rng = np.random.default_rng(11)
    out = []
    for spin, sizes in (((0, 1), (1, 9, 16, 24)), ((-1, 1), (6, 10, 14)), ((-1, 2), (6, 9))):
        for n in sizes:
            model = nn_chain(radius=12, strength=float(rng.uniform(-0.4, 0.4)), spin=spin, boundary=spin[1])
            start = int(rng.integers(-12, 14 - n))
            out.append((build_system(model, [(start + x,) for x in range(n)]), min(n - 1, 1)))
    # explicit couplings of range 2 and 3 along a path; pairs that leave the
    # box act as boundary fields
    for reach, n, spin in ((2, 16, (0, 1)), (3, 11, (-1, 1)), (3, 18, (0, 1))):
        pairs = [
            ((x,), (x + d,), float(rng.uniform(-0.5, 0.5)))
            for x in range(-n // 2, n // 2)
            for d in range(1, reach + 1)
            if rng.random() < 0.7
        ]
        model = lm.GibbsModel(
            box=lm.Box(dimension=1, radius=n // 2, r0=1),
            spin=lm.SpinInterval(*spin),
            coupling=lm.Coupling.explicit(pairs),
            boundary=lm.BoundaryCondition.constant(spin[1]),
        )
        out.append((build_system(model, "box"), reach))
    # 2D boxes: side 3 is a radius-1 box, side 4 a corner of a radius-2 box
    for spin in ((0, 1), (-1, 1)):
        model = nn_chain(radius=1, strength=0.25, spin=spin, boundary=1, dimension=2)
        out.append((build_system(model, "box"), 3))
    model = nn_chain(radius=2, strength=-0.2, spin=(0, 1), boundary=1, dimension=2)
    corner = [(a, b) for a in range(-2, 2) for b in range(-1, 3)]
    out.append((build_system(model, corner), 4))
    # decimated regions under the model's boundary and under omega overrides
    pairs = [((x,), (x + 2,), 0.2) for x in range(-10, 9, 2)] + [((x,), (x + 4,), -0.1) for x in range(-10, 7, 4)]
    pairs += [((x,), (x + 1,), 0.15) for x in range(-11, 11)]
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=10, r0=2),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit(pairs),
        boundary=lm.BoundaryCondition.constant(1),
    )
    out.append((build_system(model, "decimated"), 2))
    for _ in range(3):
        out.append((build_system(model, "decimated", omega=random_omega(rng, model)), 2))
    # R = 0: nearest-neighbour couplings never join two decimated sites
    model = nn_chain(radius=11, strength=0.3, spin=(-1, 2), boundary=2, r0=2)
    out.append((build_system(model, "decimated"), 0))
    out.append((build_system(model, "decimated", omega=random_omega(rng, model)), 0))
    return out


def test_transfer_route_matches_enumeration():
    """On banded systems of up to 24 sites the transfer sum and enumeration
    give the same law of S."""
    systems = _banded_systems()
    assert {band for _, band in systems} == {0, 1, 2, 3, 4}
    for system, band in systems:
        assert ee._bandwidth(system) == band
        scan, transfer = _one_row(ee._scan, system), _one_row(ee._transfer, system)
        assert transfer[3] == scan[3]
        log_z, probs, mean, var = _law(transfer)
        want_log_z, want_probs, want_mean, want_var = _law(scan)
        assert probs.shape == want_probs.shape
        assert np.abs(probs - want_probs).max() <= 1e-12, system.sites
        assert log_z == pytest.approx(want_log_z, rel=1e-12, abs=0), system.sites
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=0), system.sites
        assert var == pytest.approx(want_var, rel=1e-12, abs=0), system.sites


def test_transfer_keeps_band_configurations_far_below_the_top():
    """On an antiferromagnetic chain at strength -400 under a boundary of 1,
    the field -400 on its first site puts every configuration that starts
    with spin +1 e^800 below the others, and the field on its last site
    brings some of them back to the top: the transfer sum keeps them, as
    enumeration does, on 6, 8 and 12 sites (spins {-1, 0, 1}). On 24
    sites, past enumeration, its mean is that of the 49 ground states,
    -48/49, to within e^-400. In a call with a second row of zero fields,
    each row keeps the bits of its one-row call."""
    model = nn_chain(radius=12, strength=-400.0, spin=(-1, 1), boundary=1)
    box = lm.resolve_region(model, "box")
    for n in (6, 8, 12):
        system = build_system(model, box[:n])
        assert ee._cost(n, model.spin.card, ee._bandwidth(system))[0] is ee._transfer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transfer = _one_row(ee._transfer, system)
        log_z, probs, mean, var = _law(transfer)
        want_log_z, want_probs, want_mean, want_var = _law(_one_row(ee._scan, system))
        assert np.abs(probs - want_probs).max() <= 1e-12
        assert log_z == pytest.approx(want_log_z, rel=1e-12, abs=0)
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=0)
        assert var == pytest.approx(want_var, rel=1e-12, abs=0)
        fields = np.stack([system.field_array, np.zeros(n)])
        _assert_rows_match_one_row_calls([(ee._transfer, system, fields, ee._transfer(system, fields))])
    stats = ee.statistics(model, region=box[:24])
    assert math.isfinite(stats.mean_S) and math.isfinite(stats.variance_S)
    assert stats.mean_S == pytest.approx(-48 / 49, rel=1e-12)


# the most sites per spin count that keep enumeration to 2^14 states
_SITES_UP_TO = {2: 10, 3: 8, 4: 7}


@st.composite
def _banded_cases(draw):
    """(System, bandwidth, a second row of fields): 2 to 10 sites in a path,
    2 to 4 consecutive spin values, couplings of both signs up to 400 in
    magnitude between sites at most the bandwidth (1 to 3) apart, one of
    them at that distance, and fields of both signs up to 400."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(2, _SITES_UP_TO[q]))
    band = draw(st.integers(1, min(3, n - 1)))
    lo = draw(st.integers(-3, 1))
    strength = st.floats(-400.0, 400.0).filter(bool)
    near = [(i, j) for j in range(n) for i in range(max(0, j - band), j)]
    kept = draw(st.lists(st.booleans(), min_size=len(near), max_size=len(near)))
    widest = draw(st.integers(0, n - 1 - band))
    pairs = tuple(
        (i, j, draw(strength)) for (i, j), keep in zip(near, kept) if keep or (i, j) == (widest, widest + band)
    )
    rows = [draw(st.lists(st.floats(-400.0, 400.0), min_size=n, max_size=n)) for _ in range(2)]
    system = System(
        sites=tuple((x,) for x in range(n)), values=tuple(range(lo, lo + q)), pairs=pairs, fields=tuple(rows[0])
    )
    return system, band, np.array(rows[1])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_banded_cases())
def test_transfer_matches_enumeration_at_any_coupling(case):
    """At any coupling strength the transfer sum gives enumeration's law of
    S, with no numpy warning: the pmf to 1e-12, log Z and the mean to 1e-12
    relative to max(1, |value|). A two-row call gives each row the bits of
    its one-row call."""
    system, band, other = case
    assert ee._bandwidth(system) == band
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transfer = _one_row(ee._transfer, system)
        scan = _one_row(ee._scan, system)
        *both, s_min = ee._transfer(system, np.stack([system.field_array, other]))
        second = _one_row(ee._transfer, replace(system, fields=tuple(other.tolist())))
    log_z, probs, mean, _ = _law(transfer)
    want_log_z, want_probs, want_mean, _ = _law(scan)
    assert transfer[3] == scan[3] == s_min
    assert probs.shape == want_probs.shape
    assert np.abs(probs - want_probs).max() <= 1e-12
    assert abs(log_z - want_log_z) <= 1e-12 * max(1.0, abs(want_log_z))
    assert abs(mean - want_mean) <= 1e-12 * max(1.0, abs(want_mean))
    for r, one in enumerate((transfer, second)):
        row = [col[r] for col in both]
        assert _hex(*row[:2], *row[2]) == _hex(*one[:2], *one[2]), r


def test_route_dispatch(monkeypatch):
    """_moments takes the transfer route only when its work undercuts q^n:
    the README model's box and decimated systems stay on enumeration, a
    24-site chain does not."""
    calls = []
    for name in ("_scan", "_transfer"):
        route = getattr(ee, name)
        monkeypatch.setattr(
            ee, name, lambda system, fields, route=route, name=name: calls.append(name) or route(system, fields)
        )
    readme = nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    chain = nn_chain(radius=12, strength=0.1, spin=(0, 1), boundary=1)
    for model, region, route in (
        (readme, "box", "_scan"),
        (readme, "decimated", "_scan"),
        (chain, lm.resolve_region(chain, "box")[:24], "_transfer"),
    ):
        calls.clear()
        ee._moments.__wrapped__(build_system(model, region))
        assert calls == [route]


def test_budget_guard(monkeypatch):
    """The budget charges the work of the route _moments takes, n q^(R+1)
    (n(q-1)+1) transfer steps or q^n states: first at band 0, a lower bound
    on every route, before the System is built, then at the System's band."""
    model = nn_chain(radius=3, spin=(-1, 1))
    with pytest.raises(CapacityError, match=r"^transfer sum needs at least 7\*3\^1\*15 steps, budget is 100$"):
        ee.partition_function(model, region="box", budget=100)
    with pytest.raises(CapacityError, match=r"^transfer sum needs 7\*3\^2\*15 steps, budget is 400$"):
        ee.partition_function(model, region="box", budget=400)
    assert ee.partition_function(model, region="box", budget=945) > 0.0
    readme = nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    with pytest.raises(CapacityError, match=r"^enumeration needs 2\^7 states, budget is 120$"):
        ee.statistics(readme, budget=120)
    assert ee._cost(2000, 2, 1)[:2] == (ee._transfer, 16_008_000)
    assert ee._cost(7, 2, 1)[:2] == (ee._scan, 128)

    def no_build(*args, **kwargs):
        raise AssertionError("a System was built")

    monkeypatch.setattr(ee, "_build", no_build)
    # written out, 3^20000 would pass the int-to-str digit limit
    region = lm.resolve_region(nn_chain(radius=10000), "box")[:20000]
    message = r"^transfer sum needs at least 20000\*3\^1\*40001 steps, budget is 16777216$"
    with pytest.raises(CapacityError, match=message):
        ee.statistics(nn_chain(radius=10000), region)


def test_long_chain_runs_at_default_budget():
    """A 2000-site {0, 1} chain, far past enumeration, takes 2000*2^2*2001
    transfer steps, within the default budget; its moments and gap match a
    transfer-matrix sum over (last spin, running total)."""
    strength = 0.1
    model = nn_chain(radius=1000, strength=strength, spin=(0, 1), boundary=1)
    region = lm.resolve_region(model, "box")[:2000]
    lo, want = transfer_matrix_pmf(model.spin.values, strength, [strength] + [0.0] * 1998 + [strength])
    ps = np.arange(lo, lo + len(want))
    mean = float(ps @ want)
    var = float((ps - mean) ** 2 @ want)
    root = math.sqrt(var)
    gap = float(np.abs(root * want - np.exp(-((ps - mean) / root) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)).max())
    stats = ee.statistics(model, region)
    assert stats.site_count == 2000
    assert stats.mean_S == pytest.approx(mean, rel=1e-10)
    assert stats.variance_S == pytest.approx(var, rel=1e-9)
    assert ee.lclt_gap(model, region) == pytest.approx(gap, rel=1e-8)


def test_variance_matches_long_double_transfer_at_low_temperature():
    """Criterion 12's J = 3 chain at n = 2048 and 4096: the mean and the
    variance, taken by two passes over the pmf in spin offsets, match a
    long-double transfer sum with a two-pass variance within 1e-13
    relative."""
    model = nn_chain(radius=4096, strength=3.0, spin=(0, 1), boundary=1)
    sites = lm.resolve_region(model, "box")
    for n in (2048, 4096):
        mean, var = oracles.chain_moments_by_long_double_transfer(build_system(model, sites[:n]))
        stats = ee.statistics(model, sites[:n], budget=1 << 29)
        assert stats.variance_S == pytest.approx(var, rel=1e-13, abs=0), n
        assert stats.mean_S == pytest.approx(mean, rel=1e-13, abs=0), n


@pytest.mark.parametrize("k", [0, 10, 26, 40, 51])
def test_spins_far_from_zero_keep_the_variance(k):
    """Three free sites with spins {2^k, 2^k + 1}: the variance is 3/4 at
    every k and the mean 3 2^k + 3/2 rounded once, as the long-double
    transfer gives, and the pmf, the variance and the local-CLT gap are
    those of spins {0, 1} bit for bit, since the moments and the gap's
    Gaussian are taken in offsets S - n lo. So are every |phi| that no
    shift factor enters: the decay scan's table and the single-site lines'
    lhs on one grid. |char_fn| takes the shift factor e^{it(p_min + c)}
    once per t; that product and the modulus round once each, so it
    agrees within 2 eps relative, and within eps = one ulp of 1, the
    largest |phi|."""
    far = nn_chain(radius=1, strength=0.0, spin=(2**k, 2**k + 1), boundary=None)
    near = nn_chain(radius=1, strength=0.0, spin=(0, 1), boundary=None)
    stats = ee.statistics(far)
    assert (stats.mean_S, stats.variance_S) == (3 * 2**k + 1.5, 0.75)
    assert (stats.mean_S, stats.variance_S) == oracles.chain_moments_by_long_double_transfer(build_system(far))
    assert stats.variance_S == ee.statistics(near).variance_S
    assert ee.pmf(far).probabilities == ee.pmf(near).probabilities
    assert ee.lclt_gap(far) == ee.lclt_gap(near)
    ts = np.linspace(0.0, math.pi, 65)[1:]
    scans = [ee.decimated_char_fn_sup(model, ts).abs_cf for model in (far, near)]
    assert scans[0].tobytes() == scans[1].tobytes()
    # the near model's delta is the larger, so its grid lies in both ranges
    delta = vf.constants(near).delta
    grid = np.linspace(delta, 2 * math.pi - delta, 16)
    assert [r.lhs for r in vf.check_single_spin_cf(far, grid)] == [r.lhs for r in vf.check_single_spin_cf(near, grid)]
    far_abs, near_abs = (np.abs(ee.char_fn(model, "box", ts)) for model in (far, near))
    eps = np.finfo(float).eps
    assert (np.abs(far_abs - near_abs) <= np.minimum(2 * eps * near_abs, eps)).all()


def test_metropolis_agrees_with_the_exact_law_far_from_zero():
    """At spins {2^26, 2^26 + 1} Metropolis and the exact law agree on the
    mean and the variance within 5 standard errors."""
    model = nn_chain(radius=1, strength=0.0, spin=(2**26, 2**26 + 1), boundary=None)
    exact = ee.statistics(model)
    est = mc.sample_statistics(model, mc.ChainSpec(seed=5, burn_in=200, samples=2000, thinning=1, chains=4))
    for name, truth in (("mean", exact.mean_S), ("variance", exact.variance_S)):
        assert abs(est[name].value - truth) <= 5 * est[name].std_error, name


def test_totals_past_two_to_the_53_raise_a_typed_error():
    """Spins {2^53 - 1, 2^53}: on 5 sites |S| reaches 5 2^53, where float64
    cannot hold the mean, so the exact laws and the decay scan (3 decimated
    sites) raise a CapacityError naming n max|s|, not a bare ValueError
    from a bin index. One site fits: its mean 2^53 - 1/2 rounds once."""
    model = nn_chain(radius=2, strength=0.0, spin=(2**53 - 1, 2**53), boundary=None, r0=2)
    for call, sites, reach in (
        (ee.statistics, 5, 5 * 2**53),
        (ee.pmf, 5, 5 * 2**53),
        (ee.lclt_gap, 5, 5 * 2**53),
        (lambda model: ee.decimated_char_fn_sup(model, [0.5]), 3, 3 * 2**53),
    ):
        message = rf"^enumeration on {sites} sites: \|S\| reaches n\*max\|s\| = {reach}, past 2\^53"
        with pytest.raises(CapacityError, match=message):
            call(model)
    one = ee.statistics(model, region=((0,),))
    assert (one.mean_S, one.variance_S) == (2**53 - 0.5, 0.25)


@st.composite
def _shifted_cases(draw):
    """(near System, far System, L): 1 to 10 sites in a path, 2 to 4 spin
    values from 0, couplings in eighths up to 2 in magnitude between sites
    at most 3 apart and fields in eighths up to 8. The far System moves the
    spin interval by L = +-2^k, k up to 20, and takes the fields
    h_i - L sum_j J_ij, so its log weight is the near one's plus a
    constant, and every product and sum of either stays an exact float."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, _SITES_UP_TO[q]))
    within = [(i, j) for j in range(n) for i in range(max(0, j - 3), j)]
    couplings = draw(st.lists(st.integers(-16, 16), min_size=len(within), max_size=len(within)))
    pairs = tuple((i, j, m / 8) for (i, j), m in zip(within, couplings) if m)
    fields = [m / 8 for m in draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n))]
    shift = draw(st.sampled_from((-1, 1))) * 2 ** draw(st.integers(0, 20))
    far_fields = [h - shift * sum(v for i, j, v in pairs if x in (i, j)) for x, h in enumerate(fields)]
    sites = tuple((x,) for x in range(n))
    return (
        System(sites=sites, values=tuple(range(q)), pairs=pairs, fields=tuple(fields)),
        System(sites=sites, values=tuple(range(shift, shift + q)), pairs=pairs, fields=tuple(far_fields)),
        shift,
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_shifted_cases())
def test_law_in_offsets_does_not_depend_on_where_the_interval_sits(case):
    """Moving the spin interval by L (with the fields that keep the log
    weight's shape) moves the enumerated law of S by n L and nothing else:
    the pmf within 1e-12, the variance within 1e-12 relative, the mean
    within 1e-12 of n L plus the near mean, relative to max(1, |mean|), and
    |phi| on a t grid within the pmfs' l1 distance (|phi| is 1-Lipschitz in
    it) plus 4 eps for the shift factor's product and the modulus."""
    near, far, shift = case
    n = near.site_count
    *_, near_mean, near_var, near_table = oracles.law_by_row("enumeration", n, *_one_row(ee._scan, near))
    *_, far_mean, far_var, far_table = oracles.law_by_row("enumeration", n, *_one_row(ee._scan, far))
    assert far_table.p_min == near_table.p_min + n * shift
    assert np.abs(far_table.probability_array - near_table.probability_array).max() <= 1e-12
    assert far_var == pytest.approx(near_var, rel=1e-12, abs=1e-300)
    assert abs(far_mean - (n * shift + near_mean)) <= 1e-12 * max(1.0, abs(far_mean))
    ts = np.linspace(-math.pi, math.pi, 33)
    far_abs, near_abs = (np.abs(ee.char_from_pmf(table, ts)) for table in (far_table, near_table))
    gap = np.abs(far_table.probability_array - near_table.probability_array).sum()
    assert np.abs(far_abs - near_abs).max() <= gap + 4 * np.finfo(float).eps


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_fourier_is_batch_invariant_and_ties_mirror_images(rows, m, count, seed):
    """One _fourier call over a (rows, m) pmf array and a grid of count t
    values: each entry keeps the bits of its one-row, one-t call; a pmf's
    mirror image gets the same real part and the opposite imaginary part
    bit for bit, so the moduli tie; and each value is the plain Fourier sum
    over the centred offsets within m eps (the masses sum to 1, and each
    term rounds within a few eps of its mass)."""
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, m)) ** 4
    probs /= probs.sum(axis=1, keepdims=True)
    ts = rng.uniform(-2 * math.pi, 2 * math.pi, count)
    out = ee._fourier(probs, ts)
    assert out.shape == (rows, count)
    for r, j in itertools.product(range(rows), range(count)):
        assert ee._fourier(probs[r], ts[j : j + 1])[0] == out[r, j]
    mirror = ee._fourier(probs[:, ::-1], ts)
    assert mirror.real.tobytes() == out.real.tobytes()
    assert np.array_equal(-mirror.imag, out.imag)
    assert np.abs(mirror).tobytes() == np.abs(out).tobytes()
    plain = probs @ np.exp(1j * np.multiply.outer(np.arange(m) - (m - 1) / 2, ts))
    assert np.abs(plain - out).max() <= m * np.finfo(float).eps


def test_energy_shift_bound_keeps_weights_finite():
    """The shift bounds each term at its largest corner of the spin interval,
    so a strong negative coupling on {0, 1} no longer underflows every weight:
    Z counts the 34 configurations of 7 sites with no two adjacent ones."""
    model = nn_chain(radius=3, strength=-130, spin=(0, 1), boundary=None)
    assert ee.log_partition_function(model) == pytest.approx(math.log(34), rel=1e-12)


@pytest.mark.parametrize(
    "n, strength, bound", [(3, -400.0, 1200.0), (10, -19.0, 855.0)], ids=["triangle", "k10"]
)
def test_frustrated_couplings_match_brute_force(n, strength, bound):
    """Every weight shifted by the a-priori bound underflows; the rescan at
    the largest log weight gives log Z, moments and pmf of the brute-force
    sum over all 3^n configurations."""
    model, region = frustrated_complete_graph(n, strength)
    system = build_system(model, region)
    assert ee._energy_shifts(system, system.field_array[None]) == [bound]
    configs = np.array(list(itertools.product((-1, 0, 1), repeat=n)), dtype=float).T
    log_w = sum(strength * configs[a] * configs[b] for a, b in itertools.combinations(range(n), 2))
    top = float(log_w.max())
    assert bound - top > 745.2  # exp(top - bound) is 0.0 in float64
    w = np.exp(log_w - top)
    total = configs.sum(axis=0)
    z = math.fsum(w)
    mean = math.fsum(w * total) / z
    var = math.fsum(w * (total - mean) ** 2) / z
    law = {p: math.fsum(w[total == p]) / z for p in range(-n, n + 1)}

    log_z = ee.log_partition_function(model, region)
    assert math.isfinite(log_z) and log_z == pytest.approx(top + math.log(z), rel=1e-14)
    if n == 3:
        assert log_z == pytest.approx(400.0 + math.log(12.0), rel=1e-15)
    stats = ee.statistics(model, region)
    assert stats.mean_S == pytest.approx(mean, abs=1e-12)
    assert stats.variance_S == pytest.approx(var, rel=1e-9, abs=1e-15)
    table = ee.pmf(model, region)
    assert all(map(math.isfinite, table.probabilities))
    assert table.as_dict() == pytest.approx(law, rel=1e-12, abs=1e-300)


def test_partition_function_overflow_raises_capacity_error():
    model = nn_chain(radius=3, strength=130, spin=(0, 1), boundary=1)
    log_z = ee.log_partition_function(model)
    assert 709.8 < log_z < math.inf
    with pytest.raises(CapacityError, match=r"log Z is 1040\.0, float64 ends at 709\.8"):
        ee.partition_function(model)


def test_non_finite_sums_raise_capacity_error():
    """At strength 1e308 under a zero boundary every coupling and field is
    finite but the energy bound sum |J| sigma^2 + sum |h| sigma is not. The
    System refuses it, naming its largest pair, before any exact entry point
    or the polymer direct route sums, and no numpy warning is raised."""
    model = nn_chain(radius=3, strength=1e308, spin=(0, 1), boundary=None, r0=2)
    entries = (
        ee.statistics,
        ee.log_partition_function,
        ee.pmf,
        ee.lclt_gap,
        ee.partition_function,
        lambda mm: pg.polymer_partition(mm, pg.ActivityParams(t=0.3), region="box", mode="direct"),
        lambda mm: pg.char_fn_ratio(mm, "box", t=0.3, mode="direct"),
    )
    for call in entries:
        with warnings.catch_warnings(), pytest.raises(CapacityError) as err:
            warnings.simplefilter("error")
            call(model)
        assert str(err.value) == (
            "energy bound sum |J| sigma^2 + sum |h| sigma on 7 sites overflows float64;"
            " its largest term is the pair (-3,), (-2,) with J = 1e+308"
        )


_HOT_FIELDS = nn_chain(radius=3, strength=1e308, spin=(0, 1), boundary=1, r0=2)
_ENTRY_POINTS = {
    "statistics": lambda: ee.statistics(_HOT_FIELDS),
    "pmf": lambda: ee.pmf(_HOT_FIELDS),
    "partition_function": lambda: ee.partition_function(_HOT_FIELDS),
    "decay_scan": lambda: ee.decimated_char_fn_sup(_HOT_FIELDS, [0.5]),
    # under a zero boundary only the scan's conditioning rows overflow
    "decay_scan_rows": lambda: ee.decimated_char_fn_sup(
        replace(_HOT_FIELDS, boundary=lm.BoundaryCondition.zero()), [0.5]
    ),
    **{
        f"{mode}_c{c}": lambda mode=mode, c=c: pg.polymer_partition(
            _HOT_FIELDS, pg.ActivityParams(t=0.3, c=c), mode=mode
        )
        for mode in ("direct", "polymer_sum")
        for c in (0.0, 0.5)
    },
    "char_fn_ratio": lambda: pg.char_fn_ratio(_HOT_FIELDS, t=0.3),
    "continuous_log": lambda: pg.continuous_log_partition(_HOT_FIELDS, pg.ActivityParams(t=0.3)),
    "cluster_series": lambda: pg.truncated_log_partition(_HOT_FIELDS, pg.ActivityParams(t=0.3), K=2),
    "metropolis": lambda: mc.total_spin_samples(_HOT_FIELDS, mc.ChainSpec(seed=0, burn_in=0, samples=100)),
}


@pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_non_finite_field_names_its_site(call):
    """At strength 1e308 a constant boundary's field slope overflows: every
    engine refuses the System with a CapacityError naming the site, never
    an error about NaN."""
    with np.errstate(all="ignore"), pytest.raises(CapacityError) as err:
        call()
    message = str(err.value)
    assert re.match(r"^boundary field slope of site \(-?\d+,\) is -?inf, not finite in float64$", message)
    assert "nan" not in message


_HUGE = {
    "zero_boundary": nn_chain(radius=3, strength=1e308, spin=(0, 1), boundary=None),
    "constant_boundary": nn_chain(radius=3, strength=1e308, spin=(0, 1), boundary=1),
}
_HUGE_ENTRIES = {
    "metropolis": lambda model: mc.total_spin_samples(model, mc.ChainSpec(seed=0, burn_in=0, samples=100)),
    "statistics": ee.statistics,
    "lclt_gap": ee.lclt_gap,
    "polymer_partition": lambda model: pg.polymer_partition(model, pg.ActivityParams(t=0.3)),
    "single_spin_distribution": lambda model: oracles.single_spin_distribution(model, (0,)),
    # the fields alone: a System would refuse the pair first
    "boundary_field_coefficients": lambda model: oracles.field_slopes(model, model.box.sites, model.box.sites),
    "hamiltonian": lambda model: oracles.hamiltonian(
        model, oracles.SpinConfig(model.box.sites, (1,) * len(model.box.sites))
    ),
}
# A zero boundary gives every site the field 0 whatever the coupling, so the
# field-only entry points have an exact finite answer there.
_ZERO_FIELD = {
    "single_spin_distribution": {0: 0.5, 1: 0.5},
    "boundary_field_coefficients": (0.0,) * 7,
}


@pytest.mark.parametrize("entry", _HUGE_ENTRIES)
@pytest.mark.parametrize("chain", _HUGE)
def test_huge_chain_stops_without_warning(chain, entry):
    """At strength 1e308 every entry point that needs the couplings or an
    overflowing field stops with a CapacityError before any sum or sweep:
    numpy warns of nothing, and the message never speaks of NaN."""
    lm._window_coupling_total.cache_clear()
    call = _HUGE_ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if chain == "zero_boundary" and entry in _ZERO_FIELD:
            assert call(_HUGE[chain]) == _ZERO_FIELD[entry]
            return
        with pytest.raises(CapacityError) as err:
            call(_HUGE[chain])
    message = str(err.value)
    assert "nan" not in message.lower()
    if chain == "zero_boundary":
        assert message.endswith("its largest term is the pair (-3,), (-2,) with J = 1e+308")
    else:
        assert message.startswith("boundary field slope of site (")


@pytest.mark.parametrize("probabilities", [(math.nan, 1.0), (math.nan, math.nan), (0.5, math.inf), (1.0, -0.0, -1e-3)])
def test_pmf_table_refuses_nan_and_negative_mass(probabilities):
    with pytest.raises(RuntimeError, match="pmf"):
        ee.PmfTable(p_min=0, probabilities=probabilities)


def test_pmf_table_arrays_are_read_only_and_built_once():
    """A table's probability array is built on first use, shared by later
    reads and read-only. char_from_pmf is the kernel over the offsets
    j = k - c >= 0 centred at c = (m - 1)/2, its two mirror-folded real
    sums written out here, times the shift factor e^{it(p_min + c)} per t,
    bit for bit and for each t alone as on the grid; its value is the
    pmf's plain Fourier sum within 4 eps. lclt_gap reads the same array."""
    model = nn_chain(radius=3, strength=0.1, spin=(-1, 2), boundary=1)
    table = ee.pmf(model)
    probs = table.probability_array
    assert probs is table.probability_array and probs.tolist() == list(table.probabilities)
    with pytest.raises(ValueError, match="read-only"):
        probs[0] = 0
    ts = np.linspace(-math.pi, math.pi, 9)
    # an even width and an odd one, whose centre is its own mirror image
    for law in (table, ee.pmf(replace(model, spin=lm.SpinInterval(-1, 1)))):
        p = np.asarray(law.probabilities)
        m = len(p)
        h = (m + 1) // 2
        upper, lower, j = p[m - h :], p[h - 1 :: -1], np.arange(m - h, m) - (m - 1) / 2
        arg = np.multiply.outer(ts, j)
        kernel = np.vecdot(np.where(j == 0, upper, upper + lower), np.cos(arg))
        kernel = kernel + 1j * np.vecdot(upper - lower, np.sin(arg))
        assert ee._fourier(law.probability_array, ts).tobytes() == kernel.tobytes()
        want = kernel * np.exp(1j * (ts * (law.p_min + (m - 1) / 2)))
        assert ee.char_from_pmf(law, ts).tobytes() == want.tobytes()
        assert [ee.char_from_pmf(law, t) for t in ts] == want.tolist()
        ps = np.arange(law.p_min, law.p_min + m)
        assert np.abs(want - np.exp(1j * np.multiply.outer(ts, ps)) @ p).max() <= 4 * np.finfo(float).eps
    ps = np.arange(table.p_min, table.p_min + len(probs))
    stats = ee.statistics(model)
    root_d = math.sqrt(stats.variance_S)
    z = (ps - stats.mean_S) / root_d
    gauss = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    assert ee.lclt_gap(model) == float(np.abs(root_d * np.asarray(table.probabilities) - gauss).max())


def _shift_cases():
    """Systems with and without pairs (and one without sites), each with
    rows of field slopes holding signed zeros, mixed signs, 1e300-scale
    slopes that cancel, and random ones; and 40 sites of random slopes
    over six decades, where a pairwise sum adds in another order."""
    rng = np.random.default_rng(31)
    pairs = ((0, 1, 0.3), (1, 2, -0.7), (0, 3, 1e-3), (2, 3, -0.0))
    rows = [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [1.5, -2.25, 0.1, -0.1],
        [1e300, -1e300, 3e299, -0.0],
        [-1e300, 1e300, 1e300, -1e300],
        [0.1, 1e300, -1e300, 0.1],
        *rng.normal(scale=3.0, size=(6, 4)).tolist(),
    ]
    sites = tuple((x,) for x in range(4))
    for values in ((0, 1), (-1, 1), (-1, 0, 1, 2), (-2, -1, 0)):
        for with_pairs in (pairs, ()):
            fields = np.array(rows)
            yield System(sites, values, with_pairs, tuple(fields[-1].tolist())), fields
    yield System((), (0, 1), (), ()), np.zeros((3, 0))
    wide = rng.normal(size=(8, 40)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(8, 40))
    yield System(tuple((x,) for x in range(40)), (-1, 0, 1), pairs, tuple(wide[0].tolist())), wide


def test_energy_shifts_and_bounds_match_python_sums_bit_for_bit():
    """The row-wise cumulative sums give each row's energy shift and energy
    bound with the bits of the per-row Python sums."""
    for system, fields in _shift_cases():
        got = ee._energy_shifts(system, fields)
        assert isinstance(got, list) and len(got) == len(fields)
        assert _hex(*got) == _hex(*oracles.energy_shifts_by_rows(system, fields)), (system.values, system.pairs)
        bounds = _energy_bounds(system.pairs, system.values, fields)
        want = (oracles.energy_bound_by_row(system.pairs, system.values, row) for row in fields.tolist())
        assert _hex(*bounds) == _hex(*want)


# (column of the sums, offset from the middle row, value) of each corruption
_BAD_ROWS = {
    "shift_inf": [(0, 0, math.inf), (1, 1, 0.0)],
    "z_zero": [(1, 0, 0.0), (0, 1, math.nan)],
    "z_negative": [(1, 0, -1.0), (1, 1, -2.0)],
    "z_nan": [(1, 0, math.nan)],
    "bins_inf": [(2, 0, math.inf), (1, 1, 0.0)],
    "bins_nan": [(2, 0, math.nan)],
    # past the clip and the normalization: masses that overflow the row sum
    # drift to 0, masses that overflow alone turn NaN
    "drifted": [(2, 0, 1e308), (1, 0, 1.0)],
    "nan_mass": [(2, 0, 1e308), (1, 0, 0.5)],
}


@pytest.mark.parametrize("bad", _BAD_ROWS.values(), ids=_BAD_ROWS.keys())
def test_scan_refuses_the_row_a_per_row_law_refuses_first(monkeypatch, bad):
    """A route whose sums turn bad from the middle row of a group on: the
    scan's array pass raises the error, with its message, that the scalar
    per-row law (oracles.law_by_row) raises first row by row, a
    CapacityError for sums float64 cannot hold and the PmfTable
    RuntimeError for a pmf that drifts or holds NaN. The route's
    shifts are replaced by the row indices, which no row's pmf reads, so a
    CapacityError's message names its row."""
    model = nn_chain(radius=1, strength=0.05, spin=(-1, 1), boundary=1, r0=2, dimension=2)
    seen = []

    def route(system, fields, real=ee._scan):
        _, z, bins, s_min = real(system, fields)
        # each row's shift is its index, so an error's message names its row
        sums = [list(map(float, range(len(z)))), list(z), bins.copy()]
        middle = len(z) // 2
        for col, offset, value in bad:
            sums[col][middle + offset] = value
        seen.append((middle, *sums, s_min))
        return (*sums, s_min)

    monkeypatch.setattr(ee, "_scan", route)
    with np.errstate(all="ignore"), pytest.raises((CapacityError, RuntimeError)) as got:
        ee.decimated_char_fn_sup(model, [0.3, 2.0])
    [(middle, *sums, s_min)] = seen
    assert len(sums[1]) >= 5
    with np.errstate(all="ignore"), pytest.raises((CapacityError, RuntimeError)) as want:
        for r, row in enumerate(zip(*sums)):
            oracles.law_by_row("enumeration", 1, *row, s_min)
    assert r == middle
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    if isinstance(got.value, CapacityError) and bad[0][0] != 0:
        assert f"the shift is {float(middle)!r} and" in str(got.value)
    if bad == _BAD_ROWS["drifted"]:
        assert str(got.value) == "pmf normalization drifted to 0.0"


def test_degenerate_distribution_raises():
    # field of 30 pins the spin, so the total-spin variance underflows
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=0, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.nearest_neighbor(30.0),
        boundary=lm.BoundaryCondition.explicit([((1,), 1)]),
    )
    with pytest.raises(DegenerateDistributionError):
        ee.lclt_gap(model, region="box")
    empty = ee.statistics(model, region=())
    assert empty.site_count == 0
    with pytest.raises(DegenerateDistributionError, match="empty region"):
        empty.variance_density


def test_decimated_sup_dominates_full_box():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    ts = (0.05, 0.4, 2.0)
    scan = ee.decimated_char_fn_sup(model, ts, seed=1)
    assert scan.t == ts
    assert scan.entries, "scan must record the boundary fields it tried"
    assert all(len(values) == len(ts) for _, values in scan.entries)
    full_box_abs = np.abs(ee.char_fn(model, "box", ts))
    for k in range(len(ts)):
        assert scan.sup[k] >= full_box_abs[k] - 1e-15
        assert scan.sup[k] == max(values[k] for _, values in scan.entries)
    assert ee.decimated_char_fn_sup(model, ts, seed=1) == scan


def test_decay_scan_keeps_its_table_as_one_read_only_array():
    """The scan's |cf| table is one read-only (conditionings, t) array;
    entries, one (label, tuple of floats) pair per conditioning, is built
    from it on first read. Two scans whose random rows differ, with the
    same labels, compare unequal through the table alone."""
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    ts = (0.05, 0.4, 2.0)
    scan = ee.decimated_char_fn_sup(model, ts, seed=1)
    assert "entries" not in vars(scan)
    assert scan.abs_cf.shape == (len(scan.labels), len(ts)) and not scan.abs_cf.flags.writeable
    assert scan.entries == tuple((label, tuple(row)) for label, row in zip(scan.labels, scan.abs_cf.tolist()))
    assert {type(v) for _, row in scan.entries for v in row} == {float}
    assert scan.entries is scan.entries
    other = ee.decimated_char_fn_sup(model, ts, seed=2)
    assert other.labels == scan.labels and not np.array_equal(other.abs_cf, scan.abs_cf)
    assert other != scan


def test_decimated_scan_budget_charges_every_realized_conditioning():
    """The 2D q = 3 box's one decimated site has four coupled interior
    neighbours: 3^4 realized conditionings, each a 3-state enumeration."""
    model = nn_chain(radius=1, strength=0.05, spin=(-1, 1), boundary=1, r0=2, dimension=2)
    message = r"^enumeration over 3\^4 conditionings needs 3\^4\*3\^1 states, budget is 242$"
    with pytest.raises(CapacityError, match=message):
        ee.decimated_char_fn_sup(model, [0.1], budget=242)
    assert len(ee.decimated_char_fn_sup(model, [0.1], budget=243).entries) == 2 + ee.OMEGA_SAMPLES + 81


def test_decimated_entries_match_brute_force():
    """Each conditioning's grid of |cf| against a brute-force sum under its
    omega, on a 1D explicit table and on the 2D q = 3 box whose 3^8 interior
    combinations hold 81 distinct ones (the 4 nearest neighbours of its one
    decimated site)."""
    models = [
        lm.GibbsModel(
            box=lm.Box(dimension=1, radius=2, r0=2),
            spin=lm.SpinInterval(-1, 1),
            coupling=lm.Coupling.explicit(
                [((-2,), (0,), 0.2), ((0,), (1,), -0.15), ((1,), (2,), 0.1), ((-2,), (-1,), 0.25)]
            ),
            boundary=lm.BoundaryCondition.constant(1),
        ),
        nn_chain(radius=1, strength=0.15, spin=(-1, 1), boundary=1, r0=2, dimension=2),
    ]
    ts = np.array([0.1, 0.7, 2.0, math.pi])
    seed = 5
    for model in models:
        scan = ee.decimated_char_fn_sup(model, ts, seed=seed)

        # The conditioning set, rebuilt from its definition: the realized
        # ones run over the interior window sites that couple to the region.
        region = lm.resolve_region(model, "decimated")
        window = windowed_exterior(model, "decimated")
        interior = [
            y for y in window if y in model.box and any(model.coupling.value(x, y) != 0.0 for x in region)
        ]
        exterior = {y: model.boundary.omega(y) for y in window if y not in model.box}
        values = model.spin.values
        rng = np.random.default_rng(seed)
        omegas = {"all_lo": dict.fromkeys(window, -1), "all_hi": dict.fromkeys(window, 1)}
        for k in range(ee.OMEGA_SAMPLES):
            draw = rng.integers(0, len(values), size=len(window))
            omegas[f"random_{k}"] = {y: values[d] for y, d in zip(window, draw)}
        # conditional_idx spells idx in base q with the first interior site
        # as its lowest digit; product() varies its last position fastest.
        for idx, combo in enumerate(itertools.product(values, repeat=len(interior))):
            omegas[f"conditional_{idx}"] = {**exterior, **dict(zip(interior, reversed(combo)))}

        assert [label for label, _ in scan.entries] == list(omegas)
        for label, got in scan.entries:
            want = np.abs(brute_char_fn(model, "decimated", ts, omegas[label]))
            assert np.allclose(got, want, rtol=0, atol=1e-13), label


@pytest.mark.parametrize(
    "model",
    [
        nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2),
        nn_chain(radius=1, strength=0.05, spin=(-1, 1), boundary=1, r0=2, dimension=2),
    ],
    ids=["readme-chain", "box-2d-q3"],
)
def test_decimated_scan_worst_and_rows(model):
    """worst names the first entry attaining each sup (every t point of the
    README model has a tie), and the all_lo, all_hi and conditional_0 rows
    equal |_fourier| of the pmf under that explicit omega bit for bit."""
    ts = np.linspace(0.05, math.pi, 64)
    scan = ee.decimated_char_fn_sup(model, ts)
    for k in range(len(ts)):
        values = [row[k] for _, row in scan.entries]
        assert scan.sup[k] == max(values)
        assert scan.worst[k] == scan.entries[values.index(scan.sup[k])][0]

    region = lm.resolve_region(model, "decimated")
    window = windowed_exterior(model, "decimated")
    lo, hi = model.spin.lo, model.spin.hi
    coupled = [y for y in window if y in model.box and any(model.coupling.value(x, y) != 0.0 for x in region)]
    omegas = {
        "all_lo": dict.fromkeys(window, lo),
        "all_hi": dict.fromkeys(window, hi),
        "conditional_0": {
            **{y: model.boundary.omega(y) for y in window if y not in model.box},
            **dict.fromkeys(coupled, lo),
        },
    }
    entries = dict(scan.entries)
    for label, omega in omegas.items():
        conditioned = replace(model, boundary=lm.BoundaryCondition.explicit(omega))
        want = np.abs(ee._fourier(ee.pmf(conditioned, "decimated").probability_array, ts))
        assert entries[label] == tuple(want.tolist()), label


def _hex(*values):
    return [float(v).hex() for v in values]


def _route_calls(monkeypatch):
    """Record (route, System, fields, sums) of every route call, the route
    the unwrapped one."""
    calls = []
    for name in ("_scan", "_transfer"):

        def traced(system, fields, route=getattr(ee, name)):
            out = route(system, fields)
            calls.append((route, system, fields, out))
            return out

        monkeypatch.setattr(ee, name, traced)
    return calls


def _assert_rows_match_one_row_calls(calls):
    """Each row's sums and law equal, by float.hex, those of the one-row
    call on its own System, and _moments of that System; the scalar law of
    oracles.law_by_row on the row's sums gives _moments' law and the row of
    one _pmfs pass over every row."""
    for route, system, fields, (*sums, s_min) in calls:
        pmfs = ee._pmfs("route", system.site_count, *sums, s_min)
        for r, row in enumerate(fields):
            own = replace(system, fields=tuple(row.tolist()))
            got = [col[r] for col in sums]
            want = _one_row(route, own)
            assert want[3] == s_min
            assert _hex(*got[:2], *got[2]) == _hex(*want[:2], *want[2]), (system.sites, r)
            got_law = oracles.law_by_row("route", system.site_count, *got, s_min)
            shift, z, mu, var, table = ee._moments.__wrapped__(own)
            assert table.p_min == s_min
            assert _hex(*got_law[:4], *got_law[4].probabilities) == _hex(
                shift, z, s_min + mu, var, *table.probabilities
            ), (system.sites, r)
            assert _hex(*pmfs[r]) == _hex(*got_law[4].probabilities), (system.sites, r)


def _conditioning_fields(model, seed):
    """(rows, n) fields of the decimated region under the all_lo, all_hi,
    OMEGA_SAMPLES random and every realized conditioning, each row the
    fields of build_system under that omega."""
    region = lm.resolve_region(model, "decimated")
    window = windowed_exterior(model, "decimated")
    coupled = [y for y in window if y in model.box and any(model.coupling.value(x, y) != 0.0 for x in region)]
    exterior = {y: model.boundary.omega(y) for y in window if y not in model.box}
    rng = np.random.default_rng(seed)
    omegas = [dict.fromkeys(window, model.spin.lo), dict.fromkeys(window, model.spin.hi)]
    omegas += [random_omega(rng, model) for _ in range(ee.OMEGA_SAMPLES)]
    omegas += [{**exterior, **dict(zip(coupled, c))} for c in itertools.product(model.spin.values, repeat=len(coupled))]
    return np.array([build_system(model, "decimated", omega=omega).fields for omega in omegas])


def test_scan_rows_match_per_row_moments_bit_for_bit(monkeypatch):
    """A route called on many rows of fields gives each row the bits of a
    one-row call on that row's System: on the conditionings of the README
    decimated region and of the 2-D q = 3 box (91 rows, enumeration), of a
    25-site weak chain (transfer route), and on a frustrated complete graph
    where some rows take the second pass and some do not. A decay scan run
    in groups of a few rows gives the entries of the one-group scan."""
    scans = [
        (nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2), ee._scan, 10 + 2**4),
        (nn_chain(radius=1, strength=0.05, spin=(-1, 1), boundary=1, r0=2, dimension=2), ee._scan, 10 + 3**4),
        (nn_chain(radius=12, strength=1e-11, spin=(0, 1), boundary=1, r0=1), ee._transfer, 10 + 1),
    ]
    ts = np.linspace(0.05, math.pi, 16)
    for model, route, rows in scans:
        system = build_system(model, "decimated")
        assert ee._cost(system.site_count, model.spin.card, ee._bandwidth(system))[0] is route
        fields = _conditioning_fields(model, seed=7)
        assert fields.shape == (rows, system.site_count)
        _assert_rows_match_one_row_calls([(route, system, fields, route(system, fields))])

        whole = ee.decimated_char_fn_sup(model, ts)
        window = windowed_exterior(model, "decimated")
        work = ee._cost(system.site_count, model.spin.card, ee._bandwidth(system))[1]
        monkeypatch.setattr(ee, "_CHUNK_TARGET", 3 * max(work, system.site_count * len(window)))
        calls = _route_calls(monkeypatch)
        grouped = ee.decimated_char_fn_sup(model, ts)
        monkeypatch.undo()
        assert len(calls) == -(-rows // 3)
        assert [(label, _hex(*v)) for label, v in grouped.entries] == [(label, _hex(*v)) for label, v in whole.entries]
        assert (grouped.sup, grouped.worst) == (whole.sup, whole.worst)

    model, region = frustrated_complete_graph(7, -19.0)
    system = build_system(model, region)
    fields = np.random.default_rng(23).normal(scale=60.0, size=(8, 7))
    # rows 1 to 3 take the second pass, row 3 at a top far below row 1's
    fields[:4] = np.array([0.0, 400.0, -400.0, 200.0])[:, None]
    out = ee._scan(system, fields)
    second = np.array(out[0]) != ee._energy_shifts(system, fields)
    assert second[1:4].all() and not second[0] and not second.all()
    _assert_rows_match_one_row_calls([(ee._scan, system, fields, out)])


def _window_walk(model, region):
    """windowed_exterior as a walk over every (site, offset) candidate."""
    sites = lm.resolve_region(model, region)
    radius, d = model.truncation_radius, model.box.dimension
    out = set()
    for x in sites:
        for off in itertools.product(range(-radius, radius + 1), repeat=d):
            y = tuple(a + b for a, b in zip(x, off))
            if y not in sites:
                out.add(y)
    return tuple(sorted(out))


def test_windowed_exterior_matches_candidate_walk():
    for d, box_radius, r0 in [(1, 0, 1), (1, 3, 2), (1, 5, 3), (2, 1, 2), (2, 3, 1), (3, 1, 1), (3, 2, 2)]:
        for radius in (0, 1, 2, 4):
            model = replace(nn_chain(radius=box_radius, r0=r0, dimension=d), truncation_radius=radius)
            for region in ("box", "decimated"):
                assert windowed_exterior(model, region) == _window_walk(model, region), (d, box_radius, radius)
    with pytest.raises(CapacityError, match="spans up to"):
        windowed_exterior(replace(nn_chain(radius=3, dimension=3), truncation_radius=40), "box")
    with pytest.raises(CapacityError, match="windowed exterior holds"):
        windowed_exterior(replace(nn_chain(radius=0), truncation_radius=600_000), "box")
