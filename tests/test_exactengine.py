import itertools
import math

import numpy as np
import pytest

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
from conftest import free_chain, nn_chain, random_model
from lclt_lab._system import windowed_exterior
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
            log_w = lm.hamiltonian(model, lm.SpinConfig(sites=sites, values=values))
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
        weight = new
    probs = weight.sum(axis=0)
    return lo, probs / probs.sum()


@pytest.mark.parametrize("n, spin", [(20, (0, 1)), (12, (-1, 1))])
def test_multi_chunk_scan_matches_transfer_matrix(n, spin):
    """Past the 2^18-state chunk the scan splits into several chunks; its pmf
    and moments still match a transfer-matrix sum on the chain."""
    assert (spin[1] - spin[0] + 1) ** n > 1 << 18
    strength, omega = 0.3, spin[1]
    model = nn_chain(radius=n // 2, strength=strength, spin=spin, boundary=omega)
    region = lm.resolve_region(model, "box")[:n]
    # the two end sites each see one exterior neighbor at spin omega
    fields = [strength * omega] + [0.0] * (n - 2) + [strength * omega]
    lo, want = transfer_matrix_pmf(model.spin.values, strength, fields)
    table = ee.pmf(model, region)
    assert table.p_min == lo
    assert np.allclose(table.probabilities, want, rtol=1e-11, atol=1e-15)
    ps = np.arange(lo, lo + len(want))
    mean = float(ps @ want)
    stats = ee.statistics(model, region)
    assert stats.mean_S == pytest.approx(mean, rel=1e-11)
    assert stats.variance_S == pytest.approx(float((ps - mean) ** 2 @ want), rel=1e-10)


def test_budget_guard():
    model = nn_chain(radius=3, spin=(-1, 1))
    with pytest.raises(CapacityError):
        ee.partition_function(model, region="box", budget=100)
    # written out, 3^20000 would pass the int-to-str digit limit
    region = lm.resolve_region(nn_chain(radius=10000), "box")[:20000]
    with pytest.raises(CapacityError, match=r"needs 3\^20000 states, budget is 16777216"):
        ee.statistics(nn_chain(radius=10000), region)


def test_energy_shift_bound_keeps_weights_finite():
    """The shift bounds each term at its largest corner of the spin interval,
    so a strong negative coupling on {0, 1} no longer underflows every weight:
    Z counts the 34 configurations of 7 sites with no two adjacent ones."""
    model = nn_chain(radius=3, strength=-130, spin=(0, 1), boundary=None)
    assert ee.log_partition_function(model) == pytest.approx(math.log(34), rel=1e-12)


def test_frustrated_underflow_raises_capacity_error():
    # an antiferromagnetic triangle: the bound is 1200, the true max 400
    sites = ((-1,), (0,), (1,))
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=1, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit([(a, b, -400.0) for a, b in itertools.combinations(sites, 2)]),
        boundary=lm.BoundaryCondition.zero(),
    )
    message = r"3-site enumeration underflows to 0 when shifted by its log-weight bound 1200\.0"
    for fn in (ee.log_partition_function, ee.statistics, ee.pmf):
        with pytest.raises(CapacityError, match=message):
            fn(model)


def test_partition_function_overflow_raises_capacity_error():
    model = nn_chain(radius=3, strength=130, spin=(0, 1), boundary=1)
    log_z = ee.log_partition_function(model)
    assert 709.8 < log_z < math.inf
    with pytest.raises(CapacityError, match=r"log Z is 1040\.0, float64 ends at 709\.8"):
        ee.partition_function(model)


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
    scan = ee.decimated_char_fn_sup(model, ts, omega_samples=4, seed=1)
    assert scan.t == ts
    assert scan.entries, "scan must record the boundary fields it tried"
    assert all(len(values) == len(ts) for _, values in scan.entries)
    for k in range(len(ts)):
        assert scan.sup[k] >= scan.full_box_abs[k] - 1e-15
        assert scan.sup[k] == max(values[k] for _, values in scan.entries)
    assert ee.decimated_char_fn_sup(model, ts, omega_samples=4, seed=1) == scan


def test_decimated_entries_match_brute_force():
    """Each conditioning's grid of |cf| against a brute-force sum under its omega."""
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=2, r0=2),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.explicit(
            [((-2,), (0,), 0.2), ((0,), (1,), -0.15), ((1,), (2,), 0.1), ((-2,), (-1,), 0.25)]
        ),
        boundary=lm.BoundaryCondition.constant(1),
    )
    ts = np.array([0.1, 0.7, 2.0, math.pi])
    omega_samples, seed = 3, 5
    scan = ee.decimated_char_fn_sup(model, ts, omega_samples=omega_samples, seed=seed)

    # The conditioning set, rebuilt from its definition.
    window = windowed_exterior(model, "decimated")
    interior = [y for y in window if y in model.box]
    exterior = {y: model.boundary.omega(y) for y in window if y not in model.box}
    values = model.spin.values
    rng = np.random.default_rng(seed)
    omegas = {"all_lo": dict.fromkeys(window, -1), "all_hi": dict.fromkeys(window, 1)}
    for k in range(omega_samples):
        draw = rng.integers(0, len(values), size=len(window))
        omegas[f"random_{k}"] = {y: values[d] for y, d in zip(window, draw)}
    # conditional_idx spells idx in base q with the first interior site as
    # its lowest digit; product() varies its last position fastest.
    for idx, combo in enumerate(itertools.product(values, repeat=len(interior))):
        omegas[f"conditional_{idx}"] = {**exterior, **dict(zip(interior, reversed(combo)))}

    assert [label for label, _ in scan.entries] == list(omegas)
    for label, got in scan.entries:
        want = np.abs(brute_char_fn(model, "decimated", ts, omegas[label]))
        assert np.allclose(got, want, rtol=0, atol=1e-13), label

