import hashlib

import numpy as np
import pytest

import lclt_lab.exactengine as ee
import lclt_lab.montecarlo as mc
from conftest import free_chain, nn_chain, random_model
from lclt_lab._system import build_system
from lclt_lab.errors import DegenerateDistributionError, DomainError

SPEC = mc.ChainSpec(seed=11, burn_in=200, samples=2000, thinning=2, chains=4)


def test_chain_spec_validation():
    with pytest.raises(DomainError):
        mc.ChainSpec(seed=0, burn_in=10, samples=99)
    with pytest.raises(DomainError):
        mc.ChainSpec(seed=0, burn_in=10, samples=100, chains=1)
    with pytest.raises(DomainError):
        mc.ChainSpec(seed=0, burn_in=-1, samples=100)
    with pytest.raises(DomainError):
        mc.ChainSpec(seed=0, burn_in=0, samples=100, thinning=0)


def test_samples_deterministic():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1)
    a = mc.total_spin_samples(model, SPEC)
    b = mc.total_spin_samples(model, SPEC)
    assert a.shape == (SPEC.chains, SPEC.samples)
    assert np.array_equal(a, b)
    c = mc.total_spin_samples(model, mc.ChainSpec(seed=12, burn_in=200, samples=2000, thinning=2, chains=4))
    assert not np.array_equal(a, c)


# sha256 of total_spin_samples(...).tobytes() on four fixed specs. Dyadic
# couplings and integer spins keep every neighbour sum exact, so BLAS
# summation order cannot move a sample. A change to the streams, to the
# draw order (integers, then random) or to the colour classes moves a digest.
SAMPLE_DIGESTS = [
    pytest.param(
        nn_chain(radius=6, strength=0.25, spin=(0, 1), boundary=1),
        mc.ChainSpec(seed=1, burn_in=40, samples=150, chains=2),
        "box",
        "fbfee23be26eff13363069806eba340eee208330f5e2f20a4735d990ed22bb93",
        id="q2-chain",
    ),
    pytest.param(
        nn_chain(radius=2, strength=0.125, spin=(-1, 1), boundary=1, dimension=2),
        mc.ChainSpec(seed=2, burn_in=20, samples=100, chains=3),
        "box",
        "f51e313a471fc562d7cde15bd50730d0ff97474e0e6249fc57cd690bd6de9c01",
        id="q3-2d-box",
    ),
    pytest.param(
        nn_chain(radius=4, strength=0.375, spin=(0, 1), boundary=1, r0=2),
        mc.ChainSpec(seed=3, burn_in=30, samples=120, thinning=2, chains=2),
        "decimated",
        "c3014d812eefbf483b30919530f6f650bd5fc7f23d48d26cf5eff17976125751",
        id="decimated-thinned",
    ),
    pytest.param(
        nn_chain(radius=3, strength=-0.25, spin=(-1, 0), boundary=None),
        mc.ChainSpec(seed=-7, burn_in=10, samples=100, chains=5),
        "box",
        "b3a14b898c09430d6711cb70e3e95766ff6580de90d9df9b482d8b7bff993309",
        id="five-chains-negative-seed",
    ),
]


@pytest.mark.parametrize("model, spec, region, digest", SAMPLE_DIGESTS)
def test_samples_match_stored_digest(model, spec, region, digest):
    samples = mc.total_spin_samples(model, spec, region)
    assert samples.shape == (spec.chains, spec.samples)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


def _full_scan_coloring(n, coupling):
    """The colouring rule with every site scanned for each site."""
    degree = (coupling != 0.0).sum(axis=1)
    color = [-1] * n
    for i in sorted(range(n), key=lambda i: (-degree[i], i)):
        taken = {color[j] for j in range(n) if color[j] >= 0 and coupling[i, j] != 0.0}
        c = 0
        while c in taken:
            c += 1
        color[i] = c
    return [np.array([i for i in range(n) if color[i] == c], dtype=np.intp) for c in range(max(color) + 1)]


def test_coloring_matches_full_scan():
    rng = np.random.default_rng(8)
    models = [random_model(rng) for _ in range(20)]
    models.append(nn_chain(radius=4, strength=0.1, spin=(0, 1), boundary=1, dimension=2))
    for model in models:
        coupling = build_system(model).pair_matrix()
        got = mc._greedy_coloring(coupling)
        want = _full_scan_coloring(len(coupling), coupling)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        for block in got:
            assert not coupling[np.ix_(block, block)].any()


def test_empty_region_is_degenerate():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1)
    with pytest.raises(DegenerateDistributionError, match="empty region"):
        mc.sample_statistics(model, mc.ChainSpec(seed=0, burn_in=0, samples=100), region=())


def test_free_sites_occupancy_binomial():
    """Three uncoupled binary sites: the total is Binomial(3, 1/2)."""
    model = free_chain(radius=1, spin=(0, 1))
    occ = mc.state_occupancy(model, mc.ChainSpec(seed=3, burn_in=50, samples=4000, chains=4))
    assert set(occ) == {0, 1, 2, 3}
    for total, want in ((0, 0.125), (1, 0.375), (2, 0.375), (3, 0.125)):
        assert occ[total] == pytest.approx(want, abs=0.02)


def test_statistics_match_exact():
    model = nn_chain(radius=2, strength=0.2, spin=(-1, 1), boundary=1)
    exact = ee.statistics(model)
    est = mc.sample_statistics(model, SPEC)
    for key, truth in (("mean", exact.mean_S), ("variance", exact.variance_S)):
        e = est[key]
        assert e.std_error > 0
        assert abs(e.value - truth) <= 4.0 * e.std_error
        assert 1.0 < e.n_effective <= SPEC.chains * SPEC.samples


def test_pmf_gap_tracks_exact():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=None)
    truth = ee.lclt_gap(model)
    big = mc.ChainSpec(seed=7, burn_in=300, samples=6000, thinning=2, chains=4)
    est = mc.sample_pmf_gap(model, big)["gap"]
    assert abs(est.value - truth) <= max(4.0 * est.std_error, 0.02)


def test_decimated_region_sampling():
    model = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    est = mc.sample_statistics(model, SPEC, region="decimated")
    exact = ee.statistics(model, region="decimated")
    assert abs(est["mean"].value - exact.mean_S) <= 4.0 * est["mean"].std_error


def test_pinned_chain_is_degenerate():
    model = nn_chain(radius=1, strength=30.0, spin=(0, 1), boundary=1)
    with pytest.raises(DegenerateDistributionError):
        mc.sample_pmf_gap(model, mc.ChainSpec(seed=5, burn_in=400, samples=500, chains=2))


def test_estimate_from_series_shrinks():
    rng = np.random.default_rng(0)
    series = rng.normal(size=(4, 4000))
    est = mc._estimate_from_series(series, 4, 4000)
    assert est.value == pytest.approx(0.0, abs=0.05)
    assert est.std_error == pytest.approx(1.0 / np.sqrt(series.size), rel=0.5)
