import hashlib
import tracemalloc

import numpy as np
import pytest

import lclt_lab.exactengine as ee
import lclt_lab.montecarlo as mc
from conftest import free_chain, nn_chain, random_model
from lclt_lab._system import build_system
from lclt_lab.errors import DegenerateDistributionError, DomainError
from lclt_lab.model import BoundaryCondition, Box, Coupling, GibbsModel, SpinInterval

SPEC = mc.ChainSpec(seed=11, burn_in=200, samples=2000, thinning=2, chains=4)


def test_seed_is_any_integer():
    """A numpy integer seed gives its int's stream; a count or seed that is
    not an integer is a DomainError before a sweep."""
    model = nn_chain(radius=2, strength=0.25, spin=(0, 1), boundary=1)
    for seed, same in ((5, (np.int64(5), np.uint64(5), np.int32(5))), (-7, (np.int64(-7),))):
        want = mc.total_spin_samples(model, mc.ChainSpec(seed=seed, burn_in=10, samples=100))
        for other in same:
            got = mc.total_spin_samples(model, mc.ChainSpec(seed=other, burn_in=10, samples=100))
            assert np.array_equal(got, want)
    for bad in (1.5, np.float64(5.0), True, np.bool_(True), "5", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            mc.ChainSpec(seed=bad, burn_in=10, samples=100)
    for name, bad in (("burn_in", 1.5), ("samples", 100.0), ("thinning", True), ("chains", 2.5)):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            mc.ChainSpec(**{"seed": 0, "burn_in": 10, "samples": 100, name: bad})


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
    pytest.param(
        nn_chain(radius=3, strength=0.125, spin=(-2, 2), boundary=1),
        mc.ChainSpec(seed=4, burn_in=15, samples=100, chains=3),
        "box",
        "6a5a88c4dd31bedb8f8a39a9e8db4c761c5c952f37ae5309eefedcd758a7b65c",
        id="q5-odd-block",
    ),
    pytest.param(
        nn_chain(radius=5, strength=0.25, spin=(-1, 1), boundary=1),
        mc.ChainSpec(seed=5, burn_in=37, samples=100, thinning=3, chains=2),
        "box",
        "8b831016c04ec4c5af8b229dc7674f7c24d054f6343d3f53fd42d27a6e49e000",
        id="six-chunks-thinned",
    ),
]


@pytest.mark.parametrize("model, spec, region, digest", SAMPLE_DIGESTS)
def test_samples_match_stored_digest(model, spec, region, digest):
    samples = mc.total_spin_samples(model, spec, region)
    assert samples.shape == (spec.chains, spec.samples)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


def _generator_draws(mixed, sweep, block, shape, q):
    """What Generator draws on a fresh Philox keyed by (sweep + 1, block)."""
    rng = np.random.Generator(np.random.Philox(key=[mixed, ((sweep + 1) << 32) | block]))
    return rng.integers(0, q, size=shape), rng.random(size=shape)


# q = 3 << 30 makes Lemire reject a quarter of all draws, so most rows of
# that tape are drawn again.
@pytest.mark.parametrize("q", [2, 3, 5, 3 << 30])
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4), (5, 7)], ids=["c1", "c9", "c8", "c35"])
def test_tape_matches_generator(q, shape):
    mixed = 0x0123456789ABCDEF
    rng = np.random.Generator(np.random.Philox())
    sweeps = range(3, 3 + 20)
    index, uniform = mc._block_draws(rng, mixed, sweeps, 1, shape, q)
    assert index.shape == uniform.shape == (len(sweeps), *shape)
    for row, sweep in enumerate(sweeps):
        want_index, want_uniform = _generator_draws(mixed, sweep, 1, shape, q)
        assert np.array_equal(index[row], want_index)
        assert np.array_equal(uniform[row], want_uniform)


def test_rejected_row_is_redrawn(monkeypatch):
    """A row whose first uint32 is 0 is rejected at q = 3 (0 * 3 leaves a
    low word below 2**32 mod 3 = 1), never at q = 2, and the rejected row
    is drawn again to Generator's output."""
    split = mc._split_raw

    def crafted(raw, draws, q):
        raw = raw.copy()
        raw[1, 0] = raw[1, 0] >> 32 << 32
        index, uniform, rejected = split(raw, draws, q)
        assert rejected.tolist() == [False, q == 3, False]
        assert index[1, 0] == 0
        return index, uniform, rejected

    monkeypatch.setattr(mc, "_split_raw", crafted)
    mixed = 77
    for q in (2, 3):
        rng = np.random.Generator(np.random.Philox())
        index, uniform = mc._block_draws(rng, mixed, range(3), 0, (3, 3), q)
        for sweep in range(3):
            want_index, want_uniform = _generator_draws(mixed, sweep, 0, (3, 3), q)
            if q == 2 and sweep == 1:
                # kept: the crafted word's index 0 stands, the rest is the stream
                assert index[1, 0, 0] == 0
                want_index[0, 0] = 0
            assert np.array_equal(index[sweep], want_index)
            assert np.array_equal(uniform[sweep], want_uniform)


def _per_block_samples(model, spec, region="box"):
    """The sampler with Generator drawing each (sweep, block)'s numbers when
    the sweep reaches the block, as it did before the tape, on the spins in
    site order with the fields added apart."""
    system = build_system(model, region)
    values = system.value_array
    q = len(values)
    coupling = system.pair_matrix()
    blocks = mc._greedy_coloring(coupling)
    mixed = (int(spec.seed) & 0xFFFFFFFFFFFFFFFF) ^ 0x9E3779B97F4A7C15
    rng = np.random.Generator(np.random.Philox())
    mc._rekey(rng.bit_generator, mixed, 0, len(blocks))
    spins = values[rng.integers(0, q, size=(spec.chains, system.site_count))]
    out = []
    for sweep in range(spec.burn_in + spec.samples * spec.thinning):
        for b, block in enumerate(blocks):
            mc._rekey(rng.bit_generator, mixed, sweep + 1, b)
            cur = spins[:, block]
            prop = values[rng.integers(0, q, size=cur.shape)]
            delta = (prop - cur) * (system.field_array[block] + spins @ coupling[:, block])
            accept = rng.random(size=cur.shape) < np.exp(np.minimum(delta, 0.0))
            spins[:, block] = np.where(accept, prop, cur)
        if sweep >= spec.burn_in and (sweep - spec.burn_in) % spec.thinning == 0:
            out.append(spins.sum(axis=1))
    return np.stack(out, axis=1)


def _explicit_model(radius, r0, pairs):
    """A 1-D box of the given radius under the explicit pairs (a, b, J) of
    site coordinates, spins {-1, 0, 1} and boundary 1."""
    return GibbsModel(
        box=Box(dimension=1, radius=radius, r0=r0),
        spin=SpinInterval(-1, 1),
        coupling=Coupling.explicit([((a,), (b,), j) for a, b, j in pairs]),
        boundary=BoundaryCondition.constant(1),
    )


# Two triangles and a pendant: three colour classes, so a site's neighbour
# sum takes its terms from two other classes, and none of these couplings is
# dyadic. Leaving site 3 out of the region makes its pair a field on site 2.
THREE_COLOURS = _explicit_model(
    3,
    1,
    [(-3, -2, 0.3), (-2, -1, -0.17), (-3, -1, 0.23), (-1, 0, 0.11)]
    + [(0, 1, 0.29), (1, 2, -0.31), (0, 2, 0.07), (2, 3, 0.13)],
)
# The even sites of a radius-4 box, coupled among themselves in two
# triangles and to odd sites outside the region, which become fields.
DECIMATED_COUPLED = _explicit_model(
    4,
    2,
    [(-4, -2, 0.3), (-2, 0, -0.21), (-4, 0, 0.17), (0, 2, 0.23), (2, 4, -0.13), (0, 4, 0.19)]
    + [(-3, -2, 0.27), (1, 2, -0.11), (3, 4, 0.37)],
)


@pytest.mark.parametrize(
    "model, region, spec",
    [
        (
            nn_chain(radius=3, strength=0.3, spin=(-1, 1), boundary=1),
            "box",
            mc.ChainSpec(seed=21, burn_in=37, samples=100, thinning=2, chains=3),
        ),
        (
            nn_chain(radius=3, strength=0.3, spin=(-2, 2), boundary=1),
            "box",
            mc.ChainSpec(seed=22, burn_in=mc.CHUNK_SWEEPS, samples=100, thinning=1, chains=3),
        ),
        (
            THREE_COLOURS,
            tuple((x,) for x in range(-3, 3)),
            mc.ChainSpec(seed=23, burn_in=37, samples=100, thinning=2, chains=3),
        ),
        # no burn-in: the first retained sample still shows the starting spins
        (DECIMATED_COUPLED, "decimated", mc.ChainSpec(seed=24, burn_in=0, samples=150, chains=4)),
    ],
    ids=["q3-237-sweeps", "q5-164-sweeps", "three-colours-explicit", "decimated-explicit"],
)
def test_chunked_tape_matches_per_block_draws(model, region, spec):
    """Over several chunks and a partial last one, with odd blocks (3 chains
    times 3 sites) and couplings that are not dyadic, the sampler on
    contiguous colour blocks with the fields in its links matches the
    per-block oracle bit for bit."""
    total_sweeps = spec.burn_in + spec.samples * spec.thinning
    assert total_sweeps > 2 * mc.CHUNK_SWEEPS and total_sweeps % mc.CHUNK_SWEEPS
    system = build_system(model, region)
    assert any(system.fields) and system.pairs
    if model is THREE_COLOURS:
        assert len(mc._greedy_coloring(system.pair_matrix())) == 3
    got = mc.total_spin_samples(model, spec, region)
    assert np.array_equal(got, _per_block_samples(model, spec, region))


# A star whose centre, coupled to every other site and to site 4 outside
# the region, is a colour class by itself; no coupling is dyadic.
STAR = _explicit_model(
    3,
    1,
    [(0, x, j) for x, j in ((-3, 0.3), (-2, -0.17), (-1, 0.23), (1, 0.11), (2, -0.29), (3, 0.07), (4, 0.21))]
    + [(3, 4, 0.13)],
)
# Three sites in a row: the middle one is a class by itself.
THREE_SITES = nn_chain(radius=1, strength=0.3, spin=(-1, 1), boundary=1)
# Burn-in past the first chunk; with thinning 3 the retained sweeps 128 and
# 191 open and close the third chunk.
CHUNK_EDGE = dict(burn_in=68, samples=100, thinning=3)


@pytest.mark.parametrize(
    "model, spec, sizes",
    [
        (STAR, mc.ChainSpec(seed=31, burn_in=20, samples=150, chains=2), [1, 6]),
        (STAR, mc.ChainSpec(seed=32, chains=5, **CHUNK_EDGE), [1, 6]),
        (THREE_SITES, mc.ChainSpec(seed=33, burn_in=10, samples=200, chains=3), [1, 2]),
        (THREE_SITES, mc.ChainSpec(seed=34, chains=5, **CHUNK_EDGE), [1, 2]),
    ],
    ids=["star-2-chains", "star-5-chains-chunk-edge", "three-sites-3-chains", "three-sites-5-chains-chunk-edge"],
)
def test_one_site_blocks_match_per_block_draws(model, spec, sizes):
    """A one-site colour class takes its local fields from a matrix-vector
    product, not a matrix product; with odd chain counts and retained sweeps
    on a chunk's first and last sweep the samples still match the per-block
    oracle bit for bit."""
    blocks = mc._greedy_coloring(build_system(model).pair_matrix())
    assert [len(b) for b in blocks] == sizes
    got = mc.total_spin_samples(model, spec)
    assert np.array_equal(got, _per_block_samples(model, spec))


def test_retained_totals_sum_as_site_order_does():
    """Free spins near 2**52 on 32 sites, redrawn at every sweep, make the
    totals (near 2**57) inexact, so the order of their sums shows: each
    chunk's totals are summed per chain over its sites, as the oracle sums
    each retained sweep."""
    model = free_chain(radius=16, spin=(1 << 52, (1 << 52) + 2))
    region = tuple((x,) for x in range(-16, 16))
    spec = mc.ChainSpec(seed=35, burn_in=0, samples=100, chains=2)
    got = mc.total_spin_samples(model, spec, region)
    assert np.array_equal(got, _per_block_samples(model, spec, region))


def test_retained_totals_take_a_chunk_sized_buffer():
    """Peak allocation stays near the (chains, samples) output: the sites of
    retained sweeps are held one chunk at a time. A buffer for the whole run
    would hold 32 times the output, at any sample count; 20000 samples keep
    the traced run short (tracemalloc slows the sweeps about fourfold)."""
    model = nn_chain(radius=16, strength=0.1, spin=(0, 1), boundary=1)
    spec = mc.ChainSpec(seed=36, burn_in=0, samples=20000, chains=4)
    tracemalloc.start()
    try:
        out = mc.total_spin_samples(model, spec, region=tuple((x,) for x in range(-16, 16)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 20000)
    assert peak < 3 * out.nbytes


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
    samples = mc.total_spin_samples(model, mc.ChainSpec(seed=3, burn_in=50, samples=4000, chains=4))
    spins = np.rint(samples).astype(np.int64).ravel()
    assert spins.min() == 0
    occ = np.bincount(spins) / len(spins)
    assert len(occ) == 4 and occ.all()
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
