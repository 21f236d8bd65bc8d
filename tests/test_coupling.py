"""The coupling kernel against the scalar Coupling.value.

Every J(x, y) the engines use comes from Coupling.between over site arrays,
through model._couplings_within where only sites within a sup-norm radius
can couple. The loops below are the site-by-site forms those callers had,
on Coupling.value; the kernel must give their pairs, blocks and fields bit
for bit. The System build's one search over the region and its boundary
sites must give the pairs and fields of its earlier two searches
(oracles.system_by_two_searches), bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import oracles
from lclt_lab._system import _build, _omega_items, build_system, windowed_exterior
from lclt_lab.errors import CapacityError


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _loop_pairs(model, region):
    pairs = []
    for i, x in enumerate(region):
        for k in range(i + 1, len(region)):
            j = model.coupling.value(x, region[k])
            if j != 0.0:
                pairs.append((i, k, j))
    return tuple(pairs)


def _loop_block(model, region, window):
    coords = np.asarray(window, dtype=np.int64).reshape(len(window), -1)
    reach = math.inf if model.coupling.kind == "explicit" else model.truncation_radius
    block = np.zeros((len(region), len(window)))
    for i, x in enumerate(region):
        for k in np.flatnonzero(np.abs(coords - np.asarray(x)).max(axis=1) <= reach):
            block[i, k] = model.coupling.value(x, window[k])
    return block


def _loop_fields(model, region):
    """Field slopes: an explicit coupling summed over its table in order; a
    translation-invariant one over an explicit boundary's assignments in
    order, or under a constant one as the window total less each site's
    in-window region part, each an np.sum."""
    bc, radius, d = model.boundary, model.truncation_radius, model.box.dimension
    if model.coupling.kind == "explicit":
        totals = dict.fromkeys(region, 0.0)
        for a, b, j in model.coupling.pairs:
            if a in totals and b not in totals:
                totals[a] += j * bc.omega(b)
            elif b in totals and a not in totals:
                totals[b] += j * bc.omega(a)
        return list(totals.values())
    if bc.kind == "explicit":
        exterior = [(y, v) for y, v in bc.assignments if v != 0 and y not in set(region)]
        out = []
        for x in region:
            total = 0.0
            for y, v in exterior:
                if max(abs(a - b) for a, b in zip(x, y)) <= radius:
                    total += model.coupling.value(x, y) * v
            out.append(total)
        return out
    offsets = (np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius).tolist()
    window_total = float(np.array([model.coupling.value((0,) * d, tuple(z)) for z in offsets]).sum())
    ys = np.asarray(region, dtype=np.int64)
    out = []
    for x in region:
        near = ys[np.abs(ys - np.asarray(x)).max(axis=1) <= radius].tolist()
        part = np.array([model.coupling.value(x, tuple(y)) for y in near])
        out.append(bc.value * (window_total - float(part.sum())))
    return out


def _couplings(d, rng):
    """A nearest-neighbour, a power-law and an explicit coupling in dimension
    d; the power law is weak enough for a truncation window of a few sites,
    and the table reaches past the box."""
    sites = list(itertools.product(range(-4, 5), repeat=d))
    pairs = {}
    while len(pairs) < 12:
        x = sites[int(rng.integers(len(sites)))]
        y = tuple(c + int(s) for c, s in zip(x, rng.integers(-2, 3, size=d)))
        if x != y:
            pairs[min(x, y), max(x, y)] = float(rng.uniform(-0.3, 0.3))
    strength = {1: 1e-4, 2: 1e-8, 3: 1e-9}[d]
    return [
        lm.Coupling.nearest_neighbor(float(rng.uniform(-0.3, 0.3))),
        lm.Coupling.power_law(strength, d + 3.0 + 0.7 * d),
        lm.Coupling.explicit([(x, y, j) for (x, y), j in pairs.items()]),
    ]


def _cases():
    """Each coupling on a small box and on a larger one, with the box, the
    decimated region and a few sites picked at random as the region, and a
    dense explicit table."""
    rng = np.random.default_rng(11)
    for d, radius in ((1, 2), (1, 90), (2, 2), (2, 8), (3, 1)):
        for coupling in _couplings(d, rng):
            box = lm.Box(dimension=d, radius=radius, r0=2)
            model = lm.GibbsModel(
                spin=lm.SpinInterval(-1, 1), box=box, coupling=coupling, boundary=lm.BoundaryCondition.constant(1)
            )
            picked = rng.choice(len(box.sites), size=min(7, len(box.sites)), replace=False)
            subset = [box.sites[int(p)] for p in picked]
            for region in ("box", "decimated", subset):
                yield d, model, lm.resolve_region(model, region)
    # every site of a chain coupled to eight exterior sites, so the order in
    # which its field terms are added shows in the last bits
    table = [((x,), (y,), float(rng.uniform(-0.3, 0.3))) for x in range(-2, 3) for y in (-6, -5, -4, -3, 3, 4, 5, 6)]
    model = lm.GibbsModel(
        spin=lm.SpinInterval(-1, 1),
        box=lm.Box(dimension=1, radius=2, r0=2),
        coupling=lm.Coupling.explicit(table),
        boundary=lm.BoundaryCondition.constant(1),
    )
    for region in ("box", "decimated"):
        yield 1, model, lm.resolve_region(model, region)


@pytest.mark.parametrize("d, model, region", list(_cases()))
def test_kernel_matches_scalar_loops(d, model, region):
    """Pairs, decay blocks and fields under a constant, a negative constant
    and an explicit boundary (assignments inside and outside the box, zeros
    among them), bit for bit."""
    assert build_system(model, region).pairs == _loop_pairs(model, region)
    window = windowed_exterior(model, region)
    assert _bits(lm._coupling_block(model, region, window)) == _bits(_loop_block(model, region, window))
    rng = np.random.default_rng(len(region))
    candidates = window + model.box.sites[:: max(1, len(model.box.sites) // 6)]
    omega = {y: int(rng.integers(-1, 2)) for y in candidates}
    for boundary in (
        lm.BoundaryCondition.constant(1),
        lm.BoundaryCondition.constant(-1),
        lm.BoundaryCondition.explicit(omega),
    ):
        conditioned = lm.GibbsModel(spin=model.spin, box=model.box, coupling=model.coupling, boundary=boundary)
        got = build_system(conditioned, region).fields
        assert _bits(got) == _bits(_loop_fields(conditioned, region)), boundary.kind


def test_neighbour_search_matches_pair_loop():
    """The search on unsorted sites with repeats: every pair within the
    radius, ordered by x and then by y, repeats included."""
    rng = np.random.default_rng(4)
    for d, count, spread in ((1, 300, 40), (2, 160, 9), (3, 140, 4), (2, 12, 3)):
        model = lm.GibbsModel(
            spin=lm.SpinInterval(0, 1),
            box=lm.Box(dimension=d, radius=1),
            coupling=lm.Coupling.nearest_neighbor(0.1),
            boundary=lm.BoundaryCondition.zero(),
        )
        xs = [tuple(c) for c in rng.integers(-spread, spread + 1, size=(count, d)).tolist()]
        ys = [tuple(c) for c in rng.integers(-spread, spread + 1, size=(count + 40, d)).tolist()]
        ys += ys[:25]
        for radius in (0, 1, 2, 3):
            i, k, _ = lm._couplings_within(model, xs, ys, radius)
            want = [
                (a, b)
                for a, x in enumerate(xs)
                for b, y in enumerate(ys)
                if max(abs(p - q) for p, q in zip(x, y)) <= radius
            ]
            assert list(zip(i.tolist(), k.tolist())) == want, (d, radius)


def _four_squares(limit: int) -> np.ndarray:
    """One 4D site (a, b, c, e) with a^2 + b^2 + c^2 + e^2 = n for each
    n = 1..limit (Lagrange): n = 4^k m with 4 not dividing m, and a^2 the
    largest square that leaves m a sum of three squares (Legendre: the
    remainder is not 4^j (8i + 7), which one of four consecutive a avoids),
    each coordinate scaled by 2^k."""
    three = {}
    for b in range(72):
        for c in range(b + 1):
            for e in range(c + 1):
                three.setdefault(b * b + c * c + e * e, (b, c, e))
    sites = []
    for n in range(1, limit + 1):
        m, scale = n, 1
        while m % 4 == 0:
            m, scale = m // 4, 2 * scale
        a = math.isqrt(m)
        while m - a * a not in three:
            a -= 1
        sites.append(tuple(scale * c for c in (a, *three[m - a * a])))
    return np.array(sites, dtype=np.int64)


def test_power_law_kernel_is_value_bit_for_bit():
    """Every r^2 up to 2e5 at five exponents: numpy's float64 pow may take a
    SIMD path whose last bits differ from the libm pow of Coupling.value."""
    sites = _four_squares(200_000)
    assert ((sites * sites).sum(axis=1) == np.arange(1, 200_001)).all()
    origin = np.zeros(4, dtype=np.int64)
    for exponent in (1.5, 2.5, 3.0, 3.7, 6.0):
        coupling = lm.Coupling.power_law(0.7, exponent)
        want = [coupling.value((0, 0, 0, 0), y) for y in map(tuple, sites.tolist())]
        assert _bits(coupling.between(origin, sites)) == _bits(want), exponent
        assert _bits(coupling.between(sites, origin)) == _bits(want), exponent


def test_engines_never_call_the_scalar_value(monkeypatch):
    """build_system (its pairs and fields) and the decay scan take
    every J from the kernel, on each coupling kind and boundary kind."""

    def scalar(*args):
        raise AssertionError("Coupling.value was called")

    monkeypatch.setattr(lm.Coupling, "value", scalar)
    _build.cache_clear()
    lm._window_coupling_total.cache_clear()
    box = lm.Box(dimension=1, radius=3, r0=2)
    couplings = (
        lm.Coupling.nearest_neighbor(0.1),
        lm.Coupling.power_law(0.05, 6.0),
        lm.Coupling.explicit([((-3,), (-1,), 0.2), ((0,), (1,), -0.1), ((2,), (5,), 0.15)]),
    )
    boundaries = (lm.BoundaryCondition.constant(1), lm.BoundaryCondition.explicit({(-5,): 1, (4,): 1, (1,): 0}))
    for coupling, boundary in itertools.product(couplings, boundaries):
        model = lm.GibbsModel(spin=lm.SpinInterval(0, 1), box=box, coupling=coupling, boundary=boundary)
        for region in ("box", "decimated", [(-2,), (1,), (3,)]):
            build_system(model, region)
            build_system(model, region, omega={(-4,): 1, (0,): 1})
        ee.decimated_char_fn_sup(model, (0.3, 2.0))
    _build.cache_clear()
    lm._window_coupling_total.cache_clear()


@st.composite
def _systems_to_build(draw):
    """A 1-D or 2-D box, a region of 1 to 12 of its sites, a nearest-
    neighbour, power-law or explicit coupling (huge ones among them), a
    zero, constant or explicit boundary, and maybe an omega override, its
    sites around the box and zeros among its values. The power laws' strengths
    put the truncation radius below, at and above the region-pair radius
    2 * box radius."""
    d = draw(st.sampled_from((1, 2)))
    radius = draw(st.integers(1, 6) if d == 1 else st.integers(1, 2))
    box = lm.Box(dimension=d, radius=radius, r0=1)
    sites = box.sites
    picked = draw(st.lists(st.integers(0, len(sites) - 1), min_size=1, max_size=min(12, len(sites)), unique=True))
    region = [sites[p] for p in picked]
    lo = draw(st.integers(-2, 1))
    spin = lm.SpinInterval(lo, lo + draw(st.integers(1, 2)))
    around = st.tuples(*[st.integers(-radius - 2, radius + 2)] * d)
    strength = st.one_of(st.floats(-0.5, 0.5), st.sampled_from((1e308, -1e308, 0.0)))
    kind = draw(st.sampled_from(("nearest_neighbor", "power_law", "explicit")))
    if kind == "nearest_neighbor":
        coupling = lm.Coupling.nearest_neighbor(draw(strength))
    elif kind == "power_law":
        scale = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.integers(-14, -6))
        coupling = lm.Coupling.power_law(scale, d + draw(st.sampled_from((2.5, 4.0, 6.0))))
    else:
        ends = draw(st.lists(st.tuples(around, around), max_size=8))
        table = {(min(x, y), max(x, y)): draw(strength) for x, y in ends if x != y}
        coupling = lm.Coupling.explicit([(x, y, j) for (x, y), j in table.items()])
    values = st.integers(spin.lo, spin.hi)
    boundary = draw(st.sampled_from(("zero", "constant", "explicit")))
    if boundary == "zero":
        bc = lm.BoundaryCondition.zero()
    elif boundary == "constant":
        bc = lm.BoundaryCondition.constant(draw(values))
    else:
        bc = lm.BoundaryCondition.explicit(draw(st.dictionaries(around, values, max_size=10)))
    model = lm.GibbsModel(spin=spin, box=box, coupling=coupling, boundary=bc)
    omega = draw(st.one_of(st.none(), st.dictionaries(around, values, max_size=12)))
    return model, lm.resolve_region(model, region), omega


def _built(build):
    try:
        system = build()
    except CapacityError as err:
        return str(err)
    return system, np.asarray(system.fields, dtype=float).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_systems_to_build())
def test_one_search_matches_two_searches(case):
    """The one search gives the System of the two searches, its pairs and
    the bits of its fields, or the same CapacityError: an infinite slope
    named by its site, or the energy-bound error."""
    model, region, omega = case
    got = _built(lambda: _build(model, region, _omega_items(omega)))
    want = _built(lambda: oracles.system_by_two_searches(model, region, _omega_items(omega)))
    assert got == want
