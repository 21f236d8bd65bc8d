import cmath
import dataclasses
import math
import re
from collections import Counter
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.polymer as pg
import oracles
from conftest import SPIN_CHOICES, complete_graph, frustrated_complete_graph, nn_chain, random_model, random_omega
from lclt_lab._system import _spin_grid, build_system
from lclt_lab.errors import CapacityError, DomainError, PreconditionError

EPS = np.finfo(float).eps


def two_site_model():
    return lm.GibbsModel(
        box=lm.Box(dimension=1, radius=1, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.explicit([((-1,), (1,), 0.1)]),
        boundary=lm.BoundaryCondition.zero(),
    )


TWO_SITE = ((-1,), (1,))


def test_pair_activity_oracle():
    # uniform pair of binary spins: zeta = sum p1 p2 (e^{J s1 s2} - 1)
    # = (e^0.1 - 1) / 4 at t = 0
    model = two_site_model()
    z = pg.activity(model, pg.ActivityParams(t=0.0), pg.Polymer(TWO_SITE), region=TWO_SITE)
    assert z.real == pytest.approx(0.026292729518911928, rel=1e-14)
    assert z.imag == pytest.approx(0.0, abs=1e-16)


def test_weight_w0_pair_oracle():
    # (1 + delta sigma)^2 * sum_s p(s) |e^{J s1 s2} - 1| with delta = 0.04
    model = two_site_model()
    w = pg.weight_w0(model, pg.Polymer(TWO_SITE), delta=0.04, region=TWO_SITE)
    assert w == pytest.approx(0.028438216247655145, rel=1e-14)
    # the pair is the one size-2 polymer through either anchor; w1 dresses it by e^2
    w1 = pg.weight_norm(model, 2, "w1", delta=0.04, region=TWO_SITE)
    assert w1 == pytest.approx(w * math.e**2, rel=1e-14)


def test_singleton_weight_is_delta_sigma():
    model = nn_chain(radius=2, strength=0.1, spin=(-1, 1))
    assert pg.weight_w0(model, pg.Polymer(((0,),)), delta=0.03, region="box") == pytest.approx(0.03)
    assert pg.weight_norm(model, 1, "wc", delta=0.03, c=0.2, region="box") == pytest.approx(0.03 * math.exp(0.2))


def test_singleton_activity_is_char_fn_minus_one():
    model = nn_chain(radius=2, strength=0.2, spin=(0, 1), boundary=1)
    x = (1,)
    law = oracles.single_spin_distribution(model, x, region="box")
    for t in (0.0, 0.4, 1.3):
        z = pg.activity(model, pg.ActivityParams(t=t), pg.Polymer((x,)), region="box")
        cf = sum(p * cmath.exp(1j * t * s) for s, p in law.items())
        assert z == pytest.approx(cf - 1.0, abs=1e-14)
    with pytest.raises(DomainError):
        pg.activity(model, pg.ActivityParams(t=0.1, c=0.5), pg.Polymer((x,)), region="box")


def test_activity_matches_graph_enumeration():
    """Mayer tables against direct connected-graph sums, on a cold table
    and again at three more t once the table is warm."""
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 20:
        model = random_model(rng)
        sites = lm.resolve_region(model, "box")
        k = int(rng.integers(2, 5))
        if len(sites) < k:
            continue
        picks = rng.choice(len(sites), size=k, replace=False)
        poly = pg.Polymer(tuple(sites[int(i)] for i in picks))
        c = float(rng.choice([0.0, 0.3]))
        for t in rng.uniform(0.0, math.pi, size=4):
            params = pg.ActivityParams(t=float(t), c=c)
            fast = pg.activity(model, params, poly, region="box")
            slow = oracles.activity_by_graph_enumeration(model, params, poly, region="box")
            assert fast == pytest.approx(slow, rel=1e-11, abs=1e-14)
        checked += 1


def _weak_chain():
    """Nine {0, 1} sites at J = 3e-4, where a Mayer sum is ~J^(k-1) and a
    sum computed by differences of O(1) numbers loses every digit."""
    model = nn_chain(radius=4, strength=3e-4, spin=(0, 1), boundary=1)
    return model, lm.resolve_region(model, "box")


def test_weak_coupling_activity_matches_graph_enumeration():
    model, region = _weak_chain()
    for k in range(2, 7):
        poly = region[1 : 1 + k]
        for c in (0.0, 0.3):
            for t in (0.4, 2.1):
                params = pg.ActivityParams(t=t, c=c)
                fast = pg.activity(model, params, poly, region="box")
                slow = oracles.activity_by_graph_enumeration(model, params, poly, region="box")
                assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


def test_weak_coupling_activity_and_majorant_match_path_product():
    # On a chain of {0, 1} spins every edge factor e^{J s s'} - 1 vanishes
    # unless both ends are 1, so the one surviving configuration of a
    # k-site interval is all ones, with Mayer sum expm1(J)^(k-1).
    model, region = _weak_chain()
    system = build_system(model, "box")
    p_up = {x: 1.0 / (1.0 + math.exp(-h)) for x, h in zip(system.sites, system.fields)}
    delta = 0.01
    for k in range(2, 9):
        for start in range(len(region) - k + 1):
            poly = region[start : start + k]
            mass = math.prod(p_up[x] for x in poly) * math.expm1(3e-4) ** (k - 1)
            w0 = pg.weight_w0(model, poly, delta, region="box")
            assert w0 > 0.0
            assert w0 == pytest.approx((1.0 + delta) ** k * mass, rel=1e-12, abs=0.0)
            for c in (0.0, 0.3):
                for t in (0.4, 2.1):
                    want = math.exp(c * k) * mass * cmath.exp(1j * t * k)
                    got = pg.activity(model, pg.ActivityParams(t=t, c=c), poly, region="box")
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mayer_sum_computed_once_per_polymer(monkeypatch):
    """The gas-sum plan makes every Mayer table of its region in one rooted
    recursion per coupling component (one, on this chain), and every
    t-dependent polymer quantity then reads those tables. A polymer looked
    up before any plan gets one pass over its own sites, and none again
    once its table is cached."""
    passes = []
    real = pg._rooted_sum

    def counting(factors, adjacency, extend, one, target=None):
        passes.append(len(adjacency))
        return real(factors, adjacency, extend, one, target)

    monkeypatch.setattr(pg, "_rooted_sum", counting)
    model = nn_chain(radius=2, strength=3e-4, spin=(-1, 1), boundary=1)
    region = lm.resolve_region(model, "box")
    n = len(region)
    pg._gas_for_system.cache_clear()
    delta = 0.01
    for t in (0.0, 0.004, 0.3, 1.7):
        for c in (0.0, 0.2):
            params = pg.ActivityParams(t=t, c=c, delta_cap=delta)
            pg.polymer_partition(model, params, region="box", mode="polymer_sum")
            for k in range(2, n + 1):
                for start in range(n - k + 1):
                    poly = region[start : start + k]
                    pg.activity(model, params, poly, region="box")
                    pg.activity_derivative(model, params, poly, order=1, region="box")
                    pg.activity_derivative(model, params, poly, order=2, region="box")
                    pg.weight_w0(model, poly, delta, region="box")
            for k in (2, 3, 4):
                pg.weight_norm(model, k, "w1", delta, region="box")
            pg.truncated_log_partition(model, params, region="box", K=3)
            pg.truncated_log_partition(model, params, region="box", K=3, absolute=True)
    assert passes == [n]

    passes.clear()
    other = nn_chain(radius=2, strength=2e-4, spin=(-1, 1), boundary=1)
    poly = region[1:4]
    params = pg.ActivityParams(t=0.3)
    for _ in range(2):
        pg.activity(other, params, poly, region="box")
        pg.activity_derivative(other, params, poly, order=1, region="box")
        pg.weight_w0(other, poly, delta, region="box")
    assert passes == [3]
    pg.polymer_partition(other, params, region="box", mode="polymer_sum")
    pg.activity(other, params, region[:2], region="box")
    assert passes == [3, n]


def test_weight_norms_computed_once_per_gas(monkeypatch):
    """The series damping reads its weight norms from the gas, never through
    the public weight_norm, so a second series at another t lists no
    connected sets; its theta is cached on the gas too, so the absolute
    series and the series at another t run no second bisection and get the
    same theta."""
    calls = Counter()
    real_sets, real_tail = pg._connected_sets, pg.geometric_norm_tail

    def counting(neighbours, size=None, cap=None):
        calls["listings"] += 1
        return real_sets(neighbours, size, cap)

    def counting_tail(*args):
        calls["tails"] += 1
        return real_tail(*args)

    def public_norm(*args, **kwargs):
        raise AssertionError("the series called the public weight_norm")

    monkeypatch.setattr(pg, "_connected_sets", counting)
    monkeypatch.setattr(pg, "geometric_norm_tail", counting_tail)
    monkeypatch.setattr(pg, "weight_norm", public_norm)
    model = nn_chain(radius=3, strength=3e-4, spin=(-1, 1), boundary=1)
    pg._gas_for_system.cache_clear()
    first = pg.truncated_log_partition(model, pg.ActivityParams(t=0.004, delta_cap=0.01), region="box", K=3)
    assert calls["listings"] > 0 and calls["tails"] > 0 and first.damping is not None
    calls.clear()
    params = pg.ActivityParams(t=0.007, delta_cap=0.01)
    second = pg.truncated_log_partition(model, params, region="box", K=3)
    absolute = pg.truncated_log_partition(model, params, region="box", K=4, absolute=True)
    assert calls == Counter()
    assert second.damping == absolute.damping == first.damping


def random_gas(rng: np.random.Generator, q: int):
    """A region of 3 to 6 sites with random couplings inside it and to the
    rest of a 7-site box, for brute-force cluster sums."""
    spin = SPIN_CHOICES[2] if q == 3 else SPIN_CHOICES[int(rng.integers(0, 2))]
    box = lm.Box(dimension=1, radius=3, r0=1)
    sites = tuple((x,) for x in range(-3, 4))
    pairs = [
        (x, y, float(rng.uniform(-0.3, 0.3)))
        for x, y in combinations(sites, 2)
        if rng.random() < 0.35
    ]
    if rng.random() < 0.5:
        boundary = lm.BoundaryCondition.zero()
    else:
        boundary = lm.BoundaryCondition.constant(int(rng.integers(spin[0], spin[1] + 1)))
    model = lm.GibbsModel(
        box=box, spin=lm.SpinInterval(*spin), coupling=lm.Coupling.explicit(pairs), boundary=boundary
    )
    return model, sites[: int(rng.integers(3, 7))]


def brute_cluster_series(model, params, region, K):
    """(signed, absolute) cluster series by order, from every multiset of
    connected polymers: Ursell coefficient times the activity product over
    the multiplicity factorials."""
    system = build_system(model, region)
    n = len(system.sites)
    adjacency = [set() for _ in range(n)]
    for i, j, v in system.pairs:
        if v != 0.0:
            adjacency[i].add(j)
            adjacency[j].add(i)

    def connected(subset):
        seen, stack = {subset[0]}, [subset[0]]
        while stack:
            for j in adjacency[stack.pop()] & set(subset) - seen:
                seen.add(j)
                stack.append(j)
        return len(seen) == len(subset)

    min_size = 1 if params.c == 0.0 else 2
    polymers = [
        subset
        for k in range(min_size, n + 1)
        for subset in combinations(range(n), k)
        if connected(subset)
    ]
    acts = [pg.activity(model, params, [system.sites[i] for i in p], region) for p in polymers]
    signed, absolute = [], []
    for order in range(1, K + 1):
        total, total_abs = 0j, 0.0
        for combo in combinations_with_replacement(range(len(polymers)), order):
            phi = oracles.ursell_hardcore(tuple(frozenset(polymers[i]) for i in combo))
            if phi == 0.0:
                continue
            mult = math.prod(math.factorial(r) for r in Counter(combo).values())
            prod = math.prod(acts[i] for i in combo)
            total += phi * prod / mult
            total_abs += abs(phi) * abs(prod) / mult
        signed.append(total)
        absolute.append(total_abs)
    return signed, absolute


def test_cluster_series_matches_ursell_enumeration():
    """The truncated log of the graded gas sum against explicit Ursell
    cluster sums, signed and absolute, by order."""
    rng = np.random.default_rng(19)
    for gas in range(12):
        model, region = random_gas(rng, q=2 + gas % 2)
        for c in (0.0, 0.3):
            params = pg.ActivityParams(t=float(rng.uniform(0.0, math.pi)), c=c)
            signed, absolute = brute_cluster_series(model, params, region, 4)
            for K in range(1, 5):
                got = pg.truncated_log_partition(model, params, region, K=K)
                got_abs = pg.truncated_log_partition(model, params, region, K=K, absolute=True)
                assert got.by_order == pytest.approx(signed[:K], rel=1e-12, abs=0.0)
                assert got_abs.by_order == pytest.approx(absolute[:K], rel=1e-12, abs=0.0)
                assert all(isinstance(v, float) for v in got_abs.partial_sums)


PATCH6 = ((-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0))


def two_cliques(sizes=(7, 7), strength=0.05):
    """Two complete graphs side by side on a 1-D box, {0, 1} spins, no
    coupling between them: a region of sum(sizes) sites whose two coupling
    components stay within MAX_POLYMER_SIZE."""
    n = sum(sizes)
    sites = tuple((x,) for x in range(-(n // 2), n - n // 2))
    cliques = (sites[: sizes[0]], sites[sizes[0] :])
    pairs = [(a, b, strength) for clique in cliques for a, b in combinations(clique, 2)]
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=n // 2, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.explicit(pairs),
        boundary=lm.BoundaryCondition.zero(),
    )
    return model, sites


def bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


def plan_polymers(gas) -> list[tuple[int, ...]]:
    """The polymer of each row of the gas-sum plan, as region site indices:
    the connected polymers of each coupling component's _schedule in turn."""
    return [
        tuple(sites[a] for a in idx)
        for sites in gas.components
        for idx in pg._schedule(tuple(pg._site_axes(gas, sites)[0]))[0]
    ]


def mask_groups(gas, z, dressed: bool) -> list[tuple]:
    """The (site count, groups) of each coupling component for the
    mask-by-mask loop, on the component's own sites: every connected
    polymer (one-site ones left out when dressed) under its lowest site,
    masks descending, each with its activity in the plan's row."""
    polymers, parts = plan_polymers(gas), []
    for sites, (rows, n, _) in zip(gas.components, gas.plan.parts):
        local = {i: a for a, i in enumerate(sites)}
        groups = [[] for _ in sites]
        for idx, activity in zip(polymers[rows], z[rows].tolist()):
            if len(idx) > 1 or not dressed:
                groups[local[idx[0]]].append((sum(1 << local[i] for i in idx), activity))
        parts.append((n, groups))
    return parts


def region_groups(gas, z, dressed: bool) -> list[tuple]:
    """mask_groups of the whole region taken as one component: the loop over
    every mask of its n sites, which the product over components must
    match."""
    groups = [[] for _ in gas.sites]
    for idx, activity in zip(plan_polymers(gas), z.tolist()):
        if len(idx) > 1 or not dressed:
            groups[idx[0]].append((sum(1 << i for i in idx), activity))
    return [(len(gas.sites), groups)]


GAS_SUM_REGIONS = {
    "chain5": (nn_chain(radius=2, strength=0.25, spin=(-1, 1), boundary=1), "box"),
    "patch6-q3": (nn_chain(radius=1, strength=0.1, spin=(-1, 1), boundary=1, dimension=2), PATCH6),
    "chain9": (nn_chain(radius=4, strength=0.2, spin=(0, 1), boundary=1), "box"),
    "uncoupled7": (nn_chain(radius=6, strength=0.1, spin=(-1, 1), boundary=1, r0=2), "decimated"),
    "cliques14": two_cliques(),
    # two components whose rows differ, so each reads its own activities
    "cliques4-3": two_cliques((4, 3), 0.2),
    # the densest graph MAX_POLYMER_SIZE admits, whose sum reads most masks
    "complete10": complete_graph(10, 0.05, spin=(0, 1)),
    "box3x3": (nn_chain(radius=1, strength=0.2, spin=(0, 1), boundary=1, dimension=2), "box"),
}


# decimated regions of 15 and 25 sites, no two of them coupled
LONE_SITE_REGIONS = {
    "uncoupled15": nn_chain(radius=15, strength=0.1, spin=(0, 1), boundary=1, r0=2),
    "box5x5-q3": nn_chain(radius=4, strength=0.1, spin=(-1, 1), boundary=1, r0=2, dimension=2),
}


@pytest.mark.parametrize("name", list(GAS_SUM_REGIONS))
def test_gas_sum_matches_mask_loop_bit_for_bit(name):
    """The plan's level-by-level recursion against the loop over masks and
    polymers, given the same activities, each coupling component's factor
    and their product: Xi and Xi(lambda) through lambda^3 and lambda^4,
    signed and -|z|, undressed and dressed, bit for bit."""
    model, region = GAS_SUM_REGIONS[name]
    gas = pg._gas(model, region, None)
    plan = gas.plan
    n = len(gas.sites)
    rng = np.random.default_rng(len(name))
    # the mask loop over the densest schedules takes most of a second per
    # call, so they check each setting once rather than every combination
    settings = list(product((None, 3, 4), (False, True), (0.0, 0.3)))
    if n > 9 or name == "box3x3":
        settings = [(None, False, 0.0), (3, True, 0.3), (4, False, 0.0), (None, True, 0.3)]
    for K, absolute, c in settings:
        z = plan.activities(float(rng.uniform(0.2, 3.0)), c)
        if absolute:
            z = -np.abs(z)
        K_n = None if K is None else min(K, n)
        got = pg._gas_sum(plan, z, K_n, dressed=c != 0.0)
        want = oracles.gas_sum_by_masks(mask_groups(gas, z, c != 0.0), K_n)
        assert bits(got) == bits(want), (K, absolute, c)


def test_gas_sum_on_an_empty_region_matches_the_direct_route():
    """On the region () the gas sum, like the direct route, gives Xi = 1 and
    log Xi = 0, undressed and dressed, and the cluster series is zero at
    every order, signed and absolute."""
    model = GAS_SUM_REGIONS["chain5"][0]
    for c in (0.0, 0.3):
        params = pg.ActivityParams(t=0.7, c=c)
        for call in (pg.polymer_partition, pg.continuous_log_partition):
            direct = call(model, params, (), mode="direct")
            assert bits(call(model, params, (), mode="polymer_sum")) == bits(direct)
            assert direct == (1 if call is pg.polymer_partition else 0)
        for absolute in (False, True):
            series = pg.truncated_log_partition(model, params, (), K=3, absolute=absolute)
            assert series.by_order == series.partial_sums == (0.0,) * 3


def test_plan_activities_match_graph_enumeration():
    """Every row of the batched activities at orders 0, 1 and 2 against the
    connected-graph oracle and the one-polymer call, which builds no plan."""
    rng = np.random.default_rng(23)
    patch = nn_chain(radius=1, strength=0.3, spin=(1, 2), boundary=1, dimension=2)
    pg._gas_for_system.cache_clear()
    for model, region in (GAS_SUM_REGIONS["chain5"], (patch, PATCH6[:5]), two_cliques((3, 2), 0.2)):
        gas = pg._gas(model, region, None)
        pg.activity(model, pg.ActivityParams(t=0.5), gas.sites[:2], region)
        assert "plan" not in vars(gas)
        plan = gas.plan
        for c in (0.0, 0.3):
            params = pg.ActivityParams(t=float(rng.uniform(0.1, 3.0)), c=c)
            for order in (0, 1, 2):
                rows = plan.activities(params.t, c, order)
                for idx, row in zip(plan_polymers(gas), rows.tolist(), strict=True):
                    if c and len(idx) == 1:
                        continue
                    poly = [gas.sites[i] for i in idx]
                    slow = oracles.activity_by_graph_enumeration(model, params, poly, region, order=order)
                    if order:
                        one = pg.activity_derivative(model, params, poly, order, region)
                    else:
                        one = pg.activity(model, params, poly, region)
                    assert row == pytest.approx(slow, rel=1e-11, abs=1e-14)
                    assert row == pytest.approx(one, rel=1e-11, abs=1e-14)


def test_single_site_activity_keeps_its_digits_at_small_t():
    """E(e^{its}) - 1 of each single-site law of the README model with spins
    {-1, 0, 1}, against a 50-digit sum over the same float64 law: the real
    part, about -t^2 var / 2, keeps full precision down to t = 1e-6."""
    mpmath = pytest.importorskip("mpmath")
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=3, r0=2),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.nearest_neighbor(0.1),
        boundary=lm.BoundaryCondition.constant(1),
    )
    gas = pg._gas(model, "decimated", None)
    with mpmath.workdps(50):
        for x, law in zip(gas.sites, gas.probs.tolist()):
            for t in (1e-2, 1e-4, 1e-6):
                got = pg.activity(model, pg.ActivityParams(t=t), pg.Polymer((x,)))
                want = mpmath.fsum(p * (mpmath.expj(t * s) - 1) for p, s in zip(law, gas.values.tolist()))
                assert abs(got.real - want.real) <= 1e-14 * abs(want.real)
                assert abs(got.imag - want.imag) <= 1e-14 * abs(want.imag)


def test_overflowing_weights_raise_not_nan():
    """A log weight past float64's range is a CapacityError on every route:
    the direct route names log Xi(0) from the exact sum, the gas routes the
    largest log weight of the first Mayer table the plan reads, the whole
    chain's; the same model with the opposite sign stays finite and the
    routes agree."""
    params = pg.ActivityParams(t=0.3)
    hot = nn_chain(radius=3, strength=130, spin=(0, 1), boundary=1)
    calls = (
        lambda model: pg.polymer_partition(model, params, region="box", mode="direct"),
        lambda model: pg.polymer_partition(model, params, region="box", mode="polymer_sum"),
        lambda model: pg.continuous_log_partition(model, params, region="box"),
        lambda model: pg.truncated_log_partition(model, params, region="box", K=3),
        lambda model: pg.truncated_log_partition(model, params, region="box", K=3, absolute=True),
    )
    direct = r"^direct route on 7 sites is not finite in float64: log Xi\(0\) is 776\.5, float64 ends at 709\.8$"
    mayer = r"^Mayer table on 7 sites is not finite: the largest log weight is 776\.5, float64 ends at 709\.8$"
    for call, message in zip(calls, (direct, mayer, direct, mayer, mayer)):
        with pytest.raises(CapacityError, match=message):
            call(hot)
    polymer = pg.Polymer(lm.resolve_region(hot, "box")[:6])
    with pytest.raises(CapacityError, match=r"on 6 sites is not finite: the stability exponent is 780\.0"):
        pg.tree_graph_bound_check(hot, polymer, region="box")
    cold = nn_chain(radius=3, strength=-130, spin=(0, 1), boundary=1)
    direct, gas, log_xi, series, absolute = (call(cold) for call in calls)
    assert gas == pytest.approx(direct, rel=1e-12)
    assert cmath.isfinite(log_xi) and cmath.exp(log_xi) == pytest.approx(direct, rel=1e-9)
    assert all(cmath.isfinite(v) for v in series.by_order + absolute.by_order)
    # p = 0 against C = inf: fields of -800 give spin 1 the mass 0, and
    # J = 800 makes e^{J s s'} - 1 infinite where both spins are 1, so
    # p C = 0 * inf is NaN there
    pinned = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=2, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.explicit([((-1,), (0,), -800.0), ((0,), (1,), 800.0), ((1,), (2,), -800.0)]),
        boundary=lm.BoundaryCondition.constant(1),
    )
    with pytest.raises(CapacityError, match=r"^Mayer table on 2 sites is not finite: the largest log weight is 0\.0,"):
        pg.polymer_partition(pinned, params, region=((0,), (1,)), mode="polymer_sum")
    # finite entries p C whose sum p |C| overflows: laws of mass 3 (set by
    # hand; a law of mass 1 keeps sum p |C| within max |C|) on spins -1, 0, 1
    # at J = 709.5, where e^J - 1 = 1.35e308 on two configurations
    pair = pg._Gas(build_system(nn_chain(radius=1, strength=709.5, spin=(-1, 1), boundary=None), ((0,), (1,))))
    pair.probs = np.ones((2, 3))
    assert math.isfinite(math.expm1(709.5)) and math.isinf(2 * math.expm1(709.5))
    message = r"^Mayer table on 2 sites is not finite: the largest log weight is 709\.5,"
    with pytest.raises(CapacityError, match=message):
        pg._mayer_pass(pair, (0, 1), every=True)
    assert pair.mayer == {}


def _frustrated_complete_graph(n: int, spin, scale: float, rng) -> tuple:
    """n sites, every pair coupled with a strength of random sign."""
    sites = tuple((x,) for x in range(-(n // 2), n - n // 2))
    pairs = [(a, b, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.4)) / scale) for a, b in combinations(sites, 2)]
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=n // 2, r0=1),
        spin=lm.SpinInterval(*spin),
        coupling=lm.Coupling.explicit(pairs),
        boundary=lm.BoundaryCondition.zero(),
    )
    return model, sites


def _mayer_cases():
    """(model, region, omega) of seeded chains and 2-D patches under random
    omegas, complete graphs of 3 to 7 sites, and complete graphs whose
    couplings take both signs, at q = 2 and q = 3. The spins {5, 6} and
    {3, 4, 5} make J s s' round differently when grouped otherwise."""
    rng = np.random.default_rng(31)
    for spin in ((0, 1), (-1, 1), (5, 6), (3, 5)):
        scale = max(abs(v) for v in spin) ** 2
        for _ in range(2):
            strength = float(rng.uniform(-0.4, 0.4)) / scale
            chain = nn_chain(radius=4, strength=strength, spin=spin, boundary=spin[1])
            yield chain, "box", random_omega(rng, chain, "box")
            patch = nn_chain(radius=2, strength=strength, spin=spin, boundary=spin[1], dimension=2)
            region = [(x, y) for x, y in patch.box.sites if abs(x) <= 1 and abs(y) <= 1]
            yield patch, region, random_omega(rng, patch, region)
        for n in (3, 5, 7) if scale == 1 else (4, 6):
            yield (*complete_graph(n, 0.2 / scale, spin=spin), None)
            yield (*_frustrated_complete_graph(n, spin, scale, rng), None)


def test_region_pass_matches_per_polymer_tables_bit_for_bit():
    """Every Mayer table of the plan's one pass over each coupling
    component, and the table of a polymer looked up on its own, against
    the table rebuilt from the polymer's own spin grid: lowest spin,
    amplitudes and |sum| mass bit for bit."""
    rng = np.random.default_rng(32)
    checked = 0
    for model, region, omega in _mayer_cases():
        system = build_system(model, region, omega)
        gas = pg._Gas(system)
        gas.plan
        connected = [idx for idx in plan_polymers(gas) if len(idx) > 1]
        assert sorted(gas.mayer) == sorted(connected)
        alone = pg._Gas(system)
        picks = [connected[int(i)] for i in rng.choice(len(connected), size=3)]
        # a polymer whose sites are not all joined has a table of zeros
        picks.append(tuple(range(0, len(gas.sites), 2))[:4])
        for idx in connected + picks:
            lowest, amps, abs_mass = oracles.mayer_table_by_polymer(gas, idx)
            for got in (gas.mayer[idx] if idx in gas.mayer else None, pg._mayer(alone, idx)):
                if got is None:
                    continue
                assert got[0] == lowest
                assert got[1].tobytes() == amps.tobytes()
                assert math.isfinite(abs_mass) and got[2].hex() == abs_mass.hex()
                checked += 1
    assert checked > 1000


def test_regions_of_one_coupling_graph_share_a_read_only_schedule():
    """Two 7-site chains that differ in strength, spin interval and omega
    have one coupling graph: their plans hold the same loop and weight rows
    of their own, and the schedule's mask and size arrays refuse writes.
    The coupling components of one graph share a loop too: the two
    7-cliques of cliques14, and the seven lone sites of uncoupled7."""
    rng = np.random.default_rng(34)
    plans = []
    for strength, spin in ((0.1, (0, 1)), (-0.2, (-1, 1))):
        model = nn_chain(radius=3, strength=strength, spin=spin, boundary=spin[1])
        gas = pg._gas(model, "box", random_omega(rng, model, "box"))
        plans.append(gas.plan)
    first, second = plans
    (_, _, loop), = first.parts
    assert second.parts[0][2] is loop
    for shared in pg._schedule(tuple(pg._site_axes(gas, gas.components[0])[0]))[1:3]:
        with pytest.raises(ValueError, match="read-only"):
            shared[..., 0] = 0
    assert not np.shares_memory(first.weights, second.weights)
    for name, count in (("cliques14", 2), ("uncoupled7", 7)):
        parts = pg._gas(*GAS_SUM_REGIONS[name], None).plan.parts
        assert len(parts) == count
        assert all(part[2] is parts[0][2] for part in parts)


def test_plan_matches_mask_by_mask_build_bit_for_bit():
    """Every field of the plan of each GAS_SUM_REGIONS region, each
    _mayer_cases region and the two many-component regions of
    LONE_SITE_REGIONS, from a fresh gas, against the plan built from its
    definition one mask at a time: the components, sizes, spins and
    weights by bytes, each component's row slice and site count, its
    schedule's masks by bytes, and its loop's tuples holding the
    definition's steps level by level."""
    cases = [(model, region, None) for model, region in GAS_SUM_REGIONS.values()]
    cases += [(model, "decimated", None) for model in LONE_SITE_REGIONS.values()]
    for model, region, omega in cases + list(_mayer_cases()):
        gas = pg._Gas(build_system(model, region, omega))
        plan = gas.plan
        parts, *arrays = oracles.plan_by_masks(gas)
        for name, want in zip(("sizes", "spins", "weights"), arrays):
            got = getattr(plan, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert gas.components == [part[0] for part in parts]
        first = 0
        for (rows, n, loop), (sites, masks, columns, bounds, singles) in zip(plan.parts, parts, strict=True):
            assert (rows, n) == (slice(first, first + len(masks)), len(sites))
            first = rows.stop
            got = pg._schedule(tuple(pg._site_axes(gas, sites)[0]))[1]
            assert (got.dtype, got.tobytes()) == (masks.dtype, masks.tobytes())
            levels = reversed(list(zip(bounds, singles, bounds[1:])))
            assert loop == tuple(
                (tuple(c[:2] for c in columns[b:e]), columns[a:e], columns[a:b]) for a, b, e in levels
            )


@st.composite
def _coupling_graphs(draw, max_sites=10, spins=((0, 1), (-1, 1))):
    """(model, sites): 1 to max_sites sites on a 1-D box, the spin interval
    one of spins, up to n + 2 coupled pairs of strength 0.05 to 0.4 and
    either sign, so isolated sites and disconnected graphs come up too."""
    n = draw(st.integers(1, max_sites))
    sites = tuple((x,) for x in range(-(n // 2), n - n // 2))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = draw(st.sets(ends, max_size=n + 2)) if n > 1 else set()
    strength = st.tuples(st.floats(0.05, 0.4), st.sampled_from((-1.0, 1.0))).map(lambda vs: vs[0] * vs[1])
    pairs = [(sites[a], sites[b], draw(strength)) for a, b in sorted(edges)]
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=n // 2, r0=1),
        spin=lm.SpinInterval(*draw(st.sampled_from(spins))),
        coupling=lm.Coupling.explicit(pairs),
        boundary=lm.BoundaryCondition.zero(),
    )
    return model, sites


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_coupling_graphs(), st.floats(0.2, 3.0))
def test_gas_sum_on_random_coupling_graphs_matches_mask_loop(case, t):
    """On random coupling graphs of 1 to 10 sites the plan's recursion
    against the loop over masks and polymers, given the same activities:
    Xi and Xi(lambda) through lambda^3, undressed and dressed, bit for
    bit."""
    model, sites = case
    gas = pg._gas(model, sites, None)
    n = len(sites)
    for K, c in product((None, 3), (0.0, 0.3)):
        z = gas.plan.activities(t, c)
        K_n = None if K is None else min(K, n)
        got = pg._gas_sum(gas.plan, z, K_n, dressed=c != 0.0)
        want = oracles.gas_sum_by_masks(mask_groups(gas, z, c != 0.0), K_n)
        assert bits(got) == bits(want), (K, c)


@st.composite
def _disjoint_unions(draw, max_sites=12):
    """(model, sites): 1 to 4 _coupling_graphs draws of one spin interval,
    up to max_sites sites in all, on disjoint sites in one drawn order, so
    that their coupling components interleave."""
    spin = draw(st.sampled_from(((0, 1), (-1, 1))))
    pairs, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if n == max_sites:
            break
        model, sites = draw(_coupling_graphs(max_sites=min(6, max_sites - n), spins=(spin,)))
        pairs += [(n + sites.index(x), n + sites.index(y), v) for x, y, v in model.coupling.pairs]
        n += len(sites)
    order = draw(st.permutations(range(n)))
    sites = tuple((x,) for x in range(-(n // 2), n - n // 2))
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=n // 2, r0=1),
        spin=lm.SpinInterval(*spin),
        coupling=lm.Coupling.explicit([(sites[order[a]], sites[order[b]], v) for a, b, v in pairs]),
        boundary=lm.BoundaryCondition.zero(),
    )
    return model, sites


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_disjoint_unions(), st.floats(0.2, 3.0))
def test_gas_sum_over_components_matches_the_region_mask_loop(case, t):
    """On disjoint unions of random coupling graphs the product of the
    coupling components' factors against the loop over every mask of the
    whole region, given the same activities: Xi and Xi(lambda) through
    lambda^3, undressed and dressed, each within n eps times its sum of
    |terms|, the same loop's value on |z|."""
    model, sites = case
    gas = pg._gas(model, sites, None)
    n = len(sites)
    for K, c in product((None, 3), (0.0, 0.3)):
        z = gas.plan.activities(t, c)
        K_n = None if K is None else min(K, n)
        got = pg._gas_sum(gas.plan, z, K_n, dressed=c != 0.0)
        want = oracles.gas_sum_by_masks(region_groups(gas, z, c != 0.0), K_n)
        terms = oracles.gas_sum_by_masks(region_groups(gas, np.abs(z), c != 0.0), K_n)
        for g, w, a in zip(*map(np.atleast_1d, (got, want, terms)), strict=True):
            assert abs(g - w) <= n * EPS * abs(a), (K, c)


@pytest.mark.parametrize("name", list(LONE_SITE_REGIONS))
def test_gas_sum_on_lone_sites_is_the_product_of_site_factors(name):
    """A LONE_SITE_REGIONS region has no coupled pair, so Xi(t) is the
    product over its sites of E_x(e^{its}). The gas sum at 20 t in [0, pi]
    matches that product, taken in 40-digit mpmath over the same float64
    laws, within 4 eps times the sum over sites of the condition number
    1/|E_x(e^{its})| of each factor, which is 4 n eps at t = 0."""
    mpmath = pytest.importorskip("mpmath")
    model = LONE_SITE_REGIONS[name]
    gas = pg._gas(model, "decimated", None)
    n = len(gas.sites)
    assert n > 14 and len(gas.components) == n
    with mpmath.workdps(40):
        for t in np.linspace(0.0, math.pi, 20).tolist():
            got = pg.polymer_partition(model, pg.ActivityParams(t=t), mode="polymer_sum")
            spins = gas.values.tolist()
            factors = [mpmath.fsum(p * mpmath.expj(t * s) for p, s in zip(law, spins)) for law in gas.probs.tolist()]
            want = mpmath.fprod(factors)
            assert abs(got - want) <= 4 * EPS * sum(1 / abs(f) for f in factors) * abs(want), t


def test_cluster_series_on_lone_sites_within_certified_tail():
    """The truncated series on the 25 lone sites of the decimated 5x5 box
    sits within its certified tail of the direct route's continuous log at
    t = delta/2."""
    from lclt_lab.verifier import constants

    model = LONE_SITE_REGIONS["box5x5-q3"]
    delta = constants(model).delta
    params = pg.ActivityParams(t=delta / 2, delta_cap=delta)
    res = pg.truncated_log_partition(model, params, K=4)
    exact = pg.continuous_log_partition(model, params, mode="direct")
    assert res.dominating_tail is not None
    assert abs(res.partial_sums[-1] - exact) <= res.dominating_tail


def test_gas_sum_refuses_weight_rows_past_the_spin_grid_budget():
    """Spins {2^26, 2^26 + 1} on a 3-site chain put the plan's weight rows
    on 2^27 + 4 totals, past SPIN_GRID_BUDGET, which is refused before the
    rows are allocated. Uncoupled, the largest component has one site, the
    rows span 2 totals, and Xi is the product of three factors of modulus
    |cos(t/2)|."""
    params = pg.ActivityParams(t=0.3)
    spin = (2**26, 2**26 + 1)
    coupled = nn_chain(radius=1, strength=2**-54, spin=spin, boundary=None)
    with pytest.raises(CapacityError, match=r"^gas-sum weight rows span 134217732 total spins, budget is 1048576$"):
        pg.polymer_partition(coupled, params, "box", mode="polymer_sum")
    free = nn_chain(radius=1, strength=0.0, spin=spin, boundary=None)
    xi = pg.polymer_partition(free, params, "box", mode="polymer_sum")
    assert abs(xi) == pytest.approx(math.cos(0.15) ** 3, rel=1e-8)


def test_continuous_log_refuses_a_subnormal_xi():
    """On 21 free sites with spins {0, 1}, Xi(pi) = prod (1 + e^{i pi})/2
    is 0 up to rounding, under float64's smallest normal: the gas route's
    continuous log to t = pi is a CapacityError naming the route, the site
    count and the t, not the log of what rounding left."""
    model = nn_chain(radius=10, strength=0.0, spin=(0, 1), boundary=None)
    message = r"^polymer_sum route on 21 sites: \|Xi\(3\.141592653589793\)\| = 0 is under float64's smallest normal"
    with pytest.raises(CapacityError, match=message):
        pg.continuous_log_partition(model, pg.ActivityParams(t=math.pi), "box", mode="polymer_sum")
    log_xi = pg.continuous_log_partition(model, pg.ActivityParams(t=3.0), "box", mode="polymer_sum")
    assert log_xi.real == pytest.approx(21 * math.log(math.cos(1.5)), rel=1e-12)


def test_continuous_log_refuses_a_ratio_under_the_fourier_floor():
    """On the 201 decimated sites of a long chain the direct route's
    |Xi(t)|/Xi(0) = |E(e^{itS})| comes from the exact pmf's Fourier sum,
    which cannot resolve it under 202 totals times eps: its continuous log
    to t = 1.5 is a CapacityError naming the route, the site count and the
    first t past the floor, not the log of rounding noise. Below the floor's
    t the two routes agree, and the gas route's real part at t = 1.5 is the
    sum of the one-site log |phi_x|, the decimated sites being uncoupled."""
    model = nn_chain(radius=200, strength=0.1, spin=(0, 1), boundary=1, r0=2)
    message = (
        r"^direct route on 201 sites: \|Xi\(1\.1015625\)\|/Xi\(0\) = 1\.56e-14 is under the rounding"
        r" floor 4\.49e-14 of the pmf's Fourier sum over 202 totals, so its log has no digits$"
    )
    with pytest.raises(CapacityError, match=message):
        pg.continuous_log_partition(model, pg.ActivityParams(t=1.5))
    params = pg.ActivityParams(t=0.5)
    direct = pg.continuous_log_partition(model, params)
    assert pg.continuous_log_partition(model, params, mode="polymer_sum") == pytest.approx(direct, rel=1e-12)
    gas = pg._gas(model, "decimated", None)
    log_xi = pg.continuous_log_partition(model, pg.ActivityParams(t=1.5), mode="polymer_sum")
    want = math.fsum(math.log(abs(p @ np.exp(1.5j * gas.values))) for p in gas.probs)
    assert log_xi.real == pytest.approx(want, rel=1e-12)


def test_overflow_names_the_largest_log_weight_of_many_components():
    """30 disjoint pairs at J = 30 (spins {0, 1}, zero boundary): Xi(0) is
    ((3 + e^30)/4)^30, past float64. The gas route names the largest log
    weight, the sum of each pair's 30 - 2 log 2, which is the direct
    route's log Xi(0) to the digit shown, without a spin grid over the 60
    sites (2^60 states)."""
    sites = [(x,) for x in range(-30, 30)]
    model = lm.GibbsModel(
        box=lm.Box(dimension=1, radius=30, r0=1),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.explicit([(sites[k], sites[k + 1], 30.0) for k in range(0, 60, 2)]),
        boundary=lm.BoundaryCondition.zero(),
    )
    params = pg.ActivityParams(t=0.0)
    direct = r"^direct route on 60 sites is not finite in float64: log Xi\(0\) is 858\.4, float64 ends at 709\.8$"
    with pytest.raises(CapacityError, match=direct):
        pg.polymer_partition(model, params, region=sites, mode="direct")
    gas = r"^polymer_sum route on 60 sites is not finite: the largest log weight is 858\.4, float64 ends at 709\.8$"
    with pytest.raises(CapacityError, match=gas):
        pg.polymer_partition(model, params, region=sites, mode="polymer_sum")


def test_activity_derivatives_match_finite_differences():
    rng = np.random.default_rng(13)
    model = nn_chain(radius=2, strength=0.25, spin=(-1, 1), boundary=1)
    sites = lm.resolve_region(model, "box")
    for k in (1, 2, 3):
        poly = pg.Polymer(tuple(sites[:k]))
        t0 = float(rng.uniform(0.1, 1.0))

        def zeta(t):
            return pg.activity(model, pg.ActivityParams(t=t), poly, region="box")

        d1 = pg.activity_derivative(model, pg.ActivityParams(t=t0), poly, region="box", order=1)
        h = 1e-6
        fd1 = (zeta(t0 + h) - zeta(t0 - h)) / (2 * h)
        assert abs(d1 - fd1) <= 1e-7 * max(abs(d1), 1e-3)

        d2 = pg.activity_derivative(model, pg.ActivityParams(t=t0), poly, region="box", order=2)
        h = 1e-4
        fd2 = (zeta(t0 + h) - 2 * zeta(t0) + zeta(t0 - h)) / h**2
        assert abs(d2 - fd2) <= 1e-6 * max(abs(d2), 1e-3)


def test_activity_dominated_by_weight_below_delta():
    """|zeta(R)| <= w0(R) whenever |t| <= delta."""
    rng = np.random.default_rng(14)
    from lclt_lab.verifier import constants

    checked = 0
    while checked < 25:
        model = random_model(rng)
        consts = constants(model)
        sites = lm.resolve_region(model, "box")
        k = int(rng.integers(1, 4))
        if len(sites) < k:
            continue
        picks = rng.choice(len(sites), size=k, replace=False)
        poly = pg.Polymer(tuple(sites[int(i)] for i in picks))
        t = float(rng.uniform(0.0, consts.delta))
        z = pg.activity(model, pg.ActivityParams(t=t), poly, region="box")
        w = pg.weight_w0(model, poly, delta=consts.delta, region="box")
        assert abs(z) <= w + 1e-14
        checked += 1


def test_partition_routes_agree():
    rng = np.random.default_rng(15)
    for _ in range(8):
        model = random_model(rng)
        omega = random_omega(rng, model)
        for c in (0.0, 0.11):
            params = pg.ActivityParams(t=0.7, c=c)
            direct = pg.polymer_partition(model, params, region="decimated", omega=omega, mode="direct")
            dp = pg.polymer_partition(model, params, region="decimated", omega=omega, mode="polymer_sum")
            assert dp == pytest.approx(direct, rel=1e-11, abs=1e-14)


def brute_partition(model, region, ts, omega=None):
    """Xi(t) on a t grid by enumeration: every configuration's weight
    prod_x p_x(s_x) e^{pair energy} against its total spin."""
    system = build_system(model, region, omega)
    n, values = system.site_count, np.array(system.values, dtype=float)
    logits = np.outer(system.fields, values)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    digits = np.array(list(product(range(len(values)), repeat=n)), dtype=int).reshape(-1, n).T
    spins = values[digits]
    weights = np.prod([probs[x][digits[x]] for x in range(n)], axis=0)
    energy = sum((v * spins[i] * spins[j] for i, j, v in system.pairs), np.zeros(digits.shape[1]))
    return np.exp(1j * np.outer(ts, spins.sum(axis=0))) @ (weights * np.exp(energy))


def test_direct_route_matches_enumeration():
    """The direct route, read off the exact engine's pmf, against the sum over
    every configuration, on random models with and without omega and on two
    frustrated complete graphs whose energy-shift bound underflows."""
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(20):
        model = random_model(rng)
        cases += [(model, "decimated", None), (model, "decimated", random_omega(rng, model))]
    cases += [(*frustrated_complete_graph(3, -400.0), None), (*frustrated_complete_graph(10, -19.0), None)]
    ts = (0.0, 0.3, 1.1, 2.5, math.pi)
    for model, region, omega in cases:
        want = brute_partition(model, region, ts, omega)
        for t, expected in zip(ts, want):
            got = pg.polymer_partition(model, pg.ActivityParams(t=t), region, omega, mode="direct")
            assert cmath.isfinite(got)
            # Xi(t) has analytic zeros (two-state spins at t = pi), where the
            # two sums agree to rounding of Xi(0), not of Xi(t)
            assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-3 * want[0].real), (t, got, expected)


def graph_walk_partition(gas, ts, c):
    """The dressed Xi_c over a t grid by walking all 2^E subsets of the
    region's couplings, one graph at a time: each weighs prod u_e by
    e^{c|support|} and the phases of the spins on its support."""
    n = len(gas.sites)
    values, probs = oracles.config_tables(gas, tuple(range(n)))
    edges = gas.system.pairs
    u = [np.expm1(j * values[a] * values[b]) for a, b, j in edges]
    site_phase = [np.exp(1j * np.multiply.outer(ts, values[i])) for i in range(n)]
    phase_cache = {0: np.ones((len(ts), values.shape[1]), dtype=complex)}

    def support_phase(mask):
        got = phase_cache.get(mask)
        if got is None:
            low = mask & -mask
            got = phase_cache[mask] = support_phase(mask ^ low) * site_phase[low.bit_length() - 1]
        return got

    total = np.zeros((len(ts), values.shape[1]), dtype=complex)

    def walk(e, prod, support):
        if e == len(edges):
            total.__iadd__(prod * (math.exp(c * support.bit_count()) * support_phase(support)))
            return
        walk(e + 1, prod, support)
        a, b, _ = edges[e]
        walk(e + 1, prod * u[e], support | (1 << a) | (1 << b))

    walk(0, np.ones(values.shape[1]), 0)
    return total @ probs


def test_dressed_direct_route_matches_graph_walk():
    """The dressed direct route, summed support by support, against the walk
    over every graph, at each scalar t and over the whole grid: random models
    with and without omega, and complete graphs K4 to K6."""
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(12):
        model = random_model(rng)
        # the whole box where it is small, so that its couplings enter
        region = "box" if len(lm.resolve_region(model, "box")) <= 7 else "decimated"
        cases += [(model, region, None), (model, region, random_omega(rng, model, region))]
    cases += [(*frustrated_complete_graph(k, -0.3), None) for k in (4, 5)]
    cases += [(*complete_graph(k, 0.2, spin=(0, 1)), None) for k in (4, 5, 6)]
    cases += [(*complete_graph(6, -0.15), None)]
    ts = np.array([0.0, 0.3, 1.1, 2.5, math.pi])
    for model, region, omega in cases:
        gas = pg._gas_for_mode(model, region, omega, "direct")
        for c in (0.11, 0.8):
            want = graph_walk_partition(gas, ts, c)
            grid = pg._partition(gas, ts, c, "direct")
            floor = 1e-6 * abs(want[0])
            for t, expected, on_grid in zip(ts, want, grid):
                got = pg.polymer_partition(model, pg.ActivityParams(t=t, c=c), region, omega, mode="direct")
                for value in (got, on_grid):
                    assert abs(value - expected) <= 1e-10 * max(abs(expected), floor), (t, c, value, expected)


def test_dressed_identity_on_complete_graph():
    """K7: 21 coupled pairs but 128 supports. The walk over 2^21 graphs
    times 128 configurations passed GRAPH_SUM_BUDGET and was refused; the
    sum by support holds at most 128 x 128 entries and agrees with the gas
    sum."""
    model, region = complete_graph(7, 0.05, spin=(0, 1))
    for t in (0.0, 0.9, 2.7):
        params = pg.ActivityParams(t=t, c=0.4)
        direct = pg.polymer_partition(model, params, region, mode="direct")
        gas = pg.polymer_partition(model, params, region, mode="polymer_sum")
        assert gas == pytest.approx(direct, rel=1e-11, abs=1e-14)


def test_graph_sum_budget_counts_supports(monkeypatch):
    """The budget bounds supports x configurations, checked before each pair
    as twice what is held. Before its last pair K7 holds 120 supports (the
    empty one and every site set of two or more but that pair's) over 128
    configurations. The graph table is cached on the region's gas, so the
    gas is built afresh under the lower budget."""
    model, region = complete_graph(7, 0.05, spin=(0, 1))
    params = pg.ActivityParams(t=0.5, c=0.4)
    monkeypatch.setattr(pg, "GRAPH_SUM_BUDGET", 2 * 120 * 128)
    pg.polymer_partition(model, params, region, mode="direct")
    pg._gas_for_system.cache_clear()
    monkeypatch.setattr(pg, "GRAPH_SUM_BUDGET", 2 * 120 * 128 - 1)
    with pytest.raises(CapacityError, match=r"^graph sum needs 2\*120 supports over 128 configs, budget is 30719$"):
        pg.polymer_partition(model, params, region, mode="direct")


def test_dressed_direct_route_at_one_t_is_its_grid_value_bit_for_bit():
    """Each value of the dressed direct route over a 64-point t grid has
    the bits of the call at that t alone."""
    model = nn_chain(radius=3, strength=0.1, spin=(-1, 1), boundary=1)
    ts = np.linspace(0.0, math.pi, 64)
    grid = pg._partition(pg._gas_for_mode(model, "box", None, "direct"), ts, 0.3, "direct")
    for t, on_grid in zip(ts.tolist(), grid.tolist()):
        alone = pg.polymer_partition(model, pg.ActivityParams(t=t, c=0.3), "box", mode="direct")
        assert bits(alone) == bits(on_grid), t


def test_dressed_identity_loop_builds_one_graph_table_per_region(monkeypatch):
    """The identity check's loop, both routes at each of 64 t and two
    dressings, builds the graph table of each region once."""
    builds = []
    real = pg._Gas.graph_table.func

    def counting(gas):
        builds.append(gas.system.sites)
        return real(gas)

    table = cached_property(counting)
    table.__set_name__(pg._Gas, "graph_table")
    monkeypatch.setattr(pg._Gas, "graph_table", table)
    pg._gas_for_system.cache_clear()
    model = nn_chain(radius=3, strength=0.1, spin=(-1, 1), boundary=1)
    regions = ("box", lm.resolve_region(model, "box")[2:])
    for region in regions:
        for c in (0.2, 0.4):
            for t in np.linspace(0.0, math.pi, 64).tolist():
                params = pg.ActivityParams(t=t, c=c)
                direct = pg.polymer_partition(model, params, region, mode="direct")
                gas = pg.polymer_partition(model, params, region, mode="polymer_sum")
                assert gas == pytest.approx(direct, rel=1e-10)
    assert builds == [lm.resolve_region(model, region) for region in regions]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    _coupling_graphs(max_sites=7, spins=((0, 1), (-1, 1), (1, 2), (-2, -1), (-1, 2))),
    st.floats(0.0, math.pi),
    st.floats(0.05, 1.0),
)
def test_dressed_direct_route_matches_gas_sum_on_random_coupling_graphs(case, t, c):
    """On random coupling graphs of 1 to 7 sites, spin intervals with and
    without 0 among them, the dressed direct route's graph table against
    the dressed gas sum within 1e-12 of the larger of |Xi_c(t)| and
    |Xi_c(0)|: Xi_c is no characteristic function, so Xi_c(0) need not
    be its largest value."""
    model, sites = case
    xi0 = pg.polymer_partition(model, pg.ActivityParams(t=0.0, c=c), sites, mode="polymer_sum")
    params = pg.ActivityParams(t=t, c=c)
    direct = pg.polymer_partition(model, params, sites, mode="direct")
    gas = pg.polymer_partition(model, params, sites, mode="polymer_sum")
    assert abs(direct - gas) <= 1e-12 * max(abs(direct), abs(xi0)), (direct, gas)


def test_dressed_direct_route_far_from_zero():
    """Spins {2^26, 2^26 + 1}: the graph table keeps n(q - 1) + 1 totals
    per support size wherever the interval sits, and the dressed direct
    route matches the walk over every graph on three sites (J = 2^-54, so
    J s s' is about 1/4) and the gas sum on one. The t are dyadic, so t
    times every total is exact and both sides round only in their cos, sin
    and products: within 8 eps of the larger of |Xi_c(t)| and |Xi_c(0)|."""
    lo = 2**26
    model = nn_chain(radius=1, strength=2.0**-54, spin=(lo, lo + 1), boundary=None)
    ts = np.array([0.0, 0.25, 0.375, 1.0, 3.0])
    box = lm.resolve_region(model, "box")
    for region in (box, box[:1]):
        gas = pg._gas_for_mode(model, region, None, "direct")
        n = len(region)
        for c in (0.3, 0.8):
            got = pg._partition(gas, ts, c, "direct")
            if n == 1:
                want = [pg._partition(pg._gas(model, region, None), t, c, "polymer_sum") for t in ts]
            else:
                want = graph_walk_partition(gas, ts, c)
            eps = np.finfo(float).eps
            for t, value, expected in zip(ts, got, want):
                assert abs(value - expected) <= 8 * eps * max(abs(expected), abs(want[0])), (n, c, t, value)
        assert gas.graph_table.shape == (n + 1, n + 1)


@pytest.mark.parametrize("mode", ["direct", "polymer_sum"])
@pytest.mark.parametrize("c", [0.0, 0.3])
def test_continuous_log_makes_one_call_over_its_grid(monkeypatch, mode, c):
    """Besides Xi(0), the continuous log takes Xi over its LOG_STEPS grid in
    one call, and matches the per-step loop."""
    model = nn_chain(radius=2, strength=0.2, spin=(0, 1), boundary=1)
    params = pg.ActivityParams(t=2.9, c=c)
    gas = pg._gas_for_mode(model, "box", None, mode)
    start = prev = pg._partition_at_zero(gas, c, mode)
    want = complex(math.log(start.real))
    for step in range(1, pg.LOG_STEPS + 1):
        cur = pg._partition(gas, params.t * step / pg.LOG_STEPS, c, mode)
        want += cmath.log(cur / prev)
        prev = cur
    shapes = []
    real = pg._partition

    def counting(gas, t, c, mode):
        shapes.append(np.shape(t))
        return real(gas, t, c, mode)

    monkeypatch.setattr(pg, "_partition", counting)
    got = pg.continuous_log_partition(model, params, region="box", mode=mode)
    assert shapes == [(), (pg.LOG_STEPS,)]
    assert abs(got - want) <= 1e-13


def test_char_fn_ratio_matches_exact_engine():
    rng = np.random.default_rng(16)
    for _ in range(6):
        model = random_model(rng)
        for t in (0.0, 0.5, 2.4):
            ratio = pg.char_fn_ratio(model, region="decimated", t=t)
            exact = ee.char_fn(model, region="decimated", t=t)
            assert ratio == pytest.approx(exact, rel=1e-11, abs=1e-12)


def test_continuous_log_partition_tracks_branch():
    model = nn_chain(radius=2, strength=0.2, spin=(0, 1), boundary=1)
    params = pg.ActivityParams(t=2.9)
    logz = pg.continuous_log_partition(model, params, region="box")
    direct = pg.polymer_partition(model, params, region="box", mode="direct")
    assert cmath.exp(logz) == pytest.approx(direct, rel=1e-9)


def test_truncated_series_within_certified_tail():
    """Weak coupling: the truncated series sits within its own tail bound
    of the continuous branch, and the absolute series obeys the budget."""
    model = nn_chain(radius=4, strength=1e-4, spin=(0, 1), boundary=1)
    from lclt_lab.verifier import constants

    delta = constants(model).delta
    params = pg.ActivityParams(t=delta / 2, delta_cap=delta)
    res = pg.truncated_log_partition(model, params, region="box", K=4)
    exact = pg.continuous_log_partition(model, params, region="box")
    n = 9
    assert res.truncation_order == 4
    assert res.dominating_tail is not None
    assert abs(res.partial_sums[-1] - exact) <= res.dominating_tail + 1e-12
    absres = pg.truncated_log_partition(model, params, region="box", K=4, absolute=True)
    assert absres.partial_sums[-1].real + absres.dominating_tail <= math.log(2.0) * n


def _damping_cases():
    """(model, region, omega) of the chain above and of the six region
    shapes the benchmark's series ops visit (chains of 5, 7 and 9 sites and
    a 6-site patch of the 3x3 box, q = 2 and 3) under seeded couplings and
    omegas on the sites around the region."""
    yield nn_chain(radius=4, strength=1e-4, spin=(0, 1), boundary=1), "box", None
    rng = np.random.default_rng(40)
    patch = ((-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0))
    for shape, n, spin in (
        ("chain", 5, (0, 1)), ("patch", 6, (-1, 0)), ("chain", 7, (0, 1)),
        ("patch", 6, (-1, 1)), ("chain", 7, (-1, 1)), ("chain", 9, (-1, 0)),
    ):
        strength = float(rng.choice((-1.0, 1.0)) * rng.uniform(1e-5, 5e-4))
        if shape == "chain":
            model = nn_chain(radius=(n - 1) // 2, strength=strength, spin=spin, boundary=spin[1])
            region, around = model.box.sites, [(-(n + 1) // 2,), ((n + 1) // 2,)]
        else:
            model = nn_chain(radius=1, strength=strength, spin=spin, boundary=spin[0], dimension=2)
            region = patch
            around = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) not in patch]
        yield model, region, {y: int(rng.integers(spin[0], spin[1] + 1)) for y in around}


def test_series_damping_matches_bisection_bit_for_bit():
    """theta, with e^{ak} and e^a - 1 taken once outside the bisection,
    equals the bisection that takes them at every step, bit for bit:
    undressed at a = ln 2 at two delta caps, and dressed at a = c/4, at t
    inside and outside the certified range."""
    from lclt_lab.verifier import constants

    checked = 0
    for model, region, omega in _damping_cases():
        delta = constants(model).delta
        gas = pg._gas(model, region, omega)
        for t, c, cap in ((delta / 2, 0.0, delta), (delta / 4, 0.0, delta / 2), (2.0, 0.0, delta), (0.3, 1.0, delta),
                          (0.3, 2.5, delta)):
            params = pg.ActivityParams(t=t, c=c, delta_cap=cap)
            a = math.log(2.0) if c == 0.0 else c / 4.0
            want = oracles.series_damping_by_bisection(model, gas, params, a)
            got = pg._series_damping(model, gas, params, a)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.hex() == want.hex()
                checked += 1
    assert checked >= 10


def test_series_damping_refuses_large_t_without_dressing():
    model = nn_chain(radius=4, strength=1e-4, spin=(0, 1), boundary=1)
    from lclt_lab.verifier import constants

    delta = constants(model).delta
    params = pg.ActivityParams(t=2.0, delta_cap=delta)
    res = pg.truncated_log_partition(model, params, region="box", K=3)
    assert res.dominating_tail is None


def _joined(idx, couplings) -> bool:
    """Whether the sites idx are connected by couplings among them."""
    seen, todo = {idx[0]}, [idx[0]]
    while todo:
        i = todo.pop()
        for j in idx:
            if j not in seen and j in couplings[i]:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(idx)


def test_weight_norm_sums_connected_sets_in_scan_order():
    """Each anchor sums the connected k-sets through it in the lexicographic
    order of their other sites, the order a scan of every k-subset adds
    them in, so the norm matches that scan bit for bit. The cap counts the
    (anchor, set) pairs listed: a 5x5 patch at k = 5, with more subsets per
    anchor than the cap allows, is summed."""
    for model, region in (
        (nn_chain(radius=4, strength=0.3, spin=(-1, 1), boundary=1), "box"),
        (nn_chain(radius=1, strength=-0.2, spin=(0, 1), boundary=1, dimension=2), "box"),
        complete_graph(6, 0.1, spin=(-1, 1)),
    ):
        gas = pg._gas(model, region, None)
        n = len(gas.sites)
        for k in range(2, 6):
            want = 0.0
            for anchor in range(n):
                total = 0.0
                for rest in combinations([i for i in range(n) if i != anchor], k - 1):
                    idx = tuple(sorted((anchor, *rest)))
                    if _joined(idx, gas.couplings):
                        total += pg._weight(gas, idx, 0.02)
                want = max(want, total * math.exp(0.7 * k))
            got = pg.weight_norm(model, k, "wc", delta=0.02, c=0.7, region=region)
            assert got.hex() == want.hex()
    patch = nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, dimension=2)
    assert math.comb(24, 4) * 25 > 1 << 18
    assert pg.weight_norm(patch, 5, "w1", delta=0.02, region="box") > 0.0


def test_weight_norm_cap_bounds_the_listing():
    """The cap bounds the work, not just the answer. A chain of 10001 sites
    at k = 2, whose C(10000, 1) * 10001 subsets through anchors pass the
    cap, has 10000 connected pairs and is summed, each anchor as on a short
    chain; on the
    complete graph of 40 sites, k = 5 is refused while the 4-site sets
    grow, before that level is complete. Past MAX_POLYMER_SIZE no set is
    listed: a component that large is refused by the polymer cap, and a
    region without one sums nothing."""
    short, long = (nn_chain(radius=r, strength=0.1, spin=(-1, 1), boundary=1) for r in (100, 5000))
    assert math.comb(10000, 1) * 10001 > 1 << 18
    want = pg.weight_norm(short, 2, "w1", delta=0.02, region="box")
    assert pg.weight_norm(long, 2, "w1", delta=0.02, region="box").hex() == want.hex()
    dense, sites = complete_graph(40, 0.01)
    with pytest.raises(CapacityError, match=r"^weight norm at size 5 over 40 sites: the connected sets of 4 ") as err:
        pg.weight_norm(dense, 5, "w1", delta=0.02, region=sites)
    reached = int(re.search(r"reach (\d+) ", str(err.value)).group(1))
    assert 1 << 18 < reached < 4 * math.comb(40, 4)
    clique, sites = complete_graph(18, 0.01)
    with pytest.raises(CapacityError, match=r"^polymer of 11 sites exceeds the cap of 10$"):
        pg.weight_norm(clique, 11, "w1", delta=0.02, region=sites)
    # 19 sites, the clique and one free site: no connected 19-set
    assert pg.weight_norm(clique, 19, "w1", delta=0.02, region="box") == 0.0


def test_weight_norm_bound_closed_form():
    """Computed cluster-weight norms stay under the closed-form bound."""
    model = nn_chain(radius=2, strength=0.15, spin=(0, 1), boundary=1)
    from lclt_lab.verifier import constants

    consts = constants(model)
    for k in (2, 3):
        norm = pg.weight_norm(model, k, weight_kind="w1", delta=consts.delta, region="box")
        bound = pg.weight_norm_bound(k, consts.delta, consts.sigma, consts.interaction_norm_full, c=1.0)
        assert norm <= bound + 1e-15
    with pytest.raises(PreconditionError):
        pg.weight_norm_bound(2, 0.01, 1, step_norm=1.5)
    with pytest.raises(DomainError):
        pg.weight_norm_bound(1, 0.01, 1, step_norm=0.5)


def test_geometric_norm_tail():
    assert pg.geometric_norm_tail(0.2, math.log(2.0), 2) == pytest.approx(
        sum((0.2 * 2.0) ** k for k in range(2, 200)), rel=1e-12
    )
    assert math.isinf(pg.geometric_norm_tail(0.6, math.log(2.0), 2))


def test_convergence_check():
    ok = pg.convergence_check({1: 0.05, 2: 0.01}, a=math.log(2.0))
    assert ok.satisfied
    assert ok.lhs == pytest.approx(0.05 * 2 + 0.01 * 4)
    assert ok.rhs == pytest.approx(1.0)
    bad = pg.convergence_check({1: 0.5, 2: 0.2}, a=math.log(2.0))
    assert not bad.satisfied
    with pytest.raises(DomainError):
        pg.convergence_check({1: 0.1}, a=0.0)


def test_stability_floor():
    rng = np.random.default_rng(17)
    for _ in range(20):
        model = random_model(rng)
        sites = lm.resolve_region(model, "box")
        k = int(rng.integers(2, min(5, len(sites)) + 1))
        picks = rng.choice(len(sites), size=k, replace=False)
        poly = pg.Polymer(tuple(sites[int(i)] for i in picks))
        # box-region polymers live on the step-1 lattice, so the floor
        # must use the step-1 norm, not the decimated default
        norm = lm.interaction_norm(model)
        bounds = pg.tree_graph_bound_check(model, poly, step_norm=norm, region="box")
        assert bounds.stability_lhs >= bounds.stability_floor - 1e-12


def _tree_chain_cases():
    """(model, polymer) of 15 seeded random models, each with a polymer of 2
    to 5 of its box sites, connected or not."""
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 15:
        model = random_model(rng)
        sites = lm.resolve_region(model, "box")
        if len(sites) < 2:
            continue
        k = int(rng.integers(2, min(5, len(sites)) + 1))
        picks = rng.choice(len(sites), size=k, replace=False)
        yield model, pg.Polymer(tuple(sites[int(i)] for i in picks))
        checked += 1


def test_tree_graph_bound_chain():
    for model, poly in _tree_chain_cases():
        bounds = pg.tree_graph_bound_check(
            model, poly, step_norm=lm.interaction_norm(model), region="box"
        )
        assert bounds.margin_trees >= -1e-12
        assert bounds.margin_chain >= -1e-12
        assert bounds.margin_j >= -1e-12
        assert bounds.stability_lhs >= bounds.stability_floor - 1e-12


def test_tree_graph_bounds_match_dense_tables_bit_for_bit():
    """Every field of the tree-graph check, whose sums run on the polymer's
    spin axes, against the same check on dense (k, k, configuration)
    tables, bit for bit: the whole region and a few other polymers,
    connected or not, of every _mayer_cases model, and the polymers of
    test_tree_graph_bound_chain."""
    rng = np.random.default_rng(33)
    cases = []
    for model, region, omega in _mayer_cases():
        sites = lm.resolve_region(model, region)
        polymers = [sites]
        for _ in range(3):
            k = int(rng.integers(2, min(5, len(sites)) + 1))
            polymers.append(tuple(sites[int(i)] for i in rng.choice(len(sites), size=k, replace=False)))
        cases += [(model, pg.Polymer(poly), region, omega) for poly in polymers]
    cases += [(model, poly, "box", None) for model, poly in _tree_chain_cases()]
    for model, poly, region, omega in cases:
        norm = lm.interaction_norm(model)
        got = pg.tree_graph_bound_check(model, poly, step_norm=norm, region=region, omega=omega)
        gas = pg._gas(model, region, omega)
        want = oracles.tree_bounds_by_dense_tables(gas, pg._indices(gas, poly), norm)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name).hex() == getattr(want, field.name).hex(), (field.name, poly)
    assert len(cases) > 100


def test_component_cap_raises_not_truncates():
    """A coupling component past MAX_POLYMER_SIZE is refused, whatever the
    region's size: 12 of a chain's sites, and all 15 of a chain the direct
    route sums."""
    model = nn_chain(radius=6, strength=0.1, spin=(0, 1), boundary=None)
    region = lm.resolve_region(model, "box")[:12]
    with pytest.raises(CapacityError, match="coupling component of 12 sites"):
        pg.polymer_partition(model, pg.ActivityParams(t=0.2), region=region, mode="polymer_sum")
    chain = nn_chain(radius=7, strength=0.1, spin=(0, 1), boundary=1)
    params = pg.ActivityParams(t=0.5)
    assert cmath.isfinite(pg.polymer_partition(chain, params, region="box", mode="direct"))
    with pytest.raises(CapacityError, match="coupling component of 15 sites"):
        pg.polymer_partition(chain, params, region="box", mode="polymer_sum")


def test_mayer_cap_is_one_for_every_entry_point():
    """Every entry point that reads a Mayer table, and the tree-graph check
    that builds the same configuration tables, takes a polymer of
    MAX_POLYMER_SIZE = 10 sites and refuses one of 11 with one message."""
    assert pg.MAX_POLYMER_SIZE == 10
    model = nn_chain(radius=5, strength=0.1, spin=(0, 1), boundary=1)
    sites = lm.resolve_region(model, "box")
    params = pg.ActivityParams(t=0.3)
    calls = (
        lambda poly: pg.activity(model, params, poly, region="box"),
        lambda poly: pg.activity_derivative(model, params, poly, order=1, region="box"),
        lambda poly: pg.activity_derivative(model, params, poly, order=2, region="box"),
        lambda poly: pg.weight_w0(model, poly, 0.01, region="box"),
        lambda poly: pg.weight_norm(model, len(poly), "w0", 0.01, region="box"),
        lambda poly: pg.tree_graph_bound_check(model, poly, region="box").margin_trees,
    )
    for call in calls:
        assert cmath.isfinite(call(pg.Polymer(sites[:10])))
        with pytest.raises(CapacityError, match=r"^polymer of 11 sites exceeds the cap of 10$"):
            call(pg.Polymer(sites))


def test_polymer_normalizes_sites():
    p = pg.Polymer(((2,), (0,), (2,)))
    assert p.sites == ((0,), (2,))
    with pytest.raises(DomainError):
        pg.Polymer(())


def test_oversized_region_fails_before_building(monkeypatch):
    """The direct route checks the resolved region before a System is
    built: the exact sum's work at band 0 against the default budget."""

    def no_build(*args, **kwargs):
        raise AssertionError("a System was built")

    monkeypatch.setattr(pg, "build_system", no_build)
    monkeypatch.setattr(ee, "_build", no_build)
    model = nn_chain(radius=512, strength=0.1, spin=(0, 1), boundary=1, r0=2, dimension=2)
    params = pg.ActivityParams(t=0.5)
    budget = r"^transfer sum needs at least 263169\*2\^1\*263170 steps, budget is 16777216$"
    with pytest.raises(CapacityError, match=budget):
        pg.polymer_partition(model, params, mode="direct")
    with pytest.raises(CapacityError, match=budget):
        pg.continuous_log_partition(model, params)
    with pytest.raises(CapacityError, match=r"spin grid needs 2\^15000 states"):
        _spin_grid([0, 1], 15000)
