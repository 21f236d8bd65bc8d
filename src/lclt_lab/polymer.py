"""Polymer-gas representation of decimated characteristic functions.

The decimated Gibbs expectation of e^{itS} factors through a gas of
nonempty site subsets ("polymers") with complex activities. Writing
p_x for the single-site measure tied to the conditioning spins, the gas
partition function

    Xi(t) = sum over configs of prod_x p_x(s_x) e^{i t s_x}
            prod over pairs of e^{J_xy s_x s_y}

equals 1 + sum over families of pairwise disjoint polymers of the product
of their activities, where a polymer of one site carries E_x(e^{its}) - 1
and a larger polymer carries the spin average of its phase factors times
the connected-graph Mayer sum of its internal couplings. A dressing
exponent c > 0 multiplies each activity by e^{c|R|} and removes the
single-site polymers; that variant is exactly the factor left over after
pulling e^{-c} out of every free site's characteristic function.

Only the phases depend on t, so each polymer's Mayer table, A_R(s) =
sum of p * (Mayer sum) over configurations of total spin s, is computed
once per region: the activity is e^{c|R|} sum_s A_R(s) e^{its}, and its
t-derivatives and the weights w0 that majorize it read the same table.
The tables come from combinatorics' rooted recursion, whose sum on a
connected set is built from the sums on its connected subsets: one pass
over each coupling component gives its connected polymers' tables, each on
its own sites' spin axes only, and a polymer looked up on its own gets a
pass over its own sites. Every pair sum of a polymer takes that one route:
the tree-graph check runs the same recursion on the same axes for the
Mayer sum and its two tree majorants.

Xi(t) has two independent routes. The direct one reads the exact engine's
sum over the same System: with z_x = sum_s e^{h_x s} the normalizer of p_x,
Xi(t) = Z / prod_x z_x * E(e^{itS}), and E(e^{itS}) is the Fourier sum of
the exact pmf, so the region is enumerated (or transfer-summed) once,
under the exact engine's default budget on that sum's work. The dressed
direct route (c > 0) reads a t-free table of the graphs of the region's
couplings instead: taking the coupled pairs one at a time, it keeps for
each support the per-configuration sum of prod_e (e^{J_e s s'} - 1) over
the graphs with that support, on the support's own sites, and bins it by
support size and by total spin above the size's least total;
GRAPH_SUM_BUDGET bounds the supports times the region's configurations.
Xi_c(t) then sums the Fourier sums of the table's rows, each weighted by
e^{c|support|} and shifted to its least total. Both direct routes take a
scalar t or a 1-D grid of t. The other route is the gas sum over Mayer
tables; the exact engine never reads a Mayer table. Polymers of different
coupling components never meet, so the region's gas is the product of its
components' gases (Kotecky and Preiss, Commun. Math. Phys. 103 (1986) 491),
and Xi is the product of one subset recursion per component. Each coupling
graph gets one schedule, shared by every component of that graph: its
connected polymers and, for each lowest site l, the recursion's
(mask, mask - P, P) steps on the masks that the value on the full mask
reads (the n suffixes of an n-site chain). Each region adds one plan,
built on first use and free of t: its components' schedules, with the
polymers' weight rows (single-site laws and Mayer tables) on every total
spin a polymer can take. At each t every activity then comes from one
matrix product with the phase columns, each component's recursion runs as
a Python loop over its steps in CPython complex numbers, level by level
over l, and the components' values are multiplied in order. Run with one
power of a formal lambda per polymer, the same loops give Xi(lambda)
through lambda^K, whose truncated log is the cluster series. Mayer tables
are built for polymers of up to MAX_POLYMER_SIZE sites, from the couplings
of the region's pair list, so the gas sum refuses a component past that
size, whatever the region's; the tree-graph check takes polymers under the
same cap. A value past float64's range is a CapacityError, never NaN; so
is an undressed Xi(0) under float64's smallest normal, which ratios and
logs divide by, and any Xi under it whose log is taken.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from . import exactengine as ee
from . import model as m
from ._system import SPIN_GRID_BUDGET, System, _check_grid, _omega_items, _spin_grid, build_system
from .combinatorics import _connected_extend, _connected_sets, _rooted_plan, _rooted_sum, _tree_extend
from .errors import LOG_FLOAT_MAX, LOG_FLOAT_MIN, CapacityError, DomainError, PreconditionError, require_normal_exp

GRAPH_SUM_BUDGET = 1 << 25
# Largest polymer whose Mayer table is built. The gas sum needs every
# connected subset of a coupling component, so it refuses regions with a
# larger component rather than drop polymers.
MAX_POLYMER_SIZE = 10
# t steps of the continuous log of Xi.
LOG_STEPS = 64


@dataclass(frozen=True)
class Polymer:
    """Nonempty set of sites, the unit of the gas."""

    sites: tuple[m.Site, ...]

    def __post_init__(self):
        if not self.sites:
            raise DomainError("a polymer needs at least one site")
        ordered = tuple(sorted(set(self.sites)))
        if ordered != self.sites:
            object.__setattr__(self, "sites", ordered)

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class ActivityParams:
    """Fourier variable t, dressing exponent c, and the delta cap used by weights."""

    t: float
    c: float = 0.0
    delta_cap: float | None = None

    def __post_init__(self):
        if self.c < 0:
            raise DomainError(f"dressing exponent must be nonnegative, got {self.c}")
        if self.delta_cap is not None and self.delta_cap <= 0:
            raise DomainError(f"delta cap must be positive, got {self.delta_cap}")


@dataclass(frozen=True)
class ClusterSeriesResult:
    """Order-truncated cluster series for log Xi.

    partial_sums[j] is the series through clusters of j+1 polymers;
    dominating_tail, when certifiable, bounds everything beyond the
    truncation order for the absolute series.
    """

    truncation_order: int
    partial_sums: tuple[complex, ...]
    by_order: tuple[complex, ...]
    dominating_tail: float | None
    damping: float | None


@dataclass(frozen=True)
class ConvergenceCheck:
    satisfied: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class TreeGraphBounds:
    """Mayer sum against its tree and coupling-norm majorants.

    lhs, rhs_trees, rhs_j are evaluated at the spin configuration
    maximizing lhs; the margins are minima of rhs - lhs over every
    configuration; stability_lhs is the least pair energy against its
    stability floor.
    """

    lhs: float
    rhs_trees: float
    rhs_j: float
    margin_trees: float
    margin_chain: float
    margin_j: float
    stability_lhs: float
    stability_floor: float


class _Gas:
    """Per-region tables: single-site measures, and t-free caches filled on
    first use: each site's couplings, its coupling components, the gas-sum
    plan, log Xi(0) and the pmf of S (which every undressed direct-route
    call reads), the graph table (which every dressed direct-route call
    reads), Mayer tables by polymer index tuple (the plan's passes fill
    every connected polymer's, a lookup before them one polymer's), weight
    norms by (size, dressing, delta) and series dampings by (c, delta, a,
    step norm)."""

    def __init__(self, system: System):
        self.system = system
        self.sites = system.sites
        self.values = np.array(system.values, dtype=float)
        self.q = len(system.values)
        self.index = {x: i for i, x in enumerate(system.sites)}
        self.probs = system.site_probs()
        self.sigma = int(max(abs(v) for v in system.values))
        self.mayer: dict[tuple[int, ...], tuple[int, np.ndarray, float]] = {}
        self.norms: dict[tuple[int, float, float], float] = {}
        self.dampings: dict[tuple[float, float, float, float], float | None] = {}

    @cached_property
    def couplings(self) -> list[dict[int, float]]:
        """Coupled sites of each site, with their couplings."""
        couplings: list[dict[int, float]] = [{} for _ in self.sites]
        for i, j, v in self.system.pairs:
            if v != 0.0:
                couplings[i][j] = couplings[j][i] = v
        return couplings

    @cached_property
    def components(self) -> list[tuple[int, ...]]:
        """Site indices of each coupling component, ascending, the components
        in order of their lowest site."""
        seen, components = set(), []
        for start in range(len(self.sites)):
            if start in seen:
                continue
            seen.add(start)
            todo, members = [start], []
            while todo:
                i = todo.pop()
                members.append(i)
                for j in self.couplings[i]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            components.append(tuple(sorted(members)))
        return components

    @cached_property
    def plan(self) -> _Plan:
        return _build_plan(self)

    @cached_property
    def xi0(self) -> tuple[float, ee.PmfTable]:
        """(log Xi(0), pmf of S) from the exact engine's sum over the
        region's System: Xi(0) = Z / prod_x z_x with Z = e^shift Z_shifted."""
        shift, z, _, _, table = ee._moments(self.system)
        log_norms = np.logaddexp.reduce(np.outer(self.system.field_array, self.values), axis=1)
        return shift + math.log(z) - float(log_norms.sum()), table

    @cached_property
    def graph_table(self) -> np.ndarray:
        """(n + 1, n(q - 1) + 1) table, free of t and c: table[m, k] sums,
        over the graphs of the region's couplings whose support has m sites,
        the support's law times prod_e (e^{J_e s s'} - 1) at total spin
        m*lo + k, lo the least spin, so a row's width does not depend on
        where the spin interval sits; the empty support is 1 at total 0. The
        supports grow one coupled pair at a time, in System order, on the
        sites' _site_axes, each sum on its own q^|support| configurations;
        before each pair the budget counts twice the supports held times the
        region's q^n configurations."""
        n = len(self.sites)
        _check_grid(self.q, n)
        _, laws, pairs = _site_axes(self, tuple(range(n)))
        cols = self.q**n
        sums = {0: np.ones(())}
        for a, b, _, x in pairs:
            # the pair can at most double the supports held
            if 2 * len(sums) * cols > GRAPH_SUM_BUDGET:
                raise CapacityError(
                    f"graph sum needs 2*{len(sums)} supports over {cols} configs, budget is {GRAPH_SUM_BUDGET}"
                )
            u = np.expm1(x)
            pair = (1 << a) | (1 << b)
            for support, prod in list(sums.items()):
                grown = prod * u
                got = sums.get(support | pair)
                sums[support | pair] = grown if got is None else got + grown
        table = np.zeros((n + 1, n * (self.q - 1) + 1))
        table[0, 0] = 1.0
        joint, values = {}, tuple(self.values.tolist())
        for support, prod in sums.items():
            if support:
                k = support.bit_count()
                # the bins sit above the least total of k sites, k*lo
                weighted = (_joint_law(joint, laws, support) * prod).ravel()
                amps = np.bincount(_total_bins(values, k)[1], weights=weighted)
                table[k, : len(amps)] += amps
        return table


@dataclass(frozen=True)
class _Plan:
    """The gas sum's t-free tables over one region.

    Rows are the connected polymers of each coupling component in turn, in
    the order of the component's _schedule. parts holds, per component, its
    slice of the rows, its site count and its schedule's loop, the steps
    over the masks of the component's sites that its factor of Xi reads,
    shared with every component of that coupling graph. sizes holds each
    row's site count, and weights each row's single-site law or Mayer table
    on `spins`, every total spin a polymer of the region can take.
    """

    parts: tuple
    sizes: np.ndarray
    spins: np.ndarray
    weights: np.ndarray

    def activities(self, t: float, c: float, order: int = 0) -> np.ndarray:
        """_activities of every row."""
        return _activities(self.spins, self.weights, self.sizes, t, c, order)


@lru_cache(maxsize=256)
def _gas_for_system(system: System) -> _Gas:
    return _Gas(system)


def _gas(model: m.GibbsModel, region, omega) -> _Gas:
    return _gas_for_system(build_system(model, region, omega))


def _gas_for_mode(model: m.GibbsModel, region, omega, mode: str) -> _Gas:
    """_gas for the mode: direct, once the exact engine's sum fits its
    default budget, checked before the System is built, as every exact sum
    is checked."""
    if mode != "direct":
        return _gas(model, region, omega)
    return _gas_for_system(ee._checked_system(model, region, ee.DEFAULT_BUDGET, _omega_items(omega)))


def _polymer_sites(polymer) -> tuple[m.Site, ...]:
    if isinstance(polymer, Polymer):
        return polymer.sites
    return Polymer(tuple(polymer)).sites


def _indices(gas: _Gas, polymer) -> tuple[int, ...]:
    sites = _polymer_sites(polymer)
    try:
        return tuple(sorted(gas.index[x] for x in sites))
    except KeyError as err:
        raise DomainError(f"site {err.args[0]} is not in the region") from None


def _check_polymer(k: int) -> None:
    """Refuse a polymer past MAX_POLYMER_SIZE sites."""
    if k > MAX_POLYMER_SIZE:
        raise CapacityError(f"polymer of {k} sites exceeds the cap of {MAX_POLYMER_SIZE}")


def _site_axes(gas: _Gas, idx: tuple[int, ...]):
    """(adjacency, laws, pairs) of the sites idx, ascending, site idx[a] on
    axis -1-a: the bit mask of each site's coupled sites among idx, each
    site's law on its axis, and (a, b, J, (J s_a) s_b) of each coupled pair
    a < b in System order, the product on the two sites' axes. An array
    built from them on a set of sites fills just that set's q^|V|
    configurations, whose C-order ravel is _spin_grid's order (lowest site
    fastest)."""
    local = {i: a for a, i in enumerate(idx)}
    adjacency = [sum(1 << local[j] for j in gas.couplings[i] if j in local) for i in idx]
    shapes = [(gas.q,) + (1,) * a for a in range(len(idx))]
    spins = [gas.values.reshape(shape) for shape in shapes]
    laws = [gas.probs[i].reshape(shape) for i, shape in zip(idx, shapes)]
    # a site's couplings list its higher partners ascending, so the pairs
    # come by lower site and then higher, as System lists them
    pairs = [
        (a, b, v, (v * spins[a]) * spins[b])
        for a, i in enumerate(idx)
        for j, v in gas.couplings[i].items()
        if (b := local.get(j)) is not None and b > a
    ]
    return adjacency, laws, pairs


def _edge_factors(k: int, pairs, factor) -> list[dict[int, np.ndarray]]:
    """u[a][b] = u[b][a] = factor(J, (J s_a) s_b) of each _site_axes pair,
    the edge factors _rooted_sum takes."""
    u: list[dict[int, np.ndarray]] = [{} for _ in range(k)]
    for a, b, v, x in pairs:
        u[a][b] = u[b][a] = factor(v, x)
    return u


def _energy(pairs) -> np.ndarray:
    """Internal coupling energy sum_{a<b} J s_a s_b on the _site_axes axes,
    the pair products added in order to 0."""
    return sum((x for *_, x in pairs), np.zeros(()))


def _overflow(route: str, gas: _Gas, components) -> CapacityError:
    """The error for a non-finite value on the sites of some coupling
    components: the route, their site count and the largest log weight
    p e^{energy} of their configurations. Weights factor over components,
    so that is the sum of each component's largest, from its own grid."""
    log_weight = 0.0
    for comp in components:
        _check_grid(gas.q, len(comp))
        _, laws, pairs = _site_axes(gas, comp)
        with np.errstate(divide="ignore"):
            log_law = np.log(_joint_law({}, laws, (1 << len(comp)) - 1))
        log_weight += float((log_law + _energy(pairs)).max())
    return CapacityError(
        f"{route} on {sum(map(len, components))} sites is not finite: the largest log weight is"
        f" {log_weight:.1f}, float64 ends at {LOG_FLOAT_MAX:.1f}"
    )


@lru_cache(maxsize=1 << 14)
def _members(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=256)
def _schedule(adjacency: tuple[int, ...]):
    """(polymers, masks, sizes, loop): the gas sum's schedule on one coupling
    component of n sites, adjacency its sites' neighbour masks.

    polymers lists the connected site sets as index tuples, masks
    descending (so grouped by lowest site, the order the recursion adds
    them in), with their masks and sizes. Its factor of Xi is the value on
    the full mask, which reads only some masks: the full mask is read, and
    for a read mask M with lowest site l, so is M - P for every polymer P
    with lowest site l inside M ({l} included). Level l holds the read
    masks M with lowest site l, and its steps are (M, M - P, row of P) for
    every polymer P with lowest site l that M holds, polymer by polymer and
    M ascending. The one-site polymer {l}, the last row with lowest site l,
    comes last: its steps are (M, M - l) for every read mask M of the
    level, which the dressed gas leaves out. The levels are built from
    l = 0 up, each marking the sources it reads. loop holds them as Python
    tuples, l = n-1 down to 0: the (M, M - l) pairs of the level's read
    masks, its steps, and its steps short of the one-site polymer's. Every
    component of the graph shares the schedule, so its arrays are read-only.
    """
    n = len(adjacency)
    # the key of _rooted_sum's pass over every set, so the two share one plan
    descending = _rooted_plan(adjacency, None)[0][::-1]
    polymers = tuple(map(_members, descending))
    masks = np.array(descending, dtype=np.int32)
    sizes = np.array([len(idx) for idx in polymers], dtype=int)
    lowest = np.array([idx[0] for idx in polymers])
    read = np.zeros(1 << n, dtype=bool)
    read[-1] = True
    levels = []
    for low in range(n):
        targets = np.arange(1 << low, 1 << n, 2 << low, dtype=np.int32)
        targets = targets[read[targets]]
        rows = np.flatnonzero(lowest == low)
        held = (targets[None, :] & masks[rows, None]) == masks[rows, None]
        which, at = np.nonzero(held)
        sources = targets[at] ^ masks[rows[which]]
        read[sources] = True
        steps = tuple(zip(targets[at].tolist(), sources.tolist(), rows[which].tolist()))
        copies = tuple(zip(targets.tolist(), (targets ^ (1 << low)).tolist()))
        levels.append((copies, steps, steps[: len(steps) - len(copies)]))
    for array in (masks, sizes):
        array.flags.writeable = False
    return polymers, masks, sizes, tuple(reversed(levels))


def _joint_law(memo: dict, laws: list, mask: int) -> np.ndarray:
    """Product of laws[a] over the positions a of mask, ascending, left to
    right, each prefix kept in memo."""
    got = memo.get(mask)
    if got is None:
        high = mask.bit_length() - 1
        rest = mask ^ (1 << high)
        got = memo[mask] = laws[high] if not rest else _joint_law(memo, laws, rest) * laws[high]
    return got


@lru_cache(maxsize=64)
def _total_bins(values: tuple[float, ...], k: int) -> tuple[int, np.ndarray]:
    """(lowest, bins): the least total spin of k sites and each
    configuration's total less it, in _spin_grid order."""
    totals = _spin_grid(np.array(values), k).sum(axis=0)
    return int(totals.min()), np.rint(totals - totals.min()).astype(np.intp)


def _mayer_pass(gas: _Gas, idx: tuple[int, ...], every: bool):
    """(adjacency, keys): Mayer tables (see _mayer) from one rooted
    recursion over the sites idx, ascending: of each connected set of two or
    more of them (every), or of idx itself, the recursion then over the sets
    its sum reaches; every lists the sets from the coupling graph's
    _schedule. Tables already cached are kept, and with none to make the
    recursion does not run. adjacency is the sites' _site_axes adjacency,
    the key of their schedule; keys holds the region site indices of each
    set listed (every: each of the schedule's polymers, in its order, one
    site ones included), each key built once here, so the gas-sum plan
    reads its weight rows by them.

    The sites sit on their _site_axes, each pair's factor e^{J s s'} - 1 on
    its two sites' axes, so every set's Mayer sum fills just its own q^|V|
    configurations in _spin_grid's order. Joint laws, sums and the |sum|
    mass are then the products the set's own spin grid would give, in the
    same order, and the total spins come from that grid (one per set size),
    so a table keeps every bit. Each table is made in one pass over its
    configurations: its |sum| mass sum p |C| is its one finiteness test,
    finite just when every p C is (an infinite or NaN product, 0 * inf
    included, makes it inf or NaN). Tables are made, and the first past
    MAX_POLYMER_SIZE sites, past the spin-grid budget or not finite
    refused, in descending mask order, the order the gas-sum plan reads
    them.
    """
    k = len(idx)
    adjacency, laws, pairs = _site_axes(gas, idx)
    if every:
        polymers, masks = _schedule(tuple(adjacency))[:2]
        masks, target = masks.tolist(), None
    else:
        polymers, masks, target = (tuple(range(k)),), [(1 << k) - 1], (1 << k) - 1
    keys = [tuple(map(idx.__getitem__, members)) for members in polymers]
    todo = [(mask, key) for mask, key in zip(masks, keys) if len(key) > 1 and key not in gas.mayer]
    if not todo:
        return adjacency, keys
    # idx (a coupling component, or the one polymer looked up) is the
    # largest set and comes first unless its table is cached, when it
    # passed; the caps grow with the size, so idx's check is the one that
    # can fail, on the first set
    _check_polymer(k)
    _check_grid(gas.q, k)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _edge_factors(k, pairs, lambda _, x: np.expm1(x))
        sums = _rooted_sum(factors, adjacency, _connected_extend, np.ones(()), target)
        joint, values = {}, tuple(gas.values.tolist())
        for mask, key in todo:
            probs = _joint_law(joint, laws, mask)
            csum = sums.get(mask)
            if csum is None:  # a disconnected polymer
                csum = np.zeros(probs.shape)
            abs_mass = float(np.dot(probs.ravel(), np.abs(csum).ravel()))
            if not math.isfinite(abs_mass):
                raise _overflow("Mayer table", gas, [key])
            lowest, bins = _total_bins(values, len(key))
            gas.mayer[key] = (lowest, np.bincount(bins, weights=(probs * csum).ravel()), abs_mass)
    return adjacency, keys


def _mayer(gas: _Gas, idx: tuple[int, ...]) -> tuple[int, np.ndarray, float]:
    """(lowest, amps, abs_mass) of a polymer, cached on the gas: amps[j] sums
    p * (Mayer sum) over the configurations of total spin lowest + j;
    abs_mass averages |Mayer sum|. A missing table comes from a pass over
    the polymer's own sites. Polymers past MAX_POLYMER_SIZE sites are
    refused."""
    got = gas.mayer.get(idx)
    if got is None:
        _mayer_pass(gas, idx, every=False)
        got = gas.mayer[idx]
    return got


def _activities(spins: np.ndarray, weights: np.ndarray, sizes: np.ndarray, t: float, c: float, order: int = 0):
    """sum_s w(s) (is)^order e^{its} of each row w of weights over the spins,
    in one matrix product with the columns of (is)^order e^{its}: the
    activities at order 0, their t-derivatives at orders 1 and 2. A row of
    size 1 is a single-site law; at order 0 it carries its -1 as
    e^{its} - 1 = -2 sin^2(ts/2) + i sin(ts), which cancels nothing at
    small t. A row of two or more sites is a Mayer table, and its sum is
    multiplied by e^{c|R|}."""
    ts = t * spins
    cos, sin = np.cos(ts), np.sin(ts)
    if order == 0:
        half = np.sin(ts / 2.0)
        columns = (cos, sin, -2.0 * (half * half))
    elif order == 1:
        columns = (-spins * sin, spins * cos)
    else:
        square = spins * spins
        columns = (-square * cos, -square * sin)
    parts = weights @ np.stack(columns, axis=1)
    real, imag = parts[:, 0], parts[:, 1]
    if order == 0:
        real = np.where(sizes == 1, parts[:, 2], real)
    if c != 0.0:
        scale = np.array([math.exp(c * k) for k in range(int(sizes.max(initial=0)) + 1)])[sizes]
        real, imag = real * scale, imag * scale
    out = np.empty(len(sizes), dtype=complex)
    out.real, out.imag = real, imag
    return out


def _activity_from_indices(gas: _Gas, idx: tuple[int, ...], t: float, c: float, order: int = 0) -> complex:
    """_activities of one polymer, its row read off its own table without
    the region's plan: the single-site law (undressed only) or the Mayer
    table."""
    k = len(idx)
    if k == 1:
        if c != 0.0:
            raise DomainError("the dressed representation has no single-site polymers")
        spins, weights = gas.values, gas.probs[idx[0]]
    else:
        lowest, weights, _ = _mayer(gas, idx)
        spins = lowest + np.arange(len(weights), dtype=float)
    return complex(_activities(spins, weights[None, :], np.array([k]), t, c, order)[0])


def activity(model: m.GibbsModel, params: ActivityParams, polymer, region="decimated", omega=None) -> complex:
    """Gas activity of one polymer at the given t and dressing.

    One site: E_x(e^{its}) - 1 (undressed only). Two or more sites:
    e^{c|R|} times the spin average of the phase product against the
    connected Mayer sum of the internal couplings, read off the polymer's
    Mayer table.
    """
    gas = _gas(model, region, omega)
    return _activity_from_indices(gas, _indices(gas, polymer), params.t, params.c)


def activity_derivative(
    model: m.GibbsModel, params: ActivityParams, polymer, order: int = 1, region="decimated", omega=None
) -> complex:
    """Analytic d/dt or d2/dt2 of the activity at params.t.

    Differentiating the phase product inserts (i S_R) per order, with
    S_R the total spin of the polymer.
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    gas = _gas(model, region, omega)
    return _activity_from_indices(gas, _indices(gas, polymer), params.t, params.c, order)


def _partition_direct(gas: _Gas, t, c: float):
    n = len(gas.sites)
    if c == 0.0:
        # Every site carries its phase factor: Xi(t) = Xi(0) times the exact
        # characteristic function.
        log_xi0, table = gas.xi0
        require_normal_exp(f"direct route on {n} sites", "Xi(0)", log_xi0)
        return math.exp(log_xi0) * ee.char_from_pmf(table, t)

    # Dressed variant: every graph of the region's couplings is weighted by
    # e^{c|support|} and carries phase factors on its support only. Row m of
    # the graph table sits at totals m*lo + k, so its Fourier sum about the
    # row's centre takes the shift factor e^{it(m*lo + centre)}.
    table = gas.graph_table
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    lo, centre = int(gas.values[0]), (table.shape[1] - 1) / 2
    xi = np.zeros(flat.shape, dtype=complex)
    for size, row in enumerate(ee._fourier(table, flat)):
        xi += math.exp(c * size) * np.exp(1j * (flat * (size * lo + centre))) * row
    return complex(xi[0]) if ts.ndim == 0 else xi.reshape(ts.shape)


def _build_plan(gas: _Gas) -> _Plan:
    """The region's _Plan: per coupling component, its _schedule and the
    weight rows of its own laws and Mayer tables, the tables from one
    _mayer_pass over its sites, each row read by the site key that pass
    built for its polymer. The recursion needs every connected subset
    of a component; dropping the large ones would silently break the
    identity the gas sum certifies, so a component past MAX_POLYMER_SIZE
    is refused here, and so are weight rows past SPIN_GRID_BUDGET totals."""
    largest = max(map(len, gas.components), default=0)
    if largest > MAX_POLYMER_SIZE:
        raise CapacityError(
            f"the region has a coupling component of {largest} sites, so the gas sum"
            f" needs polymers up to that size; cap is {MAX_POLYMER_SIZE}"
        )
    # every total spin of k = 1..largest sites
    lo, hi = int(gas.values[0]), int(gas.values[-1])
    base = min(lo, largest * lo)
    width = max(hi, largest * hi) - base + 1
    if width > SPIN_GRID_BUDGET:
        raise CapacityError(f"gas-sum weight rows span {width} total spins, budget is {SPIN_GRID_BUDGET}")
    parts, polymers = [], []
    for comp in gas.components:
        adjacency, keys = _mayer_pass(gas, comp, every=True)
        parts.append((slice(len(polymers), len(polymers) + len(keys)), len(comp), _schedule(tuple(adjacency))[3]))
        polymers += keys
    weights = np.zeros((len(polymers), width))
    for row, idx in enumerate(polymers):
        if len(idx) == 1:
            start, table = lo, gas.probs[idx[0]]
        else:
            start, table, _ = gas.mayer[idx]
        weights[row, start - base : start - base + len(table)] = table
    sizes = np.array([len(idx) for idx in polymers], dtype=int)
    return _Plan(tuple(parts), sizes, base + np.arange(width, dtype=float), weights)


def _gas_sum(plan: _Plan, z: np.ndarray, K: int | None = None, dressed: bool = False):
    """Xi from the activities z of the plan's rows: the product, in
    component order, of each coupling component's X[full], by
    X[M] = X[M - l] + sum_P z_P X[M - P] on its sites, l the lowest site of
    M and P over the polymers with lowest site l inside M, masks
    descending, so the one-site polymer {l} last (left out when dressed),
    on the masks that X[full] reads.

    A mask with lowest site l reads only masks above l, so the masks go by
    level, l = n-1 down to 0: each read mask of the level copies X[M - l],
    then the level's steps add to it in polymer order. Each read mask gets
    the same additions in the same order as a loop over masks and polymers,
    rounded as that loop rounds. Each factor is that loop, run over its
    part's loop in CPython complex numbers; the first is taken as it is.
    With K, every z_P carries one power of lambda: each X[M] is then a list
    of its coefficients through lambda^K, each step adds z_P times
    X[M - P]'s coefficient j to X[M]'s coefficient j + 1, and the factors'
    lists are multiplied truncated at lambda^K.
    """
    # a real z enters as z + 0i
    zs = np.asarray(z, dtype=complex).tolist()
    xi = 1 + 0j if K is None else [1 + 0j] + [0j] * K
    degrees = range(K or 0)
    for part, (rows, n, loop) in enumerate(plan.parts):
        zp = zs if part == 0 else zs[rows]
        if K is None:
            x = [0j] * (1 << n)
            x[0] = 1 + 0j
            for copies, steps, dressed_steps in loop:
                for target, source in copies:
                    x[target] = x[source]
                for target, source, row in dressed_steps if dressed else steps:
                    x[target] += zp[row] * x[source]
            xi = x[-1] if part == 0 else xi * x[-1]
            continue
        xs = [None] * (1 << n)
        xs[0] = [1 + 0j] + [0j] * K
        for copies, steps, dressed_steps in loop:
            for target, source in copies:
                xs[target] = xs[source].copy()
            for target, source, row in dressed_steps if dressed else steps:
                z, into, got = zp[row], xs[target], xs[source]
                for j in degrees:
                    into[j + 1] += z * got[j]
        got = xs[-1]
        xi = got if part == 0 else [sum(xi[i] * got[j - i] for i in range(j + 1)) for j in range(K + 1)]
    return xi


def _partition_polymer_sum(gas: _Gas, t, c: float):
    plan = gas.plan
    xis = [complex(_gas_sum(plan, plan.activities(tau, c), dressed=c != 0.0)) for tau in np.atleast_1d(t).tolist()]
    return xis[0] if np.ndim(t) == 0 else np.array(xis)


_ROUTES = {"direct": _partition_direct, "polymer_sum": _partition_polymer_sum}


def _partition(gas: _Gas, t, c: float, mode: str):
    """Xi at a scalar t (a complex) or over a 1-D grid of t (an array)."""
    route = _ROUTES.get(mode)
    if route is None:
        raise DomainError(f"unknown mode {mode!r}; use 'direct' or 'polymer_sum'")
    xi = route(gas, t, c)
    # a scalar t gives a complex, whose test cmath takes without numpy
    if not (cmath.isfinite(xi) if isinstance(xi, complex) else np.isfinite(xi).all()):
        raise _overflow(f"{mode} route", gas, gas.components)
    return xi


def polymer_partition(
    model: m.GibbsModel, params: ActivityParams, region="decimated", omega=None, mode="direct"
) -> complex:
    """Gas partition function Xi(t), by direct enumeration or by the gas sum.

    The two modes must agree to enumeration precision; that identity is the
    master check of this module.
    """
    return _partition(_gas_for_mode(model, region, omega, mode), params.t, params.c, mode)


def _partition_at_zero(gas: _Gas, c: float, mode: str) -> complex:
    """Xi(0), which ratios and logs of Xi divide by. Undressed it is positive;
    one under float64's smallest normal is a CapacityError naming log Xi(0),
    which the direct route raises itself and the gas sum takes from the
    exact engine's sum."""
    xi0 = _partition(gas, 0.0, c, mode)
    if c == 0.0 and not abs(xi0) >= sys.float_info.min:
        raise CapacityError(
            f"{mode} route on {len(gas.sites)} sites is not a positive normal float64:"
            f" log Xi(0) is {gas.xi0[0]:.1f}, float64 normals end at {LOG_FLOAT_MIN:.1f}"
        )
    return xi0


def char_fn_ratio(
    model: m.GibbsModel, region="decimated", t: float = 0.0, omega=None, mode="polymer_sum"
) -> complex:
    """Xi(t)/Xi(0): the characteristic function of the region's total spin."""
    gas = _gas_for_mode(model, region, omega, mode)
    return _partition(gas, float(t), 0.0, mode) / _partition_at_zero(gas, 0.0, mode)


def continuous_log_partition(
    model: m.GibbsModel, params: ActivityParams, region="decimated", omega=None, mode="direct"
) -> complex:
    """log Xi(t) on the branch continuous in t from t=0.

    Xi(0) is real and positive; the log is accumulated over LOG_STEPS small
    t steps, all evaluated in one call, so each increment stays within the
    principal strip. Principal-branch evaluation at the endpoint would be
    wrong once the phase winds. An Xi under float64's smallest normal has
    lost its digits, so its log is a CapacityError naming its t; so is an
    undressed direct-route |Xi(t)|/Xi(0) under the rounding floor of the
    exact pmf's Fourier sum, its width times eps, where the sum is noise.
    """
    gas = _gas_for_mode(model, region, omega, mode)
    start = _partition_at_zero(gas, params.c, mode)
    if abs(start.imag) > 1e-9 * abs(start) or start.real <= 0:
        raise PreconditionError(f"partition function at t=0 is {start!r}, not positive")
    ts = params.t * np.arange(1, LOG_STEPS + 1) / LOG_STEPS
    xis = [start] + _partition(gas, ts, params.c, mode).tolist()
    width = len(gas.xi0[1].probabilities) if mode == "direct" and params.c == 0.0 else 0
    floor = width * np.finfo(float).eps
    for t, xi in zip([0.0] + ts.tolist(), xis):
        if not abs(xi) >= sys.float_info.min:
            raise CapacityError(
                f"{mode} route on {len(gas.sites)} sites: |Xi({t!r})| = {abs(xi):.3g} is under"
                f" float64's smallest normal, so its log has no digits"
            )
        if abs(xi) < floor * start.real:
            raise CapacityError(
                f"{mode} route on {len(gas.sites)} sites: |Xi({t!r})|/Xi(0) = {abs(xi) / start.real:.3g} is"
                f" under the rounding floor {floor:.3g} of the pmf's Fourier sum over {width} totals,"
                " so its log has no digits"
            )
    log_val = complex(math.log(start.real))
    for prev, cur in zip(xis, xis[1:]):
        log_val += cmath.log(cur / prev)
    return log_val


def _weight(gas: _Gas, idx: tuple[int, ...], delta: float) -> float:
    """w0 of a polymer of two or more sites: (1 + delta*sigma)^|R| times the
    spin average of |connected Mayer sum|."""
    return (1.0 + delta * gas.sigma) ** len(idx) * _mayer(gas, idx)[2]


def weight_w0(model: m.GibbsModel, polymer, delta: float, region="decimated", omega=None) -> float:
    """t-uniform majorant of the activity: delta*sigma for one site, else
    (1 + delta*sigma)^|R| times the spin average of |connected Mayer sum|.

    The absolute value sits inside the spin sum and outside the graph sum.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    gas = _gas(model, region, omega)
    idx = _indices(gas, polymer)
    if len(idx) == 1:
        return delta * gas.sigma
    return _weight(gas, idx, delta)


_WEIGHT_DRESSING = {"w0": 0.0, "w1": 1.0}


def weight_norm(
    model: m.GibbsModel,
    k: int,
    weight_kind: str = "w1",
    delta: float = 0.0,
    c: float | None = None,
    region="decimated",
    omega=None,
) -> float:
    """Largest, over anchor sites, sum of size-k polymer weights through the anchor."""
    if k < 1:
        raise DomainError(f"polymer size must be positive, got {k}")
    if weight_kind in _WEIGHT_DRESSING:
        dress = _WEIGHT_DRESSING[weight_kind]
    elif weight_kind == "wc":
        if c is None:
            raise DomainError("weight_kind 'wc' needs the dressing exponent c")
        dress = float(c)
    else:
        raise DomainError(f"unknown weight kind {weight_kind!r}")
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    return _weight_norm(_gas(model, region, omega), k, dress, delta)


def _weight_norm(gas: _Gas, k: int, dress: float, delta: float) -> float:
    """weight_norm on the region's gas, cached on it by (k, dress, delta).

    The connected k-sets are grown along the couplings, and each anchor sums
    the weights of those through it in the lexicographic order of their
    other sites. The cap of 2^18 counts the (anchor, set) pairs of each
    size the listing grows through; the listing is refused as soon as one
    passes it."""
    n = len(gas.sites)
    if k > n:
        return 0.0
    if k == 1:
        return delta * gas.sigma * math.exp(dress)
    cached = gas.norms.get((k, dress, delta))
    if cached is not None:
        return cached
    if k > MAX_POLYMER_SIZE:
        # a connected k-set has no table: refuse as its lookup would, or,
        # with no such set, sum nothing
        if max(map(len, gas.components), default=0) >= k:
            _check_polymer(k)
        return 0.0
    try:
        sets = _connected_sets(gas.couplings, k, cap=1 << 18)
    except CapacityError as err:
        raise CapacityError(f"weight norm at size {k} over {n} sites: {err}") from None
    # sets holding the anchor, in lexicographic order, are in that order of
    # their other sites too
    through: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for idx in sets:
        for i in idx:
            through[i].append(idx)
    factor = math.exp(dress * k)
    best = 0.0
    for anchor_sets in through:
        total = 0.0
        for idx in anchor_sets:
            total += _weight(gas, idx, delta)
        best = max(best, total * factor)
    gas.norms[(k, dress, delta)] = best
    return best


def weight_norm_bound(k: int, delta: float, sigma: int, step_norm: float, c: float = 1.0) -> float:
    """Closed-form majorant of the size-k weight norm for e^{ck}-dressed weights.

    [(1+delta*sigma) e^{1+c} e^{step_norm*sigma^2/2} sigma^2 sqrt(step_norm)]^k.
    Needs step_norm <= 1: the tree-edge bound spends sqrt(step_norm) per
    polymer site against step_norm per tree edge, which only closes for a
    subunit norm.
    """
    if k < 2:
        raise DomainError(f"the closed-form norm bound needs k >= 2, got {k}")
    if step_norm < 0:
        raise DomainError(f"step norm must be nonnegative, got {step_norm}")
    if step_norm > 1:
        raise PreconditionError(f"step norm {step_norm} exceeds 1; the per-edge split fails")
    if c < 0:
        raise DomainError(f"dressing exponent must be nonnegative, got {c}")
    lead = 1.0 + delta * sigma
    base = lead * math.exp(1.0 + c) * math.exp(step_norm * sigma**2 / 2.0) * sigma**2 * math.sqrt(step_norm)
    return base**k


def geometric_norm_tail(base: float, a: float, k_start: int) -> float:
    """Sum of (base*e^a)^k for k >= k_start; inf when the ratio reaches 1."""
    if base < 0:
        raise DomainError(f"geometric base must be nonnegative, got {base}")
    ratio = base * math.exp(a)
    if ratio >= 1.0:
        return math.inf
    return ratio**k_start / (1.0 - ratio)


def convergence_check(weight_norms, a: float, dominating_tail: float = 0.0) -> ConvergenceCheck:
    """Sum of w^(k) e^{ak} (plus certified tail) against e^a - 1."""
    if a <= 0:
        raise DomainError(f"the series exponent must be positive, got {a}")
    if dominating_tail < 0:
        raise DomainError(f"tail bound must be nonnegative, got {dominating_tail}")
    lhs = sum(w * math.exp(a * k) for k, w in weight_norms.items()) + dominating_tail
    rhs = math.exp(a) - 1.0
    return ConvergenceCheck(satisfied=lhs <= rhs, lhs=lhs, rhs=rhs)


def _series_damping(model, gas, params, a):
    """Largest damping theta certifying the series tail, or None; cached on
    the gas by (c, delta, a, step norm), which is all it reads besides the
    region.

    If sum_k theta^k w^(k) e^{ak} stays within e^a - 1, every cluster
    beyond total size K is suppressed by theta^{K+1}; the bound spends the
    slack of the convergence condition on that suppression.
    """
    delta = params.delta_cap
    if delta is None:
        return None
    if params.c == 0.0 and abs(params.t) > delta + 1e-12:
        # The single-site weight delta*sigma only dominates |E(e^{its}) - 1|
        # for |t| <= delta; past that the undressed series has no certificate.
        return None
    dress = 1.0 if params.c == 0.0 else params.c
    try:
        step_norm = m.interaction_norm(model, step=model.box.r0)
        bound_base = weight_norm_bound(2, delta, gas.sigma, step_norm, c=dress) ** 0.5
    except (PreconditionError, DomainError):
        return None
    key = (params.c, delta, a, step_norm)
    if key in gas.dampings:
        return gas.dampings[key]
    k_cap = min(4, len(gas.sites))
    # undressed, the one-site weight delta*sigma is dressed by e^1 like the rest
    norms = {k: _weight_norm(gas, k, dress, delta) for k in range(1 if params.c == 0.0 else 2, k_cap + 1)}

    # e^{ak} and e^a - 1 do not depend on theta, so the bisection reads them
    terms = [(k, w, math.exp(a * k)) for k, w in norms.items()]
    rhs = math.exp(a) - 1.0

    def admissible(theta: float) -> bool:
        lhs = sum(w * theta**k * grow for k, w, grow in terms)
        lhs += geometric_norm_tail(bound_base * theta, a, k_cap + 1)
        return lhs <= rhs

    theta = None
    if admissible(1.0):
        lo, hi = 1.0, 1.0
        while admissible(hi * 2.0) and hi < 1e6:
            hi *= 2.0
        hi = hi * 2.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if admissible(mid):
                lo = mid
            else:
                hi = mid
        theta = lo
    gas.dampings[key] = theta
    return theta


def truncated_log_partition(
    model: m.GibbsModel,
    params: ActivityParams,
    region="decimated",
    omega=None,
    K: int = 4,
    absolute: bool = False,
) -> ClusterSeriesResult:
    """Cluster series for log Xi through clusters of K polymers.

    The order-m term, the sum over clusters of m polymers of Ursell
    coefficient times activities over multiplicity factorials, is the
    lambda^m coefficient L_m of log Xi(lambda), every activity carrying
    one lambda. The gas recursion gives Xi(lambda) = sum_m p_m lambda^m
    through lambda^K, and L_m = p_m - (1/m) sum_{j<m} j L_j p_{m-j}.
    absolute=True gives the positive dominating series, every factor in
    absolute value: Ursell coefficients of m polymers have sign (-1)^{m-1},
    so it is -L_m for activities -|zeta|. The tail certificate (absolute
    series, per the damping helper) uses exponent a = ln 2 undressed and
    c/4 dressed.
    """
    if K < 1:
        raise DomainError(f"truncation order must be positive, got {K}")
    gas = _gas_for_mode(model, region, omega, "polymer_sum")
    plan = gas.plan
    n = len(gas.sites)
    z = plan.activities(params.t, params.c)
    # Xi(lambda) has degree at most n: a family of disjoint polymers has at
    # most one per site.
    xi = _gas_sum(plan, -np.abs(z) if absolute else z, min(K, n), dressed=params.c != 0.0)
    logs = []
    for order in range(1, K + 1):
        p = xi[order] if order <= n else 0.0
        acc = sum(j * logs[j - 1] * xi[order - j] for j in range(max(1, order - n), order))
        logs.append(p - acc / order)
    by_order = [0.0 - float(v.real) if absolute else complex(v) for v in logs]
    if not all(map(cmath.isfinite, by_order)):
        raise _overflow("cluster series", gas, gas.components)

    partial = tuple(accumulate(by_order, initial=0.0 if absolute else 0j))[1:]
    a = math.log(2.0) if params.c == 0.0 else params.c / 4.0
    theta = _series_damping(model, gas, params, a)
    tail = None
    if theta is not None and theta > 1.0:
        tail = a * len(gas.sites) / theta ** (K + 1)
    return ClusterSeriesResult(
        truncation_order=K,
        partial_sums=partial,
        by_order=tuple(by_order),
        dominating_tail=tail,
        damping=theta,
    )


def tree_graph_bound_check(
    model: m.GibbsModel, polymer, step_norm: float | None = None, region="decimated", omega=None
) -> TreeGraphBounds:
    """Per-configuration chain |Mayer sum| <= tree majorant <= coupling-norm majorant.

    The tree majorant sums over the labeled trees on the polymer the product
    of 1 - e^{-|J s s'|} over their edges; the coarser form replaces each edge
    factor by sigma^2 |J|. Both carry the stability prefactor
    e^{|R| J sigma^2 / 2}, and the least pair energy is held against its
    negative, the stability floor. The three sums are runs of the Mayer
    tables' rooted recursion on the polymer's _site_axes, each over the sets
    the full set's sum reaches, read in _spin_grid order. Polymers past
    MAX_POLYMER_SIZE sites are refused.
    """
    gas = _gas(model, region, omega)
    idx = _indices(gas, polymer)
    k = len(idx)
    if k < 2:
        raise DomainError("the tree-graph chain needs at least two sites")
    if step_norm is None:
        step_norm = m.interaction_norm(model, step=model.box.r0)
    _check_polymer(k)
    _check_grid(gas.q, k)
    exponent = k * step_norm * gas.sigma**2 / 2.0
    if exponent > LOG_FLOAT_MAX:
        raise CapacityError(
            f"tree-graph bound on {k} sites is not finite: the stability exponent is"
            f" {exponent:.1f}, float64 ends at {LOG_FLOAT_MAX:.1f}"
        )
    adjacency, _, pairs = _site_axes(gas, idx)
    full = (1 << k) - 1

    def full_sum(factor, extend):
        u = _edge_factors(k, pairs, factor)
        return _rooted_sum(u, adjacency, extend, np.ones(()), full).get(full, 0.0)

    def on_grid(table):
        return np.broadcast_to(table, (gas.q,) * k).ravel()

    lhs = np.abs(on_grid(full_sum(lambda _, x: np.expm1(x), _connected_extend)))
    prefactor = math.exp(exponent)
    rhs_trees = prefactor * on_grid(full_sum(lambda _, x: 1.0 - np.exp(-np.abs(x)), _tree_extend))
    rhs_j = prefactor * gas.sigma ** (2 * k - 2) * float(full_sum(lambda v, _: np.abs(v), _tree_extend))

    worst = int(np.argmax(lhs))
    return TreeGraphBounds(
        lhs=float(lhs[worst]),
        rhs_trees=float(rhs_trees[worst]),
        rhs_j=float(rhs_j),
        margin_trees=float((rhs_trees - lhs).min()),
        margin_chain=float(rhs_j - rhs_trees.max()),
        margin_j=float((rhs_j - lhs).min()),
        stability_lhs=float(_energy(pairs).min()),
        stability_floor=-exponent,
    )
