"""Independent routes that the tests hold the library against.

Most recompute a quantity from its definition, by brute force over every
connected graph or every labeled tree, and never through the rooted
recursion or the Mayer tables the library runs. Costs grow with the
graph and tree counts, so keep k small (the enumerations refuse k > 7
and k > 8). mayer_table_by_polymer, tree_bounds_by_dense_tables and
gas_sum_by_masks are the library's earlier routes, one polymer or one mask
at a time, every configuration of a polymer on one dense trailing axis,
which its passes on spin axes must match bit for bit; plan_by_masks builds
the gas-sum plan from its definition the same way. config_tables is the
dense spin grid of a set of sites with its joint law, which those routes
and the tests' walk over every graph of a region read. hamiltonian and
single_spin_distribution compute a log weight and a single-site law from
the model's definitions, with every coupling from the scalar
Coupling.value. energy_shifts_by_rows is the exact engine's earlier
per-row Python sum of energy shifts, which its row-wise pass must match
bit for bit; law_by_row and energy_bound_by_row are its earlier scalar
law of one row of a route's sums and scalar energy bound of one row of
field slopes, which the rows path (_pmfs and _moments, _energy_bounds)
must match bit for bit; report_line_by_sanitize is the CLI's earlier
line writer, a recursive walk before json.dumps, whose bytes the shared
encoder must keep. integral_parts_by_quad is the integral decomposition's earlier
route, scipy.integrate.quad on scalar integrands.
chain_moments_by_long_double_transfer takes the moments of S on a chain
in numpy's long double, by a transfer sum and two passes over its pmf.
system_by_two_searches is the System build's earlier path, one neighbour
search for the region's pairs and one for its field slopes (field_slopes),
whose pairs and fields the one-search build must match bit for bit.
series_damping_by_bisection is the series damping's earlier bisection,
which took e^{ak} and e^a - 1 at every step; theta must keep its bits.
"""

import heapq
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np

import lclt_lab.combinatorics as cb
import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.polymer as pg
import lclt_lab.verifier as vf
from lclt_lab._system import System, _spin_grid
from lclt_lab.errors import CapacityError, DomainError, PreconditionError

# Connected-graph enumeration materializes all 2^(k(k-1)/2) edge sets; the
# vertex caps keep that table and the k^(k-2) trees desk-sized.
MAX_ENUMERATED_VERTICES = 7
MAX_TREE_VERTICES = 8


@lru_cache(maxsize=None)
def edge_list(k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i<j; edge i<j occupies bit edge_list(k).index((i, j))
    of every edge mask here."""
    return tuple(combinations(range(k), 2))


@lru_cache(maxsize=None)
def connected_graph_masks(k: int) -> tuple[int, ...]:
    """Edge bitmasks of every connected graph on k labeled vertices.

    Filters all 2^(k(k-1)/2) masks with a vectorized reachability sweep;
    cached per k. Masks are ascending, so iteration order is reproducible.
    """
    if k < 1:
        raise DomainError(f"vertex count {k} is not positive")
    if k > MAX_ENUMERATED_VERTICES:
        total = 1 << (k * (k - 1) // 2)
        raise CapacityError(
            f"connected-graph enumeration on {k} vertices walks {total} edge sets, "
            f"cap is {1 << (MAX_ENUMERATED_VERTICES * (MAX_ENUMERATED_VERTICES - 1) // 2)}"
        )
    if k == 1:
        return (0,)
    edges = edge_list(k)
    masks = np.arange(1 << len(edges), dtype=np.int64)
    reach = np.ones_like(masks)
    for _ in range(k - 1):
        for e, (i, j) in enumerate(edges):
            has = (masks >> e) & 1
            reach |= (has & ((reach >> i) & 1)) << j
            reach |= (has & ((reach >> j) & 1)) << i
    full = (1 << k) - 1
    return tuple(int(m) for m in masks[reach == full])


def _tree_edges_from_pruefer(seq: tuple[int, ...], k: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    out = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        out.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    out.append((min(u, v), max(u, v)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def spanning_tree_edge_sets(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Edge sets of all labeled trees on k vertices, one per Pruefer word."""
    if k < 1:
        raise DomainError(f"vertex count {k} is not positive")
    if k > MAX_TREE_VERTICES:
        raise CapacityError(
            f"tree enumeration on {k} vertices yields {k ** (k - 2)} trees, "
            f"cap is {MAX_TREE_VERTICES ** (MAX_TREE_VERTICES - 2)}"
        )
    if k == 1:
        return ((),)
    if k == 2:
        return (((0, 1),),)
    return tuple(_tree_edges_from_pruefer(seq, k) for seq in product(range(k), repeat=k - 2))


def connected_sum_by_enumeration(edge_factor):
    """Same sum as combinatorics.connected_sum, over the connected graphs."""
    ef = np.asarray(edge_factor)
    k = ef.shape[0]
    edges = edge_list(k)
    total = np.zeros(ef.shape[2:], dtype=ef.dtype)
    for mask in connected_graph_masks(k):
        term = np.ones(ef.shape[2:], dtype=ef.dtype)
        for pos, (i, j) in enumerate(edges):
            if mask >> pos & 1:
                term = term * ef[i, j]
        total = total + term
    return total if ef.ndim > 2 else total.item()


def spanning_tree_sum_by_enumeration(edge_factor):
    """Same sum as combinatorics.spanning_tree_sum, over the labeled trees."""
    ef = np.asarray(edge_factor)
    total = np.zeros(ef.shape[2:], dtype=ef.dtype)
    for edges in spanning_tree_edge_sets(ef.shape[0]):
        term = np.ones(ef.shape[2:], dtype=ef.dtype)
        for i, j in edges:
            term = term * ef[i, j]
        total = total + term
    return total if ef.ndim > 2 else total.item()


def _overlap_bits(polymers) -> tuple[int, int]:
    """(k, mask): bit edge_list(k).index((i, j)) of mask is set when site
    sets i and j intersect."""
    sets = [frozenset(p) for p in polymers]
    edges = edge_list(len(sets))
    return len(sets), sum(1 << pos for pos, (i, j) in enumerate(edges) if sets[i] & sets[j])


def _overlap_factors(k: int, bits: int) -> np.ndarray:
    """-1 on every pair of intersecting site sets, 0 elsewhere."""
    zeta = np.zeros((k, k))
    for pos, (i, j) in enumerate(edge_list(k)):
        if bits >> pos & 1:
            zeta[i, j] = zeta[j, i] = -1.0
    return zeta


@lru_cache(maxsize=None)
def _ursell_from_overlap_bits(k: int, bits: int) -> float:
    return float(cb.connected_sum(_overlap_factors(k, bits)))


def ursell_hardcore(polymers) -> float:
    """Hard-core Ursell coefficient of a tuple of site sets: the connected
    sum over their overlap graph, exactly 0 when that graph is disconnected.
    Cached by the overlap pattern, the only thing the coefficient reads."""
    return _ursell_from_overlap_bits(*_overlap_bits(polymers))


def ursell_hardcore_by_enumeration(polymers) -> float:
    """The same coefficient by the definitional sum over connected graphs."""
    return float(connected_sum_by_enumeration(_overlap_factors(*_overlap_bits(polymers))))


def config_tables(gas, idx: tuple[int, ...]):
    """(values, probs) of the sites idx on their own spin grid: spin values
    (k, M) and joint product measure (M,), in _spin_grid order."""
    k = len(idx)
    digits = _spin_grid(np.arange(gas.q), k)
    values = gas.values[digits]
    probs = np.ones(digits.shape[1])
    for row, i in enumerate(idx):
        probs *= gas.probs[i][digits[row]]
    return values, probs


def _dense_pair_tables(gas, idx: tuple[int, ...]):
    """(values, probs, pairs, terms) of a polymer on its own spin grid: spin
    values (k, M) and joint law (M,) in _spin_grid order, (a, b, J) of each
    coupled pair of the region inside it, a < b its positions in idx, in
    System order, and J s_a s_b of each pair (rows) and configuration
    (columns)."""
    values, probs = config_tables(gas, idx)
    local = {i: a for a, i in enumerate(idx)}
    pairs = [(local[i], local[j], v) for i, j, v in gas.system.pairs if i in local and j in local]
    terms = np.empty((len(pairs), values.shape[1]))
    for row, (a, b, j) in enumerate(pairs):
        terms[row] = j * values[a] * values[b]
    return values, probs, pairs, terms


def _by_pair(k: int, pairs, entries) -> np.ndarray:
    """(k, k, ...) symmetric table holding entries[p] at both positions of
    pair p and 0 off the pairs."""
    out = np.zeros((k, k) + entries.shape[1:])
    for (a, b, _), entry in zip(pairs, entries):
        out[a, b] = out[b, a] = entry
    return out


def activity_by_graph_enumeration(model, params, polymer, region="decimated", omega=None, order: int = 0) -> complex:
    """polymer.activity (order 0) or its t-derivatives (orders 1 and 2) with
    the Mayer sum expanded over connected graphs, recomputed per call
    without reading the Mayer tables or the single-site rows: the sum over
    configurations of p * C * (iS)^order e^{itS} times e^{c|R|}, less 1 for
    one site at order 0."""
    gas = pg._gas(model, region, omega)
    idx = pg._indices(gas, polymer)
    values, probs, pairs, terms = _dense_pair_tables(gas, idx)
    csum = connected_sum_by_enumeration(_by_pair(len(idx), pairs, np.expm1(terms)))
    spin = values.sum(axis=0)
    phases = (1j * spin) ** order * np.exp(1j * params.t * spin)
    total = math.exp(params.c * len(idx)) * complex(np.dot(probs * csum, phases))
    return total - 1.0 if len(idx) == 1 and order == 0 else total


def mayer_table_by_polymer(gas, idx: tuple[int, ...]):
    """A polymer's Mayer table (lowest, amps, abs_mass), uncached, from its
    own spin grid: its own laws, total spins and pair factors, every
    configuration on one dense trailing axis of connected_sum."""
    values, probs, pairs, terms = _dense_pair_tables(gas, idx)
    with np.errstate(over="ignore", invalid="ignore"):
        csum = cb.connected_sum(_by_pair(len(idx), pairs, np.expm1(terms)))
        weighted = probs * csum
        abs_mass = float(np.dot(probs, np.abs(csum)))
    totals = values.sum(axis=0)
    amps = np.bincount(np.rint(totals - totals.min()).astype(np.intp), weights=weighted)
    return int(totals.min()), amps, abs_mass


def tree_bounds_by_dense_tables(gas, idx: tuple[int, ...], step_norm: float):
    """polymer.tree_graph_bound_check of the polymer idx (two or more sites)
    from its own spin grid: the Mayer sum and both tree majorants from
    connected_sum and spanning_tree_sum on dense (k, k, configuration)
    tables, the pair energy summed row by row."""
    k = len(idx)
    _, _, pairs, terms = _dense_pair_tables(gas, idx)
    lhs = np.abs(cb.connected_sum(_by_pair(k, pairs, np.expm1(terms))))
    prefactor = math.exp(k * step_norm * gas.sigma**2 / 2.0)
    coupling = _by_pair(k, pairs, np.abs([j for _, _, j in pairs]))
    rhs_trees = prefactor * cb.spanning_tree_sum(_by_pair(k, pairs, 1.0 - np.exp(-np.abs(terms))))
    rhs_j = prefactor * gas.sigma ** (2 * k - 2) * cb.spanning_tree_sum(coupling)
    energy = sum(terms, np.zeros(terms.shape[1]))
    worst = int(np.argmax(lhs))
    return pg.TreeGraphBounds(
        lhs=float(lhs[worst]),
        rhs_trees=float(rhs_trees[worst]),
        rhs_j=float(rhs_j),
        margin_trees=float((rhs_trees - lhs).min()),
        margin_chain=float(rhs_j - rhs_trees.max()),
        margin_j=float((rhs_j - lhs).min()),
        stability_lhs=float(energy.min()),
        stability_floor=-k * step_norm * gas.sigma**2 / 2.0,
    )


def gas_sum_by_masks(parts: list, K: int | None = None):
    """Xi as the product, in order, of one factor per coupling component:
    parts lists each component's site count n and its groups. A factor is
    X[full] over the component's n sites by X[M] = X[M - l] + sum_P z_P
    X[M - P], mask by mask: l is the lowest site of M and P runs over
    groups[l], the (mask, z) of the polymers with lowest site l in the
    order they are added, testing each for containment in M. With K,
    every z_P carries one power of lambda, X holds a list of coefficients
    through lambda^K and the factors' lists are multiplied truncated at
    lambda^K. The first factor is taken as it is, and no factor gives 1.
    Every product and sum is CPython's complex arithmetic."""
    xi = None
    for n, groups in parts:
        dp = [None] * (1 << n)
        dp[0] = 1 + 0j if K is None else [1 + 0j] + [0j] * K
        for mask in range(1, 1 << n):
            low = mask & -mask
            acc = dp[mask ^ low] if K is None else list(dp[mask ^ low])
            for poly, z in groups[low.bit_length() - 1]:
                if poly & mask == poly:
                    if K is None:
                        acc += z * dp[mask ^ poly]
                    else:
                        for j, x in enumerate(dp[mask ^ poly][:-1]):
                            acc[j + 1] += z * x
            dp[mask] = acc
        if xi is None:
            xi = dp[-1]
        elif K is None:
            xi = xi * dp[-1]
        else:
            xi = [sum(xi[i] * dp[-1][j - i] for i in range(j + 1)) for j in range(K + 1)]
    if xi is None:
        return 1 + 0j if K is None else [1 + 0j] + [0j] * K
    return xi


def plan_by_masks(gas):
    """(parts, sizes, spins, weights) of the region's gas-sum plan from
    their definitions, one mask at a time. The coupling components are
    found by a search along the couplings from each site no earlier search
    reached. On each component's own sites, ascending: the connected
    polymers found by a search of each nonzero mask along the couplings,
    masks descending; the masks X[full] reads, found by a search from the
    full mask that takes M - P for every polymer P inside M with M's
    lowest site; and level by level, polymer by polymer, the steps (M,
    M - P, row of P) of every read mask M holding P whose lowest site is
    P's, M ascending, bounds marking where each level begins and singles
    where its one-site polymer's steps begin. parts holds (sites, masks,
    steps, bounds, singles) per component. The rows run component by
    component, each its single-site law or mayer_table_by_polymer on every
    total spin of 1 to L sites, L the largest component's site count."""
    components, seen = [], set()
    for start in range(len(gas.sites)):
        if start not in seen:
            comp, todo = {start}, [start]
            while todo:
                for j in gas.couplings[todo.pop()]:
                    if j not in comp:
                        comp.add(j)
                        todo.append(j)
            seen |= comp
            components.append(tuple(sorted(comp)))
    parts, rows = [], []
    for sites in components:
        n = len(sites)
        local = {i: a for a, i in enumerate(sites)}

        def connected(mask):
            seen, todo = mask & -mask, [(mask & -mask).bit_length() - 1]
            while todo:
                for j in gas.couplings[sites[todo.pop()]]:
                    b = local[j]
                    if mask >> b & 1 and not seen >> b & 1:
                        seen |= 1 << b
                        todo.append(b)
            return seen == mask

        masks = [mask for mask in range((1 << n) - 1, 0, -1) if connected(mask)]
        read, todo = set(), [(1 << n) - 1]
        while todo:
            mask = todo.pop()
            if mask not in read:
                read.add(mask)
                low = mask & -mask
                todo += [mask ^ poly for poly in masks if poly & -poly == low and poly & mask == poly]
        steps, bounds, singles = [], [0], []
        for low in range(n):
            for row, poly in enumerate(masks):
                if poly & -poly != 1 << low:
                    continue
                if poly == 1 << low:
                    singles.append(len(steps))
                steps += [(mask, mask ^ poly, row) for mask in sorted(read) if mask & -mask == 1 << low and mask & poly == poly]
            bounds.append(len(steps))
        parts.append((sites, np.array(masks, dtype=np.int32), tuple(steps), tuple(bounds), tuple(singles)))
        rows += [tuple(sites[a] for a in range(n) if mask >> a & 1) for mask in masks]
    largest = max(map(len, components), default=0)
    lo, hi = int(gas.values[0]), int(gas.values[-1])
    base = min(lo, largest * lo)
    spins = base + np.arange(max(hi, largest * hi) - base + 1.0)
    weights = np.zeros((len(rows), len(spins)))
    for row, idx in enumerate(rows):
        start, table = (lo, gas.probs[idx[0]]) if len(idx) == 1 else mayer_table_by_polymer(gas, idx)[:2]
        weights[row, start - base : start - base + len(table)] = table
    sizes = np.array([len(idx) for idx in rows], dtype=int)
    return parts, sizes, spins, weights


def field_slopes(model, region_sites: tuple[lm.Site, ...], xs) -> tuple[float, ...]:
    """b_x for each site x of xs, all of them in the resolved region_sites,
    by the System build's earlier field search: the region x exterior
    coupling block (model._coupling_block) summed against the exterior's
    spins, or the window total less a second search's in-window region
    part. A slope that float64 cannot hold is a CapacityError naming its
    site."""
    bc = model.boundary
    if bc.kind == "zero":
        return (0.0,) * len(xs)
    in_region = set(region_sites)
    with np.errstate(over="ignore", invalid="ignore"):
        if model.coupling.kind == "explicit" or bc.kind == "explicit":
            # J(x, y) omega_y over exterior table partners or assignments in
            # site order
            if model.coupling.kind == "explicit":
                partners = sorted({s for p in model.coupling.pairs for s in p[:2]} - in_region)
                exterior = [(y, bc.omega(y)) for y in partners]
            else:
                exterior = [(y, v) for y, v in bc.assignments if v != 0 and y not in in_region]
            block = lm._coupling_block(model, xs, [y for y, _ in exterior])
            slopes = tuple(lm._block_fields(block, np.array([v for _, v in exterior], dtype=float)).tolist())
        else:
            # Constant boundary over a translation-invariant coupling:
            # subtract the in-region, in-window part from the full-window
            # total instead of walking the window site by site; each x's
            # part is one array in region order.
            window_total = lm._window_coupling_total(
                model.coupling, model.box.dimension, model.truncation_radius, 1, absolute=False
            )
            i, _, j = lm._couplings_within(model, xs, region_sites, model.truncation_radius)
            ends = np.cumsum(np.bincount(i, minlength=len(xs)))
            slopes = tuple(bc.value * (window_total - float(j[a:b].sum())) for a, b in zip([0, *ends[:-1]], ends))
    if all(map(math.isfinite, slopes)):
        return slopes
    # name an infinite slope where there is one: a NaN beside it is inf - inf
    bad = [k for k, b in enumerate(slopes) if not math.isfinite(b)]
    k = next((k for k in bad if math.isinf(slopes[k])), bad[0])
    what = f"is {slopes[k]}, not finite in" if math.isinf(slopes[k]) else "overflows"
    raise CapacityError(f"boundary field slope of site {xs[k]} {what} float64")


def system_by_two_searches(model, region: tuple[lm.Site, ...], omega_items=None) -> System:
    """The System build's earlier path: the omega override normalized again
    by BoundaryCondition.explicit, the region's pairs from one search at the
    pair radius and the fields from field_slopes' own search."""
    if omega_items is not None:
        model = replace(model, boundary=lm.BoundaryCondition.explicit(omega_items))
    i, k, j = lm._couplings_within(model, region, region, model.coupling.range_bound or 2 * model.box.radius)
    keep = (i < k) & (j != 0.0)
    pairs = tuple(zip(i[keep].tolist(), k[keep].tolist(), j[keep].tolist()))
    return System(region, model.spin.values, pairs, field_slopes(model, region, region))


def series_damping_by_bisection(model, gas, params, a):
    """The series damping's earlier bisection, uncached: each step takes
    e^{ak} and e^a - 1 afresh. theta must keep its bits."""
    delta = params.delta_cap
    if delta is None or (params.c == 0.0 and abs(params.t) > delta + 1e-12):
        return None
    dress = 1.0 if params.c == 0.0 else params.c
    try:
        step_norm = lm.interaction_norm(model, step=model.box.r0)
        bound_base = pg.weight_norm_bound(2, delta, gas.sigma, step_norm, c=dress) ** 0.5
    except (PreconditionError, DomainError):
        return None
    k_cap = min(4, len(gas.sites))
    norms = {k: pg._weight_norm(gas, k, dress, delta) for k in range(1 if params.c == 0.0 else 2, k_cap + 1)}

    def admissible(theta: float) -> bool:
        lhs = sum(w * theta**k * math.exp(a * k) for k, w in norms.items())
        lhs += pg.geometric_norm_tail(bound_base * theta, a, k_cap + 1)
        return lhs <= math.exp(a) - 1.0

    if not admissible(1.0):
        return None
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
    return lo


@dataclass(frozen=True)
class SpinConfig:
    """An assignment of spin values to an ordered tuple of region sites."""

    sites: tuple[lm.Site, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise DomainError("one spin value per site required")
        if len(set(self.sites)) != len(self.sites):
            raise DomainError("config sites must be distinct")


def hamiltonian(model, config: SpinConfig) -> float:
    """Log Boltzmann weight -H of a configuration on its own region.

    -H = sum_{{x,y} in region} J(x,y) s_x s_y + sum_x h_x(s_x). The region is
    the site set of the config; all other sites are exterior. Couplings come
    from the scalar Coupling.value, and a region whose energy bound float64
    cannot hold is System's CapacityError.
    """
    for v in config.values:
        if v not in model.spin:
            raise DomainError(f"config value {v} outside the spin interval")
    region = lm.resolve_region(model, config.sites)
    lookup = dict(zip(config.sites, config.values))
    values = [lookup[s] for s in region]
    slopes = field_slopes(model, region, region)
    pairs = tuple(
        (i, k, j)
        for i, x in enumerate(region)
        for k in range(i + 1, len(region))
        if (j := model.coupling.value(x, region[k])) != 0.0
    )
    System(region, model.spin.values, pairs, slopes)
    total = 0.0
    for i, k, j in pairs:
        total += j * values[i] * values[k]
    for h, s in zip(slopes, values):
        total += h * s
    return total


def single_spin_distribution(model, x, region="box") -> dict[int, float]:
    """p_x(s) = e^{h_x(s)} / sum_s' e^{h_x(s')} over the spin interval."""
    region_sites = lm.resolve_region(model, region)
    x = lm._as_site(x, model.box.dimension)
    if x not in region_sites:
        raise DomainError(f"site {x} is not in the region")
    b = field_slopes(model, region_sites, (x,))[0]
    spins = np.array(model.spin.values, dtype=float)
    logw = b * spins
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    return {int(s): float(p) for s, p in zip(model.spin.values, w)}


def energy_shifts_by_rows(system: System, fields: np.ndarray) -> list[float]:
    """Each row's energy shift by Python sums: the pairs' largest corners
    plus the row's fields' largest corners, summed left to right."""
    lo, hi = min(system.values), max(system.values)
    pair_part = sum(max(v * lo * lo, v * lo * hi, v * hi * hi) for _, _, v in system.pairs)
    return [pair_part + sum(max(b * lo, b * hi) for b in row) for row in fields.tolist()]


def law_by_row(name: str, n: int, shift, z, bins, s_min: int):
    """(shift, Z_shifted, mean, variance, pmf) from one row of a route's
    sums by scalar checks: the reach, then a shift, Z_shifted or bin that
    float64 cannot hold (or a Z_shifted that is not positive), then the
    PmfTable's own. The pmf is the bins over Z_shifted, masses under 1e-300
    zeroed, over their sum; the moments come from it by two passes, the
    mean offset mu and then the sum of p_k (k - mu)^2, and the mean is
    s_min + mu."""
    ee._check_reach(name, n, s_min, len(bins))
    shift, z = float(shift), float(z)
    if not (z > 0 and math.isfinite(shift) and math.isfinite(z) and np.isfinite(bins).all()):
        raise ee._not_finite(name, n, shift, z)
    probs = bins / z
    probs = np.where(probs < 1e-300, 0.0, probs)
    table = ee.PmfTable(p_min=s_min, probabilities=tuple((probs / probs.sum()).tolist()))
    k = np.arange(len(table.probabilities), dtype=float)
    mu = float(table.probability_array @ k)
    d = k - mu
    return shift, z, s_min + mu, float(table.probability_array @ (d * d)), table


def energy_bound_by_row(pairs, values, fields) -> float:
    """sum |J| sigma^2 + sum |h_x| sigma of one row of field slopes by
    Python sums, sigma the largest |spin|."""
    sigma = max(-min(values), max(values))
    return sum(abs(v) for _, _, v in pairs) * sigma * sigma + sum(map(abs, fields)) * sigma


def chain_moments_by_long_double_transfer(system: System) -> tuple[float, float]:
    """(mean, variance) of S on a System whose pairs join consecutive sites
    only, in numpy's long double: a transfer sum over (last spin, running
    offset k = S - n lo) rescaled at each site, then two passes over the
    pmf (the mean offset, then the sum of p_k (k - mu)^2) and the mean
    n lo + mu, each rounded to float64 once."""
    ld = np.longdouble
    lo, q, n = min(system.values), len(system.values), system.site_count
    values = np.array(system.values, dtype=ld)
    link = [ld(0)] * n
    for i, j, v in system.pairs:
        assert j == i + 1, "pairs must join consecutive sites"
        link[j] = ld(v)
    fields = [ld(h) for h in system.fields]
    width = n * (q - 1) + 1
    # weight[v, k]: the chain so far ends in spin values[v] with offset k
    log_first = fields[0] * values
    weight = np.zeros((q, width), dtype=ld)
    weight[np.arange(q), np.arange(q)] = np.exp(log_first - log_first.max())
    for j in range(1, n):
        log_step = link[j] * np.multiply.outer(values, values) + fields[j] * values
        step = np.exp(log_step - log_step.max())
        # offsets up to j(q-1) are reached before site j
        held = j * (q - 1) + 1
        new = np.zeros_like(weight)
        for v in range(q):
            new[v, v : v + held] = step[:, v] @ weight[:, :held]
        weight = new / new.max()
    probs = weight.sum(axis=0)
    probs /= probs.sum()
    k = np.arange(width, dtype=ld)
    mu = probs @ k
    return float(ld(n * lo) + mu), float(probs @ (k - mu) ** 2)


def _sanitize(obj):
    """obj for json.dumps; str, bool, int and finite float members pass as they are."""
    if isinstance(obj, dict):
        return dict(zip(obj, _sanitize(list(obj.values()))))
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in (str, bool, int) or type(v) is float and math.isfinite(v) else _sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def report_line_by_sanitize(line: dict) -> str:
    """One reports.jsonl line, newline included, by a walk of the line."""
    return json.dumps(_sanitize(line), sort_keys=True) + "\n"


def integrands_by_point(model, c_variant: str = "proved"):
    """vf.integral_decomposition's integrands at one float t each, from
    one-node _fourier and _fourier_at calls on the box's pmf: (central,
    cf_abs, root_d, delta). The central phase is taken about the mean
    offset."""
    delta = vf.constants(model, c_variant).delta
    probs = ee.pmf(model, "box").probability_array
    root_d = math.sqrt(ee.statistics(model, "box").variance_S)
    mean_offset = float(probs @ np.arange(len(probs), dtype=float))

    def cf_abs(t: float) -> float:
        return float(np.abs(ee._fourier(probs, np.array([t])))[0])

    def central(t: float) -> float:
        val = ee._fourier_at(probs, np.array([t]) / root_d, mean_offset)
        return float(np.abs(val - np.exp(np.array([-t * t / 2.0])))[0])

    return central, cf_abs, root_d, delta


def integral_parts_by_quad(model, a_cut: float, c_variant: str = "proved") -> tuple[float, float, float]:
    """I1, I2 and I3 of vf.integral_decomposition by scipy.integrate.quad on
    integrands_by_point."""
    from scipy.integrate import quad

    central, cf_abs, root_d, delta = integrands_by_point(model, c_variant)

    def integral(f, lo: float, hi: float) -> float:
        return quad(f, lo, hi, epsabs=vf.QUAD_TOL, limit=vf.QUAD_LIMIT)[0]

    return (
        2.0 * integral(central, 0.0, a_cut),
        2.0 * root_d * integral(cf_abs, a_cut / root_d, delta),
        2.0 * root_d * integral(cf_abs, delta, math.pi),
    )
