"""Sums over the connected graphs and spanning trees of small coupling graphs.

The expansion layer needs two sums on k labeled vertices with a symmetric
matrix of edge factors u,

    C = sum over connected spanning subgraphs g of prod_{edges of g} u_e,
    T = sum over spanning trees g of prod_{edges of g} u_e,

the connected Mayer sum and its tree-graph majorant. Both come from one
rooted recursion over the connected vertex sets of the coupling graph,
working elementwise on edge factors that broadcast; only the weight of the
edges from the root to a block differs. Its schedule, cached per coupling
graph, lists every connected vertex set, grown one neighbour at a time
(never a scan of the 2^k vertex sets), with the terms of each, and one run
gives the sum on every set: the polymer gas takes every connected
polymer's Mayer sum from one run over a region, each on its own sites'
spin axes; connected_sum, spanning_tree_sum and the polymer tree-graph
check schedule only the sets the full set's sum reaches. The cost is one product per term (V, B): over
every connected set, one per interval on a path, k(k - 1)/2 in all, and
about 3^k / 4 on the complete graph; for the full set alone, k - 1 on a
path.
A hard-core Ursell coefficient is C with u in {0, -1} on the overlap
graph, and unit factors on the complete graph count the connected graphs
and the labeled trees (graph_census). Enumerating graphs or trees one by
one is left to the tests, as the oracle these sums are checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapacityError

# Connected labeled graphs on k = 1..7 vertices (OEIS A001187), the
# reference values the census is checked against.
CONNECTED_COUNTS_KNOWN = (1, 1, 4, 38, 728, 26704, 1866256)


def _connected_sets(neighbours, size: int | None = None, cap: int | None = None) -> list[tuple[int, ...]]:
    """The connected vertex sets of a graph (neighbours[v] the vertices
    joined to v), each as its vertices ascending: all of them, by size, or
    those of `size` vertices; the sets of one size in lexicographic order.
    They grow one neighbour at a time from the single vertices, a level per
    size, so the cost follows the connected sets up to that size, never the
    2^k vertex sets. With a cap, a level whose sets pass cap (vertex, set)
    pairs in all is refused while it grows."""
    level = [(v,) for v in range(len(neighbours))]
    found = []
    while level:
        pairs = len(level) * len(level[0])
        if cap is not None and pairs > cap:
            raise CapacityError(
                f"the connected sets of {len(level[0])} vertices reach {pairs} (vertex, set) pairs, cap is {cap}"
            )
        if len(level[0]) == size:
            return level
        if size is None:
            found += level
        grown = set()
        for vertices in level:
            inside = set(vertices)
            for v in vertices:
                for w in neighbours[v]:
                    if w not in inside:
                        grown.add(tuple(sorted((*vertices, w))))
            if cap is not None and len(grown) * (len(vertices) + 1) > cap:
                break
        level = sorted(grown)
    return [] if size is not None else found


@lru_cache(maxsize=4096)
def _rooted_plan(adjacency: tuple[int, ...], target: int | None = None):
    """Schedule of the rooted recursion on one coupling graph.

    Returns (sets, roots). sets lists every connected vertex set, masks
    ascending, the single vertices included. roots holds (root, walk, sets)
    per root, roots descending: sets lists each connected set V of two or
    more vertices with that root (every one, or with a target mask those
    the target's terms reach), in ascending mask order, with its terms
    (B, V\\B): B holds the second lowest vertex of V, both B and V\\B are
    connected, and B meets the root's neighbours. walk lists every
    T = B & N(root) the terms use and each prefix of one, in depth-first
    order, as (T, highest vertex of T, the blocks B with that T).
    """
    k = len(adjacency)
    connected = sorted(
        sum(1 << v for v in vertices)
        for vertices in _connected_sets([[v for v in range(k) if bits >> v & 1] for bits in adjacency])
    )
    member = frozenset(connected)
    terms: dict[int, list[tuple[int, int]]] = {}
    todo = list(connected) if target is None else [target] if target in member else []
    while todo:
        v = todo.pop()
        if v in terms or v & (v - 1) == 0:
            continue
        root = v & -v
        near = adjacency[root.bit_length() - 1]
        second = (v ^ root) & -(v ^ root)
        free = v ^ root ^ second
        out = terms[v] = []
        sub = free
        while True:
            block = second | sub
            if block & near and block in member and v ^ block in member:
                out.append((block, v ^ block))
                todo += (block, v ^ block)
            if not sub:
                break
            sub = (sub - 1) & free
    roots = []
    for r in range(k - 1, -1, -1):
        sets = sorted((v, out) for v, out in terms.items() if v & -v == 1 << r)
        if not sets:
            continue
        by_touch: dict[int, list[int]] = {}
        for block in sorted({b for _, out in sets for b, _ in out}):
            by_touch.setdefault(block & adjacency[r], []).append(block)
        prefixes = set()
        for touch in by_touch:
            while touch:
                prefixes.add(touch)
                touch ^= 1 << (touch.bit_length() - 1)
        order = sorted(prefixes, key=lambda t: [v for v in range(k) if t >> v & 1])
        walk = [(t, t.bit_length() - 1, by_touch.get(t, [])) for t in order]
        roots.append((r, walk, sets))
    return connected, roots


def _rooted_sum(u, adjacency, extend, one, target: int | None = None) -> dict[int, np.ndarray]:
    """The rooted recursion shared by connected_sum, spanning_tree_sum and
    the polymer gas's Mayer tables and tree-graph check: the sum S[V] of
    every set _rooted_plan schedules for the target (every connected set,
    or those the target set's sum needs), by mask.

    On the connected vertex sets V, with root r = min V, the graphs summed
    split, once r is deleted, into blocks B of V\\{r} joined to r; peeling
    the block that holds the lowest vertex after r leaves a set with root r
    again:

        S[V] = sum_B S[B] h_r(B) S[V\\B],   S[{v}] = one,

    over the B of _rooted_plan. h_r(B) sums the allowed edge sets from r into
    B and is built one edge at a time, h <- extend(h, u[r][b]). The edge
    factors u[r][b] of the coupled pairs (adjacency) are arrays that
    broadcast against each other and against one, elementwise: a factor
    that lives on its two vertices' own axes gives each S[V] on V's axes
    only. An unscheduled set (a disconnected one) has no entry.
    """
    c = {1 << v: one for v in range(len(adjacency))}
    for r, walk, sets in _rooted_plan(tuple(adjacency), target)[1]:
        weighted = {}
        path = [(0, None)]
        for touch, b, blocks in walk:
            while path[-1][0] != touch ^ (1 << b):
                path.pop()
            h = path[-1][1]
            h = u[r][b] if h is None else extend(h, u[r][b])
            path.append((touch, h))
            for block in blocks:
                weighted[block] = h if c[block] is one else c[block] * h
        for v, terms in sets:
            (block, rest), *more = terms
            if c[rest] is one:  # the block is all of V but the root
                acc = weighted[block].copy() if more else weighted[block]
            else:
                acc = weighted[block] * c[rest]
            for block, rest in more:
                acc += weighted[block] * c[rest]
            c[v] = acc
    return c


def _connected_extend(h, u):
    """h_r(B) of the connected sum, one more edge: prod (1 + u) - 1."""
    return h + u + h * u


def _tree_extend(h, u):
    """h_r(B) of the spanning-tree sum, one more edge: sum u."""
    return h + u


def _full_sum(edge_factor, extend):
    """connected_sum or spanning_tree_sum: the rooted recursion on a dense
    (k, k, ...) table, every set on the whole trailing axis, over the sets
    the full set reaches."""
    ef = np.asarray(edge_factor)
    k = ef.shape[0]
    if ef.shape[:2] != (k, k):
        raise ValueError(f"edge factors must be square, got shape {ef.shape}")
    shape = ef.shape[2:]
    u = ef.reshape(k, k, -1)
    coupled = np.triu(u.any(axis=2), 1)
    coupled |= coupled.T
    adjacency = [int(bits) for bits in coupled @ (1 << np.arange(k))]
    full = (1 << k) - 1
    got = _rooted_sum(u, adjacency, extend, np.ones(u.shape[2], dtype=ef.dtype), full).get(full)
    out = np.zeros(shape, dtype=ef.dtype) if got is None else np.array(got).reshape(shape)
    return out if ef.ndim > 2 else out.item()


def connected_sum(edge_factor) -> float | complex | np.ndarray:
    """Sum over connected spanning subgraphs of the product of edge factors.

    edge_factor is a symmetric (k, k) array, optionally with trailing axes
    that the sum is carried along elementwise (diagonal ignored). Vertices
    i and j are coupled when edge_factor[i, j] is nonzero at some trailing
    index; a disconnected coupling graph gives exactly 0. Deleting the root
    r = min V splits a connected graph on V into connected blocks B of
    V\\{r}, each joined to r by a nonempty set of edges, so the block
    weight of _rooted_sum is

        h_r(B) = prod_{b in B, b ~ r} (1 + u_rb) - 1,

    accumulated as h + u + h u. The recursion subtracts nothing, but its
    terms are all nonnegative only when the factors are: nonnegative
    factors give a sum accurate to rounding however small they are, while
    factors of both signs (e^{J s s'} - 1 with J s s' < 0) can cancel to
    any degree.
    The cost is one vector product per pair (V, B) with B and V\\B
    connected: one per set on a path, and about 3^k / 4 only on the
    complete graph. The schedule depends only on the coupling graph and
    is cached per graph.
    """
    return _full_sum(edge_factor, _connected_extend)


def spanning_tree_sum(edge_factor) -> float | complex | np.ndarray:
    """Sum over spanning trees of the product of edge factors.

    Takes connected_sum's input and gives exactly 0 on a disconnected
    coupling graph. Deleting the root r from a spanning tree of V leaves
    subtrees, each joined to r by exactly one edge, so the block weight of
    _rooted_sum is h_r(B) = sum_{b in B} u_rb, accumulated as h + u, on the
    schedule connected_sum takes.
    """
    return _full_sum(edge_factor, _tree_extend)


def graph_census(max_k: int) -> list[dict]:
    """Counting table: edge slots, all graphs, connected graphs, trees.

    The counts are the two sums on unit factors of the complete graph. Up to
    k = 10 every partial sum is a positive integer below 2^53, so float64
    holds them exactly.
    """
    rows = []
    for k in range(1, max_k + 1):
        slots = k * (k - 1) // 2
        unit = np.ones((k, k)) - np.eye(k)
        rows.append(
            {
                "k": k,
                "edge_slots": slots,
                "graphs": 1 << slots,
                "connected": int(connected_sum(unit)),
                "trees": int(spanning_tree_sum(unit)),
            }
        )
    return rows
