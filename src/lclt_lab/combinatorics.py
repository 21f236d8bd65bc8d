"""Sums over the connected graphs and spanning trees of small coupling graphs.

The expansion layer needs two sums on k labeled vertices with a symmetric
matrix of edge factors u,

    C = sum over connected spanning subgraphs g of prod_{edges of g} u_e,
    T = sum over spanning trees g of prod_{edges of g} u_e,

the connected Mayer sum and its tree-graph majorant. Both come from one
rooted recursion over the connected vertex sets of the coupling graph,
working elementwise over an extra config axis; only the weight of the
edges from the root to a block differs. A hard-core Ursell coefficient is
C with u in {0, -1} on the overlap graph, and unit factors on the complete
graph count the connected graphs and the labeled trees (graph_census).
Enumerating graphs or trees one by one is left to the tests, as the
oracle these sums are checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Connected labeled graphs on k = 1..7 vertices (OEIS A001187), the
# reference values the census is checked against.
CONNECTED_COUNTS_KNOWN = (1, 1, 4, 38, 728, 26704, 1866256)


def _reach(seed: int, adjacency, within: int) -> int:
    """Vertices of the mask `within` joined to the vertices of seed by edges
    inside it; adjacency[v] is the neighbour mask of vertex v."""
    reach = frontier = seed
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adjacency[v] & within & ~reach
        reach |= new
        frontier |= new
    return reach


def _mask_connected(mask: int, adjacency) -> bool:
    return _reach(mask & -mask, adjacency, mask) == mask


@lru_cache(maxsize=4096)
def _rooted_plan(adjacency: tuple[int, ...]):
    """Schedule of the rooted recursion on one coupling graph, or None when
    the graph is disconnected.

    Returns (root, walk, sets) per root, roots descending. sets lists each
    connected vertex set V with that root that the full set reaches, in
    ascending mask order, with its terms (B, V\\B): B holds the second
    lowest vertex of V, both B and V\\B are connected, and B meets the
    root's neighbours. walk lists every T = B & N(root) the terms use and
    each prefix of one, in depth-first order, as (T, highest vertex of T,
    the blocks B with that T).
    """
    k = len(adjacency)
    connected: dict[int, bool] = {}

    def is_connected(mask: int) -> bool:
        got = connected.get(mask)
        if got is None:
            got = connected[mask] = _mask_connected(mask, adjacency)
        return got

    full = (1 << k) - 1
    if not is_connected(full):
        return None
    terms: dict[int, list[tuple[int, int]]] = {}
    todo = [full]
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
            if block & near and is_connected(block) and is_connected(v ^ block):
                out.append((block, v ^ block))
                todo += (block, v ^ block)
            if not sub:
                break
            sub = (sub - 1) & free
    plan = []
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
        plan.append((r, walk, sets))
    return plan


def _rooted_sum(edge_factor, extend):
    """The rooted recursion shared by connected_sum and spanning_tree_sum.

    On the connected vertex sets V, with root r = min V, the graphs summed
    split, once r is deleted, into blocks B of V\\{r} joined to r; peeling
    the block that holds the lowest vertex after r leaves a set with root r
    again:

        S[V] = sum_B S[B] h_r(B) S[V\\B],   S[{v}] = 1,

    over the B of _rooted_plan. h_r(B) sums the allowed edge sets from r into
    B and is built one edge at a time, h <- extend(h, u_rb). A disconnected
    coupling graph gives exactly 0.
    """
    ef = np.asarray(edge_factor)
    k = ef.shape[0]
    if ef.shape[:2] != (k, k):
        raise ValueError(f"edge factors must be square, got shape {ef.shape}")
    shape = ef.shape[2:]
    u = ef.reshape(k, k, -1)
    coupled = np.triu(u.any(axis=2), 1)
    coupled |= coupled.T
    plan = _rooted_plan(tuple(int(bits) for bits in coupled @ (1 << np.arange(k))))
    if plan is None:
        out = np.zeros(shape, dtype=ef.dtype)
    else:
        one = np.ones(u.shape[2], dtype=ef.dtype)
        c = {1 << v: one for v in range(k)}
        tmp = np.empty_like(one)
        for r, walk, sets in plan:
            weighted = {}
            path = [(0, None)]
            for touch, b, blocks in walk:
                while path[-1][0] != touch ^ (1 << b):
                    path.pop()
                h = path[-1][1]
                h = u[r, b] if h is None else extend(h, u[r, b])
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
                    acc += np.multiply(weighted[block], c[rest], out=tmp)
                c[v] = acc
        out = np.array(c[(1 << k) - 1]).reshape(shape)
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
    return _rooted_sum(edge_factor, lambda h, u: h + u + h * u)


def spanning_tree_sum(edge_factor) -> float | complex | np.ndarray:
    """Sum over spanning trees of the product of edge factors.

    Takes connected_sum's input and gives exactly 0 on a disconnected
    coupling graph. Deleting the root r from a spanning tree of V leaves
    subtrees, each joined to r by exactly one edge, so the block weight of
    _rooted_sum is h_r(B) = sum_{b in B} u_rb, accumulated as h + u, on the
    schedule connected_sum takes.
    """
    return _rooted_sum(edge_factor, lambda h, u: h + u)


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
