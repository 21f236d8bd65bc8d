"""Labeled graphs, trees, and connected-sum machinery on small vertex sets.

The expansion layer needs three primitives on k labeled vertices: every
connected graph (for the counting tables), every labeled tree (for
tree-graph bounds), and sums of the form

    sum over connected spanning subgraphs g of prod_{edges of g} u_e

for a symmetric matrix of edge factors u. That sum is a rooted recursion
over the connected vertex sets of the coupling graph, free of subtraction,
working elementwise over an extra config axis. A hard-core Ursell
coefficient is its u in {0, -1} special case on the overlap graph.

Edge i<j of the k-vertex complete graph occupies bit position
edge_list(k).index((i,j)) in every mask used here.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import CapacityError, DomainError

# Connected-graph enumeration materializes all 2^(k(k-1)/2) edge sets; the
# vertex cap keeps that table (and its memory) desk-sized.
MAX_ENUMERATED_VERTICES = 7
MAX_TREE_VERTICES = 8

# Classical counts of connected labeled graphs on k = 1..7 vertices, the
# reference values our enumeration is checked against.
CONNECTED_COUNTS_KNOWN = (1, 1, 4, 38, 728, 26704, 1866256)


@lru_cache(maxsize=None)
def edge_list(k: int) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i<j, in the fixed bit order used by all masks here."""
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


def connected_graph_count(k: int) -> int:
    return len(connected_graph_masks(k))


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


def connected_sum(edge_factor) -> float | complex | np.ndarray:
    """Sum over connected spanning subgraphs of the product of edge factors.

    edge_factor is a symmetric (k, k) array, optionally with trailing axes
    that the sum is carried along elementwise (diagonal ignored). Vertices
    i and j are coupled when edge_factor[i, j] is nonzero at some trailing
    index; a disconnected coupling graph gives exactly 0. On the connected
    vertex sets V, with root r = min V, deleting r splits a connected graph
    on V into connected blocks B of V\\{r}, each joined to r by a nonempty
    set of edges:

        C[V] = sum over such partitions of prod_B C[B] h_r(B),
        h_r(B) = prod_{b in B, b ~ r} (1 + u_rb) - 1,

    with h accumulated as h + u + h u. The partition sum is peeled one
    block at a time, the block holding the lowest vertex after r, and what
    is left over with r is again a connected set with root r:

        C[V] = sum_B C[B] h_r(B) C[V\\B],   C[{v}] = 1.

    Nothing is subtracted, so nonnegative factors give a sum of
    nonnegative terms, accurate to rounding however small the factors.
    The cost is one vector product per pair (V, B) with B and V\\B
    connected: one per set on a path, and about 3^k / 4 only on the
    complete graph. The schedule depends only on the coupling graph and
    is cached per graph.
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
                h = u[r, b] if h is None else h + u[r, b] + h * u[r, b]
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


def graph_census(max_k: int) -> list[dict]:
    """Counting table: edge slots, all graphs, connected graphs, trees."""
    rows = []
    for k in range(1, max_k + 1):
        slots = k * (k - 1) // 2
        rows.append(
            {
                "k": k,
                "edge_slots": slots,
                "graphs": 1 << slots,
                "connected": connected_graph_count(k),
                "trees": len(spanning_tree_edge_sets(k)),
            }
        )
    return rows
