"""Labeled graphs, trees, and connected-sum machinery on small vertex sets.

The expansion layer needs three primitives on k labeled vertices: every
connected graph (for definitional cross-checks), every labeled tree (for
tree-graph bounds), and sums of the form

    sum over connected spanning subgraphs g of prod_{edges of g} u_e

for a symmetric matrix of edge factors u. The last is computed two
independent ways: a subset convolution recursion in O(3^k) vector
operations (production path, works elementwise over an extra config axis)
and literal enumeration over the cached connected-graph masks (the
cross-check oracle). Hard-core Ursell coefficients are the u in {0, -1}
special case and depend only on the overlap pattern, so they are cached by
that pattern.

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


def connected_sum(edge_factor) -> float | complex | np.ndarray:
    """Sum over connected spanning subgraphs of the product of edge factors.

    edge_factor is a symmetric (k, k) array, optionally with trailing axes
    that the sum is carried along elementwise (diagonal ignored). Uses the
    partition of an arbitrary graph into the component containing the
    lowest vertex and the rest: with Z[V] = prod_{e in V} (1 + u_e),

        f[V] = Z[V] - sum_{W proper subset of V containing min V} f[W] Z[V\\W]

    and f over the full vertex set is the connected sum. O(3^k) vector ops.
    """
    ef = np.asarray(edge_factor)
    k = ef.shape[0]
    if ef.shape[:2] != (k, k):
        raise ValueError(f"edge factors must be square, got shape {ef.shape}")
    if k == 1:
        one = np.ones(ef.shape[2:], dtype=ef.dtype)
        return one if ef.ndim > 2 else ef.dtype.type(1)
    full = 1 << k
    z = np.empty((full,) + ef.shape[2:], dtype=ef.dtype)
    z[0] = 1
    for s in range(1, full):
        top = s.bit_length() - 1
        rest = s & ~(1 << top)
        acc = z[rest].copy() if ef.ndim > 2 else z[rest]
        j_set = rest
        while j_set:
            j = (j_set & -j_set).bit_length() - 1
            acc = acc * (1 + ef[top, j])
            j_set &= j_set - 1
        z[s] = acc
    f = np.empty_like(z)
    f[0] = 0
    for s in range(1, full):
        anchor = s & -s
        total = z[s].copy() if ef.ndim > 2 else z[s]
        w = (s - 1) & s
        while w:
            if w & anchor:
                total = total - f[w] * z[s & ~w]
            w = (w - 1) & s
        f[s] = total
    out = f[full - 1]
    return out if ef.ndim > 2 else out.item()


def connected_sum_by_enumeration(edge_factor) -> float | complex | np.ndarray:
    """Same sum as connected_sum, by brute force over connected graphs.

    Retained as the independent oracle for the recursion; cost grows with
    the connected-graph count, so keep k small.
    """
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


@lru_cache(maxsize=4096)
def _ursell_from_overlap_bits(k: int, bits: int) -> float:
    zeta = np.zeros((k, k))
    for pos, (i, j) in enumerate(edge_list(k)):
        if bits >> pos & 1:
            zeta[i, j] = zeta[j, i] = -1.0
    return float(connected_sum(zeta))


def ursell_hardcore(polymers) -> float:
    """Hard-core Ursell coefficient of a tuple of site sets.

    1 for a single polymer; otherwise the connected sum over the overlap
    graph with factor -1 on every intersecting pair. Zero whenever the
    overlap graph is disconnected. Depends only on the overlap pattern,
    which is what gets cached.
    """
    sets = [frozenset(p) for p in polymers]
    k = len(sets)
    if k == 0:
        raise ValueError("need at least one polymer")
    if any(not s for s in sets):
        raise ValueError("polymers must be nonempty")
    if k > 8:
        raise CapacityError(f"Ursell coefficient of order {k} exceeds the cap of 8")
    if k == 1:
        return 1.0
    bits = 0
    for pos, (i, j) in enumerate(edge_list(k)):
        if sets[i] & sets[j]:
            bits |= 1 << pos
    # Disconnected overlap graph: the connected sum vanishes identically,
    # skip the recursion.
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(k)]
    for pos, (i, j) in enumerate(edge_list(k)):
        if bits >> pos & 1:
            adj[i].append(j)
            adj[j].append(i)
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != k:
        return 0.0
    return _ursell_from_overlap_bits(k, bits)


def ursell_hardcore_by_enumeration(polymers) -> float:
    """Definitional Ursell sum over connected graphs; oracle for the cache."""
    sets = [frozenset(p) for p in polymers]
    k = len(sets)
    if k == 1:
        return 1.0
    zeta = np.zeros((k, k))
    for i, j in edge_list(k):
        if sets[i] & sets[j]:
            zeta[i, j] = zeta[j, i] = -1.0
    return float(connected_sum_by_enumeration(zeta))


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
