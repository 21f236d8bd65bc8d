import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lclt_lab.combinatorics as cb
import oracles
from lclt_lab.errors import CapacityError, DomainError


def _unit_factors(k):
    return np.ones((k, k)) - np.eye(k)


def test_connected_graph_counts_match_known_sequence():
    # the recursion's census against OEIS A001187, and the oracle's masks too
    for row, expected in zip(cb.graph_census(6), cb.CONNECTED_COUNTS_KNOWN[:6]):
        assert row["connected"] == expected
        assert len(oracles.connected_graph_masks(row["k"])) == expected


def test_connected_graph_count_seven_vertices():
    # unit factors on the complete graph: 1866256 of the 2^21 edge sets
    assert cb.connected_sum(_unit_factors(7)) == 1866256.0


def test_connected_masks_are_connected_graphs():
    for k in (2, 3, 4):
        edges = oracles.edge_list(k)
        for mask in oracles.connected_graph_masks(k):
            chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
            # union-find check, independent of the library's BFS
            parent = list(range(k))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for a, b in chosen:
                parent[find(a)] = find(b)
            assert len({find(v) for v in range(k)}) == 1


def test_spanning_tree_counts_cayley():
    # k^(k-2) exactly from the recursion up to 10 vertices, and the
    # oracle's Pruefer enumeration up to 7
    for k in range(2, 11):
        assert cb.spanning_tree_sum(_unit_factors(k)) == float(k ** (k - 2))
    for k in range(2, 8):
        assert len(oracles.spanning_tree_edge_sets(k)) == k ** (k - 2)


def test_spanning_trees_are_trees():
    for k in (3, 4, 5):
        seen = set()
        for edges in oracles.spanning_tree_edge_sets(k):
            assert len(edges) == k - 1
            seen.add(frozenset(edges))
            touched = {v for e in edges for v in e}
            assert touched == set(range(k))
        assert len(seen) == k ** (k - 2)


def test_enumeration_caps():
    with pytest.raises(CapacityError):
        oracles.connected_graph_masks(oracles.MAX_ENUMERATED_VERTICES + 1)
    with pytest.raises(CapacityError):
        oracles.spanning_tree_edge_sets(oracles.MAX_TREE_VERTICES + 1)
    with pytest.raises(DomainError):
        oracles.connected_graph_masks(0)


def test_connected_sum_matches_enumeration():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4, 5):
        w = rng.uniform(-0.4, 0.4, size=(k, k))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        fac = np.expm1(w)
        fast = cb.connected_sum(fac)
        slow = oracles.connected_sum_by_enumeration(fac)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)
    # the tree sum on weighted graphs with about 40% of the edges missing,
    # along a config axis of 5, and without one
    rng = np.random.default_rng(15)
    for k in (2, 3, 4, 5, 6):
        for _ in range(4):
            fac = rng.uniform(-1.0, 1.0, size=(k, k, 5)) * (rng.random((k, k, 1)) < 0.6)
            fac = np.triu(fac.transpose(2, 0, 1), 1).transpose(1, 2, 0)
            fac = fac + fac.transpose(1, 0, 2)
            want = oracles.spanning_tree_sum_by_enumeration(fac)
            scale = oracles.spanning_tree_sum_by_enumeration(np.abs(fac))
            got = cb.spanning_tree_sum(fac)
            assert got.shape == (5,)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            assert np.all(got[scale == 0.0] == 0.0)
            assert cb.spanning_tree_sum(fac[:, :, 0]) == got[0]


def test_connected_sum_batched_configs():
    """A trailing config axis must behave like a loop over configs."""
    rng = np.random.default_rng(6)
    k, m = 4, 7
    fac = rng.uniform(-0.5, 0.5, size=(k, k, m)) + 1j * rng.uniform(-0.2, 0.2, size=(k, k, m))
    fac = fac + fac.transpose(1, 0, 2)
    for i in range(k):
        fac[i, i, :] = 0.0
    batched = cb.connected_sum(fac)
    assert batched.shape == (m,)
    for j in range(m):
        assert batched[j] == pytest.approx(cb.connected_sum(fac[:, :, j]), rel=1e-12)


def test_connected_sum_two_vertices_closed_form():
    # with one edge the only connected graph is that edge
    fac = np.array([[0.0, 0.7], [0.7, 0.0]])
    assert cb.connected_sum(fac) == pytest.approx(0.7, abs=1e-15)


def _path_factors(k, u):
    """Path 0-1-...-(k-1) with factor u (1 + i/10) on edge (i, i+1)."""
    fac = np.zeros((k, k))
    for i in range(k - 1):
        fac[i, i + 1] = fac[i + 1, i] = u * (1 + i / 10)
    return fac


@pytest.mark.parametrize("u", [1e-4, 1e-2, 0.3])
def test_connected_sum_weak_coupling_path(u):
    # a path has one connected spanning subgraph, the path itself
    for k in range(3, 10):
        fac = _path_factors(k, u)
        exact = math.prod(fac[i, i + 1] for i in range(k - 1))
        assert cb.connected_sum(fac) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("u", [1e-4, 1e-2, 0.3])
def test_connected_sum_weak_coupling_grid(u):
    # 2x3 grid, vertices 3 r + c: two 4-cycles sharing the middle rung
    fac = np.zeros((6, 6))
    for a, b in ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)):
        fac[a, b] = fac[b, a] = u * (1 + (a + b) / 20)
    assert cb.connected_sum(fac) == pytest.approx(oracles.connected_sum_by_enumeration(fac), rel=1e-12, abs=0.0)


def test_connected_sum_disconnected_is_exactly_zero():
    # two components {0, 2} and {1, 3, 4}: no connected spanning subgraph
    rng = np.random.default_rng(9)
    mask = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 2), (1, 3), (3, 4), (1, 4)):
        mask[a, b] = mask[b, a] = True
    for shape in ((5, 5), (5, 5, 6)):
        for cplx in (False, True):
            fac = rng.uniform(-0.9, 0.9, size=shape)
            if cplx:
                fac = fac + 1j * rng.uniform(-0.5, 0.5, size=shape)
            fac = (fac + np.swapaxes(fac, 0, 1)) * mask.reshape(mask.shape + (1,) * (len(shape) - 2))
            for graph_sum in (cb.connected_sum, cb.spanning_tree_sum):
                got = graph_sum(fac)
                assert np.shape(got) == shape[2:]
                assert np.all(np.asarray(got) == 0.0)


@st.composite
def _factor_arrays(draw):
    """Symmetric factors on k <= 6 vertices: a random edge mask (possibly
    disconnected), magnitudes 1e-6..1, real or complex, with or without a
    trailing config axis."""
    k = draw(st.integers(1, 6))
    trailing = draw(st.sampled_from([(), (1,), (3,)]))
    shape = (k, k) + trailing
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    fac = draw(hnp.arrays(np.float64, shape, elements=unit))
    if draw(st.booleans()):
        fac = fac + 1j * draw(hnp.arrays(np.float64, shape, elements=unit))
    fac = fac * 10.0 ** draw(hnp.arrays(np.float64, shape, elements=st.floats(-6.0, 0.0)))
    edges = draw(st.integers(0, (1 << (k * (k - 1) // 2)) - 1))
    mask = np.zeros((k, k))
    for pos, (i, j) in enumerate(oracles.edge_list(k)):
        mask[i, j] = mask[j, i] = edges >> pos & 1
    fac = fac * mask.reshape(mask.shape + (1,) * len(trailing))
    return (fac + np.swapaxes(fac, 0, 1)) / 2


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(_factor_arrays())
def test_connected_sum_property_matches_enumeration(fac):
    # one oracle call per sum on the factors and their moduli side by side
    k = fac.shape[0]
    both = np.concatenate([fac.reshape(k, k, -1), np.abs(fac).reshape(k, k, -1)], axis=2)
    half = both.shape[2] // 2
    for graph_sum, oracle in (
        (cb.connected_sum, oracles.connected_sum_by_enumeration),
        (cb.spanning_tree_sum, oracles.spanning_tree_sum_by_enumeration),
    ):
        by_enumeration = oracle(both)
        want, scale = by_enumeration[:half], by_enumeration[half:].real
        got = np.reshape(graph_sum(fac), -1)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_ursell_identical_polymers_rota():
    # k copies of one polymer give (-1)^(k-1) (k-1)!; the 1/k! belongs to
    # the series assembly, not to the coefficient itself
    r = frozenset({(0,)})
    for k in range(1, 7):
        expected = (-1) ** (k - 1) * math.factorial(k - 1)
        assert oracles.ursell_hardcore([r] * k) == pytest.approx(expected, rel=1e-12)


def test_ursell_disconnected_family_vanishes():
    a = frozenset({(0,)})
    b = frozenset({(5,)})
    assert oracles.ursell_hardcore([a, b]) == 0.0
    c = frozenset({(0,), (5,)})
    assert oracles.ursell_hardcore([a, b, c]) != 0.0


def test_ursell_matches_enumeration():
    rng = np.random.default_rng(8)
    sites = [(i,) for i in range(5)]
    for _ in range(30):
        fam = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 3))
            picks = rng.choice(5, size=size, replace=False)
            fam.append(frozenset(sites[int(i)] for i in picks))
        fast = oracles.ursell_hardcore(fam)
        slow = oracles.ursell_hardcore_by_enumeration(fam)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)


def test_graph_census_shape():
    rows = cb.graph_census(5)
    assert [r["k"] for r in rows] == [1, 2, 3, 4, 5]
    assert [r["connected"] for r in rows] == list(cb.CONNECTED_COUNTS_KNOWN[:5])
    assert all(r["graphs"] == 1 << r["edge_slots"] for r in rows)
    assert all(r["trees"] == r["k"] ** max(r["k"] - 2, 0) for r in rows)
