"""Independent routes that the tests hold the library against.

Each recomputes a quantity from its definition, by brute force over every
connected graph, and never through the rooted recursion or the Mayer
tables the library runs. Costs grow with the connected-graph count, so
keep k small (the enumeration refuses k > 7).
"""

import math

import numpy as np

import lclt_lab.combinatorics as cb
import lclt_lab.polymer as pg


def connected_sum_by_enumeration(edge_factor):
    """Same sum as combinatorics.connected_sum, over the connected graphs."""
    ef = np.asarray(edge_factor)
    k = ef.shape[0]
    edges = cb.edge_list(k)
    total = np.zeros(ef.shape[2:], dtype=ef.dtype)
    for mask in cb.connected_graph_masks(k):
        term = np.ones(ef.shape[2:], dtype=ef.dtype)
        for pos, (i, j) in enumerate(edges):
            if mask >> pos & 1:
                term = term * ef[i, j]
        total = total + term
    return total if ef.ndim > 2 else total.item()


def _overlap_factors(polymers) -> np.ndarray:
    """-1 on every pair of intersecting site sets, 0 elsewhere."""
    sets = [frozenset(p) for p in polymers]
    zeta = np.zeros((len(sets), len(sets)))
    for i, j in cb.edge_list(len(sets)):
        if sets[i] & sets[j]:
            zeta[i, j] = zeta[j, i] = -1.0
    return zeta


def ursell_hardcore(polymers) -> float:
    """Hard-core Ursell coefficient of a tuple of site sets: the connected
    sum over their overlap graph, exactly 0 when that graph is disconnected."""
    return float(cb.connected_sum(_overlap_factors(polymers)))


def ursell_hardcore_by_enumeration(polymers) -> float:
    """The same coefficient by the definitional sum over connected graphs."""
    return float(connected_sum_by_enumeration(_overlap_factors(polymers)))


def activity_by_graph_enumeration(model, params, polymer, region="decimated", omega=None) -> complex:
    """polymer.activity with the Mayer sum expanded over connected graphs,
    recomputed per call without reading the Mayer tables."""
    gas = pg._gas(model, region, omega)
    idx = pg._indices(gas, polymer)
    if len(idx) == 1:
        return pg._activity_from_indices(gas, idx, params.t, params.c)
    values, probs = pg._config_tables(gas, idx)
    csum = connected_sum_by_enumeration(pg._edge_factors(gas, idx, values))
    phases = np.exp(1j * params.t * values.sum(axis=0))
    return math.exp(params.c * len(idx)) * complex(np.dot(probs * csum, phases))
