"""Shared model builders for the test suite.

Builders return frozen models, so tests can lean on the engine caches.
Random-model factories take an explicit Generator: every randomized test
seeds its own stream and stays reproducible run to run.
"""

import itertools

import numpy as np

from lclt_lab.model import (
    BoundaryCondition,
    Box,
    Coupling,
    GibbsModel,
    SpinInterval,
    resolve_region,
)


def nn_chain(radius=1, strength=0.2, spin=(-1, 1), boundary=1, r0=1, dimension=1):
    if boundary is None:
        bc = BoundaryCondition.zero()
    else:
        bc = BoundaryCondition.constant(boundary)
    return GibbsModel(
        box=Box(dimension=dimension, radius=radius, r0=r0),
        spin=SpinInterval(*spin),
        coupling=Coupling.nearest_neighbor(strength),
        boundary=bc,
    )


def free_chain(radius, spin=(0, 1), dimension=1):
    """Zero coupling, zero boundary: independent sites."""
    return GibbsModel(
        box=Box(dimension=dimension, radius=radius, r0=1),
        spin=SpinInterval(*spin),
        coupling=Coupling.nearest_neighbor(0.0),
        boundary=BoundaryCondition.zero(),
    )


def regime_finite_range():
    """Nearest-neighbor coupling with the decimation step past its range."""
    return nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2)


def regime_weak_coupling():
    """Coupling weak enough that step 1 already satisfies the condition."""
    return nn_chain(radius=2, strength=1e-11, spin=(0, 1), boundary=1, r0=1)


def complete_graph(n, strength, spin=(-1, 1)):
    """n sites of a 1D box, every pair coupled by strength, zero boundary.
    Returns (model, region)."""
    radius = n // 2
    sites = tuple((x,) for x in range(-radius, -radius + n))
    model = GibbsModel(
        box=Box(dimension=1, radius=radius, r0=1),
        spin=SpinInterval(*spin),
        coupling=Coupling.explicit([(a, b, strength) for a, b in itertools.combinations(sites, 2)]),
        boundary=BoundaryCondition.zero(),
    )
    return model, sites


def frustrated_complete_graph(n, strength):
    """complete_graph with spins {-1, 0, 1} and an antiferromagnetic
    strength: the energy-shift bound sits hundreds above the largest log
    weight."""
    return complete_graph(n, strength)


SPIN_CHOICES = ((0, 1), (-1, 0), (-1, 1))


def random_model(rng: np.random.Generator, max_coupling=0.3, dims=(1, 2)):
    """Small random model whose decimated region has at most 5 sites.

    Spin intervals always contain zero; couplings are nearest-neighbor or
    explicit random pairs inside the box, bounded by max_coupling.
    """
    dimension = int(rng.choice(list(dims)))
    if dimension == 1:
        radius = int(rng.integers(1, 5))
        r0 = int(rng.integers(1, 3))
        while len(range(-radius, radius + 1, r0)) > 5:
            r0 += 1
    else:
        # a 3x3 box at step 1 has 9 decimated sites; step 2 keeps it at one
        radius = 1
        r0 = 2
    spin = SPIN_CHOICES[int(rng.integers(0, len(SPIN_CHOICES)))]
    box = Box(dimension=dimension, radius=radius, r0=r0)

    if rng.random() < 0.6:
        coupling = Coupling.nearest_neighbor(float(rng.uniform(-max_coupling, max_coupling)))
    else:
        probe = GibbsModel(
            box=box,
            spin=SpinInterval(*spin),
            coupling=Coupling.nearest_neighbor(0.0),
            boundary=BoundaryCondition.zero(),
        )
        sites = resolve_region(probe, "box")
        pairs = []
        used = set()
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.choice(len(sites), size=2, replace=False)
            key = frozenset((int(i), int(j)))
            if key in used:
                continue
            used.add(key)
            pairs.append((sites[int(i)], sites[int(j)], float(rng.uniform(-max_coupling, max_coupling))))
        coupling = Coupling.explicit(pairs)

    roll = rng.random()
    if roll < 0.4:
        boundary = BoundaryCondition.zero()
    else:
        boundary = BoundaryCondition.constant(int(rng.integers(spin[0], spin[1] + 1)))
    return GibbsModel(box=box, spin=SpinInterval(*spin), coupling=coupling, boundary=boundary)


def model_to_dict(model: GibbsModel) -> dict:
    """The JSON object layout of a model, which model_from_dict reads back
    (up to a defaulted truncation radius)."""
    c: dict = {"kind": model.coupling.kind}
    if model.coupling.kind in ("nearest_neighbor", "power_law"):
        c["strength"] = model.coupling.strength
    if model.coupling.kind == "power_law":
        c["exponent"] = model.coupling.exponent
    if model.coupling.kind == "explicit":
        c["pairs"] = [[list(x), list(y), j] for x, y, j in model.coupling.pairs]
    b: dict = {"kind": model.boundary.kind}
    if model.boundary.kind == "constant":
        b["value"] = model.boundary.value
    if model.boundary.kind == "explicit":
        b["assignments"] = [[list(site), v] for site, v in model.boundary.assignments]
    return {
        "dimension": model.box.dimension,
        "radius": model.box.radius,
        "r0": model.box.r0,
        "truncation_radius": model.truncation_radius,
        "spin": {"lo": model.spin.lo, "hi": model.spin.hi},
        "coupling": c,
        "boundary": b,
    }


def random_omega(rng: np.random.Generator, model, region="decimated"):
    """Boundary spins drawn uniformly from the spin interval, one per
    exterior site that can influence the region."""
    from lclt_lab._system import windowed_exterior

    lo, hi = model.spin.lo, model.spin.hi
    return {y: int(rng.integers(lo, hi + 1)) for y in windowed_exterior(model, region)}
