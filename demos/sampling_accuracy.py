"""Metropolis estimates against exact enumeration.

A chain small enough to enumerate gives the truth; the sampler must hit
it within its own error bars, and the local-CLT gap estimate must track
the exact gap as the sample grows.
"""

import numpy as np

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.montecarlo as mc


def build_model():
    return lm.GibbsModel(
        box=lm.Box(dimension=1, radius=4, r0=1),
        spin=lm.SpinInterval(-1, 1),
        coupling=lm.Coupling.nearest_neighbor(0.15),
        boundary=lm.BoundaryCondition.constant(1),
    )


def main():
    model = build_model()
    exact = ee.statistics(model)
    gap = ee.lclt_gap(model)
    print(f"exact: mean {exact.mean_S:.6f}, variance {exact.variance_S:.6f}, lclt gap {gap:.6f}")

    spec = mc.ChainSpec(seed=7, burn_in=500, samples=20000, thinning=1, chains=4)
    est = mc.sample_statistics(model, spec)
    for key, truth in (("mean", exact.mean_S), ("variance", exact.variance_S)):
        e = est[key]
        z = (e.value - truth) / e.std_error
        print(f"sampled {key:8s} {e.value:.6f} +- {e.std_error:.6f}  (z = {z:+.2f}, "
              f"n_eff = {e.n_effective:.0f})")

    print("\ngap estimate as the sample grows")
    for samples in (2000, 8000, 32000):
        spec = mc.ChainSpec(seed=7, burn_in=500, samples=samples, thinning=1, chains=4)
        g = mc.sample_pmf_gap(model, spec)["gap"]
        print(f"  {samples:6d} samples/chain: gap {g.value:.6f} +- {g.std_error:.6f} "
              f"(exact {gap:.6f})")

    print("\noccupancy of the total spin (exact probabilities in parentheses)")
    table = ee.pmf(model)
    exact_pmf = dict(zip(table.support, table.probabilities))
    spec = mc.ChainSpec(seed=7, burn_in=500, samples=20000, thinning=1, chains=4)
    spins = np.rint(mc.total_spin_samples(model, spec)).astype(np.int64).ravel()
    low = int(spins.min())
    for offset, count in enumerate(np.bincount(spins - low)):
        if count:
            total = low + offset
            print(f"  S = {total:+3d}: {count / len(spins):.4f}  ({exact_pmf.get(total, 0.0):.4f})")


if __name__ == "__main__":
    main()
