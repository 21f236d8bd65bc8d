"""Walk one model through the full verification chain.

The model is a short binary chain with nearest-neighbor coupling 0.1 and
constant boundary spins, decimated at step 2 so the retained sites sit
beyond the coupling range. Every stage prints what it certified.
"""

import math

import numpy as np

import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.verifier as vf


def build_model():
    return lm.GibbsModel(
        box=lm.Box(dimension=1, radius=3, r0=2),
        spin=lm.SpinInterval(0, 1),
        coupling=lm.Coupling.nearest_neighbor(0.1),
        boundary=lm.BoundaryCondition.constant(1),
    )


def main():
    model = build_model()
    c = vf.constants(model)
    print("derived constants")
    print(f"  kappa (single-spin floor)     {c.kappa:.6f}")
    print(f"  delta (small-t threshold)     {c.delta:.6f}")
    print(f"  gaussian decay rate           {c.gauss_decay:.6f}")
    print(f"  contraction c (proved form)   {c.c_proved:.3e}")
    print(f"  step condition: lhs {c.r0_condition_lhs:.3e} vs thresholds "
          f"{c.r0_threshold_gauss:.3e} / {c.r0_threshold_dressed:.3e} -> "
          f"{'ok' if c.r0_condition_ok else 'FAIL'}")
    print(f"  smallest admissible step      {vf.min_r0(model)}")

    print("\nsingle-site characteristic function, |cf| <= 1 - c on [delta, 2pi-delta]")
    grid = np.linspace(c.delta, 2 * math.pi - c.delta, 16)
    reports = vf.check_single_spin_cf(model, grid)
    worst = min(r.margin for r in reports)
    print(f"  16 grid points, all pass: {vf.all_passed(reports)}, worst margin {worst:.3e}")

    print("\ndecimated characteristic function decay, sup over conditionings")
    ts = np.linspace(c.delta / 8, c.delta, 8)
    small = vf.check_small_t_decay(model, ts, seed=0)
    print(f"  small t (gaussian bound): {sum(r.passed for r in small)}/{len(small)} pass")
    ts = c.delta + (math.pi - c.delta) * np.linspace(1.0 / 8, 1.0, 8)
    large = vf.check_large_t_decay(model, ts, seed=0)
    print(f"  large t (volume bound):   {sum(r.passed for r in large)}/{len(large)} pass")

    print("\ncurvature of log Xi at theta = delta/2, decimated region")
    for r in vf.check_curvature_decomposition(model, theta=c.delta / 2):
        print(f"  {r.check_name:32s} lhs {r.lhs:+.4e}  rhs {r.rhs:+.4e}  "
              f"{'pass' if r.passed else 'FAIL'}")
    print("  (the as-displayed per-site quadratic bound fails on biased spins;")
    print("   the chain-derived form and the assembled total are what hold)")

    print("\nfour-integral bound on the lattice-vs-gaussian gap")
    d = ee.statistics(model, region="decimated").variance_S
    dec = vf.integral_decomposition(model, a_cut=0.5 * c.delta * math.sqrt(d))
    print(f"  |G_n| = {dec.g_n:.4e} <= I1+I2+I3+I4 = {dec.total:.4e}: {dec.bound_holds}")
    print(f"  mid/tail integrals within their lemma bounds: {dec.i2_within}, {dec.i3_within}")

    print("\nlocal-CLT gap trend on free chains")
    rows = vf.lclt_trend([
        lm.GibbsModel(
            box=lm.Box(dimension=1, radius=r, r0=1),
            spin=lm.SpinInterval(0, 1),
            coupling=lm.Coupling.nearest_neighbor(0.0),
            boundary=lm.BoundaryCondition.zero(),
        )
        for r in (2, 4, 8)
    ])
    for row in rows:
        print(f"  {row.site_count:3d} sites: gap {row.gap:.6f}, variance density {row.variance_density:.4f}")


if __name__ == "__main__":
    main()
