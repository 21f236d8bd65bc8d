"""End-to-end acceptance gate.

Twelve headline verifications, one test each, every test printing a
single PASS/FAIL summary line with its key numbers and elapsed time.
The per-module suites cover the fine-grained contracts; this file runs
the library the way a referee would, over randomized model sweeps at
the stated tolerances and runtime budgets.
"""

import math
import time

import numpy as np

import lclt_lab.combinatorics as cb
import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.montecarlo as mc
import lclt_lab.polymer as pl
import lclt_lab.verifier as vf
from conftest import free_chain, nn_chain, random_model, random_omega, regime_weak_coupling
from oracles import ursell_hardcore


def _verdict(num: int, name: str, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed <= budget_s else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail}; {elapsed:.1f}s of {budget_s:.0f}s)")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed <= budget_s, f"criterion {num:02d} {name} took {elapsed:.1f}s, budget {budget_s:.0f}s"


def _decay_suite():
    """Finite-range chains with the step beyond the range, plus two
    weak-coupling models whose smallest admissible step is 1."""
    models = []
    for strength in (0.05, 0.1):
        for spin in ((0, 1), (-1, 1)):
            for boundary in (None, 1):
                models.append(nn_chain(radius=3, strength=strength, spin=spin, boundary=boundary, r0=2))
    models.append(nn_chain(radius=4, strength=0.08, spin=(0, 1), boundary=1, r0=2))
    models.append(regime_weak_coupling())
    models.append(nn_chain(radius=2, strength=1e-13, spin=(-1, 1), boundary=None, r0=1))
    for model in models:
        assert vf.min_r0(model) <= model.box.r0
    return models


def test_01_master_identity():
    """Direct enumeration of Xi(t) against the hard-core gas sum over
    polymer families, on 50 randomized models and 20 t values each.

    Xi has analytic zeros (two-state spins near t = pi), where relative
    agreement is meaningless; the denominator is floored at 1e-6 Xi(0),
    pinning those points to cancellation-level absolute agreement.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        model = random_model(rng)
        omega = random_omega(rng, model, "decimated")
        xi0 = abs(pl.polymer_partition(model, pl.ActivityParams(t=0.0), "decimated", omega, "direct"))
        for t in np.linspace(0.0, math.pi, 20):
            params = pl.ActivityParams(t=float(t))
            direct = pl.polymer_partition(model, params, "decimated", omega, "direct")
            gas = pl.polymer_partition(model, params, "decimated", omega, "polymer_sum")
            worst = max(worst, abs(direct - gas) / max(abs(direct), 1e-6 * xi0))
    _verdict(1, "master identity", worst <= 1e-10,
             f"50 models x 20 t, worst rel {worst:.2e} vs 1e-10", started, 60.0)


def test_02_combinatorial_tables():
    started = time.perf_counter()
    census = cb.graph_census(8)
    counts_ok = all(row["connected"] == known for row, known in zip(census, cb.CONNECTED_COUNTS_KNOWN))
    cayley_ok = all(row["trees"] == row["k"] ** (row["k"] - 2) for row in census[1:])
    rota_ok = True
    for k in range(1, 8):
        site = frozenset([0])
        got = ursell_hardcore(tuple(site for _ in range(k)))
        rota_ok = rota_ok and got == (-1) ** (k - 1) * math.factorial(k - 1)
    ok = counts_ok and cayley_ok and rota_ok
    _verdict(2, "combinatorial tables", ok,
             f"connected k<=7 {counts_ok}, trees k<=8 {cayley_ok}, cumulants k<=7 {rota_ok}",
             started, 30.0)


def test_03_single_spin_contraction():
    """|site CF| <= 1 - c_proved on [delta, 2pi - delta], 30 random models."""
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(30):
        model = random_model(rng)
        c = vf.constants(model)
        grid = np.linspace(c.delta, 2 * math.pi - c.delta, 64)
        violations += sum(1 for r in vf.check_single_spin_cf(model, grid) if not r.passed)
    _verdict(3, "single-spin contraction", violations == 0,
             f"30 models x 64 points, {violations} violations", started, 20.0)


def test_04_small_t_gaussian_decay():
    started = time.perf_counter()
    models = _decay_suite()
    violations = 0
    for model in models:
        c = vf.constants(model)
        ts = np.linspace(c.delta / 64, c.delta, 64)
        violations += sum(1 for r in vf.check_small_t_decay(model, ts, seed=3) if not r.passed)
    _verdict(4, "small-t gaussian decay", violations == 0,
             f"{len(models)} models x 64 points, extremal + 8 random conditionings, {violations} violations",
             started, 120.0)


def test_05_large_t_volume_decay():
    started = time.perf_counter()
    models = _decay_suite()
    violations = 0
    for model in models:
        c = vf.constants(model)
        ts = c.delta + (math.pi - c.delta) * np.linspace(1.0 / 64, 1.0, 64)
        violations += sum(1 for r in vf.check_large_t_decay(model, ts, seed=3) if not r.passed)
    _verdict(5, "large-t volume decay", violations == 0,
             f"{len(models)} models x 64 points, {violations} violations", started, 120.0)


def test_06_derivative_suite():
    """Analytic activity derivatives against central differences, and the
    size-scaled majorants, on 100 random polymers of up to 4 sites.

    The relative scale is floored at 1e-6: weak-coupling activities sit
    at 1e-13 where second differences only carry about 8 digits.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    h = 1e-4
    worst_fd = 0.0
    bound_violations = 0
    for _ in range(100):
        model = random_model(rng)
        c = vf.constants(model)
        sites = lm.resolve_region(model, "decimated")
        t = float(rng.uniform(0.0, c.delta * 0.999))
        k = min(int(rng.integers(1, 5)), len(sites))
        pick = tuple(sites[i] for i in sorted(rng.choice(len(sites), size=k, replace=False)))
        params = pl.ActivityParams(t=t)
        d1 = pl.activity_derivative(model, params, pick, order=1)
        d2 = pl.activity_derivative(model, params, pick, order=2)
        f = lambda tt: pl.activity(model, pl.ActivityParams(t=tt), pick)
        fd1 = (f(t + h) - f(t - h)) / (2 * h)
        fd2 = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
        worst_fd = max(worst_fd, abs(d1 - fd1) / max(abs(d1), 1e-6), abs(d2 - fd2) / max(abs(d2), 1e-6))
        sigma = c.sigma
        if k == 1:
            if abs(pl.activity(model, params, pick)) > c.delta * sigma + 1e-12:
                bound_violations += 1
            if abs(d1) > sigma + 1e-12 or abs(d2) > sigma * sigma + 1e-12:
                bound_violations += 1
        else:
            w0 = pl.weight_w0(model, pick, c.delta)
            if abs(d1) > sigma * k * w0 + 1e-12 or abs(d2) > (sigma * k) ** 2 * w0 + 1e-12:
                bound_violations += 1
    ok = worst_fd <= 1e-6 and bound_violations == 0
    _verdict(6, "derivative suite", ok,
             f"100 polymers, worst fd rel {worst_fd:.2e}, {bound_violations} bound violations",
             started, 30.0)


def test_07_tree_graph_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    margin_violations = 0
    n_polymers = 0
    while n_polymers < 50:
        model = random_model(rng)
        sites = lm.resolve_region(model, "decimated")
        if len(sites) < 2:
            continue
        k = min(int(rng.integers(2, 6)), len(sites))
        pick = tuple(sites[i] for i in sorted(rng.choice(len(sites), size=k, replace=False)))
        tb = pl.tree_graph_bound_check(model, pick)
        if min(tb.margin_trees, tb.margin_chain, tb.margin_j) < -1e-12:
            margin_violations += 1
        n_polymers += 1
    norm_violations = 0
    for model in (nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2),
                  nn_chain(radius=2, strength=0.2, spin=(-1, 1), boundary=None, r0=1)):
        c = vf.constants(model)
        for k in (2, 3):
            wn = pl.weight_norm(model, k, "w1", c.delta)
            if wn > pl.weight_norm_bound(k, c.delta, c.sigma, c.step_norm, c=1.0) + 1e-15:
                norm_violations += 1
    ok = margin_violations == 0 and norm_violations == 0
    _verdict(7, "tree-graph bounds", ok,
             f"50 polymers, {margin_violations} margin violations; w1 norms k=2,3, {norm_violations} over bound",
             started, 60.0)


def test_08_cluster_series_convergence():
    """Truncated cluster series against the continuous-branch log on
    weak-coupling models, undressed at small t and dressed at large t.

    The dressed tail certificate can land below machine resolution of
    the 64-step continuous log, so comparisons carry a 1e-13 floor.
    """
    started = time.perf_counter()
    a = math.log(2.0)
    floor = 1e-13
    ok = True
    details = []
    cases = [
        (regime_weak_coupling(), None),
        (nn_chain(radius=4, strength=1e-4, spin=(0, 1), boundary=1, r0=1), None),
        (nn_chain(radius=3, strength=5e-5, spin=(-1, 1), boundary=None, r0=1), None),
        (regime_weak_coupling(), "dressed"),
    ]
    for model, variant in cases:
        c = vf.constants(model)
        n_sites = len(lm.resolve_region(model, "decimated"))
        if variant is None:
            norms = {k: pl.weight_norm(model, k, "w1", c.delta) for k in (1, 2, 3)}
            conv = pl.convergence_check(norms, a)
            ok = ok and conv.satisfied
            params = pl.ActivityParams(t=c.delta / 2, delta_cap=c.delta)
            a_used = a
        else:
            params = pl.ActivityParams(t=2.5, c=c.c_selected, delta_cap=c.delta)
            a_used = c.a_dressed
        series = pl.truncated_log_partition(model, params, K=4)
        exact = pl.continuous_log_partition(model, params, mode="direct")
        trunc_err = abs(series.partial_sums[-1] - exact)
        tail = series.dominating_tail
        ok = ok and tail is not None and trunc_err <= tail + floor
        dominated = pl.truncated_log_partition(model, params, K=4, absolute=True)
        total_abs = dominated.partial_sums[-1] + (tail or 0.0)
        ok = ok and total_abs <= a_used * n_sites
        details.append(f"{'dressed' if variant else 'plain'} err {trunc_err:.1e}<=tail {tail:.1e}")
    _verdict(8, "cluster series convergence", ok, "; ".join(details), started, 90.0)


def test_09_integral_decomposition():
    started = time.perf_counter()
    models = [
        nn_chain(radius=2, strength=0.1, spin=(0, 1), boundary=1, r0=2),
        nn_chain(radius=3, strength=0.1, spin=(0, 1), boundary=1, r0=2),
        nn_chain(radius=2, strength=0.05, spin=(-1, 1), boundary=None, r0=1),
        regime_weak_coupling(),
    ]
    ok = True
    lemma_count = 0
    for model in models:
        c = vf.constants(model)
        d = ee.statistics(model, region="decimated").variance_S
        dec = vf.integral_decomposition(model, 0.5 * c.delta * math.sqrt(d))
        ok = ok and dec.g_n <= dec.total + 1e-8
        if dec.lemma_ok:
            lemma_count += 1
            ok = ok and dec.i2_within and dec.i3_within
    _verdict(9, "integral decomposition", ok,
             f"{len(models)} models, |G_n| within I1+I2+I3+I4; mid/tail bounds on {lemma_count} lemma-ok models",
             started, 60.0)


def test_10_lclt_trend():
    """Gap shrinking with size: exact free and interacting families, then
    a Monte Carlo step beyond enumeration.

    The 16-vs-32 gap difference sits near the resolution of the plug-in
    estimator under multinomial error bars, hence the heavy sampling;
    seed and sample counts were fixed before the comparison was run.
    """
    started = time.perf_counter()
    free_rows = vf.lclt_trend([free_chain(radius=r) for r in (2, 4, 8)])
    free_ok = (tuple(r.site_count for r in free_rows) == (5, 9, 17)
               and free_rows[0].gap > free_rows[1].gap > free_rows[2].gap)

    big = nn_chain(radius=16, strength=0.1, spin=(0, 1), boundary=1, r0=1)

    def chain_region(n):
        half = n // 2
        return tuple((x,) for x in range(-half, -half + n))

    rows = vf.lclt_trend([(big, chain_region(n)) for n in (8, 12, 16, 20)])
    gaps = [r.gap for r in rows]
    exact_ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    vd = [r.variance_density for r in rows]
    sig3 = lambda x: float(f"{x:.3g}")
    density_ok = sig3(vd[-1]) == sig3(vd[-2])

    s16 = mc.ChainSpec(seed=21, burn_in=500, samples=400000, thinning=1, chains=4)
    s32 = mc.ChainSpec(seed=21, burn_in=500, samples=200000, thinning=1, chains=4)
    g16 = mc.sample_pmf_gap(big, s16, region=chain_region(16))["gap"]
    g32 = mc.sample_pmf_gap(big, s32, region=chain_region(32))["gap"]
    diff = g16.value - g32.value
    combined = 2.0 * math.hypot(g16.std_error, g32.std_error)
    mc_ok = diff > combined
    # (MC gap - exact gap) / SE against the transfer sum's exact gap:
    # reported beside the gate, not part of it
    z16, z32 = ((g.value - ee.lclt_gap(big, chain_region(n))) / g.std_error for n, g in ((16, g16), (32, g32)))

    ok = free_ok and exact_ok and density_ok and mc_ok
    _verdict(10, "lclt trend", ok,
             f"free gaps decreasing {free_ok}; exact 8..20 decreasing {exact_ok}, density {vd[-2]:.4f}->{vd[-1]:.4f}; "
             f"mc 16 vs 32 diff {diff:.5f} > 2se {combined:.5f} {mc_ok}, "
             f"(mc - exact)/se {z16:+.2f} at 16, {z32:+.2f} at 32",
             started, 300.0)


def test_11_mc_vs_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(1111)
    hits = 0
    for trial in range(40):
        model = random_model(rng)
        exact = ee.statistics(model)
        spec = mc.ChainSpec(seed=1000 + trial, burn_in=200, samples=1500, thinning=1, chains=4)
        est = mc.sample_statistics(model, spec)
        within = (abs(est["mean"].value - exact.mean_S) <= 3 * est["mean"].std_error
                  and abs(est["variance"].value - exact.variance_S) <= 3 * est["variance"].std_error)
        hits += within
    _verdict(11, "mc vs exact", hits >= 38, f"{hits}/40 trials within 3 std errors (need 38)", started, 180.0)


def test_12_low_temperature_lclt():
    """The local CLT at low temperature, where the paper's claim goes past
    weak coupling: a nearest-neighbour chain at J = 3 on {0, 1} only
    settles past about 10^3 sites. sqrt(D) times the gap stays flat to 5%
    over n = 2048, 4096 and 8192; the transfer sum takes 8192*2^2*8193
    steps at the largest size."""
    started = time.perf_counter()
    model = nn_chain(radius=4096, strength=3.0, spin=(0, 1), boundary=1)
    sites = lm.resolve_region(model, "box")
    sizes = (2048, 4096, 8192)
    rows = vf.lclt_trend([(model, sites[:n]) for n in sizes], budget=1 << 29)
    scaled = [math.sqrt(r.variance_density * r.site_count) * r.gap for r in rows]
    spread = max(scaled) / min(scaled)
    detail = ", ".join(f"n={n} {v:.4f}" for n, v in zip(sizes, scaled))
    _verdict(12, "low-temperature lclt", spread <= 1.05,
             f"sqrt(D)*gap {detail}; max/min {spread:.4f} vs 1.05", started, 30.0)
