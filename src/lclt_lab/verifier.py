"""Verification of the decay estimates behind the local limit theorem.

Every check here turns one inequality of the argument into a report with
an exact left side, the claimed right side, and the margin between them.
The chain being verified: single-site characteristic functions are
uniformly contracted away from t=0; the decimated system's characteristic
function gains a Gaussian factor for small t and a volume factor for
large t, uniformly over conditionings; those two decays squeeze the
difference between the lattice point probabilities and the Gaussian
density through four explicit integrals.

All constants flow from kappa (the conditional single-spin floor), the
Fourier split point delta = kappa/(12 sigma), the Gaussian curvature
budget min(sigma, hi - lo)^2 kappa / 4, and the large-t rate. Two
variants of the large-t rate are carried side by side: the stated one
with a single power of kappa and the proved one with kappa squared, which
the consecutive-pair argument delivers. Anything that must hold defaults
to the proved variant. To condition on an exterior assignment omega, pass
replace(model, boundary=BoundaryCondition.explicit(omega)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import exactengine as ee
from . import model as m
from . import polymer as pg
from ._system import build_system
from .errors import DomainError, PreconditionError, require_normal_exp

DEFAULT_R0_MAX = 8
# Slacks of the integral bounds: the gap against the sum of the four
# integrals, and each decay integral against its closed form.
GAP_SLACK = 1e-8
DECAY_INTEGRAL_SLACK = 1e-12
# Absolute and relative tolerances and subinterval limit of each of the
# integral decomposition's quadratures (the relative one is QUADPACK's
# customary 1.49e-8, scipy.integrate.quad's default).
QUAD_TOL = 1e-9
QUAD_EPSREL = 1.49e-8
QUAD_LIMIT = 200
# Last order summed of the curvature split's k >= 3 series.
CURVATURE_SERIES_ORDER = 60


@dataclass(frozen=True)
class ConstantsBundle:
    """Every constant of the decay argument, for one model and rate variant."""

    sigma: int
    card: int
    interaction_norm_full: float
    step_norm: float
    r0: int
    kappa: float
    delta: float
    gauss_decay: float
    c_stated: float
    c_proved: float
    c_selected: float
    c_variant: str
    nu: float
    eps: float
    a_series: float
    a_dressed: float
    r0_condition_lhs: float
    r0_threshold_gauss: float
    r0_threshold_dressed: float

    @property
    def r0_condition_ok(self) -> bool:
        return self.condition_report().passed

    def condition_report(self) -> VerificationReport:
        """The decimation-step condition: its lhs against both thresholds."""
        return report(
            "decimation_step_condition",
            {"r0": self.r0, "c_variant": self.c_variant},
            self.r0_condition_lhs,
            min(self.r0_threshold_gauss, self.r0_threshold_dressed),
        )

    def failing_branches(self) -> tuple[str, ...]:
        out = []
        if self.r0_condition_lhs > self.r0_threshold_gauss:
            out.append("small-t curvature budget")
        if self.r0_condition_lhs > self.r0_threshold_dressed:
            out.append("large-t dressed series")
        return tuple(out)

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["r0_condition_ok"] = self.r0_condition_ok
        return d


@dataclass(frozen=True)
class VerificationReport:
    """One checked inequality: lhs <= rhs, margin = rhs - lhs."""

    check_name: str
    parameters: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }


def report(name: str, parameters: dict, lhs: float, rhs: float, passed: bool | None = None) -> VerificationReport:
    """The one constructor of a check line. The verdict is lhs <= rhs unless
    the check passes its own (an exact count, a strict inequality)."""
    lhs = float(lhs)
    rhs = float(rhs)
    return VerificationReport(
        check_name=name,
        parameters=parameters,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        passed=lhs <= rhs if passed is None else bool(passed),
    )


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


@lru_cache(maxsize=256)
def _constants_cached(model: m.GibbsModel, c_variant: str) -> ConstantsBundle:
    sigma = model.spin.sigma
    card = model.spin.card
    j_full = m.interaction_norm(model, step=1)
    j_step = m.interaction_norm(model, step=model.box.r0)
    kap = m.kappa(j_full, sigma, card)
    log_kap = m.log_kappa(j_full, sigma, card)
    delta = kap / (12.0 * sigma)
    # every constant scales with a power of kappa: one that underflows would
    # turn its checks into 0 <= 0 (delta) or e^0 <= 1 (c)
    require_normal_exp("delta = kappa/(12 sigma)", "delta", log_kap - math.log(12.0 * sigma))
    # sigma = max|s| overstates the spread of an interval that excludes 0
    gauss = min(sigma, model.spin.hi - model.spin.lo) ** 2 * kap / 4.0
    half = math.sin(delta / 2.0) ** 2
    c_stated = kap * half
    c_proved = kap**2 * half
    c_sel = c_proved if c_variant == "proved" else c_stated
    log_c = (2 if c_variant == "proved" else 1) * log_kap + 2.0 * math.log(math.sin(delta / 2.0))
    require_normal_exp(f"the {c_variant} large-t rate c", "c", log_c)
    nu = 2.0 * math.e**2 * math.exp(j_step * sigma**2 / 2.0) * sigma**2 * math.sqrt(j_step)
    eps = min(math.e * delta * sigma, nu)
    lhs = math.exp(j_step * sigma**2 / 2.0) * math.sqrt(j_step)
    thr_gauss = kap**1.5 / (96.0 * math.sqrt(2.0) * sigma**3 * math.e**2)
    a_dressed = c_sel / 4.0
    thr_dressed = (
        math.exp(-5.0 * c_sel / 4.0)
        * math.expm1(a_dressed)
        / ((1.0 + delta * sigma) * math.e * sigma**2)
    )
    return ConstantsBundle(
        sigma=sigma,
        card=card,
        interaction_norm_full=j_full,
        step_norm=j_step,
        r0=model.box.r0,
        kappa=kap,
        delta=delta,
        gauss_decay=gauss,
        c_stated=c_stated,
        c_proved=c_proved,
        c_selected=c_sel,
        c_variant=c_variant,
        nu=nu,
        eps=eps,
        a_series=math.log(2.0),
        a_dressed=a_dressed,
        r0_condition_lhs=lhs,
        r0_threshold_gauss=thr_gauss,
        r0_threshold_dressed=thr_dressed,
    )


def constants(model: m.GibbsModel, c_variant: str = "proved") -> ConstantsBundle:
    """All derived constants for the model, under the chosen large-t rate."""
    if c_variant not in ("stated", "proved"):
        raise DomainError(f"c_variant must be 'stated' or 'proved', got {c_variant!r}")
    return _constants_cached(model, c_variant)


def min_r0(model: m.GibbsModel, r0_max: int = DEFAULT_R0_MAX, c_variant: str = "proved") -> int:
    """Smallest decimation step whose smallness condition holds for the model."""
    if r0_max < 1:
        raise DomainError(f"r0_max must be at least 1, got {r0_max}")
    for r0 in range(1, r0_max + 1):
        candidate = replace(model, box=replace(model.box, r0=r0))
        if constants(candidate, c_variant).r0_condition_ok:
            return r0
    raise PreconditionError(
        f"no decimation step up to {r0_max} satisfies the smallness condition for this model"
    )


def _require_condition(consts: ConstantsBundle):
    failing = consts.failing_branches()
    if failing:
        raise PreconditionError(
            "decimation-step condition fails for: "
            + ", ".join(failing)
            + f" (lhs {consts.r0_condition_lhs:.6g}, thresholds"
            f" {consts.r0_threshold_gauss:.6g} / {consts.r0_threshold_dressed:.6g})"
        )


def check_single_spin_cf(
    model: m.GibbsModel, t_grid, c_variant: str = "proved", region="decimated"
) -> list[VerificationReport]:
    """Per t: the worst single-site |E_x(e^{its})| against e^{-c}.

    The grid must stay in [delta, 2 pi - delta]; outside it no uniform
    contraction is claimed. With the proved rate every point must pass;
    stated-rate failures are recorded, not raised.
    """
    consts = constants(model, c_variant)
    lo, hi = consts.delta, 2.0 * math.pi - consts.delta
    ts = [float(t) for t in t_grid]
    for t in ts:
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise DomainError(f"t={t} is outside [{lo:.6g}, {hi:.6g}], no contraction is claimed there")
    system, probs, first, _ = _site_laws(model, region)
    # |E_x(e^{its})| of every distinct law and t at once, each with the bits
    # of a one-law, one-t call; the first row at a t's max has the first site
    abs_cf = np.abs(ee._fourier(probs[first], np.array(ts)))
    worst = abs_cf.argmax(axis=0)
    return [
        report(
            "single_site_contraction",
            {"t": t, "c_variant": c_variant, "worst_site": list(system.sites[first[k]])},
            float(abs_cf[k, col]),
            math.exp(-consts.c_selected),
        )
        for col, (t, k) in enumerate(zip(ts, worst.tolist()))
    ]


def _site_laws(model: m.GibbsModel, region):
    """(System, single-site measures, first sites, counts) of the region:
    sites sharing a field share a law, so each distinct law is taken once,
    at its first site in site order, with the number of sites holding it.
    An empty region has no single-site measures to check."""
    system = build_system(model, region)
    if not system.sites:
        raise DomainError(f"region {region!r} has no sites, so it has no single-site measures to check")
    probs = system.site_probs()
    _, first, counts = np.unique(probs, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return system, probs, first[order], counts[order]


def _decay_check(
    large: bool, model: m.GibbsModel, t_points, seed: int, c_variant: str, budget: int
) -> list[VerificationReport]:
    """The small-t (large off) or large-t decay check over one scan of the
    whole grid. worst_conditioning names the first conditioning attaining
    the sup at each t."""
    consts = constants(model, c_variant)
    _require_condition(consts)
    n = len(m.resolve_region(model, "decimated"))
    ts = [float(t) for t in t_points]
    if large:
        name, lo, hi, span = "large_t_volume_decay", consts.delta - 1e-12, math.pi, f"({consts.delta:.6g}, pi]"
    else:
        name, lo, hi, span = "small_t_gaussian_decay", 0.0, consts.delta, f"(0, {consts.delta:.6g}]"
    for t in ts:
        if not (lo < t <= hi + 1e-12):
            raise DomainError(f"t={t} is outside {span}")
    extra = {"c_variant": c_variant} if large else {}
    scan = ee.decimated_char_fn_sup(model, ts, seed=seed, budget=budget)
    reports = []
    for t, sup, label in zip(scan.t, scan.sup, scan.worst):
        if large:
            rhs = math.exp(-(consts.c_selected / 2.0) * n)
        else:
            rhs = math.exp(-(consts.gauss_decay / 2.0) * n * t * t)
        params = {"t": t, "sites": n, "omega_samples": ee.OMEGA_SAMPLES, **extra, "worst_conditioning": label}
        reports.append(report(name, params, sup, rhs))
    return reports


def check_small_t_decay(
    model: m.GibbsModel,
    t_points,
    seed: int = 0,
    c_variant: str = "proved",
    budget: int = ee.DEFAULT_BUDGET,
) -> list[VerificationReport]:
    """Gaussian decay of the decimated characteristic function on (0, delta].

    For each t the left side is the scanned sup over conditionings of
    |E^omega(e^{itS})| on the decimated region; the right side is
    exp(-(gauss_decay/2) |region| t^2). Raises unless the decimation-step
    condition holds, naming the failing branch. One scan serves the whole
    grid.
    """
    return _decay_check(False, model, t_points, seed, c_variant, budget)


def check_large_t_decay(
    model: m.GibbsModel,
    t_points,
    seed: int = 0,
    c_variant: str = "proved",
    budget: int = ee.DEFAULT_BUDGET,
) -> list[VerificationReport]:
    """Volume decay of the decimated characteristic function on (delta, pi],
    against exp(-(c/2) |region|); as for the small-t check, one scan serves
    the whole grid.
    """
    return _decay_check(True, model, t_points, seed, c_variant, budget)


def check_curvature_decomposition(
    model: m.GibbsModel,
    theta: float,
    region="decimated",
) -> list[VerificationReport]:
    """Audit of the small-t curvature split on a coupling-free region.

    With no couplings inside the region, log Xi(t) is a sum of single-site
    logs and its second derivative at theta splits into the leading term
    (second derivative of each activity xi), the quadratic correction
    -(1/2) d2(xi^2), and the k >= 3 series. Emitted reports:

    - curvature_leading_term: Re G1 <= -(7/8) sigma^2 kappa per site.
    - curvature_derivative_sign: max over sites of Re (dxi/dt)^2 <= 0.
    - curvature_quadratic_chain: sum of Re d2(xi^2) <= 2 delta sigma^3
      per site. This is what the derivative-sign step actually controls.
    - curvature_quadratic_term: Re G2 <= 2 delta sigma^3 per site, the
      claim as displayed. The -1/2 prefactor in G2 flips the direction
      of the per-site d2(xi^2) bound, so this report fails on generic
      biased models; it is emitted as stated rather than repaired.
      Downstream gates should key on curvature_total, which carries the
      assembled claim that the decay estimates rest on.
    - curvature_series_tail: |G3| <= (5/2) delta sigma^3 per site, G3
      summed through order CURVATURE_SERIES_ORDER.
    - curvature_total: Re G1 + Re G2 + |G3| <= -sigma^2 kappa / 2 per
      site (plus the series remainder). Relies on the spin interval
      containing zero, which keeps the single-site variance at least
      kappa sigma^2 / 2.
    - curvature_series_identity: the split sums to the exact second
      derivative of log Xi within the remainder bound.
    """
    consts = constants(model)
    system, _, first, counts = _site_laws(model, region)
    if system.pairs:
        raise PreconditionError(
            "the curvature split is audited on regions with no internal couplings;"
            " this region has coupled pairs"
        )
    if not (0.0 < theta < consts.delta):
        raise DomainError(f"theta={theta} must lie in (0, {consts.delta:.6g})")

    sigma, delta, kap = consts.sigma, consts.delta, consts.kappa
    n = system.site_count
    gas = pg._gas_for_system(system)

    # every term is a sum over sites, so each distinct law enters once,
    # times the number of sites holding it
    g1 = 0j
    g2 = 0j
    g3 = 0j
    exact = 0j
    worst_sq = -math.inf
    for i, count in zip(first.tolist(), counts.tolist()):
        xi, xi1, xi2 = (pg._activity_from_indices(gas, (i,), theta, 0.0, order) for order in range(3))
        g1 += count * xi2
        g2 -= count * (xi1 * xi1 + xi * xi2)
        worst_sq = max(worst_sq, (xi1 * xi1).real)
        series = 0j
        for k in range(3, CURVATURE_SERIES_ORDER + 1):
            d2 = k * (k - 1) * xi ** (k - 2) * xi1 * xi1 + k * xi ** (k - 1) * xi2
            series += (-1) ** (k - 1) * d2 / k
        g3 += count * series
        e0 = 1.0 + xi
        exact += count * (xi2 / e0 - (xi1 / e0) ** 2)

    ds = delta * sigma
    remainder = 0.0
    for k in range(CURVATURE_SERIES_ORDER + 1, CURVATURE_SERIES_ORDER + 200):
        term = ((k - 1) * ds ** (k - 2) + ds ** (k - 1)) * sigma**2
        remainder += term
        if term < 1e-300:
            break

    per_site = {"theta": theta, "sites": n}
    with_order = {**per_site, "series_order": CURVATURE_SERIES_ORDER}
    rows = [
        ("curvature_leading_term", per_site, g1.real, -(7.0 / 8.0) * sigma**2 * kap * n),
        ("curvature_derivative_sign", per_site, worst_sq, 0.0),
        ("curvature_quadratic_chain", per_site, (-2.0 * g2).real, 2.0 * delta * sigma**3 * n),
        ("curvature_quadratic_term", per_site, g2.real, 2.0 * delta * sigma**3 * n),
        ("curvature_series_tail", with_order, abs(g3), 2.5 * delta * sigma**3 * n),
        ("curvature_total", per_site, g1.real + g2.real + abs(g3), -(sigma**2 * kap / 2.0) * n + remainder * n),
        ("curvature_series_identity", with_order, abs(g1 + g2 + g3 - exact), remainder * n + 1e-10),
    ]
    return [report(name, dict(params), lhs, rhs) for name, params, lhs, rhs in rows]


@dataclass(frozen=True)
class IntegralDecomposition:
    """The four integrals that bound the worst lattice-point deviation."""

    a_cut: float
    delta: float
    mean: float
    variance: float
    site_count: int
    decimated_count: int
    i1: float
    i2: float
    i3: float
    i4: float
    total: float
    g_n: float
    bound_margin: float
    bound_holds: bool
    b_j2: float
    b_j3: float
    lemma_ok: bool
    i2_within: bool
    i3_within: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def reports(self) -> list[VerificationReport]:
        """The gap against the four integrals and, where the decay lemmas
        apply, each decay integral against its closed form."""
        out = [report("gap_within_integrals", {"a_cut": self.a_cut}, self.g_n, self.total + GAP_SLACK)]
        if self.lemma_ok:
            for name, lhs, rhs in (
                ("mid_integral_within_gaussian_bound", self.i2, self.b_j2),
                ("tail_integral_within_volume_bound", self.i3, self.b_j3),
            ):
                out.append(report(name, {"a_cut": self.a_cut}, lhs, rhs + DECAY_INTEGRAL_SLACK))
        return out


def integral_decomposition(
    model: m.GibbsModel,
    a_cut: float,
    c_variant: str = "proved",
    budget: int = ee.DEFAULT_BUDGET,
) -> IntegralDecomposition:
    """Split the lattice-vs-Gaussian gap into its four integral bounds.

    The worst deviation 2 pi sup_p |sqrt(D) P(S=p) - gaussian(z_p)| is at
    most I1 (central region, exact characteristic function against the
    Gaussian) + I2 (mid t, raw |E e^{itS}|) + I3 (large t, same) + I4
    (Gaussian tail). When the decimation-step condition holds, I2 and I3
    are further bounded by the closed forms from the two decay estimates.
    Needs 0 < a_cut < delta sqrt(D). I1, I2 and I3 each come from QUADPACK's
    dqagse (lclt_lab._quadpack) to absolute tolerance QUAD_TOL.
    """
    from ._quadpack import qagse

    consts = constants(model, c_variant)
    delta = consts.delta
    stats = ee.statistics(model, "box", budget=budget)
    # e^{-is mu} phi(s) is the offsets' sum about the mean offset, never the
    # absolute mean; a rule's nodes come as one array, each with its own bits
    _, _, mean_offset, var, table = ee._moments(ee._checked_system(model, "box", budget))
    probs = table.probability_array
    root_d = math.sqrt(var)
    if not (0.0 < a_cut < delta * root_d):
        raise DomainError(
            f"a_cut must lie in (0, delta*sqrt(D)) = (0, {delta * root_d:.6g}), got {a_cut}"
        )

    def cf_abs(t: np.ndarray) -> np.ndarray:
        return np.abs(ee._fourier(probs, t))

    def central(t: np.ndarray) -> np.ndarray:
        # |e^{-it mu / sqrt(D)} phi(t / sqrt(D)) - e^{-t^2 / 2}|
        return np.abs(ee._fourier_at(probs, t / root_d, mean_offset) - np.exp(-t * t / 2.0))

    def integral(f, lo: float, hi: float) -> float:
        return qagse(f, lo, hi, QUAD_TOL, QUAD_EPSREL, QUAD_LIMIT)[0]

    i1 = 2.0 * integral(central, 0.0, a_cut)
    i2 = 2.0 * root_d * integral(cf_abs, a_cut / root_d, delta)
    i3 = 2.0 * root_d * integral(cf_abs, delta, math.pi)
    i4 = math.sqrt(2.0 * math.pi) * math.erfc(a_cut / math.sqrt(2.0))
    total = i1 + i2 + i3 + i4
    g_n = 2.0 * math.pi * ee.lclt_gap(model, "box", budget=budget)

    n_dec = len(m.resolve_region(model, "decimated"))
    cc = consts.gauss_decay
    scale = math.sqrt(cc / 2.0)
    lo = a_cut * math.sqrt(n_dec / var)
    hi = delta * math.sqrt(n_dec)
    b_j2 = (
        2.0
        * math.sqrt(var / n_dec)
        * math.sqrt(math.pi / (2.0 * cc))
        * (math.erf(hi * scale) - math.erf(lo * scale))
    )
    b_j3 = 2.0 * root_d * (math.pi - delta) * math.exp(-(consts.c_selected / 2.0) * n_dec)
    return IntegralDecomposition(
        a_cut=a_cut,
        delta=delta,
        mean=stats.mean_S,
        variance=var,
        site_count=stats.site_count,
        decimated_count=n_dec,
        i1=i1,
        i2=i2,
        i3=i3,
        i4=i4,
        total=total,
        g_n=g_n,
        bound_margin=total - g_n,
        bound_holds=g_n <= total + GAP_SLACK,
        b_j2=b_j2,
        b_j3=b_j3,
        lemma_ok=consts.r0_condition_ok,
        i2_within=i2 <= b_j2 + DECAY_INTEGRAL_SLACK,
        i3_within=i3 <= b_j3 + DECAY_INTEGRAL_SLACK,
    )


@dataclass(frozen=True)
class TrendRow:
    site_count: int
    gap: float
    variance_density: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def lclt_trend(model_family, budget: int = ee.DEFAULT_BUDGET) -> tuple[TrendRow, ...]:
    """Gap and variance density across a family, to watch the 1/sqrt(n) march.

    Entries are models or (model, region) pairs; regions let a family walk
    through growing sub-chains of one box.
    """
    rows = []
    for entry in model_family:
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], m.GibbsModel):
            model, region = entry
        else:
            model, region = entry, "box"
        stats = ee.statistics(model, region, budget=budget)
        gap = ee.lclt_gap(model, region, budget=budget)
        rows.append(
            TrendRow(
                site_count=stats.site_count,
                gap=gap,
                variance_density=stats.variance_density,
            )
        )
    return tuple(rows)
