"""Exact observables for enumerable regions.

Every quantity here comes from one finite sum over all |I|^N
configurations of a region: the partition function and the exact pmf of
the total spin S. The sum is taken by enumeration or, for banded systems,
by a transfer sum (Kramers & Wannier, Phys. Rev. 60 (1941) 252). With R
the largest index distance of a coupled pair in System order, the
transfer sum carries a table over the last R spins and the running total
site by site, in N |I|^(R+1) (N(|I|-1)+1) steps; _moments takes it
whenever that undercuts the |I|^N states of enumeration. Both routes count
totals as offsets k = S - N min(I), and the mean offset and variance of S
come from the normalized pmf by two passes over those offsets (Chan, Golub
& LeVeque, Am. Stat. 37 (1983) 242), so neither cancels wherever the spin
interval sits; _moments takes them once per law, and statistics, lclt_gap
and the integral decomposition read that one pass. S is integer-valued, so
the characteristic function is the
pmf's Fourier sum; every phase comes from one kernel, _fourier, over the
offsets centred in the support (|E(e^{itS})| is its modulus); the gap

    sup_p | sqrt(D) P(S = p) - exp(-z_p^2/2) / sqrt(2 pi) |,
    z_p = (p - E S) / sqrt(D),  D = Var S,

takes p - E S in offsets too.

Enumeration walks configurations in the order of _system._spin_grid, split
into a low block evaluated as one vectorized slab per chunk (the low-site
energies are a fixed vector reused across chunks, cross terms enter through
one matrix-vector product) and a high block that changes per chunk. Each
chunk adds its weights into bins of the total's offset and one Z term per
row; a row's Z terms are combined by math.fsum, correctly rounded, so Z
does not depend on the order the chunks are added in. Weights are
computed relative to an a-priori upper bound on the log weight, which keeps
every exponential bounded by 1. On frustrated couplings that bound can sit
hundreds above the largest log weight, so the scan records the largest one;
when the largest shifted weight falls under tiny/eps (log weight more than
672.3 below the bound), the sum is taken again shifted by the largest log
weight itself. Either way every weight within a factor eps of the largest
is a normal float, so Z_shifted is positive on every system (the transfer
sum keeps one log scale per band configuration and rescales each
configuration's table to a largest entry of 1 at each step). A System
refuses an energy bound past float64 (finite couplings near 1e308 give
one), so the shift and every log weight are finite; a Z or bin that
float64 still cannot hold, or totals whose magnitude can pass 2^53 (where
float64 stops holding every integer, so the mean would round), is a
CapacityError naming the route, never NaN.

One function, _cost, decides what an exact sum costs: the route _moments
takes and that route's work, N |I|^(R+1) (N(|I|-1)+1) transfer steps or
|I|^N states. The budget (default 2^24) is checked on that work twice:
before the System is built at R = 0, which bounds every route's work from
below, and after it on the System's own R. Breaching it raises
CapacityError naming the route and its work.

Every exact sum takes one path, on rows: both routes take the System's
couplings and a (rows, N) array of field slopes, one conditioning per row,
sum every row in one pass, and _pmfs normalizes them in one array pass.
Each step that reads a field runs elementwise or row by row in the order a
single row takes it: the field terms site by site, the shift, exp, one
bincount over row-offset bins, one sum along each row per chunk, one fsum
per row, the second pass, each transfer step's rescale and the
normalization. So a row's law does not depend on the rows beside it, and
_moments is the one-row call on the System's own fields. A decay scan
fills the rows by model._block_fields from rows of window spins, runs the
route once per group of rows (rows with equal fields summed once), and
charges the realized conditionings times the work of one. The scalar
per-row law and energy bound that the rows path must match bit for bit
are oracles under tests/.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import model as m
from ._system import System, _build, _energy_bounds, _spin_grid, build_system, windowed_exterior
from .errors import CapacityError, DegenerateDistributionError, require_normal_exp

DEFAULT_BUDGET = 1 << 24
# Random window rows a decay scan draws besides the constant and realized ones.
OMEGA_SAMPLES = 8

_CHUNK_TARGET = 1 << 18

# log(tiny/eps): a largest shifted weight above it keeps every weight within
# a factor eps of it a normal float
_LOG_TINY_OVER_EPS = math.log(np.finfo(float).tiny / np.finfo(float).eps)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Statistics:
    """Exact moments of the total spin on a region."""

    site_count: int
    mean_S: float
    variance_S: float

    @property
    def variance_density(self) -> float:
        if self.site_count == 0:
            raise DegenerateDistributionError(
                "the variance density of the empty region () is undefined: it has no sites"
            )
        return self.variance_S / self.site_count


def _check_pmfs(probs: np.ndarray) -> None:
    """A pmf's two checks on each row of a (rows, width) array, row by row:
    a negative or NaN mass, then a normalization that drifted from 1 by more
    than 1e-12 (an exact fsum)."""
    # written so that a NaN fails each check
    for nonnegative, row in zip((probs >= 0).all(axis=1).tolist(), probs.tolist()):
        if not nonnegative:
            raise RuntimeError("pmf holds a negative or NaN mass")
        total = math.fsum(row)
        if not abs(total - 1.0) <= 1e-12:
            raise RuntimeError(f"pmf normalization drifted to {total!r}")


@dataclass(frozen=True)
class PmfTable:
    """Exact distribution of S over the full integer support interval.

    probability_array is the same table as a read-only array, built once
    per table."""

    p_min: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        _check_pmfs(self.probability_array[None])

    @cached_property
    def probability_array(self) -> np.ndarray:
        return _read_only(np.asarray(self.probabilities, dtype=float))

    @property
    def support(self) -> range:
        return range(self.p_min, self.p_min + len(self.probabilities))

    def as_dict(self) -> dict[int, float]:
        return {p: self.probabilities[p - self.p_min] for p in self.support}


@dataclass(frozen=True, eq=False)
class DecimatedCharFnSup:
    """Max of |char fn of the decimated total spin| over scanned conditionings.

    t, sup and worst are tuples with one value per t of the grid. labels
    names the scanned conditionings in scan order: all_lo, all_hi,
    random_k, conditional_idx (see decimated_char_fn_sup), and abs_cf is the
    read-only (conditionings, t) array of their |cf|. worst[k] is the label
    of the first conditioning that attains sup[k]; ties are common, so the
    first one is the rule. entries, one (label, |cf| per t) pair of tuples
    per conditioning, is built from the array when first read. Two scans
    are equal when their grids, sups, worst labels, labels and |cf| arrays
    are.
    """

    t: tuple[float, ...]
    sup: tuple[float, ...]
    worst: tuple[str, ...]
    labels: tuple[str, ...]
    abs_cf: np.ndarray

    @cached_property
    def entries(self) -> tuple[tuple[str, tuple[float, ...]], ...]:
        return tuple(zip(self.labels, map(tuple, self.abs_cf.tolist())))

    def __eq__(self, other):
        if not isinstance(other, DecimatedCharFnSup):
            return NotImplemented
        same = (self.t, self.sup, self.worst, self.labels) == (other.t, other.sup, other.worst, other.labels)
        return same and np.array_equal(self.abs_cf, other.abs_cf)


def _cost(n: int, q: int, band: int):
    """(route, work, name, count) of the exact sum over n sites of q spin
    values whose coupled pairs lie at most band apart in System order: the
    transfer sum takes n q^(band+1) (n(q-1)+1) steps, enumeration q^n states,
    and the cheaper one runs. count spells the work in that form: written
    out, q^n can pass Python's 4300-digit limit on int-to-str conversion."""
    width = n * (q - 1) + 1
    steps = n * q ** (band + 1) * width
    if steps < q**n:
        return _transfer, steps, "transfer sum", f"{n}*{q}^{band + 1}*{width} steps"
    return _scan, q**n, "enumeration", f"{q}^{n} states"


def _check_cost(n: int, q: int, band: int, budget: int, at_least: bool = False) -> None:
    _, work, name, count = _cost(n, q, band)
    if work > budget:
        raise CapacityError(f"{name} needs {'at least ' if at_least else ''}{count}, budget is {budget}")


def _checked_system(model: m.GibbsModel, region, budget: int, omega_items=None) -> System:
    """The region's System (under an omega override, as _build takes it)
    once its exact sum fits the budget: checked at band 0, a lower bound on
    every route's work, before the System is built, then at its own band."""
    sites = m.resolve_region(model, region)
    q = model.spin.card
    _check_cost(len(sites), q, 0, budget, at_least=True)
    system = _build(model, sites, omega_items)
    _check_cost(system.site_count, q, _bandwidth(system), budget)
    return system


def _energy_shifts(system: System, fields: np.ndarray) -> list[float]:
    """Upper bound on the log weight of each row of field slopes, used to
    keep exponentials bounded: every pair and field term at its largest
    corner of the spin interval, the pairs' sum plus the row's fields' sum,
    each sum left to right from 0.0 (model._row_sums)."""
    lo, hi = min(system.values), max(system.values)
    pair_part = sum(max(v * lo * lo, v * lo * hi, v * hi * hi) for _, _, v in system.pairs)
    return (pair_part + m._row_sums(np.maximum(fields * lo, fields * hi))).tolist()


def _scan(system: System, fields: np.ndarray):
    """One pass over all configurations for each row of a (rows, n) array
    of field slopes; the caller has checked the budget.

    Returns (shift, Z_shifted, bins, s_min), where the first two hold one
    value per row, w is a row's shifted weight exp(-H - shift) and
    bins[r, k] is row r's sum of w over configurations with S = s_min + k.
    Totals are counted as offsets k = S - s_min, sums of spin offsets above
    the lowest value, so a bin index stays under n(q-1)+1 whatever the
    spins. A row's shift is its _energy_shifts entry; when its largest log
    weight lies so far below it that the largest weight is under tiny/eps,
    the sum is taken a second time shifted by that largest log weight, so
    every weight within a factor eps of the largest stays normal. Every
    step that reads a field runs elementwise or row by row, so each row's
    sums are bit for bit those of a one-row call.
    """
    n = system.site_count
    q = len(system.values)
    vals = system.value_array
    lo = int(min(system.values))
    rows = len(fields)
    shift = _energy_shifts(system, fields)

    m_low = 1
    while m_low < n and q ** (m_low + 1) <= _CHUNK_TARGET:
        m_low += 1
    lows = _spin_grid(vals, m_low)
    highs = _spin_grid(vals, n - m_low)

    pairs_ll, pairs_hh, pairs_lh = [], [], []
    for i, j, v in system.pairs:
        if j < m_low:
            pairs_ll.append((i, j, v))
        elif i >= m_low:
            pairs_hh.append((i, j, v))
        else:
            pairs_lh.append((i, j, v))

    e_low = np.zeros(lows.shape[1])
    for i, j, v in pairs_ll:
        e_low += v * lows[i] * lows[j]
    e_low = e_low + fields[:, 0, None] * lows[0]
    for i in range(1, m_low):
        e_low += fields[:, i, None] * lows[i]
    # the spin values are consecutive integers, so each offset is exact
    k_low = (lows - lo).sum(axis=0).astype(np.int64)

    s_min = n * lo
    width = n * (q - 1) + 1
    # row r's bins sit at offset r * width of one bincount
    offsets = np.arange(rows)[:, None] * width

    def chunks():
        """(log weight per row, total spin offset) of each chunk of
        configurations."""
        for v_high in highs.T:
            e_high = 0.0
            for i, j, v in pairs_hh:
                e_high += v * v_high[i - m_low] * v_high[j - m_low]
            for k, s in enumerate(v_high):
                e_high = e_high + fields[:, m_low + k, None] * s
            energy = e_low + e_high
            if pairs_lh:
                coef = np.zeros(m_low)
                for i, j, v in pairs_lh:
                    coef[i] += v * v_high[j - m_low]
                energy = energy + coef @ lows
            yield energy, k_low + int((v_high - lo).sum())

    def sums(shift):
        parts = []
        bins = np.zeros((rows, width))
        top = [-math.inf] * rows
        shift_col = np.array(shift)[:, None]
        for energy, k_tot in chunks():
            top = list(map(max, top, energy.max(axis=1).tolist()))
            w = np.exp(energy - shift_col)
            # a sum along axis 1 of the C-contiguous w takes each row's 1-D
            # sum's additions
            parts.append(w.sum(axis=1).tolist())
            idx = offsets + k_tot
            bins += np.bincount(idx.ravel(), weights=w.ravel(), minlength=rows * width).reshape(rows, width)
        return (shift, list(map(math.fsum, zip(*parts))), bins, s_min), top

    out, top = sums(shift)
    again = [t if t - s < _LOG_TINY_OVER_EPS else s for t, s in zip(top, shift)]
    if again != shift:
        # a row shifted as before sums as before
        out, _ = sums(again)
    return out


def _bandwidth(system: System) -> int:
    """Largest index distance j - i of a coupled pair, 0 without pairs."""
    return max((j - i for i, j, _ in system.pairs), default=0)


def _transfer(system: System, fields: np.ndarray):
    """The same sums as _scan, carried site by site in System order.

    The table has a row axis, one axis per spin of the last R sites (R the
    bandwidth) and one column per running total; adding a site multiplies
    in its field and its couplings to those R spins, shifts each column by
    its spin and sums out the spin that leaves the band. Every entry is a
    sum of products of positive weights, and each band configuration keeps
    its own log scale: the step adds it to the log weights, exponentiates
    them below one top per new band configuration, and divides each new
    configuration by its largest entry. Configurations whose weights part
    by more than float64 spans stay normal floats, so one that later sites
    bring back to the top (a strong field at the end of an
    antiferromagnetic chain does) is not lost. The running total is an
    offset above n times the lowest value from the start. Returns the
    tuple of _scan, (shift, Z_shifted, bins, s_min), shifted by each row's
    largest log scale, each row bit for bit that of a one-row call.
    """
    n = system.site_count
    q = len(system.values)
    vals = system.value_array
    band = _bandwidth(system)
    by_site = [[] for _ in range(n)]
    for i, j, v in system.pairs:
        by_site[j].append((i, v))
    rows = len(fields)

    # axes: the row, the spins of the last R sites, oldest first (a site
    # before the first holds one placeholder value), then the running total
    # of spin offsets above the lowest value (the spin values are
    # consecutive integers, so adding offset d shifts a column by d)
    table = np.ones((rows,) + (1,) * band + (1,))
    # each band configuration's entries times e^logs are its sums
    logs = np.zeros(table.shape[:-1])
    for k in range(n):
        # log weight of site k's spin (last axis) against the R spins
        # before it, then each band configuration's log scale
        log_w = fields[:, k].reshape((rows,) + (1,) * band + (1,)) * vals
        for i, v in by_site[k]:
            axis = i - (k - band)
            log_w = log_w + v * vals.reshape((1,) * axis + (q,) + (1,) * (band - axis)) * vals
        log_w = log_w + logs[..., None]
        # one top per new band configuration, over the spin that leaves
        tops = log_w.max(axis=1, keepdims=True)
        w = np.exp(log_w - tops)
        width = table.shape[-1]
        grown = np.zeros(w.shape + (width + q - 1,))
        for d in range(q):
            grown[..., d, d : d + width] = table * w[..., d, None]
        table = grown.sum(axis=1)
        peaks = table.max(axis=-1, keepdims=True)
        table = table / peaks
        logs = tops[:, 0] + np.log(peaks[..., 0])

    logs = logs.reshape(rows, -1)
    shift = logs.max(axis=1)
    bins = (table.reshape(rows, -1, table.shape[-1]) * np.exp(logs - shift[:, None])[..., None]).sum(axis=1)
    # bins is C-contiguous, so each row's Z takes the 1-D sum's additions
    return shift.tolist(), bins.sum(axis=1).tolist(), bins, n * int(min(system.values))


def _not_finite(name: str, n: int, shift: float, z: float) -> CapacityError:
    return CapacityError(f"{name} on {n} sites is not finite in float64: the shift is {shift!r} and Z_shifted {z!r}")


def _check_reach(name: str, n: int, s_min: int, width: int) -> None:
    """Refuse totals S = s_min .. s_min + width - 1 whose magnitude can pass
    2^53: past it float64 no longer holds every integer, so a mean of S
    would round. The bound is n max|s|, the same for every row."""
    reach = max(abs(s_min), abs(s_min + width - 1))
    if reach > 2**53:
        raise CapacityError(
            f"{name} on {n} sites: |S| reaches n*max|s| = {reach}, past 2^53,"
            " so float64 cannot hold the mean of S"
        )


def _pmf_moments(probs: np.ndarray) -> tuple[float, float]:
    """(mean offset mu, variance) of a normalized pmf over the offsets
    k = 0..m-1, by two passes (Chan, Golub & LeVeque, Am. Stat. 37 (1983)
    242): mu = sum_k p_k k, then the sum of p_k (k - mu)^2. Offsets stay
    within n(q-1), so neither pass cancels."""
    k = np.arange(len(probs), dtype=float)
    mu = float(probs @ k)
    d = k - mu
    return mu, float(probs @ (d * d))


def _pmfs(name: str, n: int, shift, z, bins, s_min: int) -> np.ndarray:
    """The (rows, width) normalized pmfs of a route's sums in one array
    pass: each row's bins over its Z_shifted, masses under 1e-300 zeroed
    (the bins are sums of nonnegative terms), then over the row's sum.
    Totals that can pass 2^53 refuse every row; otherwise the rows before
    the first whose sums float64 cannot hold (or whose Z_shifted is not
    positive) pass _check_pmfs, then that row raises a CapacityError naming
    its shift and Z_shifted. Every step is elementwise or a row sum along
    axis 1 of a contiguous array, so a row's pmf does not depend on the
    rows beside it."""
    _check_reach(name, n, s_min, bins.shape[1])
    sums = np.array([shift, z], dtype=float)
    z = sums[1, :, None]
    good = np.isfinite(sums).all(axis=0) & (sums[1] > 0) & np.isfinite(bins).all(axis=1)
    stop = len(good) if good.all() else int(good.argmin())
    probs = bins[:stop] / z[:stop]
    probs = np.where(probs < 1e-300, 0.0, probs)
    probs /= probs.sum(axis=1, keepdims=True)
    _check_pmfs(probs)
    if stop < len(good):
        raise _not_finite(name, n, *sums[:, stop].tolist())
    return probs


@lru_cache(maxsize=64)
def _moments(system: System):
    """(shift, Z_shifted, mean offset, variance, pmf) of the System's own
    fields: the one-row call of its route and _pmfs, and the one
    _pmf_moments pass that every reader of the law shares."""
    route, _, name, _ = _cost(system.site_count, len(system.values), _bandwidth(system))
    shift, z, bins, s_min = route(system, system.field_array[None])
    probs = _pmfs(name, system.site_count, shift, z, bins, s_min)[0]
    table = PmfTable(p_min=s_min, probabilities=tuple(probs.tolist()))
    return shift[0], z[0], *_pmf_moments(table.probability_array), table


def partition_function(model: m.GibbsModel, region="box", budget: int = DEFAULT_BUDGET) -> float:
    """Z = sum over configurations of exp(-H) on the region; a Z past
    float64's range or under its smallest normal is a CapacityError."""
    log_z = log_partition_function(model, region, budget)
    require_normal_exp("partition function", "Z", log_z)
    return math.exp(log_z)


def log_partition_function(model: m.GibbsModel, region="box", budget: int = DEFAULT_BUDGET) -> float:
    shift, z, _, _, _ = _moments(_checked_system(model, region, budget))
    return shift + math.log(z)


def statistics(model: m.GibbsModel, region="box", budget: int = DEFAULT_BUDGET) -> Statistics:
    """Exact mean and variance of the total spin on the region."""
    system = _checked_system(model, region, budget)
    _, _, mu, var, table = _moments(system)
    return Statistics(site_count=system.site_count, mean_S=table.p_min + mu, variance_S=var)


def pmf(model: m.GibbsModel, region="box", budget: int = DEFAULT_BUDGET) -> PmfTable:
    """Exact pmf of the total spin on the region."""
    return _moments(_checked_system(model, region, budget))[4]


def char_fn(model: m.GibbsModel, region="box", t=0.0, budget: int = DEFAULT_BUDGET) -> complex | np.ndarray:
    """E(e^{itS}) on the region, from its exact pmf; t is a scalar or an array."""
    return char_from_pmf(pmf(model, region, budget), t)


@lru_cache(maxsize=256)
def _half_offsets(m: int) -> np.ndarray:  # j = k - (m - 1)/2 >= 0, read-only
    return _read_only(np.arange(m - (m + 1) // 2, m) - (m - 1) / 2)


def _fourier(probs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(..., T) array of sum_k p_k e^{it(k - c)} over each row of a (..., m)
    pmf array and a 1-D t grid, the offsets k = 0..m-1 centred at
    c = (m - 1)/2, so its modulus is |E(e^{itS})| wherever S's support sits.
    Each j = k - c >= 0 is folded with its mirror image into two real
    vecdots, sum_j (p_{c+j} + p_{c-j}) cos(tj) (the centre once) and
    sum_j (p_{c+j} - p_{c-j}) sin(tj): mirror-image laws tie bit for bit,
    and each entry keeps its bits whatever rows and t one call takes."""
    m = probs.shape[-1]
    h = (m + 1) // 2
    upper, lower = probs[..., m - h :], probs[..., h - 1 :: -1]
    even = upper + lower
    even[..., : m % 2] = upper[..., : m % 2]  # an odd width's centre, once
    arg = np.multiply.outer(t, _half_offsets(m))
    out = np.empty(probs.shape[:-1] + t.shape, complex)
    np.vecdot(even[..., None, :], np.cos(arg), out=out.real)
    np.vecdot((upper - lower)[..., None, :], np.sin(arg), out=out.imag)
    return out


def _fourier_at(probs: np.ndarray, t: np.ndarray, origin: float) -> np.ndarray:
    """sum_k p_k e^{it(k - origin)} for a (m,) pmf and a 1-D t grid:
    _fourier times e^{it(c - origin)}, each value with its own bits."""
    return _fourier(probs, t) * np.exp(1j * (t * ((len(probs) - 1) / 2 - origin)))


def char_from_pmf(table: PmfTable, t) -> complex | np.ndarray:
    """E(e^{itS}) from an exact pmf for a scalar or an array of t: the
    offsets' sum about origin -p_min (_fourier_at)."""
    t_arr = np.asarray(t, dtype=float)
    out = _fourier_at(table.probability_array, t_arr.reshape(-1), -table.p_min).reshape(t_arr.shape)
    return complex(out) if t_arr.ndim == 0 else out


def lclt_gap(model: m.GibbsModel, region="box", budget: int = DEFAULT_BUDGET) -> float:
    """sup_p |sqrt(D) P(S=p) - gaussian density at z_p| over the support."""
    # z_p in offsets p - p_min about the law's mean offset, which float64
    # holds to its last bits wherever the spin interval sits
    _, _, mu, var, table = _moments(_checked_system(model, region, budget))
    if var <= 1e-12:
        raise DegenerateDistributionError(
            f"total-spin variance {var!r} is too small for a local-CLT gap"
        )
    root_d = math.sqrt(var)
    z = (np.arange(len(table.probabilities)) - mu) / root_d
    gauss = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    return float(np.abs(root_d * table.probability_array - gauss).max())


def decimated_char_fn_sup(
    model: m.GibbsModel,
    t_grid,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> DecimatedCharFnSup:
    """Scan |E^omega(e^{it S~})| of the decimated box over conditionings.

    A conditioning is a row of spins on the windowed exterior W: two constant
    rows, OMEGA_SAMPLES random ones, and the realized ones, where the
    interior sites of W that couple to the region take every combination of
    spins and the rest of W keeps the model's boundary. Realized rows are the
    terms whose average is the full-box characteristic function, so the sup
    dominates |E(e^{itS})| up to the certified window tail. The budget
    bounds the work of one exact sum over the region before the block is
    built, and q^(coupled interior sites) realized conditionings times that
    work before the first conditioning. A row's fields are its spins summed
    against the region x W coupling block by model._block_fields, the
    formula _system._build takes for an explicit boundary, and a row
    whose energy bound float64 cannot hold gets its own System's
    CapacityError. The rows go to the route _cost picks in groups: a
    group's rows times the larger of one row's work and its region x W
    block stay within one enumeration chunk (_CHUNK_TARGET), and rows of a
    group with equal fields share one sum. A group's energy bounds and
    shifts are row-wise cumulative sums (model._row_sums), and its pmfs
    come from one array pass over the route's sums (_pmfs); no PmfTable and
    no moment is built. |cf| is |_fourier| of each group, every entry with
    its one-row, one-t bits, so tied maxima do not depend on the grouping;
    the (conditionings, t) table is one read-only array, whose entries are
    built only when read.
    """
    ts = tuple(float(t) for t in t_grid)
    q = model.spin.card
    system = _checked_system(model, "decimated", budget)
    n = system.site_count
    window = windowed_exterior(model, "decimated")
    block = m._coupling_block(model, system.sites, window)
    values = np.asarray(model.spin.values, dtype=float)
    interior = np.array([y in model.box for y in window], dtype=bool)
    coupled = np.flatnonzero(interior & block.any(axis=0))
    route, work, name, count = _cost(n, q, _bandwidth(system))
    if q ** len(coupled) * work > budget:
        raise CapacityError(
            f"{name} over {q}^{len(coupled)} conditionings needs {q}^{len(coupled)}*{count}, budget is {budget}"
        )
    rng = np.random.default_rng(seed)
    head = [np.full(len(window), float(model.spin.lo)), np.full(len(window), float(model.spin.hi))]
    head += [values[rng.integers(0, q, size=len(window))] for _ in range(OMEGA_SAMPLES)]
    labels = ["all_lo", "all_hi", *(f"random_{k}" for k in range(OMEGA_SAMPLES))]
    labels += [f"conditional_{idx}" for idx in range(q ** len(coupled))]
    base = np.where(interior, 0.0, [model.boundary.omega(y) for y in window])
    powers = q ** np.arange(len(coupled))

    def window_spins(start, stop):
        """Window spins of rows start to stop - 1: the head rows, then
        conditional_idx with coupled site j at digit j of idx in base q, so
        the first coupled site varies fastest, as in _spin_grid."""
        idx = np.arange(max(start, len(head)), stop) - len(head)
        realized = np.repeat(base[None], len(idx), axis=0)
        realized[:, coupled] = values[idx[:, None] // powers % q]
        return np.concatenate([np.reshape(head[start:stop], (-1, len(window))), realized])

    abs_cfs = np.empty((len(labels), len(ts)))
    # a group's rows times one row's work, or its region x window block,
    # stay within one chunk of enumeration
    group = max(1, _CHUNK_TARGET // max(work, n * len(window)))
    for start in range(0, len(labels), group):
        rows = window_spins(start, min(start + group, len(labels)))
        fields = m._block_fields(block, rows)
        # rows with equal fields share one sum
        fields, first, inverse = np.unique(fields, axis=0, return_index=True, return_inverse=True)
        # the first row in scan order whose energy bound float64 cannot hold
        # gets the refusal of its own System
        unbounded = np.flatnonzero(~np.isfinite(_energy_bounds(system.pairs, system.values, fields)))
        if len(unbounded):
            replace(system, fields=tuple(fields[unbounded[np.argmin(first[unbounded])]].tolist()))
        cfs = np.abs(_fourier(_pmfs(name, n, *route(system, fields)), np.asarray(ts)))
        abs_cfs[start : start + len(rows)] = cfs[inverse.ravel()]
    return DecimatedCharFnSup(
        t=ts,
        sup=tuple(abs_cfs.max(axis=0).tolist()),
        worst=tuple(labels[k] for k in abs_cfs.argmax(axis=0).tolist()),
        labels=tuple(labels),
        abs_cf=_read_only(abs_cfs),
    )
