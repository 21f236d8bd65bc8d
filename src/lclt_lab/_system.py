"""Shared preprocessed view of a model restricted to a region.

A System is the flattened data every engine consumes: the ordered region
sites, the spin values, the nonzero pair couplings among region sites (by
site index, from the model's coupling kernel), and the per-site boundary
field slopes. Systems are immutable and hashable so caches key on them,
and float64 holds their energy bound sum |J| sigma^2 + sum |h| sigma, which
bounds every log weight and local field: a System past it is a
CapacityError naming its largest term (an infinite field slope by its
site) when it is made.

An omega override is the model under the explicit boundary condition of
that finite assignment on exterior sites (the polymer layer's conditioning
argument); sites it leaves unassigned contribute no field.

Configurations of k sites are listed in one order everywhere, the one of
_spin_grid: column c of the grid is configuration c, site 0 varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from . import model as m
from .errors import CapacityError

# Largest configuration grid _spin_grid will materialize, in columns.
SPIN_GRID_BUDGET = 1 << 20


@dataclass(frozen=True)
class System:
    sites: tuple[m.Site, ...]
    values: tuple[int, ...]
    pairs: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        if math.isfinite(_energy_bounds(self.pairs, self.values, np.array([self.fields], dtype=float))[0]):
            return
        sigma = max(-min(self.values), max(self.values))
        terms = [abs(v) * sigma * sigma for _, _, v in self.pairs] + [abs(b) * sigma for b in self.fields]
        # name an infinite term, else a NaN one (inf - inf), else the largest
        bad = [k for k, t in enumerate(terms) if not math.isfinite(t)]
        k = next((k for k in bad if math.isinf(terms[k])), bad[0]) if bad else terms.index(max(terms))
        if k >= len(self.pairs):
            site, b = self.sites[k - len(self.pairs)], self.fields[k - len(self.pairs)]
            if not math.isfinite(b):
                what = f"is {b}, not finite in" if math.isinf(b) else "overflows"
                raise CapacityError(f"boundary field slope of site {site} {what} float64")
            culprit = f"the field slope {b!r} of site {site}"
        else:
            i, j, v = self.pairs[k]
            culprit = f"the pair {self.sites[i]}, {self.sites[j]} with J = {v!r}"
        raise CapacityError(
            f"energy bound sum |J| sigma^2 + sum |h| sigma on {self.site_count} sites overflows float64;"
            f" its largest term is {culprit}"
        )

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def field_array(self) -> np.ndarray:
        return np.asarray(self.fields, dtype=float)

    def pair_matrix(self) -> np.ndarray:
        """Dense symmetric coupling matrix among region sites."""
        n = self.site_count
        J = np.zeros((n, n))
        for i, j, v in self.pairs:
            J[i, j] = J[j, i] = v
        return J

    def site_probs(self) -> np.ndarray:
        """(n, q) single-site measures: row x is the softmax of field_x * values,
        the law of spin x under its field alone."""
        logits = np.outer(self.field_array, self.value_array)
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        return weights / weights.sum(axis=1, keepdims=True)


def _energy_bounds(pairs, values, fields: np.ndarray) -> np.ndarray:
    """sum |J| sigma^2 + sum |h_x| sigma, sigma the largest |spin|, of each
    row of a (rows, n) array of field slopes, the fields' sum left to right
    (model._row_sums); inf or NaN where float64 cannot hold it. Every log
    weight, local field and energy shift is at most it in absolute value,
    so while float64 holds it no engine's sum overflows."""
    sigma = max(-min(values), max(values))
    # a bound past float64 is the answer here, not a fault to warn of
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(abs(v) for _, _, v in pairs) * sigma * sigma + m._row_sums(np.abs(fields)) * sigma


def _pairs_and_fields(model: m.GibbsModel, region: tuple[m.Site, ...]):
    """(pairs, fields) of a System on the region, from one
    model._couplings_within search over region x (region + boundary sites).

    pairs lists (i, k, J) of each coupled pair i < k of region sites, by i
    and then k. fields are the slopes b_x: 0 under a zero boundary; over an
    explicit coupling's exterior table partners, or over an explicit
    boundary's nonzero exterior assignments, the region x partners block
    (the table's reach, else the truncation radius) summed against their
    spins by model._block_fields; under a constant boundary over a
    translation-invariant coupling, the window total less each site's
    in-window region part. The search runs at the larger of the pair radius
    and the field radius. J vanishes past the pair radius (the coupling's
    exact range, or every pair of the box), so the pairs need no filter; the
    fields drop what lies past their radius, which leaves their terms and
    the order they are added in. A slope that float64 cannot hold is a
    CapacityError naming its site."""
    coupling, bc, n = model.coupling, model.boundary, len(region)
    pair_reach = coupling.range_bound or 2 * model.box.radius
    field_reach = coupling.range_bound if coupling.kind == "explicit" else model.truncation_radius
    exterior, spins = (), None
    if bc.kind != "zero" and "explicit" in (coupling.kind, bc.kind):
        in_region = set(region)
        if coupling.kind == "explicit":
            partners = sorted({s for p in coupling.pairs for s in p[:2]} - in_region)
            items = [(y, bc.omega(y)) for y in partners]
        else:
            items = [(y, v) for y, v in bc.assignments if v != 0 and y not in in_region]
        exterior = tuple(y for y, _ in items)
        spins = np.array([v for _, v in items], dtype=float)
    reach = pair_reach if bc.kind == "zero" else max(pair_reach, field_reach)
    i, k, j = m._couplings_within(model, region, region + exterior, reach)
    keep = (i < k) & (k < n) & (j != 0.0)
    pairs = tuple(zip(i[keep].tolist(), k[keep].tolist(), j[keep].tolist()))
    if bc.kind == "zero":
        return pairs, (0.0,) * n
    if reach > field_reach:
        coords = np.asarray(region + exterior, dtype=np.int64).reshape(n + len(exterior), -1)
        near = np.abs(coords[i] - coords[k]).max(axis=1) <= field_reach
        i, k, j = i[near], k[near], j[near]
    with np.errstate(over="ignore", invalid="ignore"):
        if spins is not None:
            outside = k >= n
            block = np.zeros((n, len(exterior)))
            block[i[outside], k[outside] - n] = j[outside]
            slopes = m._block_fields(block, spins).tolist()
        else:
            window_total = m._window_coupling_total(
                coupling, model.box.dimension, model.truncation_radius, 1, absolute=False
            )
            # each site's in-window region part is one run of j, in region order
            ends = np.cumsum(np.bincount(i, minlength=n)).tolist()
            slopes = [bc.value * (window_total - float(j[a:b].sum())) for a, b in zip([0, *ends[:-1]], ends)]
    if not all(map(math.isfinite, slopes)):
        # name an infinite slope where there is one: a NaN beside it is inf - inf
        bad = [x for x, b in enumerate(slopes) if not math.isfinite(b)]
        x = next((x for x in bad if math.isinf(slopes[x])), bad[0])
        what = f"is {slopes[x]}, not finite in" if math.isinf(slopes[x]) else "overflows"
        raise CapacityError(f"boundary field slope of site {region[x]} {what} float64")
    return pairs, tuple(slopes)


@lru_cache(maxsize=512)
def _build(model: m.GibbsModel, region: tuple[m.Site, ...], omega_items) -> System:
    """The System of the region, under the explicit boundary of omega_items
    (_omega_items' canonical form, taken as it is) when they are given; its
    pairs and fields come from one search (_pairs_and_fields)."""
    if omega_items is not None:
        model = replace(model, boundary=m.BoundaryCondition(kind="explicit", assignments=omega_items))
    pairs, fields = _pairs_and_fields(model, region)
    return System(sites=region, values=model.spin.values, pairs=pairs, fields=fields)


def _check_grid(q: int, k: int) -> None:
    """Refuse a grid of q^k configurations past SPIN_GRID_BUDGET columns."""
    if q**k > SPIN_GRID_BUDGET:
        raise CapacityError(f"spin grid needs {q}^{k} states, budget is {SPIN_GRID_BUDGET}")


def _spin_grid(values, k: int) -> np.ndarray:
    """(k, q^k) array over the q spin values whose column c is configuration
    c of k sites, site 0 varying fastest. Past SPIN_GRID_BUDGET columns it
    raises before allocating; the count stays in the form q^k: written out,
    it can pass Python's 4300-digit limit on int-to-str conversion."""
    values = np.asarray(values)
    q = len(values)
    _check_grid(q, k)
    grid = np.empty((k, q**k), dtype=values.dtype)
    for i in range(k):
        # row i in blocks of q^i columns that each hold one value of site i
        grid[i].reshape(-1, q, q**i)[...] = values[:, None]
    return grid


def build_system(model: m.GibbsModel, region="box", omega=None) -> System:
    """System for a model region, optionally under an omega override: a
    mapping site -> spin value, each value in the spin interval (the model
    under that explicit boundary checks them)."""
    return _build(model, m.resolve_region(model, region), _omega_items(omega))


def _omega_items(omega):
    """An omega override as the hashable key _build takes: sorted items,
    each site coordinate and value made an int by model._as_int's rule."""
    if omega is None:
        return None
    omega = dict(omega)
    # plain ints, the common case, are checked in one pass
    if {*map(type, chain.from_iterable(omega)), *map(type, omega.values())} != {int}:
        omega = {m._as_site(s): m._as_int(v, "the omega value at {!r}", s) for s, v in omega.items()}
    return tuple(sorted((tuple(s), v) for s, v in omega.items()))


def windowed_exterior(model: m.GibbsModel, region="box"):
    """Sites within the truncation window of the region but not in it.

    These are the only exterior sites whose omega values can move the fields
    by more than the certified tail. Sorted for determinism.
    """
    sites = m.resolve_region(model, region)
    radius = model.truncation_radius
    d = model.box.dimension
    span = 2 * radius + 1
    if span**d * len(sites) > 8 * m.SITE_CAP:
        raise CapacityError(
            f"window of radius {radius} around {len(sites)} sites spans up to "
            f"{span**d * len(sites)} candidates, over the cap {8 * m.SITE_CAP}"
        )
    if not sites:
        return ()
    coords = np.asarray(sites, dtype=np.int64)
    offsets = np.indices((span,) * d).reshape(d, -1).T - radius
    # each candidate x + offset as one mixed-radix key over the bounding box
    # of the candidates, the first coordinate most significant, so sorted
    # keys are sorted sites and a key is a sum of a site's and an offset's
    lo = coords.min(axis=0) - radius
    shape = tuple((coords.max(axis=0) + radius + 1 - lo).tolist())
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    site_keys = (coords - lo) @ strides
    # distinct keys by a sort and its adjacent differences: a 1-D np.unique
    # would import numpy.ma
    keys = np.sort((site_keys[:, None] + offsets @ strides).ravel())
    keys = keys[np.diff(keys, prepend=keys[0] - 1) != 0]
    keys = keys[~np.isin(keys, site_keys, kind="sort")]
    out = np.stack(np.unravel_index(keys, shape), axis=1) + lo
    if len(out) > m.SITE_CAP:
        raise CapacityError(f"windowed exterior holds {len(out)} sites, over the cap {m.SITE_CAP}")
    return tuple(map(tuple, out.tolist()))
