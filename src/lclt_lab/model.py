"""Finite-box lattice spin models with boundary fields.

A model lives on the box ``{-n..n}^d``. Each site carries an integer spin
from a consecutive interval ``{lo..hi}`` (at least two values, so the
maximal span of the single-spin law is 1 and characteristic functions have
period 2*pi). Sites interact through a symmetric pair coupling J(x,y) with
J(x,x) = 0 and a finite interaction norm, and the outside world enters only
through a boundary condition omega that contributes the linear field

    h_x(s) = s * sum_{y outside the region} J(x, y) * omega_y

to the energy. The log Boltzmann weight of a configuration on a region is

    -H = sum_{{x,y} in region} J(x,y) s_x s_y + sum_x h_x(s_x),

and the single-site measure p_x(s) = e^{h_x(s)} / sum_s' e^{h_x(s')} is
bounded below by kappa(J, sigma) = e^{-2 J sigma^2} / card(I), the floor that
drives every decay estimate downstream.

Regions are arbitrary site subsets of the box. Two named regions matter:
the full box, and the decimated box (sites whose coordinates are all
multiples of the decimation step r0). For a proper subregion, every site
not in the region is treated as exterior and receives its omega value from
the boundary condition (zero and constant kinds extend uniformly; explicit
kinds default unassigned sites to 0, contributing no field).

Exterior sums for translation-invariant couplings are evaluated inside a
finite window of radius ``truncation_radius``; for power-law couplings the
window is certified at construction so the neglected tail of
sum |J(x,y)| * sigma stays below 1e-12. Finite-range kinds are exact. Every
J(x, y) the engines use comes from one kernel (Coupling.between, paired by
_couplings_within), bit for bit the scalar Coupling.value on every CPU,
which the tests keep as the reference.

All model objects are immutable and hashable; every function here is pure,
so concurrent use needs no locks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityError, DomainError

Site = tuple[int, ...]

# Certified ceiling for the neglected exterior tail, sum |J| * sigma.
TAIL_TOLERANCE = 1e-12

# Largest offset-window cardinality interaction_norm will enumerate.
WINDOW_BUDGET = 1 << 24

# Largest site list a box or an exterior window will materialize.
SITE_CAP = 1 << 20

# Largest |spin value|: the System carries spins as float64, which holds
# every integer up to 2**53 exactly and merges distinct ones past it.
MAX_EXACT_SPIN = 1 << 53


def _as_int(value, what: str, *at) -> int:
    """value as an int when it is an int, a numpy integer or an integral
    float; anything else (a bool, a fraction, NaN, a string) is a
    DomainError naming it and what.format(*at), never a truncation."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise DomainError(f"{what.format(*at)} is {value!r}, not an integer")


def _as_site(raw, dimension: int | None = None) -> Site:
    """raw as a tuple of int coordinates, of the given dimension if one is given."""
    site = tuple(_as_int(c, "a coordinate of site {!r}", raw) for c in raw)
    if dimension is not None and len(site) != dimension:
        raise DomainError(f"site {raw!r} does not have dimension {dimension}")
    return site


@dataclass(frozen=True)
class SpinInterval:
    """Consecutive integer spin values {lo, lo+1, ..., hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise DomainError("spin bounds must be integers")
        if self.lo >= self.hi:
            raise DomainError(f"spin interval needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.sigma > MAX_EXACT_SPIN:
            raise DomainError(
                f"spin values must lie within +-2**53 = {MAX_EXACT_SPIN}, where float64 holds every "
                f"integer exactly, got [{self.lo}, {self.hi}]"
            )

    @property
    def sigma(self) -> int:
        """Largest absolute spin value; at least 1 for any valid interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def card(self) -> int:
        return self.hi - self.lo + 1

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    def __contains__(self, value) -> bool:
        return isinstance(value, (int, np.integer)) and self.lo <= value <= self.hi


@dataclass(frozen=True)
class Box:
    """The box {-radius..radius}^dimension with decimation step r0."""

    dimension: int
    radius: int
    r0: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be at least 1")
        if self.radius < 0:
            raise DomainError("radius must be nonnegative")
        if self.r0 < 1:
            raise DomainError("decimation step r0 must be at least 1")

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        if self.site_count > SITE_CAP:
            raise CapacityError(
                f"box of radius {self.radius} in dimension {self.dimension} holds (2r+1)^d ="
                f" {self.site_count} sites, over the cap {SITE_CAP}"
            )
        rng = range(-self.radius, self.radius + 1)
        return tuple(itertools.product(rng, repeat=self.dimension))

    @cached_property
    def decimated_sites(self) -> tuple[Site, ...]:
        """Box sites whose coordinates are all multiples of r0, in the order
        of sites, built from the multiples of r0 on each axis."""
        reach = self.radius // self.r0 * self.r0
        axis = range(-reach, reach + 1, self.r0)
        count = len(axis) ** self.dimension
        if count > SITE_CAP:
            raise CapacityError(
                f"decimated box of radius {self.radius} and step {self.r0} in dimension"
                f" {self.dimension} holds {count} sites, over the cap {SITE_CAP}"
            )
        return tuple(itertools.product(axis, repeat=self.dimension))

    @property
    def site_count(self) -> int:
        return (2 * self.radius + 1) ** self.dimension

    def __contains__(self, site) -> bool:
        return (
            len(site) == self.dimension
            and all(isinstance(c, (int, np.integer)) and abs(c) <= self.radius for c in site)
        )


@dataclass(frozen=True)
class Coupling:
    """Symmetric pair coupling J(x, y).

    Kinds:
      nearest_neighbor  J = strength for |x - y| = 1, else 0
      power_law         J = strength / |x - y|_2 ** exponent (exponent > d)
      explicit          finite table of unordered pairs
    """

    kind: str
    strength: float = 0.0
    exponent: float | None = None
    pairs: tuple[tuple[Site, Site, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("nearest_neighbor", "power_law", "explicit"):
            raise DomainError(f"unknown coupling kind {self.kind!r}")
        if not math.isfinite(self.strength):
            raise DomainError(f"coupling strength must be finite, got {self.strength}")
        if self.kind == "power_law" and not (self.exponent is not None and 0 < self.exponent < math.inf):
            raise DomainError(f"power_law coupling needs a positive finite exponent, got {self.exponent}")
        if self.kind == "explicit":
            if self.pairs is None:
                raise DomainError("explicit coupling needs a pair table")
            seen = set()
            for x, y, j in self.pairs:
                if x == y:
                    raise DomainError(f"explicit coupling assigns J({x},{x}) on the diagonal")
                key = (min(x, y), max(x, y))
                if key in seen:
                    raise DomainError(f"duplicate explicit pair {key}")
                if not math.isfinite(j):
                    raise DomainError(f"explicit pair {key} has the coupling {j}, which is not finite")
                seen.add(key)

    @staticmethod
    def nearest_neighbor(strength: float) -> "Coupling":
        return Coupling(kind="nearest_neighbor", strength=float(strength))

    @staticmethod
    def power_law(strength: float, exponent: float) -> "Coupling":
        return Coupling(kind="power_law", strength=float(strength), exponent=float(exponent))

    @staticmethod
    def explicit(table: Mapping[tuple[Site, Site], float] | Iterable) -> "Coupling":
        items = table.items() if isinstance(table, Mapping) else table
        norm = []
        for entry in items:
            if len(entry) == 2 and len(entry[0]) == 2:
                (x, y), j = entry
            else:
                x, y, j = entry
            x, y = _as_site(x), _as_site(y)
            lo, hi = (x, y) if x <= y else (y, x)
            norm.append((lo, hi, float(j)))
        return Coupling(kind="explicit", pairs=tuple(sorted(norm)))

    @cached_property
    def _pair_lookup(self) -> dict:
        return {(x, y): j for x, y, j in (self.pairs or ())}

    @cached_property
    def range_bound(self) -> int | None:
        """Exact interaction range in sup-norm, or None for infinite range."""
        if self.kind == "nearest_neighbor":
            return 1
        if self.kind == "explicit":
            extent = 1
            for x, y, _ in self.pairs or ():
                extent = max(extent, max(abs(a - b) for a, b in zip(x, y)))
            return extent
        return None

    def value(self, x: Site, y: Site) -> float:
        """J(x, y); symmetric, zero on the diagonal."""
        if x == y:
            return 0.0
        if self.kind == "nearest_neighbor":
            return self.strength if sum(abs(a - b) for a, b in zip(x, y)) == 1 else 0.0
        if self.kind == "power_law":
            r2 = sum((a - b) ** 2 for a, b in zip(x, y))
            return self.strength / r2 ** (self.exponent / 2.0)
        key = (x, y) if x <= y else (y, x)
        return self._pair_lookup.get(key, 0.0)

    def between(self, xs, ys) -> np.ndarray:
        """J(x, y) over broadcast integer site arrays (..., d), with value's
        bits on every CPU: the power law takes Python's pow, not numpy's."""
        if self.kind == "explicit":
            xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64))
            rows = zip(*(map(tuple, a.reshape(-1, a.shape[-1]).tolist()) for a in (xs, ys)))
            return np.array([self._pair_lookup.get(tuple(sorted(r)), 0.0) for r in rows]).reshape(xs.shape[:-1])
        diff = np.subtract(xs, ys, dtype=np.int64)
        if self.kind == "nearest_neighbor":
            return np.where(np.abs(diff).sum(axis=-1) == 1, self.strength, 0.0)
        r2, inverse = np.unique((diff * diff).sum(axis=-1), return_inverse=True)
        table = np.array([self.strength / r ** (self.exponent / 2.0) if r else 0.0 for r in r2.tolist()])
        return table[inverse].reshape(diff.shape[:-1])


def _couplings_within(model: "GibbsModel", xs, ys, radius: int):
    """(i, k, J(xs[i], ys[k])) over the site pairs within sup-distance radius,
    by i and then k. The ys are sorted on their first two coordinates and
    each x is compared with runs of them found by binary search: on a chain
    the one run within radius of x; on 2-D and larger boxes one run per
    first-coordinate value within radius of x's, the ys of that value whose
    second coordinate is within radius of x's, so a 2-D x sees at most
    (2 radius + 1)^2 candidates."""
    d = model.box.dimension
    xs, ys = (np.asarray(sites, dtype=np.int64).reshape(len(sites), d) for sites in (xs, ys))
    order = np.lexsort(ys[:, :2].T[::-1])
    lead = ys[order, 0]
    if d == 1 or not len(ys):
        owner = np.arange(len(xs))
        keys, lo, hi = lead, xs[:, 0] - radius, xs[:, 0] + radius
    else:
        # one key per y: its row (rank of its first coordinate) then its
        # second coordinate, so each row's run is one key interval
        starts = np.empty(len(lead), dtype=bool)
        starts[0] = True
        np.not_equal(lead[1:], lead[:-1], out=starts[1:])
        rows, second = lead[starts], ys[order, 1]
        base = int(second.min())
        width = int(second.max()) - base + 1
        keys = (np.cumsum(starts) - 1) * width + (second - base)
        first_row = np.searchsorted(rows, xs[:, 0] - radius, "left")
        row_count = np.searchsorted(rows, xs[:, 0] + radius, "right") - first_row
        owner, run_row = _runs(first_row, row_count)
        offset = xs[owner, 1] - base
        lo = run_row * width + np.minimum(np.maximum(offset - radius, 0), width)
        hi = run_row * width + np.minimum(np.maximum(offset + radius, -1), width - 1)
    first = np.searchsorted(keys, lo, "left")
    run, at = _runs(first, np.maximum(np.searchsorted(keys, hi, "right") - first, 0))
    i, k = owner[run], order[at]
    if d > 2:
        near = (np.abs(xs[i, 2:] - ys[k, 2:]) <= radius).all(axis=1)
        i, k = i[near], k[near]
    # each (i, k) once, so one key sorts them by i and then k
    by_x = np.argsort(i * len(ys) + k)
    i, k = i[by_x], k[by_x]
    return i, k, model.coupling.between(xs[i], ys[k])


def _runs(starts: np.ndarray, counts: np.ndarray):
    """(run, at) over runs of counts[r] consecutive integers from starts[r],
    run after run: each entry's run r and its integer."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(np.arange(len(counts)), counts), np.repeat(starts - ends + counts, counts) + np.arange(total)


def _coupling_block(model: "GibbsModel", xs, ys) -> np.ndarray:
    """J(x, y) over xs x ys as an explicit boundary takes it: 0 past the
    truncation radius unless J is a table."""
    reach = model.coupling.range_bound if model.coupling.kind == "explicit" else model.truncation_radius
    i, k, j = _couplings_within(model, xs, ys, reach)
    block = np.zeros((len(xs), len(ys)))
    block[i, k] = j
    return block


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row along the last axis of terms summed left to right from 0.0,
    the additions of Python's sum over the row, so bit for bit its value."""
    return np.cumsum(np.concatenate([np.zeros(terms.shape[:-1] + (1,)), terms], axis=-1), axis=-1)[..., -1]


def _block_fields(block: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """Field slopes sum_y J(x, y) omega_y of the sites x of a (sites, W)
    coupling block under each row of a (..., W) array of exterior spins,
    the products added in window order (_row_sums)."""
    return _row_sums(block * spins[..., None, :])


@dataclass(frozen=True)
class BoundaryCondition:
    """Spin values omega assigned to sites outside a region.

    zero and constant kinds extend to every exterior site; the explicit kind
    carries a finite assignment table, and any unassigned exterior site
    contributes no field (omega = 0 there).
    """

    kind: str
    value: int = 0
    assignments: tuple[tuple[Site, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "explicit"):
            raise DomainError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "explicit":
            if self.assignments is None:
                raise DomainError("explicit boundary needs assignments")
            seen = set()
            for site, _ in self.assignments:
                if site in seen:
                    raise DomainError(f"duplicate explicit boundary site {site}")
                seen.add(site)

    @staticmethod
    def zero() -> "BoundaryCondition":
        return BoundaryCondition(kind="zero")

    @staticmethod
    def constant(value: int) -> "BoundaryCondition":
        return BoundaryCondition(kind="constant", value=_as_int(value, "the constant boundary value"))

    @staticmethod
    def explicit(assignments: Mapping[Site, int] | Iterable) -> "BoundaryCondition":
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        norm = tuple(sorted((_as_site(site), _as_int(v, "the boundary value at {!r}", site)) for site, v in items))
        return BoundaryCondition(kind="explicit", assignments=norm)

    @cached_property
    def _table(self) -> dict:
        return dict(self.assignments or ())

    def omega(self, site: Site) -> int:
        if self.kind == "zero":
            return 0
        if self.kind == "constant":
            return self.value
        return self._table.get(site, 0)


def _power_law_tail_bound(strength, exponent, dimension, window):
    """Certified bound on sum_{|y-x|_sup > window} |J(x,y)|.

    Shell counting: at sup-distance l there are (2l+1)^d - (2l-1)^d sites,
    at most 2d(3l)^(d-1), each with Euclidean distance >= l. The remaining
    sum is bounded by the integral of t^(d-1-exponent).
    """
    p, d = exponent, dimension
    if window < 1:
        return math.inf
    return abs(strength) * 2 * d * 3 ** (d - 1) * window ** (d - p) / (p - d)


def required_truncation_radius(coupling: Coupling, dimension: int, sigma: int) -> int:
    """Smallest window radius whose certified tail is below TAIL_TOLERANCE."""
    if coupling.range_bound is not None:
        return coupling.range_bound
    p = coupling.exponent
    if p <= dimension:
        raise DomainError(
            f"power_law exponent {p} is not summable in dimension {dimension}; needs exponent > d"
        )
    if coupling.strength == 0.0:
        return 1
    target = TAIL_TOLERANCE / sigma
    lead = abs(coupling.strength) * 2 * dimension * 3 ** (dimension - 1) / (p - dimension)
    radius = max(1, math.ceil((lead / target) ** (1.0 / (p - dimension))))
    while _power_law_tail_bound(coupling.strength, p, dimension, radius) * sigma > TAIL_TOLERANCE:
        radius += 1
    return radius


@dataclass(frozen=True)
class GibbsModel:
    """A spin interval, a box, a coupling, a boundary condition, and the
    certified truncation window tying them together."""

    spin: SpinInterval
    box: Box
    coupling: Coupling
    boundary: BoundaryCondition
    truncation_radius: int | None = None

    def __post_init__(self):
        if self.coupling.kind == "power_law" and self.coupling.exponent <= self.box.dimension:
            raise DomainError(
                f"power_law exponent must exceed the dimension {self.box.dimension} "
                f"for a finite interaction norm, got {self.coupling.exponent}"
            )
        if self.truncation_radius is None:
            object.__setattr__(
                self,
                "truncation_radius",
                required_truncation_radius(self.coupling, self.box.dimension, self.spin.sigma),
            )
        elif self.coupling.kind == "power_law":
            tail = _power_law_tail_bound(
                self.coupling.strength,
                self.coupling.exponent,
                self.box.dimension,
                self.truncation_radius,
            )
            if tail * self.spin.sigma > TAIL_TOLERANCE:
                raise DomainError(
                    f"truncation_radius {self.truncation_radius} leaves a tail bound "
                    f"{tail * self.spin.sigma:.3e} above {TAIL_TOLERANCE} on sum |J| * sigma"
                )
        if self.boundary.kind == "constant" and self.boundary.value not in self.spin:
            raise DomainError(f"constant boundary value {self.boundary.value} outside spin interval")
        if self.boundary.kind == "explicit":
            for site, v in self.boundary.assignments:
                if v not in self.spin:
                    raise DomainError(f"boundary value {v} at {site} outside spin interval")

    @property
    def sites(self) -> tuple[Site, ...]:
        return self.box.sites

    @property
    def decimated_sites(self) -> tuple[Site, ...]:
        return self.box.decimated_sites


def resolve_region(model: GibbsModel, region) -> tuple[Site, ...]:
    """Canonical sorted site tuple for a region argument.

    Accepts the strings "box" and "decimated" or any iterable of box sites.
    A hashable tuple of sites is checked once per box and then read from a
    cache.
    """
    if region is None:
        return model.box.sites
    if isinstance(region, str):
        if region == "box":
            return model.box.sites
        if region == "decimated":
            return model.box.decimated_sites
        raise DomainError(f"unknown region name {region!r}")
    if isinstance(region, tuple):
        try:
            hash(region)
        except TypeError:
            pass
        else:
            return _cached_region_sites(model.box, region)
    return _region_sites(model.box, region)


def _region_sites(box: Box, region) -> tuple[Site, ...]:
    """resolve_region of an iterable of sites."""
    sites = tuple(sorted(_as_site(s, box.dimension) for s in region))
    if len(set(sites)) != len(sites):
        raise DomainError("region sites must be distinct")
    for s in sites:
        if s not in box:
            raise DomainError(f"region site {s} lies outside the box")
    return sites


# Keyed by (box, region): equal site tuples convert to the same sites.
_cached_region_sites = lru_cache(maxsize=256)(_region_sites)


@lru_cache(maxsize=256)
def _window_coupling_total(coupling: Coupling, d: int, truncation: int, step: int, absolute: bool = True) -> float:
    """sum over nonzero offsets z in (step Z)^d with |z|_sup <= truncation of |J(z)|,
    or of the signed J(z) when absolute is off.

    Translation invariant kinds only; compensated by numpy pairwise summation.
    A total past float64 is inf, without a numpy warning: the callers decide.
    Cached on what it reads, so models differing only in r0, box radius or
    boundary share it.
    """
    reach = truncation // step
    if reach < 1:
        return 0.0
    count = (2 * reach + 1) ** d
    if count > WINDOW_BUDGET:
        raise CapacityError(
            f"interaction window holds {count} offsets, over the budget {WINDOW_BUDGET}; "
            "raise the power-law exponent or lower the truncation radius"
        )
    values = coupling.between(0, (np.indices((2 * reach + 1,) * d).reshape(d, -1).T - reach) * step)
    with np.errstate(over="ignore"):
        return float((np.abs(values) if absolute else values).sum())


def interaction_norm(model: GibbsModel, step: int = 1) -> float:
    """sup over sites x of the step-decimated lattice of sum_y |J(x, y)|.

    The inner sum runs over the infinite decimated lattice, truncated at the
    certified window; the sup is exact for translation-invariant kinds and is
    evaluated over the finite box for explicit tables.
    """
    if step < 1:
        raise DomainError("step must be at least 1")
    if model.coupling.kind != "explicit":
        return _window_coupling_total(model.coupling, model.box.dimension, model.truncation_radius, step)
    totals: dict[Site, float] = {}
    for a, b, j in model.coupling.pairs:
        if all(c % step == 0 for c in a + b):
            for x in (a, b):
                if x in model.box:
                    totals[x] = totals.get(x, 0.0) + abs(j)
    return max(totals.values(), default=0.0)


def _kappa_exponent(interaction: float, sigma: int, card: int) -> float:
    if interaction < 0:
        raise DomainError("interaction norm must be nonnegative")
    if sigma < 1 or card < 2:
        raise DomainError("need sigma >= 1 and at least two spin values")
    return -2.0 * interaction * sigma * sigma


def kappa(interaction: float, sigma: int, card: int) -> float:
    """Single-spin mass floor e^{-2 J sigma^2} / card(I)."""
    return math.exp(_kappa_exponent(interaction, sigma, card)) / card


def log_kappa(interaction: float, sigma: int, card: int) -> float:
    """log kappa = -2 J sigma^2 - log card(I), finite where kappa underflows."""
    return _kappa_exponent(interaction, sigma, card) - math.log(card)


# ---------------------------------------------------------------------------
# JSON ingestion

# The one statement of a config's rules, a JSON Schema (Draft 2020-12).
# model_from_dict reads it through _conform, which needs no jsonschema at
# run time; the tests check that jsonschema accepts the same configs.
MODEL_SCHEMA = {
    "type": "object",
    "required": ["dimension", "radius", "spin", "coupling", "boundary", "r0"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "radius": {"type": "integer", "minimum": 0},
        "r0": {"type": "integer", "minimum": 1},
        "truncation_radius": {"type": "integer", "minimum": 1},
        "spin": {
            "type": "object",
            "required": ["lo", "hi"],
            "additionalProperties": False,
            "properties": {"lo": {"type": "integer"}, "hi": {"type": "integer"}},
        },
        "coupling": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["nearest_neighbor", "power_law", "explicit"]},
                "strength": {"type": "number"},
                "exponent": {"type": "number"},
                "pairs": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "minItems": 3,
                        "maxItems": 3,
                        "prefixItems": [
                            {"type": "array", "items": {"type": "integer"}},
                            {"type": "array", "items": {"type": "integer"}},
                            {"type": "number"},
                        ],
                    },
                },
            },
        },
        "boundary": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "constant", "explicit"]},
                "value": {"type": "integer"},
                "assignments": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "prefixItems": [
                            {"type": "array", "items": {"type": "integer"}},
                            {"type": "integer"},
                        ],
                    },
                },
            },
        },
    },
}


# JSON types as Draft 2020-12 reads them in Python, bool apart: bool is an
# int subclass but neither integer nor number.
_JSON_TYPES = {"object": dict, "array": list, "integer": int, "number": (int, float)}


def _conform(value, schema: dict, path: str = ""):
    """value checked against schema with the Draft 2020-12 meaning of the
    keywords MODEL_SCHEMA uses, and returned with every integral float that
    "integer" matches made an int (NaN and inf are numbers, refused later by
    the dataclasses). The first failure is a DomainError naming its path."""

    def fail(where: str, reason: str):
        raise DomainError(f"invalid model config: {where or 'the top level'}: {reason}")

    def member(key) -> str:
        return f"{path}.{key}" if path else str(key)

    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])):
        if not (kind == "integer" and isinstance(value, float) and value.is_integer()):
            fail(path, f"{value!r} is not of type {kind!r}")
        value = int(value)
    if "enum" in schema and value not in schema["enum"]:
        fail(path, f"{value!r} is not one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        fail(path, f"{value!r} is less than the minimum of {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(member(key), "is a required property")
        for key in value:
            if key not in props and schema.get("additionalProperties") is False:
                fail(member(key), "is not an allowed property")
        value = {key: _conform(item, props.get(key, {}), member(key)) for key, item in value.items()}
    if isinstance(value, list):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            fail(path, f"has {len(value)} items, needs {lo} to {hi}")
        prefix, rest = schema.get("prefixItems", []), schema.get("items", {})
        value = [_conform(v, prefix[i] if i < len(prefix) else rest, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def model_from_dict(raw: Mapping) -> GibbsModel:
    """Build a model from the JSON object layout, checked against MODEL_SCHEMA;
    a config the schema refuses is a DomainError naming the offending path."""
    raw = _conform(raw, MODEL_SCHEMA)
    d = raw["dimension"]
    spin = SpinInterval(lo=raw["spin"]["lo"], hi=raw["spin"]["hi"])
    box = Box(dimension=d, radius=raw["radius"], r0=raw["r0"])
    c = raw["coupling"]
    if c["kind"] == "nearest_neighbor":
        coupling = Coupling.nearest_neighbor(c.get("strength", 0.0))
    elif c["kind"] == "power_law":
        if "exponent" not in c:
            raise DomainError("power_law coupling needs an exponent")
        coupling = Coupling.power_law(c.get("strength", 0.0), c["exponent"])
    else:
        coupling = Coupling.explicit(
            [(_as_site(x, d), _as_site(y, d), j) for x, y, j in c.get("pairs", [])]
        )
    b = raw["boundary"]
    if b["kind"] == "zero":
        boundary = BoundaryCondition.zero()
    elif b["kind"] == "constant":
        boundary = BoundaryCondition.constant(b.get("value", 0))
    else:
        boundary = BoundaryCondition.explicit(
            [(_as_site(site, d), v) for site, v in b.get("assignments", [])]
        )
    return GibbsModel(
        spin=spin,
        box=box,
        coupling=coupling,
        boundary=boundary,
        truncation_radius=raw.get("truncation_radius"),
    )


def model_from_json(text: str) -> GibbsModel:
    return model_from_dict(json.loads(text))
