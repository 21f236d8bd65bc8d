"""Metropolis sampling of the spin models, as a cross-check on enumeration.

Single-site Metropolis updates run in a deterministic color order: sites
are greedy-colored so no two coupled sites share a color, and each sweep
updates one color class at a time, vectorized across sites and chains.
Within a class the neighbor sums are constant, so the block update is
exactly a sequence of single-site updates and the chain keeps the Gibbs
measure invariant.

The state is a (sites + 1, chains) array laid out by color class, each
class in site order, so a class is one contiguous block of rows and is
updated in place. A last row of ones carries the fields: a class's links
hold, per site, its coupling row over the state's order and then its field,
so one np.dot of the links with the state writes each local field
h_x + sum_y J(x, y) s_y into a buffer kept for the class. On these float64
operands np.dot and @ make the same cblas call (dgemm, or dgemv for a
one-site class), so np.dot gives the bits @ would without the gufunc
dispatch. A move that changes the log weight by delta is accepted when
u < exp(delta), which decides as u < exp(min(delta, 0)) does: for
delta >= 0 both sides exceed u, since u <= 1 - 2**-53 and exp(delta) >= 1
(inf when it overflows), and below 0 the two are one value. The System's
energy bound is finite, so no local field is NaN. A site's couplings all
come from other classes, and its field is the last term of its sum; how
BLAS groups those terms is its own, so a sample could move only if a
last-bit change flipped a verdict. The tests hold the samples to the update
over the spins in site order, bit for bit.

A retained sweep's sites are copied, chain by chain, into a buffer of one
chunk, which is summed once per chunk. That sum adds each chain's sites in
the order a per-sweep sum over the chain's row does, and integer spins keep
every total exact below 2**53 in any order, so summing per chunk cannot
change a sample.

Randomness is counter-based: every (sweep, color block) pair reads its own
Philox4x64-10 stream, keyed by the seed and the pair, so results depend
only on the spec, never on execution order (Salmon et al., SC'11). The
random numbers of CHUNK_SWEEPS sweeps are drawn before those sweeps run:
one generator per call is re-keyed in place for each pair (counter 0, empty
buffer) and its raw 64-bit words fill one row of the block's tape, one
uint64 array per chunk. A row holds, in stream order, the words of the
block's Generator.integers(0, q) draws (Lemire's bounded integers on uint32
halves, low half first; Lemire, ACM TOMACS 2019) and then those of its
Generator.random draws, so the tape gives each pair exactly what Generator
would. A row in which Lemire would reject a draw is drawn again through
Generator. The draws come in the (chain, site) order of Generator's shape
and are laid out as (sweep, site, chain) to match the state. Errors are
estimated by batch means across chains, which also yields the effective
sample size reported alongside every estimate. Condition on an exterior
assignment omega with
replace(model, boundary=BoundaryCondition.explicit(omega)).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from . import model as m
from ._system import build_system
from .errors import DegenerateDistributionError, DomainError

BATCH_TARGET = 30
# Sweeps whose random numbers are drawn at once. A chunk's tapes hold two
# floats per sweep, chain and site, so this bounds their memory.
CHUNK_SWEEPS = 64


@dataclass(frozen=True)
class ChainSpec:
    seed: int
    burn_in: int
    samples: int
    thinning: int = 1
    chains: int = 2

    def __post_init__(self):
        for name in ("seed", "burn_in", "samples", "thinning", "chains"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.samples < 100:
            raise DomainError(f"need at least 100 retained samples per chain, got {self.samples}")
        if self.chains < 2:
            raise DomainError(f"need at least 2 chains, got {self.chains}")
        if self.burn_in < 0:
            raise DomainError(f"burn-in must be nonnegative, got {self.burn_in}")
        if self.thinning < 1:
            raise DomainError(f"thinning must be at least 1, got {self.thinning}")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_effective: float


def _greedy_coloring(coupling: np.ndarray) -> list[np.ndarray]:
    linked = coupling != 0.0
    neighbours = [np.flatnonzero(row) for row in linked]
    degree = linked.sum(axis=1)
    order = sorted(range(len(coupling)), key=lambda i: (-degree[i], i))
    color = [-1] * len(coupling)
    for i in order:
        taken = {color[j] for j in neighbours[i] if color[j] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[i] = c
    color = np.array(color)
    return [np.flatnonzero(color == c) for c in range(color.max() + 1)]


# The state _rekey assigns, one per thread: only its key changes between
# calls, and a dict shared across threads could be re-keyed by another
# thread between the update and the assignment.
_rekey_state = threading.local()


def _rekey(bitgen: np.random.Philox, mixed: int, sweep: int, block: int) -> None:
    # (sweep, block) goes into the Philox key, not the counter: a stream's
    # counter advances as values are drawn, so counter-indexed streams for
    # consecutive sweeps would overlap. Distinct keys never share output.
    # Counter 0 and an empty buffer make this the stream a fresh
    # Philox(key=...) would give, so random_raw reads that stream's words
    # from its first, as Generator draws on a fresh key would.
    state = getattr(_rekey_state, "state", None)
    if state is None:
        state = _rekey_state.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state["state"]["key"] = (mixed, (sweep << 32) | block)
    bitgen.state = state


def _split_raw(raw: np.ndarray, draws: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proposal indices, uniforms and rejected rows of a tape of raw words.

    Each row of raw holds one stream's first ceil(draws/2) + draws words.
    The first ceil(draws/2) words give draws uint32s, low half first, as
    Generator.integers(0, q) reads them (an odd count leaves a half
    unread); Lemire's index is the high word of x * q. The rest give
    Generator.random's (word >> 11) * 2**-53. A row is rejected when Lemire
    would draw again for some x, that is when the low word of x * q is
    below 2**32 mod q: never for a power of two q, else with probability
    about draws * 2**-32.
    """
    half = (draws + 1) // 2
    words = raw[:, :half]
    x = np.stack((words & 0xFFFFFFFF, words >> 32), axis=-1).reshape(len(raw), 2 * half)[:, :draws]
    m = x * np.uint64(q)
    index = (m >> 32).astype(np.intp)
    rejected = ((m & 0xFFFFFFFF) < (1 << 32) % q).any(axis=1)
    uniform = (raw[:, half:] >> 11) * 2.0**-53
    return index, uniform, rejected


def _block_draws(rng: np.random.Generator, mixed: int, sweeps: range, block: int, shape: tuple, q: int):
    """Generator.integers(0, q, shape) and Generator.random(shape) of the
    streams of (sweep + 1, block) for each sweep, stacked along axis 0."""
    bitgen = rng.bit_generator
    draws = shape[0] * shape[1]
    width = (draws + 1) // 2 + draws
    raw = np.empty((len(sweeps), width), dtype=np.uint64)
    for row, sweep in enumerate(sweeps):
        _rekey(bitgen, mixed, sweep + 1, block)
        raw[row] = bitgen.random_raw(width)
    index, uniform, rejected = _split_raw(raw, draws, q)
    for row in np.flatnonzero(rejected):
        _rekey(bitgen, mixed, sweeps[row] + 1, block)
        index[row] = rng.integers(0, q, size=draws)
        uniform[row] = rng.random(size=draws)
    return index.reshape(len(sweeps), *shape), uniform.reshape(len(sweeps), *shape)


def total_spin_samples(model: m.GibbsModel, spec: ChainSpec, region="box") -> np.ndarray:
    """Retained total-spin samples, shape (chains, samples)."""
    system = build_system(model, region)
    n = system.site_count
    if n == 0:
        raise DegenerateDistributionError("the empty region () has no total spin to sample: it has no sites")
    values = system.value_array
    q = len(values)
    coupling = system.pair_matrix()
    blocks = _greedy_coloring(coupling)
    perm = np.concatenate(blocks)
    chains = spec.chains

    mixed = (int(spec.seed) & 0xFFFFFFFFFFFFFFFF) ^ 0x9E3779B97F4A7C15
    rng = np.random.Generator(np.random.Philox())
    # The starting spins read the stream of (sweep 0, block len(blocks)),
    # which no update uses; they are drawn in site order, then permuted.
    _rekey(rng.bit_generator, mixed, 0, len(blocks))
    spins = np.ones((n + 1, chains))
    sites = spins[:n]
    sites[...] = values[rng.integers(0, q, size=(chains, n))][:, perm].T
    # Block b is the rows cur of the state; its links are, per site, the
    # coupling row in state order, then its field against the last row.
    # delta, h and accept are the block's buffers for one sweep.
    ordered = coupling[:, perm]
    steps, lo = [], 0
    for block in blocks:
        hi = lo + len(block)
        links = np.column_stack((ordered[block], system.field_array[block]))
        delta, h = np.empty((2, len(block), chains))
        steps.append((spins[lo:hi], links, delta, h, np.empty((len(block), chains), bool)))
        lo = hi

    out = np.empty((chains, spec.samples))
    total_sweeps = spec.burn_in + spec.samples * spec.thinning
    # A chunk's retained sites, chain by chain, summed once per chunk
    retained = np.empty((CHUNK_SWEEPS, chains, n))
    kept = 0
    # Bound once and given their outputs by position: each call below works
    # on a few dozen numbers, so lookups and keyword parsing are a sizeable
    # share of its cost.
    subtract, dot, multiply, exp, less, putmask = np.subtract, np.dot, np.multiply, np.exp, np.less, np.putmask
    burn_in, thinning = spec.burn_in, spec.thinning
    # exp(delta) may overflow to inf on an uphill move, which accepts it
    with np.errstate(over="ignore"):
        for first in range(0, total_sweeps, CHUNK_SWEEPS):
            sweeps = range(first, min(first + CHUNK_SWEEPS, total_sweeps))
            tapes = []
            for b, step in enumerate(steps):
                draws = _block_draws(rng, mixed, sweeps, b, (chains, len(step[0])), q)
                index, uniform = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in draws)
                # Uniform over all q values, current included: the 1/q
                # self-loop keeps the chain aperiodic even when every move is
                # accepted (a field-free two-state site would otherwise
                # alternate forever).
                tapes.append((*step, values[index], uniform))
            slot = 0
            for row, sweep in enumerate(sweeps):
                for cur, links, delta, h, accept, props, uniforms in tapes:
                    prop = props[row]
                    subtract(prop, cur, delta)
                    dot(links, spins, h)
                    multiply(delta, h, delta)
                    exp(delta, delta)
                    less(uniforms[row], delta, accept)
                    putmask(cur, accept, prop)
                if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
                    np.copyto(retained[slot], sites.T)
                    slot += 1
            np.add.reduce(retained[:slot], axis=2, out=out[:, kept : kept + slot].T)
            kept += slot
    assert kept == spec.samples
    return out


def _batch_means(series_by_chain: np.ndarray, per_chain_batches: int) -> np.ndarray:
    chains, samples = series_by_chain.shape
    usable = samples - samples % per_chain_batches
    trimmed = series_by_chain[:, :usable]
    return trimmed.reshape(chains, per_chain_batches, -1).mean(axis=2).reshape(-1)


def _estimate_from_series(series: np.ndarray, chains: int, samples: int) -> Estimate:
    per_chain = max(2, BATCH_TARGET // chains)
    means = _batch_means(series, per_chain)
    value = float(series.mean())
    se = float(means.std(ddof=1) / math.sqrt(len(means)))
    if se == 0.0:
        return Estimate(value=value, std_error=0.0, n_effective=float(chains * samples))
    n_eff = float(series.var(ddof=1) / se**2)
    n_eff = min(n_eff, float(chains * samples))
    return Estimate(value=value, std_error=se, n_effective=max(n_eff, 1.0))


def sample_statistics(model: m.GibbsModel, spec: ChainSpec, region="box") -> dict:
    """Batch-means estimates of the total-spin mean and variance."""
    s = total_spin_samples(model, spec, region)
    mean_est = _estimate_from_series(s, spec.chains, spec.samples)
    centered = (s - s.mean()) ** 2
    var_est = _estimate_from_series(centered, spec.chains, spec.samples)
    return {"mean": mean_est, "variance": var_est}


def sample_pmf_gap(model: m.GibbsModel, spec: ChainSpec, region="box") -> dict:
    """Sampled worst deviation sup_p |sqrt(D) pi(p) - gaussian(z_p)|.

    The pmf, mean, and variance all come from the same samples. The error
    bar is the multinomial error of the worst cell at the batch-means
    effective sample size, scaled by sqrt(D).
    """
    s = total_spin_samples(model, spec, region)
    flat = s.reshape(-1)
    var = float(flat.var(ddof=1))
    if var <= 1e-12:
        raise DegenerateDistributionError(
            f"sampled total-spin variance {var!r} is too small for a local-CLT gap"
        )
    mu = float(flat.mean())
    root_d = math.sqrt(var)

    ps = np.rint(flat).astype(np.int64)
    p_min, p_max = int(ps.min()), int(ps.max())
    counts = np.bincount(ps - p_min, minlength=p_max - p_min + 1)
    freq = counts / len(flat)
    support = np.arange(p_min, p_max + 1)
    z = (support - mu) / root_d
    gauss = np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    dev = np.abs(root_d * freq - gauss)
    worst = int(np.argmax(dev))

    n_eff = _estimate_from_series(s, spec.chains, spec.samples).n_effective
    pi_hat = float(freq[worst])
    se = root_d * math.sqrt(max(pi_hat * (1.0 - pi_hat), 1.0 / len(flat)) / n_eff)
    return {"gap": Estimate(value=float(dev[worst]), std_error=se, n_effective=n_eff)}

