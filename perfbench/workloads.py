"""Seeded inputs and operations of the three benchmark workloads.

An operation is one call into lclt_lab, timed, plus a check of what it
returned, untimed. The check uses only the returned values and the
benchmark's own code (schema validation, a transfer-matrix oracle for
chains), so a traced run records no program work outside an operation.

The inputs of operation i come from (seed, workload, i) alone: the same
seed gives the same inputs, and a longer operation list extends a shorter
one. Model shapes follow a fixed schedule by operation index and the seed
draws couplings, spin intervals, boundaries, t values and omegas, so the
work per run barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import lclt_lab.cli as cli
import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.montecarlo as mc
import lclt_lab.polymer as pg
import lclt_lab.verifier as vf

WORKLOADS = ("cli-decay", "gas-series", "trend-sample")

IDENTITY_TOL = 1e-10
# Identity points stop at pi/2. Nearer the zeros of Xi (t near pi for two
# spin values, near 2 pi / 3 for three), weakly coupled regions of 5 to 9
# sites have |Xi(t)| < 1e-5 Xi(0), the gas sum cancels terms of size one,
# and the two routes differ by 1e-10 to 4e-10 of the 1e-6 Xi(0) floor: the
# check fails there at the seed commit.
IDENTITY_T_MAX = math.pi / 2
SERIES_FLOOR = 1e-13
# A seeded Metropolis estimate misses 3 standard errors in about 0.5% of
# checks (batch-means errors from 30 batches); with dozens of checks a run
# would fail by chance, so an estimate fails beyond 5 standard errors and
# misses of 3 are only counted.
MC_FAIL_SE = 5.0
MC_NOTE_SE = 3.0


@dataclass
class Op:
    """call() runs the program; check(result) returns the op's record:
    {"checks": [[name, passed, lhs, rhs], ...], "values": [[key, value], ...]}.
    kind names the operation and its input shape: operations of one kind
    do the same work on different inputs.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], dict]


def _rng(seed: int, workload: str, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), *index])


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _spin(rng, q: int) -> tuple[int, int]:
    if q == 2:
        return ((0, 1), (-1, 0))[int(rng.integers(0, 2))]
    return (-1, 1)


def _boundary(rng, spin) -> dict:
    if rng.random() < 0.4:
        return {"kind": "zero"}
    return {"kind": "constant", "value": int(rng.integers(spin[0], spin[1] + 1))}


def _config(dimension, radius, r0, spin, strength, boundary) -> dict:
    return {
        "dimension": dimension,
        "radius": radius,
        "r0": r0,
        "spin": {"lo": spin[0], "hi": spin[1]},
        "coupling": {"kind": "nearest_neighbor", "strength": strength},
        "boundary": boundary,
    }


def _model(dimension, radius, r0, spin, strength, boundary) -> lm.GibbsModel:
    if boundary["kind"] == "zero":
        bc = lm.BoundaryCondition.zero()
    else:
        bc = lm.BoundaryCondition.constant(boundary["value"])
    return lm.GibbsModel(
        box=lm.Box(dimension=dimension, radius=radius, r0=r0),
        spin=lm.SpinInterval(*spin),
        coupling=lm.Coupling.nearest_neighbor(strength),
        boundary=bc,
    )


def _delta(dimension: int, strength: float, spin) -> float:
    """The verifier's Fourier split point kappa / (12 sigma) for a
    nearest-neighbour model, from the closed form of its constants."""
    sigma = max(abs(spin[0]), abs(spin[1]))
    card = spin[1] - spin[0] + 1
    norm = 2 * dimension * abs(strength)
    return math.exp(-2.0 * norm * sigma * sigma) / card / (12.0 * sigma)


def _finite_check(name: str, lhs: float, rhs: float) -> list:
    return [name, bool(lhs <= rhs), float(lhs), float(rhs)]


# ---------------------------------------------------------------------------
# cli-decay: the CLI batch path, one in-process lclt-lab call per operation.

CLI_COMMANDS = ("constants", "site-cf", "decay-small-t", "decay-large-t", "integrals")
# (dimension, radius, q), one shape per round of the five subcommands. The
# decay scans rebuild every conditioning for every t, so 64 t points on a
# 17-site chain take 5 s a call at the seed commit; they run on the 7-site
# chains and the 3x3 box, while the other subcommands take chains of 11 and
# 17 sites and the 3x3 box. Ranked by time, integrals on the 11- and
# 17-site chains fill 45% to 60% of the operations and the decays of the
# 7-site q = 3 chain the top 20%, so p50 and p90 each fall inside one kind
# of call rather than between two.
DECAY_SHAPES = ((1, 3, 2), (1, 3, 3), (2, 1, 3), (1, 3, 3))
OTHER_SHAPES = ((1, 8, 2), (1, 5, 3), (2, 1, 2), (1, 5, 3))


class ReportChecker:
    """Validates reports.jsonl lines against docs/report_schema.json."""

    def __init__(self, root: Path):
        import jsonschema

        schema = json.loads((root / "docs" / "report_schema.json").read_text())
        self._validator = jsonschema.Draft202012Validator(schema)

    def record(self, exit_code: int, out_dir: Path) -> dict:
        checks = [_finite_check("exit_code", float(exit_code), 0.0)]
        values = []
        text = (out_dir / "reports.jsonl").read_text() if (out_dir / "reports.jsonl").exists() else ""
        lines = [json.loads(ln) for ln in text.splitlines()]
        invalid = sum(1 for ln in lines if not self._validator.is_valid(ln))
        checks.append(_finite_check("schema_invalid_lines", float(invalid), 0.0))
        checks.append(_finite_check("reports_missing", float(not lines), 0.0))
        for ln in lines:
            if "check" in ln:
                # float() reads the schema's "inf"/"nan" strings as non-finite.
                checks.append([ln["check"], ln["pass"], float(ln["lhs"]), float(ln["rhs"])])
            else:
                for key, v in sorted(ln["values"].items()):
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        values.append([f"{ln['record']}.{key}", float(v)])
        return {"checks": checks, "values": values, "reports": text}


def cli_decay(seed: int, n_ops: int, workdir: Path, root: Path) -> list[Op]:
    checker = ReportChecker(root)
    ops = []
    for i in range(n_ops):
        rng = _rng(seed, "cli-decay", i)
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        shapes = DECAY_SHAPES if command.startswith("decay") else OTHER_SHAPES
        dimension, radius, q = shapes[(i // len(CLI_COMMANDS)) % len(shapes)]
        spin = _spin(rng, q)
        strength = _signed(rng, 0.02, 0.1)
        config = _config(dimension, radius, 2, spin, strength, _boundary(rng, spin))
        path = workdir / f"model_{i:04d}.json"
        path.write_text(json.dumps(config))
        out = workdir / f"out_{i:04d}"
        argv = [command, "--config", str(path), "--out", str(out), "--seed", str(int(rng.integers(0, 1 << 31)))]
        if command == "integrals":
            # Well inside (0, delta sqrt(D)): every model here has D > 1.
            argv += ["--a-cut", repr(0.5 * _delta(dimension, strength, spin))]
        kind = f"{command} {dimension}d-r{radius}-q{q}"
        ops.append(Op(kind, _cli_call(argv, out), lambda result: checker.record(*result)))
    return ops


def _cli_call(argv, out):
    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), out

    return call


# ---------------------------------------------------------------------------
# gas-series: polymer-gas library calls, each model revisited at many t.

GAS_BLOCK = ("identity", "series", "identity", "tree", "identity", "series", "identity", "identity")
# (shape, sites, q); a patch is a connected piece of the 3x3 box.
GAS_SHAPES = (("chain", 5, 2), ("patch", 6, 2), ("chain", 7, 2), ("patch", 6, 3), ("chain", 7, 3), ("chain", 9, 2))
PATCHES = {6: ((-1, -1), (-1, 0), (0, -1), (0, 0), (1, -1), (1, 0))}
SERIES_ORDER = {5: (4, 3), 7: (3, 3), 9: (3, 3)}


def _window(sites, radius: int = 1):
    """Sites within sup-distance radius of the region and not in it: the
    exterior a nearest-neighbour model's omega can reach."""
    inside = set(sites)
    out = set()
    d = len(sites[0])
    offsets = np.stack(np.meshgrid(*([np.arange(-radius, radius + 1)] * d), indexing="ij"), -1).reshape(-1, d)
    for x in sites:
        for off in offsets:
            y = tuple(int(a + b) for a, b in zip(x, off))
            if y not in inside:
                out.add(y)
    return sorted(out)


def gas_series(seed: int, n_ops: int, workdir: Path, root: Path) -> list[Op]:
    ops = []
    for i in range(n_ops):
        b, j = divmod(i, len(GAS_BLOCK))
        if j == 0:
            block = _gas_block(seed, b)
        kind = GAS_BLOCK[j]
        if kind == "series" and block["shape"] == "patch":
            kind = "tree"  # the series tail is certified on chains only
        rng = _rng(seed, "gas-series", b, j)
        if kind == "identity":
            ops.append(_identity_op(block, block["t_grid"][j]))
        elif kind == "series":
            order = SERIES_ORDER[block["sites"]][GAS_BLOCK[:j].count("series")]
            ops.append(_series_op(block, float(rng.uniform(0.2, 1.0)) * block["delta"], order))
        else:
            k = int(rng.integers(2, min(5, block["sites"]) + 1))
            pick = sorted(int(p) for p in rng.choice(block["sites"], size=k, replace=False))
            ops.append(_tree_op(block, tuple(block["region"][p] for p in pick)))
    return ops


def _gas_block(seed: int, b: int) -> dict:
    rng = _rng(seed, "gas-series", b)
    shape, sites, q = GAS_SHAPES[b % len(GAS_SHAPES)]
    spin = _spin(rng, q)
    strength = _signed(rng, 1e-5, 5e-4)
    boundary = _boundary(rng, spin)
    if shape == "chain":
        dimension, radius = 1, (sites - 1) // 2
        region = tuple((x,) for x in range(-radius, radius + 1))
    else:
        dimension, radius = 2, 1
        region = PATCHES[sites]
    model = _model(dimension, radius, 1, spin, strength, boundary)
    omega = {y: int(rng.integers(spin[0], spin[1] + 1)) for y in _window(region)}
    return {
        "label": f"{shape}{sites}-q{q}",
        "shape": shape,
        "sites": sites,
        "model": model,
        "region": region,
        "omega": omega,
        "sigma": max(abs(spin[0]), abs(spin[1])),
        "step_norm": 2 * dimension * abs(strength),
        "delta": _delta(dimension, strength, spin),
        "t_grid": np.sort(rng.uniform(0.0, IDENTITY_T_MAX, size=len(GAS_BLOCK))).tolist(),
    }


def _identity_op(block, t: float) -> Op:
    model, region, omega = block["model"], block["region"], block["omega"]

    def call():
        xi0 = pg.polymer_partition(model, pg.ActivityParams(t=0.0), region, omega, "direct")
        params = pg.ActivityParams(t=t)
        direct = pg.polymer_partition(model, params, region, omega, "direct")
        gas = pg.polymer_partition(model, params, region, omega, "polymer_sum")
        return xi0, direct, gas

    def check(result):
        xi0, direct, gas = result
        # Criterion 01's floor: Xi(t) has analytic zeros near t = pi.
        rel = abs(direct - gas) / max(abs(direct), 1e-6 * abs(xi0))
        return {
            "checks": [_finite_check("partition_identity", rel, IDENTITY_TOL)],
            "values": [["xi0", abs(xi0)], ["direct.re", direct.real], ["direct.im", direct.imag]],
        }

    return Op(f"identity {block['label']}", call, check)


def _series_op(block, t: float, order: int) -> Op:
    model, region, omega = block["model"], block["region"], block["omega"]
    params = pg.ActivityParams(t=t, delta_cap=block["delta"])

    def call():
        signed = pg.truncated_log_partition(model, params, region, omega, K=order)
        absolute = pg.truncated_log_partition(model, params, region, omega, K=order, absolute=True)
        exact = pg.continuous_log_partition(model, params, region, omega)
        return signed, absolute, exact

    def check(result):
        signed, absolute, exact = result
        tail = signed.dominating_tail
        if tail is None:
            return {"checks": [["series_tail_certified", False, math.nan, math.nan]], "values": []}
        err = abs(signed.partial_sums[-1] - exact)
        total_abs = float(np.real(absolute.partial_sums[-1])) + tail
        return {
            "checks": [
                _finite_check("series_within_certified_tail", err, tail + SERIES_FLOOR),
                _finite_check("absolute_series_within_budget", total_abs, math.log(2.0) * block["sites"]),
            ],
            "values": [
                ["exact.re", exact.real],
                ["exact.im", exact.imag],
                ["series.re", signed.partial_sums[-1].real],
                ["series.im", signed.partial_sums[-1].imag],
                ["absolute", float(np.real(absolute.partial_sums[-1]))],
                ["tail", tail],
            ],
        }

    return Op(f"series_k{order} {block['label']}", call, check)


def _tree_op(block, polymer) -> Op:
    model, region, omega, delta = block["model"], block["region"], block["omega"], block["delta"]

    def call():
        bounds = pg.tree_graph_bound_check(model, polymer, region=region, omega=omega)
        norms = {k: pg.weight_norm(model, k, "w1", delta, region=region, omega=omega) for k in (2, 3)}
        closed = {
            k: pg.weight_norm_bound(k, delta, block["sigma"], block["step_norm"], c=1.0) for k in (2, 3)
        }
        return bounds, norms, closed

    def check(result):
        tb, norms, closed = result
        checks = [
            _finite_check("tree_margin", 0.0, tb.margin_trees + 1e-12),
            _finite_check("chain_margin", 0.0, tb.margin_chain + 1e-12),
            _finite_check("coupling_margin", 0.0, tb.margin_j + 1e-12),
            _finite_check("stability", tb.stability_floor - 1e-12, tb.stability_lhs),
        ]
        checks += [_finite_check(f"weight_norm_{k}", norms[k], closed[k] + 1e-15) for k in (2, 3)]
        values = [["mayer_lhs", tb.lhs], ["rhs_trees", tb.rhs_trees], ["rhs_j", tb.rhs_j]]
        values += [[f"weight_norm_{k}", norms[k]] for k in (2, 3)]
        return {"checks": checks, "values": values}

    return Op(f"tree {block['label']}", call, check)


# ---------------------------------------------------------------------------
# trend-sample: exact trend rows mixed with Metropolis estimates.

# Half the operations are Metropolis runs of about the same cost, so p50
# falls among them; the two q = 3, n = 15 rows of each pass sit between
# ranks 85% and 95%, so p90 falls among them.
TREND_CYCLE = (
    ("trend", 2, 12), ("stat",), ("trend", 2, 16), ("gap", 16), ("trend", 3, 15),
    ("stat",), ("trend", 3, 13), ("gap", 32), ("trend", 2, 24), ("stat",),
    ("trend", 2, 18), ("stat",), ("trend", 3, 11), ("gap", 16), ("trend", 3, 15),
    ("stat",), ("trend", 2, 20), ("gap", 32), ("trend", 2, 22), ("stat",),
)
# (dimension, radius) of the small random models of the statistics checks.
STAT_SHAPES = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1))
TREND_BOX_RADIUS = 16


def _chain_region(n: int, start: int):
    return tuple((start + x,) for x in range(n))


def chain_exact(values, strength: float, fields) -> dict:
    """Exact law of S on a nearest-neighbour chain by transfer over sites.

    Independent of the enumeration engine: the weight is carried site by
    site as a (last spin, partial sum) table.
    """
    v = np.asarray(values, dtype=float)
    q, n = len(v), len(fields)
    width = n * (q - 1) + 1
    table = np.zeros((q, width))
    for a in range(q):
        table[a, a] = math.exp(fields[0] * v[a])
    for k in range(1, n):
        step = np.exp(strength * np.outer(v, v) + fields[k] * v[None, :])
        grown = np.zeros((q, width))
        for b in range(q):
            grown[b, b:] = (step[:, b][:, None] * table[:, : width - b]).sum(axis=0)
        table = grown / grown.sum()
    probs = table.sum(axis=0)
    probs /= probs.sum()
    support = n * int(values[0]) + np.arange(width)
    mean = float(probs @ support)
    var = float(probs @ (support - mean) ** 2)
    root = math.sqrt(var)
    z = (support - mean) / root
    gap = float(np.abs(root * probs - np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)).max())
    return {"mean": mean, "variance": var, "gap": gap}


def _chain_fields(strength: float, boundary: dict, n: int) -> list[float]:
    """Boundary slopes of a chain region: its two end sites each see one
    exterior neighbour, which carries the boundary value."""
    b = boundary.get("value", 0) if boundary["kind"] == "constant" else 0
    fields = [0.0] * n
    fields[0] += strength * b
    fields[-1] += strength * b
    return fields


def trend_sample(seed: int, n_ops: int, workdir: Path, root: Path) -> list[Op]:
    ops = []
    for i in range(n_ops):
        rng = _rng(seed, "trend-sample", i)
        entry = TREND_CYCLE[i % len(TREND_CYCLE)]
        if entry[0] == "trend":
            ops.append(_trend_op(rng, entry[1], entry[2]))
        elif entry[0] == "gap":
            ops.append(_gap_op(rng, entry[1]))
        else:
            stat_index = (i // len(TREND_CYCLE)) * TREND_CYCLE.count(("stat",)) + TREND_CYCLE[
                : i % len(TREND_CYCLE)
            ].count(("stat",))
            ops.append(_stat_op(rng, *STAT_SHAPES[stat_index % len(STAT_SHAPES)]))
    return ops


def _chain_input(rng, q: int, n: int, lo: float, hi: float):
    spin = _spin(rng, q)
    strength = _signed(rng, lo, hi)
    boundary = _boundary(rng, spin)
    model = _model(1, TREND_BOX_RADIUS, 1, spin, strength, boundary)
    start = int(rng.integers(-TREND_BOX_RADIUS, TREND_BOX_RADIUS + 2 - n))
    exact = chain_exact(model.spin.values, strength, _chain_fields(strength, boundary, n))
    return model, _chain_region(n, start), exact


def _trend_op(rng, q: int, n: int) -> Op:
    model, region, exact = _chain_input(rng, q, n, 0.05, 0.3)

    def call():
        return vf.lclt_trend([(model, region)])[0]

    def check(row):
        tol = lambda x: 1e-9 * abs(x) + 1e-12  # noqa: E731
        return {
            "checks": [
                _finite_check("gap_vs_transfer", abs(row.gap - exact["gap"]), tol(exact["gap"])),
                _finite_check(
                    "variance_density_vs_transfer",
                    abs(row.variance_density - exact["variance"] / n),
                    tol(exact["variance"] / n),
                ),
            ],
            "values": [["gap", row.gap], ["variance_density", row.variance_density]],
        }

    return Op(f"trend q{q}-n{n}", call, check)


def _mc_check(name: str, est, truth: float) -> list:
    return _finite_check(name, abs(est.value - truth), MC_FAIL_SE * est.std_error + 1e-12)


def _misses_3se(*pairs) -> int:
    return sum(abs(est.value - truth) > MC_NOTE_SE * est.std_error + 1e-12 for est, truth in pairs)


def _gap_op(rng, n: int) -> Op:
    model, region, exact = _chain_input(rng, 2, n, 0.02, 0.2)
    spec = mc.ChainSpec(seed=int(rng.integers(0, 1 << 31)), burn_in=100, samples=1000, chains=4)

    def call():
        return mc.sample_pmf_gap(model, spec, region)["gap"]

    def check(est):
        return {
            "checks": [_mc_check("mc_gap", est, exact["gap"])],
            "misses_3se": _misses_3se((est, exact["gap"])),
            "values": [["gap", est.value], ["std_error", est.std_error], ["exact_gap", exact["gap"]]],
        }

    return Op(f"mc_gap n{n}", call, check)


def _stat_op(rng, dimension: int, radius: int) -> Op:
    spin = ((0, 1), (-1, 0), (-1, 1))[int(rng.integers(0, 3))]
    model = _model(dimension, radius, 1, spin, _signed(rng, 0.0, 0.3), _boundary(rng, spin))
    spec = mc.ChainSpec(seed=int(rng.integers(0, 1 << 31)), burn_in=100, samples=1000, chains=4)

    def call():
        return mc.sample_statistics(model, spec), ee.statistics(model)

    def check(result):
        est, exact = result
        return {
            "checks": [
                _mc_check("mc_mean", est["mean"], exact.mean_S),
                _mc_check("mc_variance", est["variance"], exact.variance_S),
            ],
            "misses_3se": _misses_3se((est["mean"], exact.mean_S), (est["variance"], exact.variance_S)),
            "values": [
                ["mean", est["mean"].value],
                ["variance", est["variance"].value],
                ["exact_mean", exact.mean_S],
                ["exact_variance", exact.variance_S],
            ],
        }

    return Op(f"mc_stat {dimension}d-r{radius}", call, check)


BUILDERS = {"cli-decay": cli_decay, "gas-series": gas_series, "trend-sample": trend_sample}
# Operations in one pass of each workload's schedule: every pass does the
# same kinds of work on fresh inputs.
CYCLE_OPS = {
    "cli-decay": len(CLI_COMMANDS) * len(DECAY_SHAPES),
    "gas-series": len(GAS_BLOCK) * len(GAS_SHAPES),
    "trend-sample": len(TREND_CYCLE),
}
# Operations per second at the seed commit on a 2-core x86 VM (Python
# 3.11, numpy 2.4). A run of --seconds s holds whole passes worth about
# that long, and never fewer than MIN_OPS operations, so that ten
# latencies lie beyond p90.
NOMINAL_OPS_PER_S = {"cli-decay": 4.5, "gas-series": 20.0, "trend-sample": 7.0}
MIN_OPS = 100


def op_count(workload: str, seconds: float) -> int:
    cycle = CYCLE_OPS[workload]
    passes = max(math.ceil(MIN_OPS / cycle), math.ceil(seconds * NOMINAL_OPS_PER_S[workload] / cycle))
    return passes * cycle
