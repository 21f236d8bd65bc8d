"""Command-line front end.

Every subcommand loads a model from a JSON config (where one is needed),
runs its checks, writes three files into the output directory, and exits
0 when everything passed, 1 when some verification failed, and 2 on
configuration, domain, or capacity errors.

Output files:
  reports.jsonl  one JSON object per line: check lines (check, parameters,
                 lhs, rhs, margin, pass) and record lines (record, values).
  summary.csv    one row per check line.
  run_meta.json  timestamps, per-check runtimes, versions, argv.

reports.jsonl and summary.csv carry no timestamps or runtimes, so a rerun
with the same inputs produces byte-identical files; everything volatile is
segregated into run_meta.json.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from . import exactengine as ee
from . import model as m
from . import montecarlo as mc
from . import polymer as pg
from . import verifier as vf
from .combinatorics import (
    CONNECTED_COUNTS_KNOWN,
    graph_census,
    spanning_tree_edge_sets,
    ursell_hardcore,
)
from .errors import CapacityError, DomainError, PreconditionError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    command: str
    config_path: str | None
    out_dir: str
    seed: int
    t_points: int
    c_variant: str
    budget: int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lclt-lab",
        description="Exact verification of characteristic-function decay for lattice spin models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="model JSON file")
        p.add_argument("--out", default="reports", help="output directory (default: reports)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--t-points", type=int, default=64, dest="t_points")
        p.add_argument("--c-variant", choices=["stated", "proved"], default="proved", dest="c_variant")
        p.add_argument("--budget", type=int, default=ee.DEFAULT_BUDGET)

    common(sub.add_parser("constants", help="derived constants and the decimation-step condition"))
    p = sub.add_parser("min-r0", help="smallest decimation step passing the smallness condition")
    common(p)
    p.add_argument("--r0-max", type=int, default=vf.DEFAULT_R0_MAX, dest="r0_max")
    p = sub.add_parser("identity-check", help="gas partition function: direct vs polymer sum")
    common(p)
    p.add_argument("--dressed", action="store_true", help="also check the dressed variant")
    p = sub.add_parser("graph-tables", help="connected-graph, tree, and cumulant tables")
    common(p, config=False)
    p.add_argument("--max-k", type=int, default=6, dest="max_k")
    common(sub.add_parser("site-cf", help="single-site characteristic-function contraction"))
    common(sub.add_parser("decay-small-t", help="Gaussian decay on (0, delta]"))
    common(sub.add_parser("decay-large-t", help="volume decay on (delta, pi]"))
    p = sub.add_parser("integrals", help="four-integral bound on the lattice-vs-Gaussian gap")
    common(p)
    p.add_argument("--a-cut", type=float, required=True, dest="a_cut")
    p.add_argument("--delta", type=float, default=None)
    p = sub.add_parser("lclt-scan", help="gap and variance density across growing chains")
    common(p)
    p.add_argument("--sizes", default="5,9,13", help="comma-separated chain lengths")
    p = sub.add_parser("mc", help="Metropolis estimates against exact enumeration")
    common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--burn-in", type=int, default=500, dest="burn_in")
    return parser


def _load_model(path: str) -> m.GibbsModel:
    return m.model_from_json(Path(path).read_text())


def _record(kind: str, values: dict) -> dict:
    return {"record": kind, "values": values}


def _check_lines(reports) -> list[dict]:
    return [r.as_dict() for r in reports]


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(out_dir: str, lines: list[dict], meta: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "reports.jsonl", "w") as fh:
        for line in lines:
            fh.write(json.dumps(_sanitize(line), sort_keys=True) + "\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "lhs", "rhs", "margin", "pass"])
        for line in lines:
            if "check" in line:
                writer.writerow(
                    [line["check"], repr(line["lhs"]), repr(line["rhs"]), repr(line["margin"]), line["pass"]]
                )
    with open(out / "run_meta.json", "w") as fh:
        json.dump(_sanitize(meta), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _grid(lo: float, hi: float, count: int, include_lo: bool = False) -> list[float]:
    if count < 1:
        raise DomainError(f"need at least one t point, got {count}")
    if include_lo:
        return [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]
    return [lo + (hi - lo) * (i + 1) / count for i in range(count)]


def _cmd_constants(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    consts = vf.constants(model, run.c_variant)
    started = time.perf_counter()
    rhs = min(consts.r0_threshold_gauss, consts.r0_threshold_dressed)
    report = vf.VerificationReport(
        check_name="decimation_step_condition",
        parameters={"r0": consts.r0, "c_variant": run.c_variant},
        lhs=consts.r0_condition_lhs,
        rhs=rhs,
        margin=rhs - consts.r0_condition_lhs,
        passed=consts.r0_condition_ok,
        runtime_ms=(time.perf_counter() - started) * 1000.0,
    )
    lines = [_record("constants", consts.as_dict()), report.as_dict()]
    return lines, not report.passed


def _cmd_min_r0(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    try:
        r0 = vf.min_r0(model, args.r0_max, run.c_variant)
    except PreconditionError as err:
        print(f"no decimation step up to {args.r0_max} satisfies the condition")
        return [_record("min_r0", {"found": False, "r0_max": args.r0_max, "reason": str(err)})], True
    print(f"smallest admissible decimation step: r0 = {r0}")
    return [_record("min_r0", {"found": True, "r0": r0, "r0_max": args.r0_max})], False


def _cmd_identity_check(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    rng = np.random.default_rng(run.seed)
    ts = [0.0] + sorted(rng.uniform(0.0, math.pi, size=max(run.t_points - 1, 1)).tolist())
    variants = [0.0]
    if args.dressed:
        variants.append(vf.constants(model, run.c_variant).c_selected)
    lines: list[dict] = []
    failed = False
    for c in variants:
        # Xi(t) has analytic zeros (two-state spins at t near pi), where
        # agreement relative to Xi(t) itself is unattainable; the floor
        # 1e-6 * Xi(0) pins those points to cancellation-level absolute
        # agreement instead.
        xi0 = abs(pg.polymer_partition(model, pg.ActivityParams(t=0.0, c=c), "decimated", mode="direct"))
        for t in ts:
            params = pg.ActivityParams(t=t, c=c)
            started = time.perf_counter()
            direct = pg.polymer_partition(model, params, "decimated", mode="direct")
            gas = pg.polymer_partition(model, params, "decimated", mode="polymer_sum")
            rel = abs(direct - gas) / max(abs(direct), 1e-6 * xi0)
            report = vf.VerificationReport(
                check_name="partition_identity",
                parameters={"t": t, "c": c},
                lhs=rel,
                rhs=1e-10,
                margin=1e-10 - rel,
                passed=rel <= 1e-10,
                runtime_ms=(time.perf_counter() - started) * 1000.0,
            )
            failed = failed or not report.passed
            lines.append(report.as_dict())
    return lines, failed


def _cmd_graph_tables(run: RunConfig, args) -> tuple[list[dict], bool]:
    if args.max_k < 1:
        raise DomainError(f"--max-k must be at least 1, got {args.max_k}")
    lines: list[dict] = []
    failed = False
    census = graph_census(min(args.max_k, 7))
    for row in census:
        lines.append(_record("graph_census", row))
    for row in census:
        k = row["k"]
        if k - 1 < len(CONNECTED_COUNTS_KNOWN):
            expected = CONNECTED_COUNTS_KNOWN[k - 1]
            ok = row["connected"] == expected
            failed = failed or not ok
            lines.append(
                {
                    "check": "connected_graph_count",
                    "parameters": {"k": k},
                    "lhs": float(row["connected"]),
                    "rhs": float(expected),
                    "margin": float(expected - row["connected"]),
                    "pass": ok,
                }
            )
    for k in range(2, min(args.max_k, 8) + 1):
        expected = k ** (k - 2)
        got = len(spanning_tree_edge_sets(k))
        ok = got == expected
        failed = failed or not ok
        lines.append(
            {
                "check": "labeled_tree_count",
                "parameters": {"k": k},
                "lhs": float(got),
                "rhs": float(expected),
                "margin": float(expected - got),
                "pass": ok,
            }
        )
    for k in range(1, min(args.max_k, 7) + 1):
        expected = (-1.0) ** (k - 1) * math.factorial(k - 1)
        got = ursell_hardcore((frozenset([0]),) * k)
        ok = got == expected
        failed = failed or not ok
        lines.append(
            {
                "check": "identical_polymer_cumulant",
                "parameters": {"k": k},
                "lhs": got,
                "rhs": expected,
                "margin": expected - got,
                "pass": ok,
            }
        )
    return lines, failed


def _cmd_site_cf(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    consts = vf.constants(model, run.c_variant)
    grid = _grid(consts.delta, 2.0 * math.pi - consts.delta, run.t_points, include_lo=True)
    reports = vf.check_single_spin_cf(model, grid, run.c_variant)
    return _check_lines(reports), not vf.all_passed(reports)


def _cmd_decay_small_t(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    consts = vf.constants(model, run.c_variant)
    grid = _grid(0.0, consts.delta, run.t_points)
    reports = vf.check_small_t_decay(model, grid, seed=run.seed, c_variant=run.c_variant, budget=run.budget)
    return _check_lines(reports), not vf.all_passed(reports)


def _cmd_decay_large_t(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    consts = vf.constants(model, run.c_variant)
    grid = _grid(consts.delta, math.pi, run.t_points)
    reports = vf.check_large_t_decay(model, grid, seed=run.seed, c_variant=run.c_variant, budget=run.budget)
    return _check_lines(reports), not vf.all_passed(reports)


def _cmd_integrals(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    dec = vf.integral_decomposition(
        model, args.a_cut, delta=args.delta, c_variant=run.c_variant, budget=run.budget
    )
    lines = [_record("integral_decomposition", dec.as_dict())]
    checks = [("gap_within_integrals", dec.g_n, dec.total + 1e-8, dec.bound_holds)]
    if dec.lemma_ok:
        checks.append(("mid_integral_within_gaussian_bound", dec.i2, dec.b_j2 + 1e-12, dec.i2_within))
        checks.append(("tail_integral_within_volume_bound", dec.i3, dec.b_j3 + 1e-12, dec.i3_within))
    failed = False
    for name, lhs, rhs, ok in checks:
        failed = failed or not ok
        lines.append(
            {
                "check": name,
                "parameters": {"a_cut": args.a_cut},
                "lhs": lhs,
                "rhs": rhs,
                "margin": rhs - lhs,
                "pass": ok,
            }
        )
    return lines, failed


def _chain_region(model: m.GibbsModel, length: int) -> tuple:
    r = model.box.radius
    d = model.box.dimension
    if length > 2 * r + 1:
        raise DomainError(f"chain length {length} does not fit in a box of radius {r}")
    return tuple((-r + i,) + (0,) * (d - 1) for i in range(length))


def _cmd_lclt_scan(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as err:
        raise DomainError(f"--sizes must be comma-separated integers: {err}") from None
    if len(sizes) < 2 or sorted(sizes) != sizes:
        raise DomainError("--sizes needs at least two increasing lengths")
    family = [(model, _chain_region(model, n)) for n in sizes]
    rows = vf.lclt_trend(family, budget=run.budget)
    lines = [_record("lclt_trend", {"rows": [row.as_dict() for row in rows]})]
    worst = max(b.gap - a.gap for a, b in zip(rows, rows[1:]))
    ok = worst < 0.0
    lines.append(
        {
            "check": "gap_decreasing",
            "parameters": {"sizes": sizes},
            "lhs": worst,
            "rhs": 0.0,
            "margin": -worst,
            "pass": ok,
        }
    )
    return lines, not ok


def _cmd_mc(run: RunConfig, args) -> tuple[list[dict], bool]:
    model = _load_model(run.config_path)
    spec = mc.ChainSpec(seed=run.seed, burn_in=args.burn_in, samples=args.samples, chains=args.chains)
    est = mc.sample_statistics(model, spec)
    exact = ee.statistics(model, "box", budget=run.budget)
    lines = [
        _record(
            "mc_estimates",
            {
                "mean": vars(est["mean"]),
                "variance": vars(est["variance"]),
                "exact_mean": exact.mean_S,
                "exact_variance": exact.variance_S,
            },
        )
    ]
    failed = False
    for name, e, truth in (("mean", est["mean"], exact.mean_S), ("variance", est["variance"], exact.variance_S)):
        rhs = 3.0 * e.std_error + 1e-12
        lhs = abs(e.value - truth)
        ok = lhs <= rhs
        failed = failed or not ok
        lines.append(
            {
                "check": f"mc_{name}_consistency",
                "parameters": {"samples": args.samples, "chains": args.chains, "seed": run.seed},
                "lhs": lhs,
                "rhs": rhs,
                "margin": rhs - lhs,
                "pass": ok,
            }
        )
    return lines, failed


_COMMANDS = {
    "constants": _cmd_constants,
    "min-r0": _cmd_min_r0,
    "identity-check": _cmd_identity_check,
    "graph-tables": _cmd_graph_tables,
    "site-cf": _cmd_site_cf,
    "decay-small-t": _cmd_decay_small_t,
    "decay-large-t": _cmd_decay_large_t,
    "integrals": _cmd_integrals,
    "lclt-scan": _cmd_lclt_scan,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = RunConfig(
        command=args.command,
        config_path=getattr(args, "config", None),
        out_dir=args.out,
        seed=args.seed,
        t_points=args.t_points,
        c_variant=args.c_variant,
        budget=args.budget,
    )
    started_wall = datetime.datetime.now(datetime.timezone.utc).isoformat()
    started = time.perf_counter()
    try:
        lines, failed = _COMMANDS[args.command](run, args)
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except jsonschema.ValidationError as err:
        print(f"error: invalid model config: {err.message}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, CapacityError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    meta = {
        "argv": list(sys.argv[1:]) if argv is None else list(argv),
        "command": args.command,
        "started": started_wall,
        "runtime_ms": (time.perf_counter() - started) * 1000.0,
        "version": __version__,
    }
    _emit(run.out_dir, lines, meta)
    checks = [ln for ln in lines if "check" in ln]
    n_fail = sum(1 for ln in checks if not ln["pass"])
    for ln in checks:
        tag = "PASS" if ln["pass"] else "FAIL"
        print(f"{tag} {ln['check']} lhs={ln['lhs']:.6g} rhs={ln['rhs']:.6g}")
    if checks:
        print(f"{len(checks) - n_fail}/{len(checks)} checks passed; reports in {run.out_dir}/")
    else:
        print(f"reports in {run.out_dir}/")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
