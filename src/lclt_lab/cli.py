"""Command-line front end.

Every subcommand loads a model from a JSON config (where one is needed),
runs its checks, writes three files into the output directory, and exits
0 when everything passed, 1 when some verification failed, and 2 on
configuration, domain, or capacity errors.

Output files:
  reports.jsonl  one JSON object per line: check lines (check, parameters,
                 lhs, rhs, margin, pass) and record lines (record, values).
  summary.csv    one row per check line.
  run_meta.json  start time, total runtime, version, argv.

reports.jsonl and summary.csv carry no timestamps or runtimes, so a rerun
with the same inputs produces byte-identical files; everything volatile is
segregated into run_meta.json.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import exactengine as ee
from . import model as m
from . import montecarlo as mc
from . import polymer as pg
from . import verifier as vf
from .combinatorics import CONNECTED_COUNTS_KNOWN, connected_sum, graph_census
from .errors import CapacityError, DomainError, PreconditionError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main call in
    the process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="lclt-lab",
        description="Exact verification of characteristic-function decay for lattice spin models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, t_points=False, c_variant=True, budget=False):
        """The options every subcommand shares, and those of the three that
        only some read."""
        if config:
            p.add_argument("--config", required=True, help="model JSON file")
        p.add_argument("--out", default="reports", help="output directory (default: reports)")
        # every subcommand takes --seed, also those that draw nothing:
        # perfbench's cli-decay workload passes one to constants, site-cf
        # and integrals
        p.add_argument("--seed", type=int, default=0)
        if t_points:
            p.add_argument("--t-points", type=int, default=64, dest="t_points")
        if c_variant:
            p.add_argument("--c-variant", choices=["stated", "proved"], default="proved", dest="c_variant")
        if budget:
            p.add_argument("--budget", type=int, default=ee.DEFAULT_BUDGET)

    common(sub.add_parser("constants", help="derived constants and the decimation-step condition"))
    p = sub.add_parser("min-r0", help="smallest decimation step passing the smallness condition")
    common(p)
    p.add_argument("--r0-max", type=int, default=vf.DEFAULT_R0_MAX, dest="r0_max")
    p = sub.add_parser("identity-check", help="gas partition function: direct vs polymer sum")
    common(p, t_points=True)
    p.add_argument("--dressed", action="store_true", help="also check the dressed variant")
    p = sub.add_parser("graph-tables", help="connected-graph, tree, and cumulant tables")
    common(p, config=False, c_variant=False)
    p.add_argument("--max-k", type=int, default=6, dest="max_k")
    common(sub.add_parser("site-cf", help="single-site characteristic-function contraction"), t_points=True)
    common(sub.add_parser("decay-small-t", help="Gaussian decay on (0, delta]"), t_points=True, budget=True)
    common(sub.add_parser("decay-large-t", help="volume decay on (delta, pi]"), t_points=True, budget=True)
    p = sub.add_parser("integrals", help="four-integral bound on the lattice-vs-Gaussian gap")
    common(p, budget=True)
    p.add_argument("--a-cut", type=float, required=True, dest="a_cut")
    p = sub.add_parser("lclt-scan", help="gap and variance density across growing chains")
    common(p, c_variant=False, budget=True)
    p.add_argument("--sizes", default="5,9,13", help="comma-separated chain lengths")
    p = sub.add_parser("mc", help="Metropolis estimates against exact enumeration")
    common(p, c_variant=False, budget=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--burn-in", type=int, default=500, dest="burn_in")
    return parser


def _load_model(path: str) -> m.GibbsModel:
    return m.model_from_json(Path(path).read_text())


def _record(kind: str, values: dict) -> dict:
    return {"record": kind, "values": values}


def _checked(reports, lines=()) -> tuple[list[dict], bool]:
    """The lines followed by the reports' check lines, and whether any failed."""
    return [*lines, *(r.as_dict() for r in reports)], not vf.all_passed(reports)


def _sanitize(obj):
    """obj for json.dumps; str, bool, int and finite float members pass as they are."""
    if isinstance(obj, dict):
        return dict(zip(obj, _sanitize(list(obj.values()))))
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in (str, bool, int) or type(v) is float and math.isfinite(v) else _sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, complex)):
        return _plain(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _plain(obj):
    """What _sanitize makes of a numpy scalar or a complex number, for the
    encoder's default hook."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# One encoder for every report line. It refuses a non-finite float, so only
# a line holding one takes the _sanitize walk.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, default=_plain)


def _line_json(line) -> str:
    try:
        return _LINE_ENCODER.encode(line)
    except ValueError:
        return json.dumps(_sanitize(line), sort_keys=True)


_CHECK_KEYS = {"check", "parameters", "lhs", "rhs", "margin", "pass"}


def _check_line(line: dict) -> tuple[str, list[str]]:
    """(JSON text, [lhs, rhs, margin] as summary.csv writes them) of a check
    line. When lhs, rhs and margin are finite Python floats, each is
    formatted once by float.__repr__, the formatter the encoder itself
    uses, and the sorted-key object is assembled around those strings with
    the name and parameters encoded as _line_json encodes them; any other
    line takes _line_json whole. The text is _line_json's either way."""
    floats = (line["lhs"], line["rhs"], line["margin"])
    if (
        line.keys() == _CHECK_KEYS
        and type(line["check"]) is str
        and type(line["pass"]) is bool
        and all(type(v) is float and math.isfinite(v) for v in floats)
    ):
        lhs, rhs, margin = texts = list(map(float.__repr__, floats))
        name, parameters = _LINE_ENCODER.encode(line["check"]), _line_json(line["parameters"])
        verdict = "true" if line["pass"] else "false"
        return (
            f'{{"check": {name}, "lhs": {lhs}, "margin": {margin}, "parameters": {parameters},'
            f' "pass": {verdict}, "rhs": {rhs}}}'
        ), texts
    return _line_json(line), list(map(repr, floats))


def _emit(out_dir: str, lines: list[dict], meta: dict) -> None:
    """Write reports.jsonl, summary.csv and run_meta.json into out_dir, each
    with one write.

    A report line is encoded by one shared encoder with sorted keys that
    writes numpy scalars as Python numbers and a complex number as
    {"re", "im"}; a line holding a non-finite float is encoded from
    _sanitize's copy of it instead, which writes a plain float inf or NaN
    as the string "inf" or "nan". Either way the line's bytes are those of
    json.dumps(_sanitize(line), sort_keys=True). A check line's lhs, rhs
    and margin are formatted once for both files (_check_line).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts, rows = [], [["check", "lhs", "rhs", "margin", "pass"]]
    for line in lines:
        if "check" in line:
            text, floats = _check_line(line)
            rows.append([line["check"], *floats, line["pass"]])
        else:
            text = _line_json(line)
        texts.append(f"{text}\n")
    (out / "reports.jsonl").write_text("".join(texts))
    summary = io.StringIO()
    csv.writer(summary).writerows(rows)
    (out / "summary.csv").write_text(summary.getvalue(), newline="")
    (out / "run_meta.json").write_text(json.dumps(_sanitize(meta), sort_keys=True, indent=2) + "\n")


def _check_t_points(count: int) -> None:
    if count < 1:
        raise DomainError(f"need at least one t point, got {count}")


def _grid(lo: float, hi: float, count: int, include_lo: bool = False) -> list[float]:
    _check_t_points(count)
    if include_lo:
        return [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]
    return [lo + (hi - lo) * (i + 1) / count for i in range(count)]


def _cmd_constants(args) -> tuple[list[dict], bool]:
    consts = vf.constants(_load_model(args.config), args.c_variant)
    return _checked([consts.condition_report()], [_record("constants", consts.as_dict())])


def _cmd_min_r0(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    try:
        r0 = vf.min_r0(model, args.r0_max, args.c_variant)
    except PreconditionError as err:
        print(f"no decimation step up to {args.r0_max} satisfies the condition")
        return [_record("min_r0", {"found": False, "r0_max": args.r0_max, "reason": str(err)})], True
    print(f"smallest admissible decimation step: r0 = {r0}")
    return [_record("min_r0", {"found": True, "r0": r0, "r0_max": args.r0_max})], False


def _cmd_identity_check(args) -> tuple[list[dict], bool]:
    _check_t_points(args.t_points)
    model = _load_model(args.config)
    rng = np.random.default_rng(args.seed)
    # t = 0 and t_points - 1 sorted draws
    ts = [0.0] + sorted(rng.uniform(0.0, math.pi, size=args.t_points - 1).tolist())
    variants = [0.0]
    if args.dressed:
        variants.append(vf.constants(model, args.c_variant).c_selected)
    reports = []
    tolerance = 1e-10
    for c in variants:
        # Xi(t) has analytic zeros (two-state spins at t near pi), where
        # agreement relative to Xi(t) itself is unattainable; the floor
        # 1e-6 * Xi(0) pins those points to cancellation-level absolute
        # agreement instead.
        xi0 = abs(pg.polymer_partition(model, pg.ActivityParams(t=0.0, c=c), "decimated", mode="direct"))
        for t in ts:
            params = pg.ActivityParams(t=t, c=c)
            direct = pg.polymer_partition(model, params, "decimated", mode="direct")
            gas = pg.polymer_partition(model, params, "decimated", mode="polymer_sum")
            rel = abs(direct - gas) / max(abs(direct), 1e-6 * xi0)
            reports.append(vf.report("partition_identity", {"t": t, "c": c, "tolerance": tolerance}, rel, tolerance))
    return _checked(reports)


def _cmd_graph_tables(args) -> tuple[list[dict], bool]:
    if args.max_k < 1:
        raise DomainError(f"--max-k must be at least 1, got {args.max_k}")
    # The census stops at 7 vertices, the tree counts at 8. Exact counts:
    # each check passes only on equality.
    census = graph_census(min(args.max_k, 8))
    reports = [
        vf.report("connected_graph_count", {"k": row["k"]}, row["connected"], expected, row["connected"] == expected)
        for row, expected in zip(census, CONNECTED_COUNTS_KNOWN)
    ]
    for row in census[1:]:
        got, expected = row["trees"], row["k"] ** (row["k"] - 2)
        reports.append(vf.report("labeled_tree_count", {"k": row["k"]}, got, expected, got == expected))
    for k in range(1, min(args.max_k, 7) + 1):
        # the Ursell coefficient of k copies of one polymer: every pair overlaps
        got, expected = connected_sum(np.eye(k) - 1.0), (-1.0) ** (k - 1) * math.factorial(k - 1)
        reports.append(vf.report("identical_polymer_cumulant", {"k": k}, got, expected, got == expected))
    return _checked(reports, [_record("graph_census", row) for row in census[:7]])


def _cmd_site_cf(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    consts = vf.constants(model, args.c_variant)
    grid = _grid(consts.delta, 2.0 * math.pi - consts.delta, args.t_points, include_lo=True)
    return _checked(vf.check_single_spin_cf(model, grid, args.c_variant))


def _cmd_decay_small_t(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    consts = vf.constants(model, args.c_variant)
    grid = _grid(0.0, consts.delta, args.t_points)
    return _checked(
        vf.check_small_t_decay(model, grid, seed=args.seed, c_variant=args.c_variant, budget=args.budget)
    )


def _cmd_decay_large_t(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    consts = vf.constants(model, args.c_variant)
    grid = _grid(consts.delta, math.pi, args.t_points)
    return _checked(
        vf.check_large_t_decay(model, grid, seed=args.seed, c_variant=args.c_variant, budget=args.budget)
    )


def _cmd_integrals(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    dec = vf.integral_decomposition(model, args.a_cut, c_variant=args.c_variant, budget=args.budget)
    return _checked(dec.reports(), [_record("integral_decomposition", dec.as_dict())])


def _chain_region(model: m.GibbsModel, length: int) -> tuple:
    r = model.box.radius
    d = model.box.dimension
    if length > 2 * r + 1:
        raise DomainError(f"chain length {length} does not fit in a box of radius {r}")
    return tuple((-r + i,) + (0,) * (d - 1) for i in range(length))


def _cmd_lclt_scan(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as err:
        raise DomainError(f"--sizes must be comma-separated integers: {err}") from None
    if len(sizes) < 2 or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"--sizes needs at least two strictly increasing positive lengths, got {args.sizes}")
    family = [(model, _chain_region(model, n)) for n in sizes]
    rows = vf.lclt_trend(family, budget=args.budget)
    worst = max(b.gap - a.gap for a, b in zip(rows, rows[1:]))
    # Strict: the gap must shrink at every step.
    check = vf.report("gap_decreasing", {"sizes": sizes}, worst, 0.0, worst < 0.0)
    return _checked([check], [_record("lclt_trend", {"rows": [row.as_dict() for row in rows]})])


def _cmd_mc(args) -> tuple[list[dict], bool]:
    model = _load_model(args.config)
    spec = mc.ChainSpec(seed=args.seed, burn_in=args.burn_in, samples=args.samples, chains=args.chains)
    # The exact side checks its work, the transfer steps or states of the
    # route it takes, against the budget before any sweep is run.
    exact = ee.statistics(model, "box", budget=args.budget)
    est = mc.sample_statistics(model, spec)
    record = {
        "mean": vars(est["mean"]),
        "variance": vars(est["variance"]),
        "exact_mean": exact.mean_S,
        "exact_variance": exact.variance_S,
    }
    # the tolerance keeps a round-off difference from failing at zero spread
    params = {"samples": args.samples, "chains": args.chains, "seed": args.seed, "tolerance": 1e-12}
    reports = [
        vf.report(
            f"mc_{name}_consistency", dict(params), abs(e.value - truth), 3.0 * e.std_error + params["tolerance"]
        )
        for name, e, truth in (("mean", est["mean"], exact.mean_S), ("variance", est["variance"], exact.variance_S))
    ]
    return _checked(reports, [_record("mc_estimates", record)])


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
    started_wall = datetime.datetime.now(datetime.timezone.utc).isoformat()
    started = time.perf_counter()
    try:
        lines, failed = _COMMANDS[args.command](args)
    except PreconditionError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
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
    _emit(args.out, lines, meta)
    checks = [ln for ln in lines if "check" in ln]
    n_fail = sum(1 for ln in checks if not ln["pass"])
    text = [
        f"{'PASS' if ln['pass'] else 'FAIL'} {ln['check']} lhs={ln['lhs']:.6g} rhs={ln['rhs']:.6g}" for ln in checks
    ]
    if checks:
        text.append(f"{len(checks) - n_fail}/{len(checks)} checks passed; reports in {args.out}/")
    else:
        text.append(f"reports in {args.out}/")
    print("\n".join(text))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
