"""lclt-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-decay --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; lclt_lab is imported from its src/. The
workload runs in a fresh worker process (worker.py) as a closed loop over a
fixed operation list of about --seconds worth of work at the seed commit.

--trace 0 prints the end-to-end metrics: setup_s (median of seven fresh
interpreters), ops_per_s, op_ms_p50, op_ms_p90 and peak_rss_mb. Times are
host-adjusted: each is scaled by CAL_REF_S over the time a fixed
calibration kernel took around it, which removes the drift of a shared
host's speed. The unadjusted values are printed above the JSON line.
--trace 1 runs a list of half that length untraced and then traced, in
two processes, and prints the per-layer metrics of the traced run plus
trace.overhead_ratio; the two runs must produce identical results. Half
length keeps both runs, with the tracing overhead, within the time limit.

The last line of output is one JSON object: correct, attempted, failed and
metrics. Exit code 0 when a result was printed, 1 when a worker failed, 2
when the checkout holds no lclt_lab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cli-decay", "gas-series", "trend-sample")

SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
# Reference time of worker.calibrate(); a time t measured while the kernel
# takes c is reported as t * CAL_REF_S / c. The kernel ran about 1 ms on
# the 2-vCPU VM that defined the benchmark, where it ranged over 0.8 to
# 1.5 ms as the host's speed drifted.
CAL_REF_S = 1e-3
CAL_WINDOW = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "t_points": "count",
    "conditionings": "count",
    "ms_per_t": "ms",
    "states": "count",
    "mstates_per_s": "Mstate/s",
    "moments_cache_hit_ratio": "ratio",
    "gas_cache_hit_ratio": "ratio",
    "gas_sum_ms": "ms",
    "direct_ms": "ms",
    "connected_sum_calls": "count",
    "connected_sum_us": "us",
    "series_ms_per_call": "ms",
    "ursell_calls": "count",
    "ursell_us": "us",
    "ursell_nonzero_ratio": "ratio",
    "sweeps": "count",
    "us_per_sweep": "us",
    "site_updates_per_s": "1/s",
    "checks": "count",
    "overhead_ratio": "ratio",
}


def worker_env() -> dict:
    """The user's environment, minus LCLT_LAB_THREADS, with BLAS threads
    capped at the cores this process may use."""
    env = dict(os.environ)
    env.pop("LCLT_LAB_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in env:
            try:
                env[var] = str(max(1, min(int(env[var]), nproc)))
            except ValueError:
                env[var] = str(nproc)
    return env


class WorkerError(RuntimeError):
    pass


def call_worker(args: list[str], timeout: float) -> dict:
    if timeout <= 0:
        raise WorkerError("no time left for the worker")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker {' '.join(args)} passed {timeout:.0f} s") from err
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def host_adjusted(latencies: list[float], calibration: list[float]) -> list[float]:
    """Each latency scaled by CAL_REF_S over the median of the calibrations
    within CAL_WINDOW operations of it; calibration[i] ran just before
    operation i and calibration[-1] after the last one."""
    out = []
    for i, t in enumerate(latencies):
        near = calibration[max(0, i - CAL_WINDOW + 1) : i + CAL_WINDOW + 1]
        out.append(t * CAL_REF_S / statistics.median(near))
    return out


def throughput(latencies: list[float], cycle: int) -> float:
    """Median over the run's passes of operations per second. Each pass does
    the same kinds of work, so a slow stretch of a shared host moves a few
    passes and not the median."""
    passes = [latencies[k : k + cycle] for k in range(0, len(latencies) - cycle + 1, cycle)]
    if not passes:
        return len(latencies) / sum(latencies)
    return statistics.median(len(p) / sum(p) for p in passes)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def describe(summary: dict) -> None:
    print(f"machine: {json.dumps(summary['machine'], sort_keys=True)}")
    ops = summary["ops"]
    print(
        f"{summary['workload']} seed {summary['seed']}: {ops} ops, {summary['failed']} failed "
        f"(fail_ratio {summary['failed'] / ops:.4f}), Monte Carlo misses beyond 3 se: {summary['mc_misses_3se']}"
    )
    print(f"results digest {summary['results_digest']}, reports digest {summary['reports_digest']}")
    ref = summary["reference"]
    if ref["checked"]:
        print(f"reference: {len(ref['mismatches'])} mismatches")
    for line in summary["failures"][:10] + ref["mismatches"][:10]:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lclt_lab" / "__init__.py").is_file():
        print(f"error: no lclt_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    def base(seconds: float) -> list[str]:
        return ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]

    def left(runs_to_go: int) -> float:
        return (TIME_LIMIT_S - (time.perf_counter() - started)) / runs_to_go

    try:
        if args.trace == 0:
            # The first interpreter in a fresh checkout also compiles the
            # sources; it is not a sample.
            call_worker(base(args.seconds) + ["--setup-only"], 60.0)
            setups = [call_worker(base(args.seconds) + ["--setup-only"], 60.0) for _ in range(SETUP_SAMPLES - 1)]
            budget = left(1) - 5.0
            summary = call_worker(base(args.seconds) + ["--deadline-s", str(budget - 5.0)], budget)
            describe(summary)
            setups.append(summary)
            raw = summary["latencies_s"]
            lat = host_adjusted(raw, summary["calibration_s"])
            values = {
                "setup_s": statistics.median(
                    s["setup_s"] * CAL_REF_S / statistics.median(s["setup_calibration_s"]) for s in setups
                ),
                "ops_per_s": throughput(lat, summary["cycle_ops"]),
                "op_ms_p50": 1e3 * statistics.median(lat),
                "op_ms_p90": 1e3 * p90(lat),
                "peak_rss_mb": summary["peak_rss_mb"],
            }
            print(
                f"unadjusted: setup_s {statistics.median(s['setup_s'] for s in setups):.4f}, "
                f"ops_per_s {throughput(raw, summary['cycle_ops']):.4f}, op_ms_p50 {1e3 * statistics.median(raw):.4f}, "
                f"op_ms_p90 {1e3 * p90(raw):.4f}; calibration median {1e3 * statistics.median(summary['calibration_s']):.4f} ms"
            )
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            correct = summary["failed"] == 0 and not summary["reference"]["mismatches"]
        else:
            budget = left(2) - 5.0
            plain = call_worker(base(args.seconds / 2) + ["--deadline-s", str(budget - 5.0)], budget)
            budget = left(1) - 5.0
            summary = call_worker(base(args.seconds / 2) + ["--trace", "--deadline-s", str(budget - 5.0)], budget)
            describe(summary)
            same = all(plain[k] == summary[k] for k in ("results_digest", "reports_digest"))
            print(f"traced and untraced results identical: {same}")
            layer = dict(summary["per_layer"])
            layer["trace.overhead_ratio"] = (
                sum(host_adjusted(summary["latencies_s"], summary["calibration_s"]))
                / sum(host_adjusted(plain["latencies_s"], plain["calibration_s"]))
                - 1.0
            )
            metrics = {
                k: {"value": v, "unit": PER_LAYER_UNITS[k.split(".", 1)[1]]} for k, v in layer.items()
            }
            correct = (
                same
                and plain["failed"] == 0
                and summary["failed"] == 0
                and not plain["reference"]["mismatches"]
                and not summary["reference"]["mismatches"]
            )
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": summary["ops"], "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
