"""One run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace]
    python3 perfbench/worker.py --workload W --seed N --seconds S --setup-only

The operation list holds whole passes of the workload's schedule, about
S seconds of work at the seed commit; --ops K sets its length instead.

Set-up is timed from the top of this file, before numpy or lclt_lab is
imported, until every operation's inputs exist. The run then calls the
operations one after another (a closed loop with one caller, no threads),
checks each output, and prints one JSON summary as its last line. With
--trace the layers are wrapped for the run and the summary carries the
per-layer metrics. lclt_lab is imported from src/ of the checkout this
file sits in, never from an installed copy.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_CALIBRATIONS = 7
REF_RTOL = 1e-9
# Round-off residuals (an identity's relative error, say) sit near 1e-16
# and may differ in their last digits between CPUs; they match absolutely.
REF_ATOL = 1e-12


def import_program():
    src = ROOT / "src"
    if not (src / "lclt_lab" / "__init__.py").is_file():
        raise SystemExit(f"no lclt_lab sources under {src}")
    sys.path.insert(0, str(src))
    import lclt_lab

    if Path(lclt_lab.__file__).resolve().parent != (src / "lclt_lab").resolve():
        raise SystemExit(f"imported lclt_lab from {lclt_lab.__file__}, not from {src}")
    return lclt_lab


def _blas_threads() -> int:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": _blas_threads(),
        "LCLT_LAB_THREADS": os.environ.get("LCLT_LAB_THREADS"),
    }


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def op_failed(record: dict) -> str | None:
    """Why an op's record counts as failed, or None."""
    if "error" in record:
        return record["error"]
    for name, passed, lhs, rhs in record["checks"]:
        if not passed:
            return f"check {name} failed: {lhs!r} > {rhs!r}"
        if not (_finite(lhs) and _finite(rhs)):
            return f"check {name} is not finite: {lhs!r}, {rhs!r}"
    for key, value in record["values"]:
        if not _finite(value):
            return f"value {key} is not finite: {value!r}"
    return None


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) + REF_ATOL


def compare(records: list[dict], reference: list[dict]) -> list[str]:
    """Names and verdicts equal; every number within 1e-9 relative."""
    out = []
    for i, (got, want) in enumerate(zip(records, reference)):
        if got.get("kind") != want.get("kind") or ("error" in got) != ("error" in want):
            out.append(f"op {i}: {got.get('kind')} vs reference {want.get('kind')}")
            continue
        if "error" in got:
            continue
        names = [c[:2] for c in got["checks"]], [c[:2] for c in want["checks"]]
        keys = [v[0] for v in got["values"]], [v[0] for v in want["values"]]
        if names[0] != names[1] or keys[0] != keys[1]:
            out.append(f"op {i} ({got['kind']}): check names, verdicts or value keys differ")
            continue
        nums = [(c[0], c[k], w[k]) for c, w in zip(got["checks"], want["checks"]) for k in (2, 3)]
        nums += [(g[0], g[1], w[1]) for g, w in zip(got["values"], want["values"])]
        for name, a, b in nums:
            if not _close(a, b):
                out.append(f"op {i} ({got['kind']}): {name} {a!r} vs reference {b!r}")
                break
    return out


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small numpy work: the
    host-speed reference timed before every operation (see run.py)."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    a = np.linspace(0.0, 1.0, 64)
    m = np.full((64, 64), 1.0 / 64.0)
    for _ in range(40):
        a = np.exp(-a) @ m
    return time.perf_counter() - t0


def run_ops(ops, tracer, deadline: float) -> dict:
    latencies, records, failures = [], [], []
    calibration = []
    misses = 0
    reports = hashlib.sha256()
    results = hashlib.sha256()
    for i, op in enumerate(ops):
        if time.perf_counter() > deadline:
            record = {"kind": op.kind, "error": "not run: deadline passed"}
        else:
            if tracer is not None:
                tracer.op_id = i
            calibration.append(calibrate())
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as err:  # an operation that raises is a failed operation
                result, error = None, f"{type(err).__name__}: {err}"
            latencies.append(time.perf_counter() - t0)
            if error is None:
                try:
                    record = {"kind": op.kind, **op.check(result)}
                except Exception as err:  # malformed output
                    record = {"kind": op.kind, "error": f"check raised {type(err).__name__}: {err}"}
            else:
                record = {"kind": op.kind, "error": error}
        text = record.pop("reports", None)
        if text is not None:
            reports.update(text.encode())
        misses += record.pop("misses_3se", 0)
        why = op_failed(record)
        if why is not None:
            failures.append(f"op {i} ({op.kind}): {why}")
        results.update((json.dumps(record, sort_keys=True) + "\n").encode())
        records.append(record)
    calibration.append(calibrate())
    return {
        "calibration_s": calibration,
        "kinds": [op.kind for op in ops[: len(latencies)]],
        "latencies_s": latencies,
        "records": records,
        "failures": failures,
        "mc_misses_3se": misses,
        "results_digest": results.hexdigest(),
        "reports_digest": reports.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    parser.add_argument("--deadline-s", type=float, default=150.0, dest="deadline_s")
    parser.add_argument("--write-reference", action="store_true", dest="write_reference")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        n_ops = args.ops if args.ops is not None else workloads.op_count(args.workload, args.seconds)
        ops = workloads.BUILDERS[args.workload](args.seed, n_ops, workdir, ROOT)
        setup_s = time.perf_counter() - STARTED
        setup_calibration = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_calibration_s": setup_calibration}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            run = run_ops(ops, tracer, time.perf_counter() + args.deadline_s)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = run.pop("records")
    reference = REFERENCE / f"{args.workload}.json"
    mismatches: list[str] = []
    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            parser.error(f"the reference is for seed {DEFAULT_SEED}")
        REFERENCE.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
        reference.write_text(f'{{"workload": "{args.workload}", "seed": {args.seed}, "ops": [\n{lines}\n]}}\n')
    elif args.seed == DEFAULT_SEED:
        if reference.is_file():
            mismatches = compare(records, json.loads(reference.read_text())["ops"])
        else:
            mismatches = [f"no reference at {reference.relative_to(ROOT)}"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(records),
        "cycle_ops": workloads.CYCLE_OPS[args.workload],
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        **run,
        "failed": len(run["failures"]),
        "reference": {"checked": args.seed == DEFAULT_SEED, "mismatches": mismatches},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if args.workload != "cli-decay":
        summary["reports_digest"] = None
    if tracer is not None:
        summary["per_layer"] = tracer.metrics()
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
