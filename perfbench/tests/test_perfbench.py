"""The benchmark's own tests: python3 -m pytest perfbench/tests

Worker runs go through subprocesses, as the benchmark runs them, at smoke
sizes of a few operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_OPS = 10


def worker(workload, seed, ops=SMOKE_OPS, *extra):
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--ops", str(ops), *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    got = worker(workload, 5)
    assert got["ops"] == SMOKE_OPS
    assert len(got["latencies_s"]) == SMOKE_OPS
    assert got["failed"] == 0, got["failures"]
    assert got["setup_s"] > 0 and got["peak_rss_mb"] > 0
    assert got["machine"]["LCLT_LAB_THREADS"] is None
    assert got["machine"]["blas_threads"] <= got["machine"]["nproc"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_identical_results(workload):
    plain = worker(workload, 7, 8)
    traced = worker(workload, 7, 8, "--trace")
    assert plain["results_digest"] == traced["results_digest"]
    assert plain["reports_digest"] == traced["reports_digest"]
    layer = traced["per_layer"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layer) | {"trace.overhead_ratio"} == {m["name"] for m in declared}
    assert sum(layer[f"{name}.self_s"] for name in tracing.LAYERS) > 0


def test_declared_metrics_match_what_run_prints():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    for m in declared["per_layer"]:
        assert run.PER_LAYER_UNITS[m["name"].split(".", 1)[1]] == m["unit"]
    assert declared["workloads"] and [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_operation_count(workload):
    a, b, again = worker(workload, 1, 6), worker(workload, 2, 6), worker(workload, 1, 6)
    assert a["ops"] == b["ops"] == 6
    assert a["results_digest"] != b["results_digest"]
    assert again["results_digest"] == a["results_digest"]
    assert again["reports_digest"] == a["reports_digest"]


def _module_functions():
    return {
        (name, attr): obj
        for name, module in tracing._modules().items()
        for attr, obj in vars(module).items()
        if callable(obj) and not isinstance(obj, type)
    }


def test_wrappers_cover_aliases_and_are_restored(tmp_path):
    import lclt_lab.combinatorics as cb
    import lclt_lab.exactengine as ee
    import lclt_lab.polymer as pg

    before = _module_functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr in ((pg, "connected_sum"), (pg, "ursell_hardcore"), (ee, "build_system"), (ee, "_scan")):
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        ops = workloads.gas_series(3, 4, tmp_path, ROOT)
        for i, op in enumerate(ops):
            tracer.op_id = i
            op.call()
    finally:
        tracer.restore()
    assert _module_functions() == before
    assert cb.connected_sum is before[("lclt_lab.combinatorics", "connected_sum")]
    metrics = tracer.metrics()
    assert metrics["combinatorics.connected_sum_calls"] > 0
    assert metrics["combinatorics.ursell_calls"] > 0
    # identity, series, identity, tree: 3 + 3 + 3 + 5 calls into polymer
    assert metrics["polymer.calls"] == 14
    tracer.save(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").is_file()


def test_transfer_oracle_matches_enumeration():
    import lclt_lab.exactengine as ee

    for q, strength, boundary in ((2, 0.2, {"kind": "constant", "value": 1}), (3, -0.15, {"kind": "zero"})):
        spin = (0, 1) if q == 2 else (-1, 1)
        model = workloads._model(1, workloads.TREND_BOX_RADIUS, 1, spin, strength, boundary)
        region = workloads._chain_region(10, -3)
        exact = workloads.chain_exact(model.spin.values, strength, workloads._chain_fields(strength, boundary, 10))
        stats = ee.statistics(model, region)
        assert exact["gap"] == pytest.approx(ee.lclt_gap(model, region), rel=1e-10)
        assert exact["variance"] == pytest.approx(stats.variance_S, rel=1e-10)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-decay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
