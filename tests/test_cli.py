import csv
import io
import json
import math
import re
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lclt_lab.cli as cli
import lclt_lab.exactengine as ee
import lclt_lab.model as lm
import lclt_lab.polymer as pg
import oracles
from lclt_lab.errors import CapacityError

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "report_schema.json").read_text())

MODEL_OK = {
    "dimension": 1,
    "radius": 3,
    "r0": 2,
    "spin": {"lo": 0, "hi": 1},
    "coupling": {"kind": "nearest_neighbor", "strength": 0.1},
    "boundary": {"kind": "constant", "value": 1},
}
MODEL_BAD_STEP = {
    "dimension": 1,
    "radius": 2,
    "r0": 1,
    "spin": {"lo": -1, "hi": 1},
    "coupling": {"kind": "nearest_neighbor", "strength": 0.5},
    "boundary": {"kind": "zero"},
}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_OK))
    return str(path)


def _reports(out_dir):
    lines = [json.loads(ln) for ln in (Path(out_dir) / "reports.jsonl").read_text().splitlines()]
    assert lines
    return lines


def test_constants_exit_zero_and_schema(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["constants", "--config", config, "--out", str(out)]) == 0
    for line in _reports(out):
        jsonschema.validate(line, SCHEMA)
    text = capsys.readouterr().out
    assert "PASS decimation_step_condition" in text
    assert "checks passed" in text
    meta = json.loads((out / "run_meta.json").read_text())
    assert set(meta) == {"argv", "command", "started", "runtime_ms", "version"}
    assert meta["command"] == "constants"
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert csv_lines[0] == "check,lhs,rhs,margin,pass"
    assert any(ln.startswith("decimation_step_condition,") for ln in csv_lines[1:])


def test_failing_condition_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MODEL_BAD_STEP))
    out = tmp_path / "out"
    assert cli.main(["constants", "--config", str(path), "--out", str(out)]) == 1
    assert "FAIL decimation_step_condition" in capsys.readouterr().out


def test_invalid_config_exit_two(tmp_path, capsys):
    """A config the schema refuses exits 2 naming the JSON path of the
    field at fault; so does a file that is not JSON."""
    bad = tmp_path / "broken.json"
    boundary = {"kind": "explicit", "assignments": [[[4], 1], [[-4], 0], [4, 1]]}
    for config, where in (
        ({"dimension": 1}, "radius: is a required property"),
        ({**MODEL_OK, "radius": 3.5}, "radius: 3.5 is not of type 'integer'"),
        ({**MODEL_OK, "r0": True}, "r0: True is not of type 'integer'"),
        ({**MODEL_OK, "extra": 1}, "extra: is not an allowed property"),
        ({**MODEL_OK, "coupling": {"kind": "cubic"}}, "coupling.kind: 'cubic' is not one of"),
        ({**MODEL_OK, "boundary": boundary}, "boundary.assignments[2][0]: 4 is not of type 'array'"),
        ([MODEL_OK], "the top level: "),
    ):
        bad.write_text(json.dumps(config))
        assert cli.main(["constants", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"error: invalid model config: {where}" in capsys.readouterr().err
    bad.write_text("{not json")
    assert cli.main(["constants", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


EXPLICIT_BOUNDARY = {**MODEL_OK, "boundary": {"kind": "explicit", "assignments": [[[4], 1], [[-4], 0]]}}
EXPLICIT_PAIRS = {**MODEL_OK, "coupling": {"kind": "explicit", "pairs": [[[-1], [0], 0.1], [[0], [1], 0.1]]}}


@pytest.mark.parametrize(
    "base, path",
    [
        (MODEL_OK, ("dimension",)),
        (MODEL_OK, ("radius",)),
        (MODEL_OK, ("r0",)),
        ({**MODEL_OK, "truncation_radius": 1}, ("truncation_radius",)),
        (MODEL_OK, ("spin", "lo")),
        (MODEL_OK, ("spin", "hi")),
        (MODEL_OK, ("boundary", "value")),
        (EXPLICIT_BOUNDARY, ("boundary", "assignments", 0, 1)),
        (EXPLICIT_PAIRS, ("coupling", "pairs", 0, 1, 0)),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_integral_float_runs_as_its_integer(tmp_path, base, path):
    """An integer written as a float, such as 2.0, is an integer to the
    schema and to the model: each command exits as on the integer config
    and writes the same reports.jsonl bytes."""
    twin = json.loads(json.dumps(base))
    *head, last = path
    node = twin
    for key in head:
        node = node[key]
    node[last] = float(node[last])
    for command in ("constants", "site-cf", "decay-large-t"):
        results = []
        for name, config in (("int", base), ("float", twin)):
            config_path, out = tmp_path / f"{name}.json", tmp_path / f"{command}-{name}"
            config_path.write_text(json.dumps(config))
            code = cli.main([command, "--config", str(config_path), "--out", str(out)])
            results.append((code, (out / "reports.jsonl").read_bytes()))
        assert results[0] == results[1], command


def test_repeated_boundary_site_exit_two(tmp_path, capsys):
    path = tmp_path / "twice.json"
    boundary = {"kind": "explicit", "assignments": [[[4], 1], [[-4], 0], [[4], 1]]}
    path.write_text(json.dumps({**MODEL_OK, "boundary": boundary}))
    assert cli.main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate explicit boundary site (4,)" in capsys.readouterr().err


def test_spin_past_two_to_the_53_exit_two(tmp_path, capsys):
    path = tmp_path / "wide_spin.json"
    path.write_text(json.dumps({**MODEL_OK, "spin": {"lo": 2**60, "hi": 2**60 + 1}, "boundary": {"kind": "zero"}}))
    assert cli.main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "spin values must lie within +-2**53 = 9007199254740992" in capsys.readouterr().err


def test_box_past_site_cap_exit_two(tmp_path, capsys):
    """mc lists the whole box and stops at the site cap; the decay scan lists
    only the 513^2 decimated sites and stops at the budget on their exact
    sum, whose work at band 0 already passes it."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**MODEL_OK, "dimension": 2, "radius": 512}))
    assert cli.main(["mc", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "1050625 sites, over the cap" in capsys.readouterr().err
    assert cli.main(["decay-small-t", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "transfer sum needs at least 263169*2^1*263170 steps, budget is 16777216" in capsys.readouterr().err


def test_mc_checks_budget_before_sampling(tmp_path, capsys, monkeypatch):
    """On a 41x41 box the exact side's budget stops mc before any sweep: the
    transfer sum over its band of 41 sites needs 1681*2^42*1682 steps, and
    the sampler is never called."""

    def fail(*args, **kwargs):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(cli.mc, "total_spin_samples", fail)
    path = tmp_path / "box.json"
    path.write_text(json.dumps({**MODEL_OK, "dimension": 2, "radius": 20}))
    assert cli.main(["mc", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "transfer sum needs 1681*2^42*1682 steps, budget is 16777216" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["constants"], ["decay-small-t"], ["integrals", "--a-cut", "0.02"]])
def test_underflowing_delta_exits_two(argv, tmp_path, capsys):
    """At strength 400 kappa = e^-1600 / 2 underflows; every command that
    derives the constants stops with one message naming log delta."""
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({**MODEL_OK, "coupling": {"kind": "nearest_neighbor", "strength": 400.0}}))
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "delta = kappa/(12 sigma) is not a positive normal float64: log delta is -1603.2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coupling, argv, message",
    [
        (
            {"kind": "nearest_neighbor", "strength": 1e308},
            ["lclt-scan", "--sizes", "3,5"],
            "boundary field slope of site (-3,) is inf, not finite in float64",
        ),
        (
            {"kind": "nearest_neighbor", "strength": 1e308},
            ["mc"],
            "boundary field slope of site (-3,) is inf, not finite in float64",
        ),
        (
            {"kind": "power_law", "strength": 0.1, "exponent": math.nan},
            ["constants"],
            "power_law coupling needs a positive finite exponent, got nan",
        ),
        (
            {"kind": "power_law", "strength": 0.1, "exponent": math.inf},
            ["constants"],
            "power_law coupling needs a positive finite exponent, got inf",
        ),
        *(
            ({"kind": "explicit", "pairs": [[[0], [1], math.nan]]}, argv, "pair ((0,), (1,)) has the coupling nan")
            for argv in (["lclt-scan", "--sizes", "3,5"], ["mc"], ["constants"])
        ),
        (
            {"kind": "nearest_neighbor", "strength": 1e308},
            ["identity-check"],
            "boundary field slope of site (-2,) is inf, not finite in float64",
        ),
    ],
)
def test_non_finite_coupling_exits_two(coupling, argv, message, tmp_path, capsys):
    """A finite strength whose field slopes are not finite, and the JSON NaN
    and Infinity that pass the schema's "number", stop with a typed error
    and write no report."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**MODEL_OK, "coupling": coupling}))
    with np.errstate(all="ignore"):
        assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lclt-scan", "--sizes", "5,5"], "strictly increasing positive lengths, got 5,5"),
        (["lclt-scan", "--sizes", "0,3"], "strictly increasing positive lengths, got 0,3"),
        (["lclt-scan", "--sizes=-1,3"], "strictly increasing positive lengths, got -1,3"),
    ],
)
def test_argument_outside_its_domain_exits_two(argv, message, config, tmp_path, capsys):
    """Arguments that once passed their checks and failed later for another
    reason: a repeated or nonpositive length."""
    assert cli.main([*argv, "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_underflowing_rate_exits_two(tmp_path, capsys):
    """At strength 100 delta is normal but the large-t rate c underflows;
    constants and decay-large-t stop instead of passing 0 <= 0 and 1 <= 1."""
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({**MODEL_OK, "coupling": {"kind": "nearest_neighbor", "strength": 100.0}}))
    for command in ("constants", "decay-large-t"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "large-t rate c is not a positive normal float64: log c is -1609.1" in capsys.readouterr().err


def test_oversized_polymer_region_exits_two_before_building(tmp_path, capsys):
    """identity-check on the 513^2 decimated sites of a radius-512 box stops
    at the direct route's budget on the exact sum, before the System is
    built."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**MODEL_OK, "dimension": 2, "radius": 512}))
    start = time.perf_counter()
    assert cli.main(["identity-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 30.0
    assert "transfer sum needs at least 263169*2^1*263170 steps, budget is 16777216" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["decay-small-t"], ["integrals", "--a-cut", "0.5"]])
def test_over_budget_region_exits_two_before_building(argv, tmp_path, capsys):
    """The budget is checked on the work at band 0, before a System over the
    90601 decimated sites of the decay scan (or the 361201-site box of the
    integrals) is built."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**MODEL_OK, "dimension": 2, "radius": 300}))
    start = time.perf_counter()
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 30.0
    n = {"decay-small-t": 90601, "integrals": 361201}[argv[0]]
    assert f"transfer sum needs at least {n}*2^1*{n + 1} steps, budget is 16777216" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        *((command, "--t-points") for command in ("constants", "min-r0", "integrals", "lclt-scan", "mc")),
        *((command, "--budget") for command in ("constants", "min-r0", "identity-check", "site-cf")),
        *((command, "--c-variant") for command in ("lclt-scan", "mc")),
        ("graph-tables", "--t-points"),
        ("graph-tables", "--budget"),
        ("graph-tables", "--c-variant"),
    ],
)
def test_flag_a_subcommand_ignores_exits_two(command, flag, config, tmp_path, capsys):
    """A subcommand registers only the flags it reads: any other stops in
    argparse with exit 2, before a config is read."""
    value = {"--c-variant": "stated"}.get(flag, "3")
    argv = [command, "--out", str(tmp_path / "o"), flag, value]
    if command != "graph-tables":
        argv += ["--config", config]
    if command == "integrals":
        argv += ["--a-cut", "0.02"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["identity-check", "site-cf", "decay-small-t", "decay-large-t"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_t_points_below_one_exits_two(command, count, config, tmp_path, capsys):
    """Every subcommand with a t grid refuses a t count below 1 with the same
    message, and writes nothing."""
    argv = [command, "--config", config, "--out", str(tmp_path / "o"), "--t-points", count]
    assert cli.main(argv) == 2
    assert f"error: need at least one t point, got {count}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_identity_check_takes_as_many_t_points_as_asked(config, tmp_path):
    """N t points are t = 0 and N - 1 sorted draws, one line each per
    dressing; from 2 on the draws are the ones every earlier run took."""
    for count in (1, 2, 5):
        out = tmp_path / str(count)
        assert cli.main(["identity-check", "--config", config, "--out", str(out), "--t-points", str(count)]) == 0
        ts = [line["parameters"]["t"] for line in _reports(out)]
        draws = np.random.default_rng(0).uniform(0.0, math.pi, size=count - 1)
        assert ts == [0.0, *sorted(draws.tolist())]


def test_identity_check_on_fifteen_uncoupled_sites(tmp_path):
    """identity-check --dressed on the 15 decimated sites of a radius-14
    chain at r0 = 2: no two of them are coupled, so the gas sum is the
    product of fifteen one-site factors, and every one of its 128 lines
    passes."""
    path = tmp_path / "fifteen.json"
    path.write_text(json.dumps({**MODEL_OK, "radius": 14, "coupling": {"kind": "nearest_neighbor", "strength": 1.0}}))
    out = tmp_path / "o"
    assert cli.main(["identity-check", "--config", str(path), "--dressed", "--out", str(out)]) == 0
    lines = _reports(out)
    assert len(lines) == 128 and all(line["pass"] for line in lines)


def test_long_chain_scan_runs_at_default_budget(tmp_path):
    """lclt-scan past enumeration: 2000 sites of a radius-1000 chain take
    2000*2^2*2001 transfer steps, within the default budget."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**MODEL_OK, "radius": 1000}))
    out = tmp_path / "o"
    assert cli.main(["lclt-scan", "--config", str(path), "--out", str(out), "--sizes", "500,1000,2000"]) == 0
    (record, check) = _reports(out)
    assert [row["site_count"] for row in record["values"]["rows"]] == [500, 1000, 2000]
    assert check["pass"]


def test_underflowing_partition_function_is_a_capacity_error(tmp_path, capsys):
    """At J = -400 on spins {1, 2} log Z is -2400: Z and Xi(0) underflow
    float64. Every entry point that divides by them or returns them stops
    with a CapacityError naming the log, and identity-check exits 2."""
    config = {**MODEL_OK, "r0": 1, "spin": {"lo": 1, "hi": 2}, "boundary": {"kind": "zero"}}
    config["coupling"] = {"kind": "nearest_neighbor", "strength": -400.0}
    model = lm.model_from_json(json.dumps(config))
    assert ee.log_partition_function(model) == -2400.0
    normal = "is not a positive normal float64: log {} is {}, float64 normals end at -708.4"
    with pytest.raises(CapacityError, match=re.escape("partition function " + normal.format("Z", "-2400.0"))):
        ee.partition_function(model)
    xi0 = normal.format("Xi(0)", "-2404.9")
    for mode in ("direct", "polymer_sum"):
        with pytest.raises(CapacityError, match=re.escape(f"{mode} route on 7 sites {xi0}")):
            pg.char_fn_ratio(model, t=0.5, mode=mode)
        with pytest.raises(CapacityError, match=re.escape(f"{mode} route on 7 sites {xi0}")):
            pg.continuous_log_partition(model, pg.ActivityParams(t=0.5), mode=mode)
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(config))
    assert cli.main(["identity-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"direct route on 7 sites {xi0}" in capsys.readouterr().err


def test_precondition_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MODEL_BAD_STEP))
    code = cli.main(["decay-small-t", "--config", str(path), "--out", str(tmp_path / "o"), "--t-points", "2"])
    assert code == 1
    assert "precondition failed" in capsys.readouterr().err


def test_reports_validate_across_commands(config, tmp_path):
    """Every line any subcommand emits must satisfy the published schema."""
    runs = [
        ["min-r0", "--config", config],
        ["identity-check", "--config", config, "--dressed"],
        ["graph-tables", "--max-k", "4"],
        ["site-cf", "--config", config, "--t-points", "8"],
        ["decay-small-t", "--config", config, "--t-points", "3"],
        ["decay-large-t", "--config", config, "--t-points", "3"],
        ["integrals", "--config", config, "--a-cut", "0.02"],
        ["lclt-scan", "--config", config, "--sizes", "3,5,7"],
        ["mc", "--config", config, "--samples", "400", "--burn-in", "100"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        code = cli.main(argv + ["--out", str(out)])
        assert code in (0, 1), argv
        for line in _reports(out):
            jsonschema.validate(line, SCHEMA)


@pytest.mark.parametrize(
    "argv, prefix, tolerance",
    [
        (["identity-check", "--dressed"], "partition_identity", 1e-10),
        (["mc", "--samples", "400", "--burn-in", "100"], "mc_", 1e-12),
    ],
    ids=["identity-check", "mc"],
)
def test_slack_is_a_report_parameter(config, tmp_path, argv, prefix, tolerance):
    """A check that allows a fixed slack names it among its parameters."""
    out = tmp_path / "out"
    assert cli.main([argv[0], "--config", config, *argv[1:], "--out", str(out)]) == 0
    lines = [ln for ln in _reports(out) if ln.get("check", "").startswith(prefix)]
    assert lines
    for line in lines:
        assert line["parameters"]["tolerance"] == tolerance


def test_rerun_is_byte_identical(config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["decay-small-t", "--config", config, "--out", str(out), "--t-points", "4"]) == 0
    for name in ("reports.jsonl", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("lo, hi", [(1, 2), (2, 3), (1, 3), (-2, -1)])
def test_small_t_rate_holds_on_spin_intervals_without_zero(tmp_path, lo, hi):
    """Three free decimated sites with spins {lo, ..., hi}: |phi(t)| is a
    power of the one-site |phi|, which does not depend on where the interval
    sits, and the Gaussian rate takes min(sigma, hi - lo)^2 kappa / 4, so
    every small-t line passes (with sigma = max|s| none did)."""
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "dimension": 1, "radius": 3, "r0": 2, "spin": {"lo": lo, "hi": hi},
        "coupling": {"kind": "nearest_neighbor", "strength": 0.0}, "boundary": {"kind": "zero"},
    }))
    out = tmp_path / "out"
    assert cli.main(["decay-small-t", "--config", str(config), "--out", str(out)]) == 0
    lines = _reports(out)
    assert len(lines) == 64 and all(line["pass"] for line in lines)


def test_min_r0_message(config, tmp_path, capsys):
    """The step-1 window still contains the bond, so the answer is 2."""
    assert cli.main(["min-r0", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert "smallest admissible decimation step: r0 = 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["constants", "--config", "{config}"], "constants_reports.jsonl"),
        (["graph-tables", "--max-k", "5"], "graph_tables_reports.jsonl"),
        (["lclt-scan", "--config", "{config}", "--sizes", "3,5,7"], "lclt_scan_reports.jsonl"),
        (["decay-small-t", "--config", "{config}"], "decay_small_t_reports.jsonl"),
        (["decay-large-t", "--config", "{config}"], "decay_large_t_reports.jsonl"),
        (["site-cf", "--config", "{power_law}"], "site_cf_power_law_reports.jsonl"),
        (["mc", "--config", "{dyadic}"], "mc_reports.jsonl"),
        (["integrals", "--config", "{config}", "--a-cut", "0.02"], "integrals_reports.jsonl"),
        (["identity-check", "--config", "{config}", "--dressed"], "identity_check_reports.jsonl"),
    ],
    ids=[
        "constants", "graph-tables", "lclt-scan", "decay-small-t", "decay-large-t", "site-cf-power-law", "mc",
        "integrals", "identity-check",
    ],
)
def test_constants_golden_file(tmp_path, argv, golden):
    """Frozen byte-level output so report drift is a conscious decision,
    also on a power-law chain (whose couplings' independence of the CPU
    test_coupling.test_power_law_kernel_is_value_bit_for_bit checks), and
    on seeded Metropolis samples with a dyadic coupling, whose neighbour
    sums are exact in any summation order."""
    out = tmp_path / "out"
    config = tmp_path / "model.json"
    config.write_text(json.dumps(MODEL_OK))
    power_law = tmp_path / "power_law.json"
    power_law.write_text(json.dumps({**MODEL_OK, "coupling": {"kind": "power_law", "strength": 0.05, "exponent": 6.0}}))
    dyadic = tmp_path / "dyadic.json"
    dyadic.write_text(json.dumps({**MODEL_OK, "coupling": {"kind": "nearest_neighbor", "strength": 0.125}}))
    argv = [arg.format(config=config, power_law=power_law, dyadic=dyadic) for arg in argv]
    assert cli.main(argv + ["--out", str(out)]) == 0
    golden = (REPO / "tests" / "data" / golden).read_bytes()
    assert (out / "reports.jsonl").read_bytes() == golden


def test_parser_is_reused_across_calls(config, tmp_path, capsys):
    """One parser serves every main call in a process; no call's options
    leak into the next."""
    assert cli._build_parser() is cli._build_parser()
    identity = ["identity-check", "--config", config, "--t-points", "3"]
    assert cli.main([*identity, "--out", str(tmp_path / "a"), "--dressed"]) == 0
    assert any(ln["parameters"]["c"] > 0.0 for ln in _reports(tmp_path / "a"))
    assert cli.main([*identity, "--out", str(tmp_path / "b")]) == 0
    assert all(ln["parameters"]["c"] == 0.0 for ln in _reports(tmp_path / "b"))
    assert cli.main(["decay-small-t", "--config", config, "--out", str(tmp_path / "c"), "--t-points", "4"]) == 0
    assert len(_reports(tmp_path / "c")) == 4
    assert cli.main(["decay-small-t", "--config", config, "--out", str(tmp_path / "d")]) == 0
    assert len(_reports(tmp_path / "d")) == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert cli.main(["constants", "--config", config, "--out", str(tmp_path / "e")]) == 0
    assert "lclt-lab" in capsys.readouterr().out


# decay-large-t on the README model: every lhs as main prints it, against
# the rate's rhs e^{-(c/2) n} = 0.999967
LARGE_T_LHS = (
    "0.997824", "0.994191", "0.988824", "0.981746", "0.972986", "0.96258", "0.950572", "0.937009", "0.921947",
    "0.905447", "0.887576", "0.868407", "0.848016", "0.826484", "0.803897", "0.780344", "0.755917", "0.730712",
    "0.704826", "0.678358", "0.651407", "0.624075", "0.596463", "0.568672", "0.540802", "0.512951", "0.485216",
    "0.457693", "0.430472", "0.403642", "0.377288", "0.351491", "0.326328", "0.301869", "0.278181", "0.255325",
    "0.233355", "0.212321", "0.192265", "0.173224", "0.155227", "0.138297", "0.12245", "0.107695", "0.0940355",
    "0.081466", "0.0699759", "0.0595473", "0.0501561", "0.0417718", "0.0343578", "0.0278719", "0.022266",
    "0.0174873", "0.0134778", "0.0101755", "0.00751427", "0.00542514", "0.00383671", "0.00267661", "0.00187343",
    "0.00136002", "0.00107892", "0.000990073",
)


def test_decay_large_t_stdout(config, tmp_path, capsys):
    """main prints one PASS/FAIL line per check and a count, nothing else."""
    out = tmp_path / "out"
    assert cli.main(["decay-large-t", "--config", config, "--out", str(out)]) == 0
    want = [f"PASS large_t_volume_decay lhs={lhs} rhs=0.999967" for lhs in LARGE_T_LHS]
    want.append(f"64/64 checks passed; reports in {out}/")
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def _value_kinds():
    """Report lines holding every kind of value a line may carry."""
    inf, nan = math.inf, math.nan
    check = {"check": "kinds", "lhs": 0.5, "rhs": 1.0, "margin": 0.5, "pass": True, "parameters": {"t": 0.25}}
    return [
        check,
        {**check, "lhs": inf, "margin": -inf},
        {**check, "rhs": nan, "pass": False},
        {**check, "parameters": {"t": inf, "tolerance": -inf, "c": nan}},
        {**check, "parameters": {"t": np.float64(0.1), "k": np.int64(3), "w": np.float32(0.1)}},
        {**check, "parameters": {"t": np.float64(inf), "w": np.float32(-inf), "v": np.float64(nan)}},
        {"record": "numpy", "values": {"a": np.float64(1e-310), "b": np.float32(2.5), "c": np.int64(-7)}},
        {"record": "complex", "values": {"z": 1.5 - 2j, "w": complex(0.0, -0.0), "u": np.complex128(0.5 + 0.25j)}},
        {"record": "complex", "values": {"z": complex(inf, 1.0), "w": complex(0.0, nan), "u": np.complex128(-inf)}},
        {"record": "nested", "values": {"rows": [{"b": (1, 2.5), "a": [np.float64(3.0), "x"]}], "t": (0.5, -0.0)}},
        {"record": "nested", "values": {"rows": [{"b": (1, 2.5), "a": [np.float32(3.0), "x"]}], "t": (0.5, inf)}},
        {"record": "nested", "values": {"rows": ({"z": {"y": {"x": nan}}}, [True, None, -0.0, 10**20])}},
        {"record": "nested", "values": {"rows": ({"z": {"y": {"x": 1j}}}, [True, None, np.int64(-1), 10**20])}},
        {"record": "empty", "values": {}},
    ]


def test_emit_writes_every_value_kind_as_the_walk_did(tmp_path):
    """reports.jsonl holds, byte for byte, each line as the recursive
    walk before json.dumps wrote it: numpy scalars as Python numbers,
    complex numbers as {"re", "im"}, tuples as lists, and a plain inf or NaN
    as a string, at top level and inside parameters."""
    lines = _value_kinds()
    cli._emit(str(tmp_path), lines, {"runtime_ms": 1.0})
    want = "".join(map(oracles.report_line_by_sanitize, lines))
    assert '"inf"' in want and '"-inf"' in want and '"nan"' in want
    assert (tmp_path / "reports.jsonl").read_text() == want
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "check,lhs,rhs,margin,pass"
    assert summary[1:4] == ["kinds,0.5,1.0,0.5,True", "kinds,inf,1.0,-inf,True", "kinds,0.5,nan,0.5,False"]
    assert len(summary) == 7


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.integers(),
)
# names with non-ASCII letters, which the encoder escapes and the CSV keeps
_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _SCALARS, _NAMES, st.complex_numbers(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.tuples(inner), st.dictionaries(_NAMES, inner, max_size=3)),
    max_leaves=6,
)


def _check_lines(scalars):
    """Check lines whose lhs, rhs and margin are drawn from scalars, some
    with a key that a check line does not hold."""
    return st.fixed_dictionaries(
        {
            "check": _NAMES,
            "parameters": st.one_of(st.dictionaries(_NAMES, _VALUES, max_size=4), st.lists(_VALUES, max_size=3)),
            "lhs": scalars,
            "rhs": scalars,
            "margin": scalars,
            "pass": st.booleans(),
        },
        optional={"note": _VALUES},
    )


_RECORD_LINES = st.fixed_dictionaries({"record": _NAMES, "values": st.dictionaries(_NAMES, _VALUES, max_size=3)})


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.lists(
        st.one_of(_check_lines(_SCALARS), _check_lines(_FLOATS), _RECORD_LINES),
        max_size=6,
    )
)
def test_emit_writes_the_bytes_of_the_walk_and_of_repr(tmp_path_factory, lines):
    """On drawn lines, finite and non-finite floats, numpy scalars, nested
    and list-valued parameters, non-ASCII check names and an extra key,
    reports.jsonl holds each line as the recursive walk before json.dumps
    wrote it, and summary.csv the rows a csv.writer writes over repr of lhs,
    rhs and margin."""
    out = tmp_path_factory.mktemp("emit")
    cli._emit(str(out), lines, {})
    assert (out / "reports.jsonl").read_text() == "".join(map(oracles.report_line_by_sanitize, lines))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["check", "lhs", "rhs", "margin", "pass"])
    for line in lines:
        if "check" in line:
            writer.writerow([line["check"], repr(line["lhs"]), repr(line["rhs"]), repr(line["margin"]), line["pass"]])
    with open(out / "summary.csv", newline="") as summary:
        assert summary.read() == want.getvalue()


def test_emit_refuses_what_json_cannot_write(tmp_path):
    """A value that is neither JSON nor a numpy scalar or complex number
    stops the writer, as json.dumps stops."""
    with pytest.raises(TypeError, match="set"):
        cli._emit(str(tmp_path), [{"record": "bad", "values": {"s": {1}}}], {})
