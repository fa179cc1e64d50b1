"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_smoke.py

One short run per workload and mode: every metric BENCHMARK.json names is
reported with its unit, and the spans of a traced op account for its time.
The gate is shown to fail: a reference offset by 1e-6 fails every op, a
nonzero CLI exit fails the op, and a failed op makes the exit code nonzero.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from bjorling import cli

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def one_round(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 6)


def _execute(name, trace=False):
    return run.execute(name, seed=1, seconds=0, trace=trace, import_s=0.0)


def _assert_metrics(result, specs):
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float)), spec["name"]


def test_spec_matches_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported(name):
    result, record = _execute(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert set(record["accuracy"]) == {
        "check.dev_max",
        "check.cone_max",
        "check.pde_max",
        "check.conformality_max",
        "check.tension_max",
    }
    assert record["accuracy"]["check.dev_max"] <= workloads.DEV_GATE
    assert record["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"

    assert record["raw"]["samples"] == 6 and record["raw"]["op_ms.p50"] > 0

    traced, record = _execute(name, trace=True)
    assert traced["correct"] and traced["attempted"] == 12
    _assert_metrics(traced, SPEC["per_layer"])
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    # The op's child spans cover its traced time.
    children = m["cli.solve_ms"] + m["cli.export_mesh_ms"]
    if name != "cli-mesh":
        children = m["problemfile.parse_ms"] + m["solver.solve_ms"]
    assert children > 0
    assert m["trace.unaccounted_ms"] <= 0.05 * children
    assert m["verify.strip_attempts"] == 1


def test_offset_reference_fails_every_op(monkeypatch, capsys):
    exact = workloads.reference_grid
    monkeypatch.setattr(
        workloads, "reference_grid", lambda *args: exact(*args) + 1e-6
    )
    argv = ["--workload", "corpus-o12", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) != 0
    record, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert result["failed"] == result["attempted"] == 6
    assert record["record"]["fail_frac"] == 1.0
    assert not result["correct"]


def test_nonzero_cli_exit_fails_the_op(monkeypatch):
    real_main = cli.main

    def export_fails(argv=None):
        return 3 if argv[0] == "export-mesh" else real_main(argv)

    monkeypatch.setattr(cli, "main", export_fails)
    result, record = _execute("cli-mesh")
    assert result["failed"] == result["attempted"] == 6
    assert "exit codes (0, 3)" in record["failures"][0]


def test_refuses_to_run_without_the_library():
    bare = run.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        argv = ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *argv],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
