"""scripts/bench_record.py: real runs of the benchmark, and the medians it writes."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_records_an_untraced_and_a_traced_run(tmp_path):
    argv = ["smoke", "--workloads", "corpus-o12", "--seeds", "1", "--seconds", "0", "--out", str(tmp_path)]
    assert bench_record.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert {"op_ref.p50", "op_ref.p90", "setup_s", "peak_rss_mb"} <= set(doc["end_to_end"]["corpus-o12"])
    stages = doc["per_stage"]["corpus-o12"]
    assert {"problemfile.parse_ms", "solver.self_ms", "solver.classify_ms", "solver.initial_data_ms"} <= set(stages)
    assert doc["raw"]["corpus-o12"]["op_ms.p50"] > 0.0
    assert [(run["seed"], run["trace"], run["correct"]) for run in doc["runs"]] == [(1, 0, True), (1, 1, True)]
    # Each process's minor page faults (an interpreter with numpy alone
    # faults in thousands of pages), and the untraced runs' median.
    faults = [run["minor_faults"] for run in doc["runs"]]
    assert all(type(n) is int and n > 1000 for n in faults), faults
    assert doc["minor_faults"] == {"corpus-o12": faults[0]}
    assert doc["env"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_summary_takes_the_median_over_seeds_of_each_mode():
    def run(seed, trace, value):
        return {
            "workload": "w", "seed": seed, "trace": trace, "correct": True, "fail_frac": 0.0,
            "minor_faults": 100 * value, "metrics": {"m": value, "none": None}, "raw": {"op_ms.p50": value},
            "setup": {}, "env": {"nproc": 2},
        }

    runs = [run(1, 0, 3.0), run(1, 1, 30.0), run(2, 0, 1.0), run(2, 1, 10.0), run(3, 0, 2.0), run(3, 1, 20.0)]
    doc = bench_record.summarize("x", runs, 15.0)
    assert doc["seeds"] == [1, 2, 3]
    assert doc["end_to_end"] == {"w": {"m": 2.0}}  # a metric with no value is left out
    assert doc["per_stage"] == {"w": {"m": 20.0}}
    assert doc["raw"] == {"w": {"op_ms.p50": 2.0}}
    assert doc["minor_faults"] == {"w": 200.0}  # of the untraced runs only
    assert [r["minor_faults"] for r in doc["runs"]] == [300.0, 3000.0, 100.0, 1000.0, 200.0, 2000.0]
    assert doc["env"] == {"nproc": 2} and all("env" not in r for r in doc["runs"])


def test_interleave_alternates_the_sides_and_compares_each_metric(tmp_path, monkeypatch, capsys):
    # A stubbed run_once: the change is faster at every seed, ties on
    # setup_s, is larger on peak_rss_mb at seed 2 and has no op_ref.p90.
    calls = []

    def run_once(root, workload, seed, seconds, trace):
        calls.append((root.name, seed, trace))
        change = root.name == "change"
        metrics = {
            "op_ref.p50": seed * (0.9 if change else 1.0),
            "op_ref.p90": None,
            "setup_s": 1.0,
            "peak_rss_mb": 40.0 + (1.0 if seed == 2 else -1.0) * change,
        }
        return {
            "workload": workload, "seed": seed, "trace": trace, "correct": True, "fail_frac": 0.0,
            "minor_faults": 10, "metrics": metrics, "raw": {"op_ms.p50": 1.0}, "setup": {}, "env": {},
        }

    monkeypatch.setattr(bench_record, "run_once", run_once)
    argv = [
        "x", "--interleave", str(tmp_path / "parent"), "--root", str(tmp_path / "change"),
        "--workloads", "w", "--seeds", "1", "2", "3", "--seconds", "0", "--out", str(tmp_path),
    ]
    assert bench_record.main(argv) == 0
    # Each seed's untraced pair and traced pair run back to back, and the
    # side that runs first alternates, so each side leads every other pair.
    assert calls == [
        ("parent", 1, 0), ("change", 1, 0), ("change", 1, 1), ("parent", 1, 1),
        ("change", 2, 0), ("parent", 2, 0), ("parent", 2, 1), ("change", 2, 1),
        ("parent", 3, 0), ("change", 3, 0), ("change", 3, 1), ("parent", 3, 1),
    ]
    parent = json.loads((tmp_path / "BENCH_x-parent.json").read_text(encoding="utf-8"))
    change = json.loads((tmp_path / "BENCH_x.json").read_text(encoding="utf-8"))
    assert parent["label"] == "x-parent" and change["label"] == "x"
    assert [r["position"] for r in parent["runs"]] == [0, 3, 5, 6, 8, 11]
    assert [r["position"] for r in change["runs"]] == [1, 2, 4, 7, 9, 10]
    assert parent["end_to_end"]["w"]["op_ref.p50"] == 2.0 and change["end_to_end"]["w"]["op_ref.p50"] == 1.8
    assert capsys.readouterr().out.splitlines()[2:] == [
        "w op_ref.p50: parent 2 [1.5, 2.5]  change 1.8 [1.35, 2.25]  change better in 3/3 pairs",
        "w setup_s: parent 1 [1, 1]  change 1 [1, 1]  change better in 0/3 pairs",
        "w peak_rss_mb: parent 40 [40, 40]  change 39 [39, 40]  change better in 2/3 pairs",
    ]
