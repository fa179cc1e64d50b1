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
