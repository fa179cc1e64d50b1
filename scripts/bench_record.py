#!/usr/bin/env python3
"""Run the benchmark's workloads and record them in one BENCH file.

Usage:
  python3 scripts/bench_record.py LABEL [--workloads corpus-o12 corpus-o30 cli-mesh]
      [--seeds 1 2 3] [--seconds 15] [--root DIR] [--out DIR]

For every workload and seed, ``perfbench/run.py`` runs twice in its own
process: once with ``--trace 0`` (the end-to-end metrics) and once with
``--trace 1`` (the per-stage metrics of traced ops).  ``--root`` names the
checkout whose ``perfbench/run.py`` and sources are run (this one by
default), so a parent commit can be recorded the same way.  The result is
``BENCH_<LABEL>.json`` in ``--out`` (the current directory by default):

* ``end_to_end`` and ``per_stage``: per workload, the median over seeds of
  each metric;
* ``raw``: per workload, the median over seeds of each untraced run's raw
  wall-clock figures (``op_ms.p50`` and so on);
* ``minor_faults``: per workload, the median over seeds of the minor page
  faults of each untraced run's process (a run whose heap keeps faulting
  pages in, a few hundred per op instead of a few, stands out here);
* ``runs``: every run's metrics, raw figures, minor page faults, failure
  share and set-up;
* ``env``: the first run's environment record (Python, numpy, CPU,
  thread settings, commit).

Exits 1 when any op of any run failed its gate, 2 when a run did not
finish.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("corpus-o12", "corpus-o30", "cli-mesh")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process: its run record and its result."""
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "fail_frac": record["fail_frac"],
        "minor_faults": faults,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": record["raw"],
        "setup": record["setup"],
        "env": record["env"],
    }


def _medians(rows: list[dict]) -> dict:
    # Median over runs of every key whose values are all numbers.
    keys = {key for row in rows for key in row}
    out = {}
    for key in sorted(keys):
        values = [row.get(key) for row in rows]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            out[key] = statistics.median(values)
    return out


def summarize(label: str, runs: list[dict], seconds: float) -> dict:
    summary = {"label": label, "seconds": seconds, "seeds": sorted({r["seed"] for r in runs})}
    for section, trace, field in (("end_to_end", 0, "metrics"), ("per_stage", 1, "metrics"), ("raw", 0, "raw")):
        summary[section] = {
            workload: _medians([r[field] for r in runs if r["workload"] == workload and r["trace"] == trace])
            for workload in dict.fromkeys(r["workload"] for r in runs)
        }
    summary["minor_faults"] = {
        workload: statistics.median(r["minor_faults"] for r in runs if r["workload"] == workload and r["trace"] == 0)
        for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0)
    }
    summary["runs"] = [{k: v for k, v in r.items() if k != "env"} for r in runs]
    summary["env"] = runs[0]["env"] if runs else {}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--root", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            for trace in (0, 1):
                try:
                    runs.append(run_once(args.root.resolve(), workload, seed, args.seconds, trace))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                p50 = runs[-1]["raw"]["op_ms.p50"]
                print(
                    f"{workload} seed {seed} trace {trace}: op_ms.p50 "
                    f"{'none' if p50 is None else f'{p50:.3f}'}{'' if runs[-1]['correct'] else ' FAILED'}",
                    file=sys.stderr,
                )
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summarize(args.label, runs, args.seconds), indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
