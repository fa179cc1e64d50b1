#!/usr/bin/env python3
"""Run the benchmark's workloads and record them in one BENCH file.

Usage:
  python3 scripts/bench_record.py LABEL [--workloads corpus-o12 corpus-o30 cli-mesh]
      [--seeds 1 2 3] [--seconds 15] [--root DIR] [--interleave PARENT_ROOT] [--out DIR]

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

Each run's ``position`` is its place in the order the runs were made.
``--interleave PARENT_ROOT`` records the checkout there as well, in
``BENCH_<LABEL>-parent.json``: each (workload, seed, trace) runs once in
each checkout, back to back, and the side that runs first alternates from
seed to seed (and between the untraced and the traced pair of a seed), so
drift on a shared machine falls on both sides alike.  Then, for each
workload and each end-to-end metric of ``BENCHMARK.json``, it prints both
sides' median and quartiles over the untraced runs, and in how many
same-seed pairs the change is better (a tie counts for neither).

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
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


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


def _quartiles(values: list) -> tuple:
    # (q1, median, q3), numpy's default interpolation.
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per workload and end-to-end metric of ``BENCHMARK.json``:
    each side's median and quartiles over its untraced runs, and the
    change's wins over the same-seed pairs in which both sides have a value."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in change):
        sides = [{r["seed"]: r["metrics"] for r in runs if r["workload"] == workload and r["trace"] == 0}
                 for runs in (parent, change)]
        seeds = sorted(sides[0].keys() & sides[1].keys())
        for metric in END_TO_END:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            pairs = [(sides[0][seed].get(name), sides[1][seed].get(name)) for seed in seeds]
            pairs = [pair for pair in pairs if None not in pair]
            if not pairs:
                continue
            (p1, pm, p3), (c1, cm, c3) = (_quartiles([pair[k] for pair in pairs]) for k in (0, 1))
            wins = sum(sign * (c - p) < 0 for p, c in pairs)
            lines.append(
                f"{workload} {name}: parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  "
                f"change {cm:.5g} [{c1:.5g}, {c3:.5g}]  change better in {wins}/{len(pairs)} pairs"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--root", type=Path, default=ROOT)
    ap.add_argument("--interleave", type=Path, metavar="PARENT_ROOT")
    ap.add_argument("--out", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)

    sides = {args.label: args.root.resolve()}
    if args.interleave is not None:
        sides = {f"{args.label}-parent": args.interleave.resolve(), **sides}
    runs = {label: [] for label in sides}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for trace in (0, 1):
                for label in list(sides)[:: 1 if (i + trace) % 2 == 0 else -1]:
                    try:
                        run = run_once(sides[label], workload, seed, args.seconds, trace)
                    except RuntimeError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
                    run["position"] = sum(map(len, runs.values()))
                    runs[label].append(run)
                    p50 = run["raw"]["op_ms.p50"]
                    print(
                        f"{label} {workload} seed {seed} trace {trace}: op_ms.p50 "
                        f"{'none' if p50 is None else f'{p50:.3f}'}{'' if run['correct'] else ' FAILED'}",
                        file=sys.stderr,
                    )
    for label, side in runs.items():
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(summarize(label, side, args.seconds), indent=1) + "\n", encoding="utf-8")
        print(path)
    if args.interleave is not None:
        print("\n".join(compare(*runs.values())))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    raise SystemExit(main())
