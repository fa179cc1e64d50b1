#!/usr/bin/env python3
"""Run one benchmark workload under one seed, gate every op, print metrics.

    python3 perfbench/run.py --workload corpus-o12 --seed 1 --seconds 15 --trace 0

One process, one workload, one client in a closed loop, single-threaded.
Each round visits the six corpus examples in a seeded order; the loop runs
whole rounds until ``--seconds`` have passed and at least MIN_OPS ops are
timed, or OVERRUN_S have passed, whichever comes first.  Every op is
checked.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (environment, parameters, raw times, accuracy, set-up split).  The
exit code is 1 when any op failed its gate.

Between consecutive ops the loop times a fixed reference computation that
does not touch the library.  ``op_ref.*`` divide each op's wall time by the
mean of the reference times just before and just after it, which cancels
most of the machine's speed swings; the raw milliseconds are recorded too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ops, with ``trace.overhead_ms`` the traced minus untraced ``op_ms.p50``.
"""

import os
import sys
import time

_T_START = time.perf_counter()

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "bjorling" / "__init__.py").is_file():
    raise SystemExit(f"error: library sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bjorling  # noqa: E402

if Path(bjorling.__file__).resolve().parent != (SRC / "bjorling").resolve():
    raise SystemExit(f"error: bjorling imported from {bjorling.__file__}, not {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # p90 then has at least ten samples beyond it
OVERRUN_S = 45.0  # stop short of MIN_OPS here, so a slow machine cannot stretch a run
SETUP_REPEATS = 3
WORK_DIR = ROOT / ".perfbench_work"


def reference_seconds() -> float:
    """Time of a fixed computation that does not touch the library: small
    numpy products inside a Python loop, the same mix as the library's
    per-point code.  It runs with the garbage collector off, so collections
    the library's garbage triggers are charged to the op, not to it."""
    a = np.linspace(0.0, 1.0, 40)
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200):
            b = np.convolve(a, a[:13])
            m = np.outer(a[:8], a[:8]) @ a[:8]
            acc += float(b[i % 40]) + float(m[i % 8]) + sum(x * 0.5 for x in range(30))
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Sample:
    example: str
    seconds: float
    ref_seconds: float  # mean reference time around the op
    outcome: workloads.Outcome
    traced: bool


@dataclass
class Setup:
    cases: list
    params: dict
    import_s: float
    prepare_s: list
    warmup_s: float

    @property
    def setup_s(self) -> float:
        # The repeatable part counts once, at its median.
        return self.import_s + statistics.median(self.prepare_s) + self.warmup_s


def _run_op(workload, case, work_dir, tracer=None):
    """Time one op (untraced unless a tracer is given) and gate it."""
    reset, op, check = workloads.op_functions(workload)
    reset(case, work_dir)
    scope = tracer.op() if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            result = op(case, work_dir)
    except Exception:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - t0, workloads.Outcome.failed(traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0
    try:
        return dt, check(case, result, work_dir)
    except Exception:
        return dt, workloads.Outcome.failed(traceback.format_exc(limit=3))


def setup(workload, seed: int, work_dir, import_s: float) -> Setup:
    rng = random.Random(seed)
    params = workloads.draw_params(rng)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workloads.prepare(workload, params, work_dir)
        prepare_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for case in cases:  # one untimed warm-up op per example
        _run_op(workload, case, work_dir)
    return Setup(cases, params, import_s, prepare_s, time.perf_counter() - t0)


def measure(workload, cases, rng, seconds, work_dir, trace=False):
    """Closed loop of whole rounds; with ``trace`` every second round is
    traced.  Returns (samples, tracer or None, rounds)."""
    tracer = spans.Tracer() if trace else None
    samples = []
    rounds = 0
    ref_before = reference_seconds()
    t_begin = time.perf_counter()
    while True:
        order = list(cases)
        rng.shuffle(order)
        traced = trace and rounds % 2 == 1
        with tracer.installed() if traced else nullcontext():
            for case in order:
                dt, outcome = _run_op(
                    workload, case, work_dir, tracer if traced else None
                )
                ref_after = reference_seconds()
                ref = 0.5 * (ref_before + ref_after)
                samples.append(Sample(case.example, dt, ref, outcome, traced))
                ref_before = ref_after
        rounds += 1
        if trace and rounds % 2:
            continue  # traced and untraced rounds come in pairs
        elapsed = time.perf_counter() - t_begin
        if elapsed >= min(seconds, OVERRUN_S) and (
            len(samples) >= MIN_OPS or elapsed >= OVERRUN_S
        ):
            break
    return samples, tracer, rounds


def _p50_p90(values):
    if not values:
        return None, None
    p50, p90 = np.percentile(values, [50, 90])
    return float(p50), float(p90)


def _op_ms(samples):
    return _p50_p90([1e3 * s.seconds for s in samples if s.outcome.ok])


def end_to_end(samples, setup_info) -> dict:
    timed = [s for s in samples if not s.traced]
    p50, p90 = _p50_p90([s.seconds / s.ref_seconds for s in timed if s.outcome.ok])
    return {
        "op_ref.p50": (p50, "ref"),
        "op_ref.p90": (p90, "ref"),
        "setup_s": (setup_info.setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(samples) -> dict:
    """Wall-clock figures of the untraced ops, recorded without a bound."""
    timed = [s for s in samples if not s.traced]
    p50, p90 = _op_ms(timed)
    passed = sum(s.outcome.ok for s in timed)
    busy = sum(s.seconds for s in timed)
    return {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "samples": passed,
        "ops_per_s": passed / busy if busy > 0 else None,
        "ref_ms.p50": 1e3 * statistics.median(s.ref_seconds for s in timed) if timed else None,
    }


def per_layer(samples, tracer) -> dict:
    traced = [s for s in samples if s.traced]
    values = {}
    for sample, op in zip(traced, tracer.per_op()):
        if not sample.outcome.ok:
            continue
        row = spans.op_layer_values(op)
        row["problemfile.bytes_written"] = sample.outcome.bytes_written
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    out = {}
    for name, vals in values.items():
        unit = "ms" if name.endswith("_ms") else ("bytes" if name.endswith("bytes_written") else "count")
        out[name] = (float(statistics.median(vals)), unit)
    p50_traced, _ = _op_ms(traced)
    p50_plain, _ = _op_ms([s for s in samples if not s.traced])
    overhead = None
    if p50_traced is not None and p50_plain is not None:
        overhead = p50_traced - p50_plain
    out["trace.overhead_ms"] = (overhead, "ms")
    return out


def accuracy(samples) -> dict:
    ok = [s.outcome for s in samples if s.outcome.ok]

    def worst(attr):
        return max((getattr(o, attr) for o in ok), default=None)

    return {
        "check.dev_max": worst("dev"),
        "check.cone_max": worst("cone"),
        "check.pde_max": worst("pde"),
        "check.conformality_max": worst("conformality"),
        "check.tension_max": worst("tension"),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def execute(workload_name, seed, seconds, trace, import_s):
    """Set up, measure and summarize one run: (result, record)."""
    workload = workloads.WORKLOADS[workload_name]
    work_dir = None
    if workload.mesh_grid is not None:
        work_dir = WORK_DIR / f"{workload_name}-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
    try:
        info = setup(workload, seed, work_dir, import_s)
        rng = random.Random(f"rounds-{seed}")
        samples, tracer, rounds = measure(
            workload, info.cases, rng, seconds, work_dir, trace
        )
    finally:
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # another run still uses it
    metrics = per_layer(samples, tracer) if trace else end_to_end(samples, info)
    failed = sum(not s.outcome.ok for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "parameters": {
            "order": workload.order,
            "grid": "example grids" if workload.mesh_grid is None else "x".join(map(str, workload.mesh_grid)),
            "examples": info.params,
            "min_ops": MIN_OPS,
            "setup_repeats": SETUP_REPEATS,
            "closed_loop_clients": 1,
        },
        "rounds": rounds,
        "raw": raw_times(samples),
        "fail_frac": failed / len(samples),
        "setup": {
            "import_s": info.import_s,
            "prepare_s": info.prepare_s,
            "warmup_s": info.warmup_s,
        },
        "accuracy": accuracy(samples),
        "failures": [
            f"{s.example}: {s.outcome.why}" for s in samples if not s.outcome.ok
        ][:5],
        "env": environment(),
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - _T_START
    result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
