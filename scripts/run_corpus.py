#!/usr/bin/env python3
"""Solve every built-in example and tabulate residuals.

Usage:
  python3 scripts/run_corpus.py [--order N]

Each row reports the coefficient-level residuals (cone, first-order
system), the grid-level certificates (conformality, tension), and the
deviation from the example's independent closed-form reference.  An
example whose solve raises gets a FAILED row with the error's message, and
the table goes on.  Exits 1 if any example fails or misses the gate
(passes, and deviation <= 1e-7).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bjorling import corpus, problemfile
from bjorling.errors import BjorlingError
from bjorling.solver import solve_bjorling
from bjorling.verify import compare_to_reference


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=12)
    args = ap.parse_args()

    header = (
        f"{'example':28s} {'dev':>9s} {'cone':>9s} {'pde':>9s} "
        f"{'conf':>9s} {'tension':>9s} {'normal':>9s} {'ms':>6s} strip"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    for example_id in corpus.EXAMPLE_IDS:
        doc = corpus.build_problem_dict(example_id, order=args.order)
        try:
            problem = problemfile.problem_from_dict(doc)
            t0 = time.perf_counter()
            sol = solve_bjorling(problem)
        except BjorlingError as exc:
            failures += 1
            print(f"{example_id:28s} FAILED {exc}")
            continue
        ms = 1e3 * (time.perf_counter() - t0)
        ref = corpus.reference_surface(example_id)
        dev = compare_to_reference(sol.surface, ref, problem.grid.us(), problem.grid.vs())
        r = sol.report
        ok = r.passes(problem.tolerances) and dev <= 1e-7
        failures += not ok
        print(
            f"{example_id:28s} {dev:9.2e} {r.cone_residual:9.2e} "
            f"{r.pde_residual:9.2e} {r.conformality_residual:9.2e} "
            f"{r.minimality_residual:9.2e} {r.normal_residual:9.2e} "
            f"{ms:6.0f} {'ok' if r.strip_valid else 'SHRUNK'}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
