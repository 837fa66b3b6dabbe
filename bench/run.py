"""Benchmark command for tfpdet.

    python3 bench/run.py --workload {train,infer_long,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; it imports ``tfpdet`` from the
checkout's ``src/`` and nowhere else, writes scratch data and the span file
of a traced run under ``.bench_out/``, and prints as its last stdout line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train", "infer_long", "eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tfpdet" / "__init__.py").is_file():
        print(f"error: no tfpdet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy and tfpdet, so only after the thread cap

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    harness.print_result(result, harness.environment(ROOT), args.workload, args.seed)
    return 0


if __name__ == "__main__":
    # One BLAS thread: the loop has one client, and an unset OpenBLAS would
    # start up to 64 threads on a 2-core machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
