"""Print a workload's peak resident memory and how much of its model's gradients is resident.

    python3 tools/memprobe.py --workload {train,infer_long,eval} [--seed S] [--tiny]

Run from the root of a source checkout.  The checkout's ``bench/workloads.py``
is loaded against a copy of its ``tfpdet`` package, as ``tools/abtime.py``
loads it, on one BLAS thread, at the benchmark's full scale (``--tiny``: its
test scale).  The script prints the process's peak resident set
(``ru_maxrss``) after the imports, after the workload's set-up, after its
warm-up op, and after a second set-up plus warm-up op made while the first
workload is still held, as the benchmark's later set-ups are.

Beside each it prints the resident and spanned bytes of the pages that hold
gradient bytes of the current workload's model only, read from the present
bits of ``/proc/self/pagemap``.  A page a gradient shares with other memory,
such as the allocator's header in front of a block, is left out: its
presence says nothing about the gradient.  "n/a" stands where that file
cannot be read or the workload holds no model.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import sys
import tempfile
from pathlib import Path

_spec = importlib.util.spec_from_file_location("abtime", Path(__file__).with_name("abtime.py"))
abtime = importlib.util.module_from_spec(_spec)  # a sibling script, not a package: its ``loaded`` is reused
_spec.loader.exec_module(abtime)
PAGE = os.sysconf("SC_PAGE_SIZE")


def gradient_pages(model) -> tuple[int, int] | None:
    """(resident, spanned) bytes of the whole pages inside the leaf
    gradients of ``model``, or None where ``/proc/self/pagemap`` cannot be
    read.  A leaf without a gradient spans nothing."""
    pages = set()
    for p in model.params.values():
        if p.grad is not None:
            lo = p.grad.ctypes.data
            pages.update(range(-(-lo // PAGE), (lo + p.grad.nbytes) // PAGE))
    resident = 0
    try:
        with open("/proc/self/pagemap", "rb") as f:
            for page in sorted(pages):
                f.seek(8 * page)
                resident += int.from_bytes(f.read(8), "little") >> 63  # bit 63: the page is present
    except OSError:
        return None
    return resident * PAGE, len(pages) * PAGE


def report(stage: str, model) -> str:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pages = None if model is None else gradient_pages(model)
    grads = "n/a" if pages is None else f"resident {pages[0]} of {pages[1]} bytes"
    return f"{stage:<32} ru_maxrss {rss:8.2f} MB  gradient pages {grads}"


def probe(workload: str, seed: int, scale: str) -> list[str]:
    """The four report lines of one probe, in the order they are taken."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp, abtime.loaded([abtime.ROOT], Path(tmp)) as (mod,):
        lines.append(report("after imports", None))
        cls, size = getattr(mod, abtime.WORKLOADS[workload]), getattr(mod, scale)
        first = cls(seed, size, Path(tmp) / "data0")
        lines.append(report("after set-up", getattr(first, "model", None)))
        first.op(0)
        lines.append(report("after warm-up op", getattr(first, "model", None)))
        second = cls(seed, size, Path(tmp) / "data1")
        second.op(0)
        lines.append(report("after second set-up and warm-up", getattr(second, "model", None)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(abtime.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--tiny", action="store_true", help="the benchmark's test scale instead of its full one")
    args = ap.parse_args(argv)
    scale = "TINY" if args.tiny else "FULL"
    print(f"{args.workload} seed {args.seed} scale {scale} (page {PAGE} bytes)")
    for line in probe(args.workload, args.seed, scale):
        print(line)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
