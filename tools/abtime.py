"""Time one workload's ops of two checkouts against each other, in one process.

    python3 tools/abtime.py OTHER --workload {eval,infer_long,train} --ops N [--seed S]

Run from the root of a source checkout ("this"); ``OTHER`` is the root of
another one, such as a ``git archive`` copy of the parent commit.  Each
side's ``src/tfpdet`` is copied into a temporary directory under its own
package name, and each side's ``bench/workloads.py`` is loaded against its
own copy, so both builds run in one interpreter on one BLAS thread.  Both
sides build their inputs from the same seed at the benchmark's full scale,
as ``tools/digest.py`` does, and run one untimed warm-up op.  Then op i of
each side runs in turn, this side first at odd i and the other side first
at even i (ABAB, then BABA), each timed on its own.  The script prints each
side's mean op time, their ratio (this over other) and whether the two
sides computed the same, floats bit for bit: equal ``StepReport``s at every
op and, after the last, equal parameter values and momentum velocities for
``train`` (an absent velocity counts as zeros); equal detections for
``infer_long``; and equal (average mAP, per-threshold mAPs in threshold
order, AR) for ``eval``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"train": "Train", "infer_long": "InferLong", "eval": "Eval"}


@contextlib.contextmanager
def loaded(checkouts, tmp: Path):
    """Each checkout's ``bench/workloads.py`` module, bound to its own copy
    of the checkout's ``tfpdet`` package (named ``tfpdet_ab<i>``); on exit
    both copies leave ``sys.modules`` and ``sys.path``."""
    names = [f"tfpdet_ab{i}" for i in range(len(checkouts))]
    saved = sys.modules.get("tfpdet")
    sys.path.insert(0, str(tmp))
    try:
        mods = []
        for name, checkout in zip(names, checkouts):
            shutil.copytree(Path(checkout) / "src" / "tfpdet", tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            pkg = importlib.import_module(name)
            for path in sorted((tmp / name).glob("[!_]*.py")):  # so `from tfpdet import x` finds each as an attribute
                importlib.import_module(f"{name}.{path.stem}")
            spec = importlib.util.spec_from_file_location(f"{name}_workloads", Path(checkout) / "bench" / "workloads.py")
            module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            sys.modules["tfpdet"] = pkg
            spec.loader.exec_module(module)
            mods.append(module)
        yield mods
    finally:
        if saved is None:
            sys.modules.pop("tfpdet", None)
        else:
            sys.modules["tfpdet"] = saved
        for key in [k for k in sys.modules if k.split(".")[0].removesuffix("_workloads") in names]:
            del sys.modules[key]
        sys.path.remove(str(tmp))


def canonical(out) -> str:
    """An op's output as text that is equal exactly when the outputs are:
    a ``StepReport`` as its JSON dict, detections as their fields, and a
    scoring pass as (average mAP, sorted per-threshold items, AR)."""
    if hasattr(out, "to_json_dict"):
        return json.dumps(out.to_json_dict(), sort_keys=True)
    if isinstance(out, tuple):
        average_map, per_threshold, ar = out
        return json.dumps([average_map, sorted(per_threshold.items()), ar])
    return json.dumps([[d.video_id, d.label, d.segment.start, d.segment.end, d.score] for d in out])


def model_state(model) -> list[bytes]:
    """Each parameter's values and velocity as bytes, in parameter order; a
    velocity that no update has created yet is zeros."""
    return [a.tobytes() for name, p in model.params.items()
            for a in (p.data, model.velocity.get(name, np.zeros_like(p.data)))]


def compare(other: Path, workload: str, ops: int, seed: int, scale: str = "FULL") -> dict:
    """Mean op seconds of this checkout and of ``other`` over ``ops``
    alternating ops after one warm-up op each, and whether every op's
    outputs, and for ``train`` the final parameters and velocities, were
    equal."""
    with tempfile.TemporaryDirectory() as tmp, loaded([ROOT, other], Path(tmp)) as mods:
        sides = [getattr(m, WORKLOADS[workload])(seed, getattr(m, scale), Path(tmp) / f"data{i}")
                 for i, m in enumerate(mods)]
        equal = canonical(sides[0].op(0)) == canonical(sides[1].op(0))
        seconds = [0.0, 0.0]
        for i in range(1, ops + 1):
            outs = [None, None]
            for s in ((0, 1) if i % 2 else (1, 0)):
                t0 = time.perf_counter()
                outs[s] = sides[s].op(i)
                seconds[s] += time.perf_counter() - t0
            equal = equal and canonical(outs[0]) == canonical(outs[1])
        if workload == "train":
            equal = equal and model_state(sides[0].model) == model_state(sides[1].model)
    return {"this_s": seconds[0] / ops, "other_s": seconds[1] / ops, "equal": equal}


def main(argv=None, scale: str = "FULL") -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the checkout to time against")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--ops", required=True, type=int, help="timed ops per side")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of both sides")
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    if not (args.other / "src" / "tfpdet" / "__init__.py").is_file():
        ap.error(f"no tfpdet sources under {args.other / 'src'}")
    r = compare(args.other, args.workload, args.ops, args.seed, scale)
    print(f"{args.workload} seed {args.seed} ops {args.ops} (alternating, after 1 warm-up op each)")
    print(f"this  {ROOT}: mean op {r['this_s'] * 1e3:.3f} ms")
    print(f"other {args.other.resolve()}: mean op {r['other_s'] * 1e3:.3f} ms")
    print(f"ratio this/other {r['this_s'] / r['other_s']:.4f}")
    print(f"outputs equal: {'yes' if r['equal'] else 'NO'}")
    return 0 if r["equal"] else 1


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
