"""Runs one workload in a closed loop and turns what it measured into the
benchmark's metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A traced
run reports the per-layer metrics.  Its timed ops alternate between untraced
and traced, so the same run gives the tracing overhead.  The first
``scale.count_ops`` traced ops count work (calls, autograd nodes,
proposals, ...); being the same ops for a seed however long the run, their
counts repeat exactly.  The traced ops after them record only spans, and
give each layer's self time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tfpdet.errors import TfpdetError
from tracing import LAYERS, SETUP_OP, Tracer
from workloads import FULL, WORKLOADS, CheckFailed, Scale

# Functions that run while setting up; their per-set-up cost is reported
# under "setup.<layer>".
SETUP_LAYERS = ("datakit.generate_synthetic", "datakit.load_dataset", "datakit.make_buffers",
                "anchorkit.build_anchor_grid")
# Layers that never run inside an op get no per-op metric.
OP_LAYERS = tuple(n for n in LAYERS if n not in ("datakit.generate_synthetic", "datakit.load_dataset"))
COUNTS = ("numcore.graph_nodes", "heads.proposals", "heads.acn_rows", "heads.detections", "evalkit.tiou_calls")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in OP_LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in SETUP_LAYERS:
        units[f"setup.{name}.self_s"] = "s"
        units[f"setup.{name}.calls"] = "count"
    units["setup.warmup_s"] = "s"
    units["op.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units["anchorkit.apn_pos_ratio"] = "ratio"
    units["anchorkit.acn_fg_ratio"] = "ratio"
    units["trace.untraced_op_p50_s"] = "s"
    units["trace.traced_op_p50_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()

# The end-to-end metrics under the names a reader of each workload knows.
# The op latencies are printed there only: see README.md for why they carry
# no bound.
NAMED = {
    "train": {"op_p50_s": "train_step_p50_s", "op_p90_s": "train_step_p90_s", "items_per_s": "train_frames_per_s"},
    "infer_long": {"op_p50_s": "infer_video_p50_s", "op_p90_s": "infer_video_p90_s", "items_per_s": "infer_frames_per_s"},
    "eval": {"op_p50_s": "eval_pass_p50_s", "op_p90_s": "eval_pass_p90_s", "items_per_s": "eval_dets_per_s"},
}
ITEM_UNITS = {"train": "frames/s", "infer_long": "frames/s", "eval": "dets/s"}


def environment(root: Path) -> dict:
    """Where a result was measured: commit, sources, machine, libraries."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((root / "src" / "tfpdet").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    return {
        "commit": _git_commit(root),
        "src_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _timed_op(wl, i: int):
    """Run op ``i``; returns (output or None, seconds, error)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except TfpdetError as e:
        return None, time.perf_counter() - t0, f"op {i}: {type(e).__name__}: {e}"
    return out, time.perf_counter() - t0, None


def _checked(wl, i: int, out, err):
    """``err``, or the reason ``out`` fails the workload's check."""
    if err is None:
        try:
            wl.check(out)
        except CheckFailed as e:
            return f"op {i}: check failed: {e}"
    return err


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, scale: Scale = FULL) -> dict:
    """Run ops for ``seconds`` and set up ``scale.setup_reps`` times.

    Returns the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) plus ``named`` (end-to-end metrics under workload names),
    ``ops`` and ``errors``.
    """
    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None

    def installed():
        return tracer.installed() if tracer else contextlib.nullcontext()

    def span(label: str):
        return tracer.span(label) if tracer else contextlib.nullcontext()

    errors: list[str] = []
    setup_times: list[float] = []
    workdir = out_dir / f"data-{os.getpid()}"

    def set_up():
        shutil.rmtree(workdir, ignore_errors=True)
        with installed():
            t0 = time.perf_counter()
            fresh = cls(seed, scale, workdir)
            with span("setup.warmup"):
                out, _, err = _timed_op(fresh, 0)
            setup_times.append(time.perf_counter() - t0)
        shutil.rmtree(workdir)
        err = _checked(fresh, 0, out, err)
        if err:
            errors.append(err)
        return fresh

    # The machine's speed drifts over seconds, so the set-ups are spread
    # over the run instead of sampling only its first moment.  The ops go on
    # with the first workload; later set-ups are timed and dropped.
    wl = set_up()
    run_errors = []
    check_once = getattr(wl, "check_once", None)
    if check_once is not None:
        try:
            check_once()
        except (CheckFailed, TfpdetError) as e:
            run_errors.append(f"run check failed: {e}")

    times, traced_times = [], []  # untraced ops; traced ops that do not count
    items = 0
    counting_ops: list[int] = []
    timed_ops: list[int] = []
    layer_counts: Counter = Counter()
    i = 1
    start = time.perf_counter()
    deadline = start + seconds
    setup_every = seconds / scale.setup_reps
    while time.perf_counter() < deadline or (tracer is not None and len(counting_ops) < scale.count_ops):
        if len(setup_times) < scale.setup_reps and time.perf_counter() - start >= len(setup_times) * setup_every:
            t0 = time.perf_counter()
            set_up()
            paused = time.perf_counter() - t0
            start += paused
            deadline += paused
            continue
        if tracer is None or i % 2:
            kind = "plain"
            out, dt, err = _timed_op(wl, i)
        else:
            kind = "count" if len(counting_ops) < scale.count_ops else "timed"
            (counting_ops if kind == "count" else timed_ops).append(i)
            tracer.op = i
            with tracer.installed(counting=kind == "count"), tracer.span("op"):
                out, dt, err = _timed_op(wl, i)
            tracer.op = SETUP_OP
        err = _checked(wl, i, out, err)
        if err:
            errors.append(err)
        elif kind == "plain":
            times.append(dt)
            items += wl.items(out)
        elif kind == "timed":
            traced_times.append(dt)
        else:
            layer_counts.update(wl.layer_counts(out))
        i += 1

    while len(setup_times) < scale.setup_reps:
        set_up()

    failed = len(errors)
    attempted = scale.setup_reps + i - 1
    result = {"correct": not errors and not run_errors, "attempted": attempted, "failed": failed}
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": items / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        values["op_p50_s"] = statistics.median(times) if times else 0.0
        values["op_p90_s"] = float(np.quantile(times, 0.9)) if times else 0.0
        units = dict(END_TO_END_UNITS, op_p50_s="s", op_p90_s="s", items_per_s=ITEM_UNITS[name])
        named = {NAMED[name].get(k, k): {"value": v, "unit": units[k]} for k, v in values.items()}
        named["failed_op_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        named["timed_ops"] = {"value": len(times), "unit": "count"}
        result["named"] = named
    else:
        values = layer_metrics(tracer, counting_ops, timed_ops or counting_ops, scale.setup_reps, layer_counts)
        values["trace.untraced_op_p50_s"] = statistics.median(times) if times else 0.0
        values["trace.traced_op_p50_s"] = statistics.median(traced_times) if traced_times else 0.0
        values["trace.overhead_ratio"] = (values["trace.traced_op_p50_s"] / values["trace.untraced_op_p50_s"] - 1.0
                                          if times and traced_times else 0.0)
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        tracer.dump(out_dir / f"trace-{name}.json",
                    {"workload": name, "seed": seed, "seconds": seconds, "setup_reps": scale.setup_reps,
                     "counting_ops": counting_ops, "timed_ops": timed_ops})
    result["ops"] = i - 1
    result["errors"] = run_errors + errors
    return result


def layer_metrics(tracer: Tracer, counting_ops: list, timed_ops: list, reps: int, layer_counts: Counter) -> dict:
    """Per-op self time (over ``timed_ops``) and calls (over
    ``counting_ops``) of every layer, per-set-up cost of the set-up layers,
    and the work counts of ``counting_ops``."""
    counting, timed = set(counting_ops), set(timed_ops)
    self_s, calls, setup_s, setup_calls = Counter(), Counter(), Counter(), Counter()
    for (_, name, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
        if op == SETUP_OP:
            setup_s[name] += own
            setup_calls[name] += 1
        if op in timed:
            self_s[name] += own
        if op in counting:
            calls[name] += 1
    n, k = max(len(timed), 1), max(len(counting), 1)
    values = {}
    for name in OP_LAYERS:
        values[f"{name}.self_s"] = self_s[name] / n
        values[f"{name}.calls"] = calls[name] / k
    for name in SETUP_LAYERS:
        values[f"setup.{name}.self_s"] = setup_s[name] / reps
        values[f"setup.{name}.calls"] = setup_calls[name] / reps
    # the warm-up span's children are wrapped layers: report its whole duration
    values["setup.warmup_s"] = sum(e - s for _, nm, s, e, _, op in tracer.spans
                                   if nm == "setup.warmup" and op == SETUP_OP) / reps
    values["op.self_s"] = self_s["op"] / n
    counts = Counter()
    for op in counting:
        counts.update(tracer.counts.get(op, Counter()))
    for name in COUNTS:
        values[name] = counts[name] / k
    apn = layer_counts["apn_pos"] + layer_counts["apn_neg"]
    acn = layer_counts["acn_pos"] + layer_counts["acn_neg"]
    values["anchorkit.apn_pos_ratio"] = layer_counts["apn_pos"] / apn if apn else 0.0
    values["anchorkit.acn_fg_ratio"] = layer_counts["acn_pos"] / acn if acn else 0.0
    return values


def print_result(result: dict, env: dict, name: str, seed: int, out=sys.stdout) -> None:
    """Environment and named metrics first; the result object is the last line."""
    print(json.dumps({"env": env, "workload": name, "seed": seed, "ops": result["ops"]}), file=out)
    for err in result["errors"][:10]:
        print(f"error: {err}", file=sys.stderr)
    if "named" in result:
        print(json.dumps({"named": result["named"]}), file=out)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), file=out, flush=True)
