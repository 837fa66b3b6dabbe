"""The benchmark's own tests: every workload runs at a tiny size and reports
every declared metric with its unit; the work counts of a traced run repeat
exactly at one seed; the command refuses to run without the sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("numcore.graph_nodes", "heads.proposals", "heads.acn_rows", "heads.detections",
                   "evalkit.tiou_calls")
# the counts each workload must show as nonzero
NONZERO = {
    "train": ("numcore.graph_nodes", "heads.proposals", "heads.acn_rows", "heads.roi_pool.calls",
              "numcore.sgd_step.calls", "anchorkit.apn_pos_ratio"),
    "infer_long": ("heads.proposals", "heads.acn_rows", "heads.detections", "heads.nms_detections.calls",
                   "anchorkit.build_anchor_grid.calls"),
    "eval": ("evalkit.tiou_calls", "evalkit.average_precision.calls", "evalkit.average_recall.calls"),
}


def tiny_run(tmp_path, name, trace, seed=3):
    return harness.run(name, seed, 0.2, trace, tmp_path, scale=workloads.TINY)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    result = tiny_run(tmp_path, name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = result["named"]
    for key in harness.NAMED[name].values():
        assert named[key]["value"] > 0 and named[key]["unit"]
    assert named["failed_op_ratio"] == {"value": 0.0, "unit": "ratio"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_at_one_seed(tmp_path, name):
    first = tiny_run(tmp_path, name, trace=True)
    second = tiny_run(tmp_path, name, trace=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    for key in REPEATED_COUNTS + NONZERO[name]:
        assert first["metrics"][key] == second["metrics"][key], key
    for key in NONZERO[name]:
        assert first["metrics"][key]["value"] > 0, key
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert trace["spans"] and trace["meta"]["workload"] == name


def test_tracing_restores_the_layers():
    from tfpdet import evalkit, heads, numcore

    before = (heads.roi_pool, numcore.backward, evalkit.tiou)
    tracer = Tracer()
    with tracer.installed(counting=True):
        assert heads.roi_pool is not before[0] and evalkit.tiou is not before[2]
    assert (heads.roi_pool, numcore.backward, evalkit.tiou) == before


def test_spans_nest_and_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert [(sid, n, parent) for sid, n, _, _, parent, _ in tracer.spans] == [
        (2, "b", 1), (1, "a", 0), (3, "c", 0), (0, "op", -1)]
    times = {"op": (0.0, 10.0), "a": (1.0, 4.0), "b": (2.0, 3.0), "c": (5.0, 6.0)}
    tracer.spans = [(sid, n, *times[n], parent, op) for sid, n, _, _, parent, op in tracer.spans]
    assert tracer.self_times() == [1.0, 2.0, 1.0, 6.0]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
