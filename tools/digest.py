"""Print SHA-256 digests of what the detector computes, to check that a
change keeps its results equal bit for bit.

    python3 tools/digest.py [--float64]

Run from the root of a source checkout; it imports ``tfpdet`` from the
checkout's ``src/`` and builds its inputs with the benchmark's workloads
(``bench/workloads.py``, full scale, one BLAS thread):

- ``init``: one digest of every parameter's name, shape and values as the
  ``train`` workload's model is built, before any op (in ``--float64``
  mode, as redrawn), which pins the initial draw apart from training;
- ``grad``: one digest of every parameter's name, shape and leaf gradient
  after the backward of the ``train`` workload's op 0 and before its
  update, taken by wrapping ``numcore.sgd_step`` for that op only; when a
  change moves the ``train`` lines, it tells whether the backward or the
  update moved;
- ``train``: 40 ops of the ``train`` workload at seed 3, then one digest of
  the StepReports, one of every parameter's values and velocity, and one
  of the bytes that ``pipeline.save_checkpoint`` writes for the workload's
  model and ``TrainConfig`` at step 40, which pins the header's configs;
- ``infer_long``: per seed 1 to 5, one digest of ``infer_video``'s
  detections on each of the workload's videos;
- ``propose_long``: per seed 1 to 5, one digest of ``propose_video``'s
  proposals on the same videos with the same model;
- ``nms``: one digest of ``heads.nms_indices``'s kept indices over a seeded
  battery of valid calls, rows with finite ends and positive length at
  thresholds in (0, 1]: random sets of the detector's shapes (1,272
  candidates with ``top_k`` 100 at 0.7, 300 and 550 candidates at 0.4), a
  small set with tied scores and duplicate, nested and touching segments
  at thresholds 1e-9, 0.4, 0.7 and 1.0, with and without ``top_k``, and
  sweeps whose pairs span many of ``nms_indices``' chunks: 2,400
  candidates spread over an 8-window video, as one class of an
  ``infer_long`` video, with tied and with distinct scores at 0.4 and 0.7;
- ``pool``: one digest of the level values and the input gradient of
  ``pyramid.build_pyramid(x, PyramidConfig(variant="max"), {})``, driven by
  ``numcore.backward`` through a smooth-L1 loss on every level, over a
  seeded battery of [C, T] maps in float32 and float64: relu'd small
  integers, so pairs tie, with signed zeros and some NaN;
- ``roi``: one digest of the values and the input gradient of
  ``heads.roi_pool``, driven by ``numcore.backward`` through a smooth-L1
  loss, over a seeded battery of such maps in float32 and float64 at
  strides 8, 16 and 32 and 1 to 8 bins, pooling rows whose ends lie on
  sixteenths of a cell: from a sixteenth of a cell long to past the map,
  so that rows are clamped at 0 and at T * stride, rows that cover no
  cell center, and, from 3 bins up, rows with an empty bin whose center
  lies exactly halfway between two covered cells;
- ``eval``: per seed 1 to 5 of the ``eval`` workload, one digest of
  ``evaluate_detections``'s ``to_json_dict()`` and the exact AR at the
  workload's budget; then one line over the same five sets with every
  detection score and proposal objectness rounded to a multiple of 0.05,
  so that ranking ties, and the stable sort that orders them, are pinned
  too;
- ``synth``: one digest of every file that ``datakit.generate_synthetic``
  writes for ``SynthConfig(seed=510)``, whose ``video_0069`` restarts its
  instance placement, and for the default config at seeds 0 to 3;
- ``lengths``: one digest of ``datakit.sample_instance_length``'s draws over
  a seeded battery of band tables of 1, 2, 3, 7, 8, 9, 16 and 40 bands, with
  int weights, float weights of one or of 16 decades and subnormal weights,
  none summing to 1, given as tuples or as lists: per table and per seed 0
  to 3, 500 draws and then the next ``random()`` of the generator, which
  pins its state.

``--float64`` runs the model in float64: before the first op it redraws
the parameters as ``Model.build`` draws them from the model seed, in float64
and before any rounding to the model's own dtype, zeroes the velocities in
float64, and swaps the workload's videos or buffers for copies (made with
``dataclasses.replace``) whose features are cast to float64.  A checkout
whose model computes in another dtype can so be checked against float64
arithmetic.  Only the public API is used, so the script runs unchanged on
a checkout of the parent commit: copy it into one made with
``git archive`` and compare the printed lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAIN_SEED, TRAIN_OPS = 3, 40
INFER_SEEDS = range(1, 6)
NMS_SEED = 11
NMS_THRESHOLDS = (1e-9, 0.4, 0.7, 1.0)
POOL_SEED, POOL_CASES = 13, 60
ROI_SEED, ROI_CASES, ROI_ROWS = 19, 48, 24
EVAL_SEEDS = range(1, 6)
SYNTH_SEEDS = (510, 0, 1, 2, 3)  # 510: a video whose placement restarts
TIE_STEP = 0.05
LENGTH_SEED, LENGTH_SIZES = 17, (1, 2, 3, 7, 8, 9, 16, 40)
LENGTH_DRAW_SEEDS, LENGTH_DRAWS = range(4), 500


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def to_float64(workloads, model, videos_or_buffers) -> list:
    """Redraw the parameters of the benchmark's model in float64 with zero
    velocities, and return copies of the videos or buffers whose
    ``features`` arrays are cast to float64."""
    import numpy as np
    from tfpdet import numcore as nc, pipeline

    specs = pipeline.Model.param_specs(model.encoder_cfg, model.pyramid_cfg, model.apn_cfg, model.acn_cfg)
    model.params = nc.create_params(specs, np.random.default_rng([workloads.MODEL_SEED, 2]))  # Model.build's draw
    model.velocity = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    return [dataclasses.replace(item, features=item.features.astype(np.float64)) for item in videos_or_buffers]


def params_digest(params: dict, values) -> str:
    """Digest of each named parameter's name, shape and the array ``values`` gives for it."""
    return sha256(chunk for name, p in params.items()
                  for chunk in (json.dumps([name, p.data.shape]).encode(), values(p).tobytes()))


def train_digests(workloads, float64: bool, workdir: Path) -> tuple[str, str, str, str, str]:
    from tfpdet import numcore, pipeline

    w = workloads.Train(TRAIN_SEED, workloads.FULL, workdir)
    if float64:
        cast = iter(to_float64(workloads, w.model, [b for bufs in w.buffers.values() for b in bufs]))
        w.buffers = {vid: [next(cast) for _ in bufs] for vid, bufs in w.buffers.items()}
    init = params_digest(w.model.params, lambda p: p.data)
    update, grads = numcore.sgd_step, []

    def digest_then_update(params, *args):
        grads.append(params_digest(params, lambda p: p.grad))
        return update(params, *args)

    numcore.sgd_step = digest_then_update
    try:
        ops = [w.op(0)]
    finally:
        numcore.sgd_step = update
    ops += [w.op(i) for i in range(1, TRAIN_OPS)]
    reports = [json.dumps(op.to_json_dict(), sort_keys=True).encode() for op in ops]
    arrays = [a.tobytes() for name, p in w.model.params.items() for a in (p.data, w.model.velocity[name])]
    checkpoint = workdir / "model.tfpm"
    pipeline.save_checkpoint(checkpoint, w.model, w.cfg, TRAIN_OPS)
    return init, grads[0], sha256(reports), sha256(arrays), sha256([checkpoint.read_bytes()])


def infer_digests(workloads, seed: int, float64: bool, workdir: Path) -> tuple[str, str]:
    """Digests of ``infer_video``'s detections and ``propose_video``'s
    proposals on every video of the ``infer_long`` workload at ``seed``."""
    from tfpdet import pipeline

    w = workloads.InferLong(seed, workloads.FULL, workdir)
    if float64:
        w.videos = to_float64(workloads, w.model, w.videos)
    dets, props = [], []
    for i, video in enumerate(w.videos):
        dets += [[d.video_id, d.label, float(d.segment.start), float(d.segment.end), float(d.score)] for d in w.op(i)]
        props += [[video.video_id, float(p.segment.start), float(p.segment.end), float(p.objectness), p.source_level]
                  for p in pipeline.propose_video(video, w.model, w.cfg)]
    return sha256([json.dumps(dets).encode()]), sha256([json.dumps(props).encode()])


def nms_battery():
    """(segments, scores, thresh, top_k) of every ``nms_indices`` call the
    ``nms`` digest makes, with [n, 2] (start, end) rows of finite ends and
    positive length."""
    import numpy as np

    rng = np.random.default_rng(NMS_SEED)
    for n, thresh, top_k in ((1272, 0.7, 100), (300, 0.4, None), (550, 0.4, None)):
        for copies in (1, 3):  # 3: each segment jittered thrice, as a class's levels refine one proposal
            base = rng.uniform(-50, 768, n // copies)
            starts = np.repeat(base, copies) + rng.normal(0, 4, n // copies * copies)
            ends = starts + np.exp(rng.uniform(np.log(8), np.log(400), len(starts)))
            yield np.stack([starts, ends], axis=1), rng.uniform(0, 1, len(starts)), thresh, top_k
    edge = [(0, 10), (0, 10), (10, 20), (5, 15), (12, 30), (2, 8), (30, 40), (39, 50)]
    segments = np.array(edge, dtype=np.float64)
    for scores in (np.zeros(len(edge)), rng.integers(0, 3, len(edge)) / 2, rng.uniform(0, 1, len(edge))):
        for thresh in NMS_THRESHOLDS:
            for top_k in (None, 1, 4, 100):
                yield segments, scores, thresh, top_k
    # one class of an 8-window video, whose ~90k overlapping pairs span many of the sweep's chunks
    base = rng.uniform(0, 8 * 768, 800)
    starts = np.repeat(base, 3) + rng.normal(0, 4, 2400)
    segments = np.stack([starts, starts + np.exp(rng.uniform(np.log(8), np.log(400), 2400))], axis=1)
    for scores in (rng.integers(0, 50, 2400) / 49, rng.uniform(0, 1, 2400)):
        for thresh in (0.4, 0.7):
            yield segments, scores, thresh, None


def nms_digest() -> str:
    from tfpdet import heads

    return sha256([json.dumps([heads.nms_indices(*call) for call in nms_battery()]).encode()])


def pool_battery():
    """(x, targets) of every ``pool`` case: a [C, T] map and one smooth-L1
    target per level of the default three-level pyramid."""
    import numpy as np

    rng = np.random.default_rng(POOL_SEED)
    for case in range(POOL_CASES):
        c, t = int(rng.integers(1, 6)), 4 * int(rng.integers(1, 17))
        x = np.maximum(rng.integers(-3, 4, (c, t)), 0).astype(np.float64)
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        if case % 3 == 0:
            x[rng.random(x.shape) < 0.1] = np.nan
        yield x, [rng.integers(-3, 4, (c, t >> k)).astype(np.float64) for k in range(3)]


def pool_digest() -> str:
    import numpy as np
    from tfpdet import numcore as nc, pyramid

    chunks = []
    for dtype in (np.float32, np.float64):
        for x, targets in pool_battery():
            xt = nc.Tensor(x.astype(dtype), requires_grad=True)
            levels = pyramid.build_pyramid(xt, pyramid.PyramidConfig(variant="max"), {}).levels
            losses = [nc.smooth_l1(level, y.astype(dtype)) for level, y in zip(levels, targets)]
            nc.backward(nc.add(nc.add(losses[0], losses[1]), losses[2]))
            chunks += [level.data.tobytes() for level in levels] + [xt.grad.tobytes()]
    return sha256(chunks)


def roi_battery():
    """(x, segments, stride, bins, target) of every ``roi`` case: a [C, T]
    map, [N, 2] (start, end) rows in frames that ``heads.roi_pool`` takes,
    and a smooth-L1 target of the pooled [N, C, bins] shape.  Row ends are
    multiples of a sixteenth of a cell, so every bin edge and center is
    exact; case i has ``bins`` i % 8 + 1 and stride 8, 16 or 32 by i // 8."""
    import numpy as np

    rng = np.random.default_rng(ROI_SEED)
    for case in range(ROI_CASES):
        bins, stride = case % 8 + 1, float(8 << case // 8 % 3)
        c, t = int(rng.integers(1, 5)), int(rng.integers(8, 33))
        x = np.maximum(rng.integers(-3, 4, (c, t)), 0).astype(np.float64)
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        if case % 3 == 0:
            x[rng.random(x.shape) < 0.1] = np.nan
        # in sixteenths of a cell: every third row under a cell long, the others up to past the map
        starts = rng.integers(-32, 16 * t, ROI_ROWS)
        lengths = np.where(np.arange(ROI_ROWS) % 3, rng.integers(1, 16 * t + 48, ROI_ROWS), rng.integers(1, 16, ROI_ROWS))
        rows = [np.stack([starts, starts + lengths], axis=1)]
        # bins of half a cell from 3 bins up, of a quarter from 5: bin p is empty
        # and centered on cell edge k, so the covered cells k - 1 and k tie for it
        for width in (8, 4)[: (bins >= 3) + (bins >= 5)]:
            p = (bins - 1) // 2
            k = 16 * rng.integers(2, t - 2, 2)
            lo = k - width // 2 - p * width
            rows.append(np.stack([lo, lo + bins * width], axis=1))
        segments = np.concatenate(rows)
        segments = segments[(segments[:, 1] > 0) & (segments[:, 0] < 16 * t)] * (stride / 16)
        yield x, segments, stride, bins, rng.integers(-3, 4, (len(segments), c, bins)).astype(np.float64)


def roi_digest() -> str:
    import numpy as np
    from tfpdet import heads, numcore as nc

    chunks = []
    for dtype in (np.float32, np.float64):
        for x, segments, stride, bins, target in roi_battery():
            xt = nc.Tensor(x.astype(dtype), requires_grad=True)
            out = heads.roi_pool(xt, segments, stride, bins)
            nc.backward(nc.smooth_l1(out, target.astype(dtype)))
            chunks += [out.data.tobytes(), xt.grad.tobytes()]
    return sha256(chunks)


def synth_digest() -> str:
    """Digest of every file that ``generate_synthetic`` writes for the
    default ``SynthConfig`` at each of ``SYNTH_SEEDS``."""
    from tfpdet import datakit

    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SYNTH_SEEDS:
            out = Path(tmp) / f"seed{seed}"
            datakit.generate_synthetic(datakit.SynthConfig(seed=seed), out)
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    chunks += [f"{seed}/{path.relative_to(out).as_posix()}".encode(), path.read_bytes()]
    return sha256(chunks)


def length_tables():
    """Every band table of the ``lengths`` digest: for each of
    ``LENGTH_SIZES`` bands, disjoint ascending lengths with int weights,
    float weights of one decade or of 16 and subnormal weights, every other
    table a list of lists."""
    import numpy as np

    rng = np.random.default_rng(LENGTH_SEED)
    kinds = [(n, kind) for n in LENGTH_SIZES for kind in ("int", "float", "wide", "subnormal")]
    for i, (n, kind) in enumerate(kinds):
        lo = np.cumsum(rng.integers(1, 30, n)) + 30 * np.arange(n)
        hi = lo + rng.integers(0, 30, n)
        ints = rng.integers(1, 1000, n)
        floats = rng.uniform(1, 10, n)
        weights = {"int": ints.tolist(), "float": floats.tolist(),
                   "wide": (floats * 10.0 ** rng.integers(-8, 8, n)).tolist(),
                   "subnormal": (ints * 5e-324).tolist()}[kind]
        table = [(int(a), int(b), w) for a, b, w in zip(lo, hi, weights)]
        yield [list(band) for band in table] if i % 2 else tuple(table)


def lengths_digest() -> str:
    import numpy as np
    from tfpdet import datakit

    draws = []
    for bands in length_tables():
        for seed in LENGTH_DRAW_SEEDS:
            rng = np.random.default_rng(seed)
            draws.append([datakit.sample_instance_length(rng, bands) for _ in range(LENGTH_DRAWS)] + [rng.random()])
    return sha256([json.dumps(draws).encode()])


def tied(w):
    """The detections and proposals of ``Eval`` workload ``w`` with each
    score and objectness rounded to a multiple of ``TIE_STEP``."""
    from tfpdet import heads

    dets = [heads.Detection(d.segment, d.label, round(d.score / TIE_STEP) * TIE_STEP, d.video_id) for d in w.dets]
    props = {vid: [heads.Proposal(p.segment, round(p.objectness / TIE_STEP) * TIE_STEP, p.source_level) for p in ps]
             for vid, ps in w.proposals.items()}
    return dets, props


def eval_digest(w, dets, proposals) -> tuple[str, float]:
    """Digest of the report of one scoring pass of ``Eval`` workload ``w``
    on ``dets`` and ``proposals``, and its AR."""
    from tfpdet import evalkit

    report = evalkit.evaluate_detections(dets, w.gts, w.cfg)
    ar = evalkit.average_recall(proposals, w.gt_segments, w.cfg.proposal_budget, w.cfg.ar_tiou_grid)
    return sha256([json.dumps(report.to_json_dict()).encode()]), ar


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--float64", action="store_true", help="run the model and the features in float64")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads  # imports numpy and tfpdet, so only after the thread cap

    with tempfile.TemporaryDirectory() as tmp:
        init, grads, reports, arrays, checkpoint = train_digests(workloads, args.float64, Path(tmp) / "train")
        print(f"init model seed {workloads.MODEL_SEED} params {init}")
        print(f"grad seed {TRAIN_SEED} op 0 leaf gradients before the update {grads}")
        print(f"train seed {TRAIN_SEED} ops {TRAIN_OPS} reports {reports}")
        print(f"train seed {TRAIN_SEED} ops {TRAIN_OPS} params+velocities {arrays}")
        print(f"train seed {TRAIN_SEED} ops {TRAIN_OPS} checkpoint {checkpoint}")
        proposals = []
        for seed in INFER_SEEDS:
            dets, props = infer_digests(workloads, seed, args.float64, Path(tmp) / f"infer{seed}")
            print(f"infer_long seed {seed} detections {dets}")
            proposals.append(f"propose_long seed {seed} proposals {props}")
        print("\n".join(proposals))
        evals = [workloads.Eval(seed, workloads.FULL, Path(tmp) / f"eval{seed}") for seed in EVAL_SEEDS]
    for seed, w in zip(EVAL_SEEDS, evals):
        report, ar = eval_digest(w, w.dets, w.proposals)
        print(f"eval seed {seed} report {report} ar {ar!r}")
    tied_digests = repr([eval_digest(w, *tied(w)) for w in evals]).encode()
    print(f"eval seeds {EVAL_SEEDS[0]}-{EVAL_SEEDS[-1]} scores rounded to {TIE_STEP} reports+ars {sha256([tied_digests])}")
    print(f"nms seed {NMS_SEED} kept {nms_digest()}")
    print(f"pool seed {POOL_SEED} cases {POOL_CASES} values+gradients {pool_digest()}")
    print(f"roi seed {ROI_SEED} cases {ROI_CASES} values+gradients {roi_digest()}")
    print(f"synth seeds {', '.join(map(str, SYNTH_SEEDS))} files {synth_digest()}")
    print(f"lengths seed {LENGTH_SEED} tables {len(list(length_tables()))} draws {lengths_digest()}")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
