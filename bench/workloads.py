"""The benchmark's workloads.  Each is one closed loop with one client: an op
is one call into ``tfpdet`` that a user waits for.

A workload object is built from the workload seed and a ``Scale`` (that is
the timed set-up, minus the warm-up op), then driven by the harness through
``op(i)``; ``check`` validates each op's output.  Every input derives from
the seed; models are built from ``MODEL_SEED`` so that a seed changes the
data and never the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tfpdet import anchorkit, datakit, evalkit, heads, pipeline, pyramid

MODEL_SEED = 0
BUFFER_LEN = 768
NUM_CLASSES = 3
FEATURE_DIM = 16
FRAMES_PER_LONG_INSTANCE = 384  # 16 instances in a 6144-frame video, as 2 in 768


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the benchmark command runs; ``TINY``
    keeps the benchmark's own tests fast."""

    train_videos: int = 10
    hidden: int = 64
    long_frames: int = 8 * BUFFER_LEN
    long_videos: int = 4
    eval_videos: int = 3
    eval_dets_per_video: int = 1600
    eval_proposals_per_video: int = 800
    setup_reps: int = 9
    count_ops: int = 4  # traced ops whose work counts are reported


FULL = Scale()
TINY = Scale(train_videos=2, hidden=8, long_frames=2 * BUFFER_LEN, long_videos=2, eval_videos=2,
             eval_dets_per_video=200, eval_proposals_per_video=200, setup_reps=2, count_ops=2)


class CheckFailed(Exception):
    """An op returned output that violates the workload's contract."""


def build_model(hidden: int) -> pipeline.Model:
    return pipeline.Model.build(
        pyramid.EncoderConfig(input_dim=FEATURE_DIM, hidden_dim=hidden),
        pyramid.PyramidConfig(),
        heads.ApnConfig(scales=anchorkit.DEFAULT_SCALES),
        heads.AcnConfig(num_classes=NUM_CLASSES, strategy="s3", use_context=True),
        seed=MODEL_SEED,
    )


def long_videos(scale: Scale, num_videos: int, seed: int, workdir: Path) -> dict:
    """Generate and load long synthetic videos with a fixed instance count."""
    n = scale.long_frames // FRAMES_PER_LONG_INSTANCE
    cfg = datakit.SynthConfig(num_videos=num_videos, video_length=scale.long_frames,
                              feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES,
                              instances_per_video=(n, n), val_fraction=0.0, seed=seed)
    datakit.generate_synthetic(cfg, workdir)
    records, _ = datakit.load_dataset(workdir)
    return records


class Train:
    """``pipeline.train_step`` on buffers picked by ``pick_training_buffer``.
    An item is one buffer frame.

    The buffers come from long videos, 80 windows of 768 frames in all, as
    many as the default synthetic set.  The default set itself
    (``SynthConfig()``: 80 videos of 768 frames, 1 to 4 instances) cannot
    be placed for about 1% of seeds, where ``generate_synthetic`` raises
    ``ConfigError``; a long video leaves room for its instances."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        records = long_videos(scale, scale.train_videos, seed, workdir)
        self.buffers = {vid: datakit.make_buffers(r, BUFFER_LEN) for vid, r in records.items()}
        self.cfg = pipeline.TrainConfig(buffer_len=BUFFER_LEN, seed=seed)
        self.model = build_model(scale.hidden)
        self.grid = anchorkit.build_anchor_grid(BUFFER_LEN, self.model.pyramid_cfg.strides,
                                                self.model.apn_cfg.scales)

    def op(self, i: int) -> pipeline.StepReport:
        buf = pipeline.pick_training_buffer(self.buffers, self.cfg, i)
        return pipeline.train_step(buf, self.model, self.cfg, self.grid, i)

    def check(self, report: pipeline.StepReport) -> None:
        losses = [report.total_loss]
        for terms in (report.apn_cls, report.apn_loc, report.acn_cls, report.acn_loc):
            losses += [v for v in terms if v is not None]
        if not all(math.isfinite(v) for v in losses):
            raise CheckFailed(f"step {report.step}: non-finite loss in {losses}")

    def items(self, report) -> int:
        return BUFFER_LEN

    def layer_counts(self, report) -> dict:
        return {"apn_pos": sum(report.apn_pos), "apn_neg": sum(report.apn_neg),
                "acn_pos": sum(report.acn_pos), "acn_neg": sum(report.acn_neg)}


class InferLong:
    """``pipeline.infer_video`` on long videos (8 windows each) with an
    untrained model, so every window yields ``top_k`` proposals and every
    class clears the score threshold: the work per window is at its maximum
    and does not depend on how well a model learns.  An item is one frame."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        records = long_videos(scale, scale.long_videos, seed, workdir)
        self.videos = [records[v] for v in sorted(records)]
        self.cfg = pipeline.TrainConfig(buffer_len=BUFFER_LEN, seed=seed)
        self.model = build_model(scale.hidden)
        self._current = None

    def op(self, i: int) -> list:
        self._current = self.videos[i % len(self.videos)]
        return pipeline.infer_video(self._current, self.model, self.cfg)

    def check(self, dets: list) -> None:
        rec = self._current
        for d in dets:
            if not 1 <= d.label <= NUM_CLASSES:
                raise CheckFailed(f"{rec.video_id}: label {d.label} outside 1..{NUM_CLASSES}")
            if not 0.0 <= d.score <= 1.0:
                raise CheckFailed(f"{rec.video_id}: score {d.score} outside [0, 1]")
            if not (0.0 <= d.segment.start < d.segment.end <= rec.num_frames) or d.video_id != rec.video_id:
                raise CheckFailed(f"{rec.video_id}: detection {d} outside the video")
        if any(a.score < b.score for a, b in zip(dets, dets[1:])):
            raise CheckFailed(f"{rec.video_id}: detections not sorted by score")

    def items(self, dets) -> int:
        return self._current.num_frames

    def layer_counts(self, dets) -> dict:
        return {}


def _jittered(rng, seg: anchorkit.Segment, spread: float, hi: float):
    """``seg`` with each boundary moved by up to ``spread`` of its length;
    tIoU with ``seg`` then falls on both sides of the 0.5..0.95 thresholds."""
    s = seg.start + rng.uniform(-spread, spread) * seg.length
    e = seg.end + rng.uniform(-spread, spread) * seg.length
    s, e = max(s, 0.0), min(e, hi)
    return anchorkit.Segment(s, e) if e - s >= 1.0 else seg


def _random_segment(rng, hi: float) -> anchorkit.Segment:
    length = float(datakit.sample_instance_length(rng, datakit.SynthConfig().duration_bands)[0])
    start = rng.uniform(0.0, hi - length)
    return anchorkit.Segment(start, start + length)


class Eval:
    """One scoring pass: ``evaluate_detections`` plus ``average_recall`` at
    budget 100 over a fixed detection and proposal set made from the seed
    with no model.  Per video it holds about as many detections as
    ``infer_long`` produces: jittered copies of every ground truth (with
    the right label or a wrong one) plus random false positives.  An item
    is one detection."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        records = long_videos(scale, scale.eval_videos, seed, workdir)
        rng = np.random.default_rng([seed, 7])
        # Labels go round-robin in time order: every video then holds the same
        # number of instances per class, and the matchers' work (detections
        # times same-class ground truth) does not swing with the seed.
        self.gts = {vid: [(a.segment(), 1 + k % NUM_CLASSES) for k, a in enumerate(r.annotations)]
                    for vid, r in records.items()}
        self.gt_segments = {vid: [s for s, _ in v] for vid, v in self.gts.items()}
        self.dets, self.proposals = [], {}
        for vid in sorted(records):
            hi = float(records[vid].num_frames)
            gts = self.gts[vid]
            for j in range(scale.eval_dets_per_video):
                if j < 0.3 * scale.eval_dets_per_video:
                    seg, label = gts[j % len(gts)]
                    seg = _jittered(rng, seg, 0.3, hi)
                    if rng.random() < 0.3:
                        label = int(rng.integers(1, NUM_CLASSES + 1))
                    score = rng.uniform(0.2, 1.0)
                else:
                    seg, label = _random_segment(rng, hi), int(rng.integers(1, NUM_CLASSES + 1))
                    score = rng.uniform(0.0, 0.8)
                self.dets.append(heads.Detection(seg, label, float(score), vid))
            props = []
            for j in range(scale.eval_proposals_per_video):
                if j < 0.2 * scale.eval_proposals_per_video:
                    seg = _jittered(rng, gts[j % len(gts)][0], 0.3, hi)
                else:
                    seg = _random_segment(rng, hi)
                props.append(heads.Proposal(seg, float(rng.random()), 0))
            self.proposals[vid] = props
        self.cfg = evalkit.EvalConfig()
        self.reference = None

    def _score(self, dets, proposals) -> tuple:
        report = evalkit.evaluate_detections(dets, self.gts, self.cfg)
        ar = evalkit.average_recall(proposals, self.gt_segments, self.cfg.proposal_budget, self.cfg.ar_tiou_grid)
        return report.average_map, report.map_per_threshold, ar

    def op(self, i: int) -> tuple:
        return self._score(self.dets, self.proposals)

    def check(self, out: tuple) -> None:
        average_map, per_threshold, ar = out
        if not all(0.0 <= v <= 1.0 for v in (average_map, ar, *per_threshold.values())):
            raise CheckFailed(f"metric outside [0, 1]: mAP {average_map}, AR {ar}")
        if self.reference is None:
            self.reference = out
        elif out != self.reference:
            raise CheckFailed(f"scoring pass changed: {out[0]}, {out[2]} != {self.reference[0]}, {self.reference[2]}")

    def check_once(self) -> None:
        """Ground truth scored as its own detections gives mAP 1 and AR 1."""
        dets = [heads.Detection(s, label, 1.0, vid) for vid, v in self.gts.items() for s, label in v]
        props = {vid: [heads.Proposal(s, 1.0, 0) for s in v] for vid, v in self.gt_segments.items()}
        average_map, _, ar = self._score(dets, props)
        if average_map != 1.0 or ar != 1.0:
            raise CheckFailed(f"ground truth scored against itself: mAP {average_map}, AR {ar}")

    def items(self, out) -> int:
        return len(self.dets)

    def layer_counts(self, out) -> dict:
        return {}


WORKLOADS = {"train": Train, "infer_long": InferLong, "eval": Eval}
