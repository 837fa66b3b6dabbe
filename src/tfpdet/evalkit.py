"""Detection and proposal metrics: AP/mAP at tIoU thresholds, average
recall at a proposal budget.

Matching is one-to-one and greedy by descending score with each ground
truth usable once: one ``tiou`` matrix per (video, class) block, walked once
for all thresholds.  AP integrates the precision envelope over exact recall
steps.  Classes without any ground truth are excluded from mAP averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchorkit import segment_pairs, tiou
from .errors import ConfigError, ContractError

DETECTION_DISPLAY_THRESHOLDS = (0.5, 0.75, 0.95)


def average_map_grid() -> tuple:
    """tIoU thresholds 0.5:0.05:0.95 used for the averaged mAP and AR."""
    return tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class EvalConfig:
    tiou_thresholds: tuple = DETECTION_DISPLAY_THRESHOLDS
    average_grid: tuple = field(default_factory=average_map_grid)
    proposal_budget: int = 100
    ar_tiou_grid: tuple = field(default_factory=average_map_grid)

    def __post_init__(self):
        for grid in (self.tiou_thresholds, self.average_grid, self.ar_tiou_grid):
            if any(not 0.0 < t <= 1.0 for t in grid):
                raise ConfigError(f"tIoU thresholds must lie in (0, 1], got {grid}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"tIoU thresholds must be strictly increasing, got {grid}")
        if self.proposal_budget < 1:
            raise ConfigError(f"proposal_budget must be positive, got {self.proposal_budget}")


@dataclass
class EvalReport:
    per_class_ap: dict  # label -> {threshold -> ap}
    map_per_threshold: dict  # threshold -> map
    average_map: float
    ar_at_budget: float | None
    counts: dict

    def to_json_dict(self) -> dict:
        return {
            "per_class_ap": {
                str(label): {f"{t:.2f}": ap for t, ap in sorted(by_t.items())}
                for label, by_t in sorted(self.per_class_ap.items())
            },
            "map_per_threshold": {f"{t:.2f}": v for t, v in sorted(self.map_per_threshold.items())},
            "average_map": self.average_map,
            "ar_at_budget": self.ar_at_budget,
            "counts": self.counts,
        }

    def format_table(self, display_thresholds=None) -> str:
        ts = sorted(display_thresholds or self.map_per_threshold)
        head = "metric    " + "".join(f"{t:>8.2f}" for t in ts) + f"{'Average':>10}"
        row = "mAP       " + "".join(f"{self.map_per_threshold.get(t, float('nan')):>8.4f}" for t in ts)
        row += f"{self.average_map:>10.4f}"
        lines = [head, row]
        if self.ar_at_budget is not None:
            lines.append(f"AR@{self.counts.get('proposal_budget', 0):<7d}{self.ar_at_budget:>8.4f}")
        return "\n".join(lines)


def _greedy_match(m: np.ndarray, thresholds) -> np.ndarray:
    """bool [T, n]: whether row i of a block's [n, G] tIoU matrix, walked
    in rank order, takes the unused column of largest tIoU >= threshold t
    (lowest index on ties).  Only rows reaching the lowest threshold are
    walked; sorted threshold k is bit k of the ints in ``used`` and ``row``.
    """
    ts = np.asarray(thresholds, dtype=np.float64)
    if len(ts) > 62:  # a row's bits must fit an int64
        return np.concatenate([_greedy_match(m, ts[k:k + 62]) for k in range(0, len(ts), 62)])
    perm = np.argsort(ts, kind="stable")
    reach = np.searchsorted(ts[perm], m, side="right")  # thresholds each tIoU reaches
    walk = np.flatnonzero(reach.max(axis=1) > 0)
    cols = np.argsort(-m[walk], axis=1, kind="stable")  # best column first, lowest index on ties
    used = [0] * m.shape[1]
    got = []
    for order, ks in zip(cols.tolist(), np.take_along_axis(reach[walk], cols, axis=1).tolist()):
        row = 0
        for g, k in zip(order, ks):
            if k == 0:
                break
            take = ((1 << k) - 1) & ~used[g] & ~row
            used[g] |= take
            row |= take
        got.append(row)
    hit = np.zeros((len(ts), len(m)), dtype=bool)
    hit[perm[:, None], walk] = (np.array(got, dtype=np.int64) >> np.arange(len(ts))[:, None]) & 1
    return hit


def average_precision(dets, gts_by_video: dict, thresholds) -> list | None:
    """AP of one class at each of ``thresholds``.  ``gts_by_video`` maps
    video id to Segment lists; returns None when the class has no ground
    truth anywhere."""
    npos = sum(len(v) for v in gts_by_video.values())
    if npos == 0:
        return None
    # rank by descending score; ties by earlier start, then video id
    vids = [d.video_id for d in dets]
    pairs = segment_pairs([d.segment for d in dets])
    order = np.lexsort((vids, pairs[:, 0], [-d.score for d in dets]))
    videos, video_of = np.unique(vids, return_inverse=True)
    ranks_by_video = np.split(np.argsort(video_of[order], kind="stable"), np.cumsum(np.bincount(video_of))[:-1])
    hit = np.zeros((len(thresholds), len(dets)), dtype=bool)
    for vid, ranks in zip(videos, ranks_by_video):
        gts = gts_by_video.get(vid)
        if gts:
            hit[:, ranks] = _greedy_match(tiou(pairs[order[ranks], None], segment_pairs(gts)), thresholds)
    tp = np.cumsum(hit, axis=1)
    recall = np.pad(tp / npos, ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
    precision = np.pad(tp / np.arange(1, len(dets) + 1), ((0, 0), (1, 1)))
    # precision envelope (best precision at recall >= r), then exact step integration
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    step = recall[:, 1:] != recall[:, :-1]
    area = (recall[:, 1:] - recall[:, :-1]) * envelope[:, 1:]
    # np.sum per row: a fused 2-D reduction adds in another order and moves the last bit
    return [float(np.sum(a[s])) for a, s in zip(area, step)]


def evaluate_detections(dets, gts_by_video: dict, cfg: EvalConfig) -> EvalReport:
    """AP per (class, threshold), mAP per threshold, averaged mAP.

    ``gts_by_video`` maps video id to a list of (Segment, label) pairs;
    ``dets`` is a flat detection list (attributes segment/label/score/
    video_id).
    """
    total_gt = sum(len(v) for v in gts_by_video.values())
    if total_gt == 0:
        raise ContractError("evaluate_detections needs at least one ground-truth instance")
    classes = sorted({label for v in gts_by_video.values() for _, label in v})
    thresholds = sorted(set(cfg.tiou_thresholds) | set(cfg.average_grid))
    dets_by_class = {c: [] for c in classes}
    for d in dets:
        if d.label in dets_by_class:
            dets_by_class[d.label].append(d)
    gts_by_class = {
        c: {vid: [seg for seg, label in v if label == c] for vid, v in gts_by_video.items()}
        for c in classes
    }
    # every class here has ground truth, so its AP list is never None
    per_class = {c: dict(zip(thresholds, average_precision(dets_by_class[c], gts_by_class[c], thresholds)))
                 for c in classes}
    map_per_t = {
        t: float(np.mean([per_class[c][t] for c in classes]))
        for t in thresholds
    }
    avg = float(np.mean([map_per_t[t] for t in cfg.average_grid]))
    return EvalReport(
        per_class_ap=per_class,
        map_per_threshold=map_per_t,
        average_map=avg,
        ar_at_budget=None,
        counts={
            "ground_truth": total_gt,
            "detections": len(dets),
            "classes": len(classes),
            "proposal_budget": cfg.proposal_budget,
        },
    )


def average_recall(proposals_by_video: dict, gts_by_video: dict, budget: int, grid) -> float:
    """Mean over the tIoU grid of the recall of the top-``budget``
    proposals per video, matched one-to-one greedily by objectness."""
    total_gt = sum(len(v) for v in gts_by_video.values())
    if total_gt == 0:
        return 0.0
    matched = np.zeros(len(grid), dtype=np.int64)
    for vid, gts in gts_by_video.items():
        props = proposals_by_video.get(vid, [])
        pairs = segment_pairs([p.segment for p in props])
        top = np.lexsort((pairs[:, 0], [-p.objectness for p in props]))[:budget]  # ties by earlier start
        if len(top) and gts:
            matched += _greedy_match(tiou(pairs[top, None], segment_pairs(gts)), grid).sum(axis=1)
    return float(np.mean(matched / total_gt))
