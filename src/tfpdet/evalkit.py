"""Detection and proposal metrics: AP/mAP at tIoU thresholds, average
recall at a proposal budget.

A scoring pass turns its detections into arrays once: [n, 2] segments,
scores, labels and integer video codes (an id's rank among the sorted video
ids, so code order is id order).  One stable ``np.lexsort`` ranks them all by
descending score, then earlier start, then video; a class's ranking is its
subsequence of that order.  Ground truth becomes [g, 2] arrays once.

Matching is one-to-one and greedy by rank with each ground truth usable
once: one ``tiou`` matrix per (video, class) block, walked once for all
thresholds, and only through the cells that reach the lowest one.  A row's
walk stops at its first column below it.  ``Segment``, ``Detection`` and
``Proposal`` admit only valid rows and finite scores, so every tIoU lies in
[0, 1].  AP integrates the precision envelope over exact recall steps,
which only true positives take, so it is summed over them alone.  Classes
without any ground truth are excluded from mAP averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchorkit import segment_pairs, tiou
from .errors import ConfigError, ContractError, _shown, check_int, check_real, is_label

DETECTION_DISPLAY_THRESHOLDS = (0.5, 0.75, 0.95)


def average_map_grid() -> tuple:
    """tIoU thresholds 0.5:0.05:0.95 used for the averaged mAP and AR."""
    return tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _check_grid(grid) -> None:
    """Raise ConfigError unless ``grid`` is a non-empty, strictly increasing
    run of tIoU thresholds in (0, 1].  An empty grid has no mean: scoring
    with one returned NaN under numpy's "Mean of empty slice" warning."""
    if not len(grid):
        raise ConfigError("a tIoU threshold grid must not be empty")
    for t in grid:
        check_real("tIoU thresholds", t, "(0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"tIoU thresholds must be strictly increasing, got {grid}")


@dataclass(frozen=True, slots=True)
class EvalConfig:
    tiou_thresholds: tuple = DETECTION_DISPLAY_THRESHOLDS
    average_grid: tuple = field(default_factory=average_map_grid)
    proposal_budget: int = 100
    ar_tiou_grid: tuple = field(default_factory=average_map_grid)

    def __post_init__(self):
        for name in ("tiou_thresholds", "average_grid", "ar_tiou_grid"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ConfigError(f"{name} must be a tuple or list, got {_shown(getattr(self, name))}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
            _check_grid(getattr(self, name))
        check_int("proposal budget", self.proposal_budget, 1)


@dataclass(slots=True)
class EvalReport:
    """One scoring pass: ``ar_at_budget`` is None from ``evaluate_detections``, filled by ``pipeline.evaluate``."""

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


def _greedy_match(m: np.ndarray, thresholds) -> np.ndarray:
    """bool [T, n]: whether row i of a block's [n, G] tIoU matrix, walked
    in rank order, takes the unused column of largest tIoU >= threshold t
    (lowest index on ties).

    ``thresholds`` increase strictly (a grid that passed ``_check_grid``, or
    the sorted union of two); threshold k is bit k of the ints in ``used``
    and ``row``.  Only cells that reach the lowest threshold are walked, in
    one flat list sorted by (row, descending tIoU, lowest column): each
    row's columns, best first, up to the first one below the lowest one.
    """
    ts = np.asarray(thresholds, dtype=np.float64)
    if len(ts) > 62:  # a row's bits must fit an int64
        return np.concatenate([_greedy_match(m, ts[k:k + 62]) for k in range(0, len(ts), 62)])
    hit = np.zeros((len(ts), len(m)), dtype=bool)
    rows, cols = np.nonzero(m >= ts[0])  # row by row, each row's columns in order
    tious = m[rows, cols]
    cells = np.lexsort((-tious, rows))  # stable, so ties keep the lowest column first
    masks = (1 << np.searchsorted(ts, tious[cells], side="right")) - 1  # the thresholds each cell reaches
    used = [0] * m.shape[1]
    walked, got, row = [-1], [], 0  # got[k] is the row walked[k] took, once the walk leaves it
    for i, g, mask in zip(rows[cells].tolist(), cols[cells].tolist(), masks.tolist()):
        if i != walked[-1]:
            walked.append(i)
            got.append(row)
            row = 0
        take = mask & ~used[g] & ~row
        used[g] |= take
        row |= take
    got.append(row)
    hit[:, walked[1:]] = (np.array(got[1:], dtype=np.int64) >> np.arange(len(ts))[:, None]) & 1
    return hit


def average_precision(segments: np.ndarray, videos: np.ndarray, gts_by_video: dict, thresholds) -> list | None:
    """AP of one class at each of the strictly increasing ``thresholds``.
    ``segments`` [n, 2] and ``videos`` [n] (integer video codes) hold the
    class's detections in rank order; ``gts_by_video`` maps a video code to
    its [g, 2] ground truth.  None when the class has none anywhere.

    Only true positives move the precision-recall curve, so AP is summed
    over them: the k-th at rank i gives a recall step k/npos - (k-1)/npos
    times the envelope, the best precision k'/(i'+1) of the k-th or any
    later true positive.  Fewer than npos of them close the curve with one
    step of area 0.0 up to recall 1."""
    npos = sum(len(g) for g in gts_by_video.values())
    if npos == 0:
        return None
    n = len(videos)
    by_video = np.argsort(videos, kind="stable")  # ranks grouped by video, in rank order within each
    bounds = np.searchsorted(videos[by_video], [(code, code + 1) for code in gts_by_video]).tolist()
    hit = np.zeros((len(thresholds), n), dtype=bool)
    for gts, (lo, hi) in zip(gts_by_video.values(), bounds):
        if hi > lo and len(gts):
            ranks = by_video[lo:hi]
            hit[:, ranks] = _greedy_match(tiou(segments[ranks, None], gts), thresholds)
    aps = []
    for row in hit:
        ranks = np.flatnonzero(row)
        k = np.arange(1, len(ranks) + 1)
        envelope = np.maximum.accumulate((k / (ranks + 1))[::-1])[::-1]
        area = (k / npos - (k - 1) / npos) * envelope
        # np.sum of exactly these steps: its pairwise order depends on the length
        aps.append(float(np.sum(np.append(area, 0.0) if len(k) < npos else area)))
    return aps


def evaluate_detections(dets, gts_by_video: dict, cfg: EvalConfig) -> EvalReport:
    """AP per (class, threshold), mAP per threshold, averaged mAP.

    ``gts_by_video`` maps video id to a list of (Segment, label) pairs, each
    label an int or numpy integer >= 1 (``errors.is_label``); ``dets`` is a
    flat list of ``Detection`` values.
    """
    total_gt = sum(len(v) for v in gts_by_video.values())
    if total_gt == 0:
        raise ContractError("evaluate_detections needs at least one ground-truth instance")
    # a label < 1 is background, which no Detection carries, and would still count toward the mAP
    gt_labels = [label for v in gts_by_video.values() for _, label in v]
    for label in gt_labels:
        if not is_label(label):
            raise ContractError(f"a ground-truth label must be an int >= 1, as a detection's, got {_shown(label)}")
    classes = sorted({int(label) for label in gt_labels})
    thresholds = sorted(set(cfg.tiou_thresholds) | set(cfg.average_grid))
    codes = {vid: k for k, vid in enumerate(sorted({d.video_id for d in dets} | gts_by_video.keys()))}
    segments = segment_pairs([d.segment for d in dets])
    videos = np.array([codes[d.video_id] for d in dets], dtype=np.int64)
    labels = np.array([d.label for d in dets])
    # rank by descending score; ties by earlier start, then video id.  lexsort is
    # stable, so each class's subsequence of this order is the class's own ranking
    order = np.lexsort((videos, segments[:, 0], -np.array([d.score for d in dets], dtype=np.float64)))
    gts_by_class = {c: {codes[vid]: segment_pairs([seg for seg, label in v if label == c]) for vid, v in gts_by_video.items()}
                    for c in classes}
    per_class = {}
    for c in classes:  # every class here has ground truth, so its AP list is never None
        ranked = order[labels[order] == c]
        per_class[c] = dict(zip(thresholds, average_precision(segments[ranked], videos[ranked], gts_by_class[c], thresholds)))
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
    """Mean over the tIoU grid of the recall of each video's top-``budget``
    ``Proposal``s, matched one-to-one greedily by objectness to its ``Segment``s.

    A video's proposals rank by one stable ``np.lexsort`` by descending
    objectness, ties by earlier start.  ``budget`` must be an int >= 1 and
    ``grid`` pass ``EvalConfig``'s grid check, else ``ConfigError``."""
    check_int("proposal budget", budget, 1)  # a slice [:budget] takes 0 and -1 silently
    _check_grid(grid)
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
