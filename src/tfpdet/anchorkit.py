"""Segment geometry: anchor grids, tIoU, coordinate transforms, matching.

All segments are half-open temporal intervals in frame units.  Anchors are
laid out per pyramid level on a regular grid of cell centers and are left
unclipped at generation; clipping happens only when proposals are decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, _shown

# Per-level anchor lengths, as multiples of the level's stride (which
# ``PyramidConfig.strides`` gives).
DEFAULT_SCALES = (
    tuple(range(1, 8)),
    tuple(range(4, 11)),
    tuple(range(6, 17)),
)
# Single-resolution layout used by the ablation baseline: the same 25
# anchor lengths, all expressed against the stride-8 grid.
SINGLE_SCALE_SCALES = (
    tuple(range(1, 8)) + tuple(range(8, 21, 2)) + tuple(range(24, 65, 4)),
)


@dataclass(frozen=True)
class Segment:
    """Half-open interval [start, end) in frames; end must exceed start."""

    start: float
    end: float

    def __post_init__(self):
        if not self.end > self.start:
            raise ContractError(f"segment needs end > start, got [{_shown(self.start)}, {_shown(self.end)}]")

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def center(self) -> float:
        return 0.5 * (self.start + self.end)


@dataclass(frozen=True, eq=False)
class AnchorGrid:
    """All anchors of all levels as flat (start, end) arrays.  Level k's are
    the block [level_offsets[k], level_offsets[k+1]), position-major: scale
    j at position p is entry p * len(scales[k]) + j of the block, and
    ``heads.anchor_map_indices`` maps it to APN map rows.  The flat index is
    the tie-break key everywhere.
    """

    starts: np.ndarray
    ends: np.ndarray
    level_offsets: np.ndarray
    buffer_len: int

    def __len__(self) -> int:
        return len(self.starts)

    def level_indices(self, k: int) -> np.ndarray:
        return np.arange(self.level_offsets[k], self.level_offsets[k + 1])


def build_anchor_grid(buffer_len: int, strides, scales) -> AnchorGrid:
    """Enumerate anchors: at (k, p, j), centered at (p+0.5)*stride_k with
    length scales[k][j]*stride_k.  Anchors may extend beyond [0, buffer_len].
    """
    if len(strides) != len(scales):
        raise ConfigError(f"{len(strides)} strides but {len(scales)} scale lists")
    if not strides:
        raise ConfigError("an anchor grid needs at least one level")
    starts, ends, offsets = [], [], [0]
    for s_k, level_scales in zip(strides, scales):
        if buffer_len % s_k != 0:
            raise ConfigError(f"buffer_len {_shown(buffer_len)} not divisible by stride {_shown(s_k)}")
        c = ((np.arange(buffer_len // s_k) + 0.5) * s_k)[:, None]
        half = 0.5 * np.asarray(level_scales, dtype=np.float64) * s_k
        starts.append((c - half).ravel())
        ends.append((c + half).ravel())
        offsets.append(offsets[-1] + c.size * half.size)
    return AnchorGrid(np.concatenate(starts), np.concatenate(ends), np.array(offsets), int(buffer_len))


def tiou(a, b) -> np.ndarray:
    """Temporal intersection-over-union of (start, end) pairs: in [0, 1] for
    segments of positive length, NaN for two empty ones (0 / 0) or a NaN end.

    ``a`` and ``b`` are array-likes of shape [..., 2] that broadcast against
    each other, so ``tiou(x[:, None], y)`` is the [len(x), len(y)] matrix.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    inter = np.maximum(np.minimum(a[..., 1], b[..., 1]) - np.maximum(a[..., 0], b[..., 0]), 0.0)
    return inter / ((a[..., 1] - a[..., 0]) + (b[..., 1] - b[..., 0]) - inter)


def segment_pairs(segments) -> np.ndarray:
    """[n, 2] array of (start, end) for a sequence of Segments."""
    return np.array([[s.start for s in segments], [s.end for s in segments]], dtype=np.float64).T


def encode(anchors, gts) -> np.ndarray:
    """Regression targets of ground truth ``gts`` against ``anchors``, both
    (start, end) array-likes of shape [..., 2] that broadcast: a [..., 2]
    array of (center offset in anchor lengths, log length ratio).  ``decode``
    inverts it."""
    a, g = np.asarray(anchors, dtype=np.float64), np.asarray(gts, dtype=np.float64)
    length = a[..., 1] - a[..., 0]
    offset = (0.5 * (g[..., 0] + g[..., 1]) - 0.5 * (a[..., 0] + a[..., 1])) / length
    return np.stack([offset, np.log((g[..., 1] - g[..., 0]) / length)], axis=-1)


def decode(starts, ends, center_offsets, log_lengths, clip_to):
    """Invert ``encode`` elementwise over broadcasting arrays (anchor
    starts and ends, and the two columns of ``encode``'s result), then clip
    to ``clip_to`` = (lo, hi).

    Returns (starts, ends, keep); ``keep`` is False where the clipped
    result is shorter than one frame, which callers drop as degenerate.
    """
    length = ends - starts
    c = 0.5 * (starts + ends) + center_offsets * length
    half = 0.5 * length * np.exp(log_lengths)
    s, e = np.maximum(c - half, clip_to[0]), np.minimum(c + half, clip_to[1])
    return s, e, e - s >= 1.0


@dataclass
class MatchResult:
    """Per-row matching outcome of an anchor or proposal matcher: ``labels``
    (anchors: +1 pos, -1 neg, 0 ignore; proposals: the class, 0 for
    background), the matched ground-truth index of positives (-1 elsewhere)
    and their ``encode`` regression targets (zeros elsewhere).
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    reg_targets: np.ndarray


def _best_gt(segs: np.ndarray, gts: np.ndarray) -> tuple:
    """The [n, g] tIoU matrix of the [n, 2] rows against the [g, 2] ground
    truth, each row's best ground truth (the lowest index on ties) and that
    tIoU; without ground truth, index -1 and tIoU -inf."""
    m = tiou(segs[:, None], gts)
    if not m.size:
        return m, np.full(len(segs), -1), np.full(len(segs), -np.inf)
    best = m.argmax(axis=1)
    return m, best, m[np.arange(len(segs)), best]


def _match(segs: np.ndarray, gts: np.ndarray, labels: np.ndarray, fg: np.ndarray, best: np.ndarray) -> MatchResult:
    """``labels`` plus, for the rows where ``fg`` is set, the index of their
    best ground truth and the regression target toward it."""
    reg = np.zeros((len(segs), 2))
    reg[fg] = encode(segs[fg], gts[best[fg]])
    return MatchResult(labels, np.where(fg, best, -1), reg)


def match_anchors_apn(grid: AnchorGrid, gts: np.ndarray, pos_tiou: float = 0.7, neg_tiou: float = 0.3) -> MatchResult:
    """Label anchors against the [g, 2] ground-truth segments, jointly
    across all levels.

    An anchor is positive if its tIoU against some ground truth is strictly
    above ``pos_tiou``, or if it is the best-tIoU anchor for a ground truth
    (ties broken by lowest anchor index).  It is negative if its tIoU is
    strictly below ``neg_tiou`` for every ground truth; everything else is
    ignored.  Positives regress toward their own highest-tIoU ground truth.
    """
    anchors = np.stack([grid.starts, grid.ends], axis=1)
    m, best_gt, best_tiou = _best_gt(anchors, gts)
    labels = np.zeros(len(grid), dtype=np.int8)
    labels[best_tiou < neg_tiou] = -1
    labels[best_tiou > pos_tiou] = 1
    labels[m.argmax(axis=0)] = 1  # best anchor per ground truth; argmax takes lowest index
    return _match(anchors, gts, labels, labels == 1, best_gt)


def match_proposals_acn(proposals: np.ndarray, gts: np.ndarray, gt_labels: np.ndarray, fg_tiou: float = 0.5) -> MatchResult:
    """Label the [n, 2] (start, end) proposals against the [g, 2]
    ground-truth segments and their [g] class labels: the best ground
    truth's label when the maximum tIoU is strictly above ``fg_tiou``,
    background (0) otherwise."""
    _, best_gt, best_tiou = _best_gt(proposals, gts)
    fg = best_tiou > fg_tiou
    labels = np.zeros(len(proposals), dtype=np.int64)
    labels[fg] = gt_labels[best_gt[fg]]
    return _match(proposals, gts, labels, fg, best_gt)


def sample_pos_neg(pos_idx: np.ndarray, neg_idx: np.ndarray, batch: int, pos_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Core sampler: up to batch*pos_fraction positives, negatives fill the
    remainder; without replacement, never more than available.
    """
    pos_idx = np.asarray(pos_idx, dtype=np.int64)
    neg_idx = np.asarray(neg_idx, dtype=np.int64)
    if batch < 1:
        raise ContractError(f"batch must be positive, got {_shown(batch)}")
    if pos_idx.size == 0 and neg_idx.size == 0:
        raise ContractError("cannot sample a minibatch: no positives and no negatives")
    n_pos = min(pos_idx.size, int(round(batch * pos_fraction)))
    n_neg = min(neg_idx.size, batch - n_pos)
    pos_sel = rng.choice(pos_idx, size=n_pos, replace=False) if n_pos else pos_idx[:0]
    neg_sel = rng.choice(neg_idx, size=n_neg, replace=False) if n_neg else neg_idx[:0]
    return np.concatenate([pos_sel, neg_sel])


def sample_minibatch(match: MatchResult, batch: int, pos_fraction: float, rng: np.random.Generator, candidate_idx) -> np.ndarray:
    """Sample anchor indices from the pool ``candidate_idx`` (one level's
    anchors), positives first; ignored anchors are never sampled."""
    candidate_idx = np.asarray(candidate_idx, dtype=np.int64)
    labels = match.labels[candidate_idx]
    return sample_pos_neg(candidate_idx[labels == 1], candidate_idx[labels == -1], batch, pos_fraction, rng)
