"""Segment geometry: anchor grids, tIoU, coordinate transforms, matching.

All segments are half-open temporal intervals in frame units.  Anchors are
laid out per pyramid level on a regular grid of cell centers and are left
unclipped at generation; clipping happens only when proposals are decoded.

Arrays of segments have one format throughout the package: float64
(start, end) rows of shape [..., 2], so functions that take or return
several segments broadcast and pass them to one another as they are.
``Segment`` objects remain only at the edges: video records, ``Proposal``
and ``Detection`` objects, and the inputs of ``evalkit``.  A ``Segment``
and a row of ``heads.nms_indices`` must be valid: as float64, 0 < end -
start, and ends and length within ``HALF_RANGE``, as ``decode``'s rows are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _FLOAT_MAX, ConfigError, ContractError, _shown

_REALS = (float, int, np.integer, np.floating)  # bool is an int, and excluded apart
HALF_RANGE = _FLOAT_MAX / 2  # the largest end or length of a valid row

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


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open interval [start, end) in frames: real numbers (Python or
    numpy ints and floats, not bools) that form a valid row as float64."""

    start: float
    end: float

    def __post_init__(self):
        s, e = self.start, self.end
        if not (isinstance(s, _REALS) and isinstance(e, _REALS)) or type(s) is bool or type(e) is bool or not _valid(s, e):
            raise ContractError(f"segment needs real bounds with 0 < end - start, ends and length within half the "
                                f"float range, got [{_shown(s)}, {_shown(e)}]")

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def center(self) -> float:
        return 0.5 * (self.start + self.end)


def _valid(s, e) -> bool:
    """Whether the reals (s, e) form a valid row, so that no tIoU of two overflows or is NaN."""
    try:  # float() casts a float32 without the warning that comparing it with HALF_RANGE gives
        s, e = float(s), float(e)
    except OverflowError:  # a Python int past the float range
        return False
    return -HALF_RANGE <= s < e <= HALF_RANGE and e - s <= HALF_RANGE


@dataclass(frozen=True, eq=False, slots=True)
class AnchorGrid:
    """All anchors of all levels as [n, 2] (start, end) rows.  Level k's are
    the block [level_offsets[k], level_offsets[k+1]), position-major: scale
    j at position p is entry p * len(scales[k]) + j of the block, and
    ``heads.anchor_map_indices`` maps it to APN map rows.  The flat index is
    the tie-break key everywhere.
    """

    segments: np.ndarray
    level_offsets: np.ndarray
    buffer_len: int

    def __len__(self) -> int:
        return len(self.segments)

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
    segments, offsets = [], [0]
    for s_k, level_scales in zip(strides, scales):
        if buffer_len % s_k != 0:
            raise ConfigError(f"buffer_len {_shown(buffer_len)} not divisible by stride {_shown(s_k)}")
        c = ((np.arange(buffer_len // s_k) + 0.5) * s_k)[:, None]
        half = 0.5 * np.asarray(level_scales, dtype=np.float64) * s_k
        segments.append(np.stack([c - half, c + half], axis=-1).reshape(-1, 2))
        offsets.append(offsets[-1] + c.size * half.size)
    return AnchorGrid(np.concatenate(segments), np.array(offsets), int(buffer_len))


def tiou(a, b) -> np.ndarray:
    """Temporal intersection-over-union of (start, end) pairs: in [0, 1] for
    valid rows; other rows are outside its contract.

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


def decode(anchors, deltas, clip_to):
    """Invert ``encode``: the segments that the [..., 2] ``deltas`` encode
    against the [..., 2] ``anchors`` (arrays that broadcast), clipped to
    ``clip_to`` = (lo, hi).

    Returns ([..., 2] segments, keep); ``keep`` is False where the clipped
    result is shorter than one frame, which callers drop as degenerate.
    """
    length = anchors[..., 1] - anchors[..., 0]
    c = 0.5 * (anchors[..., 0] + anchors[..., 1]) + deltas[..., 0] * length
    half = 0.5 * length * np.exp(deltas[..., 1])
    segs = np.stack([np.maximum(c - half, clip_to[0]), np.minimum(c + half, clip_to[1])], axis=-1)
    return segs, segs[..., 1] - segs[..., 0] >= 1.0


@dataclass(slots=True)
class MatchResult:
    """Per-row matching outcome of an anchor or proposal matcher: ``labels``
    (anchors: +1 pos, -1 neg, 0 ignore; proposals: the class, 0 for
    background) and the ``encode`` regression targets of positives toward
    their best ground truth (zeros elsewhere).
    """

    labels: np.ndarray
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
    """``labels`` plus, for the rows where ``fg`` is set, the regression
    target toward their best ground truth ``best``."""
    reg = np.zeros((len(segs), 2))
    reg[fg] = encode(segs[fg], gts[best[fg]])
    return MatchResult(labels, reg)


def match_anchors_apn(grid: AnchorGrid, gts: np.ndarray, pos_tiou: float = 0.7, neg_tiou: float = 0.3) -> MatchResult:
    """Label anchors against the [g, 2] ground-truth segments, jointly
    across all levels.

    An anchor is positive if its tIoU against some ground truth is strictly
    above ``pos_tiou``, or if it is the best-tIoU anchor for a ground truth
    (ties broken by lowest anchor index).  It is negative if its tIoU is
    strictly below ``neg_tiou`` for every ground truth; everything else is
    ignored.  Positives regress toward their own highest-tIoU ground truth.
    """
    m, best_gt, best_tiou = _best_gt(grid.segments, gts)
    labels = np.zeros(len(grid), dtype=np.int8)
    labels[best_tiou < neg_tiou] = -1
    labels[best_tiou > pos_tiou] = 1
    labels[m.argmax(axis=0)] = 1  # best anchor per ground truth; argmax takes lowest index
    return _match(grid.segments, gts, labels, labels == 1, best_gt)


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
