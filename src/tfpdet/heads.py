"""Detection heads: proposal network, RoI pooling, context fusion, classifier.

The proposal network runs per pyramid level: a shared conv followed by two
sibling 1x1 heads predicting, per anchor and position, (background,
foreground) logits and (center offset, log length) regression.  Proposals
are pooled over all levels, suppressed at tIoU 0.7 and classified by
per-level classifiers over RoI-pooled (optionally context-fused) features;
final detections are suppressed class-wise at tIoU 0.4.  Each level pools
its proposals as one [N, D, P] batch (one value-table pass, one call per
context conv), so its graph does not grow with the proposal count.  RoI
values are read from a range-max value table; the first-max cell indices
that route the gradient are computed only by the backward, so a forward
that needs no gradient never builds them.
Post-processing runs on arrays: ``anchorkit.decode`` decodes proposals per
level and a window's detections at once, and NMS is exact greedy
suppression that computes ``anchorkit.tiou`` only for pairs that can reach
its threshold; it takes only valid rows (``anchorkit``'s rule, which
``decode``'s rows meet) at a threshold in (0, 1], and rejects other input
with ``ContractError``.  The sweep of a video's class-wise NMS walks those
pairs in chunks of ``NMS_CHUNK``, so beside its per-row arrays its transient
memory is O(chunk + hits): only the list of suppressing pairs grows with
the pairs of a longer video.  Proposals (``Proposals``) and detections
(``Detections``) stay arrays from a window's NMS to one class-wise
``nms_detections`` per video.  Every array of segments, from the anchor
grid through NMS, RoI pooling and context windows to the detections, holds
[n, 2] (start, end) rows, as in ``anchorkit``; only ``Proposal`` and
``Detection`` objects hold a ``Segment``, so a valid row, and a finite score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .anchorkit import HALF_RANGE, AnchorGrid, Segment, decode, tiou
from .errors import ConfigError, ContractError, _shown, check_int, check_real, is_label
from .pyramid import PyramidFeatures, layer_specs

STRATEGIES = ("s1", "s2", "s3")
NMS_BLOCK = 64  # candidates per greedy block of nms_indices' top_k scan
# overlapping pairs per chunk of nms_indices' sweep: its [chunk] and [chunk, 2]
# temporaries stay under glibc's 128 KiB mmap threshold, so they reuse heap pages
NMS_CHUNK = 4096


@dataclass(frozen=True, slots=True)
class ApnConfig:
    """Proposal-network settings: anchor scales per level plus the matching
    and suppression thresholds."""

    scales: tuple[tuple[int, ...], ...]
    pos_tiou: float = 0.7
    neg_tiou: float = 0.3
    nms_tiou: float = 0.7
    top_k: int = 100

    def __post_init__(self):
        if not (isinstance(self.scales, (tuple, list)) and self.scales
                and all(isinstance(s, (tuple, list)) and s for s in self.scales)):
            raise ConfigError(f"anchor scales must be a non-empty tuple or list of non-empty tuples or lists, got {_shown(self.scales)}")
        object.__setattr__(self, "scales", tuple(tuple(check_int("anchor scales", x, 1) for x in s) for s in self.scales))
        check_int("top_k", self.top_k, 1)
        # at nms_tiou 0 every overlap, even none, would suppress
        for name, interval in (("pos_tiou", "[0, 1]"), ("neg_tiou", "[0, 1]"), ("nms_tiou", "(0, 1]")):
            check_real(name, getattr(self, name), interval)
        if self.neg_tiou > self.pos_tiou:
            raise ConfigError(f"neg_tiou {self.neg_tiou} exceeds pos_tiou {self.pos_tiou}")


@dataclass(frozen=True, slots=True)
class AcnConfig:
    """Classifier settings: proposal-to-level assignment strategy, context
    toggle, RoI bins, classifier width and class count."""

    num_classes: int
    strategy: str = "s3"
    use_context: bool = True
    roi_bins: int = 4
    fc_dim: int = 256
    fg_tiou: float = 0.5
    nms_tiou: float = 0.4
    score_thresh: float = 0.05

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {_shown(self.strategy)}")
        if type(self.use_context) is not bool:
            raise ConfigError(f"use_context must be a bool, got {_shown(self.use_context)}")
        for name in ("num_classes", "roi_bins", "fc_dim"):
            check_int(name, getattr(self, name), 1)
        for name, interval in (("fg_tiou", "[0, 1]"), ("score_thresh", "[0, 1]"), ("nms_tiou", "(0, 1]")):
            check_real(name, getattr(self, name), interval)


@dataclass(frozen=True, slots=True)
class Proposal:
    """A decoded, clipped candidate segment with its objectness score."""

    segment: Segment
    objectness: float
    source_level: int

    def __post_init__(self):
        check_real("proposal objectness", self.objectness, "(-inf, inf)", ContractError)


@dataclass(frozen=True, eq=False, slots=True)
class Proposals:
    """A window's proposals in NMS order: [n, 2] (start, end) segments, [n]
    objectness scores and [n] source levels."""

    segments: np.ndarray
    objectness: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.objectness)


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, class-labeled, boundary-refined segment in video frames."""

    segment: Segment
    label: int
    score: float
    video_id: str

    def __post_init__(self):
        if not (isinstance(self.segment, Segment) and is_label(self.label) and isinstance(self.video_id, str)):
            raise ContractError(f"a detection needs a Segment, an int label >= 1 (never background) and a str video "
                                f"id; got {_shown(self.segment)}, {_shown(self.label)} and {_shown(self.video_id)}")
        check_real("detection score", self.score, "(-inf, inf)", ContractError)


@dataclass(frozen=True, eq=False, slots=True)
class Detections:
    """Detections as arrays: [n, 2] (start, end) segments in video frames,
    [n] class labels (never background) and [n] scores."""

    segments: np.ndarray
    labels: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    @staticmethod
    def concat(parts: list[Detections]) -> Detections:
        """The rows of ``parts`` in order; scores as float64."""
        cols = [(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0))] + [(d.segments, d.labels, d.scores) for d in parts]
        return Detections(*(np.concatenate(x) for x in zip(*cols)))


# ---------------------------------------------------------------------------
# parameter construction


def apn_param_specs(hidden_dim: int, cfg: ApnConfig) -> list[tuple]:
    """(name, shape, init_spec) of every proposal-network parameter, in creation order."""
    specs = []
    for k, level_scales in enumerate(cfg.scales):
        two_a = 2 * len(level_scales)
        specs += layer_specs([(f"apn.level{k}.shared", (hidden_dim, hidden_dim, 3)),
                              (f"apn.level{k}.cls", (two_a, hidden_dim, 1)), (f"apn.level{k}.reg", (two_a, hidden_dim, 1))])
    return specs


def acn_param_specs(hidden_dim: int, cfg: AcnConfig, num_levels: int) -> list[tuple]:
    """(name, shape, init_spec) of every classifier parameter, in creation order."""
    if cfg.use_context and hidden_dim % 2 != 0:
        raise ConfigError(f"context fusion needs an even feature dim, got {hidden_dim}")
    specs = []
    in_dim = hidden_dim * cfg.roi_bins
    half = hidden_dim // 2
    for k in range(num_levels):
        context = [(f"acn.level{k}.roi_reduce", (half, hidden_dim, 3)),
                   (f"acn.level{k}.ctx_reduce", (half, hidden_dim, 3))] if cfg.use_context else []
        specs += layer_specs(context + [(f"acn.level{k}.fc6", (in_dim, cfg.fc_dim)),
                                        (f"acn.level{k}.fc7", (cfg.fc_dim, cfg.fc_dim)),
                                        (f"acn.level{k}.cls", (cfg.fc_dim, cfg.num_classes + 1)),
                                        (f"acn.level{k}.reg", (cfg.fc_dim, 2 * cfg.num_classes))])
    return specs


# ---------------------------------------------------------------------------
# proposal network


def apn_forward(pyr: PyramidFeatures, params: dict) -> list:
    """Per level: shared conv(k=3, pad=1)+relu, then the two sibling 1x1
    heads, [2A, T] maps.  Rows (2j, 2j+1) at column p of the cls map are the
    (background, foreground) logits of scale j's anchor at position p, and of
    the reg map its (center offset, log length); see ``anchor_map_indices``.
    """
    out = []
    for k, feat in enumerate(pyr.levels):
        h = nc.relu(nc.temporal_conv(feat, params[f"apn.level{k}.shared.w"], params[f"apn.level{k}.shared.b"], 1, 1))
        cls = nc.temporal_conv(h, params[f"apn.level{k}.cls.w"], params[f"apn.level{k}.cls.b"], 1, 0)
        reg = nc.temporal_conv(h, params[f"apn.level{k}.reg.w"], params[f"apn.level{k}.reg.b"], 1, 0)
        out.append((cls, reg))
    return out


def _partner_bounds(s: np.ndarray, e: np.ndarray, thresh: float) -> np.ndarray:
    """Per row p, a start past which no later-starting row q reaches
    ``thresh`` in (0, 1] in ``anchorkit.tiou``, so the sweep need not pair them.

    With s_p <= s_q the overlap is at most e_p - s_q and the union at least
    L_p = e_p - s_p, so a hit needs s_q <= e_p - thresh * L_p, give or take
    rounding.  With u = 2**-53, ``tiou``'s quotient before its last rounding
    is at most (e_p - s_q) / L_p * (1 + u) / ((1 - 2u)(1 - u)), and a
    quotient at or below the float ``theta`` just under ``thresh`` rounds to
    at most ``theta``.  As c (1 + u) / ((1 - 2u)(1 - u)) < 1 for
    c = (1 - 2**-40)(1 + u)**2, no q with s_q > e_p - c * theta * L_p is a
    hit.  The product below is at most c * theta * L_p, plus 2**-1074 where
    it underflows, and two steps up from the rounded difference land at
    least 2**-1074 above its exact value.  As theta < 1 and L_p is finite,
    the product cannot overflow."""
    s, e = s.astype(np.float64, copy=False), e.astype(np.float64, copy=False)
    bound = e - np.nextafter(thresh, 0.0) * (e - s) * (1.0 - 2.0 ** -40)
    return np.nextafter(np.nextafter(bound, np.inf), np.inf)


def _overlapping_pairs(segs: np.ndarray, thresh: float):
    """Every pair of ``segs``' rows that can reach ``thresh``, as (a, b)
    position arrays of at most ``NMS_CHUNK`` pairs each: the runs of one flat
    pair index."""
    by_start = np.argsort(segs[:, 0])
    # position p meets positions p+1 .. (the last one starting before its end
    # and at most at its partner bound), which are the flat pairs
    # first[p] .. first[p] + count[p] - 1
    pos, (starts, ends) = np.arange(len(by_start)), segs[by_start].T
    bound = _partner_bounds(starts, ends, thresh)
    last = np.minimum(np.searchsorted(starts, ends), np.searchsorted(starts, bound, "right"))
    count = np.maximum(last - pos - 1, 0)
    first, total = np.cumsum(count) - count, int(count.sum())
    for lo in range(0, total, NMS_CHUNK):
        hi = min(lo + NMS_CHUNK, total)
        # the positions whose pairs the chunk spans, each repeated for its pairs in [lo, hi)
        after_lo, after_last = np.searchsorted(first, (lo, hi - 1), side="right")
        r = np.arange(after_lo - 1, after_last)
        p = np.repeat(r, np.minimum(first[r] + count[r], hi) - np.maximum(first[r], lo))
        yield by_start[p], by_start[np.arange(lo, hi) - first[p] + p + 1]


def _overlap_survivors(segs: np.ndarray, thresh: float) -> list[int]:
    """The positions that greedy NMS at ``thresh`` keeps of ``segs``, rows in score order."""
    n, hits = len(segs), [(np.zeros(0, dtype=np.int64),) * 2]
    for a, b in _overlapping_pairs(segs, thresh):
        i, j = np.minimum(a, b), np.maximum(a, b)
        hit = tiou(segs.take(i, axis=0), segs.take(j, axis=0)) >= thresh
        hits.append((i[hit], j[hit]))
    i, j = (np.concatenate(c) for c in zip(*hits))
    o = np.argsort(i)
    dead = [False] * n
    for r, q in zip(i[o].tolist(), j[o].tolist()):  # the pairs that can kill r come first
        if not dead[r]:
            dead[q] = True
    return [r for r, d in enumerate(dead) if not d]


def nms_indices(segments: np.ndarray, scores: np.ndarray, thresh: float, top_k: int | None = None) -> list[int]:
    """Greedy NMS of [n, 2] rows: keep by descending score, suppress overlaps >= thresh.

    Score ties break on the lower index, which callers keep deterministic.
    The rows are valid (``anchorkit``'s rule, which ``decode``'s rows meet),
    one per score ([len(scores), 2]), so no tIoU overflows.  ``thresh`` must
    lie in (0, 1] and ``top_k`` be None or an int >= 1; other input raises ``ContractError``.

    Without ``top_k`` the rows are swept by start.  Two such segments that
    do not overlap have a tIoU of exactly 0, so a row is paired only with
    the rows starting in [its start, its end), and of those only with the
    ones starting at most at its partner bound (``_partner_bounds``), past
    which no tIoU reaches ``thresh``.  Only these pairs get an
    ``anchorkit.tiou``, so the result is the full matrix scan's bit for bit.
    The pairs are one flat index, read in chunks of ``NMS_CHUNK`` pairs, and
    a chunk keeps only its hits: no temporary is larger than a chunk, however
    many partners a row has, and only the hit list grows with the input.

    With ``top_k`` the score order is walked in blocks of ``NMS_BLOCK``
    until ``top_k`` rows are kept.  Each block reads one tIoU matrix of its
    candidates against the rows kept so far and against each other: a
    candidate overlapping a kept row is dead before the greedy pass over the
    block's own columns starts.
    """
    if top_k is not None:
        check_int("top_k", top_k, 1, ContractError)
    check_real("nms thresh", thresh, "(0, 1]", ContractError)
    if segments.shape != (len(scores), 2):
        raise ContractError(f"nms needs one [start, end] row per score: {segments.shape} rows for {len(scores)} scores")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a length past the float range
        length = segments[:, 1] - segments[:, 0]
    tame, ends = (0 < length) & (length <= HALF_RANGE), abs(segments) <= HALF_RANGE
    if not (tame.all() and ends.all()):
        s, e = segments[(tame & ends[:, 0] & ends[:, 1]).argmin()]
        raise ContractError(f"nms rows need 0 < end - start < inf, ends and length within half the float range: [{s}, {e}]")
    n = len(scores)
    order = np.lexsort((np.arange(n), -np.asarray(scores)))
    segs = segments.take(order, axis=0)
    if top_k is None:
        return order[_overlap_survivors(segs, thresh)].tolist()
    kept: list[int] = []  # positions in score order
    for lo in range(0, n, NMS_BLOCK):
        block, k = segs[lo : lo + NMS_BLOCK], len(kept)
        hits = tiou(block[:, None], np.concatenate([segs[kept], block])) >= thresh
        dead, own = hits[:, :k].any(axis=1), hits[:, k:]
        for r in range(len(block)):
            if dead[r]:
                continue
            kept.append(lo + r)
            if len(kept) >= top_k:
                return order[kept].tolist()
            dead |= own[r]
    return order[kept].tolist()


def anchor_map_indices(grid: AnchorGrid, k: int, shape, anchors) -> np.ndarray:
    """[n, 2] flat indices into level k's [2A, T] APN map (``shape``) of the
    rows (2j, 2j+1) at position p of each of the n grid ``anchors``, all of
    level k, which holds A anchors at each of the T positions."""
    (two_a, t), offsets = shape, grid.level_offsets
    p, j = np.divmod(np.asarray(anchors) - offsets[k], two_a // 2)
    first = 2 * j * t + p
    return np.stack([first, first + t], axis=1)


def generate_proposals(apn_out, grid: AnchorGrid, cfg: ApnConfig) -> Proposals:
    """Score and decode every anchor of the maps' ``grid``, then pool all
    levels through NMS at ``cfg.nms_tiou``, keeping at most ``cfg.top_k``.
    It does not check ``grid``; ``pipeline.step_loss`` does, for training."""
    parts = []  # per level: the kept anchors' segments, scores and levels
    hi = float(grid.buffer_len)
    offsets = grid.level_offsets
    for k, (cls, reg) in enumerate(apn_out):
        a, t = cls.shape[0] // 2, cls.shape[1]
        # views of the [2A, T] maps, [T, A] or [T, A, 2]: position-major, as the grid's level block
        bg, fg = cls.data.reshape(a, 2, t).transpose(1, 2, 0)
        m = np.maximum(bg, fg)
        efg = np.exp(fg - m)
        obj = efg / (np.exp(bg - m) + efg)
        anchors = grid.segments[offsets[k] : offsets[k + 1]].reshape(t, a, 2)
        segs, keep = decode(anchors, reg.data.reshape(a, 2, t).transpose(2, 0, 1), (0.0, hi))
        parts.append((segs[keep], obj[keep], np.full(int(keep.sum()), k)))
    segments, scores, levels = (np.concatenate(x) for x in zip(*parts))
    kept = nms_indices(segments, scores, cfg.nms_tiou, cfg.top_k)
    return Proposals(segments[kept], scores[kept], levels[kept])


# ---------------------------------------------------------------------------
# RoI pooling and context fusion


def _roi_windows(t: int, segments: np.ndarray, stride: float, num_bins: int) -> tuple:
    """Range-max table rows (left, right), each [N, P], of the two power-of-two
    windows that cover each bin's cell range, and the table's level count.

    Each segment is mapped to feature coordinates and clamped; each of its P
    equal sub-intervals pools the cells whose centers fall inside it, and an
    empty one the covered cell of center nearest its own, the earlier on a
    tie.  All segments are resolved in one pass: every bin becomes a cell
    range [a, b) whose maximum per channel is the larger of two (possibly
    overlapping) table windows, the later one winning only if strictly larger.
    """
    lo, hi = np.minimum(np.maximum(segments / stride, 0.0), float(t)).T
    outside = ~(hi > lo)  # NaN ends too
    if outside.any():
        i = outside.argmax()
        raise ContractError(f"segment [{segments[i, 0]}, {segments[i, 1]}] lies outside the feature extent")
    # covered cells [first, last): centers in [lo, hi), else the cell at the middle
    first, last = np.ceil(lo - 0.5).astype(np.int64), np.ceil(hi - 0.5).astype(np.int64)
    empty = last <= first
    first[empty] = np.minimum(np.maximum(np.floor(0.5 * (lo + hi)), 0), t - 1)[empty]
    last[empty] = first[empty] + 1
    first, last = first[:, None], last[:, None]
    edges = lo[:, None] + (hi - lo)[:, None] * np.arange(num_bins + 1) / num_bins
    # bin p pools covered cells [a, b): those with centers in [edge p, edge p+1)
    bounds = np.minimum(np.maximum(np.ceil(edges - 0.5).astype(np.int64), first), last)
    a, b = bounds[:, :-1], bounds[:, 1:]
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    near = np.minimum(np.maximum(np.ceil(mid - 1.0), first), last - 1).astype(np.int64)  # center c + 0.5 nearest mid, ties down
    a, b = np.where(b > a, a, near), np.where(b > a, b, near + 1)
    k = np.frexp(b - a)[1] - 1  # floor(log2(width))
    return k * t + a, k * t + b - (1 << k), int(k.max(initial=0)) + 1


def _table_levels(t: int, rows: int):
    """(dst, a, b) row ranges per table level: row i of level k covers
    x[:, i : i + 2**k] as the windows of level k-1 at rows i and i + 2**(k-1)
    (rows with i + 2**k > T are unused)."""
    for lo in range(t, rows, t):
        h = 1 << (lo // t - 1)
        n = t - 2 * h + 1
        yield slice(lo, lo + n), slice(lo - t, lo - t + n), slice(lo - t + h, lo - t + h + n)


def _range_max_table(x: np.ndarray, levels: int) -> tuple[np.ndarray, list]:
    """[levels*T, D] table for a [D, T] map, and per level above the first
    the [n, D] mask of the rows where the later half-window won.

    Row k*T + i holds, per channel c, the first maximum of x[c, i : i + 2**k].
    The later half-window wins only where it is larger (``>``), so each entry
    is the value of ``x`` at the cell that ``_first_max_cells`` picks by the
    same masks, NaN or not.
    """
    d, t = x.shape
    val = np.empty((levels * t, d), dtype=x.dtype)
    val[:t] = x.T
    ups = []
    for dst, a, b in _table_levels(t, len(val)):
        up = val[b] > val[a]
        val[dst] = np.where(up, val[b], val[a])
        ups.append(up)
    return val, ups


def _pool_values(val: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N, D, P] pooled values from the table rows (left, right) of each
    bin, and the [P, N, D] mask of where the right window won.  Each bin is
    two [N, D] row gathers and one select, so no temporary grows with P."""
    (n, num_bins), d = left.shape, val.shape[1]
    out = np.empty((n, d, num_bins), dtype=val.dtype)
    wins = np.empty((num_bins, n, d), dtype=bool)
    for p, pooled in enumerate(out.transpose(2, 0, 1)):
        vl, vr = val.take(left[:, p], axis=0), val.take(right[:, p], axis=0)
        np.greater(vr, vl, out=wins[p])
        np.copyto(vl, vr, where=wins[p])
        pooled[...] = vl
    return out, wins


def _first_max_cells(t: int, ups: list, left: np.ndarray, right: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """Flat indices [N, D, P] into the [D, T] map of the cells whose values
    ``_pool_values`` took: the masks that built the value table and chose
    each bin's window, replayed on an index table."""
    (n, num_bins), d = left.shape, wins.shape[2]
    idx = np.zeros(((len(ups) + 1) * t, d), dtype=np.int64)
    idx[:t] = np.arange(d * t).reshape(d, t).T
    for (dst, a, b), up in zip(_table_levels(t, len(idx)), ups):
        idx[dst] = idx[a] + (idx[b] - idx[a]) * up
    cells = np.empty((n, d, num_bins), dtype=np.int64)
    for p, c in enumerate(cells.transpose(2, 0, 1)):
        li, ri = idx.take(left[:, p], axis=0), idx.take(right[:, p], axis=0)
        np.add(li, (ri - li) * wins[p], out=c)
    return cells


def roi_pool(feat: nc.Tensor, segments: np.ndarray, stride: float, num_bins: int) -> nc.Tensor:
    """Fixed-size [N, D, P] max-pooled features of a level's [D, T] Tensor
    for the [N, 2] (start, end) segment rows, in frames.

    The values are read from the range-max table.  The pooled cells'
    indices, which only the gradient needs, are computed by the backward
    from the forward's selection masks: per bin and channel, the first cell
    holding the bin's maximum, so the node equals ``nc.take`` of ``feat``
    through those cells bit for bit.
    """
    t = feat.shape[1]
    left, right, levels = _roi_windows(t, segments, stride, num_bins)
    val, ups = _range_max_table(feat.data, levels)
    out, wins = _pool_values(val, left, right)
    return nc.gathered(feat, out, lambda: _first_max_cells(t, ups, left, right, wins))


def context_window(segments: np.ndarray, buffer_len: float) -> np.ndarray:
    """The [..., 2] segment rows dilated to twice their length about their
    centers, clipped to the buffer."""
    c, half = 0.5 * (segments[..., 0] + segments[..., 1]), segments[..., 1] - segments[..., 0]
    return np.stack([np.maximum(0.0, c - half), np.minimum(float(buffer_len), c + half)], axis=-1)


def context_features(level_feat, segments: np.ndarray, stride: float, num_bins: int, params: dict, level: int) -> nc.Tensor:
    """Fuse the RoI features of the [N, 2] segment rows with their
    context: one ``roi_pool`` call pools the segments and their context
    windows, and the two [N, D, P] row halves are channel-reduced to D/2 by
    separate conv layers and concatenated back to [N, D, P].  Context windows
    are clipped to the buffer the level's map spans, its length times stride."""
    ctx = context_window(segments, level_feat.shape[-1] * stride)
    both = roi_pool(level_feat, np.concatenate([segments, ctx]), stride, num_bins)
    n = len(segments)
    pooled, ctx = nc.rows(both, 0, n), nc.rows(both, n, 2 * n)
    r = nc.relu(nc.temporal_conv(pooled, params[f"acn.level{level}.roi_reduce.w"], params[f"acn.level{level}.roi_reduce.b"], 1, 1))
    c = nc.relu(nc.temporal_conv(ctx, params[f"acn.level{level}.ctx_reduce.w"], params[f"acn.level{level}.ctx_reduce.b"], 1, 1))
    return nc.concat_channels(r, c)


# ---------------------------------------------------------------------------
# classification network


def assign_proposals(proposals: Proposals, cfg: AcnConfig, num_levels: int) -> list[np.ndarray]:
    """Ascending proposal indices per level under the assignment strategy: s1
    sends everything to level 0, s2 to the source level, s3 to every level."""
    idx = np.arange(len(proposals))
    if cfg.strategy == "s1":
        return [idx] + [idx[:0]] * (num_levels - 1)
    if cfg.strategy == "s2":
        return [idx[proposals.levels == k] for k in range(num_levels)]
    return [idx] * num_levels


def acn_forward(pyr: PyramidFeatures, proposals: Proposals, cfg: AcnConfig, params: dict, assignment: list[np.ndarray] | None = None) -> list:
    """Per level: the level's n proposals pooled as one [n, D, P] batch
    (optionally context-fused), flattened D-major to [n, D*P] rows and run
    through that level's classifier.  Returns, per level, (proposal indices,
    [n, C+1] class logits, [n, 2C] class-specific regression) with Nones
    for levels that received nothing (every level, for no proposals).
    """
    if assignment is None:
        assignment = assign_proposals(proposals, cfg, len(pyr.levels))
    out = []
    for k, idx in enumerate(assignment):
        if len(idx) == 0:
            out.append((idx, None, None))
            continue
        feat, stride = pyr.levels[k], pyr.strides[k]
        if cfg.use_context:
            f = context_features(feat, proposals.segments[idx], stride, cfg.roi_bins, params, k)
        else:
            f = roi_pool(feat, proposals.segments[idx], stride, cfg.roi_bins)
        x = nc.reshape(f, (len(idx), -1))
        h = nc.relu(nc.linear(x, params[f"acn.level{k}.fc6.w"], params[f"acn.level{k}.fc6.b"]))
        h = nc.relu(nc.linear(h, params[f"acn.level{k}.fc7.w"], params[f"acn.level{k}.fc7.b"]))
        cls = nc.linear(h, params[f"acn.level{k}.cls.w"], params[f"acn.level{k}.cls.b"])
        reg = nc.linear(h, params[f"acn.level{k}.reg.w"], params[f"acn.level{k}.reg.b"])
        out.append((idx, cls, reg))
    return out


def acn_reg_indices(shape, rows, labels) -> np.ndarray:
    """Flat [..., 2] indices into a level's [n, 2C] ACN regression output (``shape``) of class
    ``labels``' (center offset, log length), columns 2(c-1) and 2(c-1)+1, in ``rows``; row 0's
    are the column indices."""
    first = rows * shape[1] + 2 * (labels - 1)
    return np.stack([first, first + 1], axis=-1)


def finalize_detections(acn_out, proposals: Proposals, cfg: AcnConfig, buffer) -> Detections:
    """A window's detection candidates in video frames, for ``nms_detections``:
    one per (proposal, level) output and non-background class whose posterior
    clears ``cfg.score_thresh``, the class-specific refinement of the proposal
    clipped to the buffer's valid content.  Rows are in (level, row, class)
    order, so each class's candidates are in (level, row) order: the live
    levels' outputs are stacked and scored as one set of rows."""
    live = [(idx, cls.data, reg.data) for idx, cls, reg in acn_out if cls is not None]
    if not live:
        return Detections.concat([])
    idx, logits, reg = (np.concatenate(x) for x in zip(*live))
    ez = np.exp(logits - logits.max(axis=1, keepdims=True))
    post = (ez / ez.sum(axis=1, keepdims=True))[:, 1:]  # class posteriors
    pairs = reg.take(acn_reg_indices(reg.shape, 0, np.arange(1, cfg.num_classes + 1)), axis=1)  # [n, C, 2]
    segs, ok = decode(proposals.segments[idx][:, None], pairs, (0.0, float(buffer.num_valid)))
    row, c = np.nonzero(~(post < cfg.score_thresh) & ok)
    return Detections.concat([Detections(segs[row, c] + float(buffer.frame_offset), c + 1, post[row, c])])


def nms_detections(cands: Detections, thresh: float) -> Detections:
    """Class-wise greedy NMS at ``thresh`` over one video's candidates in
    window order, ranked by descending score, then label, then start; ties
    keep candidate order.  Candidates of two disjoint windows meet at most
    at a boundary, at tIoU 0, so one NMS per class equals one per window."""
    kept = [np.zeros(0, dtype=np.int64)]
    for c in sorted(set(cands.labels.tolist())):  # np.unique imports numpy.ma: ~1.6 MB of RSS
        idx = np.flatnonzero(cands.labels == c)
        kept.append(idx[nms_indices(cands.segments[idx], cands.scores[idx], thresh)])
    kept = np.concatenate(kept)
    order = kept[np.lexsort((cands.segments[kept, 0], cands.labels[kept], -cands.scores[kept]))]
    return Detections(cands.segments[order], cands.labels[order], cands.scores[order])
