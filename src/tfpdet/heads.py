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
Post-processing runs on arrays: proposals and detections are decoded by
``anchorkit.decode`` per level, and NMS is exact greedy suppression over
blocked ``anchorkit.tiou`` matrices; Python objects are built only for the
rows that survive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .anchorkit import AnchorGrid, Segment, decode, segment_pairs, tiou
from .errors import ConfigError, ContractError
from .pyramid import HEAD_BIAS, HEAD_WEIGHT_STD, PyramidFeatures

STRATEGIES = ("s1", "s2", "s3")
NMS_BLOCK = 64  # candidates per greedy block in nms_indices


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value}")


def _check_nms_tiou(value: float) -> None:
    # at 0 every overlap, even none, would suppress
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"nms_tiou must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class ApnConfig:
    """Proposal-network settings: anchor scales per level plus the matching
    and suppression thresholds."""

    scales: tuple
    pos_tiou: float = 0.7
    neg_tiou: float = 0.3
    nms_tiou: float = 0.7
    top_k: int = 100

    def __post_init__(self):
        if not self.scales or any(len(s) < 1 for s in self.scales):
            raise ConfigError("apn needs at least one anchor scale per level")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be positive, got {self.top_k}")
        _check_unit("pos_tiou", self.pos_tiou)
        _check_unit("neg_tiou", self.neg_tiou)
        _check_nms_tiou(self.nms_tiou)
        if self.neg_tiou > self.pos_tiou:
            raise ConfigError(f"neg_tiou {self.neg_tiou} exceeds pos_tiou {self.pos_tiou}")


@dataclass(frozen=True)
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
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.num_classes < 1 or self.roi_bins < 1 or self.fc_dim < 1:
            raise ConfigError("num_classes, roi_bins and fc_dim must be positive")
        _check_unit("fg_tiou", self.fg_tiou)
        _check_unit("score_thresh", self.score_thresh)
        _check_nms_tiou(self.nms_tiou)


@dataclass(frozen=True)
class Proposal:
    """A decoded, clipped candidate segment with its objectness score."""

    segment: Segment
    objectness: float
    source_level: int


@dataclass(frozen=True)
class Detection:
    """A scored, class-labeled, boundary-refined segment in video frames."""

    segment: Segment
    label: int
    score: float
    video_id: str

    def __post_init__(self):
        if self.label < 1:
            raise ContractError("detections never carry the background label")


# ---------------------------------------------------------------------------
# parameter construction


def apn_param_specs(hidden_dim: int, cfg: ApnConfig) -> list[tuple]:
    """(name, shape, init_spec) of every proposal-network parameter, in creation order."""
    specs = []
    for k, level_scales in enumerate(cfg.scales):
        two_a = 2 * len(level_scales)
        weights = [(f"apn.level{k}.shared.w", (hidden_dim, hidden_dim, 3)),
                   (f"apn.level{k}.cls.w", (two_a, hidden_dim, 1)),
                   (f"apn.level{k}.reg.w", (two_a, hidden_dim, 1))]
        biases = [(f"apn.level{k}.shared.b", (hidden_dim,)),
                  (f"apn.level{k}.cls.b", (two_a,)),
                  (f"apn.level{k}.reg.b", (two_a,))]
        specs += [(name, shape, ("gaussian", 0.0, HEAD_WEIGHT_STD)) for name, shape in weights]
        specs += [(name, shape, ("constant", HEAD_BIAS)) for name, shape in biases]
    return specs


def acn_param_specs(hidden_dim: int, cfg: AcnConfig, num_levels: int) -> list[tuple]:
    """(name, shape, init_spec) of every classifier parameter, in creation order."""
    if cfg.use_context and hidden_dim % 2 != 0:
        raise ConfigError(f"context fusion needs an even feature dim, got {hidden_dim}")
    specs = []
    in_dim = hidden_dim * cfg.roi_bins
    half = hidden_dim // 2
    for k in range(num_levels):
        weights, biases = [], []
        if cfg.use_context:
            weights += [(f"acn.level{k}.roi_reduce.w", (half, hidden_dim, 3)),
                        (f"acn.level{k}.ctx_reduce.w", (half, hidden_dim, 3))]
            biases += [(f"acn.level{k}.roi_reduce.b", (half,)),
                       (f"acn.level{k}.ctx_reduce.b", (half,))]
        weights += [(f"acn.level{k}.fc6.w", (in_dim, cfg.fc_dim)),
                    (f"acn.level{k}.fc7.w", (cfg.fc_dim, cfg.fc_dim)),
                    (f"acn.level{k}.cls.w", (cfg.fc_dim, cfg.num_classes + 1)),
                    (f"acn.level{k}.reg.w", (cfg.fc_dim, 2 * cfg.num_classes))]
        biases += [(f"acn.level{k}.fc6.b", (cfg.fc_dim,)),
                   (f"acn.level{k}.fc7.b", (cfg.fc_dim,)),
                   (f"acn.level{k}.cls.b", (cfg.num_classes + 1,)),
                   (f"acn.level{k}.reg.b", (2 * cfg.num_classes,))]
        specs += [(name, shape, ("gaussian", 0.0, HEAD_WEIGHT_STD)) for name, shape in weights]
        specs += [(name, shape, ("constant", HEAD_BIAS)) for name, shape in biases]
    return specs


# ---------------------------------------------------------------------------
# proposal network


def apn_forward(pyr: PyramidFeatures, params: dict) -> list:
    """Per level: shared conv(k=3, pad=1)+relu, then the two sibling 1x1
    heads.  Rows (2j, 2j+1) of the cls map are the (background, foreground)
    logits of anchor j; the same rows of the reg map are its (center
    offset, log length) predictions.
    """
    out = []
    for k, feat in enumerate(pyr.levels):
        h = nc.relu(nc.temporal_conv(feat, params[f"apn.level{k}.shared.w"], params[f"apn.level{k}.shared.b"], 1, 1))
        cls = nc.temporal_conv(h, params[f"apn.level{k}.cls.w"], params[f"apn.level{k}.cls.b"], 1, 0)
        reg = nc.temporal_conv(h, params[f"apn.level{k}.reg.w"], params[f"apn.level{k}.reg.b"], 1, 0)
        out.append((cls, reg))
    return out


def nms_indices(starts: np.ndarray, ends: np.ndarray, scores: np.ndarray, thresh: float, top_k: int | None = None) -> list[int]:
    """Greedy NMS: keep by descending score, suppress overlaps >= thresh.

    Score ties break on the lower index, which callers keep deterministic.
    The score order is walked in blocks of ``NMS_BLOCK``.  Each block reads
    one tIoU matrix of its candidates against the rows kept so far and
    against each other: a candidate overlapping a kept row is dead before
    the greedy pass over the block's own columns starts.
    """
    n = len(scores)
    order = np.lexsort((np.arange(n), -np.asarray(scores)))
    segs = np.stack([starts, ends], axis=1)[order]
    kept: list[int] = []  # positions in score order
    for lo in range(0, n, NMS_BLOCK):
        block, k = segs[lo : lo + NMS_BLOCK], len(kept)
        # `not < thresh` rather than `>= thresh`: a NaN overlap suppresses
        hits = ~(tiou(block[:, None], np.concatenate([segs[kept], block])) < thresh)
        dead, own = hits[:, :k].any(axis=1), hits[:, k:]
        for r in range(len(block)):
            if dead[r]:
                continue
            kept.append(lo + r)
            if top_k is not None and len(kept) >= top_k:
                return order[kept].tolist()
            dead |= own[r]
    return order[kept].tolist()


def generate_proposals(apn_out, grid: AnchorGrid, nms_tiou: float = 0.7, top_k: int = 100) -> list[Proposal]:
    """Score and decode every anchor, then pool all levels through NMS."""
    starts, ends, scores, levels = [], [], [], []
    hi = float(grid.buffer_len)
    for k, (cls, reg) in enumerate(apn_out):
        c = cls.data
        bg, fg = c[0::2], c[1::2]
        m = np.maximum(bg, fg)
        obj = np.exp(fg - m) / (np.exp(bg - m) + np.exp(fg - m))
        idx = grid.level_indices(k)
        j, p = grid.scale_index_of[idx], grid.position_of[idx]
        s, e, keep = decode(grid.starts[idx], grid.ends[idx], reg.data[0::2][j, p], reg.data[1::2][j, p], (0.0, hi))
        starts.append(s[keep])
        ends.append(e[keep])
        scores.append(obj[j, p][keep])
        levels.append(np.full(int(keep.sum()), k))
    starts = np.concatenate(starts)
    ends = np.concatenate(ends)
    scores = np.concatenate(scores)
    levels = np.concatenate(levels)
    if not scores.size:
        return []
    kept = nms_indices(starts, ends, scores, nms_tiou, top_k)
    return [Proposal(Segment(starts[i], ends[i]), float(scores[i]), int(levels[i])) for i in kept]


# ---------------------------------------------------------------------------
# RoI pooling and context fusion


def _roi_windows(t: int, starts: np.ndarray, ends: np.ndarray, stride: float, num_bins: int) -> tuple:
    """Range-max table rows (left, right), each [N, P], of the two power-of-two
    windows that cover each bin's cell range, and the table's level count.

    Each segment is mapped to feature coordinates and clamped; each of its P
    equal sub-intervals pools the cells whose centers fall inside it, and an
    empty sub-interval borrows the covered cell nearest its center.  All
    segments are resolved in one pass: every bin becomes a cell range [a, b)
    whose maximum per channel is the larger of two (possibly overlapping)
    table windows, the later one winning only if strictly larger.
    """
    lo = np.minimum(np.maximum(starts / stride, 0.0), float(t))
    hi = np.minimum(np.maximum(ends / stride, 0.0), float(t))
    outside = hi <= lo
    if outside.any():
        i = outside.argmax()
        raise ContractError(f"segment [{starts[i]}, {ends[i]}] lies outside the feature extent")
    # covered cells [first, last): centers in [lo, hi), else the cell at the middle
    first = np.maximum(np.ceil(lo - 0.5), 0).astype(np.int64)
    last = np.minimum(np.ceil(hi - 0.5), t).astype(np.int64)
    empty = last <= first
    first[empty] = np.minimum(np.maximum(np.floor(0.5 * (lo + hi)), 0), t - 1)[empty]
    last[empty] = first[empty] + 1
    first, last = first[:, None], last[:, None]
    edges = lo[:, None] + (hi - lo)[:, None] * np.arange(num_bins + 1) / num_bins
    # bin p pools covered cells [a, b): those with centers in [edge p, edge p+1)
    bounds = np.minimum(np.maximum(np.searchsorted(np.arange(t) + 0.5, edges, side="left"), first), last)
    a, b = bounds[:, :-1], bounds[:, 1:]
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    near = np.minimum(np.maximum(np.floor(mid - 0.5), first), last - 1).astype(np.int64)
    after = np.minimum(near + 1, last - 1)
    near = np.where(np.abs(after + 0.5 - mid) < np.abs(near + 0.5 - mid), after, near)
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
    val = np.empty((levels * t, d))
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
    out = np.empty((n, d, num_bins))
    wins = np.empty((num_bins, n, d), dtype=bool)
    for p, pooled in enumerate(out.transpose(2, 0, 1)):
        vl, vr = val.take(left[:, p], axis=0), val.take(right[:, p], axis=0)
        np.greater(vr, vl, out=wins[p])
        pooled[...] = np.where(wins[p], vr, vl)
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


def _roi_cell_selection(feat_data: np.ndarray, starts: np.ndarray, ends: np.ndarray, stride: float, num_bins: int) -> np.ndarray:
    """Flat take-indices [N, D, P] implementing max-pooled temporal bins:
    per bin and channel, the first cell holding the bin's maximum (see
    ``_roi_windows`` for the binning rules)."""
    t = feat_data.shape[1]
    left, right, levels = _roi_windows(t, starts, ends, stride, num_bins)
    val, ups = _range_max_table(feat_data, levels)
    _, wins = _pool_values(val, left, right)
    return _first_max_cells(t, ups, left, right, wins)


def roi_pool(level_feat, starts, ends, stride: float, num_bins: int) -> nc.Tensor:
    """Fixed-size [N, D, P] max-pooled features for N segments, given as
    arrays of start and end frames.

    The values are read from the range-max table.  The pooled cells'
    indices, which only the gradient needs, are computed by the backward
    from the forward's selection masks; they are ``_roi_cell_selection``'s,
    so the node equals ``nc.take(feat, _roi_cell_selection(...))`` bit for
    bit.
    """
    feat = level_feat if isinstance(level_feat, nc.Tensor) else nc.Tensor(level_feat)
    t = feat.shape[1]
    starts, ends = np.asarray(starts, dtype=np.float64), np.asarray(ends, dtype=np.float64)
    left, right, levels = _roi_windows(t, starts, ends, stride, num_bins)
    val, ups = _range_max_table(feat.data, levels)
    out, wins = _pool_values(val, left, right)
    return nc.gathered(feat, out, lambda: _first_max_cells(t, ups, left, right, wins))


def context_window(starts, ends, buffer_len: float):
    """(starts, ends) of the segments dilated to twice their length about
    their centers, clipped to the buffer."""
    c, half = 0.5 * (starts + ends), ends - starts
    return np.maximum(0.0, c - half), np.minimum(float(buffer_len), c + half)


def context_features(level_feat, starts, ends, stride: float, num_bins: int, params: dict, level: int, buffer_len: float) -> nc.Tensor:
    """Fuse the RoI features of N segments (start and end arrays) with their
    context: one ``roi_pool`` call pools the segments and their context
    windows, and the two [N, D, P] row halves are channel-reduced to D/2 by
    separate conv layers and concatenated back to [N, D, P]."""
    ctx_starts, ctx_ends = context_window(starts, ends, buffer_len)
    both = roi_pool(level_feat, np.concatenate([starts, ctx_starts]), np.concatenate([ends, ctx_ends]), stride, num_bins)
    n = len(starts)
    pooled, ctx = nc.rows(both, 0, n), nc.rows(both, n, 2 * n)
    r = nc.relu(nc.temporal_conv(pooled, params[f"acn.level{level}.roi_reduce.w"], params[f"acn.level{level}.roi_reduce.b"], 1, 1))
    c = nc.relu(nc.temporal_conv(ctx, params[f"acn.level{level}.ctx_reduce.w"], params[f"acn.level{level}.ctx_reduce.b"], 1, 1))
    return nc.concat_channels(r, c)


# ---------------------------------------------------------------------------
# classification network


def assign_proposals(proposals: list[Proposal], cfg: AcnConfig, num_levels: int) -> list[list[int]]:
    """Proposal indices per level under the assignment strategy: s1 sends
    everything to level 0, s2 to the source level, s3 to every level."""
    assignment = [[] for _ in range(num_levels)]
    for i, p in enumerate(proposals):
        if cfg.strategy == "s1":
            assignment[0].append(i)
        elif cfg.strategy == "s2":
            assignment[p.source_level].append(i)
        else:
            for k in range(num_levels):
                assignment[k].append(i)
    return assignment


def acn_forward(pyr: PyramidFeatures, proposals: list[Proposal], cfg: AcnConfig, params: dict, buffer_len: float, assignment: list[list[int]] | None = None) -> list:
    """Per level: the level's n proposals pooled as one [n, D, P] batch
    (optionally context-fused), flattened D-major to [n, D*P] rows and run
    through that level's classifier.  Returns, per level, (proposal indices,
    [n, C+1] class logits, [n, 2C] class-specific regression) with Nones
    for levels that received nothing.
    """
    if not proposals:
        raise ContractError("acn_forward needs at least one proposal")
    if assignment is None:
        assignment = assign_proposals(proposals, cfg, len(pyr.levels))
    starts, ends = np.array([(p.segment.start, p.segment.end) for p in proposals], dtype=np.float64).T
    out = []
    for k, idx in enumerate(assignment):
        if not idx:
            out.append((idx, None, None))
            continue
        feat, stride = pyr.levels[k], pyr.strides[k]
        if cfg.use_context:
            f = context_features(feat, starts[idx], ends[idx], stride, cfg.roi_bins, params, k, buffer_len)
        else:
            f = roi_pool(feat, starts[idx], ends[idx], stride, cfg.roi_bins)
        x = nc.reshape(f, (len(idx), -1))
        h = nc.relu(nc.linear(x, params[f"acn.level{k}.fc6.w"], params[f"acn.level{k}.fc6.b"]))
        h = nc.relu(nc.linear(h, params[f"acn.level{k}.fc7.w"], params[f"acn.level{k}.fc7.b"]))
        cls = nc.linear(h, params[f"acn.level{k}.cls.w"], params[f"acn.level{k}.cls.b"])
        reg = nc.linear(h, params[f"acn.level{k}.reg.w"], params[f"acn.level{k}.reg.b"])
        out.append((idx, cls, reg))
    return out


def _softmax(rows: np.ndarray) -> np.ndarray:
    z = rows - rows.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def finalize_detections(acn_out, proposals: list[Proposal], cfg: AcnConfig, buffer, nms_tiou: float = 0.4, score_thresh: float = 0.05) -> list[Detection]:
    """Turn classifier outputs into video-coordinate detections.

    Every (proposal, level) output contributes one candidate per
    non-background class whose posterior clears ``score_thresh``; its
    segment is the class-specific refinement of the proposal, clipped to
    the buffer's valid content.  Each class's candidates, in (level, row)
    order, then pass NMS and are shifted into video coordinates.
    """
    prop = segment_pairs([p.segment for p in proposals])
    cands = [[] for _ in range(cfg.num_classes)]  # per class: (starts, ends, scores) per level
    for idx, cls, reg in acn_out:
        if cls is None:
            continue
        post = _softmax(cls.data)[:, 1:]
        seg = prop[idx]
        s, e, ok = decode(seg[:, :1], seg[:, 1:], reg.data[:, 0::2], reg.data[:, 1::2], (0.0, float(buffer.num_valid)))
        live = ~(post < score_thresh) & ok
        for c, parts in enumerate(cands):
            m = live[:, c]
            if m.any():
                parts.append((s[m, c], e[m, c], post[m, c]))
    detections = []
    off = float(buffer.frame_offset)
    for c, parts in enumerate(cands, start=1):
        if not parts:
            continue
        st, en, sc = (np.concatenate(x) for x in zip(*parts))
        for i in nms_indices(st, en, sc, nms_tiou):
            detections.append(Detection(Segment(st[i] + off, en[i] + off), c, float(sc[i]), buffer.video_id))
    detections.sort(key=lambda d: (-d.score, d.label, d.segment.start))
    return detections


def nms_detections(dets: list[Detection], thresh: float) -> list[Detection]:
    """Class-wise greedy NMS over a flat detection list (same video)."""
    groups: dict[int, list[Detection]] = {}
    for d in dets:
        groups.setdefault(d.label, []).append(d)
    kept: list[Detection] = []
    for c in sorted(groups):
        group = groups[c]
        seg = segment_pairs([d.segment for d in group])
        kept.extend(group[i] for i in nms_indices(seg[:, 0], seg[:, 1], np.array([d.score for d in group]), thresh))
    kept.sort(key=lambda d: (-d.score, d.label, d.segment.start))
    return kept
