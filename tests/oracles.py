"""Independent reference implementations used to check the real code.

Everything here is written naively (explicit loops, no shared helpers from
the package's fast paths) so a disagreement points at the implementation,
not the test.
"""

from __future__ import annotations

import math

import numpy as np

from tfpdet import numcore as nc
from tfpdet.anchorkit import Segment, segment_pairs, tiou
from tfpdet.errors import ContractError
from tfpdet.evalkit import EvalConfig, EvalReport, _greedy_match
from tfpdet.heads import Detection


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_gradients(loss_fn, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central differences of ``loss_fn()`` w.r.t. every entry of ``arrays``.

    ``loss_fn`` must read the arrays in place (they are mutated and
    restored around each probe).
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


def check_gradients(build_loss, arrays: list[np.ndarray], h: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare analytic gradients against central differences.

    ``build_loss`` returns (loss Tensor, [Tensor per array]) built fresh
    from the current array contents.  For coordinates that fail at ``h``
    (a kink of relu/maxpool inside the probe window), the probe is retried
    at h/10 and h/100; a genuine gradient bug keeps failing as h shrinks.
    Returns the max relative error observed at the primary h.
    """
    loss, tensors = build_loss()
    for t in tensors:
        t.grad = np.zeros_like(t.data)
    nc.backward(loss)
    analytic = [t.grad.copy() for t in tensors]

    def loss_value():
        return build_loss()[0].item()

    worst = 0.0
    for arr, ana in zip(arrays, analytic):
        flat = arr.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            ok = False
            for probe in (h, h / 10, h / 100):
                flat[i] = orig + probe
                fp = loss_value()
                flat[i] = orig - probe
                fm = loss_value()
                flat[i] = orig
                fd = (fp - fm) / (2 * probe)
                err = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-8)
                if err < tol:
                    ok = True
                    worst = max(worst, err)
                    break
            assert ok, f"gradient mismatch at coordinate {i}: analytic {aflat[i]}, fd {fd}"
    return worst


# ---------------------------------------------------------------------------
# geometry oracles


def tiou_ref(a, b) -> float:
    s = max(a.start, b.start)
    e = min(a.end, b.end)
    if e <= s:
        return 0.0
    inter = e - s
    return inter / ((a.end - a.start) + (b.end - b.start) - inter)


def encode_ref(anchor: Segment, gt: Segment) -> tuple[float, float]:
    """Segment -> (center offset in anchor lengths, log length ratio)."""
    return (
        (gt.center - anchor.center) / anchor.length,
        math.log(gt.length / anchor.length),
    )


def match_anchors_ref(anchors, gts, pos_tiou=0.7, neg_tiou=0.3):
    """Rule-literal anchor labeling: best anchor per ground truth (lowest
    index on ties), strict thresholds elsewhere.  Returns (labels,
    matched_gt) with labels in {1, -1, 0}."""
    n = len(anchors)
    labels = [0] * n
    matched = [-1] * n
    if not gts:
        return [-1] * n, matched
    table = [[tiou_ref(a, g) for g in gts] for a in anchors]
    for i in range(n):
        best = max(table[i])
        if best > pos_tiou:
            labels[i] = 1
        elif best < neg_tiou:
            labels[i] = -1
    for j in range(len(gts)):
        best_i, best_v = 0, -1.0
        for i in range(n):
            if table[i][j] > best_v:
                best_i, best_v = i, table[i][j]
        labels[best_i] = 1
    for i in range(n):
        if labels[i] == 1:
            best_j, best_v = 0, -1.0
            for j in range(len(gts)):
                if table[i][j] > best_v:
                    best_j, best_v = j, table[i][j]
            matched[i] = best_j
    return labels, matched


def match_proposals_ref(proposals, gts, gt_labels, fg_tiou=0.5):
    out = []
    for p in proposals:
        best_j, best_v = -1, -1.0
        for j, g in enumerate(gts):
            v = tiou_ref(p, g)
            if v > best_v:
                best_j, best_v = j, v
        if best_j >= 0 and best_v > fg_tiou:
            out.append((int(gt_labels[best_j]), best_j))
        else:
            out.append((0, -1))
    return out


def nms_ref(segments, scores, thresh, top_k=None):
    """Greedy suppression with the same tie rule (score desc, index asc)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if tiou_ref(segments[i], segments[j]) >= thresh:
                ok = False
                break
        if ok:
            kept.append(i)
            if top_k is not None and len(kept) >= top_k:
                break
    return kept


def nms_blocked_ref(starts, ends, scores, thresh, top_k=None, block=64):
    """``heads.nms_indices`` as it was before its overlap sweep: greedy NMS
    over blocked tIoU matrices of every candidate against the rows kept so
    far and against its block.  A NaN overlap suppresses (``not < thresh``);
    score ties break on the lower index."""
    n = len(scores)
    order = np.lexsort((np.arange(n), -np.asarray(scores)))
    segs = np.stack([starts, ends], axis=1)[order]
    kept = []  # positions in score order
    for lo in range(0, n, block):
        rows, k = segs[lo : lo + block], len(kept)
        hits = ~(tiou(rows[:, None], np.concatenate([segs[kept], rows])) < thresh)
        dead, own = hits[:, :k].any(axis=1), hits[:, k:]
        for r in range(len(rows)):
            if dead[r]:
                continue
            kept.append(lo + r)
            if top_k is not None and len(kept) >= top_k:
                return order[kept].tolist()
            dead |= own[r]
    return order[kept].tolist()


def finalize_detections_ref(acn_out, proposals, cfg, buffer, nms_tiou=0.4, score_thresh=0.05):
    """Per-row finalize: every (proposal, level, class) output clearing
    ``score_thresh`` is decoded on its own (exp from numpy), clipped to the
    buffer's valid content and dropped below one frame; each class's
    candidates, in (level, row) order, pass ``nms_ref`` and are shifted to
    video coordinates."""
    cands = {c: ([], []) for c in range(1, cfg.num_classes + 1)}  # segments, scores
    valid_end = float(buffer.num_valid)
    for idx, cls, reg in acn_out:
        if cls is None:
            continue
        z = cls.data - cls.data.max(axis=1, keepdims=True)
        post = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        for row, i in enumerate(idx):
            seg = proposals[i].segment
            for c in range(1, cfg.num_classes + 1):
                s = float(post[row, c])
                if s < score_thresh:
                    continue
                center = seg.center + reg.data[row, 2 * (c - 1)] * seg.length
                half = 0.5 * seg.length * np.exp(reg.data[row, 2 * (c - 1) + 1])
                start, end = max(center - half, 0.0), min(center + half, valid_end)
                if end - start < 1.0:
                    continue
                cands[c][0].append(Segment(start, end))
                cands[c][1].append(s)
    dets = []
    off = float(buffer.frame_offset)
    for c, (segs, scores) in cands.items():
        for i in nms_ref(segs, scores, nms_tiou):
            dets.append(Detection(Segment(segs[i].start + off, segs[i].end + off), c, scores[i], buffer.video_id))
    dets.sort(key=lambda d: (-d.score, d.label, d.segment.start))
    return dets


def average_precision_ref(dets, gts_by_video, thresh):
    """Protocol-literal AP: walk detections by score, match one-to-one,
    then integrate the monotone precision envelope step by step."""
    npos = sum(len(v) for v in gts_by_video.values())
    if npos == 0:
        return None
    order = sorted(dets, key=lambda d: (-d.score, d.segment.start, d.video_id))
    used = {vid: [False] * len(v) for vid, v in gts_by_video.items()}
    points = []  # (tp cumulative, fp cumulative)
    tp = fp = 0
    for d in order:
        best_j, best_v = -1, -1.0
        for j, g in enumerate(gts_by_video.get(d.video_id, [])):
            if used[d.video_id][j]:
                continue
            v = tiou_ref(d.segment, g)
            if v >= thresh and v > best_v:
                best_j, best_v = j, v
        if best_j >= 0:
            used[d.video_id][best_j] = True
            tp += 1
        else:
            fp += 1
        points.append((tp, fp))
    precisions = [t / (t + f) for t, f in points]
    recalls = [t / npos for t, _ in points]
    ap = 0.0
    prev_r = 0.0
    for i, r in enumerate(recalls):
        if r > prev_r:
            best_p = max(precisions[i:])  # envelope: best precision at recall >= r
            ap += (r - prev_r) * best_p
            prev_r = r
    return ap


def average_precision_strings_ref(dets, gts_by_video: dict, thresholds) -> list | None:
    """The earlier ``evalkit.average_precision``, kept verbatim as the
    reference for ranking and grouping: one class's Detection objects, ranked
    by lexsort over video-id strings and grouped by ``np.unique`` of those
    strings.  It shares the package's matcher and tIoU, which the naive
    oracles above check on their own."""
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


def evaluate_detections_strings_ref(dets, gts_by_video: dict, cfg: EvalConfig) -> dict:
    """``to_json_dict()`` of the report ``evaluate_detections`` gives, built
    per class from Detection and Segment lists by
    ``average_precision_strings_ref``."""
    classes = sorted({label for v in gts_by_video.values() for _, label in v})
    thresholds = sorted(set(cfg.tiou_thresholds) | set(cfg.average_grid))
    per_class = {
        c: dict(zip(thresholds, average_precision_strings_ref(
            [d for d in dets if d.label == c],
            {vid: [seg for seg, label in v if label == c] for vid, v in gts_by_video.items()}, thresholds)))
        for c in classes
    }
    map_per_t = {t: float(np.mean([per_class[c][t] for c in classes])) for t in thresholds}
    counts = {"ground_truth": sum(len(v) for v in gts_by_video.values()), "detections": len(dets),
              "classes": len(classes), "proposal_budget": cfg.proposal_budget}
    return EvalReport(per_class, map_per_t, float(np.mean([map_per_t[t] for t in cfg.average_grid])), None,
                      counts).to_json_dict()


def average_recall_ref(proposals_by_video, gts_by_video, budget, grid):
    total = sum(len(v) for v in gts_by_video.values())
    if total == 0:
        return 0.0
    recalls = []
    for t in grid:
        matched = 0
        for vid, gts in gts_by_video.items():
            props = sorted(proposals_by_video.get(vid, []), key=lambda p: (-p.objectness, p.segment.start))[:budget]
            used = [False] * len(gts)
            for p in props:
                best_j, best_v = -1, -1.0
                for j, g in enumerate(gts):
                    if used[j]:
                        continue
                    v = tiou_ref(p.segment, g)
                    if v >= t and v > best_v:
                        best_j, best_v = j, v
                if best_j >= 0:
                    used[best_j] = True
                    matched += 1
        recalls.append(matched / total)
    return sum(recalls) / len(recalls)


def greedy_match_rows_ref(m: np.ndarray, thresholds) -> np.ndarray:
    """The earlier ``evalkit._greedy_match``, kept verbatim as the reference
    for the matcher that walks only reachable cells: it sorts every column
    of every row that reaches the lowest threshold, and breaks a row's walk
    at its first column below it."""
    ts = np.asarray(thresholds, dtype=np.float64)
    if len(ts) > 62:  # a row's bits must fit an int64
        return np.concatenate([greedy_match_rows_ref(m, ts[k:k + 62]) for k in range(0, len(ts), 62)])
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


def average_recall_lexsort_ref(proposals_by_video: dict, gts_by_video: dict, budget: int, grid) -> float:
    """The earlier ``evalkit.average_recall``, kept verbatim (with the matcher
    above) as the reference for its ranking, one stable lexsort per video by
    (-objectness, start), and for its matching."""
    total_gt = sum(len(v) for v in gts_by_video.values())
    if total_gt == 0:
        return 0.0
    matched = np.zeros(len(grid), dtype=np.int64)
    for vid, gts in gts_by_video.items():
        props = proposals_by_video.get(vid, [])
        pairs = segment_pairs([p.segment for p in props])
        top = np.lexsort((pairs[:, 0], [-p.objectness for p in props]))[:budget]  # ties by earlier start
        if len(top) and gts:
            matched += greedy_match_rows_ref(tiou(pairs[top, None], segment_pairs(gts)), grid).sum(axis=1)
    return float(np.mean(matched / total_gt))


def roi_pool_ref(feat: np.ndarray, segment, stride: float, num_bins: int) -> np.ndarray:
    """Loop implementation of the binning rules (max over covered cell
    centers per bin, nearest covered cell when a bin is empty)."""
    d, t = feat.shape
    lo = min(max(segment.start / stride, 0.0), float(t))
    hi = min(max(segment.end / stride, 0.0), float(t))
    covered = [i for i in range(t) if lo <= i + 0.5 < hi]
    if not covered:
        covered = [int(min(max(np.floor(0.5 * (lo + hi)), 0), t - 1))]
    out = np.zeros((d, num_bins))
    for p in range(num_bins):
        blo = lo + (hi - lo) * p / num_bins
        bhi = lo + (hi - lo) * (p + 1) / num_bins
        cells = [i for i in covered if blo <= i + 0.5 < bhi]
        if not cells:
            mid = 0.5 * (blo + bhi)
            cells = [min(covered, key=lambda i: abs(i + 0.5 - mid))]
        for ch in range(d):
            out[ch, p] = max(feat[ch, i] for i in cells)
    return out


def _pool_node_ref(feat, segment, stride: float, num_bins: int):
    """``roi_pool_ref`` as a graph node: each output routes its gradient to
    the cell of its row that holds its value, so the values of a feature
    row must be distinct (true for continuous random features)."""
    data = feat.data
    vals = roi_pool_ref(data, segment, stride, num_bins)
    d, t = data.shape
    flat = np.zeros((d, num_bins), dtype=np.int64)
    for ch in range(d):
        row = data[ch].tolist()
        assert len(set(row)) == t, "feature row values must be distinct"
        for p in range(num_bins):
            flat[ch, p] = ch * t + row.index(vals[ch, p])
    return nc.take(feat, flat)


def acn_forward_ref(pyr, proposals, cfg, params, buffer_len: float, assignment):
    """Per-proposal classifier: pool (and context-fuse) one proposal at a
    time with 2-D convs, stack the D-major flattened rows and run the
    level's fc layers.  Same return layout as ``heads.acn_forward``."""
    out = []
    for k, idx in enumerate(assignment):
        if not idx:
            out.append((idx, None, None))
            continue
        feat, stride = pyr.levels[k], pyr.strides[k]
        x = None
        for i in idx:
            seg = proposals[i].segment
            f = _pool_node_ref(feat, seg, stride, cfg.roi_bins)
            if cfg.use_context:
                c, half = 0.5 * (seg.start + seg.end), seg.end - seg.start
                ctx_seg = type(seg)(max(0.0, c - half), min(float(buffer_len), c + half))
                ctx = _pool_node_ref(feat, ctx_seg, stride, cfg.roi_bins)
                r = nc.relu(nc.temporal_conv(f, params[f"acn.level{k}.roi_reduce.w"], params[f"acn.level{k}.roi_reduce.b"], 1, 1))
                cc = nc.relu(nc.temporal_conv(ctx, params[f"acn.level{k}.ctx_reduce.w"], params[f"acn.level{k}.ctx_reduce.b"], 1, 1))
                f = nc.concat_channels(r, cc)
            row = nc.reshape(f, (1, -1))
            x = row if x is None else nc.concat_channels(x, row)
        h = nc.relu(nc.linear(x, params[f"acn.level{k}.fc6.w"], params[f"acn.level{k}.fc6.b"]))
        h = nc.relu(nc.linear(h, params[f"acn.level{k}.fc7.w"], params[f"acn.level{k}.fc7.b"]))
        cls = nc.linear(h, params[f"acn.level{k}.cls.w"], params[f"acn.level{k}.cls.b"])
        reg = nc.linear(h, params[f"acn.level{k}.reg.w"], params[f"acn.level{k}.reg.b"])
        out.append((idx, cls, reg))
    return out


# ---------------------------------------------------------------------------
# kernels as they were before their data movement was rewritten, verbatim
# apart from names; the rewritten kernels must match them bit for bit


def _accumulate_ref(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def temporal_conv_ref(x, w, b, stride: int = 1, padding: int = 0) -> nc.Tensor:
    """1-D cross-correlation along the temporal axis of a [C_in, T] map, or
    of every row of an [N, C_in, T] batch with the same per-row arithmetic.

    ``w`` has shape [C_out, C_in, k]; the output length is
    floor((T + 2*padding - k) / stride) + 1.  The weight gradient of a batch
    is one gemm over its N*T' columns.
    """
    xt, wt, bt = nc._t(x), nc._t(w), nc._t(b)
    if xt.data.ndim not in (2, 3) or wt.data.ndim != 3 or bt.data.ndim != 1:
        raise ContractError(
            f"temporal_conv expects [C,T] or [N,C,T] x, [Co,Ci,k] w, [Co] b; got {xt.shape}, {wt.shape}, {bt.shape}"
        )
    c_out, c_in, k = wt.shape
    if xt.shape[-2] != c_in or bt.shape[0] != c_out:
        raise ContractError(f"temporal_conv shape mismatch: x {xt.shape} vs w {wt.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"temporal_conv needs stride >= 1, padding >= 0; got {stride}, {padding}")
    t_in = xt.shape[-1]
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_in + 2 * padding < k or t_out < 1:
        raise ContractError(
            f"temporal_conv empty output: T={t_in}, k={k}, stride={stride}, padding={padding}"
        )
    xb = xt.data.reshape(-1, c_in, t_in)
    n = xb.shape[0]
    xp = np.zeros((n, c_in, t_in + 2 * padding))
    xp[:, :, padding : padding + t_in] = xb
    cols = np.empty((n, c_in, k, t_out))
    for j in range(k):
        cols[:, :, j, :] = xp[:, :, j : j + stride * t_out : stride]
    cols = cols.reshape(n, c_in * k, t_out)
    w2 = wt.data.reshape(c_out, c_in * k)
    y = np.matmul(w2, cols) + bt.data[:, None]
    req = xt.requires_grad or wt.requires_grad or bt.requires_grad

    def back(g):
        g = g.reshape(n, c_out, t_out)
        gw = g.transpose(1, 0, 2).reshape(c_out, n * t_out) @ cols.transpose(1, 0, 2).reshape(c_in * k, n * t_out).T
        _accumulate_ref(wt, gw.reshape(wt.shape))
        _accumulate_ref(bt, g.sum(axis=2).sum(axis=0))
        if xt.requires_grad:
            gk = np.matmul(w2.T, g).reshape(n, c_in, k, t_out)
            gxp = np.zeros((n, c_in, t_in + 2 * padding))
            for j in range(k):
                gxp[:, :, j : j + stride * t_out : stride] += gk[:, :, j, :]
            _accumulate_ref(xt, gxp[:, :, padding : padding + t_in].reshape(xt.shape))

    return nc.Tensor(y.reshape(xt.shape[:-2] + (c_out, t_out)), req, (xt, wt, bt), back if req else None)


def temporal_maxpool_ref(x, k: int, stride: int) -> nc.Tensor:
    """Windowed maximum per channel; ties route gradient to the first index."""
    xt = nc._t(x)
    if xt.data.ndim != 2:
        raise ContractError(f"temporal_maxpool expects [C,T], got {xt.shape}")
    c, t_in = xt.shape
    if t_in < k:
        raise ContractError(f"temporal_maxpool empty output: T={t_in} < k={k}")
    t_out = (t_in - k) // stride + 1
    starts = np.arange(t_out) * stride
    win = xt.data[:, starts[:, None] + np.arange(k)[None, :]]  # (C, T', k)
    arg = win.argmax(axis=2)  # first maximal index per window
    y = np.take_along_axis(win, arg[:, :, None], axis=2)[:, :, 0]
    src = starts[None, :] + arg  # (C, T') source column per output cell
    req = xt.requires_grad

    def back(g):
        gx = np.zeros_like(xt.data)
        np.add.at(gx, (np.repeat(np.arange(c), t_out), src.ravel()), g.ravel())
        _accumulate_ref(xt, gx)

    return nc.Tensor(y, req, (xt,), back if req else None)


def range_argmax_table_ref(x: np.ndarray) -> np.ndarray:
    """[K, T, D] sparse table for a [D, T] map: entry (k, i, c) is the flat
    index into ``x`` of the first maximum of x[c, i : i + 2**k] (if in range)."""
    d, t = x.shape
    table = np.zeros((t.bit_length(), t, d), dtype=np.int64)
    table[0] = np.arange(d * t).reshape(d, t).T
    val = np.ascontiguousarray(x.T)
    for k in range(1, len(table)):
        h = 1 << (k - 1)
        n = t - 2 * h + 1
        table[k, :n] = np.where(val[h:] > val[:-h], table[k - 1, h : h + n], table[k - 1, :n])
        val = np.maximum(val[:-h], val[h:])
    return table


def roi_cell_selection_ref(feat_data: np.ndarray, starts: np.ndarray, ends: np.ndarray, stride: float, num_bins: int) -> np.ndarray:
    """Flat take-indices [N, D, P] implementing max-pooled temporal bins.

    Each segment is mapped to feature coordinates and clamped; each of its P
    equal sub-intervals pools the cells whose centers fall inside it, and an
    empty sub-interval borrows the covered cell nearest its center.  All
    segments are resolved in one pass: every bin becomes a cell range whose
    first maximum per channel comes from a range-argmax table.
    """
    d, t = feat_data.shape
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
    # each bin is covered by two (possibly overlapping) power-of-two windows
    table = range_argmax_table_ref(feat_data)
    left = table.take(((k * t + a) * d)[:, :, None] + np.arange(d))
    right = table.take(((k * t + b - (1 << k)) * d)[:, :, None] + np.arange(d))
    return np.where(feat_data.take(right) > feat_data.take(left), right, left).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# synthetic data: the band draw as it was before its CDF was cached, verbatim
# apart from its name; the cached draw must match it bit for bit


def sample_instance_length_ref(rng: np.random.Generator, bands) -> tuple[int, int]:
    """Draw (length, band index): band by weight, length uniform within."""
    weights = np.array([b[2] for b in bands], dtype=np.float64)
    band = int(rng.choice(len(bands), p=weights / weights.sum()))
    lo, hi, _ = bands[band]
    return int(rng.integers(lo, hi + 1)), band


def band_cdf_ref(bands) -> np.ndarray:
    """The CDF that ``Generator.choice`` builds from the reference's ``p``."""
    weights = np.array([b[2] for b in bands], dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf
