"""``tools/digest.py`` against the package: its NMS battery holds only
valid calls, while the wild edge rows it once held make ``heads.nms_indices``
raise ``ContractError`` without a warning, its float64 parameter draw is
``Model.build``'s and its cast returns copies of a workload's videos and
buffers with float64 features, its pooling battery holds the ties that
routing can get wrong, its RoI battery holds the bins and rows where cell
selection rounds, clamps or breaks a tie, and its rounded scoring set holds
the ranking ties that only the stable sort orders."""

import importlib.util
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tfpdet import anchorkit as ak, heads, numcore as nc
from tfpdet.errors import ContractError

from oracles import roi_pool_ref

ROOT = Path(__file__).resolve().parents[1]


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_nms_battery_is_valid_and_the_old_edge_rows_raise():
    # every call is one nms_indices takes: finite ends, positive lengths, a
    # threshold in (0, 1] and a top_k of None or an int >= 1
    calls = list(load_digest().nms_battery())
    for segments, scores, thresh, top_k in calls:
        length = segments[:, 1] - segments[:, 0]
        assert np.isfinite(segments).all() and (length > 0).all() and (length < np.inf).all()
        assert len(scores) == len(segments) and 0 < thresh <= 1 and (top_k is None or top_k >= 1)
    # the battery's edge set once also held NaN and infinite ends and lengths <= 0
    inf, nan = float("inf"), float("nan")
    edge = np.array([(0, 10), (0, 10), (10, 20), (5, 15), (nan, 4), (3, nan), (-inf, 2), (1, inf), (-inf, inf),
                     (7, 7), (9, 6), (inf, inf), (12, 30), (2, 8), (30, 40), (39, 50)], dtype=np.float64)
    tame = [c for c in calls if len(c[0]) == 8]
    assert len(tame) == 3 * 4 * 4 and all(np.array_equal(c[0], edge[[0, 1, 2, 3, 12, 13, 14, 15]]) for c in tame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, _, thresh, top_k in tame:
            for row in range(4, 12):
                with pytest.raises(ContractError, match="0 < end - start < inf"):
                    heads.nms_indices(edge[[0, 1, 2, 3, row]], np.linspace(0.9, 0.1, 5), thresh, top_k)
            with pytest.raises(ContractError, match="0 < end - start < inf"):
                heads.nms_indices(edge, np.zeros(len(edge)), thresh, top_k)


def test_float64_redraw_is_the_model_draw_before_rounding(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    built, redrawn = workloads.build_model(workloads.FULL.hidden), workloads.build_model(workloads.FULL.hidden)
    load_digest().to_float64(workloads, redrawn, [])
    assert list(redrawn.params) == list(built.params)
    for name, p in redrawn.params.items():
        assert p.data.dtype == redrawn.velocity[name].dtype == np.float64
        assert np.array_equal(p.data.astype(built.params[name].data.dtype), built.params[name].data)
        assert not redrawn.velocity[name].any()
    # a workload's buffers and videos: features become float64 arrays of the same values
    train = workloads.Train(1, workloads.TINY, tmp_path / "train")
    infer = workloads.InferLong(1, workloads.TINY, tmp_path / "infer")
    for w, items in ((train, [b for bufs in train.buffers.values() for b in bufs]), (infer, infer.videos)):
        cast = load_digest().to_float64(workloads, w.model, items)
        assert len(cast) == len(items)
        for item, old in zip(cast, items):
            assert type(item.features) is np.ndarray and item.features.dtype == np.float64
            assert old.features.dtype == np.float32 and np.array_equal(item.features, old.features)
            assert all(getattr(item, f.name) is getattr(old, f.name) for f in fields(old) if f.name != "features")


def test_pool_battery_holds_ties_signed_zeros_and_nan():
    xs = [x for x, _ in load_digest().pool_battery()]
    assert all(x.shape[1] % 4 == 0 for x in xs)  # three pyramid levels
    first, second = np.concatenate([x.reshape(-1, 2) for x in xs]).T  # the pairs the first pool takes
    assert (first == second).any()
    assert ((first == 0) & (second == 0) & (np.signbit(first) != np.signbit(second))).any()
    assert (np.isnan(first) & ~np.isnan(second)).any() and (~np.isnan(first) & np.isnan(second)).any()


def test_roi_battery_holds_halfway_bins_uncovered_and_clamped_rows():
    cases = list(load_digest().roi_battery())
    assert sorted((stride, bins) for _, _, stride, bins, _ in cases) == [
        (stride, bins) for stride in (8.0, 16.0, 32.0) for bins in range(1, 9) for _ in range(2)]
    halfway_bins, uncovered, clamped_low, clamped_high = set(), 0, 0, 0
    for x, segments, stride, bins, target in cases:
        t = x.shape[1]
        assert target.shape == (len(segments), len(x), bins)
        clamped_low += (segments[:, 0] < 0).sum()
        clamped_high += (segments[:, 1] > t * stride).sum()
        lo, hi = np.clip(segments / stride, 0, t).T
        for a, b in zip(lo, hi):
            covered = {j for j in range(t) if a <= j + 0.5 < b}
            uncovered += not covered
            edges = [a + (b - a) * p / bins for p in range(bins + 1)]
            for e0, e1 in zip(edges, edges[1:]):  # an empty bin centered on the edge between two covered cells
                mid = 0.5 * (e0 + e1)
                if not any(e0 <= j + 0.5 < e1 for j in covered) and mid == int(mid) and {int(mid) - 1, int(mid)} <= covered:
                    halfway_bins.add(bins)
        if not np.isnan(x).any():  # the battery is one that the loop oracle reads as roi_pool does
            got = heads.roi_pool(nc.Tensor(x), segments, stride, bins).data
            for row, (s, e) in zip(got, segments):
                assert np.array_equal(row, roi_pool_ref(x, ak.Segment(s, e), stride, bins))
    assert halfway_bins == set(range(3, 9)) and uncovered and clamped_low and clamped_high


def test_tied_eval_set_holds_score_and_objectness_ties(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    digest = load_digest()
    w = workloads.Eval(digest.EVAL_SEEDS[0], workloads.FULL, tmp_path)
    dets, props = digest.tied(w)
    assert [(d.segment, d.label, d.video_id) for d in dets] == [(d.segment, d.label, d.video_id) for d in w.dets]
    for label in {d.label for d in dets}:  # so each class's ranking holds ties that the lexsort orders by start
        scores = np.sort([d.score for d in dets if d.label == label])
        assert (scores[1:] == scores[:-1]).sum() > len(scores) // 2
    for vid, ps in props.items():  # and so does each video's proposal ranking
        objectness = np.sort([p.objectness for p in ps])
        assert len(ps) == len(w.proposals[vid]) and (objectness[1:] == objectness[:-1]).sum() > len(ps) // 2
