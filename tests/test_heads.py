import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfpdet import anchorkit as ak, heads, numcore as nc, pyramid as pyr
from tfpdet.datakit import Buffer
from tfpdet.errors import ConfigError, ContractError, _shown

from oracles import (acn_forward_ref, check_gradients, finalize_detections_ref, nms_blocked_ref, nms_ref,
                     roi_cell_selection_ref, roi_pool_ref, tiou_ref)


NOT_REALS = [True, np.float32(0.5), "0.5"]  # a bool, a float JSON cannot write, a string


@pytest.mark.parametrize("field,value", [
    ("pos_tiou", 1.5), ("pos_tiou", -0.1), ("neg_tiou", -0.1), ("neg_tiou", 0.8), ("pos_tiou", float("nan")),
    ("nms_tiou", 0.0), ("nms_tiou", 1.01), ("nms_tiou", float("nan")),
    *((field, v) for field in ("pos_tiou", "neg_tiou", "nms_tiou") for v in NOT_REALS),
])
def test_apn_config_rejects_thresholds_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        heads.ApnConfig(scales=((1,),), **{field: value})


@pytest.mark.parametrize("scales", [((1.0, 2),), ((0,),), ((1,), (True,)), 5, None, "12", {1: (2,)}, (5,), ((1,), 2),
                                    ((1,), None), [[1], "2"], (), ((),)])
def test_apn_config_rejects_scales_that_are_not_positive_ints(scales):
    # a checkpoint decodes scales as JSON integers, so only those may be
    # saved, in tuples or lists; a number or None, at either depth, raised a
    # bare TypeError
    with pytest.raises(ConfigError, match="scales"):
        heads.ApnConfig(scales=scales)


@pytest.mark.parametrize("field,value", [
    ("fg_tiou", 1.2), ("fg_tiou", -0.5), ("score_thresh", 1.5), ("score_thresh", -0.01),
    ("score_thresh", float("nan")), ("nms_tiou", 0.0), ("nms_tiou", 2.0),
    *((field, v) for field in ("fg_tiou", "score_thresh", "nms_tiou") for v in NOT_REALS),
])
def test_acn_config_rejects_thresholds_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        heads.AcnConfig(num_classes=1, **{field: value})


@pytest.mark.parametrize("value", [float("nan"), 2.5, 768.0, True])
@pytest.mark.parametrize("field", ["top_k", "num_classes", "roi_bins", "fc_dim"])
def test_configs_reject_counts_that_are_not_ints(field, value):
    # ApnConfig(top_k=nan) constructed, and proposals were then not cut at all
    with pytest.raises(ConfigError, match=field):
        if field == "top_k":
            heads.ApnConfig(scales=((1,),), top_k=value)
        else:
            heads.AcnConfig(**{"num_classes": 1, field: value})


@pytest.mark.parametrize("value", [0, 1, "no", 10 ** 5000, (10 ** 5000,)],
                         ids=["0", "1", "no", "huge int", "tuple of a huge int"])
def test_acn_config_use_context_must_be_a_bool(value):
    # "no" turned context on, and 0 and 1 saved checkpoints that did not load;
    # an int of over 4,300 digits raised a bare ValueError in the message
    with pytest.raises(ConfigError, match="use_context"):
        heads.AcnConfig(num_classes=1, use_context=value)


@pytest.mark.parametrize("value", ["s4", None, 10 ** 5000, [10 ** 5000]], ids=_shown)
def test_acn_config_rejects_an_unknown_strategy(value):
    # an int of over 4,300 digits, alone or in a list, raised a bare
    # ValueError while the message was written
    with pytest.raises(ConfigError, match="strategy must be one of"):
        heads.AcnConfig(num_classes=1, strategy=value)


def test_configs_accept_threshold_bounds():
    heads.ApnConfig(scales=((1,),), pos_tiou=1.0, neg_tiou=1.0, nms_tiou=1.0)
    heads.ApnConfig(scales=((1,),), pos_tiou=0.0, neg_tiou=0.0, nms_tiou=1e-9)
    heads.AcnConfig(num_classes=1, fg_tiou=0.0, score_thresh=1.0, nms_tiou=1.0)
    heads.AcnConfig(num_classes=1, fg_tiou=1.0, score_thresh=0.0, nms_tiou=1e-9)


def small_setup(hidden=8, buffer_len=768, variant="conv", seed=0):
    ecfg = pyr.EncoderConfig(input_dim=4, hidden_dim=hidden)
    pcfg = pyr.PyramidConfig(variant=variant)
    apn_cfg = heads.ApnConfig(scales=ak.DEFAULT_SCALES)
    rng = np.random.default_rng(seed)
    params = nc.create_params(pyr.encoder_param_specs(ecfg), rng)
    params.update(nc.create_params(pyr.pyramid_param_specs(pcfg, hidden), rng))
    params.update(nc.create_params(heads.apn_param_specs(hidden, apn_cfg), rng))
    return ecfg, pcfg, apn_cfg, params


def forward_pyramid(ecfg, pcfg, params, buffer_len=768, seed=1):
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.standard_normal((ecfg.input_dim, buffer_len)))
    return pyr.build_pyramid(pyr.encode(x, ecfg, params), pcfg, params)


# ---------------------------------------------------------------------------
# proposal network


def test_apn_output_shapes():
    ecfg, pcfg, apn_cfg, params = small_setup()
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params), params)
    assert out[0][0].shape == (14, 96)
    assert out[0][1].shape == (14, 96)
    assert out[2][0].shape == (22, 24)


def test_apn_zero_cls_weights_give_uniform_objectness():
    ecfg, pcfg, apn_cfg, params = small_setup()
    for k in range(3):
        params[f"apn.level{k}.cls.w"].data[:] = 0.0
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params), params)
    grid = ak.build_anchor_grid(768, pcfg.strides, apn_cfg.scales)
    props = heads.generate_proposals(out, grid, replace(apn_cfg, top_k=10))
    assert len(props) == 10
    assert np.all(np.abs(props.objectness - 0.5) <= 1e-12)


def test_apn_gradcheck_through_sibling_heads():
    hidden = 3
    apn_cfg = heads.ApnConfig(scales=((1, 2),))
    rng = np.random.default_rng(2)
    params = nc.create_params(heads.apn_param_specs(hidden, apn_cfg), rng)
    feat = rng.standard_normal((hidden, 6))
    arrays = [feat] + [p.data for p in params.values()]

    def build():
        ft = nc.Tensor(feat, requires_grad=True)
        pf = pyr.PyramidFeatures(levels=[ft], strides=(8,))
        (cls, reg), = heads.apn_forward(pf, params)
        labels = np.arange(cls.shape[1]) % cls.shape[0]
        loss = nc.add(
            nc.softmax_cross_entropy(nc.reshape(cls, (cls.shape[1], cls.shape[0])), labels),
            nc.smooth_l1(reg, nc.Tensor(np.full(reg.shape, 0.3))),
        )
        return loss, [ft] + list(params.values())

    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# NMS / proposal generation


def _props_from(segments, scores, thresh=0.7, top_k=None):
    return heads.nms_indices(ak.segment_pairs(segments), np.asarray(scores, dtype=float), thresh, top_k)


def test_nms_duplicate_suppression():
    s = [ak.Segment(0, 10), ak.Segment(0, 10)]
    assert _props_from(s, [0.9, 0.8]) == [0]


def test_nms_three_survivors_below_threshold():
    s = [ak.Segment(0, 10), ak.Segment(5, 15), ak.Segment(20, 30)]
    assert tiou_ref(s[0], s[1]) == pytest.approx(1 / 3)
    assert _props_from(s, [0.9, 0.8, 0.7], thresh=0.7) == [0, 1, 2]


def test_nms_matches_oracle_on_random_sets():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        segs = []
        for _ in range(n):
            s = rng.uniform(0, 200)
            segs.append(ak.Segment(s, s + rng.uniform(1, 60)))
        scores = rng.uniform(0, 1, n)
        thresh = rng.uniform(0.2, 0.9)
        assert _props_from(segs, scores, thresh) == nms_ref(segs, scores, thresh)
    # several blocks (1272 is the proposal network's candidate count), tied
    # scores on integer-grid segments with duplicates, and the extreme thresholds
    for n, thresh, top_k in ((1272, 0.7, 100), (1272, 0.7, 1), (1300, 0.4, None), (700, 1.0, None),
                             (700, 1.0, 100), (300, 0.4, None), (129, 0.6, None)):
        starts = rng.integers(0, 200, n)
        segs = [ak.Segment(float(s), float(s + d)) for s, d in zip(starts, rng.integers(1, 40, n))]
        scores = rng.integers(0, 4, n) / 3
        assert _props_from(segs, scores, thresh, top_k) == nms_ref(segs, scores, thresh, top_k)
    starts = rng.uniform(-100, 768, 1272)
    segs = [ak.Segment(s, s + d) for s, d in zip(starts, rng.uniform(1, 500, 1272))]
    scores = rng.uniform(0, 1, 1272)
    for thresh, top_k in ((0.7, 100), (0.7, None), (1.0, None), (1e-9, 1)):
        assert _props_from(segs, scores, thresh, top_k) == nms_ref(segs, scores, thresh, top_k)


NMS_THRESHOLDS = (1e-9, 0.4, 0.7, 1.0)
_INF = float("inf")
# rows nms_indices refuses: NaN or infinite ends, lengths <= 0 and a length past the float range
WILD_ROWS = [(float("nan"), 4.0), (3.0, float("nan")), (-_INF, 2.0), (1.0, _INF), (-_INF, _INF), (_INF, _INF),
             (7.0, 7.0), (9.0, 6.0), (-1e308, 1e308)]
BAD_THRESHOLDS = (0.0, -0.0, -1.0, float(np.nextafter(1.0, 2.0)), 1.5, _INF, -_INF, float("nan"))


@st.composite
def nms_rows(draw):
    """(starts, ends, scores): rows that ``nms_indices`` takes (finite ends,
    positive length), with grid and real-valued ends, lengths down to near
    zero, duplicated rows and tied scores."""
    start = st.one_of(st.integers(-5, 40).map(float), st.floats(-5, 40))
    length = st.one_of(st.integers(1, 20).map(float), st.floats(0, 30, exclude_min=True))
    rows = draw(st.lists(st.tuples(start, length), max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
    rows = [(s, s + d) for s, d in rows if s + d > s]  # a length below half an ulp of the start rounds away
    score = st.one_of(st.integers(0, 3).map(lambda k: k / 3), st.floats(0, 1))
    scores = draw(st.lists(score, min_size=len(rows), max_size=len(rows)))
    return (*np.array(rows, dtype=np.float64).reshape(-1, 2).T, np.array(scores, dtype=np.float64))


@given(nms_rows(), st.floats(0, 1, exclude_min=True), st.sampled_from([None, 1, 3, 100]),
       st.sampled_from([1, 5, heads.NMS_CHUNK]))
@settings(max_examples=300, deadline=None)
def test_nms_equals_the_blocked_scan_on_any_rows(rows, drawn_thresh, top_k, chunk):
    # chunks of 1 and 5 pairs split the sweep's pairs and a row's partners
    starts, ends, scores = rows
    segs = [ak.Segment(s, e) for s, e in zip(starts, ends)]
    for thresh in NMS_THRESHOLDS + (drawn_thresh,):
        with warnings.catch_warnings(), patch.object(heads, "NMS_CHUNK", chunk):
            warnings.simplefilter("error")
            got = heads.nms_indices(np.stack([starts, ends], axis=1), scores, thresh, top_k)
        assert got == nms_blocked_ref(starts, ends, scores, thresh, top_k)
        assert got == nms_ref(segs, scores, thresh, top_k)


@given(nms_rows(), st.sampled_from(WILD_ROWS), st.integers(0, 48), st.sampled_from(NMS_THRESHOLDS + BAD_THRESHOLDS),
       st.sampled_from(BAD_THRESHOLDS), st.sampled_from([None, 1, 100]))
@settings(max_examples=200, deadline=None)
def test_nms_rejects_wild_rows_and_thresholds_outside_zero_to_one(rows, wild, at, thresh, bad_thresh, top_k):
    # a row set holding a wild row, at any threshold, and tame rows at a threshold
    # <= 0, > 1 or NaN, raise ContractError without a warning
    starts, ends, scores = rows
    tame = np.stack([starts, ends], axis=1)
    at = min(at, len(tame))
    with_wild = np.insert(tame, at, wild, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="0 < end - start < inf" if thresh in NMS_THRESHOLDS else "thresh"):
            heads.nms_indices(with_wild, np.insert(scores, at, 0.5), thresh, top_k)
        with pytest.raises(ContractError, match="nms thresh"):
            heads.nms_indices(tame, scores, bad_thresh, top_k)


def _ordered(x: float) -> int:
    """An int that orders float64 values as they compare (both zeros at 0)."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _unordered(i: int) -> float:
    return float(np.int64(i if i >= 0 else -i | -0x8000_0000_0000_0000).view(np.float64))


def _last_hit_start(p, end, thresh):
    """The largest start in [p's start, p's end] of a row ending at ``end``
    whose computed tIoU with row ``p`` still reaches ``thresh``, found by
    bisection over the floats; p's start if none does."""
    def hit(i):
        return not ak.tiou(p, [_unordered(i), end]) < thresh
    lo, hi = _ordered(p[0]), _ordered(p[1])
    if not hit(lo):
        return p[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if hit(mid) else (lo, mid)
    return _unordered(lo)


@pytest.mark.parametrize("thresh", [1e-9, 0.4, 0.7, 1.0])
def test_nms_partner_bound_keeps_every_pair_at_the_threshold(thresh):
    # the sweep pairs a row only with later-starting rows that can reach the
    # threshold; rows starting at the last start that reaches it, and one and
    # two floats either side, must be suppressed exactly as the full scan does
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in (0.0, 1 / 3, 640.5, 65536.0, 123456.789, 999_999.875):
            for length in (1e-6, 3e-6, 1e-3, 1.0, 97.3, 4096.0):
                p = (base, base + length)
                for end in (p[1], np.nextafter(p[1], -np.inf), p[1] + length / 2, p[1] - length / 4):
                    last = _last_hit_start(p, end, thresh)
                    for start in (np.nextafter(np.nextafter(last, -np.inf), -np.inf), np.nextafter(last, -np.inf), last,
                                  np.nextafter(last, np.inf), np.nextafter(np.nextafter(last, np.inf), np.inf)):
                        for mirror in (1.0, -1.0):  # -1: the rows flipped, so they share an end or a start
                            rows = np.sort(mirror * np.array([p, (start, end)]), axis=1)
                            if rows[1, 0] == rows[1, 1]:  # a start at the end: an empty row, which NMS refuses
                                continue
                            for scores in (np.array([0.9, 0.1]), np.array([0.1, 0.9])):
                                got = heads.nms_indices(rows, scores, thresh)
                                assert got == nms_blocked_ref(rows[:, 0], rows[:, 1], scores, thresh)
                                outcomes.add(len(got))
    assert outcomes == {1, 2}  # the battery holds hits and misses


def test_nms_computes_tiou_only_for_rows_that_can_suppress(monkeypatch):
    # 50,000 disjoint unit segments: a dense scan computes ~10^9 overlaps, the sweep none
    n, computed = 50_000, []
    tiou = heads.tiou

    def counting_tiou(a, b):
        out = tiou(a, b)
        computed.append(out.size)
        return out

    monkeypatch.setattr(heads, "tiou", counting_tiou)
    starts = np.arange(n, dtype=np.float64)
    scores = np.random.default_rng(3).uniform(0.1, 1.0, n)
    kept = heads.nms_indices(np.stack([starts, starts + 1.0], axis=1), scores, 0.4)
    assert kept == np.argsort(-scores, kind="stable").tolist()
    assert sum(computed) == 0


def test_nms_sweep_memory_does_not_grow_with_the_overlapping_pairs():
    # a staircase of 20,000 rows [i, i + 50) has ~980k overlapping pairs and none at tIoU 0.99
    n = 20_000
    starts = np.arange(n, dtype=np.float64)
    ends = starts + 50.0
    scores = np.random.default_rng(5).uniform(0.0, 1.0, n)
    tracemalloc.start()
    try:
        kept = heads.nms_indices(np.stack([starts, ends], axis=1), scores, 0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == np.argsort(-scores, kind="stable").tolist()
    assert peak < 4e6  # 1.7-1.8 MB measured; building every pair at once peaked at 96 MB


@pytest.mark.parametrize("thresh", [1e-9, 0.4, 0.7, 1.0])
@pytest.mark.parametrize("top_k", [None, 10])
def test_nms_rejects_a_nan_segment(thresh, top_k):
    # a NaN row used to suppress every row ranked below it
    segments = np.array([[0.0, 10.0], [50.0, 60.0], [np.nan, 5.0], [100.0, 110.0], [3.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (segments, segments[[0, 1, 3, 4]]):
            with pytest.raises(ContractError, match="0 < end - start < inf"):
                heads.nms_indices(rows, np.linspace(0.9, 0.5, len(rows)), thresh, top_k)


HALF_RANGE = np.finfo(np.float64).max / 2


@pytest.mark.parametrize("top_k", [None, 10])
@pytest.mark.parametrize("wild", [
    [(-1e308, 0.5), (0.0, 1e308)],
    [(-1.7e308, -1.6e308), (1.6e308, 1.7e308)],
    [(0.0, np.nextafter(HALF_RANGE, np.inf))],
    [(np.nextafter(-HALF_RANGE, -np.inf), -1.0)],
], ids=["lengths that sum past the range", "ends whose gap passes the range", "a length past half", "an end past half"])
def test_nms_rejects_rows_whose_tiou_would_overflow(wild, top_k):
    # every row is finite, but tIoU's union would overflow on the first set
    # and its intersection on the second
    segments = np.array([(5.0, 10.0)] + wild)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="half the float range"):
            heads.nms_indices(segments, np.linspace(0.9, 0.5, len(segments)), 0.5, top_k)


@pytest.mark.parametrize("top_k", [None, 10])
def test_nms_takes_rows_of_exactly_half_the_float_range(top_k):
    segments = np.array([(0.0, HALF_RANGE), (-HALF_RANGE, 0.0), (HALF_RANGE / 2, HALF_RANGE), (-1.0, 1.0)])
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the third row's tIoU with the first is exactly 0.5
        assert heads.nms_indices(segments, scores, 0.5, top_k) == [0, 1, 3]
        assert heads.nms_indices(segments, scores, 0.6, top_k) == [0, 1, 2, 3]
        assert heads.nms_indices(segments, scores, 0.5, top_k) == nms_ref([ak.Segment(*r) for r in segments], scores, 0.5, top_k)


# rows on both sides of HALF_RANGE, and ints that float64 rounds together
EDGE_ROWS = [(-1e308, 0.5), (0.0, 1e308), (-1.7e308, -1.6e308), (1.6e308, 1.7e308),
             (0.0, float(np.nextafter(HALF_RANGE, np.inf))), (float(np.nextafter(-HALF_RANGE, -np.inf)), -1.0),
             (-HALF_RANGE, HALF_RANGE / 2), (0.0, HALF_RANGE), (-HALF_RANGE, 0.0), (HALF_RANGE / 2, HALF_RANGE),
             (-1.0, 1.0), (5.0, 10.0)]
INT_ROWS = [(2 ** 62, 2 ** 62 + 1), (2 ** 62, 2 ** 62 + 1024), (-2 ** 63, 2 ** 63 - 1), (0, 1), (-3, -2)]


def bound_rows(kind):
    """WILD_ROWS, EDGE_ROWS and INT_ROWS with bounds of one kind: every row as Python floats or
    float32 (inf past its range), and the rows of finite integers below 2**63 as Python ints or int64."""
    rows = WILD_ROWS + EDGE_ROWS + [tuple(map(float, r)) for r in INT_ROWS]
    if kind in (float, np.float32):
        with np.errstate(over="ignore"):
            return [tuple(kind(x) for x in r) for r in rows]
    rows = INT_ROWS + [r for r in rows if all(np.isfinite(x) and x == int(x) and abs(x) < 2 ** 63 for x in r)]
    return [tuple(kind(int(x)) for x in r) for r in rows]


@pytest.mark.parametrize("kind", [float, np.float32, int, np.int64])
def test_segment_raises_exactly_when_nms_rejects_the_row(kind):
    # one row rule in two forms: a Segment's scalar bounds and nms_indices' float64 rows
    taken = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # comparing a float32 with HALF_RANGE warns of an overflowing cast
        for row in bound_rows(kind):
            try:
                heads.nms_indices(np.array([row], dtype=np.float64), np.array([0.5]), 0.5)
            except ContractError:
                with pytest.raises(ContractError, match="segment needs"):
                    ak.Segment(*row)
                taken.append(False)
            else:
                assert ak.Segment(*row) == ak.Segment(*row)
                taken.append(True)
    assert any(taken) and not all(taken)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf"), "0.5", True, None])
def test_detections_and_proposals_hold_only_finite_scores(score):
    # NaN scores reached evalkit's ranking, and a str score was parsed by np.array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="detection score"):
            heads.Detection(ak.Segment(0, 10), 1, score, "v")
        with pytest.raises(ContractError, match="proposal objectness"):
            heads.Proposal(ak.Segment(0, 10), score, 0)


@pytest.mark.parametrize("rows,scores", [
    ([[0.0, 10.0], [50.0, 60.0], [100.0, 110.0]], 2),
    ([[0.0, 10.0], [50.0, 60.0]], 3),
    ([[0.0, 10.0, 1.0], [50.0, 60.0, 1.0], [100.0, 110.0, 1.0]], 3),
], ids=["a row past the scores", "a score past the rows", "three columns"])
@pytest.mark.parametrize("top_k", [None, 10])
def test_nms_needs_one_start_end_row_per_score(rows, scores, top_k):
    # 3 rows and 2 scores used to drop the third row, and 2 rows and 3 scores
    # raised a bare IndexError
    rows = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"one \[start, end\] row per score"):
            heads.nms_indices(rows, np.linspace(0.9, 0.5, scores), 0.4, top_k)
    assert heads.nms_indices(rows[:, :2], np.linspace(0.9, 0.5, len(rows)), 0.4, top_k) == list(range(len(rows)))


@pytest.mark.parametrize("top_k", [0, -1, True, 2.0, np.int64(3), "3"])
def test_nms_top_k_is_none_or_an_int_of_at_least_one(top_k):
    # top_k=0, a negative top_k and True used to keep one row
    segments = np.array([[0.0, 10.0], [20.0, 30.0]])
    with pytest.raises(ContractError, match="top_k"):
        heads.nms_indices(segments, np.array([0.5, 0.4]), 0.4, top_k)
    assert heads.nms_indices(segments, np.array([0.5, 0.4]), 0.4, 1) == [0]


@pytest.mark.parametrize("thresh", [*BAD_THRESHOLDS, np.float32(0.4), True, "0.4", None])
@pytest.mark.parametrize("top_k", [None, 10])
def test_nms_rejects_a_threshold_outside_zero_to_one(thresh, top_k):
    # a threshold not above 0 (NaN included) used to keep only the top row
    segments = np.array([[0.0, 10.0], [100.0, 110.0], [200.0, 210.0], [300.0, 310.0]])
    for rows in (segments, segments[:0]):
        with pytest.raises(ContractError, match="nms thresh must lie in \\(0, 1\\]"):
            heads.nms_indices(rows, np.linspace(0.9, 0.5, len(rows)), thresh, top_k)


def test_generate_proposals_sorted_and_separated():
    ecfg, pcfg, apn_cfg, params = small_setup(seed=5)
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params, seed=6), params)
    grid = ak.build_anchor_grid(768, pcfg.strides, apn_cfg.scales)
    props = heads.generate_proposals(out, grid, apn_cfg)
    assert (apn_cfg.nms_tiou, apn_cfg.top_k) == (0.7, 100)
    assert 0 < len(props) <= 100
    assert props.segments.shape == (len(props), 2) and props.levels.shape == (len(props),)
    assert np.all(np.diff(props.objectness) <= 0.0)
    s, e = props.segments.T
    assert np.all((0.0 <= s) & (s < e) & (e <= 768.0) & (e - s >= 1.0))
    assert np.all(ak.tiou(props.segments[:, None], props.segments)[np.triu_indices(len(props), 1)] < 0.7)


@pytest.mark.parametrize("strides,scales", [(pyr.PyramidConfig().strides, ak.DEFAULT_SCALES), ((8,), ak.SINGLE_SCALE_SCALES)])
def test_anchor_map_indices_equal_a_per_anchor_loop(strides, scales):
    grid = ak.build_anchor_grid(768, strides, scales)
    for k, (s_k, level_scales) in enumerate(zip(strides, scales)):
        a, t = len(level_scales), 768 // s_k
        want = [[2 * j * t + p, (2 * j + 1) * t + p] for p in range(t) for j in range(a)]  # the block's order
        got = heads.anchor_map_indices(grid, k, (2 * a, t), grid.level_indices(k))
        assert got.tolist() == want
        sub = np.random.default_rng(k).permutation(grid.level_indices(k))[:50]  # any subset, in any order
        assert heads.anchor_map_indices(grid, k, (2 * a, t), sub).tolist() == [
            want[i - grid.level_offsets[k]] for i in sub.tolist()]


@pytest.mark.parametrize("buffer_len,scales", [
    (384, ak.DEFAULT_SCALES),
    (1536, ak.DEFAULT_SCALES),
    (768, ((1, 2), (3, 4), (5, 6))),
    (768, ak.DEFAULT_SCALES[:2]),
    (768, ak.DEFAULT_SCALES + ((8, 12),)),
    (768, ak.DEFAULT_SCALES[:2] + ((6, 7),)),  # only the last level differs
])
def test_generate_proposals_rejects_a_grid_of_other_maps(buffer_len, scales, monkeypatch):
    ecfg, pcfg, apn_cfg, params = small_setup()
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params), params)
    grid = ak.build_anchor_grid(buffer_len, (8, 16, 32, 64)[:len(scales)], scales)
    decoded = []
    monkeypatch.setattr(heads, "decode", lambda *args: decoded.append(args))
    with pytest.raises(ContractError, match="anchor grid"):
        heads.generate_proposals(out, grid, apn_cfg)
    assert decoded == []  # every level is checked before any is decoded


def generate_proposals_ref(apn_out, grid, cfg):
    """The proposal list built one object per kept row, as before proposals
    stayed arrays: per level, softmax objectness and decoded anchors, then
    NMS over all levels."""
    segments, scores, levels = [], [], []
    for k, (cls, reg) in enumerate(apn_out):
        c = cls.data
        m = np.maximum(c[0::2], c[1::2])
        obj = np.exp(c[1::2] - m) / (np.exp(c[0::2] - m) + np.exp(c[1::2] - m))
        idx = grid.level_indices(k)
        a, t = len(cfg.scales[k]), c.shape[1]
        assert len(idx) == a * t
        j, p = np.tile(np.arange(a), t), np.repeat(np.arange(t), a)  # the level block is position-major
        deltas = np.stack([reg.data[0::2][j, p], reg.data[1::2][j, p]], axis=-1)
        segs, keep = ak.decode(grid.segments[idx], deltas, (0.0, float(grid.buffer_len)))
        segments += segs[keep].tolist()
        scores += obj[j, p][keep].tolist()
        levels += [k] * int(keep.sum())
    if not scores:
        return []
    kept = heads.nms_indices(np.array(segments), np.array(scores), cfg.nms_tiou, cfg.top_k)
    return [heads.Proposal(ak.Segment(*segments[i]), scores[i], levels[i]) for i in kept]


@pytest.mark.parametrize("seed", [5, 7])
def test_generate_proposals_rows_equal_the_proposal_list(seed):
    ecfg, pcfg, apn_cfg, params = small_setup(seed=seed)
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params, seed=seed + 1), params)
    grid = ak.build_anchor_grid(768, pcfg.strides, apn_cfg.scales)
    for cfg in (apn_cfg, replace(apn_cfg, nms_tiou=0.4, top_k=30)):
        props = heads.generate_proposals(out, grid, cfg)
        want = generate_proposals_ref(out, grid, cfg)
        assert want and len(props) == len(want)
        assert list(zip(*props.segments.T.tolist(), props.objectness.tolist(), props.levels.tolist())) == [
            (p.segment.start, p.segment.end, p.objectness, p.source_level) for p in want]
    # every anchor decodes to less than one frame: no proposal at all
    degenerate = [(cls, nc.Tensor(np.where(np.arange(len(reg.data))[:, None] % 2, -50.0, reg.data)))
                  for cls, reg in out]
    props = heads.generate_proposals(degenerate, grid, apn_cfg)
    assert generate_proposals_ref(degenerate, grid, apn_cfg) == [] and len(props) == 0
    assert props.segments.shape == (0, 2) and props.objectness.shape == props.levels.shape == (0,)


# ---------------------------------------------------------------------------
# RoI pooling


def pool(feat, segments, stride, bins):
    return heads.roi_pool(feat, ak.segment_pairs(segments), stride, bins)


def test_roi_pool_aligned_identity():
    feat = np.arange(24, dtype=np.float64).reshape(2, 12)
    out = pool(nc.Tensor(feat), [ak.Segment(0.0, 32.0)], 8, 4)
    assert np.array_equal(out.data[0], feat[:, :4])


def test_roi_pool_single_cell_borrow():
    feat = np.arange(24, dtype=np.float64).reshape(2, 12)
    out = pool(nc.Tensor(feat), [ak.Segment(16.0, 24.0)], 8, 4)
    assert np.array_equal(out.data[0], np.repeat(feat[:, 2:3], 4, axis=1))


def test_roi_pool_matches_loop_oracle():
    # 1 to 8 bins; every other segment is shorter than a cell, so it covers
    # at most one cell center and most of its bins borrow
    rng = np.random.default_rng(12)
    for case in range(48):
        t, bins = int(rng.integers(4, 40)), case % 8 + 1
        feat = rng.standard_normal((3, t))
        stride = float(rng.choice([8, 16, 32]))
        segs = []
        while len(segs) < 10:
            s = rng.uniform(-20, stride * t - 1)
            seg = ak.Segment(s, s + (rng.uniform(0.01, 1.0) * stride if len(segs) % 2 else rng.uniform(1.5, stride * t)))
            if seg.end > 0 and seg.start < stride * t:
                segs.append(seg)
        got = pool(nc.Tensor(feat), segs, stride, bins)
        assert got.shape == (10, 3, bins)
        for row, seg in zip(got.data, segs):
            assert np.array_equal(row, roi_pool_ref(feat, seg, stride, bins))


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5])
def test_cell_selection_bytes_equal_oracle(n, bins, monkeypatch):
    # relu'd small integers tie often; lengths from a fraction of a cell
    # (borrowed bins) to past the whole map (clamped segments).  The cells
    # that roi_pool's backward scatters through must be exact in both dtypes
    cell_fns, gathered = [], nc.gathered

    def recording_gathered(x, values, flat_indices):
        cell_fns.append(flat_indices)
        return gathered(x, values, flat_indices)

    monkeypatch.setattr(nc, "gathered", recording_gathered)
    rng = np.random.default_rng(40 * n + bins)
    for _ in range(12):
        d, t = int(rng.integers(1, 9)), int(rng.integers(1, 100))
        feat = np.maximum(rng.integers(-2, 4, size=(d, t)), 0).astype(np.float64)
        stride = float(rng.choice([8, 16, 32]))
        starts = rng.uniform(-stride, stride * t - 1, size=n)
        ends = np.maximum(starts + rng.uniform(0.1, 1.5, size=n) * rng.choice([stride, stride * t], size=n), 1.0)
        for f in (feat, feat.astype(np.float32)):
            heads.roi_pool(nc.Tensor(f, requires_grad=True), np.stack([starts, ends], axis=1), stride, bins)
            got = cell_fns.pop()()
            want = roi_cell_selection_ref(f, starts, ends, stride, bins)
            assert got.flags["C_CONTIGUOUS"] and got.dtype == want.dtype
            assert got.shape == want.shape == (n, d, bins) and np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5])
def test_roi_pool_bytes_equal_take_of_cell_selection(n, bins):
    # values come from the range-max table and indices only from the
    # backward; both must be those of a take through the oracle's cell
    # selection, in the input's dtype
    rng = np.random.default_rng(70 * n + bins)
    for _ in range(8):
        d, t = int(rng.integers(1, 9)), int(rng.integers(1, 100))
        feat = np.maximum(rng.integers(-2, 4, size=(d, t)), 0).astype(np.float64)  # relu'd, tied
        stride = float(rng.choice([8, 16, 32]))
        starts = rng.uniform(-stride, stride * t - 1, size=n)
        ends = np.maximum(starts + rng.uniform(0.1, 1.5, size=n) * rng.choice([stride, stride * t], size=n), 1.0)
        g = rng.standard_normal((n, d, bins)) * 10.0 ** rng.integers(-8, 8, size=(n, d, bins))
        for dtype in (np.float64, np.float32):
            outs = []
            for pool_fn in (lambda x: heads.roi_pool(x, np.stack([starts, ends], axis=1), stride, bins),
                            lambda x: nc.take(x, roi_cell_selection_ref(x.data, starts, ends, stride, bins))):
                x = nc.Tensor(feat.astype(dtype), requires_grad=True)
                y = pool_fn(x)
                y._backward(g.astype(dtype))
                outs.append((y.data, x.grad))
            for got, want in zip(*outs):
                assert got.dtype == want.dtype == dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_roi_pool_value_table_follows_the_index_selections_through_nan():
    # the value table takes the later window only where it is larger, so a
    # NaN never replaces the value of the cell the indices pick: each pooled
    # value is the cell its own backward routes a unit gradient to
    segments = np.array([[0.0, 32.0], [8.0, 64.0], [0.0, 64.0], [24.0, 56.0]])
    for dtype in (np.float64, np.float32):
        feat = np.array([[1.0, np.nan, 3.0, 0.0, 2.0, 5.0, np.nan, 4.0]], dtype=dtype)
        x = nc.Tensor(feat, requires_grad=True)
        out = heads.roi_pool(x, segments, 8.0, 1)
        assert out.data.dtype == dtype
        for i in range(out.data.size):
            x.grad = None
            out._backward(np.eye(1, out.data.size, i, dtype=dtype).reshape(out.shape))
            cell = np.flatnonzero(x.grad)
            assert len(cell) == 1 and out.data.flat[i].tobytes() == feat.flat[cell[0]].tobytes()


def test_roi_pool_outside_extent_raises():
    segs = [ak.Segment(0.0, 20.0), ak.Segment(200.0, 220.0), ak.Segment(8.0, 40.0)]
    with pytest.raises(ContractError, match="outside"):
        pool(nc.Tensor(np.zeros((2, 8))), segs, 8, 4)


@pytest.mark.parametrize("row", [(np.nan, 40.0), (8.0, np.nan), (np.nan, np.nan)])
def test_roi_pool_and_context_features_reject_a_nan_end(row):
    # a NaN end gave cast warnings and then a bare IndexError on index -2**63
    feat = nc.Tensor(np.zeros((4, 8)))
    params = {f"acn.level0.{name}.{p}": nc.Tensor(np.zeros(shape)) for name in ("roi_reduce", "ctx_reduce")
              for p, shape in (("w", (2, 4, 3)), ("b", (2,)))}
    segments = np.array([[0.0, 20.0], row, [8.0, 40.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="outside"):
            heads.roi_pool(feat, segments, 8, 4)
        with pytest.raises(ContractError, match="outside"):
            heads.context_features(feat, segments, 8, 4, params, 0)


def test_roi_pool_gradient_routes_to_selected_cells():
    feat = np.zeros((1, 8))
    feat[0] = [0, 5, 1, 7, 2, 0, 0, 0]
    x = nc.Tensor(feat, requires_grad=True)
    out = pool(x, [ak.Segment(0.0, 32.0)], 8, 2)  # cells 0..3, bins of 2
    nc.backward(nc.smooth_l1(out, nc.Tensor(np.zeros((1, 1, 2)))))
    assert np.nonzero(x.grad[0])[0].tolist() == [1, 3]


def test_roi_pool_ties_route_to_the_first_cell():
    x = nc.Tensor(np.ones((1, 8)), requires_grad=True)
    out = pool(x, [ak.Segment(0.0, 48.0)], 8, 2)  # cells 0..5, bins of 3
    nc.backward(nc.smooth_l1(out, nc.Tensor(np.zeros((1, 1, 2)))))
    assert np.nonzero(x.grad[0])[0].tolist() == [0, 3]


def test_roi_pool_empty_bin_halfway_borrows_the_earlier_cell():
    feat = np.array([[0.0, 10.0, 20.0, 30.0, 40.0, 0.0, 0.0, 0.0]])
    seg = ak.Segment(10.0, 30.0)  # covers cells 1..3; bins 1 and 3 are empty with mids on cell edges
    out = pool(nc.Tensor(feat), [seg], 8, 5)
    assert out.data[0].tolist() == [[10.0, 10.0, 20.0, 20.0, 30.0]]
    assert np.array_equal(out.data[0], roi_pool_ref(feat, seg, 8, 5))


def test_roi_pool_ignores_outside_features():
    rng = np.random.default_rng(9)
    feat = rng.standard_normal((4, 24))
    seg = [ak.Segment(40.0, 120.0)]  # cells 5..15 at stride 8
    base = pool(nc.Tensor(feat), seg, 8, 4).data.copy()
    tampered = feat.copy()
    tampered[:, :4] += 100.0
    tampered[:, 17:] -= 50.0
    assert np.array_equal(pool(nc.Tensor(tampered), seg, 8, 4).data, base)


# ---------------------------------------------------------------------------
# context fusion


def test_context_window_centered_doubling():
    assert heads.context_window(np.array([[100.0, 150.0]]), 768.0).tolist() == [[75.0, 175.0]]


def test_context_window_clipped_at_start():
    assert heads.context_window(np.array([[0.0, 50.0]]), 768.0).tolist() == [[0.0, 75.0]]


def test_context_features_channel_count():
    rng = np.random.default_rng(3)
    acn_cfg = heads.AcnConfig(num_classes=2, roi_bins=4, fc_dim=16)
    params = nc.create_params(heads.acn_param_specs(8, acn_cfg, 1), rng)
    feat = nc.Tensor(rng.standard_normal((8, 96)))
    out = heads.context_features(feat, np.array([[100.0, 200.0], [300.0, 340.0]]), 8, 4, params, 0)
    assert out.shape == (2, 8, 4)


# ---------------------------------------------------------------------------
# classification network


def acn_setup(strategy="s3", use_context=True, hidden=8, num_levels=3, seed=0):
    acn_cfg = heads.AcnConfig(num_classes=3, strategy=strategy, use_context=use_context, roi_bins=4, fc_dim=16)
    rng = np.random.default_rng(seed)
    params = nc.create_params(heads.acn_param_specs(hidden, acn_cfg, num_levels), rng)
    feat_rng = np.random.default_rng(seed + 1)
    levels = [nc.Tensor(feat_rng.standard_normal((hidden, 96 // 2 ** k)), requires_grad=True) for k in range(num_levels)]
    pf = pyr.PyramidFeatures(levels=levels, strides=(8, 16, 32)[:num_levels])
    return acn_cfg, params, pf


def make_proposals(n, rng=None, level=0):
    rng = rng or np.random.default_rng(0)
    props = []
    for _ in range(n):
        s = rng.uniform(0, 700)
        props.append(heads.Proposal(ak.Segment(s, s + rng.uniform(8, 60)), float(rng.uniform(0, 1)), level))
    return props


def as_arrays(props):
    """``heads.Proposals`` holding the rows of a ``Proposal`` list, in order."""
    return heads.Proposals(ak.segment_pairs([p.segment for p in props]).reshape(-1, 2),
                           np.array([p.objectness for p in props]), np.array([p.source_level for p in props], dtype=np.int64))


def test_acn_s3_fans_out_to_all_levels():
    acn_cfg, params, pf = acn_setup("s3")
    out = heads.acn_forward(pf, as_arrays(make_proposals(10)), acn_cfg, params)
    assert sum(len(idx) for idx, _, _ in out) == 30
    for idx, cls, reg in out:
        assert cls.shape == (10, 4)
        assert reg.shape == (10, 6)


def test_acn_s1_sends_everything_to_level_zero():
    acn_cfg, params, pf = acn_setup("s1")
    out = heads.acn_forward(pf, as_arrays(make_proposals(6)), acn_cfg, params)
    assert len(out[0][0]) == 6
    assert out[1][1] is None and out[2][1] is None


def test_acn_s2_follows_source_level():
    acn_cfg, params, pf = acn_setup("s2")
    rng = np.random.default_rng(4)
    props = make_proposals(3, rng, level=0) + make_proposals(2, rng, level=2)
    out = heads.acn_forward(pf, as_arrays(props), acn_cfg, params)
    assert [idx.tolist() for idx, _, _ in out] == [[0, 1, 2], [], [3, 4]]


def test_acn_s1_touches_only_level_zero_classifier():
    acn_cfg, params, pf = acn_setup("s1")
    out = heads.acn_forward(pf, as_arrays(make_proposals(5)), acn_cfg, params)
    idx, cls, reg = out[0]
    loss = nc.softmax_cross_entropy(cls, np.zeros(5, dtype=np.int64))
    nc.backward(loss)
    for name, p in params.items():
        grad_norm = float(np.abs(p.grad).max())
        if ".level0." in name and "reg" not in name:
            assert grad_norm > 0.0, name
        if ".level1." in name or ".level2." in name:
            assert grad_norm == 0.0, name


def test_acn_zero_cls_weights_uniform_posterior():
    acn_cfg, params, pf = acn_setup("s1")
    params["acn.level0.cls.w"].data[:] = 0.0
    out = heads.acn_forward(pf, as_arrays(make_proposals(4)), acn_cfg, params)
    logits = out[0][1].data
    post = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(post, 0.25, atol=1e-12)


def test_acn_without_context_same_classifier_shape():
    acn_cfg, params, pf = acn_setup("s1", use_context=False)
    out = heads.acn_forward(pf, as_arrays(make_proposals(4)), acn_cfg, params)
    assert out[0][1].shape == (4, 4)
    assert not any("reduce" in name for name in params)


def test_acn_gives_every_level_nothing_without_proposals():
    for strategy in ("s1", "s2", "s3"):
        acn_cfg, params, pf = acn_setup(strategy)
        props = as_arrays([])
        out = heads.acn_forward(pf, props, acn_cfg, params)
        assert [(len(idx), cls, reg) for idx, cls, reg in out] == [(0, None, None)] * 3
        assert len(heads.finalize_detections(out, props, acn_cfg, make_buffer())) == 0


# clipped at 0 and at the buffer end, sub-cell (borrowing bins, and no
# covered cell center at all), context clipped at both ends, plus random ones
EDGE_SEGMENTS = [(0.0, 40.0), (700.0, 768.0), (100.0, 103.0), (101.0, 103.0), (5.0, 760.0), (380.0, 395.0)]


def edge_proposals(rng):
    props = [heads.Proposal(ak.Segment(s, e), 0.5, i % 3) for i, (s, e) in enumerate(EDGE_SEGMENTS)]
    return props + make_proposals(10, rng, level=1)


def assign_ref(props, strategy, num_levels):
    """The per-proposal assignment rule: s1 sends each proposal to level 0,
    s2 to its source level, s3 to every level."""
    assignment = [[] for _ in range(num_levels)]
    for i, p in enumerate(props):
        for k in {"s1": [0], "s2": [p.source_level], "s3": range(num_levels)}[strategy]:
            assignment[k].append(i)
    return assignment


@pytest.mark.parametrize("strategy", heads.STRATEGIES)
def test_assign_proposals_equals_per_proposal_rule(strategy):
    cfg = heads.AcnConfig(num_classes=1, strategy=strategy)
    props = edge_proposals(np.random.default_rng(22))
    no_level_one = [p for p in props if p.source_level != 1]
    for case, num_levels in ((props, 3), (no_level_one, 3), (props[:1], 1), ([], 3)):
        got = heads.assign_proposals(as_arrays(case), cfg, num_levels)
        assert [a.tolist() for a in got] == assign_ref(case, strategy, num_levels)
        assert all(a.dtype == np.int64 for a in got)


@pytest.mark.parametrize("use_context", [True, False])
@pytest.mark.parametrize("strategy", ["s1", "s2", "s3"])
def test_acn_matches_per_proposal_oracle(strategy, use_context):
    acn_cfg, params, pf = acn_setup(strategy, use_context=use_context, seed=21)
    rng = np.random.default_rng(22)
    props = edge_proposals(rng)
    assignment = heads.assign_proposals(as_arrays(props), acn_cfg, 3)
    targets = [rng.standard_normal((len(idx), 6)) for idx in assignment]

    def run(forward, proposals, assignment):
        out = forward(pf, proposals, acn_cfg, params, assignment=assignment)
        loss = None
        for (idx, cls, reg), target in zip(out, targets):
            if cls is None:
                continue
            term = nc.add(nc.softmax_cross_entropy(cls, np.arange(len(idx)) % 4), nc.smooth_l1(reg, nc.Tensor(target)))
            loss = term if loss is None else nc.add(loss, term)
        leaves = list(pf.levels) + list(params.values())
        for t in leaves:
            t.grad = np.zeros_like(t.data)
        nc.backward(loss)
        return out, [t.grad.copy() for t in leaves]

    got, got_grads = run(heads.acn_forward, as_arrays(props), assignment)
    ref, ref_grads = run(partial(acn_forward_ref, buffer_len=768.0), props, [a.tolist() for a in assignment])
    for (idx, cls, reg), (ref_idx, ref_cls, ref_reg) in zip(got, ref):
        assert idx.tolist() == ref_idx
        if cls is None:
            assert ref_cls is None
            continue
        assert np.array_equal(cls.data, ref_cls.data) and np.array_equal(reg.data, ref_reg.data)
    for g, r in zip(got_grads, ref_grads):
        np.testing.assert_allclose(g, r, rtol=1e-12)


def test_acn_gradcheck_full_path():
    acn_cfg, params, pf = acn_setup("s3", hidden=4, seed=11)
    rng = np.random.default_rng(12)
    # probe at generic O(1) parameter values: the production init is so
    # small that stacked layers push gradients below FD resolution
    for p in params.values():
        p.data = rng.standard_normal(p.data.shape) * 0.4
    props = as_arrays(make_proposals(3, rng))
    labels = np.array([0, 1, 2])
    arrays = [l.data for l in pf.levels] + [p.data for p in params.values()]

    def build():
        out = heads.acn_forward(pf, props, acn_cfg, params)
        loss = None
        for idx, cls, reg in out:
            if cls is None:
                continue
            term = nc.add(nc.softmax_cross_entropy(cls, labels),
                          nc.smooth_l1(reg, nc.Tensor(np.full(reg.shape, 0.2))))
            loss = term if loss is None else nc.add(loss, term)
        return loss, list(pf.levels) + list(params.values())

    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# finalize


def make_buffer(video_id="v", offset=0, num_valid=768):
    return Buffer(video_id, offset, np.zeros((2, 768)), np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_valid)


def acn_out_single(logits, regs, idx=(0,), level_count=1):
    out = [(np.array(idx), nc.Tensor(np.asarray(logits)), nc.Tensor(np.asarray(regs)))]
    out += [(np.array([], dtype=np.int64), None, None)] * (level_count - 1)
    return out


def as_objects(dets, video_id):
    """The ``Detection`` objects of a ``heads.Detections``, in order."""
    rows = zip(dets.segments.tolist(), dets.labels.tolist(), dets.scores.tolist())
    return [heads.Detection(ak.Segment(s, e), c, score, video_id) for (s, e), c, score in rows]


def detections(rows):
    """``heads.Detections`` of (start, end, label, score) rows, in order."""
    s, e, labels, scores = (np.array(col) for col in zip(*rows))
    return heads.Detections(np.stack([s, e], axis=1).astype(np.float64), labels.astype(np.int64), scores.astype(np.float64))


EXTREME = (np.nan, np.inf, -np.inf, 1e308, -1e308, 800.0, -800.0, 0.0)


def assert_tame(segments, lo, hi):
    """Each [n, 2] row is finite, inside [lo, hi] and at least one frame long."""
    s, e = segments.T
    assert np.isfinite(segments).all() and np.all((lo <= s) & (e <= hi) & (e - s >= 1.0))


def with_extremes(values, rng, dtype, fraction=0.3):
    """``values`` in ``dtype``, about ``fraction`` of its entries replaced by extreme ones."""
    out = values.astype(dtype)
    hit = rng.random(out.shape) < fraction
    with np.errstate(over="ignore"):  # 1e308 is inf in float32
        out[hit] = rng.choice(EXTREME, int(hit.sum()))
    return nc.Tensor(out)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_extreme_head_outputs_give_only_tame_rows(dtype, monkeypatch):
    # NaN, infinite and overflowing logits and regression deltas: no wild row
    # reaches nms_indices, the proposals or the detection candidates
    handed, nms = [], heads.nms_indices

    def recording_nms(segments, *args):
        handed.append(segments)
        return nms(segments, *args)

    monkeypatch.setattr(heads, "nms_indices", recording_nms)
    rng = np.random.default_rng(29)
    ecfg, pcfg, apn_cfg, params = small_setup(seed=5)
    grid = ak.build_anchor_grid(768, pcfg.strides, apn_cfg.scales)
    apn_out = [(with_extremes(cls.data, rng, dtype), with_extremes(reg.data, rng, dtype))
               for cls, reg in heads.apn_forward(forward_pyramid(ecfg, pcfg, params, seed=6), params)]
    cfg = heads.AcnConfig(num_classes=3, score_thresh=0.0)
    with np.errstate(all="ignore"):  # inf - inf, exp overflow
        props = heads.generate_proposals(apn_out, grid, apn_cfg)
        n = len(props)
        acn_out = [(np.arange(n), with_extremes(rng.standard_normal((n, 4)), rng, dtype),
                    with_extremes(rng.standard_normal((n, 6)), rng, dtype))]
        cands = heads.finalize_detections(acn_out, props, cfg, make_buffer(offset=1000, num_valid=500))
        heads.nms_detections(cands, cfg.nms_tiou)
    assert n > 0 and len(cands) > 0 and len(handed) > 1
    assert_tame(props.segments, 0.0, 768.0)
    assert_tame(handed[0], 0.0, 768.0)
    assert_tame(cands.segments, 1000.0, 1500.0)
    for segments in handed[1:]:
        assert_tame(segments, 1000.0, 1500.0)


@pytest.mark.parametrize("segment,label", [
    (ak.Segment(0, 1), "a"), (ak.Segment(0, 1), True), (ak.Segment(0, 1), np.True_), (ak.Segment(0, 1), 1.0),
    (ak.Segment(0, 1), 0), ((0, 1), 1), (None, 1),
])
def test_detection_rejects_what_it_cannot_hold(segment, label):
    # a str label raised a bare TypeError; a bool label and a tuple segment constructed
    with pytest.raises(ContractError, match="a detection needs"):
        heads.Detection(segment, label, 0.5, "v")


@pytest.mark.parametrize("video_id", [7, None, b"v", 1.5])
def test_detection_needs_a_str_video_id(video_id):
    # an int video id constructed, and evaluate_detections then raised a bare TypeError
    with pytest.raises(ContractError, match="a detection needs"):
        heads.Detection(ak.Segment(0, 10), 1, 0.9, video_id)
    assert heads.Detection(ak.Segment(0, 10), 1, 0.9, np.str_("v")).video_id == "v"


def test_detection_accepts_numpy_integer_labels():
    assert heads.Detection(ak.Segment(0, 1), np.int64(2), 0.5, "v").label == 2


def test_finalize_confident_background_yields_nothing():
    cfg = heads.AcnConfig(num_classes=3, strategy="s1")
    props = as_arrays([heads.Proposal(ak.Segment(100, 200), 0.9, 0)])
    logits = [[20.0, -20.0, -20.0, -20.0]]
    regs = [[0.0] * 6]
    dets = heads.finalize_detections(acn_out_single(logits, regs), props, cfg, make_buffer())
    assert len(dets) == 0


def test_finalize_two_classes_same_segment_both_survive():
    cfg = heads.AcnConfig(num_classes=2, strategy="s1")
    props = as_arrays([heads.Proposal(ak.Segment(100, 200), 0.9, 0), heads.Proposal(ak.Segment(100, 200), 0.8, 0)])
    logits = [[-5.0, 5.0, -5.0], [-5.0, -5.0, 5.0]]
    regs = [[0.0] * 4, [0.0] * 4]
    cands = heads.finalize_detections(acn_out_single(logits, regs, idx=(0, 1)), props, cfg, make_buffer())
    dets = heads.nms_detections(cands, cfg.nms_tiou)
    assert sorted(dets.labels.tolist()) == [1, 2]


def test_finalize_s3_duplicates_collapse_to_one():
    cfg = heads.AcnConfig(num_classes=1, strategy="s3")
    props = as_arrays([heads.Proposal(ak.Segment(100, 200), 0.9, 0)])
    out = []
    for score_logit in (3.0, 2.0, 1.0):  # same segment from 3 levels, descending confidence
        out.append((np.array([0]), nc.Tensor([[-score_logit, score_logit]]), nc.Tensor([[0.0, 0.0]])))
    dets = heads.nms_detections(heads.finalize_detections(out, props, cfg, make_buffer()), cfg.nms_tiou)
    assert len(dets) == 1
    assert dets.scores[0] == pytest.approx(1 / (1 + np.exp(-6.0)))


def test_finalize_score_threshold_prunes():
    cfg = heads.AcnConfig(num_classes=1, strategy="s1")
    props = as_arrays([heads.Proposal(ak.Segment(100, 200), 0.9, 0)])
    out = acn_out_single([[0.0, 0.0]], [[0.0, 0.0]])  # posterior 0.5
    assert len(heads.finalize_detections(out, props, cfg, make_buffer())) == 1
    assert len(heads.finalize_detections(out, props, replace(cfg, score_thresh=0.6), make_buffer())) == 0


def test_finalize_maps_to_video_coordinates_and_clips_padding():
    cfg = heads.AcnConfig(num_classes=1, strategy="s1")
    props = as_arrays([heads.Proposal(ak.Segment(700.0, 760.0), 0.9, 0)])
    buf = make_buffer(offset=768, num_valid=732)
    dets = heads.finalize_detections(acn_out_single([[-5.0, 5.0]], [[0.0, 0.0]]), props, cfg, buf)
    assert len(dets) == 1
    start, end = dets.segments[0]
    assert start == pytest.approx(768 + 700.0)
    assert end == pytest.approx(768 + 732.0)  # clipped at valid content
    assert dets.labels.tolist() == [1]


@pytest.mark.parametrize("strategy", heads.STRATEGIES)
def test_finalize_matches_per_row_oracle(strategy):
    rng = np.random.default_rng(heads.STRATEGIES.index(strategy))
    for case in range(25):
        c = int(rng.integers(1, 5))
        cfg = heads.AcnConfig(num_classes=c, strategy=strategy)
        buf = make_buffer(offset=int(rng.choice([0, 768, 5376])), num_valid=int(rng.choice([768, 700, 131])))
        props = []
        for _ in range(int(rng.integers(1, 60))):
            s = float(rng.integers(-40, 760)) if case % 2 else rng.uniform(-40, 760)
            props.append(heads.Proposal(ak.Segment(s, s + float(rng.integers(1, 300))), 0.5, int(rng.integers(3))))
        out = []
        for idx in heads.assign_proposals(as_arrays(props), cfg, 3):
            if len(idx) == 0:
                out.append((idx, None, None))
                continue
            logits = rng.normal(0.0, 2.0, (len(idx), c + 1))
            logits[rng.random(len(idx)) < 0.3] = 0.0  # posterior exactly 1 / (c + 1)
            if case % 3 == 0:
                logits[:, c] = -60.0  # the last class gets no candidate
            regs = rng.normal(0.0, 0.3, (len(idx), 2 * c)) * rng.choice([1.0, 10.0], (len(idx), 1))
            out.append((idx, nc.Tensor(logits), nc.Tensor(regs)))
        thresh = 1 / (c + 1) if case % 4 == 0 else 0.05
        nms = float(rng.choice([0.4, 0.7]))
        cands = heads.finalize_detections(out, as_arrays(props), replace(cfg, nms_tiou=nms, score_thresh=thresh), buf)
        got = as_objects(heads.nms_detections(cands, nms), buf.video_id)
        assert got == finalize_detections_ref(out, props, cfg, buf, nms, thresh)


def test_nms_detections_is_class_wise():
    kept = heads.nms_detections(detections([(0, 10, 1, 0.9), (0, 10, 2, 0.8), (1, 11, 1, 0.7)]), 0.4)
    assert sorted(zip(kept.labels.tolist(), kept.scores.tolist())) == [(1, 0.9), (2, 0.8)]


@pytest.mark.parametrize("thresh", [1e-9, 0.4, 1.0])
def test_nms_detections_keeps_same_class_candidates_touching_at_a_window_boundary(thresh):
    # windows [0, 768) and [768, 1536): each candidate is clipped to its own
    kept = heads.nms_detections(detections([(700.0, 768.0, 1, 0.9), (768.0, 800.0, 1, 0.9), (768.0, 1536.0, 2, 0.5)]), thresh)
    assert kept.segments.tolist() == [[700.0, 768.0], [768.0, 800.0], [768.0, 1536.0]]


def test_nms_detections_keeps_candidate_order_among_rows_tied_on_score_label_and_start():
    # no pair reaches tIoU 0.4, so all survive; the ranking is a stable sort
    # on (-score, label, start) of the candidates in order, as a Python sort
    rows = [(0.0, 100.0, 2, 0.5), (0.0, 10.0, 1, 0.5), (0.0, 30.0, 2, 0.5), (0.0, 10.0, 2, 0.5),
            (200.0, 260.0, 1, 0.5), (200.0, 210.0, 1, 0.5), (0.0, 100.0, 1, 0.7), (300.0, 350.0, 1, 0.25)]
    kept = heads.nms_detections(detections(rows), 0.4)
    want = sorted(rows, key=lambda r: (-r[3], r[2], r[0]))
    assert [(s, e, c, score) for (s, e), c, score in zip(kept.segments.tolist(), kept.labels.tolist(), kept.scores.tolist())] == want
