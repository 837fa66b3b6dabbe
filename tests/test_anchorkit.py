import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfpdet import anchorkit as ak
from tfpdet.errors import ConfigError, ContractError
from tfpdet.pyramid import PyramidConfig

from oracles import encode_ref, match_anchors_ref, match_proposals_ref, tiou_ref


STRIDES = PyramidConfig().strides


def seg(s, e):
    return ak.Segment(s, e)


def grid_segments(grid):
    return [seg(s, e) for s, e in grid.segments.tolist()]


def level_lengths(grid, k):
    segs = grid.segments[grid.level_indices(k)]
    return sorted(set((segs[:, 1] - segs[:, 0]).tolist()))


# ---------------------------------------------------------------------------
# grid construction


def test_grid_level_lengths_match_scale_ranges():
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    lengths = [level_lengths(grid, k) for k in range(3)]
    assert lengths[0] == [8, 16, 24, 32, 40, 48, 56]
    assert lengths[1] == [64, 80, 96, 112, 128, 144, 160]
    assert lengths[2] == list(range(192, 513, 32))


def test_grid_counts():
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    assert [len(grid.level_indices(k)) for k in range(3)] == [96 * 7, 48 * 7, 24 * 11]
    assert len(grid) == 1272


def level_position_scale(grid, scales, i):
    """(k, p, j) of flat anchor ``i``: its level block, then position-major
    within the block."""
    k = int(np.searchsorted(grid.level_offsets, i, side="right")) - 1
    p, j = divmod(i - int(grid.level_offsets[k]), len(scales[k]))
    return k, p, j


def test_first_cell_anchor_placement():
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    assert grid.level_offsets.tolist() == [0, 96 * 7, 96 * 7 + 48 * 7, 1272]
    assert level_position_scale(grid, ak.DEFAULT_SCALES, 0) == (0, 0, 0)
    assert grid.segments[0].tolist() == [0.0, 8.0]
    # the last anchor of level 0, and the first of level 1
    assert level_position_scale(grid, ak.DEFAULT_SCALES, 96 * 7 - 1) == (0, 95, 6)
    assert level_position_scale(grid, ak.DEFAULT_SCALES, 96 * 7) == (1, 0, 0)
    assert grid.segments[96 * 7].tolist() == [-24.0, 40.0]


@pytest.mark.parametrize("buffer_len,strides,scales", [
    (768, STRIDES, ak.DEFAULT_SCALES),
    (768, (8,), ak.SINGLE_SCALE_SCALES),
    (96, (3, 6), ((0.5, 1.7), (2,))),
])
def test_grid_arrays_equal_per_anchor_loop(buffer_len, strides, scales):
    grid = ak.build_anchor_grid(buffer_len, strides, scales)
    want = []  # the per-anchor construction, in flat order
    for k, (s_k, level_scales) in enumerate(zip(strides, scales)):
        for p in range(buffer_len // s_k):
            c = (p + 0.5) * s_k
            for j, sc in enumerate(level_scales):
                half = 0.5 * sc * s_k
                want.append((c - half, c + half, k, p, j))
    assert [(s, e, *level_position_scale(grid, scales, i))
            for i, (s, e) in enumerate(grid.segments.tolist())] == want
    assert [len(grid.level_indices(k)) for k in range(len(strides))] == [
        sum(1 for a in want if a[2] == k) for k in range(len(strides))]


def test_grid_rejects_indivisible_buffer():
    with pytest.raises(ConfigError, match="divisible"):
        ak.build_anchor_grid(100, STRIDES, ak.DEFAULT_SCALES)


def test_single_scale_layout_covers_same_lengths():
    grid = ak.build_anchor_grid(768, strides=(8,), scales=ak.SINGLE_SCALE_SCALES)
    multi = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    assert level_lengths(grid, 0) == sorted(set().union(*(level_lengths(multi, k) for k in range(3))))
    assert len(ak.SINGLE_SCALE_SCALES[0]) == 25


# ---------------------------------------------------------------------------
# tiou


def test_tiou_identity():
    assert ak.tiou((0, 10), (0, 10)) == 1.0


def test_tiou_disjoint():
    assert ak.tiou((0, 10), (20, 30)) == 0.0


def test_tiou_partial_overlap():
    assert ak.tiou((0, 10), (5, 15)) == pytest.approx(5 / 15, abs=1e-12)


@given(
    st.floats(-1000, 1000), st.floats(0.1, 500),
    st.floats(-1000, 1000), st.floats(0.1, 500),
)
@settings(max_examples=200, deadline=None)
def test_tiou_symmetric_and_bounded(s1, l1, s2, l2):
    a, b = (s1, s1 + l1), (s2, s2 + l2)
    v = ak.tiou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == ak.tiou(b, a)
    assert ak.tiou(a, a) == 1.0


def test_tiou_broadcast_equals_scalar_oracle():
    rng = np.random.default_rng(17)
    # integer grid (touching ends, nested and identical segments) plus continuous
    starts = np.concatenate([rng.integers(0, 30, 40), rng.uniform(0, 30, 20)])
    a = np.stack([starts, starts + np.concatenate([rng.integers(1, 12, 40), rng.uniform(0.1, 12, 20)])], axis=1)
    b = a[rng.permutation(len(a))[:25]]
    m = ak.tiou(a[:, None], b)
    assert m.shape == (60, 25)
    ref = [[tiou_ref(seg(*x), seg(*y)) for y in b] for x in a]
    assert np.array_equal(m, ref)
    assert np.array_equal(ak.tiou(a, b[3]), m[:, 3])


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_identity_transform():
    assert tuple(ak.encode([10.0, 20.0], [10.0, 20.0])) == (0.0, 0.0)


def test_encode_quarter_shift():
    anchor = [100 - 28, 100 + 28]  # center 100, length 56
    assert tuple(ak.encode(anchor, [86.0, 142.0])) == pytest.approx((0.25, 0.0), abs=1e-12)


def test_encode_double_length():
    tc, tl = ak.encode([0.0, 10.0], [-5.0, 15.0])
    assert (tc, tl) == pytest.approx((0.0, math.log(2)), abs=1e-12)


def test_encode_broadcasts_anchors_against_ground_truth():
    anchors, gts = np.array([[0.0, 10.0], [100.0, 300.0]]), np.array([[0.0, 10.0], [-5.0, 15.0], [150.0, 250.0]])
    out = ak.encode(anchors[:, None], gts)
    assert out.shape == (2, 3, 2)
    for i in range(2):
        for j in range(3):
            assert out[i, j].tolist() == ak.encode(anchors[i], gts[j]).tolist()


def test_encode_equals_the_scalar_reference_on_random_pairs():
    rng = np.random.default_rng(23)
    n = 100_000
    a0, g0 = rng.uniform(-200, 768, n), rng.uniform(-200, 768, n)
    anchors = np.stack([a0, a0 + rng.uniform(0.5, 600, n)], axis=1)
    gts = np.stack([g0, g0 + rng.uniform(0.5, 600, n)], axis=1)
    got = ak.encode(anchors, gts)
    ref = np.array([encode_ref(seg(*a), seg(*g)) for a, g in zip(anchors.tolist(), gts.tolist())])
    assert np.array_equal(got[:, 0], ref[:, 0])  # the same arithmetic in the same order
    # np.log and math.log may differ in the last place; float32 rounding hides it
    assert np.all(np.abs(got[:, 1] - ref[:, 1]) <= np.spacing(np.abs(ref[:, 1])))
    assert np.array_equal(got.astype(np.float32), ref.astype(np.float32))


def decode_one(anchor, center_offset, log_length, clip_to=(-math.inf, math.inf)):
    """``ak.decode`` on a single row: (start, end), or None if dropped."""
    segs, keep = ak.decode(np.array([[anchor.start, anchor.end]]), np.array([[center_offset, log_length]]), clip_to)
    return tuple(segs[0]) if keep[0] else None


def test_decode_zero_offsets_is_anchor():
    a = seg(12, 44)
    d = decode_one(a, 0.0, 0.0)
    assert d == pytest.approx((12.0, 44.0), abs=1e-12)


def test_decode_clips_to_buffer():
    d = decode_one(seg(-4, 12), 0.0, 0.0, clip_to=(0.0, 768.0))
    assert d == (0.0, 12.0)


def test_decode_degenerate_returns_none():
    assert decode_one(seg(-10, -2), 0.0, 0.0, clip_to=(0.0, 768.0)) is None


def test_decode_broadcasts_anchors_against_class_columns():
    anchors = np.array([[[0.0, 10.0]], [[100.0, 300.0]]])
    offsets = np.array([[0.0, 0.5, 80.0], [0.0, -0.25, 0.0]])
    logs = np.array([[0.0, 0.0, 0.0], [math.log(3), 0.0, -10.0]])
    segs, keep = ak.decode(anchors, np.stack([offsets, logs], axis=-1), (0.0, 400.0))
    assert segs.shape == (2, 3, 2) and keep.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            expect = decode_one(seg(*anchors[i, 0]), offsets[i, j], logs[i, j], (0.0, 400.0))
            assert (None if not keep[i, j] else tuple(segs[i, j])) == expect
    assert not keep[0, 2] and not keep[1, 2]  # pushed past the clip range; shorter than a frame
    assert segs[1, 0].tolist() == [0.0, 400.0]


def test_encode_decode_roundtrip_sample():
    rng = np.random.default_rng(17)
    anchors, gts = [], []
    for _ in range(2000):
        ac = rng.uniform(0, 768)
        al = rng.uniform(1, 512)
        gc = rng.uniform(0, 768)
        gl = rng.uniform(1, 512)
        anchors.append(seg(ac, ac + al))
        gts.append(seg(gc, gc + gl))
    a, g = ak.segment_pairs(anchors), ak.segment_pairs(gts)
    segs, keep = ak.decode(a, ak.encode(a, g), (-math.inf, math.inf))
    assert keep.all()
    assert np.abs(segs - g).max() < 1e-9


EXTREME = (math.nan, math.inf, -math.inf, 1e308, -1e308, 800.0, -800.0, 0.0)


def assert_tame(segs, lo, hi):
    """Each [n, 2] row is finite, inside [lo, hi] and at least one frame long."""
    assert np.isfinite(segs).all()
    assert np.all((lo <= segs[:, 0]) & (segs[:, 1] <= hi) & (segs[:, 1] - segs[:, 0] >= 1.0))


def test_decode_keeps_only_tame_rows_of_extreme_deltas():
    deltas = np.array([(o, g) for o in EXTREME for g in EXTREME])
    for anchor in ([100.0, 164.0], [-24.0, 40.0], [700.0, 800.0]):
        with np.errstate(all="ignore"):  # inf - inf, exp overflow
            segs, keep = ak.decode(np.array([anchor]), deltas, (0.0, 768.0))
        assert segs.shape == (64, 2) and keep.sum() == 10
        assert_tame(segs[keep], 0.0, 768.0)


_DELTA = st.one_of(st.sampled_from(EXTREME), st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(st.tuples(_DELTA, _DELTA), min_size=1, max_size=16), st.floats(-1000, 1000), st.floats(0.5, 800),
       st.sampled_from([np.float64, np.float32]))
@settings(max_examples=200, deadline=None)
def test_decode_keeps_only_tame_rows(deltas, start, length, dtype):
    # the model's regression outputs are float32, where exp overflows at 89
    with np.errstate(all="ignore"):
        segs, keep = ak.decode(np.array([[start, start + length]]), np.array(deltas, dtype=dtype), (0.0, 768.0))
    assert_tame(segs[keep], 0.0, 768.0)


# ---------------------------------------------------------------------------
# segment invariants


def test_segment_rejects_empty():
    with pytest.raises(ContractError):
        seg(5, 5)
    with pytest.raises(ContractError, match="an int of 16610 bits"):  # raised a bare ValueError in the message
        seg(10 ** 5000, 0)


@pytest.mark.parametrize("start,end", [
    (0, 10 ** 400), (-10 ** 400, 0), (0, float("inf")), (float("-inf"), 0), (0, float("nan")), (2 ** 62, 2 ** 62 + 1),
    (np.float32(0), np.float32(np.inf)),
])
def test_segment_rejects_bounds_that_do_not_form_a_valid_row(start, end):
    # each constructed: Segment(0, 10**400) then raised a bare OverflowError in segment_pairs, two
    # infinite segments had a NaN tIoU, and 2**62 + 1 is 2**62 as float64, an empty row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="segment needs"):
            seg(start, end)


@pytest.mark.parametrize("start,end", [("a", "b"), (True, 2), (0, np.True_), (None, 1), (0, "1")])
def test_segment_rejects_bounds_that_are_not_real(start, end):
    # Segment("a", "b") constructed, since "b" > "a"; a None bound raised a bare TypeError
    with pytest.raises(ContractError, match="real bounds"):
        seg(start, end)


def test_segment_accepts_numpy_reals():
    assert seg(np.float32(1.5), np.int64(4)).length == 2.5


# ---------------------------------------------------------------------------
# anchor matching


def test_match_perfect_anchor_is_positive():
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    m = ak.match_anchors_apn(grid, np.array([[0.0, 56.0]]))
    # the length-56 anchor centered at 28 is an exact hit
    exact = np.flatnonzero((grid.segments == [0.0, 56.0]).all(axis=1)).tolist()
    assert len(exact) == 1
    assert m.labels[exact[0]] == 1
    assert np.allclose(m.reg_targets[exact[0]], [0.0, 0.0])


def test_match_empty_gts_all_negative():
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    m = ak.match_anchors_apn(grid, np.zeros((0, 2)))
    assert np.all(m.labels == -1)
    assert int(np.sum(m.labels == -1)) == 1272


def test_match_midrange_best_anchor_still_positive():
    # a 4-frame ground truth has best tIoU 4/8 = 0.5: only the best-match
    # clause can make it positive, and exactly one anchor wins
    grid = ak.build_anchor_grid(768, STRIDES, ak.DEFAULT_SCALES)
    m = ak.match_anchors_apn(grid, np.array([[0.0, 4.0]]))
    best = ak.tiou(grid.segments, (0.0, 4.0)).max()
    assert best == pytest.approx(0.5, abs=1e-12)
    assert int(np.sum(m.labels == 1)) == 1
    ref_labels, _ = match_anchors_ref(grid_segments(grid), [seg(0.0, 4.0)])
    assert np.array_equal(m.labels, ref_labels)


def test_match_every_gt_gets_a_positive():
    rng = np.random.default_rng(5)
    grid = ak.build_anchor_grid(256, strides=(8, 16), scales=((1, 2, 3), (4, 6)))
    for _ in range(50):
        gts = [
            seg(s, s + l)
            for s, l in zip(rng.uniform(0, 200, 3), rng.uniform(2, 60, 3))
        ]
        m = ak.match_anchors_apn(grid, ak.segment_pairs(gts))
        for j in range(len(gts)):
            # the best anchor for gt j is positive
            ti = ak.tiou(grid.segments, (gts[j].start, gts[j].end))
            assert m.labels[int(ti.argmax())] == 1


def test_match_equals_exhaustive_oracle_on_random_scenes():
    rng = np.random.default_rng(99)
    grid = ak.build_anchor_grid(128, strides=(8, 16), scales=((1, 2, 4), (3, 5)))
    segs = grid_segments(grid)
    for _ in range(60):
        n = int(rng.integers(0, 4))
        gts = []
        for _ in range(n):
            s = rng.uniform(0, 100)
            gts.append(seg(s, s + rng.uniform(1, 80)))
        m = ak.match_anchors_apn(grid, ak.segment_pairs(gts))
        ref_labels, ref_match = match_anchors_ref(segs, gts)
        assert np.array_equal(m.labels, ref_labels)
        targets = [encode_ref(a, gts[j]) if j >= 0 else (0.0, 0.0) for a, j in zip(segs, ref_match)]
        assert np.array_equal(m.reg_targets.astype(np.float32), np.array(targets, dtype=np.float32).reshape(-1, 2))


# ---------------------------------------------------------------------------
# proposal matching


def test_proposal_match_perfect():
    m = ak.match_proposals_acn(np.array([[10.0, 50.0]]), np.array([[10.0, 50.0]]), np.array([3]))
    assert m.labels[0] == 3
    assert np.allclose(m.reg_targets[0], [0.0, 0.0])


def test_proposal_match_below_threshold_is_background():
    m = ak.match_proposals_acn(np.array([[0.0, 4.0]]), np.array([[0.0, 10.0]]), np.array([2]))
    assert m.labels[0] == 0


def test_proposal_match_exactly_half_is_background():
    # tIoU exactly 0.5: strict "greater than" sends it to background
    m = ak.match_proposals_acn(np.array([[0.0, 5.0]]), np.array([[0.0, 10.0]]), np.array([1]))
    assert ak.tiou((0, 5), (0, 10)) == 0.5
    assert m.labels[0] == 0


def test_proposal_match_equals_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        props = [seg(s, s + l) for s, l in zip(rng.uniform(0, 200, 8), rng.uniform(1, 80, 8))]
        gts = [seg(s, s + l) for s, l in zip(rng.uniform(0, 200, 3), rng.uniform(1, 80, 3))]
        labels = rng.integers(1, 4, 3)
        m = ak.match_proposals_acn(ak.segment_pairs(props), ak.segment_pairs(gts), labels)
        ref = match_proposals_ref(props, gts, labels)
        assert m.labels.tolist() == [r[0] for r in ref]
        targets = [encode_ref(p, gts[j]) if j >= 0 else (0.0, 0.0) for p, (_, j) in zip(props, ref)]
        assert np.array_equal(m.reg_targets.astype(np.float32), np.array(targets, dtype=np.float32))


def test_proposal_match_without_ground_truth_or_proposals():
    m = ak.match_proposals_acn(np.array([[0.0, 5.0]]), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    assert (m.labels.tolist(), m.reg_targets.tolist()) == ([0], [[0.0, 0.0]])
    m = ak.match_proposals_acn(np.zeros((0, 2)), np.array([[0.0, 5.0]]), np.array([1]))
    assert m.labels.shape == (0,) and m.reg_targets.shape == (0, 2)


# ---------------------------------------------------------------------------
# minibatch sampling


def _match_with(pos, neg, total):
    labels = np.zeros(total, dtype=np.int8)
    labels[:pos] = 1
    labels[pos : pos + neg] = -1
    return ak.MatchResult(labels, np.zeros((total, 2)))


def test_sample_balanced_one_to_one():
    m = _match_with(100, 100, 220)
    sel = ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(0), np.arange(len(m.labels)))
    assert len(sel) == 64
    assert int(np.sum(m.labels[sel] == 1)) == 32
    assert int(np.sum(m.labels[sel] == -1)) == 32


def test_sample_fills_with_negatives():
    m = _match_with(5, 1000, 1010)
    sel = ak.sample_minibatch(m, 64, 0.25, np.random.default_rng(0), np.arange(len(m.labels)))
    assert int(np.sum(m.labels[sel] == 1)) == 5
    assert int(np.sum(m.labels[sel] == -1)) == 59


def test_sample_zero_positives():
    m = _match_with(0, 1000, 1000)
    sel = ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(0), np.arange(len(m.labels)))
    assert len(sel) == 64
    assert np.all(m.labels[sel] == -1)


def test_sample_never_takes_ignores():
    m = _match_with(3, 4, 50)  # 43 ignored anchors
    sel = ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(1), np.arange(len(m.labels)))
    assert np.all(m.labels[sel] != 0)
    assert len(sel) == 7


def test_sample_empty_pools_raise():
    m = _match_with(0, 0, 10)
    with pytest.raises(ContractError, match="no positives and no negatives"):
        ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(0), np.arange(len(m.labels)))


def test_sample_without_replacement_and_seeded():
    m = _match_with(40, 40, 80)
    a = ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(42), np.arange(len(m.labels)))
    b = ak.sample_minibatch(m, 64, 0.5, np.random.default_rng(42), np.arange(len(m.labels)))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == len(a)


def test_sample_respects_candidate_restriction():
    m = _match_with(10, 10, 40)
    cand = np.arange(5, 25)
    sel = ak.sample_minibatch(m, 8, 0.5, np.random.default_rng(3), candidate_idx=cand)
    assert np.all(np.isin(sel, cand))


# ---------------------------------------------------------------------------
# coverage property


def test_anchor_coverage_at_least_point_six():
    lengths = sorted(
        sc * s for s, scales in zip(STRIDES, ak.DEFAULT_SCALES) for sc in scales
    )
    for l in range(8, 513):
        best = max(min(a, l) / max(a, l) for a in lengths)
        assert best >= 0.6, f"length {l} has best co-centered tIoU {best}"
