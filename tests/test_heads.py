import numpy as np
import pytest

from tfpdet import anchorkit as ak, heads, numcore as nc, pyramid as pyr
from tfpdet.datakit import Buffer
from tfpdet.errors import ConfigError, ContractError

from oracles import (acn_forward_ref, check_gradients, finalize_detections_ref, nms_ref, roi_cell_selection_ref,
                     roi_pool_ref, tiou_ref)


@pytest.mark.parametrize("field,value", [
    ("pos_tiou", 1.5), ("pos_tiou", -0.1), ("neg_tiou", -0.1), ("neg_tiou", 0.8), ("pos_tiou", float("nan")),
    ("nms_tiou", 0.0), ("nms_tiou", 1.01), ("nms_tiou", float("nan")),
])
def test_apn_config_rejects_thresholds_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        heads.ApnConfig(scales=((1,),), **{field: value})


@pytest.mark.parametrize("field,value", [
    ("fg_tiou", 1.2), ("fg_tiou", -0.5), ("score_thresh", 1.5), ("score_thresh", -0.01),
    ("score_thresh", float("nan")), ("nms_tiou", 0.0), ("nms_tiou", 2.0),
])
def test_acn_config_rejects_thresholds_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        heads.AcnConfig(num_classes=1, **{field: value})


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
        params[f"apn.level{k}.cls.w"].tensor.data[:] = 0.0
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params), params)
    grid = ak.build_anchor_grid(768)
    props = heads.generate_proposals(out, grid, top_k=10)
    assert all(p.objectness == pytest.approx(0.5, abs=1e-12) for p in props)


def test_apn_gradcheck_through_sibling_heads():
    hidden = 3
    apn_cfg = heads.ApnConfig(scales=((1, 2),))
    rng = np.random.default_rng(2)
    params = nc.create_params(heads.apn_param_specs(hidden, apn_cfg), rng)
    feat = rng.standard_normal((hidden, 6))
    arrays = [feat] + [p.tensor.data for p in params.values()]

    def build():
        ft = nc.Tensor(feat, requires_grad=True)
        pf = pyr.PyramidFeatures(levels=[ft], strides=(8,))
        (cls, reg), = heads.apn_forward(pf, params)
        labels = np.arange(cls.shape[1]) % cls.shape[0]
        loss = nc.add(
            nc.softmax_cross_entropy(nc.reshape(cls, (cls.shape[1], cls.shape[0])), labels),
            nc.smooth_l1(reg, nc.Tensor(np.full(reg.shape, 0.3))),
        )
        return loss, [ft] + [p.tensor for p in params.values()]

    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# NMS / proposal generation


def _props_from(segments, scores, thresh=0.7, top_k=None):
    st = np.array([s.start for s in segments])
    en = np.array([s.end for s in segments])
    return heads.nms_indices(st, en, np.asarray(scores, dtype=float), thresh, top_k)


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
    for n, thresh, top_k in ((1272, 0.7, 100), (1272, 0.7, 1), (1300, 0.4, None), (1300, 0.0, None),
                             (700, 1.0, None), (700, 1.0, 100), (300, 0.4, None), (129, 0.6, None)):
        starts = rng.integers(0, 200, n)
        segs = [ak.Segment(float(s), float(s + d)) for s, d in zip(starts, rng.integers(1, 40, n))]
        scores = rng.integers(0, 4, n) / 3
        assert _props_from(segs, scores, thresh, top_k) == nms_ref(segs, scores, thresh, top_k)
    starts = rng.uniform(-100, 768, 1272)
    segs = [ak.Segment(s, s + d) for s, d in zip(starts, rng.uniform(1, 500, 1272))]
    scores = rng.uniform(0, 1, 1272)
    for thresh, top_k in ((0.7, 100), (0.7, None), (1.0, None), (0.0, 1)):
        assert _props_from(segs, scores, thresh, top_k) == nms_ref(segs, scores, thresh, top_k)


def test_generate_proposals_sorted_and_separated():
    ecfg, pcfg, apn_cfg, params = small_setup(seed=5)
    out = heads.apn_forward(forward_pyramid(ecfg, pcfg, params, seed=6), params)
    grid = ak.build_anchor_grid(768)
    props = heads.generate_proposals(out, grid, nms_tiou=0.7, top_k=100)
    assert 0 < len(props) <= 100
    for a, b in zip(props, props[1:]):
        assert a.objectness >= b.objectness
    for i, a in enumerate(props):
        assert 0.0 <= a.segment.start < a.segment.end <= 768.0
        assert a.segment.length >= 1.0
        for b in props[i + 1 :]:
            assert ak.tiou((a.segment.start, a.segment.end), (b.segment.start, b.segment.end)) < 0.7


# ---------------------------------------------------------------------------
# RoI pooling


def pool(feat, segments, stride, bins):
    starts = np.array([s.start for s in segments])
    ends = np.array([s.end for s in segments])
    return heads.roi_pool(feat, starts, ends, stride, bins)


def test_roi_pool_aligned_identity():
    feat = np.arange(24, dtype=np.float64).reshape(2, 12)
    out = pool(nc.Tensor(feat), [ak.Segment(0.0, 32.0)], 8, 4)
    assert np.array_equal(out.data[0], feat[:, :4])


def test_roi_pool_single_cell_borrow():
    feat = np.arange(24, dtype=np.float64).reshape(2, 12)
    out = pool(nc.Tensor(feat), [ak.Segment(16.0, 24.0)], 8, 4)
    assert np.array_equal(out.data[0], np.repeat(feat[:, 2:3], 4, axis=1))


def test_roi_pool_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        t = int(rng.integers(4, 40))
        feat = rng.standard_normal((3, t))
        stride = float(rng.choice([8, 16, 32]))
        segs = []
        while len(segs) < 10:
            s = rng.uniform(-20, stride * t - 1)
            seg = ak.Segment(s, s + rng.uniform(1.5, stride * t))
            if seg.end > 0 and seg.start < stride * t:
                segs.append(seg)
        got = pool(nc.Tensor(feat), segs, stride, 4)
        assert got.shape == (10, 3, 4)
        for row, seg in zip(got.data, segs):
            assert np.array_equal(row, roi_pool_ref(feat, seg, stride, 4))


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5])
def test_cell_selection_bytes_equal_oracle(n, bins):
    # relu'd small integers tie often; lengths from a fraction of a cell
    # (borrowed bins) to past the whole map (clamped segments)
    rng = np.random.default_rng(40 * n + bins)
    for _ in range(12):
        d, t = int(rng.integers(1, 9)), int(rng.integers(1, 100))
        feat = np.maximum(rng.integers(-2, 4, size=(d, t)), 0).astype(np.float64)
        stride = float(rng.choice([8, 16, 32]))
        starts = rng.uniform(-stride, stride * t - 1, size=n)
        ends = np.maximum(starts + rng.uniform(0.1, 1.5, size=n) * rng.choice([stride, stride * t], size=n), 1.0)
        got = heads._roi_cell_selection(feat, starts, ends, stride, bins)
        want = roi_cell_selection_ref(feat, starts, ends, stride, bins)
        assert got.flags["C_CONTIGUOUS"] and got.dtype == want.dtype
        assert got.shape == want.shape == (n, d, bins) and np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("bins", [1, 3, 4])
def test_roi_pool_bytes_equal_take_of_cell_selection(n, bins):
    # values come from the range-max table and indices only from the
    # backward; both must be those of a take through the cell selection
    rng = np.random.default_rng(70 * n + bins)
    for _ in range(8):
        d, t = int(rng.integers(1, 9)), int(rng.integers(1, 100))
        feat = np.maximum(rng.integers(-2, 4, size=(d, t)), 0).astype(np.float64)  # relu'd, tied
        stride = float(rng.choice([8, 16, 32]))
        starts = rng.uniform(-stride, stride * t - 1, size=n)
        ends = np.maximum(starts + rng.uniform(0.1, 1.5, size=n) * rng.choice([stride, stride * t], size=n), 1.0)
        g = rng.standard_normal((n, d, bins)) * 10.0 ** rng.integers(-8, 8, size=(n, d, bins))
        outs = []
        for pool_fn in (heads.roi_pool, lambda x, *a: nc.take(x, heads._roi_cell_selection(x.data, *a))):
            x = nc.Tensor(feat, requires_grad=True)
            y = pool_fn(x, starts, ends, stride, bins)
            y._backward(g)
            outs.append((y.data, x.grad))
        for got, want in zip(*outs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_roi_pool_value_table_follows_the_index_selections_through_nan():
    # the value table takes the later window only where it is larger, so a
    # NaN never replaces the value of the cell the indices pick
    feat = np.array([[1.0, np.nan, 3.0, 0.0, 2.0, 5.0, np.nan, 4.0]])
    starts, ends = np.array([0.0, 8.0, 0.0, 24.0]), np.array([32.0, 64.0, 64.0, 56.0])
    out = heads.roi_pool(nc.Tensor(feat), starts, ends, 8.0, 1)
    cells = heads._roi_cell_selection(feat, starts, ends, 8.0, 1)
    assert out.data.tobytes() == feat.take(cells).tobytes()


def test_roi_pool_outside_extent_raises():
    segs = [ak.Segment(0.0, 20.0), ak.Segment(200.0, 220.0), ak.Segment(8.0, 40.0)]
    with pytest.raises(ContractError, match="outside"):
        pool(nc.Tensor(np.zeros((2, 8))), segs, 8, 4)


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
    assert heads.context_window(100.0, 150.0, 768.0) == (75.0, 175.0)


def test_context_window_clipped_at_start():
    assert heads.context_window(0.0, 50.0, 768.0) == (0.0, 75.0)


def test_context_features_channel_count():
    rng = np.random.default_rng(3)
    acn_cfg = heads.AcnConfig(num_classes=2, roi_bins=4, fc_dim=16)
    params = nc.create_params(heads.acn_param_specs(8, acn_cfg, 1), rng)
    feat = nc.Tensor(rng.standard_normal((8, 96)))
    out = heads.context_features(feat, np.array([100.0, 300.0]), np.array([200.0, 340.0]), 8, 4, params, 0, 768.0)
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


def test_acn_s3_fans_out_to_all_levels():
    acn_cfg, params, pf = acn_setup("s3")
    out = heads.acn_forward(pf, make_proposals(10), acn_cfg, params, 768.0)
    assert sum(len(idx) for idx, _, _ in out) == 30
    for idx, cls, reg in out:
        assert cls.shape == (10, 4)
        assert reg.shape == (10, 6)


def test_acn_s1_sends_everything_to_level_zero():
    acn_cfg, params, pf = acn_setup("s1")
    out = heads.acn_forward(pf, make_proposals(6), acn_cfg, params, 768.0)
    assert len(out[0][0]) == 6
    assert out[1][1] is None and out[2][1] is None


def test_acn_s2_follows_source_level():
    acn_cfg, params, pf = acn_setup("s2")
    rng = np.random.default_rng(4)
    props = make_proposals(3, rng, level=0) + make_proposals(2, rng, level=2)
    out = heads.acn_forward(pf, props, acn_cfg, params, 768.0)
    assert [len(idx) for idx, _, _ in out] == [3, 0, 2]


def test_acn_s1_touches_only_level_zero_classifier():
    acn_cfg, params, pf = acn_setup("s1")
    out = heads.acn_forward(pf, make_proposals(5), acn_cfg, params, 768.0)
    idx, cls, reg = out[0]
    loss = nc.softmax_cross_entropy(cls, np.zeros(5, dtype=np.int64))
    nc.backward(loss)
    for name, p in params.items():
        grad_norm = float(np.abs(p.tensor.grad).max())
        if ".level0." in name and "reg" not in name:
            assert grad_norm > 0.0, name
        if ".level1." in name or ".level2." in name:
            assert grad_norm == 0.0, name


def test_acn_zero_cls_weights_uniform_posterior():
    acn_cfg, params, pf = acn_setup("s1")
    params["acn.level0.cls.w"].tensor.data[:] = 0.0
    out = heads.acn_forward(pf, make_proposals(4), acn_cfg, params, 768.0)
    logits = out[0][1].data
    post = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(post, 0.25, atol=1e-12)


def test_acn_without_context_same_classifier_shape():
    acn_cfg, params, pf = acn_setup("s1", use_context=False)
    out = heads.acn_forward(pf, make_proposals(4), acn_cfg, params, 768.0)
    assert out[0][1].shape == (4, 4)
    assert not any("reduce" in name for name in params)


def test_acn_rejects_empty_proposals():
    acn_cfg, params, pf = acn_setup("s1")
    with pytest.raises(ContractError, match="proposal"):
        heads.acn_forward(pf, [], acn_cfg, params, 768.0)


# clipped at 0 and at the buffer end, sub-cell (borrowing bins, and no
# covered cell center at all), context clipped at both ends, plus random ones
EDGE_SEGMENTS = [(0.0, 40.0), (700.0, 768.0), (100.0, 103.0), (101.0, 103.0), (5.0, 760.0), (380.0, 395.0)]


@pytest.mark.parametrize("use_context", [True, False])
@pytest.mark.parametrize("strategy", ["s1", "s2", "s3"])
def test_acn_matches_per_proposal_oracle(strategy, use_context):
    acn_cfg, params, pf = acn_setup(strategy, use_context=use_context, seed=21)
    rng = np.random.default_rng(22)
    props = [heads.Proposal(ak.Segment(s, e), 0.5, i % 3) for i, (s, e) in enumerate(EDGE_SEGMENTS)]
    props += make_proposals(10, rng, level=1)
    assignment = heads.assign_proposals(props, acn_cfg, 3)
    targets = [rng.standard_normal((len(idx), 6)) for idx in assignment]

    def run(forward):
        out = forward(pf, props, acn_cfg, params, 768.0, assignment=assignment)
        loss = None
        for (idx, cls, reg), target in zip(out, targets):
            if cls is None:
                continue
            term = nc.add(nc.softmax_cross_entropy(cls, np.arange(len(idx)) % 4), nc.smooth_l1(reg, nc.Tensor(target)))
            loss = term if loss is None else nc.add(loss, term)
        leaves = list(pf.levels) + [p.tensor for p in params.values()]
        for t in leaves:
            t.grad = np.zeros_like(t.data)
        nc.backward(loss)
        return out, [t.grad.copy() for t in leaves]

    got, got_grads = run(heads.acn_forward)
    ref, ref_grads = run(acn_forward_ref)
    for (idx, cls, reg), (ref_idx, ref_cls, ref_reg) in zip(got, ref):
        assert idx == ref_idx
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
        p.tensor.data = rng.standard_normal(p.tensor.data.shape) * 0.4
    props = make_proposals(3, rng)
    labels = np.array([0, 1, 2])
    arrays = [l.data for l in pf.levels] + [p.tensor.data for p in params.values()]

    def build():
        out = heads.acn_forward(pf, props, acn_cfg, params, 768.0)
        loss = None
        for idx, cls, reg in out:
            if cls is None:
                continue
            term = nc.add(nc.softmax_cross_entropy(cls, labels),
                          nc.smooth_l1(reg, nc.Tensor(np.full(reg.shape, 0.2))))
            loss = term if loss is None else nc.add(loss, term)
        return loss, list(pf.levels) + [p.tensor for p in params.values()]

    check_gradients(build, arrays)


# ---------------------------------------------------------------------------
# finalize


def make_buffer(video_id="v", offset=0, num_valid=768):
    return Buffer(video_id, offset, "forward", nc.Tensor(np.zeros((2, 768))), [], num_valid)


def acn_out_single(logits, regs, idx=(0,), level_count=1):
    out = [(list(idx), nc.Tensor(np.asarray(logits)), nc.Tensor(np.asarray(regs)))]
    out += [([], None, None)] * (level_count - 1)
    return out


def test_finalize_confident_background_yields_nothing():
    cfg = heads.AcnConfig(num_classes=3, strategy="s1")
    props = [heads.Proposal(ak.Segment(100, 200), 0.9, 0)]
    logits = [[20.0, -20.0, -20.0, -20.0]]
    regs = [[0.0] * 6]
    dets = heads.finalize_detections(acn_out_single(logits, regs), props, cfg, make_buffer())
    assert dets == []


def test_finalize_two_classes_same_segment_both_survive():
    cfg = heads.AcnConfig(num_classes=2, strategy="s1")
    props = [heads.Proposal(ak.Segment(100, 200), 0.9, 0), heads.Proposal(ak.Segment(100, 200), 0.8, 0)]
    logits = [[-5.0, 5.0, -5.0], [-5.0, -5.0, 5.0]]
    regs = [[0.0] * 4, [0.0] * 4]
    dets = heads.finalize_detections(acn_out_single(logits, regs, idx=(0, 1)), props, cfg, make_buffer())
    assert sorted(d.label for d in dets) == [1, 2]


def test_finalize_s3_duplicates_collapse_to_one():
    cfg = heads.AcnConfig(num_classes=1, strategy="s3")
    props = [heads.Proposal(ak.Segment(100, 200), 0.9, 0)]
    out = []
    for score_logit in (3.0, 2.0, 1.0):  # same segment from 3 levels, descending confidence
        out.append(([0], nc.Tensor([[-score_logit, score_logit]]), nc.Tensor([[0.0, 0.0]])))
    dets = heads.finalize_detections(out, props, cfg, make_buffer())
    assert len(dets) == 1
    assert dets[0].score == pytest.approx(1 / (1 + np.exp(-6.0)))


def test_finalize_score_threshold_prunes():
    cfg = heads.AcnConfig(num_classes=1, strategy="s1")
    props = [heads.Proposal(ak.Segment(100, 200), 0.9, 0)]
    dets = heads.finalize_detections(
        acn_out_single([[0.0, 0.0]], [[0.0, 0.0]]), props, cfg, make_buffer(), score_thresh=0.6
    )
    assert dets == []


def test_finalize_maps_to_video_coordinates_and_clips_padding():
    cfg = heads.AcnConfig(num_classes=1, strategy="s1")
    props = [heads.Proposal(ak.Segment(700.0, 760.0), 0.9, 0)]
    buf = make_buffer(offset=768, num_valid=732)
    dets = heads.finalize_detections(acn_out_single([[-5.0, 5.0]], [[0.0, 0.0]]), props, cfg, buf)
    assert len(dets) == 1
    d = dets[0]
    assert d.segment.start == pytest.approx(768 + 700.0)
    assert d.segment.end == pytest.approx(768 + 732.0)  # clipped at valid content
    assert d.video_id == "v"


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
        for idx in heads.assign_proposals(props, cfg, 3):
            if not idx:
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
        got = heads.finalize_detections(out, props, cfg, buf, nms, thresh)
        assert got == finalize_detections_ref(out, props, cfg, buf, nms, thresh)


def test_nms_detections_is_class_wise():
    mk = lambda s, e, label, score: heads.Detection(ak.Segment(s, e), label, score, "v")
    dets = [mk(0, 10, 1, 0.9), mk(0, 10, 2, 0.8), mk(1, 11, 1, 0.7)]
    kept = heads.nms_detections(dets, 0.4)
    assert sorted((d.label, d.score) for d in kept) == [(1, 0.9), (2, 0.8)]
