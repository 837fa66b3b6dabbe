import hashlib
import inspect
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tfpdet import anchorkit as ak, datakit, evalkit, heads, numcore as nc, pipeline, pyramid as pyr
from tfpdet.errors import ConfigError, ContractError, DataError, _shown
from tfpdet.numcore import Tensor


def small_model():
    return pipeline.Model.build(
        pyr.EncoderConfig(input_dim=4, hidden_dim=4),
        pyr.PyramidConfig(),
        heads.ApnConfig(scales=ak.DEFAULT_SCALES),
        heads.AcnConfig(num_classes=2, fc_dim=8),
        seed=0,
    )


def two_window_video():
    """A fixed-seed video of two 768-frame windows; the second holds 500
    frames of content and is zero-padded past them."""
    num_frames = 768 + 500
    features = np.random.default_rng(4).standard_normal((4, num_frames))
    return datakit.VideoRecord("v", num_frames, [], features)


def assert_in_video_windows(segments, num_frames, buffer_len):
    for s in segments:
        assert 0.0 <= s.start < s.end <= num_frames
        assert not s.start < buffer_len < s.end  # never across the window boundary
    assert any(s.end <= buffer_len for s in segments) and any(s.start >= buffer_len for s in segments)


def test_infer_video_sorted_in_range_and_repeatable():
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    dets = pipeline.infer_video(rec, model, cfg)
    assert dets
    assert all(a.score >= b.score for a, b in zip(dets, dets[1:]))
    assert all(1 <= d.label <= model.acn_cfg.num_classes and d.video_id == "v" for d in dets)
    assert_in_video_windows([d.segment for d in dets], rec.num_frames, cfg.buffer_len)
    assert pipeline.infer_video(rec, model, cfg) == dets


def test_propose_video_sorted_in_range_and_repeatable():
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    props = pipeline.propose_video(rec, model, cfg)
    assert 0 < len(props) <= 2 * model.apn_cfg.top_k
    assert all(a.objectness >= b.objectness for a, b in zip(props, props[1:]))
    assert_in_video_windows([p.segment for p in props], rec.num_frames, cfg.buffer_len)
    assert pipeline.propose_video(rec, model, cfg) == props


def as_objects(dets, video_id):
    """The ``Detection`` objects of a ``heads.Detections``, in order."""
    rows = zip(dets.segments.tolist(), dets.labels.tolist(), dets.scores.tolist())
    return [heads.Detection(ak.Segment(s, e), c, score, video_id) for (s, e), c, score in rows]


def infer_video_taped(record, model, cfg):
    """``infer_video`` run on the gradient-requiring parameters, recording
    the autograd graph of every window."""
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    windows = []
    for buf in datakit.make_buffers(record, cfg.buffer_len, directions="forward"):
        pyramid_out = model.forward_pyramid(buf.features, model.params)
        proposals = heads.generate_proposals(heads.apn_forward(pyramid_out, model.params), grid, model.apn_cfg)
        if not proposals:
            continue
        acn_out = heads.acn_forward(pyramid_out, proposals, model.acn_cfg, model.params)
        assert all(cls.requires_grad for _, cls, _ in acn_out)
        windows.append(heads.finalize_detections(acn_out, proposals, model.acn_cfg, buf))
    return as_objects(heads.nms_detections(heads.Detections.concat(windows), model.acn_cfg.nms_tiou), record.video_id)


def parameter_bytes(model):
    """Each parameter's values, gradient and velocity as bytes; a gradient
    that an update has consumed, or a velocity that no update has created
    yet, is ``None``."""
    return {n: tuple(None if a is None else a.tobytes() for a in (p.data, p.grad, model.velocity.get(n)))
            for n, p in model.params.items()}


def test_infer_video_records_no_graph_and_equals_a_taped_forward(monkeypatch):
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    rng = np.random.default_rng(6)
    for p in model.params.values():
        p.grad = rng.standard_normal(p.data.shape)  # as if mid-accumulation
    before = parameter_bytes(model)
    outputs = []
    acn_forward = heads.acn_forward

    def recording_acn_forward(*args, **kwargs):
        out = acn_forward(*args, **kwargs)
        outputs.extend(t for _, cls, reg in out for t in (cls, reg) if t is not None)
        return out

    monkeypatch.setattr(heads, "acn_forward", recording_acn_forward)
    dets = pipeline.infer_video(rec, model, cfg)
    assert outputs and all(not t.requires_grad and t._parents == () for t in outputs)
    assert parameter_bytes(model) == before
    monkeypatch.setattr(heads, "acn_forward", acn_forward)
    assert dets and dets == infer_video_taped(rec, model, cfg)


def three_window_video():
    """A fixed-seed video of three 768-frame windows, the last one short."""
    num_frames = 3 * 768 - 100
    return datakit.VideoRecord("v", num_frames, [], np.random.default_rng(9).standard_normal((4, num_frames)))


def test_propose_video_equals_the_window_proposals_sorted(monkeypatch):
    # each window's proposals clipped to its content, shifted and ranked by a
    # stable Python sort on (-objectness, start), as Proposal objects
    model, cfg, rec = small_model(), pipeline.TrainConfig(), three_window_video()
    windows = []
    generate_proposals = heads.generate_proposals

    def recording_generate(*args):
        windows.append(generate_proposals(*args))
        return windows[-1]

    monkeypatch.setattr(heads, "generate_proposals", recording_generate)
    props = pipeline.propose_video(rec, model, cfg)
    want = []
    for buf, w in zip(datakit.make_buffers(rec, cfg.buffer_len, directions="forward"), windows, strict=True):
        for (s, e), obj, level in zip(w.segments.tolist(), w.objectness.tolist(), w.levels.tolist()):
            s, e = max(s, 0.0) + buf.frame_offset, min(e, float(buf.num_valid)) + buf.frame_offset
            if e - s >= 1.0:
                want.append(heads.Proposal(ak.Segment(s, e), obj, level))
    assert len(windows) == 3 and len(want) > 2 * model.apn_cfg.top_k
    assert props == sorted(want, key=lambda p: (-p.objectness, p.segment.start))


def test_video_nms_returns_the_window_detections_sorted(monkeypatch):
    # windows are disjoint and candidates are clipped to their window, so one
    # class-wise NMS over the video keeps what each window's own NMS keeps
    model, cfg, rec = small_model(), pipeline.TrainConfig(), three_window_video()
    windows = []
    finalize_detections = heads.finalize_detections

    def recording_finalize(*args):
        windows.append(finalize_detections(*args))
        return windows[-1]

    monkeypatch.setattr(heads, "finalize_detections", recording_finalize)
    dets = pipeline.infer_video(rec, model, cfg)
    assert len(windows) == 3 and all(windows)
    kept = [as_objects(heads.nms_detections(w, model.acn_cfg.nms_tiou), rec.video_id) for w in windows]
    assert all(len(k) < len(w) for k, w in zip(kept, windows))  # each window's NMS suppresses
    assert dets == sorted((d for k in kept for d in k), key=lambda d: (-d.score, d.label, d.segment.start))


def annotated_video():
    """A fixed-seed 1,200-frame video with three activities and float32
    features, as ``load_features`` returns them."""
    acts = [datakit.Activity(40.0, 120.0, 1), datakit.Activity(300.0, 420.0, 2), datakit.Activity(900.0, 960.0, 1)]
    features = np.random.default_rng(8).standard_normal((4, 1200)).astype(np.float32)
    return datakit.VideoRecord("v", 1200, acts, features)


def annotated_buffers():
    """Both windows of ``annotated_video``."""
    return datakit.make_buffers(annotated_video(), 768)


def test_forward_pyramid_reads_a_float32_window_in_place(monkeypatch):
    # the network's input tensor is the buffer's row itself, not a per-step copy
    model, buf = small_model(), annotated_buffers()[1]
    inputs = []
    encode = pyr.encode
    monkeypatch.setattr(pyr, "encode", lambda x, *args: inputs.append(x) or encode(x, *args))
    model.forward_pyramid(buf.features, model.params)
    assert buf.features.dtype == inputs[0].data.dtype == np.float32
    assert np.shares_memory(inputs[0].data, buf.features)


def test_default_model_builds_every_tensor_and_gradient_in_float32(monkeypatch):
    # one float64 array anywhere (a target, a buffer, a constant) promotes
    # every op after it, which only the dtypes of the nodes and gradients show
    model, cfg, rec = small_model(), pipeline.TrainConfig(seed=5), annotated_video()
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    buf = datakit.make_buffers(rec, cfg.buffer_len)[0]
    built, passed, stepped = [], [], []
    init, accumulate, sgd_step = nc.Tensor.__init__, nc._accumulate, nc.sgd_step

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.data.dtype)

    def recording_accumulate(t, g):
        passed.append(np.asarray(g).dtype)
        accumulate(t, g)

    def recording_sgd_step(params, *args):
        # the update consumes the gradients, so read them as it receives them
        stepped.extend((p.data.dtype, p.grad.dtype) for p in params.values())
        sgd_step(params, *args)

    monkeypatch.setattr(nc.Tensor, "__init__", recording_init)
    monkeypatch.setattr(nc, "_accumulate", recording_accumulate)
    monkeypatch.setattr(nc, "sgd_step", recording_sgd_step)
    report = pipeline.train_step(buf, model, cfg, grid, 0)
    # both heads' smooth-L1 terms ran, so their float64 targets were met
    assert any(v is not None for v in report.apn_loc) and any(v is not None for v in report.acn_loc)
    assert set(passed) == {np.dtype(np.float32)}
    assert len(stepped) == len(model.params) and set(stepped) == {(np.dtype(np.float32),) * 2}
    for name, p in model.params.items():
        assert p.data.dtype == model.velocity[name].dtype == np.float32 and p.grad is None
    assert pipeline.infer_video(rec, model, cfg) and pipeline.propose_video(rec, model, cfg)
    assert len(built) > 100 and set(built) == {np.dtype(np.float32)}


def test_model_build_peaks_at_what_it_keeps():
    # parameters are cast as they are drawn, with no float64 set and no
    # float64 gradients built and dropped
    cfgs = (pyr.EncoderConfig(input_dim=16, hidden_dim=64), pyr.PyramidConfig(),
            heads.ApnConfig(scales=ak.DEFAULT_SCALES), heads.AcnConfig(num_classes=3))
    tracemalloc.start()
    try:
        model = pipeline.Model.build(*cfgs, seed=0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for p in model.params.values())
    assert model.velocity == {}  # created by the first update
    assert 2 * param_bytes <= kept < 2.1 * param_bytes  # values and gradients
    assert peak <= 1.1 * kept  # measured 1.0001x


def test_a_model_that_only_infers_holds_no_velocity():
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    assert model.velocity == {}
    assert pipeline.infer_video(rec, model, cfg) and pipeline.propose_video(rec, model, cfg)
    assert model.velocity == {}


def test_the_first_train_step_creates_every_velocity():
    model, cfg = small_model(), pipeline.TrainConfig(seed=5)
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    pipeline.train_step(annotated_buffers()[0], model, cfg, grid, 0)
    assert list(model.velocity) == list(model.params)
    for name, p in model.params.items():
        v = model.velocity[name]
        assert v.dtype == p.data.dtype and v.shape == p.data.shape and v is not p.data and v.any(), name


def zero_velocities(model) -> dict:
    """A zero velocity per parameter, as ``Model.build`` made them before velocities were created by the first update."""
    return {name: np.zeros(p.shape, pipeline.PARAM_DTYPE) for name, p in model.params.items()}


def test_lazy_velocities_train_as_zero_velocities_made_at_build():
    cfg, bufs = pipeline.TrainConfig(seed=5), annotated_buffers()
    runs = []
    for eager in (False, True):
        model = small_model()
        if eager:
            model.velocity = zero_velocities(model)
        grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
        reports = [pipeline.train_step(bufs[step % 2], model, cfg, grid, step).to_json_dict() for step in range(40)]
        runs.append((reports, parameter_bytes(model)))
    assert runs[0] == runs[1]
    assert all(v is not None for _, _, v in runs[0][1].values())


def test_checkpoint_of_a_fresh_model_writes_zero_velocities(tmp_path):
    model, cfg = small_model(), pipeline.TrainConfig()
    pipeline.save_checkpoint(tmp_path / "lazy.tfpm", model, cfg, 0)
    model.velocity = zero_velocities(model)
    pipeline.save_checkpoint(tmp_path / "zeros.tfpm", model, cfg, 0)
    assert (tmp_path / "lazy.tfpm").read_bytes() == (tmp_path / "zeros.tfpm").read_bytes()


def gradient_block(model) -> np.ndarray:
    """The one ``PARAM_DTYPE`` zero block whose consecutive slices, in
    ``param_specs`` order, are the model's leaf gradients; asserts that it
    holds exactly the parameter count, so no two gradients overlap."""
    specs = pipeline.Model.param_specs(model.encoder_cfg, model.pyramid_cfg, model.apn_cfg, model.acn_cfg)
    block = model.params[specs[0][0]].grad.base
    assert block.dtype == pipeline.PARAM_DTYPE and block.shape == (sum(math.prod(s) for _, s, _ in specs),)
    offset = 0
    for name, shape, _ in specs:
        g = model.params[name].grad
        assert g.base is block and g.shape == shape and g.flags.c_contiguous, name
        assert g.ctypes.data == block.ctypes.data + offset * block.itemsize, name
        offset += g.size
    assert not block.any()
    return block


def test_built_and_loaded_models_hold_their_gradients_in_one_zero_block(tmp_path):
    model = small_model()
    gradient_block(model)
    pipeline.save_checkpoint(tmp_path / "m.tfpm", model, pipeline.TrainConfig(), 0)
    gradient_block(pipeline.load_checkpoint(tmp_path / "m.tfpm")[0])


def test_inference_leaves_the_gradient_block_zero():
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    block = gradient_block(model)
    assert pipeline.infer_video(rec, model, cfg) and pipeline.propose_video(rec, model, cfg)
    assert gradient_block(model) is block


def test_block_gradients_train_as_zeros_per_leaf():
    # per-leaf np.zeros gradients, as Model.build made them before the block
    cfg, bufs = pipeline.TrainConfig(seed=5), annotated_buffers()
    runs = []
    for per_leaf in (False, True):
        model = small_model()
        if per_leaf:
            for p in model.params.values():
                p.grad = np.zeros(p.data.shape, p.data.dtype)
        grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
        reports = [pipeline.train_step(bufs[step % 2], model, cfg, grid, step).to_json_dict() for step in range(40)]
        runs.append((reports, parameter_bytes(model)))
    assert runs[0] == runs[1]
    assert all(v is not None for _, _, v in runs[0][1].values())


def test_zero_velocities_load_as_absent_and_save_as_they_were(tmp_path):
    # an absent velocity saves as +0.0 zeros, so those load as absent; -0.0 is kept
    model, cfg = small_model(), pipeline.TrainConfig()
    first, second = tmp_path / "a.tfpm", tmp_path / "b.tfpm"
    pipeline.save_checkpoint(first, model, cfg, 0)
    loaded = pipeline.load_checkpoint(first)[0]
    assert loaded.velocity == {}
    pipeline.save_checkpoint(second, loaded, cfg, 0)
    assert second.read_bytes() == first.read_bytes()
    zero, negative, other = list(model.params)[:3]
    model.velocity = zero_velocities(model)
    model.velocity[negative] = -model.velocity[negative]
    model.velocity[other][0] = 1.0
    pipeline.save_checkpoint(first, model, cfg, 0)
    loaded = pipeline.load_checkpoint(first)[0]
    assert list(loaded.velocity) == [negative, other]
    assert loaded.velocity[negative].tobytes() == model.velocity[negative].tobytes()
    pipeline.save_checkpoint(second, loaded, cfg, 0)
    assert second.read_bytes() == first.read_bytes()


def test_train_step_frees_its_graph_as_it_walks_it_and_holds_no_gradient_after():
    # backward releases each node once its closure has run, and the update
    # consumes the gradients; measured at this shape: a 2.43 MB peak and
    # ~1 KB kept, against 3.80 MB and 0.22 MB (every gradient) when the
    # graph lived until backward returned and the update left fresh zeros
    model = pipeline.Model.build(pyr.EncoderConfig(input_dim=16, hidden_dim=32), pyr.PyramidConfig(),
                                 heads.ApnConfig(scales=ak.DEFAULT_SCALES), heads.AcnConfig(num_classes=2, fc_dim=32),
                                 seed=0)
    cfg = pipeline.TrainConfig(seed=5)
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    features = np.random.default_rng(8).standard_normal((16, 1200)).astype(np.float32)
    bufs = datakit.make_buffers(replace(annotated_video(), features=features), cfg.buffer_len)
    pipeline.train_step(bufs[0], model, cfg, grid, 0)
    tracemalloc.start()
    try:
        report = pipeline.train_step(bufs[1], model, cfg, grid, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(report.apn_pos) > 0 and sum(report.acn_pos) > 0
    assert peak < 3.0e6
    assert kept < 0.05 * sum(p.data.nbytes for p in model.params.values())
    assert all(p.grad is None for p in model.params.values())


@pytest.mark.parametrize("cfgs,count,sha256", [
    ((pyr.EncoderConfig(16, 64), pyr.PyramidConfig(), heads.ApnConfig(scales=ak.DEFAULT_SCALES),
      heads.AcnConfig(num_classes=3)),
     64, "5941cfcf6c665b4852326dcf8cc20366b91e92a28678b2d7f172b7cd19f8219a"),
    ((pyr.EncoderConfig(16, 9), pyr.PyramidConfig(variant="max", num_levels=1),
      heads.ApnConfig(scales=ak.SINGLE_SCALE_SCALES),
      heads.AcnConfig(num_classes=2, use_context=False, roi_bins=3, fc_dim=32)),
     20, "4dfa7bee8d4ee9263c7337f31893a70cc961beab1e5e706315836eb73af4fc29"),
], ids=["bench model", "one max level without context"])
def test_param_specs_pin_the_layout_and_the_init_rule(cfgs, count, sha256):
    """The spec list fixes the order of the model's random draws and the
    TFPM v4 payload layout, so its names, shapes, init specs and order are
    pinned by hash; the rule they follow is asserted readably below.  A
    change of the init rule, such as He-scaling the hidden head layers,
    changes this test on purpose."""
    specs = pipeline.Model.param_specs(*cfgs)
    assert len(specs) == count
    for name, shape, init in specs:
        if name.endswith(".b"):
            assert init == ("constant", 0.1), name
        elif name.startswith("encoder."):
            assert shape[2] == 3 and init == ("gaussian", 0.0, math.sqrt(2.0 / (shape[1] * 3))), name
        else:
            assert name.endswith(".w") and init == ("gaussian", 0.0, 0.01), name
    assert hashlib.sha256(json.dumps(specs).encode()).hexdigest() == sha256


def test_train_step_builds_no_segment_or_activity_objects(monkeypatch):
    # ground truth travels as the buffer's arrays from make_buffers to the loss
    model, cfg = small_model(), pipeline.TrainConfig(seed=5)
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    buf = annotated_buffers()[0]
    assert len(buf.segments) == len(buf.labels) > 0

    def refuse(self):
        raise AssertionError(f"a training step built a {type(self).__name__}")

    monkeypatch.setattr(ak.Segment, "__post_init__", refuse)
    monkeypatch.setattr(datakit.Activity, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        ak.Segment(0.0, 1.0)
    report = pipeline.train_step(buf, model, cfg, grid, 0)
    assert sum(report.apn_pos) > 0 and sum(report.acn_pos) > 0


def test_same_seed_training_is_byte_identical():
    cfg = pipeline.TrainConfig(seed=5)
    runs = []
    for _ in range(2):
        model, bufs = small_model(), annotated_buffers()
        grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
        reports = [pipeline.train_step(bufs[step % len(bufs)], model, cfg, grid, step).to_json_dict() for step in range(3)]
        runs.append((reports, {n: (p.data.tobytes(), model.velocity[n].tobytes()) for n, p in model.params.items()}))
    assert runs[0] == runs[1]
    assert sum(sum(r["acn_pos"]) + sum(r["acn_neg"]) for r in runs[0][0]) > 0  # both heads trained


def test_pick_training_buffer_picks_a_video_then_one_of_its_buffers():
    cfg = pipeline.TrainConfig(seed=7)
    bufs = {vid: datakit.make_buffers(datakit.VideoRecord(vid, n, [], np.zeros((1, n), np.float32)), 768)
            for vid, n in (("b", 768), ("a", 1000), ("c", 3000))}
    reordered = dict(reversed(bufs.items()))
    picked = []
    for step in range(600):
        pick = pipeline.pick_training_buffer(bufs, cfg, step)
        assert pick is pipeline.pick_training_buffer(reordered, cfg, step)  # equal (seed, step): the same buffer
        rng = pipeline._step_rng(cfg.seed, step)
        vid = sorted(bufs)[rng.integers(len(bufs))]
        assert pick is bufs[vid][rng.integers(len(bufs[vid]))]
        picked.append(vid)
    # uniform over videos, not over buffers: "c" holds 8 of the 14 buffers
    assert [len(bufs[vid]) for vid in "abc"] == [4, 2, 8]
    assert all(150 <= picked.count(vid) <= 250 for vid in "abc")
    # both raised numpy's bare ValueError: high <= 0
    for empty in ({}, {**bufs, "d": []}):
        with pytest.raises(ContractError, match="at least one"):
            pipeline.pick_training_buffer(empty, cfg, 0)


def hidden8_model():
    return pipeline.Model.build(pyr.EncoderConfig(input_dim=4, hidden_dim=8), pyr.PyramidConfig(),
                                heads.ApnConfig(scales=ak.DEFAULT_SCALES), heads.AcnConfig(num_classes=2, fc_dim=8), seed=0)


def two_annotated_videos():
    """``annotated_video`` and a second fixed-seed, annotated 900-frame video, by id."""
    acts = [datakit.Activity(100.0, 180.0, 2), datakit.Activity(500.0, 700.0, 1)]
    features = np.random.default_rng(9).standard_normal((4, 900)).astype(np.float32)
    return {"v": annotated_video(), "w": datakit.VideoRecord("w", 900, acts, features)}


def hand_loop(buffers_by_video, model, cfg):
    """The step loop that ``pipeline.fit`` runs, written out."""
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    return [pipeline.train_step(pipeline.pick_training_buffer(buffers_by_video, cfg, step), model, cfg, grid, step)
            for step in range(cfg.max_steps)]


def test_fit_trains_as_the_hand_written_step_loop():
    cfg = pipeline.TrainConfig(max_steps=6, seed=3)
    bufs = {vid: datakit.make_buffers(r, cfg.buffer_len) for vid, r in two_annotated_videos().items()}
    assert {pipeline.pick_training_buffer(bufs, cfg, step).video_id for step in range(cfg.max_steps)} == {"v", "w"}
    model = hidden8_model()
    steps = pipeline.fit(bufs, model, cfg)
    assert inspect.isgenerator(steps) and not model.velocity  # no step runs before its report is asked for
    fitted = [r.to_json_dict() for r in steps]
    reference = hidden8_model()
    by_hand = [r.to_json_dict() for r in hand_loop(bufs, reference, cfg)]
    assert len(fitted) == cfg.max_steps and fitted == by_hand
    assert parameter_bytes(model) == parameter_bytes(reference) != parameter_bytes(hidden8_model())
    assert sum(sum(r["acn_pos"]) + sum(r["acn_neg"]) for r in fitted) > 0  # both heads trained


def test_evaluate_is_the_hand_composition_of_inference_and_scoring():
    model, cfg, records = hidden8_model(), pipeline.TrainConfig(), two_annotated_videos()
    eval_cfg = evalkit.EvalConfig(tiou_thresholds=(0.1, 0.5), proposal_budget=5, ar_tiou_grid=(0.1, 0.3, 0.5))
    dets = [d for r in records.values() for d in pipeline.infer_video(r, model, cfg)]
    gts = {vid: [(a.segment(), a.label) for a in r.annotations] for vid, r in records.items()}
    alone = evalkit.evaluate_detections(dets, gts, eval_cfg)
    props = {vid: pipeline.propose_video(r, model, cfg) for vid, r in records.items()}
    ar = evalkit.average_recall(props, {vid: [seg for seg, _ in v] for vid, v in gts.items()}, 5, (0.1, 0.3, 0.5))
    assert alone.ar_at_budget is None and alone.map_per_threshold[0.1] > 0 and ar > 0
    report = pipeline.evaluate(records, model, cfg, eval_cfg)
    assert report.to_json_dict() == {**alone.to_json_dict(), "ar_at_budget": ar}


def test_evaluate_walks_each_video_once(monkeypatch):
    # detections and proposals come from one pass over each video's forward windows
    model, cfg, records = hidden8_model(), pipeline.TrainConfig(), two_annotated_videos()
    calls = []
    generate_proposals = heads.generate_proposals
    monkeypatch.setattr(heads, "generate_proposals", lambda *args: calls.append(1) or generate_proposals(*args))
    pipeline.evaluate(records, model, cfg, evalkit.EvalConfig())
    windows = sum(len(datakit.make_buffers(r, cfg.buffer_len, directions="forward")) for r in records.values())
    assert windows == 4 and len(calls) == windows


def test_infer_video_builds_no_proposal_objects(monkeypatch):
    def refuse(self):
        raise AssertionError("infer_video built a Proposal")

    monkeypatch.setattr(heads.Proposal, "__post_init__", refuse)
    assert pipeline.infer_video(two_annotated_videos()["w"], hidden8_model(), pipeline.TrainConfig())


def test_non_finite_loss_raises_before_any_update():
    model, cfg = small_model(), pipeline.TrainConfig(seed=5)
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    bufs = annotated_buffers()
    pipeline.train_step(bufs[0], model, cfg, grid, 0)  # non-zero velocities
    features = bufs[1].features.copy()
    features[2, 100] = np.nan
    bad = replace(bufs[1], features=features)
    before = parameter_bytes(model)
    with pytest.raises(ContractError, match=r"step 1: non-finite loss (apn|acn)_(cls|loc)\[\d\] = nan"):
        pipeline.train_step(bad, model, cfg, grid, 1)
    assert parameter_bytes(model) == before


def test_step_loss_gradients_reach_every_parameter_and_match_central_differences(monkeypatch):
    # the whole step in float64: both heads of every level under joint_loss.
    # Redrawn at O(1) scale, as test_acn_gradcheck_full_path explains: at the
    # 0.01 init, gradients fall below finite-difference resolution
    enc, pcfg = pyr.EncoderConfig(input_dim=4, hidden_dim=4), pyr.PyramidConfig()
    apn_cfg, acn_cfg = heads.ApnConfig(scales=ak.DEFAULT_SCALES, top_k=30), heads.AcnConfig(num_classes=2, fc_dim=8)
    rng = np.random.default_rng(0)
    params = nc.create_params(pipeline.Model.param_specs(enc, pcfg, apn_cfg, acn_cfg), rng)
    for p in params.values():
        p.data[...] = rng.standard_normal(p.data.shape) * 0.4
    velocity = {name: rng.standard_normal(p.data.shape) for name, p in params.items()}
    model = pipeline.Model(enc, pcfg, apn_cfg, acn_cfg, params, velocity)
    # an instance at each level's scale; instances may overlap
    acts = [datakit.Activity(8.0, 24.0, 1), datakit.Activity(120.0, 184.0, 2), datakit.Activity(30.0, 240.0, 1)]
    buf = datakit.make_buffers(datakit.VideoRecord("v", 256, acts, rng.standard_normal((4, 256))), 256, "forward")[0]
    cfg = pipeline.TrainConfig(buffer_len=256, seed=1)
    grid = ak.build_anchor_grid(256, pcfg.strides, apn_cfg.scales)
    # the classifier takes proposal geometry as fixed input, so hold the
    # proposals at the first call's; a fixed step holds the samples
    generate, first = heads.generate_proposals, []

    def pinned(*args):
        if not first:
            first.append(generate(*args))
        return first[0]

    monkeypatch.setattr(heads, "generate_proposals", pinned)

    before = parameter_bytes(model)
    loss, report = pipeline.step_loss(buf, model, cfg, grid, 3)
    assert parameter_bytes(model) == before  # no backward, no update
    assert all(n > 0 for n in report.apn_pos + report.acn_pos)  # positives on every level of both heads
    nc.backward(loss)
    for name, p in params.items():
        assert p.grad.any(), name
        flat, grad = p.data.reshape(-1), p.grad.reshape(-1)
        for i in np.random.default_rng(len(name)).choice(flat.size, size=min(3, flat.size), replace=False):
            orig, errors = flat[i], []
            for h in (1e-5, 1e-6, 1e-7):  # a retry at h/10 and h/100 steps off a relu or max-pool kink
                flat[i] = orig + h
                up = pipeline.step_loss(buf, model, cfg, grid, 3)[0].item()
                flat[i] = orig - h
                down = pipeline.step_loss(buf, model, cfg, grid, 3)[0].item()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                errors.append(abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8))
                if errors[-1] < 1e-4:
                    break
            assert errors[-1] < 1e-4, (name, i, grad[i], errors)


@pytest.mark.parametrize("buffer_len,scales", [
    (384, ak.DEFAULT_SCALES),
    (1536, ak.DEFAULT_SCALES),
    (768, ((1, 2), (3, 4), (5, 6))),
    (768, ak.DEFAULT_SCALES[:2]),
    (768, ak.DEFAULT_SCALES + ((8, 12),)),
])
def test_grid_of_other_maps_raises_before_any_update(buffer_len, scales):
    model, cfg = small_model(), pipeline.TrainConfig(seed=5)
    bufs = annotated_buffers()
    pipeline.train_step(bufs[0], model, cfg, ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides,
                                                                  model.apn_cfg.scales), 0)  # non-zero velocities
    grid = ak.build_anchor_grid(buffer_len, (8, 16, 32, 64)[:len(scales)], scales)
    before = parameter_bytes(model)
    with pytest.raises(ContractError, match="anchor grid"):
        pipeline.train_step(bufs[1], model, cfg, grid, 1)
    assert parameter_bytes(model) == before


def test_checkpoint_round_trip_then_step_is_byte_identical(tmp_path):
    cfg = pipeline.TrainConfig(seed=5)
    model, bufs = small_model(), annotated_buffers()
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    for step in range(2):
        pipeline.train_step(bufs[step % 2], model, cfg, grid, step)
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, model, cfg, 2)
    loaded, loaded_cfg, step = pipeline.load_checkpoint(path)
    assert step == 2 and loaded_cfg == cfg
    assert all(p.data.dtype == loaded.velocity[n].dtype == np.float32 for n, p in loaded.params.items())
    reports = [pipeline.train_step(bufs[0], m, loaded_cfg, grid, step).to_json_dict() for m in (model, loaded)]
    assert json.dumps(reports[0]) == json.dumps(reports[1]) and sum(reports[0]["acn_pos"]) + sum(reports[0]["acn_neg"]) > 0
    assert parameter_bytes(loaded) == parameter_bytes(model)


def test_joint_loss_weights_levels_by_gamma_and_lambda():
    weights = pipeline.LossWeights(gamma=(1.0, 2.0, 0.5), lam=(3.0, 1.0, 4.0))
    leaf = {name: Tensor(np.array(v), requires_grad=True) for name, v in
            [("apn_cls0", 1.0), ("apn_loc0", 2.0), ("apn_cls1", 3.0), ("acn_cls0", 0.5), ("acn_loc1", 4.0),
             ("acn_cls2", 1.0), ("acn_loc2", 0.25)]}
    apn = [(leaf["apn_cls0"], leaf["apn_loc0"]), (leaf["apn_cls1"], None), (None, None)]
    acn = [(leaf["acn_cls0"], None), (None, leaf["acn_loc1"]), (leaf["acn_cls2"], leaf["acn_loc2"])]
    total = pipeline.joint_loss(apn, acn, weights)
    # gamma_k * (cls + lam_k * loc) per head and level; missing terms count 0
    assert total.item() == 1.0 * (1.0 + 3.0 * 2.0) + 2.0 * 3.0 + 1.0 * 0.5 + 2.0 * (1.0 * 4.0) + 0.5 * (1.0 + 4.0 * 0.25)
    nc.backward(total)
    grads = {name: t.grad.item() for name, t in leaf.items()}
    assert grads == {"apn_cls0": 1.0, "apn_loc0": 3.0, "apn_cls1": 2.0, "acn_cls0": 1.0, "acn_loc1": 2.0,
                     "acn_cls2": 0.5, "acn_loc2": 2.0}
    with pytest.raises(ContractError, match="no sampled terms"):
        pipeline.joint_loss([(None, None)] * 3, [(None, None)] * 3, weights)
    for num_levels in (1, 2, 4):  # extra weights are not ignored, and missing ones raise no IndexError
        with pytest.raises(ConfigError, match="loss weights"):
            pipeline.joint_loss(apn[:1] * num_levels, acn[:1] * num_levels, weights)


def four_level_model():
    return pipeline.Model.build(pyr.EncoderConfig(input_dim=4, hidden_dim=4), pyr.PyramidConfig(num_levels=4),
                                heads.ApnConfig(scales=ak.DEFAULT_SCALES + ((8, 12),)),
                                heads.AcnConfig(num_classes=2, fc_dim=8), seed=0)


def test_level_count_without_loss_weights_raises_before_any_update():
    model = four_level_model()
    cfg = pipeline.TrainConfig(seed=5)
    assert len(cfg.loss_weights.gamma) == 3
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    before = parameter_bytes(model)
    with pytest.raises(ConfigError, match=r"3 \(gamma, lambda\) loss weights for 4 pyramid levels"):
        pipeline.train_step(annotated_buffers()[0], model, cfg, grid, 0)
    assert parameter_bytes(model) == before and model.velocity == {}  # no update, so no velocity created


@pytest.mark.parametrize("value", [1.5, -0.5, float("nan"), True, np.float32(0.5), "0.5"])
@pytest.mark.parametrize("field", ["apn_pos_fraction", "acn_pos_fraction"])
def test_train_config_rejects_sampling_fractions_outside_unit_interval(field, value):
    with pytest.raises(ConfigError, match=field):
        pipeline.TrainConfig(**{field: value})
    pipeline.TrainConfig(**{field: 0.0})
    pipeline.TrainConfig(**{field: 1.0})


@pytest.mark.parametrize("kw", [{"sgd": None}, {"sgd": {"learning_rate": 1e-3}}, {"loss_weights": None},
                                {"loss_weights": {"gamma": (1.0,), "lam": (1.0,)}}], ids=_shown)
def test_train_config_requires_an_sgd_config_and_loss_weights(kw):
    # each constructed and saved a checkpoint that load_checkpoint refused
    with pytest.raises(ConfigError, match="sgd must be an SgdConfig and loss_weights a LossWeights"):
        pipeline.TrainConfig(**kw)


def huge_int_id(value):
    """A test id for an int too long to write in decimal; the default otherwise."""
    return f"{value.bit_length()}-bit int" if type(value) is int and value.bit_length() > 64 else None


@pytest.mark.parametrize("field,value", [
    *((field, v) for field in ("max_steps", "buffer_len", "apn_batch", "acn_batch", "checkpoint_every", "seed")
      for v in (float("nan"), 2.5, 768.0, True)),
    ("seed", -1),
    ("max_steps", 2 ** 63), ("max_steps", 10 ** 5000), ("seed", -10 ** 5000),
], ids=huge_int_id)
def test_train_config_rejects_counts_and_seeds_that_are_not_ints(field, value):
    # buffer_len=768.0 constructed, then make_buffers raised a bare TypeError;
    # seed=-1 failed at the first draw with numpy's ValueError; max_steps=2**63
    # and 10**5000 constructed, and save_checkpoint then failed on the second
    # in json.dumps; seed=-10**5000 raised ValueError while writing its message
    with pytest.raises(ConfigError, match=field):
        pipeline.TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf"), True, np.float32(0.5), "0.5",
                                   10 ** 5000], ids=huge_int_id)  # 10**5000 raised ValueError while writing its message
@pytest.mark.parametrize("field", ["gamma", "lam"])
def test_loss_weights_reject_non_positive_and_non_finite_values(field, value):
    weights = {"gamma": (1.0, 1.0, 1.0), "lam": (1.0, 1.0, 1.0)}
    weights[field] = (1.0, value, 1.0)
    with pytest.raises(ConfigError, match=rf"loss weights {field}.*\(0, inf\)"):
        pipeline.LossWeights(**weights)


@pytest.mark.parametrize("value", [1.0, None, "111", {1.0: 1}, np.ones(3)], ids=repr)
@pytest.mark.parametrize("field", ["gamma", "lam"])
def test_loss_weights_must_be_tuples_or_lists(field, value):
    # a number or None raised a bare TypeError; an array constructed
    weights = {"gamma": (1.0, 1.0, 1.0), "lam": [1.0, 1.0, 1.0]}
    weights[field] = value
    with pytest.raises(ConfigError, match="gamma and lambda must be equal-length tuples or lists"):
        pipeline.LossWeights(**weights)


def test_buffer_length_is_limited_by_the_model_only():
    # 40 frames is no multiple of a 3-level model's largest stride, 32, but a
    # 1-level model (stride 8) takes such buffers
    acts = [datakit.Activity(10.0, 30.0, 1), datakit.Activity(50.0, 75.0, 2)]
    rec = datakit.VideoRecord("v", 100, acts, np.random.default_rng(9).standard_normal((4, 100)))
    bufs = datakit.make_buffers(rec, 40)
    assert [b.frame_offset for b in bufs] == [0, 40, 80, 60, 20, 0] and all(b.features.shape == (4, 40) for b in bufs)
    model = pipeline.Model.build(pyr.EncoderConfig(input_dim=4, hidden_dim=4), pyr.PyramidConfig(num_levels=1),
                                 heads.ApnConfig(scales=((1, 2, 3, 4),)), heads.AcnConfig(num_classes=2, fc_dim=8), seed=0)
    cfg = pipeline.TrainConfig(buffer_len=40, seed=1, loss_weights=pipeline.LossWeights(gamma=(1.0,), lam=(1.0,)))
    grid = ak.build_anchor_grid(40, model.pyramid_cfg.strides, model.apn_cfg.scales)
    report = pipeline.train_step(bufs[0], model, cfg, grid, 0)
    assert math.isfinite(report.total_loss) and sum(report.acn_pos) + sum(report.acn_neg) > 0
    dets = pipeline.infer_video(rec, model, cfg)
    assert dets and all(0.0 <= d.segment.start < d.segment.end <= 100.0 for d in dets)
    assert not any(d.segment.start < b < d.segment.end for d in dets for b in (40, 80))
    with pytest.raises(ConfigError, match="divisible"):
        pipeline.infer_video(rec, small_model(), pipeline.TrainConfig(buffer_len=100))


def test_checkpoint_round_trip(tmp_path):
    model, cfg = small_model(), pipeline.TrainConfig(seed=3)
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, model, cfg, 17)
    loaded, loaded_cfg, step = pipeline.load_checkpoint(path)
    assert step == 17 and loaded_cfg == cfg
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)
    # int() saved 2.5 as step 2, and -1 as a step that loaded
    for bad in (-1, 2.5, True):
        with pytest.raises(ContractError, match="checkpoint step"):
            pipeline.save_checkpoint(tmp_path / "bad.tfpm", model, cfg, bad)
    assert not (tmp_path / "bad.tfpm").exists()


def test_checkpoint_without_loss_weights_per_level_raises_data_error(tmp_path):
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, four_level_model(), pipeline.TrainConfig(), 0)
    with pytest.raises(DataError, match=r"3 \(gamma, lambda\) loss weights for 4 pyramid levels"):
        pipeline.load_checkpoint(path)
    cfg = pipeline.TrainConfig(loss_weights=pipeline.LossWeights(gamma=(1.0,) * 4, lam=(1.0,) * 4))
    pipeline.save_checkpoint(path, four_level_model(), cfg, 0)
    assert pipeline.load_checkpoint(path)[1] == cfg


def test_configs_built_from_valid_values_load_back_equal(tmp_path):
    # an int in a float field and lists in tuple fields: the lists were
    # unhashable, and their checkpoint loaded to an unequal config
    encoder, pyramid_cfg = pyr.EncoderConfig(input_dim=3, hidden_dim=6), pyr.PyramidConfig(variant="max", num_levels=2)
    apn = heads.ApnConfig(scales=[[1, 3], [2]], pos_tiou=1, neg_tiou=0.25, nms_tiou=0.5, top_k=7)
    acn = heads.AcnConfig(num_classes=4, strategy="s2", use_context=False, roi_bins=2, fc_dim=5, fg_tiou=0.6,
                          nms_tiou=1, score_thresh=0)
    train = pipeline.TrainConfig(sgd=nc.SgdConfig(learning_rate=2, momentum=0.5, weight_decay=0, lr_decay_factor=0.5,
                                                  lr_decay_every=7),
                                 max_steps=9, buffer_len=64, apn_batch=8, apn_pos_fraction=1, acn_batch=4,
                                 acn_pos_fraction=0.75, seed=11, loss_weights=pipeline.LossWeights(gamma=[1, 0.5], lam=[2, 3]),
                                 checkpoint_every=3)
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, pipeline.Model.build(encoder, pyramid_cfg, apn, acn, seed=1), train, 4)
    loaded, loaded_train, step = pipeline.load_checkpoint(path)
    assert step == 4
    for cfg, got in ((encoder, loaded.encoder_cfg), (pyramid_cfg, loaded.pyramid_cfg), (apn, loaded.apn_cfg),
                     (acn, loaded.acn_cfg), (train, loaded_train)):
        assert got == cfg and hash(got) == hash(cfg)
    assert apn.scales == ((1, 3), (2,)) and train.loss_weights.gamma == (1.0, 0.5)


def test_truncated_checkpoint_raises_data_error(tmp_path):
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, small_model(), pipeline.TrainConfig(), 5)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    # inside the magic, the header, the first payload and the last payload
    for cut in (3, 20, 200, 12 + hlen - 1, 12 + hlen + 5, len(raw) - 8):
        bad = tmp_path / f"cut{cut}.tfpm"
        bad.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            pipeline.load_checkpoint(bad)


def rewrite_header(raw: bytes, edit) -> bytes:
    """A TFPM file with ``edit(header)`` applied to its JSON header; ``edit``
    returns the number of payload bytes to cut from the end, or None.  An
    emptied header is written as a JSON list."""
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + hlen])
    cut = edit(header) or 0
    hb = json.dumps(header if header else []).encode("utf-8")
    payload = raw[12 + hlen :]
    return raw[:8] + len(hb).to_bytes(4, "little") + hb + payload[: len(payload) - cut]


def drop_last_parameter(header):
    """Drop the last name and cut its values and velocity from the payload."""
    name = header["params"].pop()
    return 16 * small_model().params[name].data.size


def swap_first_two_parameters(header):
    names = header["params"]
    names[0], names[1] = names[1], names[0]


def set_config_field(section: str, field: str, value):
    """An edit setting ``configs.<section>.<field>``; ``section`` may be
    dotted for nested configs."""
    def edit(header):
        cfg = header["configs"]
        for key in section.split("."):
            cfg = cfg[key]
        cfg[field] = value
    return edit


# Values of the wrong JSON type: each raised a bare TypeError, or loaded,
# before configs were decoded field by field from their annotations.  The
# decoder now passes every scalar to the config's constructor, which
# rejects each of them.  The dims are the saved values of small_model(),
# written as floats.
UNTYPED_CONFIG_VALUES = [
    ("encoder", "hidden_dim", 4.0), ("encoder", "input_dim", 4.0), ("acn", "roi_bins", 4.0),
    ("acn", "fc_dim", 8.0), ("acn", "num_classes", 2.0), ("acn", "use_context", "no"), ("apn", "top_k", 100.0),
    ("train.sgd", "lr_decay_every", 1.5), ("train", "seed", "x"), ("train", "seed", 1.5),
    ("train", "max_steps", True), ("train.sgd", "learning_rate", True),
    ("train.loss_weights", "gamma", [True, 1.0, 1.0]),
]

HEADER_EDITS = {
    "missing configs": lambda h: h.__delitem__("configs"),
    "unknown config field": lambda h: h["configs"]["acn"].update(dropout=0.5),
    "missing config field": lambda h: h["configs"]["acn"].__delitem__("fc_dim"),
    "config of the wrong type": lambda h: h["configs"]["encoder"].update(hidden_dim="4"),
    "configs that do not fit together": lambda h: h["configs"]["apn"].update(scales=[[1, 2]]),
    "step not an int": lambda h: h.update(step="17"),
    "step a float": lambda h: h.update(step=17.0),
    "step negative": lambda h: h.update(step=-1),
    "params not a list": lambda h: h.update(params={"a": 1}),
    "header not an object": lambda h: h.clear(),
    "header keeps the v1 seed": lambda h: h.update(seed=0),
    "manifest drops a parameter": drop_last_parameter,
    "params reordered": swap_first_two_parameters,
    "parameter name not a string": lambda h: h["params"].__setitem__(0, []),
    "parameter name an object": lambda h: h["params"].__setitem__(0, {"a": 1}),
    "pyramid keeps the v2 strides": set_config_field("pyramid", "strides", [8, 16, 32]),
    # loaded before sampling fractions were checked, then failed mid-step
    "apn_pos_fraction above 1": set_config_field("train", "apn_pos_fraction", 1.5),
    # both loaded before tuple items were typed: the nested scales then made
    # infer_video raise a bare ValueError, and the float scales ran
    "scales nested one level deeper": set_config_field("apn", "scales", [[[x] for x in s] for s in ak.DEFAULT_SCALES]),
    "float scales": set_config_field("apn", "scales", [[float(x) for x in s] for s in ak.DEFAULT_SCALES]),
    **{f"configs.{section}.{field} = {value!r}": set_config_field(section, field, value)
       for section, field, value in UNTYPED_CONFIG_VALUES},
    # each sequence field as a number, a string, an object, null or a list
    # holding a non-number; configs now take the lists, as JSON gives them
    **{f"configs.{section}.{field} = {value!r}": set_config_field(section, field, value)
       for section, field in (("apn", "scales"), ("train.loss_weights", "gamma"), ("train.loss_weights", "lam"))
       for value in (1, 1.5, "1", {"a": 1}, None, [[1, "x"]], ["1"], [True], [[]], [None, 1.0, 1.0], [[1], [2], {}])},
}


@pytest.mark.parametrize("case", sorted(HEADER_EDITS))
def test_malformed_checkpoint_header_raises_data_error(tmp_path, case):
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, small_model(), pipeline.TrainConfig(), 17)
    bad = tmp_path / "bad.tfpm"
    bad.write_bytes(rewrite_header(path.read_bytes(), HEADER_EDITS[case]))
    with pytest.raises(DataError):
        pipeline.load_checkpoint(bad)


def test_rewritten_but_unchanged_header_still_loads(tmp_path):
    path = tmp_path / "m.tfpm"
    model = small_model()
    pipeline.save_checkpoint(path, model, pipeline.TrainConfig(), 17)
    path.write_bytes(rewrite_header(path.read_bytes(), lambda h: None))
    loaded, _, step = pipeline.load_checkpoint(path)
    assert step == 17 and list(loaded.params) == list(model.params)


@pytest.mark.parametrize("edit,match", [
    (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:], "unsupported checkpoint version 1"),
    (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:], "unsupported checkpoint version 2"),
    # version 3 held the same arrays as f64
    (lambda raw: raw[:4] + (3).to_bytes(4, "little") + raw[8:], "unsupported checkpoint version 3"),
    (lambda raw: raw[:-4], "payload has"),
    (lambda raw: raw + bytes(4), "payload has"),
], ids=["version 1 file", "version 2 file", "version 3 file", "payload one f32 short", "payload one f32 long"])
def test_checkpoint_of_another_version_or_size_raises_data_error(tmp_path, edit, match):
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, small_model(), pipeline.TrainConfig(), 17)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DataError, match=match):
        pipeline.load_checkpoint(path)


def test_save_load_save_gives_identical_bytes(tmp_path):
    cfg = pipeline.TrainConfig(seed=5)
    model, bufs = small_model(), annotated_buffers()
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    pipeline.train_step(bufs[0], model, cfg, grid, 0)  # non-zero velocities
    first, second = tmp_path / "a.tfpm", tmp_path / "b.tfpm"
    pipeline.save_checkpoint(first, model, cfg, 1)
    pipeline.save_checkpoint(second, *pipeline.load_checkpoint(first))
    raw = first.read_bytes()
    assert second.read_bytes() == raw
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + hlen])
    assert sorted(header) == ["configs", "params", "step"] and header["params"] == list(model.params)
    assert sorted(header["configs"]["pyramid"]) == ["num_levels", "variant"]  # strides are derived
    # per parameter in param_specs order: its values, then its velocity
    assert raw[12 + hlen :] == b"".join(p.data.astype("<f4").tobytes() + model.velocity[n].astype("<f4").tobytes()
                                        for n, p in model.params.items())


def test_float64_model_loads_as_the_float32_rounding_of_its_values(tmp_path):
    model = small_model()
    specs = pipeline.Model.param_specs(model.encoder_cfg, model.pyramid_cfg, model.apn_cfg, model.acn_cfg)
    model.params = nc.create_params(specs, np.random.default_rng(4))  # float64
    rng = np.random.default_rng(5)
    model.velocity = {name: rng.standard_normal(p.shape) for name, p in model.params.items()}
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, model, pipeline.TrainConfig(), 3)
    loaded = pipeline.load_checkpoint(path)[0]
    for name, p in model.params.items():
        for got, wide in ((loaded.params[name].data, p.data), (loaded.velocity[name], model.velocity[name])):
            assert got.dtype == np.float32 and np.array_equal(got, wide.astype(np.float32))
    assert any(not np.array_equal(loaded.params[n].data, p.data) for n, p in model.params.items())  # rounded
