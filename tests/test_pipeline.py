import json

import numpy as np
import pytest

from tfpdet import anchorkit as ak, datakit, heads, numcore as nc, pipeline, pyramid as pyr
from tfpdet.errors import ContractError, DataError
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
    return datakit.VideoRecord("v", num_frames, [], Tensor(features))


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


def infer_video_taped(record, model, cfg):
    """``infer_video`` run on the gradient-requiring parameters, recording
    the autograd graph of every window."""
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    dets = []
    for buf in datakit.make_buffers(record, cfg.buffer_len, directions="forward"):
        pyramid_out = model.forward_pyramid(buf.features, model.params)
        proposals = heads.generate_proposals(heads.apn_forward(pyramid_out, model.params), grid,
                                             model.apn_cfg.nms_tiou, model.apn_cfg.top_k)
        if not proposals:
            continue
        acn_out = heads.acn_forward(pyramid_out, proposals, model.acn_cfg, model.params, float(cfg.buffer_len))
        assert all(cls.requires_grad for _, cls, _ in acn_out)
        dets.extend(heads.finalize_detections(acn_out, proposals, model.acn_cfg, buf,
                                              model.acn_cfg.nms_tiou, model.acn_cfg.score_thresh))
    return heads.nms_detections(dets, model.acn_cfg.nms_tiou)


def parameter_bytes(model):
    return {n: (p.data.tobytes(), p.tensor.grad.tobytes(), p.velocity.tobytes()) for n, p in model.params.items()}


def test_infer_video_records_no_graph_and_equals_a_taped_forward(monkeypatch):
    model, cfg, rec = small_model(), pipeline.TrainConfig(), two_window_video()
    rng = np.random.default_rng(6)
    for p in model.params.values():
        p.tensor.grad = rng.standard_normal(p.data.shape)  # as if mid-accumulation
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


def annotated_buffers():
    """Both windows of a fixed-seed 1,200-frame video with three activities."""
    acts = [datakit.Activity(40.0, 120.0, 1), datakit.Activity(300.0, 420.0, 2), datakit.Activity(900.0, 960.0, 1)]
    features = np.random.default_rng(8).standard_normal((4, 1200))
    return datakit.make_buffers(datakit.VideoRecord("v", 1200, acts, Tensor(features)), 768)


def test_same_seed_training_is_byte_identical():
    cfg = pipeline.TrainConfig(seed=5)
    runs = []
    for _ in range(2):
        model, bufs = small_model(), annotated_buffers()
        grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
        reports = [pipeline.train_step(bufs[step % len(bufs)], model, cfg, grid, step).to_json_dict() for step in range(3)]
        runs.append((reports, {n: (p.data.tobytes(), p.velocity.tobytes()) for n, p in model.params.items()}))
    assert runs[0] == runs[1]
    assert sum(sum(r["acn_pos"]) + sum(r["acn_neg"]) for r in runs[0][0]) > 0  # both heads trained


def test_non_finite_loss_raises_before_any_update():
    model, cfg = small_model(), pipeline.TrainConfig(seed=5)
    grid = ak.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    bufs = annotated_buffers()
    pipeline.train_step(bufs[0], model, cfg, grid, 0)  # non-zero velocities
    features = bufs[1].features.data.copy()
    features[2, 100] = np.nan
    bad = datakit.Buffer(bufs[1].video_id, bufs[1].frame_offset, bufs[1].direction, Tensor(features),
                         bufs[1].annotations, bufs[1].num_valid)
    before = parameter_bytes(model)
    with pytest.raises(ContractError, match=r"step 1: non-finite loss (apn|acn)_(cls|loc)\[\d\] = nan"):
        pipeline.train_step(bad, model, cfg, grid, 1)
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


def test_checkpoint_round_trip(tmp_path):
    model, cfg = small_model(), pipeline.TrainConfig(seed=3)
    path = tmp_path / "m.tfpm"
    pipeline.save_checkpoint(path, model, cfg, 17)
    loaded, loaded_cfg, step = pipeline.load_checkpoint(path)
    assert step == 17 and loaded_cfg == cfg
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)


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
    value, velocity = header["params"][-2:]
    del header["params"][-2:]
    return 8 * (int(np.prod(value["shape"])) + int(np.prod(velocity["shape"])))


def reshape_first_parameter(header):
    header["params"][0]["shape"] = header["params"][0]["shape"][::-1]  # same size, other shape
    header["params"][1]["shape"] = header["params"][1]["shape"][::-1]


def swap_value_and_velocity(header):
    header["params"][0], header["params"][1] = header["params"][1], header["params"][0]
    header["params"][0]["init_spec"] = header["params"][1].pop("init_spec")


def list_a_velocity_twice(header):
    header["params"][-1] = dict(header["params"][-3])  # the previous parameter's velocity


HEADER_EDITS = {
    "missing configs": lambda h: h.__delitem__("configs"),
    "unknown config field": lambda h: h["configs"]["acn"].update(dropout=0.5),
    "config of the wrong type": lambda h: h["configs"]["encoder"].update(hidden_dim="4"),
    "configs that do not fit together": lambda h: h["configs"]["apn"].update(scales=[[1, 2]]),
    "step not an int": lambda h: h.update(step="17"),
    "step a float": lambda h: h.update(step=17.0),
    "params not a list": lambda h: h.update(params={"a": 1}),
    "header not an object": lambda h: h.clear(),
    "manifest drops a parameter": drop_last_parameter,
    "manifest reshapes a parameter": reshape_first_parameter,
    "velocity before its values": swap_value_and_velocity,
    "velocity listed twice": list_a_velocity_twice,
    "unknown parameter kind": lambda h: h["params"][1].update(kind="momentum"),
    "parameter name not a string": lambda h: h["params"][0].update(name=[]),
    "parameter name an object": lambda h: h["params"][0].update(name={"a": 1}),
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
