import numpy as np
import pytest

from tfpdet import anchorkit as ak, datakit, heads, pipeline, pyramid as pyr
from tfpdet.errors import DataError
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
