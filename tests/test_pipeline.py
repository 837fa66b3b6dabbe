import numpy as np
import pytest

from tfpdet import anchorkit as ak, heads, pipeline, pyramid as pyr
from tfpdet.errors import DataError


def small_model():
    return pipeline.Model.build(
        pyr.EncoderConfig(input_dim=4, hidden_dim=4),
        pyr.PyramidConfig(),
        heads.ApnConfig(scales=ak.DEFAULT_SCALES),
        heads.AcnConfig(num_classes=2, fc_dim=8),
        seed=0,
    )


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
