"""Every file boundary either loads or raises ``DataError``: any truncation
or single-byte change of a TFPM checkpoint, a TFPV feature file, an
annotation file or a label index."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfpdet import datakit, heads, pipeline, pyramid
from tfpdet.errors import DataError


def write_checkpoint(path):
    model = pipeline.Model.build(
        pyramid.EncoderConfig(input_dim=2, hidden_dim=2),
        pyramid.PyramidConfig(variant="max", num_levels=1),
        heads.ApnConfig(scales=((1, 2),)),
        heads.AcnConfig(num_classes=1, fc_dim=2),
        seed=0,
    )
    cfg = pipeline.TrainConfig(loss_weights=pipeline.LossWeights((1.0,), (1.0,)))  # one level, so the file loads
    pipeline.save_checkpoint(path, model, cfg, 3)


def write_annotations(path):
    records = {
        "a": datakit.VideoRecord("a", 64, [datakit.Activity(8.0, 24.0, 1), datakit.Activity(30.0, 40.0, 2)],
                                 fps=8.0, subset="train"),
        "b": datakit.VideoRecord("b", 32, [], fps=4.0, subset="val"),
    }
    datakit.save_annotations(records, path, ["jump", "run"])


FORMATS = {
    "tfpm": (write_checkpoint, pipeline.load_checkpoint),
    "tfpv": (lambda path: datakit.save_features(np.arange(24.0).reshape(3, 8), path), datakit.load_features),
    "annotations": (write_annotations, datakit.load_annotations),
    "labels": (lambda path: datakit.save_label_index(["jump", "run"], path), datakit.load_label_index),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Per format: the path mutated files are written to, the loader and
    the bytes of a valid file, which loads."""
    out = {}
    for name, (write, load) in FORMATS.items():
        path = tmp_path_factory.mktemp(name) / "file"
        write(path)
        load(path)
        out[name] = (path, load, path.read_bytes())
    return out


def mutations(n: int):
    """A truncation to fewer than ``n`` bytes, or one byte of ``n`` replaced."""
    truncate = st.integers(0, n - 1).map(lambda cut: lambda raw: raw[:cut])
    replace = st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(
        lambda ib: lambda raw: raw[: ib[0]] + bytes([ib[1]]) + raw[ib[0] + 1 :])
    return st.one_of(truncate, replace)


@pytest.mark.parametrize("fmt", ["annotations", "labels", "tfpm"])
def test_deeply_nested_json_raises_data_error(tmp_path, fmt):
    nested = b"[" * 100_000  # deeper than json.loads can recurse
    if fmt == "tfpm":
        nested = pipeline.CHECKPOINT_MAGIC + struct.pack("<II", pipeline.CHECKPOINT_VERSION, len(nested)) + nested
    path = tmp_path / "file"
    path.write_bytes(nested)
    with pytest.raises(DataError, match="JSON"):
        FORMATS[fmt][1](path)


HUGE_INT = b"1" + b"0" * 5000  # json.loads refuses an int of more than 4,300 digits
HUGE_INT_DOCS = {
    "annotations": b'{"version": 1, "database": {"a": {"fps": 8.0, "num_frames": ' + HUGE_INT
                   + b', "subset": "train", "annotations": []}}}',
    "labels": b'{"labels": [' + HUGE_INT + b"]}",
    "tfpm": b'{"configs": {}, "params": [], "step": ' + HUGE_INT + b"}",
}


@pytest.mark.parametrize("fmt", sorted(HUGE_INT_DOCS))
def test_json_holding_an_int_of_over_4300_digits_raises_data_error(tmp_path, fmt):
    # each raised json.loads' bare ValueError
    doc = HUGE_INT_DOCS[fmt]
    if fmt == "tfpm":
        doc = pipeline.CHECKPOINT_MAGIC + struct.pack("<II", pipeline.CHECKPOINT_VERSION, len(doc)) + doc
    path = tmp_path / "file"
    path.write_bytes(doc)
    with pytest.raises(DataError, match="4300 digits"):
        FORMATS[fmt][1](path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_data_error(originals, fmt, data):
    path, load, raw = originals[fmt]
    path.write_bytes(data.draw(mutations(len(raw)))(raw))
    try:
        load(path)
    except DataError:
        pass
