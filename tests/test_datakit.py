import hashlib
import json
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from tfpdet import datakit as dk
from tfpdet.errors import ConfigError, ContractError, DataError, _shown
from tfpdet.numcore import Tensor

from oracles import band_cdf_ref, sample_instance_length_ref
from test_digest import load_digest


def write_annotations(tmp_path, database):
    p = tmp_path / "ann.json"
    p.write_text(json.dumps({"version": 1, "database": database}))
    return p


def video_entry(fps=8.0, num_frames=64, subset="train", annotations=()):
    return {"fps": fps, "num_frames": num_frames, "subset": subset, "annotations": list(annotations)}


# ---------------------------------------------------------------------------
# annotation loading


def test_load_converts_seconds_to_frames(tmp_path):
    p = write_annotations(
        tmp_path,
        {"v1": video_entry(fps=8.0, annotations=[{"segment": [1.0, 3.0], "label": "A"}])},
    )
    records, labels = dk.load_annotations(p)
    assert labels == ["A"]
    a = records["v1"].annotations[0]
    assert (a.t_start, a.t_end, a.label) == (8.0, 24.0, 1)


def test_load_empty_annotation_list_is_valid(tmp_path):
    p = write_annotations(tmp_path, {"v1": video_entry()})
    records, labels = dk.load_annotations(p)
    assert records["v1"].annotations == ()
    assert labels == []


def test_load_duplicate_video_id_rejected(tmp_path):
    p = tmp_path / "ann.json"
    entry = json.dumps(video_entry())
    p.write_text('{"version": 1, "database": {"v1": %s, "v1": %s}}' % (entry, entry))
    with pytest.raises(DataError, match="duplicate"):
        dk.load_annotations(p)


def test_load_missing_field_names_video(tmp_path):
    p = write_annotations(tmp_path, {"v9": {"fps": 8.0, "num_frames": 64, "subset": "train"}})
    with pytest.raises(DataError, match="v9.*annotations"):
        dk.load_annotations(p)


def test_load_non_increasing_segment(tmp_path):
    p = write_annotations(
        tmp_path, {"v1": video_entry(annotations=[{"segment": [3.0, 3.0], "label": "A"}])}
    )
    with pytest.raises(DataError, match="non-increasing"):
        dk.load_annotations(p)


def test_load_unknown_label_with_fixed_index(tmp_path):
    p = write_annotations(
        tmp_path, {"v1": video_entry(annotations=[{"segment": [1.0, 2.0], "label": "Z"}])}
    )
    with pytest.raises(DataError, match="unknown label"):
        dk.load_annotations(p, label_index=["A", "B"])


def test_label_ids_follow_sorted_index(tmp_path):
    p = write_annotations(
        tmp_path,
        {
            "v1": video_entry(
                annotations=[
                    {"segment": [0.5, 1.0], "label": "zeta"},
                    {"segment": [2.0, 3.0], "label": "alpha"},
                ]
            )
        },
    )
    records, labels = dk.load_annotations(p)
    assert labels == ["alpha", "zeta"]
    assert [a.label for a in records["v1"].annotations] == [2, 1]


def test_annotations_roundtrip_identity(tmp_path):
    p = write_annotations(
        tmp_path,
        {
            "v1": video_entry(fps=4.0, num_frames=768, annotations=[{"segment": [2.5, 30.0], "label": "B"}]),
            "v2": video_entry(fps=4.0, num_frames=768, subset="val", annotations=[{"segment": [10.0, 12.25], "label": "A"}]),
        },
    )
    records, labels = dk.load_annotations(p)
    out = tmp_path / "out.json"
    dk.save_annotations(records, out, labels)
    records2, labels2 = dk.load_annotations(out)
    assert labels2 == labels
    for vid in records:
        a1 = [(a.t_start, a.t_end, a.label) for a in records[vid].annotations]
        a2 = [(a.t_start, a.t_end, a.label) for a in records2[vid].annotations]
        assert a1 == a2
        assert records2[vid].fps == records[vid].fps
        assert records2[vid].subset == records[vid].subset
    out2 = tmp_path / "out2.json"
    dk.save_annotations(records2, out2, labels2)
    assert out.read_bytes() == out2.read_bytes()
    # a label past the index raised a bare IndexError
    records2["v2"] = replace(records2["v2"], annotations=[dk.Activity(4.0, 8.0, 5)])
    out3 = tmp_path / "out3.json"
    with pytest.raises(ContractError, match="video 'v2': label 5"):
        dk.save_annotations(records2, out3, labels2)
    assert not out3.exists()


@pytest.mark.parametrize("change", [
    {"segment": 5},
    {"segment": ["a", "b"]},
    {"segment": [None, 2]},
    {"segment": [1.0, 2.0, 3.0]},
    {"segment": [True, 2]},
    {"segment": [-1.0, 2.0]},
    {"fps": "abc"},
    {"fps": None},
    {"fps": float("nan")},
    {"num_frames": "64"},
    {"num_frames": 64.5},
    {"num_frames": 10 ** 400},
    {"annotations": "oops"},
    {"annotations": [7]},
    {"label": {"a": 1}},
    {"label": 3},
    {"label": None},
    {"version": True},
    {"version": 1.0},
    {"version": "1"},
    {"version": 2},
])
def test_load_malformed_values_raise_data_error(tmp_path, change):
    entry = video_entry(annotations=[{"segment": [1.0, 2.0], "label": "A"}])
    doc = {"version": 1, "database": {"v1": entry}}
    if "version" in change:
        doc.update(change)
    elif "segment" in change or "label" in change:
        entry["annotations"][0].update(change)
    else:
        entry.update(change)
    p = tmp_path / "ann.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version" if "version" in change else "v1"):
        dk.load_annotations(p)


def test_load_database_not_an_object(tmp_path):
    p = tmp_path / "ann.json"
    p.write_text(json.dumps({"version": 1, "database": [1, 2]}))
    with pytest.raises(DataError, match="database"):
        dk.load_annotations(p)


def test_label_index_roundtrip(tmp_path):
    dk.save_label_index(["b", "a"], tmp_path / "labels.json")
    assert dk.load_label_index(tmp_path / "labels.json") == ["a", "b"]


def test_label_index_truncated_file(tmp_path):
    p = tmp_path / "labels.json"
    dk.save_label_index(["a", "b"], p)
    p.write_bytes(p.read_bytes()[:7])
    with pytest.raises(DataError, match="JSON"):
        dk.load_label_index(p)


def test_label_index_top_level_list(tmp_path):
    p = tmp_path / "labels.json"
    p.write_text('["a", "b"]')
    with pytest.raises(DataError, match="labels"):
        dk.load_label_index(p)


def test_label_index_not_utf8(tmp_path):
    p = tmp_path / "labels.json"
    p.write_bytes(b'{"labels": ["\xff"]}')
    with pytest.raises(DataError, match="UTF-8"):
        dk.load_label_index(p)


def test_label_index_mixed_types(tmp_path):
    p = tmp_path / "labels.json"
    p.write_text('{"labels": [1, "a"]}')
    with pytest.raises(DataError, match="labels"):
        dk.load_label_index(p)


# ---------------------------------------------------------------------------
# TFPV binary


def test_tfpv_layout_fixture(tmp_path):
    p = tmp_path / "f.tfpv"
    payload = struct.pack("<6f", 1, 2, 3, 4, 5, 6)
    p.write_bytes(b"TFPV" + struct.pack("<III", 1, 2, 3) + payload)
    feats = dk.load_features(p)
    assert type(feats) is np.ndarray and np.array_equal(feats, [[1, 3, 5], [2, 4, 6]])
    assert feats.dtype == np.float32  # the file's precision, which the model computes in


def test_tfpv_zero_length_rejected(tmp_path):
    p = tmp_path / "f.tfpv"
    p.write_bytes(b"TFPV" + struct.pack("<III", 1, 2, 0))
    with pytest.raises(DataError, match="degenerate"):
        dk.load_features(p)


def test_tfpv_bad_magic(tmp_path):
    p = tmp_path / "f.tfpv"
    p.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0))
    with pytest.raises(DataError, match="magic"):
        dk.load_features(p)


def test_tfpv_truncated_payload(tmp_path):
    p = tmp_path / "f.tfpv"
    p.write_bytes(b"TFPV" + struct.pack("<III", 1, 2, 3) + struct.pack("<3f", 1, 2, 3))
    with pytest.raises(DataError, match="bytes"):
        dk.load_features(p)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tfpv_non_finite_value_rejected(tmp_path, value):
    p = tmp_path / "f.tfpv"
    p.write_bytes(b"TFPV" + struct.pack("<III", 1, 2, 3) + struct.pack("<6f", 1, 2, value, 4, 5, 6))
    with pytest.raises(DataError, match="finite"):
        dk.load_features(p)


def test_tfpv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 17)).astype(np.float32).astype(np.float64)
    p1, p2 = tmp_path / "a.tfpv", tmp_path / "b.tfpv"
    dk.save_features(arr, p1)
    loaded = dk.load_features(p1)
    assert np.array_equal(loaded, arr)
    dk.save_features(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# buffer windowing


def make_record(L, annotations=(), D=2):
    feats = np.arange(D * L, dtype=np.float64).reshape(D, L) if L else np.zeros((D, 0))
    return dk.VideoRecord("v", L, list(annotations), features=feats, fps=4.0)


@pytest.mark.parametrize("features", [Tensor(np.zeros((2, 8))), np.zeros((2, 8)).tolist(), np.zeros(8),
                                      np.zeros((1, 2, 8))], ids=["tensor", "list", "1d", "3d"])
def test_record_rejects_features_that_are_not_a_2d_array(features):
    with pytest.raises(DataError, match=r"\[D, L\] numpy array"):
        dk.VideoRecord("v", 8, [], features=features)
    with pytest.raises(DataError, match=r"\[D, L\] numpy array"):  # load_dataset's path
        replace(dk.VideoRecord("v", 8, []), features=features)


nan, inf = float("nan"), float("inf")


@pytest.mark.parametrize("make,error", [
    (lambda: dk.Activity(0, 5, 1.5), ContractError),
    (lambda: dk.Activity(0, 5, True), ContractError),
    (lambda: dk.Activity(0, 5, nan), ContractError),
    (lambda: dk.Activity(0, inf, 1), ContractError),
    (lambda: dk.Activity(2 ** 62, 2 ** 62 + 1, 1), ContractError),
    *((lambda v=v: dk.VideoRecord("v", v, []), DataError) for v in (-5, 100.5, nan, True)),
    *((lambda v=v: dk.VideoRecord("v", 100, [], fps=v), DataError) for v in (0, nan, True)),
    (lambda: dk.VideoRecord("v", 100, [], subset="x"), DataError),
    (lambda: dk.VideoRecord("v", 100, [], subset=10 ** 5000), DataError),
    (lambda: dk.VideoRecord("v", 100, [], subset=(10 ** 5000,)), DataError),
    (lambda: dk.VideoRecord(5, 100, []), DataError),
    (lambda: dk.VideoRecord(None, 100, []), DataError),
    *((lambda v=v: dk.VideoRecord("v", 10, v), DataError) for v in ([5], [dk.Activity(0, 5, 1), None], "ab", None)),
], ids=["label 1.5", "label True", "label nan", "end inf", "bounds one float64 value", "num_frames -5", "num_frames 100.5",
        "num_frames nan", "num_frames True", "fps 0", "fps nan", "fps True", "subset x", "subset huge int", "subset tuple of a huge int",
        "video_id 5", "video_id None", "annotation 5", "annotation None after an Activity", "annotations str",
        "annotations None"])
def test_records_reject_values_that_their_files_cannot_hold(make, error):
    # each constructed; a record then saved a file that load_annotations
    # refuses, or, for an int video id, one that loads back under the id "5"
    # (save_annotations raised a bare TypeError when str ids were mixed in).
    # A subset of an int of over 4,300 digits raised a bare ValueError in the
    # message.  Annotations that are not a list of Activity objects raised a
    # bare AttributeError or TypeError.  Bounds (2**62, 2**62 + 1) passed an
    # activity's own end > start test, though as float64 they are one value
    # (Segment's row rule), and reached make_buffers as a zero-length row
    with pytest.raises(error):
        make()


def test_records_and_buffers_are_frozen():
    rec = make_record(100, [dk.Activity(10.0, 20.0, 1)])
    buf = dk.make_buffers(rec, 768)[0]
    for value in (rec, buf):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))


def test_record_annotations_cannot_change_after_the_bounds_check():
    # appended to a list, this instance past the end was dropped by
    # make_buffers without a word
    rec = make_record(100, [dk.Activity(10.0, 20.0, 1)])
    assert rec.annotations == (dk.Activity(10.0, 20.0, 1),)
    with pytest.raises(AttributeError):
        rec.annotations.append(dk.Activity(150.0, 300.0, 1))
    with pytest.raises(DataError, match="exceeds 100 frames"):  # replace runs the check again
        replace(rec, annotations=[*rec.annotations, dk.Activity(150.0, 300.0, 1)])


def test_buffers_exact_fit_duplicates_directions():
    # the forward window, then its backward twin at the same offset
    bufs = dk.make_buffers(make_record(768), 768)
    assert len(bufs) == 2
    assert bufs[0].frame_offset == bufs[1].frame_offset == 0
    assert np.array_equal(bufs[0].features, bufs[1].features)


def test_buffers_window_arithmetic_for_1000_frames():
    bufs = dk.make_buffers(make_record(1024 - 24), 768)  # L = 1000
    assert [b.frame_offset for b in bufs] == [0, 768, 232, 0]  # forward windows, then backward ones
    # the short forward window is zero-padded past its valid content
    short = bufs[1]
    assert short.num_valid == 232
    assert np.all(short.features[:, 232:] == 0.0)


def padded_window(rec, offset, buf_len):
    """One window of ``rec``, copied out and zero-padded on its own."""
    out = np.zeros((rec.features.shape[0], buf_len), dtype=rec.features.dtype)
    valid = max(0, min(buf_len, rec.num_frames - offset))
    out[:, :valid] = rec.features[:, offset : offset + valid]
    return out


@pytest.mark.parametrize("L", [2 * 768, 768 + 100, 1000])  # exact fit; short tails, each with a misaligned backward window
def test_buffers_equal_per_window_padded_copies(L):
    rec = make_record(L, D=3)
    bufs = dk.make_buffers(rec, 768)
    for buf in bufs:
        assert type(buf.features) is np.ndarray and buf.features.dtype == rec.features.dtype
        assert np.array_equal(buf.features, padded_window(rec, buf.frame_offset, 768))
    assert any(b.frame_offset % 768 for b in bufs) == any(b.num_valid < 768 for b in bufs) == bool(L % 768)


def test_buffers_share_rows_and_are_read_only():
    rec = make_record(3 * 768)
    bufs = dk.make_buffers(rec, 768)
    forward = {b.frame_offset: b for b in bufs[:3]}  # forward windows first, then backward ones
    backward = bufs[3:]
    assert sorted(forward) == sorted(b.frame_offset for b in backward) == [0, 768, 1536]
    for b in backward:
        assert np.shares_memory(b.features, forward[b.frame_offset].features)
    assert not np.shares_memory(forward[0].features, forward[768].features)
    misaligned = dk.make_buffers(make_record(1000), 768)  # backward windows at 232 (a row of its own) and 0
    assert np.shares_memory(misaligned[0].features, misaligned[3].features)
    assert not any(np.shares_memory(misaligned[2].features, b.features) for b in misaligned[:2])
    for buf in bufs + misaligned:
        assert buf.features.flags["C_CONTIGUOUS"]
        with pytest.raises(ValueError, match="read-only"):
            buf.features[0, 0] = 1.0
    assert not np.shares_memory(rec.features, bufs[0].features)


def test_buffers_hold_an_exact_fit_video_once():
    # both directions of a 6,144-frame video: each window's features once,
    # not a copy per buffer
    rec = make_record(8 * 768, D=16)
    rec = replace(rec, features=rec.features.astype(np.float32))
    tracemalloc.start()
    try:
        bufs = dk.make_buffers(rec, 768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bufs) == 16
    assert peak <= 1.05 * rec.features.nbytes  # measured 1.04x


def test_buffers_drop_badly_clipped_annotation():
    # [760, 800] keeps 8/40 = 20% inside the first window: dropped
    rec = make_record(1024, [dk.Activity(760.0, 800.0, 1)])
    first = dk.make_buffers(rec, 768)[0]
    assert first.segments.shape == (0, 2) and first.labels.shape == (0,)


def test_buffers_keep_annotation_retaining_half():
    rec = make_record(1024, [dk.Activity(728.0, 808.0, 1)])  # 40/80 = 50% kept
    first = dk.make_buffers(rec, 768)[0]
    assert first.segments.tolist() == [[728.0, 768.0]]


def test_buffers_shift_annotations_into_window_coordinates():
    rec = make_record(1024, [dk.Activity(800.0, 900.0, 2)])
    second = dk.make_buffers(rec, 768)[1]
    assert (second.segments.tolist(), second.labels.tolist()) == ([[32.0, 132.0]], [2])


def clipped_ref(annotations, offset, valid):
    """A window's (start, end, label) ground truth, clipped one instance at a time."""
    kept = []
    for a in annotations:
        cs, ce = max(a.t_start, float(offset)), min(a.t_end, float(offset + valid))
        if ce > cs and (ce - cs) >= dk.CLIP_KEEP_FRACTION * a.length:
            kept.append((cs - offset, ce - offset, a.label))
    return kept


def test_buffers_never_cross_boundary():
    rng, seen = np.random.default_rng(0), 0
    for _ in range(20):
        L = int(rng.integers(100, 2000))
        anns = []
        for _ in range(5):
            s = float(rng.uniform(0, L - 10))
            anns.append(dk.Activity(s, min(float(L), s + float(rng.uniform(5, 300))), int(rng.integers(1, 4))))
        for buf in dk.make_buffers(make_record(L, anns), 768):
            assert np.all((0.0 <= buf.segments[:, 0]) & (buf.segments[:, 0] < buf.segments[:, 1]))
            assert np.all(buf.segments[:, 1] <= buf.num_valid)
            got = [(s, e, c) for (s, e), c in zip(buf.segments.tolist(), buf.labels.tolist())]
            assert got == clipped_ref(anns, buf.frame_offset, buf.num_valid)
            assert buf.segments.dtype == np.float64 and buf.labels.dtype == np.int64
            seen += len(got)
    assert seen > 100


def test_buffers_empty_video_single_padding_buffer():
    bufs = dk.make_buffers(make_record(0), 768)
    assert len(bufs) == 1
    assert bufs[0].num_valid == 0
    assert bufs[0].segments.shape == (0, 2) and bufs[0].labels.shape == (0,)
    assert np.all(bufs[0].features == 0.0)


def test_buffers_forward_only():
    bufs = dk.make_buffers(make_record(1000), 768, directions="forward")
    assert [b.frame_offset for b in bufs] == [0, 768]


@pytest.mark.parametrize("directions", ["backward", None, 10 ** 5000, [10 ** 5000]], ids=_shown)
def test_buffers_reject_unknown_directions(directions):
    # an int of over 4,300 digits, alone or in a list, raised a bare
    # ValueError while the message was written
    with pytest.raises(ConfigError, match="directions must be"):
        dk.make_buffers(make_record(100), 64, directions=directions)


@pytest.mark.parametrize("buf_len", [0, -32, -768, 40.0, True])
def test_buffers_reject_non_positive_length(buf_len):
    # only the sign check stops an endless window loop; 40.0 and True raised
    # a bare TypeError
    with pytest.raises(ConfigError, match="buf_len must be an int >= 1"):
        dk.make_buffers(make_record(100), buf_len)


# ---------------------------------------------------------------------------
# synthetic generation


def digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def small_cfg(**kw):
    base = dict(num_videos=4, video_length=256, feature_dim=6, num_classes=2,
                duration_bands=((8, 56, 0.5), (64, 120, 0.5)), instances_per_video=(1, 2), seed=3)
    base.update(kw)
    return dk.SynthConfig(**base)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, np.float32(0.5), "0.5"])
@pytest.mark.parametrize("field", ["noise_sigma", "signal_amplitude", "fps", "band weight", "band length"])
def test_synth_config_rejects_non_finite_values(field, value):
    if field == "band weight":
        kw = {"duration_bands": ((8, 56, 0.5), (64, 160, value))}
    elif field == "band length":
        kw = {"duration_bands": ((8, 56, 0.5), (64, value, 0.5))}
    else:
        kw = {field: value}
    with pytest.raises(ConfigError):
        dk.SynthConfig(**kw)


NOT_INTS = [float("nan"), 2.5, 768.0, True]


@pytest.mark.parametrize("kw", [
    *({field: v} for field in ("num_videos", "video_length", "feature_dim", "num_classes", "seed") for v in NOT_INTS),
    *({"instances_per_video": pair} for v in NOT_INTS for pair in ((v, 1000), (1, v))),
    # a NaN band length was already rejected by the range check
    *({"duration_bands": (band,)} for v in NOT_INTS[1:] for band in ((v, 768, 1.0), (1, v, 1.0))),
    {"seed": -1},
    {"duration_bands": ((10 ** 5000,),)}, {"duration_bands": ()}, {"duration_bands": 5}, {"duration_bands": (5,)},
    {"duration_bands": ((8, 56, 1e308), (64, 160, 1e308))},
    {"instances_per_video": (1, 2, 3)}, {"instances_per_video": 5}, {"instances_per_video": (10 ** 5000, 1)},
], ids=_shown)
def test_synth_config_rejects_counts_and_seeds_that_are_not_ints(kw):
    # a NaN video length constructed and then failed placement after 11,011
    # draws; a negative seed failed at the first draw with numpy's ValueError.
    # No band constructed and then failed in generate_synthetic with numpy's
    # bare ValueError; an instance count that is no pair, or a band of an int
    # of over 4,300 digits, raised a bare ValueError or TypeError; band
    # weights whose sum overflows warned and then raised numpy's bare ValueError
    with pytest.raises(ConfigError):
        dk.SynthConfig(**kw)


def test_generate_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    s1 = dk.generate_synthetic(small_cfg(), d1)
    s2 = dk.generate_synthetic(small_cfg(), d2)
    assert s1 == s2
    assert digest_dir(d1) == digest_dir(d2)


def test_generate_noiseless_frames_equal_signature(tmp_path):
    cfg = small_cfg(noise_sigma=0.0, signal_amplitude=1.0)
    dk.generate_synthetic(cfg, tmp_path / "d")
    records, _ = dk.load_dataset(tmp_path / "d")
    sigs = dk.class_signatures(cfg)
    checked = 0
    for rec in records.values():
        assert type(rec.features) is np.ndarray and rec.features.dtype == np.float32
        for a in rec.annotations:
            col = rec.features[:, int(a.t_start)]
            u = sigs[a.label - 1].astype(np.float32).astype(np.float64)
            assert np.array_equal(col, u)
            cos = col @ sigs[a.label - 1] / np.linalg.norm(col)
            assert cos == pytest.approx(1.0, abs=1e-6)
            checked += 1
    assert checked > 0


def test_generated_lengths_stay_in_band_range(tmp_path):
    dk.generate_synthetic(small_cfg(num_videos=8, seed=11), tmp_path / "d")
    records, _ = dk.load_dataset(tmp_path / "d")
    count = 0
    for rec in records.values():
        for a in rec.annotations:
            assert 8 <= a.length <= 120
            count += 1
    assert count >= 8


def test_default_band_lengths_bounded_by_table():
    cfg = dk.SynthConfig()
    rng = np.random.default_rng(0)
    for _ in range(500):
        length, band = dk.sample_instance_length(rng, cfg.duration_bands)
        assert 8 <= length <= 512


def test_band_histogram_matches_weights():
    cfg = dk.SynthConfig()
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    n = 10_000
    for _ in range(n):
        _, band = dk.sample_instance_length(rng, cfg.duration_bands)
        counts[band] += 1
    weights = np.array([b[2] for b in cfg.duration_bands])
    weights = weights / weights.sum()
    assert np.all(np.abs(counts / n - weights) < 0.05)


def test_band_draw_equals_generator_choice_bit_for_bit():
    # the cached CDF and one random() per draw reproduce Generator.choice: the
    # same draws and generator state, and a CDF equal to the last bit, which
    # draws alone rarely show (a Python-sequential sum differs from 8 bands up)
    digest = load_digest()
    tables = list(digest.length_tables())
    assert sorted({len(t) for t in tables}) == list(digest.LENGTH_SIZES)
    assert {type(t) for t in tables} == {tuple, list}
    weights = [b[2] for t in tables for b in t]
    assert {type(w) for w in weights} == {int, float} and 0 < min(weights) < np.finfo(np.float64).tiny
    sequential_differs = False
    for bands in tables:
        cdf = np.array(dk._band_cdf(tuple(b[2] for b in bands)))
        assert cdf.tobytes() == band_cdf_ref(bands).tobytes()
        w = [float(b[2]) for b in bands]
        sequential = (np.array(w) / sum(w)).cumsum()
        sequential_differs |= not np.array_equal(sequential / sequential[-1], cdf)
        for seed in digest.LENGTH_DRAW_SEEDS:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert ([dk.sample_instance_length(rng, bands) for _ in range(digest.LENGTH_DRAWS)]
                    == [sample_instance_length_ref(ref, bands) for _ in range(digest.LENGTH_DRAWS)])
            assert rng.random() == ref.random()
    assert sequential_differs


def test_band_draw_on_a_cdf_value_takes_the_next_band_as_generator_choice_does():
    # Generator.choice takes searchsorted(cdf, u, side="right"), so a draw that
    # lands on a CDF value, 0.0 included, skips the bands of zero weight there;
    # random draws land on one too rarely to show it
    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

        def integers(self, lo, hi):
            return lo

    bands = ((1, 2, 0.0), (3, 4, 1.0), (5, 6, 0.0), (7, 8, 2.0), (9, 10, 0.0))
    cdf = band_cdf_ref(bands)
    inner = cdf[cdf < 1.0]  # random() lies in [0, 1)
    for u in [0.0, *inner, *np.nextafter(inner, 0.0)]:
        length, band = dk.sample_instance_length(Fixed(u), bands)
        assert band == np.searchsorted(cdf, u, side="right") and length == bands[band][0]
        assert bands[band][2] > 0


@pytest.mark.parametrize("weights", [(1.0, -0.5), (0.0, 0.0), (1.0, float("nan")), (1.0, float("inf")),
                                     (1e308, 1e308)], ids=_shown)
def test_band_draw_rejects_the_weights_that_generator_choice_rejects(weights):
    bands = tuple((10 * i + 1, 10 * i + 5, w) for i, w in enumerate(weights))
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        sample_instance_length_ref(np.random.default_rng(0), bands)
    with pytest.raises(ConfigError, match="duration band weights"):
        dk.sample_instance_length(np.random.default_rng(0), bands)


def test_generate_instances_respect_gaps(tmp_path):
    dk.generate_synthetic(small_cfg(num_videos=10, instances_per_video=(2, 3), seed=5), tmp_path / "d")
    records, _ = dk.load_dataset(tmp_path / "d")
    for rec in records.values():
        anns = sorted(rec.annotations, key=lambda a: a.t_start)
        for a, b in zip(anns, anns[1:]):
            assert b.t_start - a.t_end >= 8


def test_generate_placement_error_when_impossible():
    cfg = dk.SynthConfig(num_videos=1, video_length=32, feature_dim=4, num_classes=1,
                         duration_bands=((8, 16, 1.0),), instances_per_video=(3, 3), seed=0)
    with pytest.raises(ConfigError, match="1000 rejections"):
        dk._place_instances(np.random.default_rng(0), cfg, "v")
    # no length fits the video: each draw counts as a rejection
    with pytest.raises(ConfigError, match="1000 rejections"):
        dk._place_instances(np.random.default_rng(0), replace(cfg, video_length=4), "v")


def test_generate_restarts_a_dead_end_placement(tmp_path):
    # the instances placed first in video_0069 leave no room for the 4th
    summary = dk.generate_synthetic(dk.SynthConfig(seed=510), tmp_path / "d")
    records, _ = dk.load_dataset(tmp_path / "d")
    anns = sorted(records["video_0069"].annotations, key=lambda a: a.t_start)
    assert len(anns) == 4
    assert all(b.t_start - a.t_end >= dk.MIN_INSTANCE_GAP for a, b in zip(anns, anns[1:]))
    assert sum(summary["instances_per_band"]) == sum(len(r.annotations) for r in records.values())
    assert digest_dir(tmp_path / "d") == "284fbb3bcf9c136facdd3df3c5f624e1fa1f8e644a811264fa68a1dd63699c35"


def test_generate_output_unchanged_for_a_seed_without_dead_ends(tmp_path):
    dk.generate_synthetic(dk.SynthConfig(num_videos=6, seed=1), tmp_path / "d")
    assert digest_dir(tmp_path / "d") == "8301ebced8acc019d2d2d34848899fb168c4b81b7645b8cbd18f7add46a33b93"


def test_generate_subset_split(tmp_path):
    dk.generate_synthetic(small_cfg(num_videos=8, val_fraction=0.25), tmp_path / "d")
    records, _ = dk.load_dataset(tmp_path / "d")
    subsets = [r.subset for r in records.values()]
    assert subsets.count("train") == 6
    assert subsets.count("val") == 2


def test_load_dataset_checks_feature_length(tmp_path):
    dk.generate_synthetic(small_cfg(), tmp_path / "d")
    victim = next((tmp_path / "d" / "features").glob("*.tfpv"))
    arr = dk.load_features(victim)
    dk.save_features(arr[:, :-32], victim)
    with pytest.raises(DataError, match="frames"):
        dk.load_dataset(tmp_path / "d")
