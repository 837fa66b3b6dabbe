"""Video/annotation data model, file ingestion, buffering, synthesis.

Annotations travel on disk in seconds (with a per-video fps) and live in
frames everywhere inside the package; the conversion happens exactly once
at ingestion.  Feature matrices are plain [D, L] numpy arrays, stored in
the TFPV binary layout as f32 and loaded as float32, the dtype the model
computes in; only the network turns a window into an autograd tensor.
Records and buffers are immutable: each is built once, complete, by its
constructor, and a changed copy comes from ``dataclasses.replace``, which
runs the record's checks again.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from math import inf
from pathlib import Path

import numpy as np

from .anchorkit import Segment
from .errors import ConfigError, ContractError, DataError, _shown, check_int, check_real

TFPV_MAGIC = b"TFPV"
TFPV_VERSION = 1
MIN_INSTANCE_GAP = 8
PLACEMENT_RESTARTS = 10  # fresh starts of one video's placement before giving up
CLIP_KEEP_FRACTION = 0.5  # clipped instances keeping less are dropped


@dataclass(frozen=True, slots=True)
class Activity:
    """One annotated activity instance, in frame units."""

    t_start: float
    t_end: float
    label: int

    def __post_init__(self):
        check_real("activity t_start", self.t_start, "[0, inf)", ContractError)
        check_real("activity t_end", self.t_end, "[0, inf)", ContractError)
        check_int("activity label", self.label, 1, ContractError)
        self.segment()  # the row rule of every segment, in its ContractError

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    def segment(self) -> Segment:
        return Segment(self.t_start, self.t_end)


@dataclass(frozen=True, slots=True)
class VideoRecord:
    """Per-video [D, L] feature array (or None before it is loaded) plus
    its annotation set.  Immutable: ``load_dataset`` adds the features with
    ``dataclasses.replace``, so every record passes ``__post_init__``, and
    the annotations are kept as a tuple (a list is accepted)."""

    video_id: str
    num_frames: int
    annotations: tuple[Activity, ...]
    features: np.ndarray | None = None
    fps: float = 1.0
    subset: str = "train"

    def __post_init__(self):
        if not isinstance(self.video_id, str):  # an annotation file keys its videos by id
            raise DataError(f"a video id must be a str, got {_shown(self.video_id)}")
        check_int(f"video {self.video_id!r}: num_frames", self.num_frames, 0, DataError)
        check_real(f"video {self.video_id!r}: fps", self.fps, "(0, inf)", DataError)
        if self.subset not in ("train", "val", "test"):
            raise DataError(f"video {self.video_id!r}: unknown subset {_shown(self.subset)}")
        if not isinstance(self.annotations, (tuple, list)):
            raise DataError(f"video {self.video_id!r}: annotations must be a tuple or list, got {_shown(self.annotations)}")
        object.__setattr__(self, "annotations", tuple(self.annotations))
        for i, a in enumerate(self.annotations):
            if not isinstance(a, Activity):
                raise DataError(f"video {self.video_id!r}: annotation {i} must be an Activity, got {_shown(a)}")
            if a.t_end > self.num_frames + 1e-6:
                raise DataError(
                    f"video {self.video_id!r}: annotation [{a.t_start}, {a.t_end}] exceeds {self.num_frames} frames"
                )
        feats = self.features
        if feats is not None and not (isinstance(feats, np.ndarray) and feats.ndim == 2):
            raise DataError(f"video {self.video_id!r}: features must be a [D, L] numpy array, got {type(feats).__name__}")
        if feats is not None and feats.shape[1] != self.num_frames:
            raise DataError(
                f"video {self.video_id!r}: feature length {feats.shape[1]} != num_frames {self.num_frames}"
            )


@dataclass(frozen=True, slots=True)
class Buffer:
    """A fixed-length training/inference window sliced from a video;
    immutable, like a record.

    ``features`` is a read-only [D, buf_len] numpy array, laid out as
    ``make_buffers`` says.  The ground truth is two arrays in buffer
    coordinates: ``segments`` [g, 2] float64 (start, end) and ``labels``
    [g] int64 classes.
    """

    video_id: str
    frame_offset: int
    features: np.ndarray
    segments: np.ndarray
    labels: np.ndarray
    num_valid: int


# ---------------------------------------------------------------------------
# annotation JSON


def _reject_duplicate_keys(pairs):
    d = {}
    for k, v in pairs:
        if k in d:
            raise DataError(f"duplicate key {k!r} in annotation JSON")
        d[k] = v
    return d


def _read_json(raw: bytes, where, **kwargs):
    """``json.loads(raw.decode("utf-8"), **kwargs)``; bad UTF-8 or JSON, an int of
    over 4,300 digits and nesting too deep for the parser raise DataError."""
    try:
        return json.loads(raw.decode("utf-8"), **kwargs)
    except (ValueError, RecursionError) as e:  # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{where}: not valid UTF-8 JSON: {e}") from e


def load_annotations(path, label_index: list[str] | None = None) -> tuple[dict[str, VideoRecord], list[str]]:
    """Read an annotation JSON file into metadata-only VideoRecords.

    Returns (records keyed by video id, label index).  When ``label_index``
    is given (evaluation against a fixed label set), unknown labels are a
    schema error; otherwise the index is the sorted set of labels seen.
    Class ids are 1-based positions in the index (0 is background).
    """
    path = Path(path)
    doc = _read_json(path.read_bytes(), path, object_pairs_hook=_reject_duplicate_keys)
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != 1 or "database" not in doc:
        raise DataError(f"{path}: expected {{'version': 1, 'database': ...}} with an integer version")
    database = doc["database"]
    if not isinstance(database, dict):
        raise DataError(f"{path}: 'database' must be an object")
    videos = {}  # video id -> (fps, num_frames, subset, [(start, end, label name)] in frames)
    for vid, entry in database.items():
        where = f"{path}: video {vid!r}"
        for fieldname in ("fps", "num_frames", "subset", "annotations"):
            if not isinstance(entry, dict) or fieldname not in entry:
                raise DataError(f"{where}: missing field {fieldname!r}")
        fps = check_real(f"{where}: fps", entry["fps"], "(0, inf)", DataError)
        num_frames = check_real(f"{where}: num_frames", entry["num_frames"], "[0, inf)", DataError)
        if not num_frames.is_integer():
            raise DataError(f"{where}: num_frames must be a whole number, got {num_frames}")
        anns = entry["annotations"]
        if not isinstance(anns, list):
            raise DataError(f"{where}: annotations must be a list, got {_shown(anns)}")
        spans = []
        for i, ann in enumerate(anns):
            if not isinstance(ann, dict) or "segment" not in ann or not isinstance(ann.get("label"), str):
                raise DataError(f"{where}: annotation {i}: expected an object with a 'segment' and a string 'label'")
            seg = ann["segment"]
            if not isinstance(seg, list) or len(seg) != 2:
                raise DataError(f"{where}: annotation {i}: segment must be [start, end], got {_shown(seg)}")
            t0, t1 = (check_real(f"{where}: annotation {i}: segment", t, "[0, inf)", DataError) for t in seg)
            if not t0 < t1:
                raise DataError(f"{where}: annotation {i}: non-increasing segment {seg}")
            start = t0 * fps
            end = min(t1 * fps, num_frames)
            if not end > start:
                raise DataError(f"{where}: annotation {i}: segment collapses after frame conversion")
            spans.append((start, end, ann["label"]))
        videos[vid] = (fps, int(num_frames), entry["subset"], spans)
    if label_index is None:
        label_index = sorted({name for *_, spans in videos.values() for _, _, name in spans})
    label_to_id = {name: i + 1 for i, name in enumerate(label_index)}
    records: dict[str, VideoRecord] = {}
    for vid, (fps, num_frames, subset, spans) in videos.items():
        unknown = [name for _, _, name in spans if name not in label_to_id]
        if unknown:
            raise DataError(f"{path}: video {vid!r}: unknown label {unknown[0]!r}")
        activities = [Activity(start, end, label_to_id[name]) for start, end, name in spans]
        records[vid] = VideoRecord(
            video_id=vid, num_frames=num_frames, annotations=activities, fps=fps, subset=subset
        )
    return records, list(label_index)


def save_annotations(records: dict[str, VideoRecord], path, label_index: list[str]) -> None:
    """Write records back to the annotation JSON schema (seconds on disk); every label must be in ``label_index``."""
    _label_index(label_index, "label_index")
    database = {}
    for vid in sorted(records):
        r = records[vid]
        for a in r.annotations:
            if a.label > len(label_index):
                raise ContractError(f"video {vid!r}: label {a.label} is not in the {len(label_index)}-name label index")
        database[vid] = {
            "fps": r.fps,
            "num_frames": r.num_frames,
            "subset": r.subset,
            "annotations": [
                {
                    "segment": [a.t_start / r.fps, a.t_end / r.fps],
                    "label": label_index[a.label - 1],
                }
                for a in r.annotations
            ],
        }
    Path(path).write_text(
        json.dumps({"version": 1, "database": database}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _label_index(labels, where: str) -> list[str]:
    """``labels`` as a list if it is a label index, else DataError: a list or
    tuple of ``str`` names in strictly increasing order, the order in which
    ``load_annotations`` numbers the names it reads, so each name's class id
    is its 1-based position in the index either way."""
    if (not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels)
            or any(a >= b for a, b in zip(labels, labels[1:]))):
        raise DataError(f"{where} must be a list of unique names of type str in sorted order, got {_shown(labels)}")
    return list(labels)


def load_label_index(path) -> list[str]:
    doc = _read_json(Path(path).read_bytes(), path)
    return _label_index(doc.get("labels") if isinstance(doc, dict) else None, f"{path}: 'labels'")


def save_label_index(labels: list[str], path) -> None:
    labels = _label_index(labels, "labels")
    Path(path).write_text(json.dumps({"labels": labels}, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# TFPV feature binary


def load_features(path) -> np.ndarray:
    """Read a TFPV file into a [D, L] float32 array of finite values: the
    file's own precision, and the dtype the model computes in."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != TFPV_MAGIC:
        raise DataError(f"{path}: bad TFPV magic")
    version, d, l = struct.unpack_from("<III", raw, 4)
    if version != TFPV_VERSION:
        raise DataError(f"{path}: unsupported TFPV version {version}")
    if d < 1 or l < 1:
        raise DataError(f"{path}: degenerate dimensions D={d}, L={l}")
    expected = 16 + 4 * d * l
    if len(raw) != expected:
        raise DataError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f4", offset=16)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: feature values must be finite")
    return np.ascontiguousarray(flat.reshape(l, d).T, dtype=np.float32)


def _finite_f32(arr: np.ndarray, what: str, error) -> np.ndarray:
    """A real array as little-endian f32, which must be finite, else ``error``:
    a value past the f32 range casts to inf without the overflow warning."""
    with np.errstate(over="ignore"):
        out = np.asarray(arr, dtype="<f4")
    if not np.isfinite(out).all():
        raise error(f"{what} must be finite in float32")
    return out


def save_features(features: np.ndarray, path) -> None:
    """Write a [D, L] feature array of real numbers as TFPV (frame-major f32 payload) of finite values."""
    arr = np.asarray(features)
    if arr.dtype.kind not in "biuf":  # a str array raised a bare ValueError, a complex one lost its imaginary part
        raise DataError(f"features must be real numbers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"features must be a non-empty [D, L] matrix, got shape {arr.shape}")
    d, l = arr.shape
    payload = _finite_f32(arr.T, "feature values", DataError).tobytes()
    Path(path).write_bytes(TFPV_MAGIC + struct.pack("<III", TFPV_VERSION, d, l) + payload)


# ---------------------------------------------------------------------------
# buffer windowing


def make_buffers(record: VideoRecord, buf_len: int, directions: str = "both") -> list[Buffer]:
    """Window a video into fixed-length buffers.

    Forward windows start at offsets 0, buf_len, 2*buf_len, ...; backward
    windows end at L, L-buf_len, ... (offsets clamped at 0); the list holds
    the forward windows first, then the backward ones.  A buffer's features
    are a read-only view of the record's, shared by twins at one offset; only
    a window that runs past the end is copied, zero-padded at the tail.
    All of the video's instances are clipped to each window in one pass
    and shifted into its coordinates; a clipped instance keeping less than
    half its original length is dropped.
    """
    check_int("buf_len", buf_len, 1)
    if record.features is None:
        raise ContractError(f"video {record.video_id!r} has no features loaded")
    if directions not in ("both", "forward"):
        raise ConfigError(f"directions must be 'both' or 'forward', got {_shown(directions)}")
    L = record.num_frames
    gts = np.array([(a.t_start, a.t_end) for a in record.annotations], dtype=np.float64).reshape(-1, 2)
    labels = np.array([a.label for a in record.annotations], dtype=np.int64)
    forward = [0] if L == 0 else list(range(0, L, buf_len))
    backward = [max(0, end - buf_len) for end in range(L, 0, -buf_len)] if directions == "both" else []

    def window(offset: int) -> Buffer:
        valid = max(0, min(buf_len, L - offset))
        part = record.features[:, offset : offset + buf_len]
        if valid < buf_len:
            part = np.pad(part, ((0, 0), (0, buf_len - valid)))
        clipped = np.clip(gts, float(offset), float(offset + valid))
        length = clipped[:, 1] - clipped[:, 0]
        kept = (length > 0) & (length >= CLIP_KEEP_FRACTION * (gts[:, 1] - gts[:, 0]))
        features = np.lib.stride_tricks.as_strided(part, writeable=False)
        return Buffer(record.video_id, offset, features, clipped[kept] - offset, labels[kept], valid)

    return [window(offset) for offset in forward + backward]


# ---------------------------------------------------------------------------
# synthetic untrimmed sequences


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Generator settings for synthetic untrimmed feature sequences.

    Each class gets a fixed random unit signature in feature space;
    background frames are isotropic Gaussian noise and instance frames add
    ``signal_amplitude`` times the class signature over a sharp rectangular
    envelope, so ground-truth boundaries are unambiguous.
    """

    num_videos: int = 80
    video_length: int = 768
    feature_dim: int = 16
    num_classes: int = 3
    noise_sigma: float = 0.25
    signal_amplitude: float = 1.0
    duration_bands: tuple = ((8, 56, 0.5), (64, 160, 0.3), (192, 512, 0.2))
    instances_per_video: tuple = (1, 4)
    val_fraction: float = 0.25
    fps: float = 4.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_videos", "video_length", "feature_dim", "num_classes"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        for name, interval in (("noise_sigma", "[0, inf)"), ("signal_amplitude", "(-inf, inf)"),
                               ("val_fraction", "[0, 1)"), ("fps", "(0, inf)")):
            check_real(name, getattr(self, name), interval)
        pair = self.instances_per_video
        if (not (isinstance(pair, (tuple, list)) and len(pair) == 2)
                or check_int("instances_per_video", pair[0], 0) > check_int("instances_per_video", pair[1], 0)):
            raise ConfigError(f"instances_per_video must be a (min, max) pair, got {_shown(pair)}")
        bands = self.duration_bands
        if not (isinstance(bands, (tuple, list)) and bands):
            raise ConfigError(f"duration_bands must hold one or more bands, got {_shown(bands)}")
        prev_max, total = -1, 0.0
        for b in bands:
            if (not (isinstance(b, (tuple, list)) and len(b) == 3)
                    or check_int("duration band length", b[0], 1) > check_int("duration band length", b[1], 1)):
                raise ConfigError(f"bad duration band {_shown(b)}")
            total += check_real("duration band weight", b[2], "(0, inf)")
            if b[0] <= prev_max:
                raise ConfigError("duration bands must be disjoint and ascending")
            prev_max = b[1]
        if total == inf:
            raise ConfigError(f"duration band weights must have a finite sum, got {_shown(bands)}")


@lru_cache(maxsize=64)
def _band_cdf(weights: tuple) -> tuple:
    """The cumulative band probabilities that ``Generator.choice`` builds for
    ``p=weights / weights.sum()``, by numpy's own expressions, as floats."""
    w = np.array(weights, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
    if not (np.isfinite(cdf).all() and (w >= 0).all()):
        raise ConfigError(f"duration band weights must be >= 0 with a finite, positive sum, got {_shown(weights)}")
    return tuple(cdf.tolist())


def sample_instance_length(rng: np.random.Generator, bands) -> tuple[int, int]:
    """Draw (length, band index): band by weight, length uniform within.

    The band is drawn exactly as ``rng.choice(len(bands), p=w / w.sum())``
    over the weights ``w`` would draw it: one ``rng.random()`` against the
    same CDF, so every draw and the generator's state after it are equal
    bit for bit.  The CDF is computed once per weight table and cached
    under the tuple of the weights, so tables given as lists work too.
    """
    band = bisect_right(_band_cdf(tuple(b[2] for b in bands)), rng.random())
    lo, hi, _ = bands[band]
    return int(rng.integers(lo, hi + 1)), band


def _place_instances(rng, cfg: SynthConfig, video_id: str):
    """Rejection-sample non-overlapping instances with >= 8-frame gaps, as
    sorted (start, end, label, band) tuples.

    Instances placed first can leave no room for the rest.  After 1000
    rejections the placement starts over from the same rng, up to
    ``PLACEMENT_RESTARTS`` times.
    """
    n = int(rng.integers(cfg.instances_per_video[0], cfg.instances_per_video[1] + 1))
    for _ in range(PLACEMENT_RESTARTS + 1):
        placed, rejections = [], 0
        while len(placed) < n and rejections <= 1000:
            length, band = sample_instance_length(rng, cfg.duration_bands)
            if length <= cfg.video_length:
                start = int(rng.integers(0, cfg.video_length - length + 1))
                end = start + length
                if all(start >= e + MIN_INSTANCE_GAP or end <= s - MIN_INSTANCE_GAP for s, e, _, _ in placed):
                    placed.append((start, end, int(rng.integers(1, cfg.num_classes + 1)), band))
                    continue
            rejections += 1
        if len(placed) == n:
            return sorted(placed)
    raise ConfigError(
        f"video {video_id!r}: could not place {n} instances in {PLACEMENT_RESTARTS + 1} tries of "
        "1000 rejections; reduce instances_per_video or band lengths"
    )


def class_signatures(cfg: SynthConfig) -> np.ndarray:
    """The fixed per-class unit signature vectors (seeded, drawn first)."""
    rng = np.random.default_rng([cfg.seed, 0])
    sigs = rng.standard_normal((cfg.num_classes, cfg.feature_dim))
    return sigs / np.linalg.norm(sigs, axis=1, keepdims=True)


def generate_synthetic(cfg: SynthConfig, out_dir) -> dict:
    """Write a full synthetic dataset (TFPV features, annotations, labels).

    Returns a summary dict: videos per subset, instance counts per band.
    """
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    width = max(2, len(str(cfg.num_classes - 1)))  # equal widths keep the names in sorted order
    labels = [f"activity_{i:0{width}d}" for i in range(cfg.num_classes)]
    sigs = class_signatures(cfg)
    n_val = int(round(cfg.num_videos * cfg.val_fraction))
    n_train = cfg.num_videos - n_val
    records: dict[str, VideoRecord] = {}
    band_counts = [0] * len(cfg.duration_bands)
    for v in range(cfg.num_videos):
        vid = f"video_{v:04d}"
        rng = np.random.default_rng([cfg.seed, 1, v])
        placed = _place_instances(rng, cfg, vid)
        feats = rng.standard_normal((cfg.feature_dim, cfg.video_length)) * cfg.noise_sigma
        anns = []
        for start, end, label, band in placed:
            feats[:, start:end] += cfg.signal_amplitude * sigs[label - 1][:, None]
            anns.append(Activity(float(start), float(end), label))
            band_counts[band] += 1
        save_features(feats, out_dir / "features" / f"{vid}.tfpv")
        records[vid] = VideoRecord(
            video_id=vid,
            num_frames=cfg.video_length,
            annotations=anns,
            fps=cfg.fps,
            subset="train" if v < n_train else "val",
        )
    save_annotations(records, out_dir / "annotations.json", labels)
    save_label_index(labels, out_dir / "labels.json")
    return {
        "videos": cfg.num_videos,
        "train_videos": n_train,
        "val_videos": n_val,
        "instances_per_band": band_counts,
        "classes": labels,
    }


def load_dataset(data_dir) -> tuple[dict[str, VideoRecord], list[str]]:
    """Load a dataset directory (annotations + labels + features) eagerly."""
    data_dir = Path(data_dir)
    labels = load_label_index(data_dir / "labels.json")
    records, _ = load_annotations(data_dir / "annotations.json", label_index=labels)
    records = {vid: replace(rec, features=load_features(data_dir / "features" / f"{vid}.tfpv"))
               for vid, rec in records.items()}
    return records, labels
