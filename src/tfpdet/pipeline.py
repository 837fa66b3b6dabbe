"""Joint training over proposal and classification heads, plus whole-video
inference and checkpointing.

Each optimization step consumes one buffer of one video.  Anchors are
matched jointly across levels, minibatches are sampled per level for each
head, and the total loss is the level-weighted sum of classification and
(positives-only) localization terms.  Proposal geometry is detached: the
classifier treats decoded proposals as fixed inputs.  Inference runs the
same layer functions on non-grad views of the parameters, so it records no
autograd graph.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import anchorkit, datakit, heads, numcore as nc, pyramid
from .errors import ConfigError, ContractError, DataError

CHECKPOINT_MAGIC = b"TFPM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LossWeights:
    """Per-level loss balance: gamma scales a level's whole contribution,
    lam trades classification against localization inside it."""

    gamma: tuple = (1.0, 1.0, 1.0)
    lam: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.gamma) != len(self.lam):
            raise ConfigError("gamma and lambda must have one entry per level")
        if any(g <= 0 for g in self.gamma) or any(l <= 0 for l in self.lam):
            raise ConfigError("loss weights must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults.  The paper trains with lr 1e-4, decayed 10x
    every 100k steps, for 150k steps."""

    sgd: nc.SgdConfig = field(default_factory=nc.SgdConfig)
    max_steps: int = 3000
    buffer_len: int = 768
    apn_batch: int = 64
    apn_pos_fraction: float = 0.5
    acn_batch: int = 64
    acn_pos_fraction: float = 0.25
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 1000

    def __post_init__(self):
        if self.max_steps < 1 or self.buffer_len < 1:
            raise ConfigError("max_steps and buffer_len must be positive")
        if self.apn_batch < 1 or self.acn_batch < 1:
            raise ConfigError("batch sizes must be positive")


class Model:
    """All named parameters plus the configs that shaped them."""

    def __init__(self, encoder_cfg: pyramid.EncoderConfig, pyramid_cfg: pyramid.PyramidConfig,
                 apn_cfg: heads.ApnConfig, acn_cfg: heads.AcnConfig, params: dict):
        if len(apn_cfg.scales) != pyramid_cfg.num_levels:
            raise ConfigError(
                f"{len(apn_cfg.scales)} anchor scale lists for {pyramid_cfg.num_levels} pyramid levels"
            )
        self.encoder_cfg = encoder_cfg
        self.pyramid_cfg = pyramid_cfg
        self.apn_cfg = apn_cfg
        self.acn_cfg = acn_cfg
        self.params = params

    @staticmethod
    def param_specs(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg) -> list[tuple]:
        """(name, shape, init_spec) of every parameter, in creation order."""
        hidden = encoder_cfg.hidden_dim
        return (pyramid.encoder_param_specs(encoder_cfg) + pyramid.pyramid_param_specs(pyramid_cfg, hidden)
                + heads.apn_param_specs(hidden, apn_cfg) + heads.acn_param_specs(hidden, acn_cfg, pyramid_cfg.num_levels))

    @classmethod
    def build(cls, encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg, seed: int) -> "Model":
        rng = np.random.default_rng([int(seed), 2])
        params = nc.create_params(cls.param_specs(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg), rng)
        return cls(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg, params)

    def parameters(self) -> list[nc.Parameter]:
        return list(self.params.values())

    def frozen_params(self) -> dict:
        """The parameter arrays as non-grad tensors, shared, not copied: a
        forward over them records no graph."""
        return {name: nc.Tensor(p.data) for name, p in self.params.items()}

    def forward_pyramid(self, features, params: dict) -> pyramid.PyramidFeatures:
        base = pyramid.encode(features, self.encoder_cfg, params)
        return pyramid.build_pyramid(base, self.pyramid_cfg, params)


@dataclass
class StepReport:
    """Telemetry for one optimization step (values are plain floats)."""

    step: int
    lr: float
    total_loss: float
    apn_cls: list
    apn_loc: list
    acn_cls: list
    acn_loc: list
    apn_pos: list
    apn_neg: list
    acn_pos: list
    acn_neg: list

    def to_json_dict(self) -> dict:
        return asdict(self)


def joint_loss(apn_terms: list, acn_terms: list, weights: LossWeights) -> nc.Tensor:
    """Level-weighted sum over both heads: gamma_k * (cls + lam_k * loc).

    ``apn_terms``/``acn_terms`` hold per level a (cls, loc) pair of scalar
    tensors, either possibly None; levels with nothing sampled contribute 0.
    """
    total = None
    for terms in (apn_terms, acn_terms):
        for k, (cls, loc) in enumerate(terms):
            part = cls
            if loc is not None:
                scaled = nc.scale(loc, weights.lam[k])
                part = scaled if part is None else nc.add(part, scaled)
            if part is None:
                continue
            part = nc.scale(part, weights.gamma[k])
            total = part if total is None else nc.add(total, part)
    if total is None:
        raise ContractError("joint_loss got no sampled terms on any level")
    return total


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 3, int(step)])


def _apn_level_losses(apn_out, grid, match, cfg: TrainConfig, rng):
    terms, pos_counts, neg_counts = [], [], []
    for k, (cls_map, reg_map) in enumerate(apn_out):
        level_idx = grid.level_indices(k)
        has_pos = np.any(match.labels[level_idx] == 1)
        has_neg = np.any(match.labels[level_idx] == -1)
        if not has_pos and not has_neg:
            terms.append((None, None))
            pos_counts.append(0)
            neg_counts.append(0)
            continue
        sel = anchorkit.sample_minibatch(match, cfg.apn_batch, cfg.apn_pos_fraction, rng, candidate_idx=level_idx)
        t_k = cls_map.shape[1]
        rows_bg = 2 * grid.scale_index_of[sel]
        cols = grid.position_of[sel]
        flat = np.stack([rows_bg * t_k + cols, (rows_bg + 1) * t_k + cols], axis=1)
        logits = nc.take(cls_map, flat)
        labels01 = (match.labels[sel] == 1).astype(np.int64)
        cls_loss = nc.softmax_cross_entropy(logits, labels01)
        loc_loss = None
        pos_sel = sel[match.labels[sel] == 1]
        if pos_sel.size:
            rows = 2 * grid.scale_index_of[pos_sel]
            cols = grid.position_of[pos_sel]
            flat = np.stack([rows * t_k + cols, (rows + 1) * t_k + cols], axis=1)
            pred = nc.take(reg_map, flat)
            loc_loss = nc.smooth_l1(pred, match.reg_targets[pos_sel])
        terms.append((cls_loss, loc_loss))
        pos_counts.append(int(pos_sel.size))
        neg_counts.append(int(sel.size - pos_sel.size))
    return terms, pos_counts, neg_counts


def _acn_level_losses(pyr, proposals, pmatch, model: Model, cfg: TrainConfig, rng):
    num_levels = model.pyramid_cfg.num_levels
    acn_cfg = model.acn_cfg
    terms = [(None, None)] * num_levels
    pos_counts, neg_counts = [0] * num_levels, [0] * num_levels
    if not proposals:
        return terms, pos_counts, neg_counts
    assignment = heads.assign_proposals(proposals, acn_cfg, num_levels)
    sampled = []
    for k in range(num_levels):
        cand = np.asarray(assignment[k], dtype=np.int64)
        if cand.size == 0:
            sampled.append([])
            continue
        pos = cand[pmatch.class_labels[cand] > 0]
        neg = cand[pmatch.class_labels[cand] == 0]
        sel = anchorkit.sample_pos_neg(pos, neg, cfg.acn_batch, cfg.acn_pos_fraction, rng)
        sampled.append(sel.tolist())
        pos_counts[k] = int(np.sum(pmatch.class_labels[sel] > 0))
        neg_counts[k] = int(sel.size - pos_counts[k])
    acn_out = heads.acn_forward(pyr, proposals, acn_cfg, model.params, float(model_buffer_len(pyr)), assignment=sampled)
    for k, (idx, cls, reg) in enumerate(acn_out):
        if cls is None:
            continue
        labels = pmatch.class_labels[np.asarray(idx, dtype=np.int64)]
        cls_loss = nc.softmax_cross_entropy(cls, labels)
        loc_loss = None
        pos_rows = np.nonzero(labels > 0)[0]
        if pos_rows.size:
            c = labels[pos_rows]
            two_c = 2 * acn_cfg.num_classes
            flat = np.stack([pos_rows * two_c + 2 * (c - 1), pos_rows * two_c + 2 * (c - 1) + 1], axis=1)
            pred = nc.take(reg, flat)
            targets = pmatch.reg_targets[np.asarray(idx, dtype=np.int64)[pos_rows]]
            loc_loss = nc.smooth_l1(pred, targets)
        terms[k] = (cls_loss, loc_loss)
    return terms, pos_counts, neg_counts


def model_buffer_len(pyr: pyramid.PyramidFeatures) -> int:
    return pyr.levels[0].shape[1] * pyr.strides[0]


def train_step(buffer: datakit.Buffer, model: Model, cfg: TrainConfig, grid: anchorkit.AnchorGrid, step: int) -> StepReport:
    """One optimization step on one buffer: forward both heads, sample
    per-level minibatches, backpropagate the joint loss and update.  A
    non-finite loss raises ``ContractError`` before the update, leaving the
    parameters and velocities as they were."""
    if buffer.features is None or buffer.features.data.size == 0:
        raise ContractError("train_step needs a buffer with features")
    rng = _step_rng(cfg.seed, step)
    pyr = model.forward_pyramid(buffer.features, model.params)
    apn_out = heads.apn_forward(pyr, model.params)
    gts = [a.segment() for a in buffer.annotations]
    gt_labels = [a.label for a in buffer.annotations]
    match = anchorkit.match_anchors_apn(grid, gts, model.apn_cfg.pos_tiou, model.apn_cfg.neg_tiou)
    apn_terms, apn_pos, apn_neg = _apn_level_losses(apn_out, grid, match, cfg, rng)
    proposals = heads.generate_proposals(apn_out, grid, model.apn_cfg.nms_tiou, model.apn_cfg.top_k)
    pmatch = anchorkit.match_proposals_acn(
        [p.segment for p in proposals], gts, gt_labels, model.acn_cfg.fg_tiou
    )
    acn_terms, acn_pos, acn_neg = _acn_level_losses(pyr, proposals, pmatch, model, cfg, rng)
    loss = joint_loss(apn_terms, acn_terms, cfg.loss_weights)

    def vals(terms, which):
        return [None if t[which] is None else t[which].item() for t in terms]

    report = StepReport(
        step=step,
        lr=cfg.sgd.effective_lr(step),
        total_loss=loss.item(),
        apn_cls=vals(apn_terms, 0),
        apn_loc=vals(apn_terms, 1),
        acn_cls=vals(acn_terms, 0),
        acn_loc=vals(acn_terms, 1),
        apn_pos=apn_pos,
        apn_neg=apn_neg,
        acn_pos=acn_pos,
        acn_neg=acn_neg,
    )
    _check_finite_losses(report)
    nc.backward(loss)
    nc.sgd_step(model.parameters(), cfg.sgd, step)
    return report


def _check_finite_losses(report: StepReport) -> None:
    """Raise ``ContractError`` naming the first non-finite loss term of a
    step (per head and level, then the total), before anything is updated."""
    for name in ("apn_cls", "apn_loc", "acn_cls", "acn_loc"):
        for k, v in enumerate(getattr(report, name)):
            if v is not None and not math.isfinite(v):
                raise ContractError(f"step {report.step}: non-finite loss {name}[{k}] = {v}")
    if not math.isfinite(report.total_loss):
        raise ContractError(f"step {report.step}: non-finite total_loss = {report.total_loss}")


def pick_training_buffer(buffers_by_video: dict[str, list], cfg: TrainConfig, step: int) -> datakit.Buffer:
    """Uniformly pick a video, then one of its windows, for this step."""
    rng = _step_rng(cfg.seed, step)
    vids = sorted(buffers_by_video)
    vid = vids[int(rng.integers(len(vids)))]
    bufs = buffers_by_video[vid]
    return bufs[int(rng.integers(len(bufs)))]


def propose_video(record: datakit.VideoRecord, model: Model, cfg: TrainConfig) -> list[heads.Proposal]:
    """Forward-window the video and pool proposals in video coordinates."""
    grid = anchorkit.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    params = model.frozen_params()
    out = []
    for buf in datakit.make_buffers(record, cfg.buffer_len, directions="forward"):
        pyr = model.forward_pyramid(buf.features, params)
        for p in heads.generate_proposals(heads.apn_forward(pyr, params), grid,
                                          model.apn_cfg.nms_tiou, model.apn_cfg.top_k):
            s = max(p.segment.start, 0.0) + buf.frame_offset
            e = min(p.segment.end, float(buf.num_valid)) + buf.frame_offset
            if e - s >= 1.0:
                out.append(heads.Proposal(anchorkit.Segment(s, e), p.objectness, p.source_level))
    out.sort(key=lambda p: (-p.objectness, p.segment.start))
    return out


def infer_video(record: datakit.VideoRecord, model: Model, cfg: TrainConfig) -> list[heads.Detection]:
    """Two-stage inference over disjoint forward windows, on frozen
    parameters (no graph is recorded).

    ``finalize_detections`` already suppresses each window's detections
    class-wise, and windows do not overlap, so the closing video-global
    ``nms_detections`` cannot suppress anything; it stays only until the
    benchmark stops reading its detection count from it.
    """
    grid = anchorkit.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    params = model.frozen_params()
    all_dets: list[heads.Detection] = []
    for buf in datakit.make_buffers(record, cfg.buffer_len, directions="forward"):
        pyr = model.forward_pyramid(buf.features, params)
        proposals = heads.generate_proposals(heads.apn_forward(pyr, params), grid,
                                             model.apn_cfg.nms_tiou, model.apn_cfg.top_k)
        if not proposals:
            continue
        acn_out = heads.acn_forward(pyr, proposals, model.acn_cfg, params, float(cfg.buffer_len))
        all_dets.extend(
            heads.finalize_detections(acn_out, proposals, model.acn_cfg, buf,
                                      model.acn_cfg.nms_tiou, model.acn_cfg.score_thresh)
        )
    return heads.nms_detections(all_dets, model.acn_cfg.nms_tiou)


# ---------------------------------------------------------------------------
# checkpoint container


def _config_header(model: Model, train_cfg: TrainConfig) -> dict:
    return {
        "encoder": asdict(model.encoder_cfg),
        "pyramid": asdict(model.pyramid_cfg),
        "apn": asdict(model.apn_cfg),
        "acn": asdict(model.acn_cfg),
        "train": asdict(train_cfg),
    }


def save_checkpoint(path, model: Model, train_cfg: TrainConfig, step: int) -> None:
    """Write the TFPM container: magic, version, JSON header, f64 payloads.

    Every parameter contributes two manifest entries (its values and its
    momentum velocity); payloads follow in manifest order, little-endian.
    """
    manifest = []
    payloads = []
    for name, p in model.params.items():
        manifest.append({"name": name, "shape": list(p.tensor.data.shape), "kind": "value",
                         "init_spec": list(p.init_spec)})
        payloads.append(np.ascontiguousarray(p.tensor.data, dtype="<f8").tobytes())
        manifest.append({"name": name, "shape": list(p.velocity.shape), "kind": "velocity"})
        payloads.append(np.ascontiguousarray(p.velocity, dtype="<f8").tobytes())
    header = {
        "configs": _config_header(model, train_cfg),
        "step": int(step),
        "seed": int(train_cfg.seed),
        "params": manifest,
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(hb)))
        f.write(hb)
        for blob in payloads:
            f.write(blob)


def _configs_from_header(cfgs: dict) -> tuple:
    encoder_cfg = pyramid.EncoderConfig(**cfgs["encoder"])
    pc = dict(cfgs["pyramid"])
    pc["strides"] = tuple(pc["strides"])
    pyramid_cfg = pyramid.PyramidConfig(**pc)
    ac = dict(cfgs["apn"])
    ac["scales"] = tuple(tuple(s) for s in ac["scales"])
    apn_cfg = heads.ApnConfig(**ac)
    acn_cfg = heads.AcnConfig(**cfgs["acn"])
    tc = dict(cfgs["train"])
    tc["sgd"] = nc.SgdConfig(**tc["sgd"])
    lw = tc["loss_weights"]
    tc["loss_weights"] = LossWeights(gamma=tuple(lw["gamma"]), lam=tuple(lw["lam"]))
    train_cfg = TrainConfig(**tc)
    return encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg, train_cfg


def _manifest_entries(path, manifest, expected: dict) -> list[tuple]:
    """(name, kind, shape, init_spec) per manifest entry, after checking that
    every parameter in ``expected`` (name -> shape) appears exactly once as a
    value and once as a velocity, with its shape, and nothing else does."""
    if not isinstance(manifest, list) or not all(isinstance(e, dict) for e in manifest):
        raise DataError(f"{path}: checkpoint manifest is not a list of objects")
    entries = []
    for e in manifest:
        name, kind, shape = e.get("name"), e.get("kind"), e.get("shape")
        if kind not in ("value", "velocity") or not isinstance(name, str) or name not in expected:
            raise DataError(f"{path}: unexpected manifest entry {name!r} ({kind!r})")
        if not isinstance(shape, list) or tuple(shape) != expected[name] or not all(type(d) is int for d in shape):
            raise DataError(f"{path}: {name!r} has shape {shape!r}, the configs imply {list(expected[name])}")
        init_spec = e.get("init_spec")
        if kind == "value" and not isinstance(init_spec, list):
            raise DataError(f"{path}: {name!r} has no init_spec list")
        entries.append((name, kind, expected[name], init_spec))
    pairs = {(name, kind) for name, kind, _, _ in entries}
    want = {(name, kind) for name in expected for kind in ("value", "velocity")}
    if len(pairs) != len(entries) or pairs != want:
        missing = sorted(want - pairs)
        raise DataError(f"{path}: manifest does not match the configs (missing {missing[:3]}, or duplicates)")
    return entries


def load_checkpoint(path) -> tuple[Model, TrainConfig, int]:
    """Read a TFPM container; any malformed or inconsistent content raises
    ``DataError``.  The manifest must list exactly the parameters, with the
    shapes, that ``Model.param_specs`` gives for the header's configs."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if 12 + hlen > len(raw):
        raise DataError(f"{path}: truncated header ({len(raw) - 12} of {hlen} bytes)")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header: {exc}") from exc
    params: dict[str, nc.Parameter] = {}  # filled from the payloads below
    try:
        configs = _configs_from_header(header["configs"])
        step, manifest = header["step"], header["params"]
        model = Model(*configs[:4], params)
        expected = {name: tuple(shape) for name, shape, _ in Model.param_specs(*configs[:4])}
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from exc
    if type(step) is not int:
        raise DataError(f"{path}: checkpoint step {step!r} is not an integer")
    offset = 12 + hlen
    for name, kind, shape, init_spec in _manifest_entries(path, manifest, expected):
        count = int(np.prod(shape)) if shape else 1
        if offset + 8 * count > len(raw):
            raise DataError(f"{path}: truncated payload for {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += 8 * count
        if kind == "value":
            params[name] = nc.Parameter(name=name, tensor=nc.Tensor(arr, requires_grad=True),
                                        init_spec=tuple(init_spec))
        else:
            if name not in params:
                raise DataError(f"{path}: velocity for {name!r} precedes its values")
            params[name].velocity = arr
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")
    return model, configs[4], step
