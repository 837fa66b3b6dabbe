"""Joint training over proposal and classification heads, plus whole-video
inference, scoring and checkpointing: ``fit`` runs the step loop and
``evaluate`` the scoring pass.

Each optimization step consumes one buffer of one video.  Anchors are
matched jointly across levels, minibatches are sampled per level for each
head, and the total loss is the level-weighted sum of classification and
(positives-only) localization terms.  ``step_loss`` builds that loss and
its ``StepReport``; ``train_step`` is ``step_loss`` plus a backward pass
and one SGD update.  Proposal geometry is detached: the classifier treats
decoded proposals as fixed inputs.  Inference runs the
same layer functions on non-grad views of the parameters, so it records no
autograd graph.  A parameter is a leaf tensor in ``Model.params`` and its
momentum the array of the same name in ``Model.velocity``, both float32
(``PARAM_DTYPE``): the network computes in single precision, while anchors,
decoded segments, NMS and scoring stay float64.  A velocity is absent until
the parameter's first update creates it, and absent means zeros, so a model
that only infers holds none.  A checkpoint (TFPM version 4) is the configs
plus the arrays: its header holds the configs, the step and the parameter
names in ``Model.param_specs`` order, its payload each parameter's values
and then velocity.  Changing that order needs a new version.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import anchorkit, datakit, evalkit, heads, numcore as nc, pyramid
from .errors import ConfigError, ContractError, DataError, _shown, check_int, check_real

CHECKPOINT_MAGIC = b"TFPM"
CHECKPOINT_VERSION = 4
PARAM_DTYPE = np.float32  # of every parameter, velocity and feature the network computes on


@dataclass(frozen=True, slots=True)
class LossWeights:
    """Per-level loss balance: gamma scales a level's whole contribution,
    lam trades classification against localization inside it."""

    gamma: tuple[float, ...] = (1.0, 1.0, 1.0)
    lam: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not (isinstance(self.gamma, (tuple, list)) and isinstance(self.lam, (tuple, list)) and len(self.gamma) == len(self.lam)):
            raise ConfigError(f"gamma and lambda must be equal-length tuples or lists, got {_shown(self.gamma)} and {_shown(self.lam)}")
        for name in ("gamma", "lam"):
            object.__setattr__(self, name, tuple(check_real(f"loss weights {name}", w, "(0, inf)") for w in getattr(self, name)))


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """Desk-scale defaults.  The paper trains with lr 1e-4, decayed 10x
    every 100k steps, for 150k steps.  ``max_steps`` is the step count
    ``fit`` runs; nothing reads ``checkpoint_every`` yet (ROADMAP item 2b)."""

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
        if type(self.sgd) is not nc.SgdConfig or type(self.loss_weights) is not LossWeights:
            raise ConfigError(f"sgd must be an SgdConfig and loss_weights a LossWeights, got {_shown(self.sgd)}"
                              f" and {_shown(self.loss_weights)}")
        for name in ("max_steps", "buffer_len", "apn_batch", "acn_batch", "checkpoint_every"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        for name in ("apn_pos_fraction", "acn_pos_fraction"):
            check_real(name, getattr(self, name), "[0, 1]")


class Model:
    """All named parameters, the namesake momentum buffers of those updated so far and the configs that shaped them."""

    def __init__(self, encoder_cfg: pyramid.EncoderConfig, pyramid_cfg: pyramid.PyramidConfig,
                 apn_cfg: heads.ApnConfig, acn_cfg: heads.AcnConfig, params: dict, velocity: dict):
        if len(apn_cfg.scales) != pyramid_cfg.num_levels:
            raise ConfigError(
                f"{len(apn_cfg.scales)} anchor scale lists for {pyramid_cfg.num_levels} pyramid levels"
            )
        self.encoder_cfg = encoder_cfg
        self.pyramid_cfg = pyramid_cfg
        self.apn_cfg = apn_cfg
        self.acn_cfg = acn_cfg
        self.params = params
        self.velocity = velocity

    @staticmethod
    def param_specs(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg) -> list[tuple]:
        """(name, shape, init_spec) of every parameter, in creation order."""
        hidden = encoder_cfg.hidden_dim
        return (pyramid.encoder_param_specs(encoder_cfg) + pyramid.pyramid_param_specs(pyramid_cfg, hidden)
                + heads.apn_param_specs(hidden, apn_cfg) + heads.acn_param_specs(hidden, acn_cfg, pyramid_cfg.num_levels))

    @classmethod
    def build(cls, encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg, seed: int) -> "Model":
        """A fresh model: parameters drawn from the seed in float64 and cast
        to ``PARAM_DTYPE`` as drawn, their zero gradients views of one block
        (``nc.leaves``), and no velocities: zeros until each first update."""
        rng = np.random.default_rng([int(seed), 2])
        params = nc.create_params(cls.param_specs(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg), rng, PARAM_DTYPE)
        return cls(encoder_cfg, pyramid_cfg, apn_cfg, acn_cfg, params, {})

    def forward_pyramid(self, features: np.ndarray, params: dict) -> pyramid.PyramidFeatures:
        """The pyramid of a [D, L] feature array, computed in the parameters'
        dtype.  This is where a window becomes network input: loaded features
        are float32 already, and are not copied."""
        x = nc.Tensor(features.astype(params["encoder.block0.w"].data.dtype, copy=False))
        base = pyramid.encode(x, self.encoder_cfg, params)
        return pyramid.build_pyramid(base, self.pyramid_cfg, params)


@dataclass(slots=True)
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
    ``weights`` must hold one gamma and one lambda per level.
    """
    if not len(weights.gamma) == len(apn_terms) == len(acn_terms):
        raise ConfigError(f"{len(weights.gamma)} (gamma, lambda) loss weights for {len(apn_terms)} pyramid levels")
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


def _head_terms(logits, labels, reg, pos_pairs, targets) -> tuple:
    """One head's (classification loss, localization loss or None, positives,
    negatives) on one level: cross-entropy of ``logits`` against ``labels``,
    and smooth-L1 of the ``reg`` values at the positives' flat index pairs
    ``pos_pairs`` against their ``targets``; every sampled row that is not a
    positive is a negative."""
    cls_loss = nc.softmax_cross_entropy(logits, labels)
    loc_loss = nc.smooth_l1(nc.take(reg, pos_pairs), targets) if len(pos_pairs) else None
    return cls_loss, loc_loss, len(pos_pairs), len(labels) - len(pos_pairs)


def _apn_level_losses(apn_out, grid, match, cfg: TrainConfig, rng) -> list:
    terms = [(None, None, 0, 0)] * len(apn_out)
    for k, (cls_map, reg_map) in enumerate(apn_out):
        level_idx = grid.level_indices(k)
        if not match.labels[level_idx].any():  # all ignored: nothing to sample
            continue
        sel = anchorkit.sample_minibatch(match, cfg.apn_batch, cfg.apn_pos_fraction, rng, candidate_idx=level_idx)
        pairs = heads.anchor_map_indices(grid, k, cls_map.shape, sel)
        pos = match.labels[sel] == 1
        terms[k] = _head_terms(nc.take(cls_map, pairs), pos.astype(np.int64), reg_map, pairs[pos], match.reg_targets[sel[pos]])
    return terms


def _acn_level_losses(pyr, proposals, pmatch, model: Model, cfg: TrainConfig, rng) -> list:
    assignment = heads.assign_proposals(proposals, model.acn_cfg, model.pyramid_cfg.num_levels)
    sampled = [anchorkit.sample_pos_neg(c[pmatch.labels[c] > 0], c[pmatch.labels[c] == 0], cfg.acn_batch,
                                        cfg.acn_pos_fraction, rng) if c.size else c for c in assignment]
    terms = [(None, None, 0, 0)] * len(sampled)
    for k, (idx, cls, reg) in enumerate(heads.acn_forward(pyr, proposals, model.acn_cfg, model.params, assignment=sampled)):
        if cls is None:
            continue
        labels = pmatch.labels[idx]
        rows = np.nonzero(labels > 0)[0]
        terms[k] = _head_terms(cls, labels, reg, heads.acn_reg_indices(reg.shape, rows, labels[rows]), pmatch.reg_targets[idx[rows]])
    return terms


def _column(terms: list, i: int) -> list:
    """Entry ``i`` of each level's (cls, loc, positives, negatives), a loss as a float."""
    return [v.item() if isinstance(v, nc.Tensor) else v for v in (t[i] for t in terms)]


def step_loss(buffer: datakit.Buffer, model: Model, cfg: TrainConfig, grid: anchorkit.AnchorGrid,
              step: int) -> tuple[nc.Tensor, StepReport]:
    """The joint loss of one step on one buffer and its report: forward both
    heads and sample per-level minibatches, then run no backward and no
    update.  A non-finite loss raises ``ContractError``."""
    if buffer.features is None or buffer.features.size == 0:
        raise ContractError("a training step needs a buffer with features")
    rng = _step_rng(cfg.seed, step)
    pyr = model.forward_pyramid(buffer.features, model.params)
    apn_out = heads.apn_forward(pyr, model.params)
    proposals = heads.generate_proposals(apn_out, grid, model.apn_cfg)  # first: it checks the grid against the maps
    match = anchorkit.match_anchors_apn(grid, buffer.segments, model.apn_cfg.pos_tiou, model.apn_cfg.neg_tiou)
    apn = _apn_level_losses(apn_out, grid, match, cfg, rng)
    pmatch = anchorkit.match_proposals_acn(proposals.segments, buffer.segments, buffer.labels, model.acn_cfg.fg_tiou)
    acn = _acn_level_losses(pyr, proposals, pmatch, model, cfg, rng)
    loss = joint_loss([t[:2] for t in apn], [t[:2] for t in acn], cfg.loss_weights)
    report = StepReport(
        step=step,
        lr=cfg.sgd.effective_lr(step),
        total_loss=loss.item(),
        apn_cls=_column(apn, 0),
        apn_loc=_column(apn, 1),
        acn_cls=_column(acn, 0),
        acn_loc=_column(acn, 1),
        apn_pos=_column(apn, 2),
        apn_neg=_column(apn, 3),
        acn_pos=_column(acn, 2),
        acn_neg=_column(acn, 3),
    )
    _check_finite_losses(report)
    return loss, report


def train_step(buffer: datakit.Buffer, model: Model, cfg: TrainConfig, grid: anchorkit.AnchorGrid, step: int) -> StepReport:
    """One optimization step on one buffer: ``step_loss``, then backpropagate
    the joint loss and update.  A non-finite loss raises ``ContractError``
    before the update, leaving the parameters and velocities as they were."""
    loss, report = step_loss(buffer, model, cfg, grid, step)
    nc.backward(loss)
    nc.sgd_step(model.params, model.velocity, cfg.sgd, step)
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
    """Uniformly pick a video, then one of its windows, for this step.  No
    video, or a video without windows, raises ContractError before any draw."""
    if not buffers_by_video or not all(buffers_by_video.values()):
        raise ContractError("pick_training_buffer needs at least one video, and at least one buffer per video")
    rng = _step_rng(cfg.seed, step)
    vids = sorted(buffers_by_video)
    vid = vids[int(rng.integers(len(vids)))]
    bufs = buffers_by_video[vid]
    return bufs[int(rng.integers(len(bufs)))]


def fit(buffers_by_video: dict[str, list], model: Model, cfg: TrainConfig):
    """Train for ``cfg.max_steps`` steps, yielding each step's report: step
    s is ``train_step`` on ``pick_training_buffer``'s pick for s, on the
    config's anchor grid, built once.  A generator: each step runs when its
    report is asked for."""
    grid = anchorkit.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    for step in range(cfg.max_steps):
        yield train_step(pick_training_buffer(buffers_by_video, cfg, step), model, cfg, grid, step)


def _forward_windows(record: datakit.VideoRecord, model: Model, cfg: TrainConfig):
    """(buffer, pyramid, frozen parameters, proposals) per disjoint forward
    window of the video; computed on frozen parameters, they record no graph."""
    grid = anchorkit.build_anchor_grid(cfg.buffer_len, model.pyramid_cfg.strides, model.apn_cfg.scales)
    params = {name: nc.Tensor(p.data) for name, p in model.params.items()}  # non-grad views, not copies
    for buf in datakit.make_buffers(record, cfg.buffer_len, directions="forward"):
        pyr = model.forward_pyramid(buf.features, params)
        yield buf, pyr, params, heads.generate_proposals(heads.apn_forward(pyr, params), grid, model.apn_cfg)


def _window_proposals(window: tuple) -> tuple:
    """A ``_forward_windows`` window's proposals in video frames as (segments,
    objectness, levels), without those that clamping to its content leaves
    shorter than a frame."""
    buf, _, _, proposals = window
    segs = np.minimum(proposals.segments, float(buf.num_valid)) + buf.frame_offset  # decode clamped starts at 0
    keep = segs[:, 1] - segs[:, 0] >= 1.0
    return segs[keep], proposals.objectness[keep], proposals.levels[keep]


def _proposal_objects(windows: list) -> list[heads.Proposal]:
    """The windows' ``_window_proposals`` as ``Proposal`` objects, ranked by objectness, then start."""
    segs, obj, levels = (np.concatenate(x) for x in zip(*windows))
    order = np.lexsort((segs[:, 0], -obj))
    rows = zip(segs[order].tolist(), obj[order].tolist(), levels[order].tolist())
    return [heads.Proposal(anchorkit.Segment(a, b), score, level) for (a, b), score, level in rows]


def _window_detections(window: tuple, model: Model) -> heads.Detections:
    """A ``_forward_windows`` window's ACN candidates in video frames."""
    buf, pyr, params, proposals = window
    return heads.finalize_detections(heads.acn_forward(pyr, proposals, model.acn_cfg, params), proposals, model.acn_cfg, buf)


def _detection_objects(windows: list, model: Model, video_id: str) -> list[heads.Detection]:
    """One class-wise ``nms_detections`` over all windows' candidates; only
    its survivors become ``Detection`` objects."""
    dets = heads.nms_detections(heads.Detections.concat(windows), model.acn_cfg.nms_tiou)
    rows = zip(dets.segments.tolist(), dets.labels.tolist(), dets.scores.tolist())
    return [heads.Detection(anchorkit.Segment(s, e), c, score, video_id) for (s, e), c, score in rows]


def propose_video(record: datakit.VideoRecord, model: Model, cfg: TrainConfig) -> list[heads.Proposal]:
    """Every forward window's proposals in video frames, ranked by objectness, then start."""
    return _proposal_objects([_window_proposals(w) for w in _forward_windows(record, model, cfg)])


def infer_video(record: datakit.VideoRecord, model: Model, cfg: TrainConfig) -> list[heads.Detection]:
    """Two-stage inference over disjoint forward windows on frozen parameters
    (no graph is recorded): all windows' candidates pass one class-wise
    ``nms_detections``, and only its survivors become ``Detection`` objects."""
    windows = [_window_detections(w, model) for w in _forward_windows(record, model, cfg)]
    return _detection_objects(windows, model, record.video_id)


def evaluate(records: dict, model: Model, cfg: TrainConfig, eval_cfg: evalkit.EvalConfig) -> evalkit.EvalReport:
    """``evaluate_detections`` of the ``infer_video`` detections of
    ``records`` (video id -> ``VideoRecord``), in dict order, against their
    annotations, with ``ar_at_budget`` the ``average_recall`` of their
    ``propose_video`` at ``eval_cfg.proposal_budget`` over ``ar_tiou_grid``.
    Both come from one walk of each video's forward windows."""
    detections, proposals = [], {}
    for r in records.values():
        dets, props = [], []
        for w in _forward_windows(r, model, cfg):
            dets.append(_window_detections(w, model))
            props.append(_window_proposals(w))
        detections += _detection_objects(dets, model, r.video_id)
        proposals[r.video_id] = _proposal_objects(props)
    gts = {r.video_id: [(a.segment(), a.label) for a in r.annotations] for r in records.values()}
    report = evalkit.evaluate_detections(detections, gts, eval_cfg)
    segments = {vid: [seg for seg, _ in v] for vid, v in gts.items()}
    ar = evalkit.average_recall(proposals, segments, eval_cfg.proposal_budget, eval_cfg.ar_tiou_grid)
    return replace(report, ar_at_budget=ar)


# ---------------------------------------------------------------------------
# checkpoint container


@dataclass(frozen=True, slots=True)
class _Configs:
    """The configs a checkpoint header records; they define the model."""

    encoder: pyramid.EncoderConfig
    pyramid: pyramid.PyramidConfig
    apn: heads.ApnConfig
    acn: heads.AcnConfig
    train: TrainConfig


def save_checkpoint(path, model: Model, train_cfg: TrainConfig, step: int) -> None:
    """Write the TFPM container, version 4: magic, little-endian u32
    version and header length, JSON header, payload.

    The header holds ``configs``, ``step`` and ``params``, the parameter
    names in ``Model.param_specs`` order.  The payload holds each parameter's
    values and then its momentum velocity, in that order, as little-endian
    f32, zeros for a parameter not yet updated; shapes come from the
    configs alone.  A code change to what ``param_specs`` gives for the same
    configs (names, order or shapes) changes this layout and needs a new
    version; the name list makes older files fail to load rather than load
    wrong.
    """
    cfgs = _Configs(model.encoder_cfg, model.pyramid_cfg, model.apn_cfg, model.acn_cfg, train_cfg)
    names = [name for name, _, _ in Model.param_specs(cfgs.encoder, cfgs.pyramid, cfgs.apn, cfgs.acn)]
    header = {"configs": asdict(cfgs), "step": check_int("checkpoint step", step, 0, ContractError), "params": names}
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(hb)))
        f.write(hb)
        for name in names:
            values = model.params[name].data
            for a in (values, model.velocity.get(name, np.zeros_like(values))):
                f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def _decode(tp, value, where: str):
    """``value``, read from JSON, rebuilt as a config field of type ``tp``: a
    config dataclass from an object with exactly its fields, each decoded by
    its annotation.  Any other value, a list too, goes as read to the
    config's constructor, which checks it and makes a tuple of a list."""
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        if not isinstance(value, dict) or set(value) != set(hints):
            raise DataError(f"{where}: expected an object with exactly the fields of {tp.__name__}")
        return tp(**{name: _decode(hints[name], v, f"{where}.{name}") for name, v in value.items()})
    return value


def load_checkpoint(path) -> tuple[Model, TrainConfig, int]:
    """Read a TFPM version 4 container; any malformed or inconsistent
    content raises ``DataError``.  The header's ``params`` must equal the
    names that ``Model.param_specs`` gives for its configs, and the payload
    must hold 8 bytes per parameter element, before anything is allocated.
    Parameters (through ``nc.leaves``) and velocities load as ``PARAM_DTYPE``,
    one of all-zero bits as absent, so save, load and save write the same bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if 12 + hlen > len(raw):
        raise DataError(f"{path}: truncated header ({len(raw) - 12} of {hlen} bytes)")
    header = datakit._read_json(raw[12 : 12 + hlen], f"{path}: checkpoint header")
    if not isinstance(header, dict) or set(header) != {"configs", "step", "params"}:
        raise DataError(f"{path}: checkpoint header needs exactly the keys configs, step and params")
    check_int(f"{path}: checkpoint step", header["step"], 0, DataError)
    try:
        cfgs = _decode(_Configs, header["configs"], f"{path}: configs")
        model = Model(cfgs.encoder, cfgs.pyramid, cfgs.apn, cfgs.acn, {}, {})  # arrays from the payload below
        specs = Model.param_specs(cfgs.encoder, cfgs.pyramid, cfgs.apn, cfgs.acn)
        if len(cfgs.train.loss_weights.gamma) != cfgs.pyramid.num_levels:
            raise ConfigError(f"{len(cfgs.train.loss_weights.gamma)} (gamma, lambda) loss weights"
                              f" for {cfgs.pyramid.num_levels} pyramid levels")
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{path}: invalid checkpoint configs: {exc!r}") from exc
    if header["params"] != [name for name, _, _ in specs]:
        raise DataError(f"{path}: checkpoint params are not the parameters of its configs, in order")
    sizes = [math.prod(shape) for _, shape, _ in specs]
    offset = 12 + hlen
    if len(raw) - offset != 8 * sum(sizes):
        raise DataError(f"{path}: payload has {len(raw) - offset} bytes, the configs need {8 * sum(sizes)}")
    for (name, shape, _), size in zip(specs, sizes):
        values, velocity = np.frombuffer(raw, dtype="<f4", count=2 * size, offset=offset).reshape((2, *shape))
        model.params[name] = values.astype(PARAM_DTYPE)
        if velocity.view("<u4").any():  # all bits zero is what an absent velocity saves as
            model.velocity[name] = velocity.astype(PARAM_DTYPE)
        offset += 8 * size
    model.params = nc.leaves(model.params)
    return model, cfgs.train, header["step"]
