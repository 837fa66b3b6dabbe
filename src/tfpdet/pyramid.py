"""Temporal encoder and the multi-level temporal feature pyramid.

The encoder maps per-frame descriptors [D_in, L] to a stride-8 feature
sequence [D, L/8] through three conv+relu+pool blocks.  The pyramid keeps
that sequence as level 0 and derives coarser levels by cascaded
down-sampling, either parameter-free (max pooling) or learned (strided
convolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigError, _shown, check_int

ENCODER_BLOCKS = 3  # conv+relu+pool blocks, each halving the length
ENCODER_STRIDE = 2 ** ENCODER_BLOCKS

HEAD_WEIGHT_STD = 0.01
HEAD_BIAS = 0.1


def layer_specs(layers: list[tuple]) -> list[tuple]:
    """(name, shape, init_spec) of the weights and then the biases of
    ``layers``, each given as (name, weight shape).  A conv weight is
    [C_out, C_in, k] and a linear one [D_in, D_out]; they give the fan-in
    and the bias width.  Initialization follows the split between the
    backbone stand-in and the detection-specific layers: the encoder
    replaces a pretrained feature extractor and gets fan-in-scaled weights,
    sqrt(2 / fan_in), while every head/pyramid layer is drawn from
    N(0, HEAD_WEIGHT_STD^2) with biases at HEAD_BIAS."""
    weights, biases = [], []
    for name, shape in layers:
        fan_in, out = (shape[1] * shape[2], shape[0]) if len(shape) == 3 else shape
        std = math.sqrt(2.0 / fan_in) if name.startswith("encoder.") else HEAD_WEIGHT_STD
        weights.append((f"{name}.w", shape, ("gaussian", 0.0, std)))
        biases.append((f"{name}.b", (out,), ("constant", HEAD_BIAS)))
    return weights + biases


@dataclass(frozen=True, slots=True)
class EncoderConfig:
    input_dim: int
    hidden_dim: int = 64

    def __post_init__(self):
        check_int("input_dim", self.input_dim, 1)
        check_int("hidden_dim", self.hidden_dim, 1)


@dataclass(frozen=True, slots=True)
class PyramidConfig:
    variant: str = "conv"
    num_levels: int = 3

    def __post_init__(self):
        if self.variant not in ("max", "conv"):
            raise ConfigError(f"pyramid variant must be 'max' or 'conv', got {_shown(self.variant)}")
        check_int("num_levels", self.num_levels, 1)

    @property
    def strides(self) -> tuple:
        """Level k's stride in frames: the encoder's, doubled per level."""
        return tuple(ENCODER_STRIDE << k for k in range(self.num_levels))


@dataclass(slots=True)
class PyramidFeatures:
    """Per-level feature sequences [D, L_buf/stride_k] plus their strides."""

    levels: list
    strides: tuple


def encoder_param_specs(cfg: EncoderConfig) -> list[tuple]:
    """(name, shape, init_spec) of every encoder parameter, in creation order."""
    c_in = (cfg.input_dim,) + (cfg.hidden_dim,) * (ENCODER_BLOCKS - 1)
    return [s for i, c in enumerate(c_in) for s in layer_specs([(f"encoder.block{i}", (cfg.hidden_dim, c, 3))])]


def pyramid_param_specs(pcfg: PyramidConfig, hidden_dim: int) -> list[tuple]:
    """(name, shape, init_spec) of the down-sampling convs of the conv variant."""
    levels = range(1, pcfg.num_levels) if pcfg.variant == "conv" else ()
    return [s for k in levels for s in layer_specs([(f"pyramid.down{k}", (hidden_dim, hidden_dim, 3))])]


def encode(x: nc.Tensor, cfg: EncoderConfig, params: dict) -> nc.Tensor:
    """Run the encoder blocks on a window's [D_in, L] Tensor: conv(k=3,
    pad=1) + relu + pair max pool."""
    if x.shape[0] != cfg.input_dim:
        raise ConfigError(f"encoder expects {cfg.input_dim} input channels, got {x.shape[0]}")
    if x.shape[1] % ENCODER_STRIDE != 0:
        raise ConfigError(f"buffer length {x.shape[1]} not divisible by encoder stride {ENCODER_STRIDE}")
    for i in range(ENCODER_BLOCKS):
        x = nc.relu(nc.temporal_conv(x, params[f"encoder.block{i}.w"], params[f"encoder.block{i}.b"], stride=1, padding=1))
        x = nc.temporal_maxpool(x)
    return x


def build_pyramid(base: nc.Tensor, cfg: PyramidConfig, params: dict) -> PyramidFeatures:
    """Cascade down-sampling from the stride-8 base map, a [D, T] Tensor.

    MAX takes ``temporal_maxpool``'s pair maximum; CONV uses temporal_conv(k=3,
    s=2, pad=1) followed by relu, halving the length either way.
    """
    if cfg.num_levels > 1 and base.shape[1] % (2 ** (cfg.num_levels - 1)) != 0:
        raise ConfigError(
            f"base length {base.shape[1]} not divisible by {2 ** (cfg.num_levels - 1)} for {cfg.num_levels} levels"
        )
    levels = [base]
    for k in range(1, cfg.num_levels):
        prev = levels[-1]
        if cfg.variant == "max":
            levels.append(nc.temporal_maxpool(prev))
        else:
            levels.append(
                nc.relu(nc.temporal_conv(prev, params[f"pyramid.down{k}.w"], params[f"pyramid.down{k}.b"], stride=2, padding=1))
            )
    return PyramidFeatures(levels=levels, strides=cfg.strides)
