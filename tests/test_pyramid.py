import numpy as np
import pytest

from tfpdet import numcore as nc, pyramid as pyr
from tfpdet.errors import ConfigError

from oracles import check_gradients


def build_params(ecfg, pcfg, seed=0):
    rng = np.random.default_rng(seed)
    params = nc.create_params(pyr.encoder_param_specs(ecfg), rng)
    params.update(nc.create_params(pyr.pyramid_param_specs(pcfg, ecfg.hidden_dim), rng))
    return params


def test_encoder_output_shape():
    ecfg = pyr.EncoderConfig(input_dim=16, hidden_dim=64)
    params = build_params(ecfg, pyr.PyramidConfig())
    out = pyr.encode(nc.Tensor(np.random.default_rng(0).standard_normal((16, 768))), ecfg, params)
    assert out.shape == (64, 96)


def test_encoder_rejects_indivisible_length():
    ecfg = pyr.EncoderConfig(input_dim=4, hidden_dim=8)
    params = build_params(ecfg, pyr.PyramidConfig())
    with pytest.raises(ConfigError, match="divisible"):
        pyr.encode(nc.Tensor(np.zeros((4, 20))), ecfg, params)


def test_encoder_constant_propagation_with_zero_weights():
    ecfg = pyr.EncoderConfig(input_dim=4, hidden_dim=8)
    params = build_params(ecfg, pyr.PyramidConfig())
    for name, p in params.items():
        p.data = np.zeros_like(p.data) if name.endswith(".w") else np.full_like(p.data, 0.1)
    first = nc.temporal_conv(nc.Tensor(np.zeros((4, 32))), params["encoder.block0.w"], params["encoder.block0.b"], 1, 1)
    assert np.all(nc.relu(first).data == 0.1)
    out = pyr.encode(nc.Tensor(np.zeros((4, 32))), ecfg, params)
    assert np.all(out.data == 0.1)


def test_pyramid_level_lengths():
    pcfg = pyr.PyramidConfig(variant="max")
    feats = pyr.build_pyramid(nc.Tensor(np.random.default_rng(1).standard_normal((8, 96))), pcfg, {})
    assert [l.shape[1] for l in feats.levels] == [96, 48, 24]
    assert all(l.shape[1] * s == 768 for l, s in zip(feats.levels, feats.strides))


def test_pyramid_max_chain():
    feats = pyr.build_pyramid(nc.Tensor([[1.0, 2.0, 3.0, 4.0]]), pyr.PyramidConfig(variant="max"), {})
    assert np.array_equal(feats.levels[1].data, [[2.0, 4.0]])
    assert np.array_equal(feats.levels[2].data, [[4.0]])


def test_pyramid_max_is_monotone_per_channel():
    rng = np.random.default_rng(4)
    feats = pyr.build_pyramid(nc.Tensor(rng.standard_normal((6, 64))), pyr.PyramidConfig(variant="max"), {})
    for a, b in zip(feats.levels, feats.levels[1:]):
        assert np.all(b.data.max(axis=1) <= a.data.max(axis=1))


def test_conv_variant_has_parameters_max_does_not():
    ecfg = pyr.EncoderConfig(input_dim=4, hidden_dim=8)
    rng = np.random.default_rng(0)
    assert nc.create_params(pyr.pyramid_param_specs(pyr.PyramidConfig(variant="max"), 8), rng) == {}
    conv_params = nc.create_params(pyr.pyramid_param_specs(pyr.PyramidConfig(variant="conv"), 8), rng)
    assert sorted(conv_params) == [
        "pyramid.down1.b", "pyramid.down1.w", "pyramid.down2.b", "pyramid.down2.w",
    ]


def test_single_level_pyramid_is_base_only():
    base = nc.Tensor(np.random.default_rng(2).standard_normal((4, 96)))
    feats = pyr.build_pyramid(base, pyr.PyramidConfig(num_levels=1), {})
    assert len(feats.levels) == 1
    assert feats.levels[0] is base


def test_pyramid_config_validation():
    # an int of over 4,300 digits, alone or in a tuple, raised a bare
    # ValueError while the message was written
    for variant in ("avg", 10 ** 5000, (10 ** 5000,)):
        with pytest.raises(ConfigError, match="variant"):
            pyr.PyramidConfig(variant=variant)
    with pytest.raises(ConfigError):
        pyr.PyramidConfig(num_levels=0)
    # num_levels=True built a one-level pyramid
    for value in (float("nan"), 2.5, 768.0, True):
        with pytest.raises(ConfigError, match="levels"):
            pyr.PyramidConfig(num_levels=value)
        for field in ("input_dim", "hidden_dim"):
            with pytest.raises(ConfigError, match=rf"{field} must be an int >= 1"):
                pyr.EncoderConfig(**{"input_dim": 4, field: value})
    # strides are derived: the encoder's 8, doubled per level
    assert pyr.PyramidConfig(num_levels=4).strides == (8, 16, 32, 64)


@pytest.mark.parametrize("variant", ["max", "conv"])
def test_gradcheck_encoder_and_pyramid(variant):
    ecfg = pyr.EncoderConfig(input_dim=2, hidden_dim=3)
    pcfg = pyr.PyramidConfig(variant=variant)
    params = build_params(ecfg, pcfg, seed=7)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 32))
    targets = [rng.standard_normal((3, 32 // 8 // 2 ** k)) for k in range(3)]
    arrays = [x] + [p.data for p in params.values()]

    def build():
        xt = nc.Tensor(x, requires_grad=True)
        feats = pyr.build_pyramid(pyr.encode(xt, ecfg, params), pcfg, params)
        loss = None
        for lvl, tgt in zip(feats.levels, targets):
            term = nc.smooth_l1(lvl, tgt)
            loss = term if loss is None else nc.add(loss, term)
        return loss, [xt] + list(params.values())

    check_gradients(build, arrays)
