import math

import mpmath
import numpy as np
import pytest

from tfpdet import numcore as nc
from tfpdet.errors import ConfigError, ContractError

from oracles import check_gradients, max_relative_error, temporal_conv_ref, temporal_maxpool_ref


def tensor(data, grad=True):
    return nc.Tensor(np.array(data, dtype=np.float64), requires_grad=grad)


def assert_same_bytes(a, b):
    """Equal shape and bytes: tells -0.0 from 0.0 and compares NaN payloads."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def run_against_ref(op, ref, arrays, args, g):
    """Forward both kernels on fresh leaves, push ``g`` back through each and
    compare outputs and every leaf gradient byte for byte."""
    outs = []
    for fn in (op, ref):
        leaves = [nc.Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = fn(*leaves, *args)
        y._backward(g)
        outs.append([y.data] + [t.grad for t in leaves])
    for got, want in zip(*outs):
        assert_same_bytes(got, want)


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_weights():
    y = nc.linear(tensor([[1.0, 2.0]]), tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([0.0, 0.0]))
    assert np.array_equal(y.data, [[1.0, 2.0]])


def test_linear_zero_input_passes_bias():
    y = nc.linear(tensor([[0.0, 0.0]]), tensor([[5.0, -1.0], [2.0, 7.0]]), tensor([3.0, 4.0]))
    assert np.array_equal(y.data, [[3.0, 4.0]])


def test_linear_matches_triple_loop_matmul():
    rng = np.random.default_rng(7)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    y = nc.linear(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b))
    ref = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[j]
            for k in range(4):
                acc += x[i, k] * w[k, j]
            ref[i, j] = acc
    assert np.max(np.abs(y.data - ref)) < 1e-12


def test_linear_shape_mismatch_names_shapes():
    with pytest.raises(ContractError, match=r"\(1, 3\).*\(2, 2\)"):
        nc.linear(tensor([[1.0, 2.0, 3.0]]), tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([0.0, 0.0]))


# ---------------------------------------------------------------------------
# temporal_conv


def test_conv_identity_kernel():
    y = nc.temporal_conv(tensor([[1.0, 2.0, 3.0, 4.0]]), tensor([[[1.0]]]), tensor([0.0]), 1, 0)
    assert np.array_equal(y.data, [[1.0, 2.0, 3.0, 4.0]])


def test_conv_padded_box_kernel():
    # padded input 0,1,1,1,1,0; windows sum to 2,3,3,2
    y = nc.temporal_conv(tensor([[1.0, 1.0, 1.0, 1.0]]), tensor([[[1.0, 1.0, 1.0]]]), tensor([0.0]), 1, 1)
    assert np.array_equal(y.data, [[2.0, 3.0, 3.0, 2.0]])


def test_conv_output_length_formula():
    y = nc.temporal_conv(tensor([[1.0, 2.0, 3.0, 4.0]]), tensor([[[1.0, 1.0]]]), tensor([0.0]), 2, 0)
    assert y.shape == (1, 2)


def test_conv_empty_output_raises():
    with pytest.raises(ContractError, match="empty output"):
        nc.temporal_conv(tensor([[1.0, 2.0]]), tensor([[[1.0, 1.0, 1.0]]]), tensor([0.0]), 1, 0)


# ---------------------------------------------------------------------------
# temporal_maxpool


def test_maxpool_monotone_sequence():
    y = nc.temporal_maxpool(tensor([[1.0, 2.0, 3.0, 4.0]]), 2, 2)
    assert np.array_equal(y.data, [[2.0, 4.0]])


def test_maxpool_tie_routes_to_first():
    x = tensor([[5.0, 5.0, 5.0, 5.0]])
    y = nc.temporal_maxpool(x, 2, 2)
    assert np.array_equal(y.data, [[5.0, 5.0]])
    nc.backward(nc.smooth_l1(y, nc.Tensor(np.zeros((1, 2)))))
    # gradient lands only on the first element of each window
    assert x.grad[0, 0] != 0 and x.grad[0, 2] != 0
    assert x.grad[0, 1] == 0 and x.grad[0, 3] == 0


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 8))
    y = nc.temporal_maxpool(nc.Tensor(x), 3, 2)
    ref = np.array([[max(x[c, s : s + 3]) for s in range(0, 6, 2)] for c in range(3)])
    assert np.array_equal(y.data, ref)


@pytest.mark.parametrize("k,stride", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_maxpool_bytes_equal_argmax_oracle(k, stride):
    # small integer values tie often; (3, 1) and (5, 2) put one input cell in
    # three windows, where the order of the gradient adds matters
    rng = np.random.default_rng(100 + 10 * k + stride)
    for case in range(40):
        c, t_in = int(rng.integers(1, 6)), int(rng.integers(k, 3 * k + 12))
        x = rng.integers(-3, 4, size=(c, t_in)).astype(np.float64)
        if case % 4 == 0:
            x[rng.random(x.shape) < 0.2] = -0.0
        g = rng.standard_normal((c, (t_in - k) // stride + 1))
        g[rng.random(g.shape) < 0.1] = -0.0
        run_against_ref(nc.temporal_maxpool, temporal_maxpool_ref, [x], (k, stride), g)


def test_maxpool_nan_window_routes_to_its_first_nan():
    x = np.array([[1.0, np.nan, np.nan, 2.0, 3.0, 3.0]])
    run_against_ref(nc.temporal_maxpool, temporal_maxpool_ref, [x], (3, 1), np.arange(1.0, 5.0)[None])


def test_maxpool_too_short_raises():
    with pytest.raises(ContractError, match="empty output"):
        nc.temporal_maxpool(tensor([[1.0]]), 2, 2)


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_cross_entropy_symmetric_logits():
    loss = nc.softmax_cross_entropy(tensor([[0.0, 0.0]]), [0])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_stabilized_no_overflow():
    loss = nc.softmax_cross_entropy(tensor([[1000.0, 0.0]]), [0])
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_high_precision_oracle():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((4, 3)) * 3
    labels = rng.integers(0, 3, size=4)
    loss = nc.softmax_cross_entropy(nc.Tensor(logits), labels)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for i in range(4):
            lse = mpmath.log(mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in logits[i]))
            total += lse - mpmath.mpf(logits[i, labels[i]])
        ref = float(total / 4)
    assert abs(loss.item() - ref) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        nc.softmax_cross_entropy(tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_nonnegative_and_zero_limit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits = rng.standard_normal((3, 4)) * 5
        labels = rng.integers(0, 4, size=3)
        assert nc.softmax_cross_entropy(nc.Tensor(logits), labels).item() >= 0.0
    margins = [2.0, 5.0, 10.0]
    losses = [nc.softmax_cross_entropy(tensor([[m, 0.0, 0.0]]), [0]).item() for m in margins]
    assert losses[0] > losses[1] > losses[2] > 0.0
    assert nc.softmax_cross_entropy(tensor([[1000.0, 0.0, 0.0]]), [0]).item() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# smooth L1


def test_smooth_l1_zero_residual():
    assert nc.smooth_l1(tensor([[1.0, 2.0]]), tensor([[1.0, 2.0]])).item() == 0.0


@pytest.mark.parametrize("d,expected", [(0.5, 0.125), (2.0, 1.5)])
def test_smooth_l1_closed_form(d, expected):
    assert nc.smooth_l1(tensor([[d]]), tensor([[0.0]])).item() == pytest.approx(expected, abs=1e-15)


def test_smooth_l1_continuous_at_one():
    eps = 1e-13
    below = nc.smooth_l1(tensor([[1.0 - eps]]), tensor([[0.0]])).item()
    above = nc.smooth_l1(tensor([[1.0 + eps]]), tensor([[0.0]])).item()
    assert abs(below - above) < 1e-12
    # derivative: d for |d|<1, sign(d) beyond; both sides approach 1
    for d in (1.0 - 1e-9, 1.0 + 1e-9):
        x = tensor([[d]])
        nc.backward(nc.smooth_l1(x, nc.Tensor([[0.0]])))
        assert abs(x.grad[0, 0] - 1.0) < 1e-8


def test_smooth_l1_shape_mismatch():
    with pytest.raises(ContractError, match="mismatch"):
        nc.smooth_l1(tensor([[1.0, 2.0]]), tensor([[1.0]]))


# ---------------------------------------------------------------------------
# relu / concat


def test_relu_sign_cases():
    y = nc.relu(tensor([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(y.data, [[0.0, 0.0, 2.0]])


def test_concat_minimal_stack():
    y = nc.concat_channels(tensor([[1.0]]), tensor([[2.0]]))
    assert np.array_equal(y.data, [[1.0], [2.0]])


def test_concat_unequal_length_raises():
    with pytest.raises(ContractError, match="equal T"):
        nc.concat_channels(tensor([[1.0, 2.0]]), tensor([[3.0]]))


def test_concat_gradient_splits_exactly():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((1, 3))
    target = rng.standard_normal((3, 3))

    def build():
        at, bt = nc.Tensor(a, requires_grad=True), nc.Tensor(b, requires_grad=True)
        return nc.smooth_l1(nc.concat_channels(at, bt), nc.Tensor(target)), [at, bt]

    check_gradients(build, [a, b])


# ---------------------------------------------------------------------------
# backward / sgd


def test_backward_rejects_non_scalar():
    with pytest.raises(ContractError, match="scalar"):
        nc.backward(tensor([[1.0, 2.0]]))


def test_leaf_gradients_accumulate_in_buffers_of_their_own():
    # both adds hand one gradient array to two tensors; a leaf without a
    # buffer must copy it before the second add accumulates into it in place
    a, b = tensor([1.0, 2.0]), tensor([3.0, 4.0])
    a.grad = b.grad = None
    owned = tensor([5.0, 6.0])
    buffer = owned.grad
    y = nc.add(nc.add(nc.add(a, b), a), owned)
    nc.backward(nc.smooth_l1(y, nc.Tensor(np.zeros(2))))
    assert np.array_equal(a.grad, [1.0, 1.0]) and np.array_equal(b.grad, [0.5, 0.5])
    assert owned.grad is buffer and np.array_equal(buffer, [0.5, 0.5])


def test_ops_on_non_grad_inputs_record_nothing():
    # each op's backward closure holds its operands; a non-grad result must
    # drop both, or a forward-only pass keeps every intermediate alive
    x, w, b = tensor(np.ones((2, 3)), grad=False), tensor(np.ones((3, 2)), grad=False), tensor([0.0, 1.0], grad=False)
    ys = [nc.linear(x, w, b), nc.relu(x), nc.take(x, [[0, 4]]), nc.rows(x, 0, 1), nc.scale(x, 2.0),
          nc.temporal_conv(x, tensor(np.ones((1, 2, 1)), grad=False), tensor([0.0], grad=False)),
          nc.gathered(x, np.ones(2), lambda: [0, 1])]
    for y in ys:
        assert not y.requires_grad and y._parents == () and y._backward is None and y.grad is None
    # one gradient-requiring operand is enough to record the node
    y = nc.linear(x, tensor(np.ones((3, 2))), b)
    assert y.requires_grad and len(y._parents) == 3 and y._backward is not None


def test_gathered_equals_take_and_builds_indices_only_for_backward():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 5))
    idx = rng.integers(0, 20, size=(6, 3))  # repeats: the scatter order matters
    g = rng.standard_normal(idx.shape)
    calls = []

    def indices():
        calls.append(1)
        return idx

    run_against_ref(lambda x: nc.gathered(x, x.data.reshape(-1)[idx], indices), lambda x: nc.take(x, idx), [data], (), g)
    assert len(calls) == 1
    nc.gathered(tensor(data, grad=False), np.zeros(idx.shape), indices)
    assert len(calls) == 1


def test_sgd_plain_gradient_step():
    p = nc.Parameter("p", nc.Tensor([1.0], requires_grad=True), ("constant", 1.0))
    p.tensor.grad = np.array([1.0])
    nc.sgd_step([p], nc.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0), 0)
    assert p.data[0] == pytest.approx(0.9, abs=1e-15)
    assert np.array_equal(p.tensor.grad, [0.0])


def test_sgd_momentum_two_steps():
    p = nc.Parameter("p", nc.Tensor([1.0], requires_grad=True), ("constant", 1.0))
    cfg = nc.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    for step in range(2):
        p.tensor.grad = np.array([1.0])
        nc.sgd_step([p], cfg, step)
    # v1 = 1, p = 0.9; v2 = 1.9, p = 0.9 - 0.19 = 0.71
    assert p.data[0] == pytest.approx(0.71, abs=1e-15)


def test_sgd_pure_weight_decay():
    p = nc.Parameter("p", nc.Tensor([1.0], requires_grad=True), ("constant", 1.0))
    p.tensor.grad = np.array([0.0])
    nc.sgd_step([p], nc.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5), 0)
    assert p.data[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_delta_equals_lr_times_grad_exactly():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(5)
    grad = rng.standard_normal(5)
    p = nc.Parameter("p", nc.Tensor(vals.copy(), requires_grad=True), ("constant", 0.0))
    p.tensor.grad = grad.copy()
    nc.sgd_step([p], nc.SgdConfig(learning_rate=0.01, momentum=0.0, weight_decay=0.0), 0)
    assert np.array_equal(p.data, vals - 0.01 * grad)


def test_lr_schedule():
    cfg = nc.SgdConfig(learning_rate=1e-3, lr_decay_factor=0.1, lr_decay_every=100)
    assert cfg.effective_lr(0) == 1e-3
    assert cfg.effective_lr(99) == 1e-3
    assert cfg.effective_lr(100) == pytest.approx(1e-4)
    assert cfg.effective_lr(250) == pytest.approx(1e-5)


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        nc.SgdConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        nc.SgdConfig(momentum=1.0)


# ---------------------------------------------------------------------------
# parameter init


def test_parameter_init_specs():
    rng = np.random.default_rng(0)
    g = nc.Parameter.create("g", (2000,), ("gaussian", 0.0, 0.01), rng)
    c = nc.Parameter.create("c", (3, 3), ("constant", 0.1), rng)
    assert abs(g.data.std() - 0.01) < 2e-3
    assert np.all(c.data == 0.1)
    assert g.tensor.grad is not None and g.tensor.grad.shape == g.data.shape


# ---------------------------------------------------------------------------
# gradient checks per op


def test_gradcheck_linear():
    rng = np.random.default_rng(21)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    t = rng.standard_normal((3, 2))

    def build():
        xt, wt, bt = (nc.Tensor(a, requires_grad=True) for a in (x, w, b))
        return nc.smooth_l1(nc.linear(xt, wt, bt), nc.Tensor(t)), [xt, wt, bt]

    check_gradients(build, [x, w, b])


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
def test_gradcheck_temporal_conv(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    x, w, b = rng.standard_normal((2, 9)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)

    def build():
        xt, wt, bt = (nc.Tensor(a, requires_grad=True) for a in (x, w, b))
        y = nc.temporal_conv(xt, wt, bt, stride, padding)
        labels = np.arange(y.shape[1]) % y.shape[0]
        return nc.softmax_cross_entropy(nc.reshape(y, (y.shape[1], y.shape[0])), labels), [xt, wt, bt]

    check_gradients(build, [x, w, b])


def test_gradcheck_maxpool_and_relu():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((3, 10))
    t = rng.standard_normal((3, 4))

    def build():
        xt = nc.Tensor(x, requires_grad=True)
        return nc.smooth_l1(nc.temporal_maxpool(nc.relu(xt), 3, 2), nc.Tensor(t)), [xt]

    check_gradients(build, [x])


def test_gradcheck_cross_entropy_and_take():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((4, 6))
    idx = np.array([[1, 3], [7, 9], [13, 17], [20, 23]])
    labels = np.array([0, 1, 1, 0])

    def build():
        xt = nc.Tensor(x, requires_grad=True)
        return nc.softmax_cross_entropy(nc.take(xt, idx), labels), [xt]

    check_gradients(build, [x])


def test_gradcheck_batched_conv_concat_and_scale_add():
    rng = np.random.default_rng(55)
    x = rng.standard_normal((3, 2, 4))
    wa, ba = rng.standard_normal((2, 2, 3)), rng.standard_normal(2)
    wb, bb = rng.standard_normal((1, 2, 3)), rng.standard_normal(1)
    t = rng.standard_normal((3, 3, 4))
    arrays = [x, wa, ba, wb, bb]

    def build():
        xt, wat, bat, wbt, bbt = (nc.Tensor(a, requires_grad=True) for a in arrays)
        y = nc.concat_channels(nc.temporal_conv(xt, wat, bat, 1, 1), nc.relu(nc.temporal_conv(xt, wbt, bbt, 1, 1)))
        loss = nc.add(nc.scale(nc.smooth_l1(y, nc.Tensor(t)), 2.0),
                      nc.softmax_cross_entropy(nc.reshape(y, (3, 12)), np.arange(3)))
        return loss, [xt, wat, bat, wbt, bbt]

    check_gradients(build, arrays)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_batched_conv_equals_per_row_calls(stride, padding):
    rng = np.random.default_rng(66 + stride)
    x, w, b = rng.standard_normal((5, 6, 7)), rng.standard_normal((3, 6, 3)), rng.standard_normal(3)
    g = rng.standard_normal((5, 3, (7 + 2 * padding - 3) // stride + 1))
    xt, wt, bt = (nc.Tensor(a, requires_grad=True) for a in (x, w, b))
    y = nc.temporal_conv(xt, wt, bt, stride, padding)
    y._backward(g)
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    for i in range(5):
        xi, wi, bi = (nc.Tensor(a, requires_grad=True) for a in (x[i], w, b))
        yi = nc.temporal_conv(xi, wi, bi, stride, padding)
        yi._backward(g[i])
        assert np.array_equal(y.data[i], yi.data)
        assert np.array_equal(xt.grad[i], xi.grad)
        gw += wi.grad
        gb += bi.grad
    # one gemm over all rows sums the weight gradient in another order
    np.testing.assert_allclose(wt.grad, gw, rtol=1e-12)
    np.testing.assert_allclose(bt.grad, gb, rtol=1e-12)


@pytest.mark.parametrize("n", [None, 1, 64])
@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 0, 2), (1, 2, 3)])
def test_conv_bytes_equal_oracle(n, stride, padding, k):
    # None is a 2-D [C, T] map; T runs over the RoI bin counts 1..5 and a
    # long map, so both scatter layouts of the input gradient are covered
    rng = np.random.default_rng(7 * k + 3 * stride + padding + (n or 0))
    for t_in in (1, 2, 3, 4, 5, 40):
        if t_in + 2 * padding < k:
            continue
        c_in, c_out = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        shape = (c_in, t_in) if n is None else (n, c_in, t_in)
        x = rng.integers(-2, 3, size=shape) * 0.5 + rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        w, b = rng.standard_normal((c_out, c_in, k)), rng.standard_normal(c_out)
        t_out = (t_in + 2 * padding - k) // stride + 1
        g = rng.standard_normal(shape[:-2] + (c_out, t_out))
        run_against_ref(nc.temporal_conv, temporal_conv_ref, [x, w, b], (stride, padding), g)


def test_rows_slices_and_writes_its_gradient_rows():
    x = tensor(np.arange(12.0).reshape(4, 3))
    top, bottom = nc.rows(x, 0, 1), nc.rows(x, 3, 4)
    assert np.array_equal(top.data, [[0.0, 1.0, 2.0]]) and np.array_equal(bottom.data, [[9.0, 10.0, 11.0]])
    loss = nc.add(nc.smooth_l1(top, nc.Tensor(np.zeros((1, 3)))), nc.scale(nc.smooth_l1(bottom, nc.Tensor(np.zeros((1, 3)))), 2.0))
    nc.backward(loss)
    assert np.array_equal(x.grad, [[0.0, 1 / 3, 1 / 3], [0.0] * 3, [0.0] * 3, [2 / 3] * 3])


def test_concat_batched_along_channels():
    y = nc.concat_channels(tensor(np.ones((2, 1, 3))), tensor(np.zeros((2, 2, 3))))
    assert np.array_equal(y.data, np.concatenate([np.ones((2, 1, 3)), np.zeros((2, 2, 3))], axis=1))
    with pytest.raises(ContractError, match="equal T"):
        nc.concat_channels(tensor(np.ones((2, 1, 3))), tensor(np.ones((3, 1, 3))))


# ---------------------------------------------------------------------------
# determinism and finiteness


def test_forward_deterministic_and_finite():
    def run():
        rng = np.random.default_rng(123)
        x = nc.Tensor(rng.standard_normal((4, 16)), requires_grad=True)
        w = nc.Tensor(rng.standard_normal((4, 4, 3)), requires_grad=True)
        b = nc.Tensor(rng.standard_normal(4), requires_grad=True)
        y = nc.temporal_maxpool(nc.relu(nc.temporal_conv(x, w, b, 1, 1)), 2, 2)
        loss = nc.softmax_cross_entropy(nc.reshape(y, (8, 4)), np.arange(8) % 4)
        nc.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
    assert np.isfinite(gx1).all() and np.isfinite(gw1).all()
