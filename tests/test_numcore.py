import itertools
import math
import tracemalloc
import weakref

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
    compare outputs and the gradient each hands every leaf byte for byte.
    The leaves start without a buffer, as an interior node does: adding
    into zeros would turn a -0.0 gradient into +0.0."""
    outs = []
    for fn in (op, ref):
        leaves = [nc.Tensor(a.copy(), requires_grad=True) for a in arrays]
        for t in leaves:
            t.grad = None
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


def pair_max_ref(x):
    return temporal_maxpool_ref(x, 2, 2)


def test_maxpool_monotone_sequence():
    y = nc.temporal_maxpool(tensor([[1.0, 2.0, 3.0, 4.0]]))
    assert np.array_equal(y.data, [[2.0, 4.0]])


def test_maxpool_tie_routes_to_first():
    x = tensor([[5.0, 5.0, 5.0, 5.0]])
    y = nc.temporal_maxpool(x)
    assert np.array_equal(y.data, [[5.0, 5.0]])
    nc.backward(nc.smooth_l1(y, nc.Tensor(np.zeros((1, 2)))))
    # gradient lands only on the first element of each window
    assert x.grad[0, 0] != 0 and x.grad[0, 2] != 0
    assert x.grad[0, 1] == 0 and x.grad[0, 3] == 0


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 9))  # the odd last column is dropped
    y = nc.temporal_maxpool(nc.Tensor(x))
    ref = np.array([[max(x[c, s : s + 2]) for s in range(0, 8, 2)] for c in range(3)])
    assert np.array_equal(y.data, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_maxpool_bytes_equal_argmax_oracle(dtype):
    # small integer values tie often, signed zeros tie as equals, T is odd or
    # even and a NaN may sit in either cell of a pair; the backward selects
    # g or +0.0 through an integer view as wide as the dtype
    rng = np.random.default_rng(122)
    for case in range(200):
        c, t_in = int(rng.integers(1, 6)), int(rng.integers(2, 20))
        x = rng.integers(-3, 4, size=(c, t_in)).astype(np.float64)
        if case % 4 == 0:
            x[rng.random(x.shape) < 0.2] = -0.0
        if case % 3 == 0:
            x[rng.random(x.shape) < 0.15] = np.nan
        g = rng.standard_normal((c, t_in // 2))
        g[rng.random(g.shape) < 0.1] = -0.0
        run_against_ref(nc.temporal_maxpool, pair_max_ref, [x.astype(dtype)], (), g.astype(dtype))


def test_maxpool_nan_window_routes_to_its_first_nan():
    nan = np.nan
    # pairs: NaN second, NaN first, both NaN, a tie, -0.0 then +0.0, +0.0
    # then -0.0; the odd last column gets no gradient
    row = [1.0, nan, nan, 2.0, nan, nan, 3.0, 3.0, -0.0, 0.0, 0.0, -0.0, 5.0]
    for dtype in (np.float64, np.float32):
        x = np.array([row], dtype=dtype)
        g = np.array([[1.0, 2.0, 3.0, 4.0, -0.0, 6.0]], dtype=dtype)
        run_against_ref(nc.temporal_maxpool, pair_max_ref, [x], (), g)
        xt = nc.Tensor(x, requires_grad=True)
        y = nc.temporal_maxpool(xt)
        assert_same_bytes(y.data, np.array([[nan, nan, nan, 3.0, -0.0, 0.0]], dtype=dtype))
        y._backward(g)
        assert_same_bytes(xt.grad, np.array([[0, 1, 2, 0, 3, 0, 4, 0, 0, 0, 6, 0, 0]], dtype=dtype))


def test_maxpool_too_short_raises():
    with pytest.raises(ContractError, match="empty output"):
        nc.temporal_maxpool(tensor([[1.0]]))


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
    with pytest.raises(ContractError, match="label out of range"):
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


def test_relu_backward_is_bitwise_g_times_bool_mask():
    nans = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(np.float64)  # payloads, both signs
    special = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 2.5, -3.0, 5e-324, -5e-324], nans])
    x, g = (np.ascontiguousarray(a) for a in np.meshgrid(special, special))
    # a non-leaf input takes the gradient as given, with no add into a zeroed buffer
    xt = nc.Tensor(x, _parents=(tensor([0.0]),), _backward=lambda _: None)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        nc.relu(xt)._backward(g)
        assert np.array_equal(xt.grad.view(np.int64), (g * (x > 0.0)).view(np.int64))


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


def test_backward_of_a_loss_that_records_no_graph_raises():
    # it set the loss's grad to 1.0 and computed nothing, so a loss built on
    # frozen parameter views trained nothing without a word
    for loss in (tensor(1.0, grad=False), nc.smooth_l1(tensor([1.0, 2.0], grad=False), np.zeros(2))):
        with pytest.raises(ContractError, match="records no graph"):
            nc.backward(loss)
        assert loss.grad is None


def reachable(loss):
    """Every tensor reachable from ``loss`` through ``_parents``, loss first."""
    nodes, seen = [loss], {id(loss)}
    for node in nodes:
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    return nodes


def test_backward_consumes_its_graph_and_a_second_backward_raises_before_any_gradient_moves():
    rng = np.random.default_rng(11)
    x, w, b = tensor(rng.standard_normal((3, 8))), tensor(rng.standard_normal((4, 3, 3))), tensor(rng.standard_normal(4))
    fw, fb = tensor(rng.standard_normal((4, 2))), tensor(np.zeros(2))
    h = nc.relu(nc.temporal_conv(x, w, b, padding=1))  # x reaches the loss on two paths
    p = nc.temporal_maxpool(nc.concat_channels(h, x))
    logits = nc.linear(nc.rows(p, 0, 5), fw, fb)
    loss = nc.add(nc.softmax_cross_entropy(logits, [0, 1, 1, 0, 1]),
                  nc.scale(nc.smooth_l1(nc.take(h, [1, 5, 9]), np.ones(3)), 0.5))
    nodes = reachable(loss)
    interior = [t for t in nodes if t._parents]
    leaves = [x, w, b, fw, fb]
    assert len(interior) == 11 and all(any(t is leaf for t in nodes) for leaf in leaves)
    values = [t.data.copy() for t in interior]
    nc.backward(loss)
    for t, value in zip(interior, values):
        assert t.grad is None and t._backward is nc._consumed and t._parents == ()
        assert_same_bytes(t.data, value)
    for leaf in leaves:
        assert leaf.grad.shape == leaf.data.shape and leaf.grad.any()
    grads = [leaf.grad.copy() for leaf in leaves]
    # the same loss, and a new loss built on a released node beside a fresh
    # branch over the same leaves: the walk raises before any closure runs
    fresh = nc.smooth_l1(nc.linear(nc.reshape(x, (6, 4)), fw, fb), np.zeros((6, 2)))
    for again in (loss, nc.add(fresh, nc.smooth_l1(nc.rows(p, 0, 1), np.zeros((1, 4))))):
        with pytest.raises(ContractError, match="consumed"):
            nc.backward(again)
        for leaf, grad in zip(leaves, grads):
            assert_same_bytes(leaf.grad, grad)
    nc.backward(fresh)  # a graph of its own still backpropagates
    assert not np.array_equal(fw.grad, grads[3])


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


# every differentiable op: (op, tensor operands as arrays, other arguments)
OPS = {
    "linear": (nc.linear, [np.ones((2, 3)), np.ones((3, 2)), np.array([0.0, 1.0])], ()),
    "temporal_conv": (nc.temporal_conv, [np.ones((2, 3)), np.ones((1, 2, 1)), np.zeros(1)], ()),
    "temporal_maxpool": (nc.temporal_maxpool, [np.ones((2, 4))], ()),
    "relu": (nc.relu, [np.ones((2, 3))], ()),
    "concat_channels": (nc.concat_channels, [np.ones((2, 3)), np.ones((1, 3))], ()),
    "softmax_cross_entropy": (nc.softmax_cross_entropy, [np.ones((2, 3))], ([0, 2],)),
    "smooth_l1": (nc.smooth_l1, [np.ones((2, 3)), np.zeros((2, 3))], ()),
    "add": (nc.add, [np.ones((2, 3)), np.ones((2, 3))], ()),
    "scale": (nc.scale, [np.ones((2, 3))], (2.0,)),
    "take": (nc.take, [np.ones((2, 3))], ([[0, 4]],)),
    "gathered": (nc.gathered, [np.ones((2, 3))], (np.ones(2), lambda: [0, 1])),
    "rows": (nc.rows, [np.ones((2, 3))], (0, 1)),
    "reshape": (nc.reshape, [np.ones((2, 3))], ((3, 2),)),
}


def test_ops_on_non_grad_inputs_record_nothing():
    # each op's backward closure holds its operands; a non-grad result must
    # drop both, or a forward-only pass keeps every intermediate alive
    for name, (op, arrays, args) in OPS.items():
        y = op(*(tensor(a, grad=False) for a in arrays), *args)
        assert not y.requires_grad and y._parents == () and y._backward is None and y.grad is None, name
        # one gradient-requiring operand is enough to record the node, and
        # the backward fills only that operand's gradient
        leaves = [tensor(a, grad=i == 0) for i, a in enumerate(arrays)]
        y = op(*leaves, *args)
        assert y.requires_grad and len(y._parents) == len(arrays) and y._backward is not None, name
        y._backward(np.ones_like(y.data))
        assert np.abs(leaves[0].grad).sum() > 0 and all(t.grad is None for t in leaves[1:]), name


def test_an_op_given_a_raw_array_raises_when_it_builds_its_output():
    # ops take Tensors; the output reads every parent's requires_grad, so a
    # raw array fails even behind a gradient-requiring operand, where it
    # used to build a node that would only fail in backward
    with pytest.raises(AttributeError, match="requires_grad"):
        nc.linear(tensor([[1.0, 2.0]]), np.eye(2), np.zeros(2))
    for name, (op, arrays, args) in OPS.items():
        if len(arrays) > 1 and name != "smooth_l1":  # smooth_l1's target may be an array
            with pytest.raises(AttributeError):
                op(tensor(arrays[0]), *arrays[1:], *args)


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


def leaf(values, grad):
    """A one-parameter dict and its zero velocity, with ``grad`` assigned."""
    p = nc.Tensor(values, requires_grad=True)
    p.grad = np.asarray(grad, dtype=np.float64)
    return {"p": p}, {"p": np.zeros_like(p.data)}


def test_sgd_plain_gradient_step():
    params, velocity = leaf([1.0], [1.0])
    nc.sgd_step(params, velocity, nc.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0), 0)
    assert params["p"].data[0] == pytest.approx(0.9, abs=1e-15)
    assert params["p"].grad is None  # consumed by the update


def test_sgd_momentum_two_steps():
    params, velocity = leaf([1.0], [1.0])
    cfg = nc.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    for step in range(2):
        params["p"].grad = np.array([1.0])
        nc.sgd_step(params, velocity, cfg, step)
    # v1 = 1, p = 0.9; v2 = 1.9, p = 0.9 - 0.19 = 0.71
    assert params["p"].data[0] == pytest.approx(0.71, abs=1e-15)
    assert velocity["p"][0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_pure_weight_decay():
    params, velocity = leaf([1.0], [0.0])
    nc.sgd_step(params, velocity, nc.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5), 0)
    assert params["p"].data[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_delta_equals_lr_times_grad_exactly():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(5)
    grad = rng.standard_normal(5)
    params, velocity = leaf(vals.copy(), grad.copy())
    nc.sgd_step(params, velocity, nc.SgdConfig(learning_rate=0.01, momentum=0.0, weight_decay=0.0), 0)
    assert np.array_equal(params["p"].data, vals - 0.01 * grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_creates_a_missing_velocity_as_zeros_at_the_first_update(dtype):
    # an absent velocity is zero momentum: the first update creates it and
    # leaves parameter and velocity as an explicit zero buffer would
    rng = np.random.default_rng(4)
    vals, grad = rng.standard_normal((2, 3, 4)).astype(dtype)
    cfg = nc.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    runs = []
    for velocity in ({}, {"p": np.zeros_like(vals)}):
        params = {"p": nc.Tensor(vals.copy(), requires_grad=True)}
        for step in range(2):
            params["p"].grad = grad.copy()
            nc.sgd_step(params, velocity, cfg, step)
        assert velocity["p"].dtype == dtype and velocity["p"].shape == vals.shape
        runs.append((params["p"].data.tobytes(), velocity["p"].tobytes()))
    assert runs[0] == runs[1]


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
    # a NaN learning rate gave a finite loss, then NaN in every parameter,
    # and a checkpoint that load_checkpoint refuses
    # True, a float32 and a string: they constructed, and then failed to save or load
    for field in ("learning_rate", "momentum", "weight_decay", "lr_decay_factor"):
        for value in (float("nan"), float("inf"), float("-inf"), True, np.float32(0.5), "0.5"):
            with pytest.raises(ConfigError, match=field):
                nc.SgdConfig(**{field: value})
    # a NaN decay period gave a NaN learning rate
    for value in (float("nan"), 2.5, 768.0, True):
        with pytest.raises(ConfigError, match="lr_decay_every"):
            nc.SgdConfig(lr_decay_every=value)


# ---------------------------------------------------------------------------
# parameter init


def test_parameter_init_specs():
    rng = np.random.default_rng(0)
    params = nc.create_params([("g", (2000,), ("gaussian", 0.0, 0.01)), ("c", (3, 3), ("constant", 0.1))], rng)
    g, c = params["g"], params["c"]
    assert list(params) == ["g", "c"]
    assert abs(g.data.std() - 0.01) < 2e-3
    assert np.array_equal(g.data, np.random.default_rng(0).normal(0.0, 0.01, size=2000))  # drawn in order
    assert np.all(c.data == 0.1)
    for p in (g, c):
        assert isinstance(p, nc.Tensor) and p.requires_grad and p._parents == ()
        assert p.grad is not None and p.grad.shape == p.data.shape
    with pytest.raises(ConfigError, match="unknown init spec"):
        nc.create_params([("u", (2,), ("uniform", 0.0, 1.0))], rng)


def test_parameters_cast_as_drawn_equal_the_float64_draw_rounded():
    specs = [("g", (40, 7), ("gaussian", 0.5, 0.1)), ("c", (3,), ("constant", 0.1)), ("h", (9,), ("gaussian", 0.0, 1.0))]
    wide = nc.create_params(specs, np.random.default_rng(3))
    narrow = nc.create_params(specs, np.random.default_rng(3), np.float32)
    assert list(narrow) == list(wide)
    for name, p in narrow.items():
        assert p.data.dtype == p.grad.dtype == np.float32
        assert np.array_equal(p.data, wide[name].data.astype(np.float32)) and not p.grad.any()


def gradient_blocks(params: dict) -> dict:
    """Per dtype, the one zero-filled array whose consecutive slices, in the
    order of ``params``, are the leaves' gradients; asserts that layout, so
    no two gradients overlap and the block holds exactly their elements."""
    blocks = {}
    for name, p in params.items():
        g = p.grad
        block, used = blocks.setdefault(g.dtype, [g.base, 0])
        assert g.base is block and g.flags.c_contiguous and g.shape == p.data.shape, name
        assert g.ctypes.data == block.ctypes.data + used * g.itemsize, name  # the next slice
        blocks[g.dtype][1] += g.size
    for dtype, (block, used) in blocks.items():
        assert block.base is None and block.shape == (used,) and not block.any(), dtype
    return {dtype: block for dtype, (block, _) in blocks.items()}


def test_leaves_slice_one_zero_block_per_dtype_in_order():
    arrays = {"a": np.ones((3, 4), np.float32), "b": np.arange(5.0), "c": np.full((2, 2, 2), 2.0, np.float32),
              "d": np.ones(1)}
    params = nc.leaves(arrays)
    assert list(params) == list(arrays)
    for name, p in params.items():
        assert p.requires_grad and p._parents == () and p._backward is None and p.data is arrays[name], name
    assert {dtype: b.size for dtype, b in gradient_blocks(params).items()} == {np.dtype(np.float32): 20,
                                                                           np.dtype(np.float64): 6}
    # created from specs too, and a lone leaf keeps zeros of its own
    gradient_blocks(nc.create_params([("g", (4, 3), ("gaussian", 0.0, 1.0)), ("c", (3,), ("constant", 0.1))],
                                     np.random.default_rng(0), np.float32))
    lone = nc.Tensor(np.ones(3), requires_grad=True)
    assert lone.grad.base is None and not lone.grad.any()


def test_leaves_allocate_their_block_and_no_buffer_per_leaf():
    # zeros per leaf made first and dropped for the block would peak at twice the block
    arrays = {f"p{i}": np.ones(1000) for i in range(50)}
    tracemalloc.start()
    try:
        params = nc.leaves(arrays)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 50 * 1000 * 8
    assert block <= kept and peak < 1.1 * block
    assert gradient_blocks(params)[np.dtype(np.float64)].nbytes == block


def test_the_first_backward_fills_the_block_in_place_and_the_update_frees_it():
    rng = np.random.default_rng(3)
    params = nc.leaves({"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3)})
    block = gradient_blocks(params)[np.dtype(np.float64)]
    x = nc.Tensor(rng.standard_normal((4, 2)))
    nc.backward(nc.smooth_l1(nc.linear(x, params["w"], params["b"]), np.zeros((4, 3))))
    assert all(p.grad.base is block for p in params.values())
    assert block.all() and np.array_equal(block, np.concatenate([params["w"].grad.ravel(), params["b"].grad]))
    freed = weakref.ref(block)
    del block
    nc.sgd_step(params, {}, nc.SgdConfig(), 0)
    assert all(p.grad is None for p in params.values()) and freed() is None


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
    x = rng.standard_normal((3, 9))
    t = rng.standard_normal((3, 4))

    def build(pool=nc.temporal_maxpool):
        xt = nc.Tensor(x, requires_grad=True)
        return nc.smooth_l1(pool(nc.relu(xt)), nc.Tensor(t)), [xt]

    check_gradients(build, [x])
    grads = []
    for pool in (nc.temporal_maxpool, pair_max_ref):
        loss, (xt,) = build(pool)
        nc.backward(loss)
        grads.append(xt.grad)
    assert_same_bytes(*grads)


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 0, 2), (1, 2, 3)])
def test_im2col_layout_equals_a_loop_in_the_input_dtype(stride, padding, k, dtype):
    # a copy, no arithmetic: stride 1 moves whole T'-runs as opaque items as
    # wide as T' values of the dtype, other strides copy strided slices
    rng = np.random.default_rng(11 * k + 5 * stride + padding)
    for t_in in (1, 2, 3, 5, 40):
        if t_in + 2 * padding < k:
            continue
        n, c_in = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        xb = rng.standard_normal((n, c_in, t_in)).astype(dtype)
        t_out = (t_in + 2 * padding - k) // stride + 1
        xp = np.pad(xb, ((0, 0), (0, 0), (padding, padding)))
        want = np.array([[[xp[i, c, stride * t + j] for t in range(t_out)] for i in range(n)]
                         for c in range(c_in) for j in range(k)], dtype=dtype)
        assert_same_bytes(nc._im2col(xb, k, stride, padding, t_out), want)


@pytest.mark.parametrize("dtypes", list(itertools.product((np.float32, np.float64), repeat=3)))
def test_bias_adds_give_the_dtype_and_bytes_of_the_product_plus_bias(dtypes):
    # the bias goes into the fresh product in place, except where it would
    # widen it: a float64 bias is never rounded into a float32 product
    rng = np.random.default_rng(17)
    x, w, b = (rng.standard_normal(s).astype(d) for s, d in zip(((5, 6), (6, 4), (4,)), dtypes))
    assert_same_bytes(nc.linear(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b)).data, x @ w + b)
    xc, wc = rng.standard_normal((3, 6, 5)).astype(dtypes[0]), rng.standard_normal((4, 6, 3)).astype(dtypes[1])
    cols = nc._im2col(xc, 3, 1, 1, 5)
    want = np.matmul(wc.reshape(4, 18), cols.transpose(1, 0, 2)) + b[:, None]
    assert_same_bytes(nc.temporal_conv(nc.Tensor(xc), nc.Tensor(wc), nc.Tensor(b), 1, 1).data, want)


def _bits(dtype, pattern):
    return np.array([pattern], dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_short_axis_bias_gradient_equals_numpy_sum_bytes(dtype):
    # below 8 terms the planes are added onto +0.0 in numpy's own order: signed
    # zeros, NaNs of both signs and payloads, infinities and subnormals included
    info, width = np.finfo(dtype), 8 * np.dtype(dtype).itemsize
    sign, quiet = 1 << (width - 1), int(np.array([np.nan], dtype).view(f"u{width // 8}")[0])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal, -info.smallest_subnormal,
                         info.smallest_normal / 3, _bits(dtype, quiet), _bits(dtype, quiet | sign),
                         _bits(dtype, quiet + 5), _bits(dtype, (quiet + 7) | sign)], dtype=dtype)
    rng = np.random.default_rng(23)
    for t in range(1, 10):
        for share in (0.0, 0.05, 0.5, 0.95):
            g = (rng.standard_normal((37, 11, t)) * 10.0 ** rng.integers(-20, 20, (37, 11, t))).astype(dtype)
            mask = rng.random(g.shape) < share
            g[mask] = rng.choice(specials, int(mask.sum()))
            with np.errstate(invalid="ignore", over="ignore"):
                want = g.sum(axis=2).sum(axis=0)
                assert_same_bytes(nc._bias_grad(g), want)
                # and as the conv's backward hands it to a bias without a buffer
                bt = nc.Tensor(np.zeros(11, dtype), requires_grad=True)
                bt.grad = None
                y = nc.temporal_conv(nc.Tensor(np.zeros((37, 2, t), dtype)), nc.Tensor(np.zeros((11, 2, 3), dtype)), bt, 1, 1)
                y._backward(g)
            assert_same_bytes(bt.grad, want)


def assert_float32_tracks_float64(op, arrays, args, g):
    """Run ``op`` forward and backward on the same float32-representable
    values in both dtypes: every float32 output and gradient stays float32
    and lies within 1e-5 of the float64 one, relative to its largest value."""
    runs = []
    for dtype in (np.float32, np.float64):
        leaves = [nc.Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        y = op(*leaves, *args)
        y._backward(g.astype(dtype))
        runs.append([y.data] + [t.grad for t in leaves])
    for got, want in zip(*runs):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("n", [None, 1, 64])
@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 1, 3), (1, 0, 1)])
def test_float32_conv_lies_within_1e_5_of_float64(n, stride, padding, k):
    rng = np.random.default_rng(13 * k + stride + padding + (n or 0))
    c_in, c_out, t_in = 64, 32, 96
    shape = (c_in, t_in) if n is None else (n, c_in, t_in)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in (shape, (c_out, c_in, k), (c_out,))]
    g = rng.standard_normal(shape[:-2] + (c_out, (t_in + 2 * padding - k) // stride + 1)).astype(np.float32)
    assert_float32_tracks_float64(nc.temporal_conv, arrays, (stride, padding), g)


@pytest.mark.parametrize("rows", [1, 64, 512])
def test_float32_linear_lies_within_1e_5_of_float64(rows):
    rng = np.random.default_rng(rows)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in ((rows, 256), (256, 128), (128,))]
    assert_float32_tracks_float64(nc.linear, arrays, (), rng.standard_normal((rows, 128)).astype(np.float32))


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
    def run(pool=nc.temporal_maxpool):
        rng = np.random.default_rng(123)
        x = nc.Tensor(rng.standard_normal((4, 16)), requires_grad=True)
        w = nc.Tensor(rng.standard_normal((4, 4, 3)), requires_grad=True)
        b = nc.Tensor(rng.standard_normal(4), requires_grad=True)
        y = pool(nc.relu(nc.temporal_conv(x, w, b, 1, 1)))
        loss = nc.softmax_cross_entropy(nc.reshape(y, (8, 4)), np.arange(8) % 4)
        nc.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
    assert np.isfinite(gx1).all() and np.isfinite(gw1).all()
    l3, gx3, gw3 = run(pair_max_ref)
    assert l3 == l1
    assert_same_bytes(gx3, gx1)
    assert_same_bytes(gw3, gw1)
