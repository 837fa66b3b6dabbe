"""Dense float64 tensors with reverse-mode automatic differentiation.

A fresh computation graph is built on every forward pass: each operation
returns a new ``Tensor`` wired to its inputs through a backward closure,
and ``backward()`` walks the graph in reverse topological order,
accumulating gradients into every tensor on a path to a gradient-requiring
leaf.  Only gradient-requiring tensors are recorded: a tensor that does not
require grad keeps no parents and no backward closure, so an operation on
inputs that need no gradient holds nothing of them once it returns, and a
forward over non-grad views of the parameters builds no graph at all.

Only the operations the detection heads actually need are provided;
everything runs on contiguous float64 numpy arrays for exact, deterministic
arithmetic at desk scale.

Kernel layout rule: a kernel may change how it moves data, never the
arithmetic.  Every BLAS call keeps its operand values and shapes (only the
row stride of an operand may change), and every elementwise sum adds its
terms in the order a plain scatter-add over the outputs would, so results
are identical bit for bit whichever layout a kernel picks.  A kernel
arranges its copies and additions so that numpy's innermost loop runs over
long contiguous memory: along T within a [C, T] map, over whole [N, C]
planes (time-major) where an input gradient is scattered back,
and as whole T-runs moved as single opaque items where a copy has to
transpose around short runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``grad`` is allocated at construction for gradient-requiring leaves and
    lazily during ``backward()`` for interior nodes; when present it always
    has the same shape as ``data``.  A leaf's buffer is its own: gradients
    are added into it in place, so code that assigns a leaf's ``grad`` hands
    that array over.  An interior node's ``grad`` may be a view of another
    node's gradient and is never written in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        # a non-grad tensor records nothing, so its inputs can be freed
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.grad = np.zeros_like(self.data) if (self.requires_grad and not _parents) else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass(eq=False)
class Parameter:
    """A named, trainable tensor with its initialization recipe.

    ``init_spec`` is either ``("gaussian", mean, stddev)`` or
    ``("constant", value)`` and is applied exactly once at creation.
    ``velocity`` is the SGD momentum buffer (same shape as the values).
    """

    name: str
    tensor: Tensor
    init_spec: tuple
    velocity: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.velocity is None:
            self.velocity = np.zeros_like(self.tensor.data)

    @classmethod
    def create(cls, name: str, shape, init_spec: tuple, rng: np.random.Generator) -> "Parameter":
        kind = init_spec[0]
        if kind == "gaussian":
            _, mean, std = init_spec
            data = rng.normal(mean, std, size=shape)
        elif kind == "constant":
            data = np.full(shape, float(init_spec[1]))
        else:
            raise ConfigError(f"unknown init spec {init_spec!r}")
        return cls(name=name, tensor=Tensor(data, requires_grad=True), init_spec=init_spec)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data


def create_params(specs, rng: np.random.Generator) -> dict:
    """Named parameters from (name, shape, init_spec) triples, drawn from
    ``rng`` in order."""
    return {name: Parameter.create(name, shape, init_spec, rng) for name, shape, init_spec in specs}


@dataclass(frozen=True)
class SgdConfig:
    """SGD with momentum, weight decay and a stepped learning-rate decay."""

    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 1000

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.lr_decay_factor <= 0:
            raise ConfigError(f"lr_decay_factor must be positive, got {self.lr_decay_factor}")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")

    def effective_lr(self, step: int) -> float:
        return self.learning_rate * self.lr_decay_factor ** (step // self.lr_decay_every)


def _t(x) -> Tensor:
    """Unwrap parameters / wrap raw arrays so ops accept all three."""
    if isinstance(x, Parameter):
        return x.tensor
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a leaf must own its buffer before anything is added into it
        t.grad = g if t._parents else np.array(g, dtype=np.float64)
    elif t._parents:
        t.grad = t.grad + g
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; fills ``grad`` along the graph."""
    if loss.data.size != 1:
        raise ContractError(f"backward() requires a scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# differentiable operations


def linear(x, w, b) -> Tensor:
    """Affine map ``y = x @ w + b`` over a batch of row vectors."""
    xt, wt, bt = _t(x), _t(w), _t(b)
    if xt.data.ndim != 2 or wt.data.ndim != 2 or bt.data.ndim != 1:
        raise ContractError(
            f"linear expects 2-D x, 2-D w, 1-D b; got {xt.shape}, {wt.shape}, {bt.shape}"
        )
    if xt.shape[1] != wt.shape[0] or wt.shape[1] != bt.shape[0]:
        raise ContractError(f"linear shape mismatch: x {xt.shape} vs w {wt.shape}, b {bt.shape}")
    y = xt.data @ wt.data + bt.data
    req = xt.requires_grad or wt.requires_grad or bt.requires_grad

    def back(g):
        _accumulate(xt, g @ wt.data.T)
        _accumulate(wt, xt.data.T @ g)
        _accumulate(bt, g.sum(axis=0))

    return Tensor(y, req, (xt, wt, bt), back if req else None)


def _im2col(xb: np.ndarray, k: int, stride: int, padding: int, t_out: int) -> np.ndarray:
    """[C_in*k, N, T'] patch columns of an [N, C_in, T] batch: row (c, j),
    column (i, t) holds x[i, c, stride*t + j - padding], zero in the padding.

    Laid out this way, column block i is the per-row matmul operand of row i
    and the whole array is the weight-gradient operand, without a copy.
    """
    n, c_in, t_in = xb.shape
    xp = np.zeros((n, c_in, t_in + 2 * padding))
    xp[:, :, padding : padding + t_in] = xb
    cols = np.empty((c_in, k, n, t_out))
    if stride == 1:
        # each patch row is a contiguous T'-run of xp: move it as one item
        run = np.dtype((np.void, 8 * t_out))
        dst = cols.view(run)[..., 0]
        for j in range(k):
            dst[:, j] = np.ndarray((n, c_in), run, xp, 8 * j, xp.strides[:2]).T
    else:
        for j in range(k):
            cols[:, j] = xp[:, :, j : j + stride * t_out : stride].transpose(1, 0, 2)
    return cols.reshape(c_in * k, n, t_out)


def temporal_conv(x, w, b, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation along the temporal axis of a [C_in, T] map, or
    of every row of an [N, C_in, T] batch with the same per-row arithmetic.

    ``w`` has shape [C_out, C_in, k]; the output length is
    floor((T + 2*padding - k) / stride) + 1.  The weight gradient of a batch
    is one gemm over its N*T' columns.  The input gradient is scattered back
    time-major (see the layout rule above).
    """
    xt, wt, bt = _t(x), _t(w), _t(b)
    if xt.data.ndim not in (2, 3) or wt.data.ndim != 3 or bt.data.ndim != 1:
        raise ContractError(
            f"temporal_conv expects [C,T] or [N,C,T] x, [Co,Ci,k] w, [Co] b; got {xt.shape}, {wt.shape}, {bt.shape}"
        )
    c_out, c_in, k = wt.shape
    if xt.shape[-2] != c_in or bt.shape[0] != c_out:
        raise ContractError(f"temporal_conv shape mismatch: x {xt.shape} vs w {wt.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"temporal_conv needs stride >= 1, padding >= 0; got {stride}, {padding}")
    t_in = xt.shape[-1]
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_in + 2 * padding < k or t_out < 1:
        raise ContractError(
            f"temporal_conv empty output: T={t_in}, k={k}, stride={stride}, padding={padding}"
        )
    xb = xt.data.reshape(-1, c_in, t_in)
    n = xb.shape[0]
    cols = _im2col(xb, k, stride, padding, t_out)
    w2 = wt.data.reshape(c_out, c_in * k)
    y = np.matmul(w2, cols.transpose(1, 0, 2)) + bt.data[:, None]
    req = xt.requires_grad or wt.requires_grad or bt.requires_grad

    def back(g):
        g = g.reshape(n, c_out, t_out)
        gw = g.transpose(1, 0, 2).reshape(c_out, n * t_out) @ cols.reshape(c_in * k, n * t_out).T
        _accumulate(wt, gw.reshape(wt.shape))
        _accumulate(bt, g.sum(axis=2).sum(axis=0))
        if xt.requires_grad:
            gk = np.matmul(w2.T, g).reshape(n, c_in, k, t_out)
            # time-major: each tap adds whole [N, C_in] planes
            gxp = np.zeros((t_in + 2 * padding, n, c_in))
            gkt = gk.transpose(2, 3, 0, 1)
            for j in range(k):
                gxp[j : j + stride * t_out : stride] += gkt[j]
            gx = gxp[padding : padding + t_in].transpose(1, 2, 0)
            _accumulate(xt, np.ascontiguousarray(gx).reshape(xt.shape))

    return Tensor(y.reshape(xt.shape[:-2] + (c_out, t_out)), req, (xt, wt, bt), back if req else None)


def temporal_maxpool(x, k: int, stride: int) -> Tensor:
    """Windowed maximum per channel; ties route gradient to the first index.

    Works on k strided slices, one per window position: the forward is a
    running maximum over them, and the backward routes each output's
    gradient to the first slice that holds its value (or a NaN).
    """
    xt = _t(x)
    if xt.data.ndim != 2:
        raise ContractError(f"temporal_maxpool expects [C,T], got {xt.shape}")
    c, t_in = xt.shape
    if t_in < k:
        raise ContractError(f"temporal_maxpool empty output: T={t_in} < k={k}")
    t_out = (t_in - k) // stride + 1
    span = stride * (t_out - 1) + 1
    win = [xt.data[:, j : j + span : stride] for j in range(k)]  # element j of every window
    y = win[0]
    for v in win[1:]:
        # the running maximum is the second operand, which np.maximum returns
        # on ties (+0.0 against -0.0): the first maximum's value
        y = np.maximum(v, y)
    req = xt.requires_grad

    def back(g):
        gx = np.zeros_like(xt.data)
        bits = g.view(np.int64)
        routes, taken = [], np.zeros(g.shape, dtype=bool)
        for v in win[:-1]:
            hit = ~taken & ((v == y) | np.isnan(v))
            taken |= hit
            routes.append(hit)
        routes.append(~taken)
        # descending j is ascending output order wherever windows overlap; an
        # AND with an all-ones or all-zeros mask selects g or +0.0 without
        # branching on the random routes
        for j in reversed(range(k)):
            gx[:, j : j + span : stride] += (bits & -routes[j].view(np.int8)).view(np.float64)
        _accumulate(xt, gx)

    return Tensor(y, req, (xt,), back if req else None)


def relu(x) -> Tensor:
    xt = _t(x)
    y = np.maximum(xt.data, 0.0)
    req = xt.requires_grad

    def back(g):
        _accumulate(xt, g * (xt.data > 0.0))

    return Tensor(y, req, (xt,), back if req else None)


def concat_channels(a, b) -> Tensor:
    """Stack two [C, T] maps, or two [N, C, T] batches, along the channel axis."""
    at, bt = _t(a), _t(b)
    if at.data.ndim not in (2, 3) or bt.data.ndim != at.data.ndim or at.shape[:-2] + at.shape[-1:] != bt.shape[:-2] + bt.shape[-1:]:
        raise ContractError(f"concat_channels needs equal T: got {at.shape} and {bt.shape}")
    y = np.concatenate([at.data, bt.data], axis=-2)
    c1 = at.shape[-2]
    req = at.requires_grad or bt.requires_grad

    def back(g):
        _accumulate(at, g[..., :c1, :])
        _accumulate(bt, g[..., c1:, :])

    return Tensor(y, req, (at, bt), back if req else None)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean of -log softmax(logits)[label], stabilized by max subtraction."""
    lt = _t(logits)
    if lt.data.ndim != 2:
        raise ContractError(f"softmax_cross_entropy expects [N,C] logits, got {lt.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    n, c = lt.shape
    if lab.shape != (n,):
        raise ContractError(f"labels shape {lab.shape} does not match batch {n}")
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise IndexError(f"label out of range [0,{c}): {lab[(lab < 0) | (lab >= c)][0]}")
    z = lt.data - lt.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    lse = np.log(ez.sum(axis=1))
    losses = lse - z[np.arange(n), lab]
    y = losses.mean()
    req = lt.requires_grad

    def back(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(n), lab] -= 1.0
        _accumulate(lt, (float(g) / n) * p)

    return Tensor(y, req, (lt,), back if req else None)


def smooth_l1(pred, target) -> Tensor:
    """Mean elementwise smooth-L1: 0.5*d^2 for |d| < 1, else |d| - 0.5."""
    pt, tt = _t(pred), _t(target)
    if pt.shape != tt.shape:
        raise ContractError(f"smooth_l1 shape mismatch: {pt.shape} vs {tt.shape}")
    d = pt.data - tt.data
    ad = np.abs(d)
    quad = ad < 1.0
    y = np.where(quad, 0.5 * d * d, ad - 0.5).mean()
    req = pt.requires_grad or tt.requires_grad

    def back(g):
        df = np.where(quad, d, np.sign(d)) * (float(g) / d.size)
        _accumulate(pt, df)
        _accumulate(tt, -df)

    return Tensor(y, req, (pt, tt), back if req else None)


def add(a, b) -> Tensor:
    at, bt = _t(a), _t(b)
    if at.shape != bt.shape:
        raise ContractError(f"add shape mismatch: {at.shape} vs {bt.shape}")
    req = at.requires_grad or bt.requires_grad

    def back(g):
        _accumulate(at, g)
        _accumulate(bt, g)

    return Tensor(at.data + bt.data, req, (at, bt), back if req else None)


def scale(x, c: float) -> Tensor:
    xt = _t(x)
    c = float(c)
    req = xt.requires_grad

    def back(g):
        _accumulate(xt, g * c)

    return Tensor(xt.data * c, req, (xt,), back if req else None)


def take(x, flat_indices) -> Tensor:
    """Gather by flattened (row-major) indices; gradient scatter-adds back."""
    xt = _t(x)
    idx = np.asarray(flat_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= xt.data.size):
        raise ContractError(f"take index out of range for size {xt.data.size}")
    return gathered(xt, xt.data.reshape(-1)[idx], lambda: idx)


def gathered(x, values, flat_indices) -> Tensor:
    """``values``, which must equal ``take(x, flat_indices())``, as a node
    with take's backward.  ``flat_indices`` is called only by the backward,
    so a caller that can compute the gathered values directly never builds
    the index array of a forward that needs no gradient."""
    xt = _t(x)
    req = xt.requires_grad

    def back(g):
        gx = np.zeros(xt.data.size)
        np.add.at(gx, np.asarray(flat_indices()).ravel(), np.asarray(g).ravel())
        _accumulate(xt, gx.reshape(xt.data.shape))

    return Tensor(values, req, (xt,), back if req else None)


def rows(x, lo: int, hi: int) -> Tensor:
    """Rows lo:hi along the first axis, as a view; the backward writes its
    rows of an otherwise zero gradient."""
    xt = _t(x)
    req = xt.requires_grad

    def back(g):
        gx = np.zeros_like(xt.data)
        gx[lo:hi] = g
        _accumulate(xt, gx)

    return Tensor(xt.data[lo:hi], req, (xt,), back if req else None)


def reshape(x, shape) -> Tensor:
    xt = _t(x)
    y = xt.data.reshape(shape)
    req = xt.requires_grad

    def back(g):
        _accumulate(xt, np.asarray(g).reshape(xt.data.shape))

    return Tensor(y, req, (xt,), back if req else None)


def sgd_step(params, cfg: SgdConfig, step: int) -> None:
    """One momentum-SGD update over ``params``; gradients are zeroed after.

    v <- momentum*v + grad + weight_decay*param;  param <- param - lr(step)*v

    Each leaf gets a fresh zeroed gradient buffer rather than its old one
    zeroed in place: the fresh buffers outlive the step's temporaries, so
    the allocator keeps their memory mapped instead of returning it and
    faulting it back in on the next step (in-place zeroing measured ~2,300
    more minor page faults per training step).
    """
    lr = cfg.effective_lr(step)
    for p in params:
        v = p.velocity
        v *= cfg.momentum
        if p.tensor.grad is not None:
            v += p.tensor.grad
        if cfg.weight_decay:
            v += cfg.weight_decay * p.tensor.data
        p.tensor.data -= lr * v
        p.tensor.grad = np.zeros_like(p.tensor.data)
