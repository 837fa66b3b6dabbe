"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

A fresh computation graph is built on every forward pass: each operation
returns a new ``Tensor`` wired to its inputs through a backward closure,
and ``backward()`` walks the graph once, in reverse topological order,
accumulating gradients into every tensor on a path to a gradient-requiring
leaf and releasing each interior node as soon as its closure has run.
Only gradient-requiring tensors are recorded, and ``Tensor`` alone
decides which: a node requires grad when any input does, and one that does
not keeps neither the inputs nor the backward closure its operation passes,
so an operation on inputs that need no gradient holds nothing of them once
it returns, and a forward over non-grad views of the parameters builds no
graph at all.  Every op takes Tensors (but for ``smooth_l1``'s target, a
fixed array) and reads each input's ``requires_grad``, so a raw array among
its inputs raises as the op builds its output.  A parameter is a
gradient-requiring leaf tensor, so every layer takes the same dict of
tensors in training and inference; its SGD momentum
lives apart, in ``Model.velocity``, absent until ``sgd_step`` first updates
the leaf (absent means zeros), so a model that only infers holds none.  A
leaf's gradient has one lifecycle: untouched zeros while the leaf is fresh
(in a model, views of one zero block, freed with its last view: ``leaves``),
the step's gradient once ``backward()`` has added it in, and ``None`` once
``sgd_step`` has consumed it, until the next ``backward()`` copies one in.

Only the operations the detection heads actually need are provided, at
the shapes the network runs them (``temporal_maxpool`` is the pair maximum
that halves a map); everything runs on contiguous numpy arrays,
deterministically.  Dtype rule: a tensor keeps float32 or float64 data as
given and makes anything else float64, and every kernel computes its
output, temporaries and gradients in its input's dtype.  So a float64 graph
runs exactly as it always has, and a float32 one never upcasts in silence.

Kernel layout rule, which holds per dtype: a kernel may change how it moves
data, never the arithmetic.  Every BLAS call keeps its operand values and
shapes (only the row stride of an operand may change), and every
elementwise sum adds its terms in the order a plain scatter-add over the
outputs would, so results are identical bit for bit whichever layout a
kernel picks.  A kernel arranges its copies and additions so that numpy's
innermost loop runs over long contiguous memory: along T within a [C, T]
map, over whole [N, C] planes (time-major) where an input gradient is
scattered back, and as whole T-runs moved as single opaque items where a
copy has to transpose around short runs, into the patch rows and into the
padded input alike (a map without padding is read where it lies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, _shown, check_int, check_real

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # kept as given; anything else becomes float64


class Tensor:
    """A dense float32 or float64 array plus an optional gradient buffer.

    Data of either float dtype is kept as given (a view where it is already
    contiguous); any other dtype, Python scalars included, becomes float64.

    ``grad``, when present, has the same shape as ``data``.  A
    gradient-requiring leaf starts with a zero buffer from ``np.zeros``, or
    with its own slice of a shared one (``leaves``).  A leaf's buffer is its
    own: gradients are added into it in place, so code that assigns a leaf's
    ``grad`` hands that array over; ``sgd_step`` sets it to ``None``.  An
    interior node holds a ``grad`` only while ``backward()`` walks it; it
    may be a view of another node's gradient and is never written in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        for p in _parents:  # a loop, not any() over a generator: ~4x cheaper per node
            # every parent is read, so a raw array among them fails here
            self.requires_grad = p.requires_grad or self.requires_grad
        # a non-grad tensor records nothing, so its inputs can be freed
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.grad = np.zeros(self.data.shape, self.data.dtype) if (self.requires_grad and not _parents) else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def create_params(specs, rng: np.random.Generator, dtype=np.float64) -> dict:
    """Named parameters, each a gradient-requiring leaf tensor, from (name,
    shape, init_spec) triples, drawn from ``rng`` in order.  An init spec is
    ``("gaussian", mean, stddev)`` or ``("constant", value)``.  Each draw is
    made in float64 and cast to ``dtype`` as it is made, so the values are
    the float64 draw rounded once, and no float64 copy of the whole set is
    held; ``leaves`` makes the tensors."""
    arrays = {}
    for name, shape, init_spec in specs:
        kind = init_spec[0]
        if kind == "gaussian":
            arrays[name] = rng.normal(*init_spec[1:], size=shape).astype(dtype, copy=False)
        elif kind == "constant":
            arrays[name] = np.full(shape, float(init_spec[1]), dtype=dtype)
        else:
            raise ConfigError(f"unknown init spec {_shown(init_spec)}")
    return leaves(arrays)


def leaves(arrays: dict) -> dict:
    """Gradient-requiring leaves of named arrays, whose zero gradients are
    consecutive views, in order, of one ``np.zeros`` block per dtype: past
    glibc's mmap threshold, fresh pages that stay unresident until written.
    Its free at the first update raises glibc's mmap threshold to its size
    and the trim threshold to twice that, keeping a step's temporaries on the
    heap: zeros per leaf cost ~857 minor faults per hidden-64 ``train`` op."""
    tensors = {name: Tensor(a) for name, a in arrays.items()}  # no gradient buffer yet
    for dtype in dict.fromkeys(t.data.dtype for t in tensors.values()):
        group = [t for t in tensors.values() if t.data.dtype == dtype]
        ends = np.cumsum([t.data.size for t in group])
        for t, g in zip(group, np.split(np.zeros(ends[-1], dtype), ends[:-1])):
            t.requires_grad, t.grad = True, g.reshape(t.data.shape)
    return tensors


@dataclass(frozen=True, slots=True)
class SgdConfig:
    """SGD with momentum, weight decay and a stepped learning-rate decay."""

    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 1000

    def __post_init__(self):
        for name, interval in (("learning_rate", "(0, inf)"), ("momentum", "[0, 1)"), ("weight_decay", "[0, inf)"),
                               ("lr_decay_factor", "(0, inf)")):
            check_real(name, getattr(self, name), interval)
        check_int("lr_decay_every", self.lr_decay_every, 1)

    def effective_lr(self, step: int) -> float:
        return self.learning_rate * self.lr_decay_factor ** (step // self.lr_decay_every)


def _t(x) -> Tensor:
    """``x`` as a Tensor, wrapping a raw array.  No layer calls it, as every
    op takes Tensors; the reference oracles of the tests do."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a leaf must own its buffer before anything is added into it
        t.grad = g if t._parents else np.array(g, dtype=t.data.dtype)
    elif t._parents:
        t.grad = t.grad + g
    else:
        t.grad += g


def _consumed(g=None):
    """The backward closure of a node that a ``backward()`` has released."""
    raise ContractError("backward() reached a node of a graph that an earlier backward() consumed")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; adds its gradient into every
    gradient-requiring leaf of the graph, and consumes the graph.

    Once an interior node's closure has run, the node drops its ``grad``,
    its closure and its parents, so every gradient and closure operand is
    freed as soon as nothing left to walk reads it; its ``data`` stays.  A
    later ``backward()`` whose graph reaches a released node, the same loss
    included, raises ``ContractError`` before any gradient moves, and so
    does one of a loss that records no graph."""
    if loss.data.size != 1:
        raise ContractError(f"backward() requires a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("backward() of a loss that records no graph: nothing it depends on requires grad")
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
        if node._backward is _consumed:
            _consumed()
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad, node._backward, node._parents = None, _consumed, ()


# ---------------------------------------------------------------------------
# differentiable operations


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``y = x @ w + b`` over a batch of row vectors."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ContractError(
            f"linear expects 2-D x, 2-D w, 1-D b; got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ContractError(f"linear shape mismatch: x {x.shape} vs w {w.shape}, b {b.shape}")
    y = x.data @ w.data + b.data

    def back(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return Tensor(y, _parents=(x, w, b), _backward=back)


def _im2col(xb: np.ndarray, k: int, stride: int, padding: int, t_out: int) -> np.ndarray:
    """[C_in*k, N, T'] patch columns of an [N, C_in, T] batch: row (c, j),
    column (i, t) holds x[i, c, stride*t + j - padding], zero in the padding.

    Laid out this way, column block i is the per-row matmul operand of row i
    and the whole array is the weight-gradient operand, without a copy.
    """
    n, c_in, t_in = xb.shape
    size = xb.itemsize
    xp = xb
    if padding:
        xp = np.zeros((n, c_in, t_in + 2 * padding), dtype=xb.dtype)
        if t_in:  # each (row, channel) T-run of xb moves into its padded row as one item
            rows = np.dtype((np.void, size * t_in))
            np.ndarray((n, c_in), rows, xp, size * padding, xp.strides[:2])[...] = xb.view(rows)[..., 0]
    cols = np.empty((c_in, k, n, t_out), dtype=xb.dtype)
    if stride == 1:
        # each patch row is a contiguous T'-run of xp: move it as one item
        run = np.dtype((np.void, size * t_out))
        dst = cols.view(run)[..., 0]
        for j in range(k):
            dst[:, j] = np.ndarray((n, c_in), run, xp, size * j, xp.strides[:2]).T
    else:
        for j in range(k):
            cols[:, j] = xp[:, :, j : j + stride * t_out : stride].transpose(1, 0, 2)
    return cols.reshape(c_in * k, n, t_out)


def temporal_conv(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation along the temporal axis of a [C_in, T] map, or
    of every row of an [N, C_in, T] batch with the same per-row arithmetic.

    ``w`` has shape [C_out, C_in, k]; the output length is
    floor((T + 2*padding - k) / stride) + 1.  The weight gradient of a batch
    is one gemm over its N*T' columns.  The input gradient is scattered back
    time-major (see the layout rule above).
    """
    if x.data.ndim not in (2, 3) or w.data.ndim != 3 or b.data.ndim != 1:
        raise ContractError(
            f"temporal_conv expects [C,T] or [N,C,T] x, [Co,Ci,k] w, [Co] b; got {x.shape}, {w.shape}, {b.shape}"
        )
    c_out, c_in, k = w.shape
    if x.shape[-2] != c_in or b.shape[0] != c_out:
        raise ContractError(f"temporal_conv shape mismatch: x {x.shape} vs w {w.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"temporal_conv needs stride >= 1, padding >= 0; got {stride}, {padding}")
    t_in = x.shape[-1]
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_in + 2 * padding < k or t_out < 1:
        raise ContractError(
            f"temporal_conv empty output: T={t_in}, k={k}, stride={stride}, padding={padding}"
        )
    xb = x.data.reshape(-1, c_in, t_in)
    n = xb.shape[0]
    cols = _im2col(xb, k, stride, padding, t_out)
    w2 = w.data.reshape(c_out, c_in * k)
    y = np.matmul(w2, cols.transpose(1, 0, 2)) + b.data[:, None]

    def back(g):
        g = g.reshape(n, c_out, t_out)
        gw = g.transpose(1, 0, 2).reshape(c_out, n * t_out) @ cols.reshape(c_in * k, n * t_out).T
        _accumulate(w, gw.reshape(w.shape))
        _accumulate(b, g.sum(axis=2).sum(axis=0))
        if x.requires_grad:
            gk = np.matmul(w2.T, g).reshape(n, c_in, k, t_out)
            # time-major: each tap adds whole [N, C_in] planes
            gxp = np.zeros((t_in + 2 * padding, n, c_in), dtype=xb.dtype)
            gkt = gk.transpose(2, 3, 0, 1)
            for j in range(k):
                gxp[j : j + stride * t_out : stride] += gkt[j]
            gx = gxp[padding : padding + t_in].transpose(1, 2, 0)
            _accumulate(x, np.ascontiguousarray(gx).reshape(x.shape))

    return Tensor(y.reshape(x.shape[:-2] + (c_out, t_out)), _parents=(x, w, b), _backward=back)


def temporal_maxpool(x: Tensor) -> Tensor:
    """Maximum of each disjoint pair of columns of a [C, T] map, per channel,
    which halves its length; an odd last column is dropped.  The gradient
    goes to the first cell of a pair where it holds the maximum or a NaN,
    else to the second."""
    if x.data.ndim != 2:
        raise ContractError(f"temporal_maxpool expects [C,T], got {x.shape}")
    t_in = x.shape[1]
    if t_in < 2:
        raise ContractError(f"temporal_maxpool empty output: T={t_in} < 2")
    end = t_in - t_in % 2
    a, b = x.data[:, 0:end:2], x.data[:, 1:end:2]
    # np.maximum returns its second operand on ties (+0.0 against -0.0): the first cell's value
    y = np.maximum(b, a)

    def back(g):
        gx = np.zeros_like(x.data)
        bits = g.view(f"i{g.itemsize}")  # the signed integer as wide as g's floats
        first = ((a == y) | np.isnan(a)).view(np.int8)
        # an AND with an all-ones or all-zeros mask selects g or +0.0 without
        # branching on the random routes; adding it to +0.0 turns -0.0 into +0.0
        gx[:, 0:end:2] += (bits & -first).view(g.dtype)
        gx[:, 1:end:2] += (bits & (first - 1)).view(g.dtype)
        _accumulate(x, gx)

    return Tensor(y, _parents=(x,), _backward=back)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def back(g):
        _accumulate(x, g * (x.data > 0.0).astype(x.data.dtype))  # a float mask multiplies ~2x faster than a bool one

    return Tensor(y, _parents=(x,), _backward=back)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two [C, T] maps, or two [N, C, T] batches, along the channel axis."""
    if a.data.ndim not in (2, 3) or b.data.ndim != a.data.ndim or a.shape[:-2] + a.shape[-1:] != b.shape[:-2] + b.shape[-1:]:
        raise ContractError(f"concat_channels needs equal T: got {a.shape} and {b.shape}")
    y = np.concatenate([a.data, b.data], axis=-2)
    c1 = a.shape[-2]

    def back(g):
        _accumulate(a, g[..., :c1, :])
        _accumulate(b, g[..., c1:, :])

    return Tensor(y, _parents=(a, b), _backward=back)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label], stabilized by max subtraction."""
    if logits.data.ndim != 2:
        raise ContractError(f"softmax_cross_entropy expects [N,C] logits, got {logits.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if lab.shape != (n,):
        raise ContractError(f"labels shape {lab.shape} does not match batch {n}")
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise ContractError(f"label out of range [0,{c}): {lab[(lab < 0) | (lab >= c)][0]}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    lse = np.log(ez.sum(axis=1))
    losses = lse - z[np.arange(n), lab]
    y = losses.mean()

    def back(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(n), lab] -= 1.0
        _accumulate(logits, (float(g) / n) * p)

    return Tensor(y, _parents=(logits,), _backward=back)


def smooth_l1(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean elementwise smooth-L1: 0.5*d^2 for |d| < 1, else |d| - 0.5.

    The target is a fixed array, so no gradient flows to it.  It is cast to
    the prediction's dtype, so float64 targets of a float32 prediction
    promote neither the loss nor its gradient."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if pred.shape != target.shape:
        raise ContractError(f"smooth_l1 shape mismatch: {pred.shape} vs {target.shape}")
    d = pred.data - target
    ad = np.abs(d)
    quad = ad < 1.0
    y = np.where(quad, 0.5 * d * d, ad - 0.5).mean()

    def back(g):
        df = np.where(quad, d, np.sign(d)) * (float(g) / d.size)
        _accumulate(pred, df)

    return Tensor(y, _parents=(pred,), _backward=back)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ContractError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, _parents=(a, b), _backward=back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        _accumulate(x, g * c)

    return Tensor(x.data * c, _parents=(x,), _backward=back)


def take(x: Tensor, flat_indices) -> Tensor:
    """Gather by flattened (row-major) indices; gradient scatter-adds back."""
    idx = np.asarray(flat_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.size):
        raise ContractError(f"take index out of range for size {x.data.size}")
    return gathered(x, x.data.reshape(-1)[idx], lambda: idx)


def gathered(x: Tensor, values, flat_indices) -> Tensor:
    """``values``, which must equal ``take(x, flat_indices())``, as a node
    with take's backward.  ``flat_indices`` is called only by the backward,
    so a caller that can compute the gathered values directly never builds
    the index array of a forward that needs no gradient."""

    def back(g):
        gx = np.zeros(x.data.size, dtype=x.data.dtype)
        np.add.at(gx, np.asarray(flat_indices()).ravel(), np.asarray(g).ravel())
        _accumulate(x, gx.reshape(x.data.shape))

    return Tensor(values, _parents=(x,), _backward=back)


def rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi along the first axis, as a view; the backward writes its
    rows of an otherwise zero gradient."""

    def back(g):
        gx = np.zeros_like(x.data)
        gx[lo:hi] = g
        _accumulate(x, gx)

    return Tensor(x.data[lo:hi], _parents=(x,), _backward=back)


def reshape(x: Tensor, shape) -> Tensor:
    y = x.data.reshape(shape)

    def back(g):
        _accumulate(x, np.asarray(g).reshape(x.data.shape))

    return Tensor(y, _parents=(x,), _backward=back)


def sgd_step(params: dict, velocity: dict, cfg: SgdConfig, step: int) -> None:
    """One momentum-SGD update of each leaf tensor in ``params`` with its
    namesake momentum buffer in ``velocity``, which consumes the gradients:
    each leaf's ``grad`` is ``None`` after, so no gradient is held between
    steps, and the next ``backward()`` copies in a fresh one.  A leaf
    without a gradient contributes none.  A leaf absent from ``velocity``
    has zero momentum: its first update creates its buffer as zeros of the
    leaf's dtype and shape, and updates it as any other.

    v <- momentum*v + grad + weight_decay*param;  param <- param - lr(step)*v
    """
    lr = cfg.effective_lr(step)
    for name, p in params.items():
        v = velocity.get(name)
        if v is None:
            v = velocity[name] = np.zeros_like(p.data)
        v *= cfg.momentum
        if p.grad is not None:
            v += p.grad
        if cfg.weight_decay:
            v += cfg.weight_decay * p.data
        p.data -= lr * v
        p.grad = None
