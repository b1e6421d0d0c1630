"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each op returns a `Tensor` node holding its value, references to its parent
nodes and a closure that routes incoming gradients to those parents. Calling
:func:`backward` on a scalar loss walks the recorded graph in exact reverse
topological order and accumulates gradients into every reachable parameter.

Training runs in float32; gradient checks build float64 stores (see
``ParamStore(dtype=...)``). Broadcasting is deliberately restricted: apart
from the bias row in :func:`linear` (and the explicit :func:`broadcast_rows`),
elementwise ops require equal shapes or a python scalar.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import BlobReader, ShapeError, SizeError

_CKPT_MAGIC = b"CKPT"
_CKPT_VERSION = 1


class Tensor:
    """A value in the computation graph."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "_param")

    def __init__(self, value, parents=(), backward=None, requires_grad=False, param=None):
        self.value = value
        self.grad = None
        self._parents = parents
        self._backward = backward
        self._param = param
        self.requires_grad = requires_grad or param is not None or any(
            p.requires_grad for p in parents
        )

    @staticmethod
    def const(value, dtype=None) -> "Tensor":
        arr = np.asarray(value)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return Tensor(arr)

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def _scalarize(x, like: Tensor):
    """Accept python scalars and raw arrays next to Tensors."""
    if isinstance(x, Tensor):
        return x
    return Tensor.const(x, dtype=like.value.dtype)


def add(a: Tensor, b) -> Tensor:
    b = _scalarize(b, a)
    if b.value.ndim:
        _same_shape(a, b, "add")
    out_val = a.value + b.value

    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g if b.value.ndim else g.sum())

    return Tensor(out_val, (a, b), bw)


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _scalarize(a, b)
    b = _scalarize(b, a)
    if a.value.ndim and b.value.ndim:
        _same_shape(a, b, "sub")
    out_val = a.value - b.value

    def bw(g):
        if a.requires_grad:
            a._accumulate(g if a.value.ndim else g.sum())
        if b.requires_grad:
            b._accumulate(-g if b.value.ndim else -g.sum())

    return Tensor(out_val, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = _scalarize(b, a)
    if b.value.ndim:
        _same_shape(a, b, "mul")
    out_val = a.value * b.value

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b.value)
        if b.requires_grad:
            gb = g * a.value
            b._accumulate(gb if b.value.ndim else gb.sum())

    return Tensor(out_val, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return Tensor(-a.value, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out_val = np.exp(a.value)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * out_val)

    return Tensor(out_val, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g / a.value)

    return Tensor(np.log(a.value), (a,), bw)


def square(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (2.0 * a.value))

    return Tensor(a.value * a.value, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_val = np.tanh(a.value)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_val * out_val))

    return Tensor(out_val, (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(a.value * mask, (a,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b``; the bias row is the one sanctioned broadcast."""
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError("linear expects 2-D input and weight")
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (w.value.shape[1],):
        raise ShapeError(
            f"linear: incompatible shapes {x.value.shape}, {w.value.shape}, {b.value.shape}"
        )
    out_val = x.value @ w.value + b.value

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.value.T)
        if w.requires_grad:
            w._accumulate(x.value.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Tensor(out_val, (x, w, b), bw)


def concat(tensors, axis: int = 1) -> Tensor:
    if not tensors:
        raise SizeError("concat of nothing")
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor(out_val, tuple(tensors), bw)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.int64)
    out_val = x.value[idx]

    def bw(g):
        if x.requires_grad:
            gx = np.zeros_like(x.value)
            np.add.at(gx, idx.reshape(-1), g.reshape(-1, g.shape[-1]))
            x._accumulate(gx)

    return Tensor(out_val, (x,), bw)


def pad_groups(groups, fill: int = -1) -> np.ndarray:
    """Stack variable-length index lists into a (G, K) int matrix, ``fill``-padded."""
    if len(groups) == 0:
        raise SizeError("no groups given")
    width = max(len(g) for g in groups)
    if width == 0:
        raise SizeError("max_pool_groups: empty group")
    out = np.full((len(groups), width), fill, dtype=np.int64)
    for row, g in enumerate(groups):
        out[row, : len(g)] = g
    return out


def max_pool_groups(x: Tensor, groups) -> Tensor:
    """Per-group, per-feature max over rows of ``x``.

    ``groups`` is a list of index arrays or an already padded (G, K) matrix
    with -1 marking padding. The gradient flows to the argmax row only (first
    occurrence on ties), so total gradient mass is preserved.
    """
    if isinstance(groups, np.ndarray) and groups.ndim == 2:
        idx = groups.astype(np.int64, copy=False)
    else:
        idx = pad_groups(groups)
    if (idx >= len(x.value)).any():
        raise SizeError("group index out of range")
    if (idx[:, 0] < 0).any():
        raise SizeError("max_pool_groups: empty group")
    valid = idx >= 0
    gathered = x.value[np.where(valid, idx, 0)]  # (G, K, F)
    gathered[~valid] = -np.inf
    # The first member equal to the group max is argmax's pick; numpy's argmax
    # over a middle axis is several times slower than this.
    arg = np.argmax(gathered == gathered.max(axis=1, keepdims=True), axis=1)  # (G, F)
    g_rows = np.arange(idx.shape[0])[:, None]
    out_val = gathered[g_rows, arg, np.arange(x.value.shape[1])[None, :]]

    def bw(g):
        if x.requires_grad:
            gx = np.zeros_like(x.value)
            src_rows = idx[g_rows, arg]  # (G, F) row index per output element
            cols = np.broadcast_to(np.arange(x.value.shape[1])[None, :], src_rows.shape)
            np.add.at(gx, (src_rows.reshape(-1), cols.reshape(-1)), g.reshape(-1))
            x._accumulate(gx)

    return Tensor(np.ascontiguousarray(out_val), (x,), bw)


def normalize_rows(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale each row to unit length; rows shorter than ``eps`` divide by ``eps``."""
    if x.value.ndim != 2:
        raise ShapeError("normalize_rows expects a 2-D tensor")
    norms = np.linalg.norm(x.value, axis=1, keepdims=True)
    guarded = norms <= eps
    denom = np.where(guarded, eps, norms)
    out_val = x.value / denom

    def bw(g):
        if x.requires_grad:
            dot = np.sum(g * out_val, axis=1, keepdims=True)
            gx = np.where(guarded, g / eps, (g - out_val * dot) / denom)
            x._accumulate(gx)

    return Tensor(out_val, (x,), bw)


def standardize_cols(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Center and scale each column to zero mean and unit variance over rows.

    Constant columns come out as zeros, so a feature that carries no
    per-row variation contributes nothing downstream. With a single row
    the output is all zeros and no gradient flows.
    """
    if x.value.ndim != 2:
        raise ShapeError("standardize_cols expects a 2-D tensor")
    mu = x.value.mean(axis=0, keepdims=True)
    centered = x.value - mu
    var = np.mean(centered * centered, axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out_val = centered * inv

    def bw(g):
        if x.requires_grad:
            g_mean = g.mean(axis=0, keepdims=True)
            gy_mean = np.mean(g * out_val, axis=0, keepdims=True)
            x._accumulate(inv * (g - g_mean - out_val * gy_mean))

    return Tensor(out_val, (x,), bw)


def total_sum(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.value, g))

    return Tensor(np.asarray(a.value.sum(), dtype=a.value.dtype), (a,), bw)


def mean(a: Tensor) -> Tensor:
    size = a.value.size

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.value, g / size))

    return Tensor(np.asarray(a.value.mean(), dtype=a.value.dtype), (a,), bw)


def row_sum(a: Tensor) -> Tensor:
    """Sum a (N, F) tensor along its feature axis, yielding (N,)."""
    if a.value.ndim != 2:
        raise ShapeError("row_sum expects a 2-D tensor")

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.repeat(g[:, None], a.value.shape[1], axis=1))

    return Tensor(a.value.sum(axis=1), (a,), bw)


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a (F,) vector into (n, F); the transpose of the bias-sum broadcast."""
    if a.value.ndim != 1:
        raise ShapeError("broadcast_rows expects a 1-D tensor")
    out_val = np.tile(a.value, (n, 1))

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.sum(axis=0))

    return Tensor(out_val, (a,), bw)


def scale_rows(x: Tensor, s) -> Tensor:
    """Multiply each row of a (N, F) tensor by a constant per-row factor."""
    if x.value.ndim != 2:
        raise ShapeError("scale_rows expects a 2-D tensor")
    col = np.asarray(s, dtype=x.value.dtype).reshape(-1, 1)
    if len(col) != len(x.value):
        raise ShapeError(f"scale factors {len(col)} != rows {len(x.value)}")

    def bw(g):
        if x.requires_grad:
            x._accumulate(g * col)

    return Tensor(x.value * col, (x,), bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "minimum")
    take_a = a.value <= b.value

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * take_a)
        if b.requires_grad:
            b._accumulate(g * ~take_a)

    return Tensor(np.where(take_a, a.value, b.value), (a, b), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.value >= lo) & (a.value <= hi)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * inside)

    return Tensor(np.clip(a.value, lo, hi), (a,), bw)


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    if a.value.ndim != 2:
        raise ShapeError("col_slice expects a 2-D tensor")

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.value)
            ga[:, start:stop] = g
            a._accumulate(ga)

    return Tensor(np.ascontiguousarray(a.value[:, start:stop]), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.value.shape))

    return Tensor(a.value.reshape(shape), (a,), bw)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) through the graph below ``loss``.

    The loss must be scalar. Nodes are visited in exact reverse topological
    order (postorder of an iterative DFS, reversed); constant subgraphs are
    pruned. Parameter leaves forward their gradient into their ParamStore
    slot, so several graph references to one parameter sum up correctly.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
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
        # Mark at expansion, not at push: a node reachable over several paths
        # must finish after every consumer, or its backward would fire before
        # all of its gradient has arrived.
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in topo:
        if node._param is not None and node.grad is not None:
            node._param.grad += node.grad


# ---------------------------------------------------------------------------
# Losses


def smooth_l1(pred: Tensor, target) -> Tensor:
    """Mean smooth L1: 0.5 d^2 for |d| < 1, |d| - 0.5 beyond."""
    target_t = target if isinstance(target, Tensor) else Tensor.const(target, pred.value.dtype)
    if pred.value.shape != target_t.value.shape:
        raise ShapeError(
            f"smooth_l1: shape mismatch {pred.value.shape} vs {target_t.value.shape}"
        )
    d = pred.value - target_t.value
    small = np.abs(d) < 1.0
    vals = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    out_val = np.asarray(vals.mean(), dtype=pred.value.dtype)
    size = d.size

    def bw(g):
        gd = g * np.clip(d, -1.0, 1.0) / size
        if pred.requires_grad:
            pred._accumulate(gd)
        if target_t.requires_grad:
            target_t._accumulate(-gd)

    return Tensor(out_val, (pred, target_t), bw)


def normal_loss(pred: Tensor, gt_unit) -> Tensor:
    """Mean negative cosine between row-normalized predictions and unit targets.

    Equals -1 exactly when every prediction already points along its target.
    """
    gt = np.asarray(gt_unit)
    if pred.value.shape != gt.shape:
        raise ShapeError(f"normal_loss: shape mismatch {pred.value.shape} vs {gt.shape}")
    unit = normalize_rows(pred)
    dots = total_sum(mul(unit, Tensor.const(gt, pred.value.dtype)))
    return mul(dots, -1.0 / len(gt))


def mse(pred: Tensor, target) -> Tensor:
    target_t = target if isinstance(target, Tensor) else Tensor.const(target, pred.value.dtype)
    return mean(square(sub(pred, target_t)))


# ---------------------------------------------------------------------------
# Parameters, Adam, checkpoints


class Param:
    __slots__ = ("value", "grad", "m", "v")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)
        self.m = np.zeros_like(value)
        self.v = np.zeros_like(value)


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


class ParamStore:
    """Named trainable arrays plus their Adam state.

    Insertion order is the serialization order, so save(load(x)) is
    byte-identical to x.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Param] = {}
        self.step = 0

    def add(self, name: str, value) -> Param:
        if name in self._params:
            raise SizeError(f"duplicate parameter {name!r}")
        p = Param(np.array(value, dtype=self.dtype))
        self._params[name] = p
        return p

    def add_linear(self, name: str, fan_in: int, fan_out: int, rng: np.random.Generator):
        """Register a weight + zero bias pair with uniform Glorot init."""
        lim = glorot_limit(fan_in, fan_out)
        self.add(name + ".w", rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        self.add(name + ".b", np.zeros(fan_out))

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self):
        return list(self._params)

    def get(self, name: str) -> Param:
        return self._params[name]

    def tensor(self, name: str) -> Tensor:
        p = self._params[name]
        return Tensor(p.value, param=p)

    def zero_grads(self):
        for p in self._params.values():
            p.grad[...] = 0.0

    def adam_step(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        """One Adam update with bias correction and decoupled weight decay."""
        self.step += 1
        c1 = 1.0 - beta1**self.step
        c2 = 1.0 - beta2**self.step
        for p in self._params.values():
            g = p.grad
            p.m *= beta1
            p.m += (1.0 - beta1) * g
            p.v *= beta2
            p.v += (1.0 - beta2) * g * g
            update = (p.m / c1) / (np.sqrt(p.v / c2) + eps)
            if weight_decay:
                update = update + weight_decay * p.value
            p.value -= lr * update

    def state_bytes(self) -> bytes:
        """The exact bytes :func:`save_ckpt` would write (values only)."""
        chunks = [_CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(self._params))]
        for name, p in self._params.items():
            encoded = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(encoded)))
            chunks.append(encoded)
            chunks.append(struct.pack("<I", p.value.ndim))
            chunks.append(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            chunks.append(np.ascontiguousarray(p.value, dtype="<f4").tobytes())
        return b"".join(chunks)


def save_ckpt(store: ParamStore, path) -> None:
    """Serialize parameter values (float32, little-endian) to ``path``."""
    with open(path, "wb") as fh:
        fh.write(store.state_bytes())


def load_ckpt(path) -> ParamStore:
    """Read a checkpoint back into a float32 store, preserving tensor order."""
    with open(path, "rb") as fh:
        rd = BlobReader(fh.read(), path)
    if rd.take(4) != _CKPT_MAGIC:
        raise ShapeError(f"{path} is not a checkpoint (bad magic)")
    version, count = rd.unpack("<II")
    if version != _CKPT_VERSION:
        raise ShapeError(f"unsupported checkpoint version {version}")
    store = ParamStore(dtype=np.float32)
    for _ in range(count):
        (name_len,) = rd.unpack("<I")
        name = rd.take(name_len).decode("utf-8")
        (rank,) = rd.unpack("<I")
        dims = rd.unpack(f"<{rank}I")
        store.add(name, rd.array("<f4", math.prod(dims)).reshape(dims))
    rd.finish()
    return store
