"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every op states its value and one vector-Jacobian product (vjp) per input,
and :func:`_node` wires them: the node keeps a ``(parent, vjp)`` edge for
each input that needs a gradient, and ``vjp(g)`` maps the gradient of the
node to that input's share. Calling :func:`backward` on a scalar loss walks
the recorded graph in exact reverse topological order, runs each node's
edges in order and accumulates the results into the parents. The walk
consumes the graph: each interior node drops its gradient and its edges
once they have run, so activations are freed as the walk passes them.
After backward only leaves keep ``.grad``, and a consumed graph cannot be
walked again.

Training runs in float32; gradient checks build float64 stores (see
``ParamStore(dtype=...)``). Broadcasting is deliberately restricted: apart
from the bias row in :func:`linear` (and the explicit :func:`broadcast_rows`),
elementwise ops require equal shapes or a python scalar.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import BlobReader, ProtocolError, ShapeError, SizeError

_CKPT_MAGIC = b"CKPT"
_CKPT_VERSION = 1
_NORM_EPS = 1e-8  # normalize_rows divides rows shorter than this by it
_VAR_EPS = 1e-5  # standardize_cols adds this to each column's variance
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """A value in the computation graph; a leaf has no edges, and only :func:`_node` adds them.

    Only a parameter's leaf (``param``) and the nodes above one need a gradient.
    """

    __slots__ = ("value", "grad", "requires_grad", "_edges", "_param")

    def __init__(self, value, edges=(), param=None):
        self.value = value
        self.grad = None
        self._edges = edges
        self._param = param
        self.requires_grad = param is not None or bool(edges)

    @staticmethod
    def const(value, dtype=None) -> "Tensor":
        arr = np.asarray(value)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return Tensor(arr)

    def _accumulate(self, g):
        if self.grad is None:
            # 0 + g in one pass, into a fresh array of the value's dtype: a -0 becomes +0.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.value))
        else:
            self.grad += g


def _node(value, *edges) -> Tensor:
    """An op's result ``value``, with the ``(parent, vjp)`` edges whose parent needs a grad."""
    return Tensor(value, [e for e in edges if e[0].requires_grad])


def _keep(g):
    return g


def _sum(g):
    return g.sum()


def _sum_rows(g):
    return g.sum(axis=0)


def _placed(like: np.ndarray, index, g) -> np.ndarray:
    """Zeros shaped like ``like`` with ``g`` written at ``index``."""
    out = np.zeros_like(like)
    out[index] = g
    return out


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
    return _node(a.value + b.value, (a, _keep), (b, _keep if b.value.ndim else _sum))


def sub(a: Tensor, b) -> Tensor:
    b = _scalarize(b, a)
    if a.value.ndim and b.value.ndim:
        _same_shape(a, b, "sub")
    return _node(
        a.value - b.value,
        (a, _keep if a.value.ndim else _sum),
        (b, (lambda g: -g) if b.value.ndim else (lambda g: -g.sum())),
    )


def mul(a: Tensor, b) -> Tensor:
    b = _scalarize(b, a)
    if b.value.ndim:
        _same_shape(a, b, "mul")
    return _node(
        a.value * b.value,
        (a, lambda g: g * b.value),
        (b, (lambda g: g * a.value) if b.value.ndim else (lambda g: (g * a.value).sum())),
    )


def exp(a: Tensor) -> Tensor:
    out_val = np.exp(a.value)
    return _node(out_val, (a, lambda g: g * out_val))


def tanh(a: Tensor) -> Tensor:
    out_val = np.tanh(a.value)
    return _node(out_val, (a, lambda g: g * (1.0 - out_val * out_val)))


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0
    return _node(a.value * mask, (a, lambda g: g * mask))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b``; the bias row is the one sanctioned broadcast."""
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError("linear expects 2-D input and weight")
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (w.value.shape[1],):
        raise ShapeError(
            f"linear: incompatible shapes {x.value.shape}, {w.value.shape}, {b.value.shape}"
        )
    return _node(
        x.value @ w.value + b.value,
        (x, lambda g: g @ w.value.T),
        (w, lambda g: x.value.T @ g),
        (b, _sum_rows),
    )


def concat(tensors, axis: int = 1) -> Tensor:
    if not tensors:
        raise SizeError("concat of nothing")
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    ends = np.cumsum([0] + [t.value.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % out_val.ndim)
    # Each input's vjp takes its own slice of the gradient along ``axis``.
    spans = [lead + (slice(lo, hi),) for lo, hi in zip(ends, ends[1:])]
    return _node(out_val, *[(t, lambda g, at=at: g[at]) for t, at in zip(tensors, spans)])


def _scatter_add_rows(like: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with each ``rows[e]`` added at row ``idx[e]``.

    The sums are those of an unbuffered scatter-add, bit for bit: every
    target row adds its entries in index order, starting from zero. Pass j
    adds the j-th entry of every row that has one in one vectorised step;
    those rows are distinct, so a plain fancy-index ``+=`` is exact.
    """
    out = np.zeros_like(like)
    order = np.argsort(idx, kind="stable")
    counts = np.bincount(idx, minlength=len(like))
    first = np.cumsum(counts) - counts
    # Targets by falling entry count: pass j takes the prefix of those with
    # more than j entries.
    targets = np.argsort(-counts, kind="stable")
    taking = len(counts) - np.cumsum(np.bincount(counts))[:-1]
    for j, m in enumerate(taking.tolist()):
        t = targets[:m]
        out[t] += rows[order[first[t] + j]]
    return out


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.int64)
    return _node(
        x.value[idx],
        (x, lambda g: _scatter_add_rows(x.value, idx.reshape(-1), g.reshape(-1, g.shape[-1]))),
    )


def weighted_gather(x: Tensor, idx, wts) -> Tensor:
    """Row d is ``sum_k x[idx[d, k]] * wts[d, k]`` for a (D, K) stencil of constant weights.

    The K terms add in k order, and the gradient sums one scatter-add per k,
    also in k order, so both have the bits of a ``gather_rows`` times weight
    chain added term by term.
    """
    idx = np.asarray(idx, dtype=np.int64)
    wts = np.asarray(wts, dtype=x.value.dtype)
    if idx.ndim != 2 or idx.shape != wts.shape:
        raise ShapeError(f"weighted_gather: index {idx.shape} and weight {wts.shape} differ")
    out_val = x.value[idx[:, 0]] * wts[:, :1]
    for k in range(1, idx.shape[1]):
        out_val += x.value[idx[:, k]] * wts[:, k : k + 1]

    def vjp(g):
        gx = _scatter_add_rows(x.value, idx[:, 0], g * wts[:, :1])
        for k in range(1, idx.shape[1]):
            gx += _scatter_add_rows(x.value, idx[:, k], g * wts[:, k : k + 1])
        return gx

    return _node(out_val, (x, vjp))


def _first_holders(x: np.ndarray, pooled: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(G, F) index of the first row of each run holding that run's max, per column."""
    n = len(x)
    run_max = np.repeat(pooled, np.diff(starts, append=n), axis=0)
    # ~(x < max) is x == max for a finite max, either zero for a zero one,
    # and every row for a NaN max, so each run has a holder.
    rows = np.where(x < run_max, n, np.arange(n)[:, None])
    return np.minimum.reduceat(rows, starts, axis=0)


def max_pool_groups(x: Tensor, starts) -> Tensor:
    """Per-group, per-feature max over consecutive runs of rows of ``x``.

    Group g is the run of rows from ``starts[g]`` up to ``starts[g + 1]``,
    the last one up to the end of ``x``. ``starts`` begins at 0 and strictly
    increases, so no run is empty. The pooled value has the bits of the
    first row holding the max (which matters for a max of -0 and +0), and
    the gradient flows to that row only, so total gradient mass is
    preserved. The holders are found in backward; within a column they are
    distinct rows, so the gradient is assigned, not accumulated.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = len(x.value)
    if starts.ndim != 1 or len(starts) == 0 or starts[0] != 0:
        raise SizeError("max_pool_groups: runs must start at row 0")
    if (np.diff(starts) <= 0).any() or starts[-1] >= n:
        raise SizeError("max_pool_groups: empty run or run start out of range")
    out_val = np.maximum.reduceat(x.value, starts, axis=0)
    cols = np.arange(x.value.shape[1])
    zero = out_val == 0.0
    if zero.any():
        out_val[zero] = x.value[_first_holders(x.value, out_val, starts), cols][zero]
    return _node(
        out_val,
        (x, lambda g: _placed(x.value, (_first_holders(x.value, out_val, starts), cols), g)),
    )


def normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit length; rows shorter than ``_NORM_EPS`` divide by it."""
    if x.value.ndim != 2:
        raise ShapeError("normalize_rows expects a 2-D tensor")
    norms = np.linalg.norm(x.value, axis=1, keepdims=True)
    guarded = norms <= _NORM_EPS
    denom = np.where(guarded, _NORM_EPS, norms)
    out_val = x.value / denom

    def vjp(g):
        dot = np.sum(g * out_val, axis=1, keepdims=True)
        return np.where(guarded, g / _NORM_EPS, (g - out_val * dot) / denom)

    return _node(out_val, (x, vjp))


def standardize_cols(x: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + _VAR_EPS)
    out_val = centered * inv

    def vjp(g):
        g_mean = g.mean(axis=0, keepdims=True)
        gy_mean = np.mean(g * out_val, axis=0, keepdims=True)
        return inv * (g - g_mean - out_val * gy_mean)

    return _node(out_val, (x, vjp))


def total_sum(a: Tensor) -> Tensor:
    out_val = np.asarray(a.value.sum(), dtype=a.value.dtype)
    return _node(out_val, (a, lambda g: np.full_like(a.value, g)))


def mean(a: Tensor) -> Tensor:
    size = a.value.size
    out_val = np.asarray(a.value.mean(), dtype=a.value.dtype)
    return _node(out_val, (a, lambda g: np.full_like(a.value, g / size)))


def row_sum(a: Tensor) -> Tensor:
    """Sum a (N, F) tensor along its feature axis, yielding (N,)."""
    if a.value.ndim != 2:
        raise ShapeError("row_sum expects a 2-D tensor")
    return _node(
        a.value.sum(axis=1), (a, lambda g: np.repeat(g[:, None], a.value.shape[1], axis=1))
    )


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a (F,) vector into (n, F); the transpose of the bias-sum broadcast."""
    if a.value.ndim != 1:
        raise ShapeError("broadcast_rows expects a 1-D tensor")
    return _node(np.tile(a.value, (n, 1)), (a, _sum_rows))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "minimum")
    take_a = a.value <= b.value
    out_val = np.where(take_a, a.value, b.value)
    return _node(out_val, (a, lambda g: g * take_a), (b, lambda g: g * ~take_a))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.value >= lo) & (a.value <= hi)
    return _node(np.clip(a.value, lo, hi), (a, lambda g: g * inside))


def col_slice(a: Tensor, start: int, stop: int) -> Tensor:
    if a.value.ndim != 2:
        raise ShapeError("col_slice expects a 2-D tensor")
    cols = (slice(None), slice(start, stop))
    return _node(np.ascontiguousarray(a.value[cols]), (a, lambda g: _placed(a.value, cols, g)))


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.value.reshape(shape), (a, lambda g: g.reshape(a.value.shape)))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) through the graph below ``loss``, consuming it.

    The loss must be scalar. Nodes are visited in exact reverse topological
    order (postorder of an iterative DFS, reversed); each runs its edges in
    order, adding ``vjp(node.grad)`` into the edge's parent, and then drops
    its gradient and its edges, which frees the arrays its vjps captured.
    So after backward only leaves keep ``.grad``, and a walk that reaches a
    consumed node (one that needs a gradient but has neither edges nor a
    parameter) raises ProtocolError before any gradient moves: a second
    backward over one loss, or a new loss built on a consumed graph, would
    otherwise silently give zero gradients. Constant inputs have no edge,
    so constant subgraphs are pruned. After the walk, parameter leaves add
    their gradient into their ParamStore slot in forward topological order,
    so several graph references to one parameter sum up in a fixed order.
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
        if node.requires_grad and node._param is None and not node._edges:
            raise ProtocolError("backward reached a graph that an earlier backward consumed")
        # Mark at expansion, not at push: a node reachable over several paths
        # must finish after every consumer, or its edges would run before
        # all of its gradient has arrived.
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._edges:
            if id(p) not in seen:
                stack.append((p, False))
    leaves = [node for node in topo if node._param is not None]
    loss.grad = np.ones_like(loss.value)
    while topo:
        node = topo.pop()
        if node._edges:
            for p, vjp in node._edges:
                p._accumulate(vjp(node.grad))
            node.grad = None
            node._edges = ()
    for node in leaves:
        node._param.grad += node.grad


# ---------------------------------------------------------------------------
# Losses


def smooth_l1(pred: Tensor, target) -> Tensor:
    """Mean smooth L1 against a raw-array target: 0.5 d^2 for |d| < 1, |d| - 0.5 beyond."""
    target = np.asarray(target).astype(pred.value.dtype, copy=False)
    if pred.value.shape != target.shape:
        raise ShapeError(f"smooth_l1: shape mismatch {pred.value.shape} vs {target.shape}")
    d = pred.value - target
    small = np.abs(d) < 1.0
    vals = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    out_val = np.asarray(vals.mean(), dtype=pred.value.dtype)
    size = d.size
    return _node(out_val, (pred, lambda g: g * np.clip(d, -1.0, 1.0) / size))


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
    """Mean squared error against a raw-array target."""
    d = sub(pred, target)
    return mean(mul(d, d))


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
        return self.share(name, Param(np.array(value, dtype=self.dtype)))

    def share(self, name: str, p: Param) -> Param:
        """Hold ``p`` itself under ``name``; every store holding it reads and trains one array."""
        if name in self._params:
            raise SizeError(f"duplicate parameter {name!r}")
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

    def adam_step(self, lr: float, weight_decay: float = 0.0) -> None:
        """One Adam update with bias correction and decoupled weight decay."""
        self.step += 1
        c1 = 1.0 - ADAM_BETA1**self.step
        c2 = 1.0 - ADAM_BETA2**self.step
        for p in self._params.values():
            g = p.grad
            p.m *= ADAM_BETA1
            p.m += (1.0 - ADAM_BETA1) * g
            p.v *= ADAM_BETA2
            p.v += (1.0 - ADAM_BETA2) * g * g
            update = (p.m / c1) / (np.sqrt(p.v / c2) + ADAM_EPS)
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


def bind(store: ParamStore | None, draw, rng: np.random.Generator | None) -> ParamStore:
    """The store a network reads its parameters from.

    ``draw(s, rng)`` adds the network's parameters, in order, to an empty
    store ``s``. With an ``rng`` the network is new, and its draws go into
    the empty ``store`` (a new float32 one for None). Without one it is
    loaded: ``store`` holds each parameter at its drawn shape, maybe beside
    another network's, and the result is a new store sharing exactly this
    network's ``Param`` objects, in draw order. ShapeError names the first
    parameter that breaks the rule, and a refused store is left as it was.
    """
    store = ParamStore() if store is None else store
    if rng is not None and store.names():
        raise ShapeError(f"a new network needs an empty store, this one holds {store.names()[0]!r}")
    if rng is not None:
        draw(store, rng)
        return store
    drawn = ParamStore(store.dtype)
    draw(drawn, np.random.default_rng(0))
    loaded = ParamStore(store.dtype)
    for name in drawn.names():
        want = drawn.get(name).value.shape
        if name not in store:
            raise ShapeError(f"parameter {name!r} is missing from the store")
        if store.get(name).value.shape != want:
            got = store.get(name).value.shape
            raise ShapeError(f"parameter {name!r} is {got} in the store, the network needs {want}")
        loaded.share(name, store.get(name))
    return loaded


def joined(*stores: ParamStore) -> ParamStore:
    """One store that shares the parameters of ``stores``, in their order."""
    out = ParamStore(stores[0].dtype)
    for s in stores:
        for name in s.names():
            out.share(name, s.get(name))
    return out


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
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ShapeError(f"{path}: parameter name is not UTF-8") from None
        (rank,) = rd.unpack("<I")
        dims = rd.unpack(f"<{rank}I")
        store.add(name, rd.array("<f4", math.prod(dims)).reshape(dims))
    rd.finish()
    return store
