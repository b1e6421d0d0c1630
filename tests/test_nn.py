import ast
import re
from pathlib import Path

import numpy as np
import pytest

from digrl import nn
from digrl.config import get_profile
from digrl.errors import ProtocolError, ShapeError, SizeError
from digrl.repnet import RepNet, rep_loss


def leaf(arr):
    """A float64 tensor that collects its gradient, as a parameter's leaf does."""
    value = np.asarray(arr, dtype=np.float64)
    return nn.Tensor(value, param=nn.Param(value))


def fd_max_rel_err(build, x0, h=1e-5):
    """Max scale-aware relative error between autodiff and central differences.

    ``build(arr)`` returns (leaf tensor, scalar loss tensor). The denominator
    is floored at 1e-3 of the gradient scale so near-zero entries measure
    absolute rather than relative disagreement.
    """
    t, loss = build(x0)
    nn.backward(loss)
    g = t.grad.copy()
    fd = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        _, lp = build(xp)
        _, lm = build(xm)
        fd[i] = (float(lp.value) - float(lm.value)) / (2 * h)
    scale = max(1.0, np.abs(g).max(), np.abs(fd).max())
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-3 * scale)
    return float((np.abs(g - fd) / denom).max())


def weighted_sum(out, rng):
    w = nn.Tensor.const(rng.normal(size=out.value.shape))
    return nn.total_sum(nn.mul(out, w))


class TestGradients:
    """Central finite-difference checks, 64-bit, one op at a time."""

    def test_elementwise_ops(self, rng):
        other = rng.normal(size=(4, 3))  # fixed so repeated builds see one value
        cases = {
            "add": lambda t: nn.add(t, nn.Tensor.const(other)),
            "add_scalar": lambda t: nn.add(t, 1.7),
            "sub": lambda t: nn.sub(t, nn.Tensor.const(other)),
            "mul": lambda t: nn.mul(t, nn.Tensor.const(other)),
            "mul_scalar": lambda t: nn.mul(t, -2.5),
            "mul_minus_one": lambda t: nn.mul(t, -1.0),
            "mul_self": lambda t: nn.mul(t, t),
            "tanh": nn.tanh,
            "exp": lambda t: nn.exp(nn.mul(t, 0.3)),
        }
        for name, op in cases.items():
            x0 = rng.normal(size=(4, 3))

            def build(arr, op=op):
                t = leaf(arr)
                return t, weighted_sum(op(t), np.random.default_rng(5))

            err = fd_max_rel_err(build, x0)
            assert err < 1e-6, f"{name}: {err}"

    def test_scalar_tensor_operand(self, rng):
        # A 0-d operand next to a (4, 3) one gets the sum of its gradient.
        other = nn.Tensor.const(rng.normal(size=(4, 3)))
        cases = {
            "add": lambda s: nn.add(other, s),
            "sub": lambda s: nn.sub(other, s),
            "sub_from_scalar": lambda s: nn.sub(s, other),
            "mul": lambda s: nn.mul(other, s),
        }
        for name, op in cases.items():

            def build(arr, op=op):
                s = leaf(arr)
                return s, weighted_sum(op(s), np.random.default_rng(5))

            err = fd_max_rel_err(build, np.array(0.7))
            assert err < 1e-6, f"{name}: {err}"

    def test_relu_away_from_kink(self, rng):
        x0 = rng.normal(size=(5, 4))
        x0[np.abs(x0) < 0.2] += 0.4

        def build(arr):
            t = leaf(arr)
            return t, weighted_sum(nn.relu(t), np.random.default_rng(5))

        assert fd_max_rel_err(build, x0) < 1e-6

    def test_linear_wrt_all_three_inputs(self, rng):
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        wrng = np.random.default_rng(5)

        for which, mat in (("x", x), ("w", w), ("b", b)):

            def build(arr, which=which):
                parts = {
                    "x": leaf(x) if which != "x" else leaf(arr),
                    "w": leaf(w) if which != "w" else leaf(arr),
                    "b": leaf(b) if which != "b" else leaf(arr),
                }
                out = nn.linear(parts["x"], parts["w"], parts["b"])
                return parts[which], weighted_sum(out, np.random.default_rng(5))

            err = fd_max_rel_err(build, mat.copy())
            assert err < 1e-6, f"linear/{which}: {err}"

    def test_concat_routes_gradient_by_column(self, rng):
        a0 = rng.normal(size=(4, 2))
        other = rng.normal(size=(4, 3))

        def build(arr):
            t = leaf(arr)
            out = nn.concat([t, nn.Tensor.const(other)], axis=1)
            return t, weighted_sum(out, np.random.default_rng(5))

        assert fd_max_rel_err(build, a0) < 1e-6

    def test_weighted_gather(self, rng):
        x0 = rng.normal(size=(6, 3))
        idx = np.array([[0, 2, 2], [5, 1, 0], [2, 2, 2], [4, 0, 5], [1, 3, 2]])
        wts = rng.normal(size=idx.shape)

        def build(arr):
            t = leaf(arr)
            out = nn.weighted_gather(t, idx, wts)
            return t, weighted_sum(out, np.random.default_rng(5))

        assert fd_max_rel_err(build, x0) < 1e-6

    def test_broadcast_and_row_sum(self, rng):
        v0 = rng.normal(size=4)

        def build(arr):
            t = leaf(arr)
            out = nn.row_sum(nn.broadcast_rows(t, 5))
            return t, weighted_sum(out, np.random.default_rng(5))

        assert fd_max_rel_err(build, v0) < 1e-6

    def test_reductions_and_reshape(self, rng):
        x0 = rng.normal(size=(3, 4))
        builders = {
            "mean": lambda t: nn.mean(t),
            "total_sum": lambda t: nn.total_sum(t),
            "reshape": lambda t: weighted_sum(
                nn.reshape(t, (4, 3)), np.random.default_rng(5)
            ),
            "col_slice": lambda t: weighted_sum(
                nn.col_slice(t, 1, 3), np.random.default_rng(5)
            ),
        }
        for name, mk in builders.items():

            def build(arr, mk=mk):
                t = leaf(arr)
                return t, mk(t)

            err = fd_max_rel_err(build, x0)
            assert err < 1e-6, f"{name}: {err}"

    def test_minimum_and_clip_away_from_boundaries(self, rng):
        x0 = rng.normal(size=(4, 3)) * 2
        x0[np.abs(np.abs(x0) - 1.0) < 0.2] += 0.5
        other = x0 + np.where(rng.random(x0.shape) < 0.5, 0.7, -0.7)

        def build_min(arr):
            t = leaf(arr)
            out = nn.minimum(t, nn.Tensor.const(other))
            return t, weighted_sum(out, np.random.default_rng(5))

        def build_clip(arr):
            t = leaf(arr)
            return t, weighted_sum(nn.clip(t, -1.0, 1.0), np.random.default_rng(5))

        assert fd_max_rel_err(build_min, x0) < 1e-6
        assert fd_max_rel_err(build_clip, x0) < 1e-6

    def test_normalize_rows_and_standardize_cols(self, rng):
        x0 = rng.normal(size=(5, 3)) + 0.1

        def build_nr(arr):
            t = leaf(arr)
            return t, weighted_sum(nn.normalize_rows(t), np.random.default_rng(5))

        def build_sc(arr):
            t = leaf(arr)
            return t, weighted_sum(nn.standardize_cols(t), np.random.default_rng(5))

        assert fd_max_rel_err(build_nr, x0) < 1e-5
        assert fd_max_rel_err(build_sc, x0) < 1e-5

    def test_max_pool_groups(self, rng):
        x0 = rng.normal(size=(7, 3))
        # Runs of rows 0-2, 3 and 4-6.
        starts = np.array([0, 3, 4])

        def build(arr):
            t = leaf(arr)
            return t, weighted_sum(
                nn.max_pool_groups(t, starts), np.random.default_rng(5)
            )

        assert fd_max_rel_err(build, x0) < 1e-6

    def test_losses(self, rng):
        pred0 = rng.normal(size=(6, 3))
        target = pred0 + np.where(rng.random(pred0.shape) < 0.5, 0.4, 1.6)
        gt = rng.normal(size=(6, 3))
        gt /= np.linalg.norm(gt, axis=1, keepdims=True)

        def build_sl1(arr):
            t = leaf(arr)
            return t, nn.smooth_l1(t, target)

        def build_mse(arr):
            t = leaf(arr)
            return t, nn.mse(t, target)

        def build_nl(arr):
            t = leaf(arr)
            return t, nn.normal_loss(t, gt)

        assert fd_max_rel_err(build_sl1, pred0.copy()) < 1e-6
        assert fd_max_rel_err(build_mse, pred0.copy()) < 1e-6
        assert fd_max_rel_err(build_nl, pred0.copy()) < 1e-5


class TestBackwardSemantics:
    def test_shared_subgraph_accumulates_once_per_use(self):
        # Diamond: y = x*x, L = sum(y + y); dL/dx = 4x.
        x = leaf(np.array([[1.5, -2.0]]))
        y = nn.mul(x, x)
        L = nn.total_sum(nn.add(y, y))
        nn.backward(L)
        assert np.allclose(x.grad, 4 * x.value, atol=1e-12)

    def test_deep_reuse_chain(self):
        # z = x + x; w = z * z; L = sum(w); dL/dx = 8x.
        x = leaf(np.array([0.7, -1.1]))
        z = nn.add(x, x)
        w = nn.mul(z, z)
        nn.backward(nn.total_sum(w))
        assert np.allclose(x.grad, 8 * x.value, atol=1e-12)

    def test_linearity_of_gradients(self, rng):
        x0 = rng.normal(size=(3, 3))

        def grads(a, b):
            t = leaf(x0)
            l1 = nn.total_sum(nn.mul(t, t))
            l2 = nn.mean(nn.tanh(t))
            nn.backward(nn.add(nn.mul(l1, a), nn.mul(l2, b)))
            return t.grad.copy()

        g1 = grads(1.0, 0.0)
        g2 = grads(0.0, 1.0)
        g = grads(2.0, 3.0)
        assert np.allclose(g, 2 * g1 + 3 * g2, atol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            nn.backward(nn.mul(x, x))

    def test_max_pool_gradient_only_at_argmax(self):
        x = leaf(np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 7.0]]))
        out = nn.max_pool_groups(x, np.array([0]))
        nn.backward(nn.total_sum(out))
        want = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(x.grad, want)
        assert x.grad.sum() == out.value.size  # mass preserved

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_gradient_sums_like_add_at(self, rng, dtype):
        # Few rows take many entries each, with magnitudes over six decades,
        # so any other summation order changes low bits.
        x0 = np.zeros((40, 6), dtype=dtype)
        x = nn.Tensor(x0, param=nn.Param(x0))
        for idx in (rng.integers(0, 5, size=700), rng.integers(0, 40, size=(30, 9))):
            scale = 10.0 ** rng.uniform(-3, 3, size=idx.shape + (1,))
            w = nn.Tensor.const(rng.normal(size=idx.shape + (6,)) * scale, dtype=dtype)
            x.grad = None
            nn.backward(nn.total_sum(nn.mul(nn.gather_rows(x, idx), w)))
            want = np.zeros_like(x.value)
            np.add.at(want, idx.reshape(-1), w.value.reshape(-1, 6))
            assert x.grad.dtype == dtype
            assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_gradient_is_zero_plus_g(self, dtype):
        # A node's first gradient has the bits of 0 + g: a -0 entry becomes
        # +0, and a float64 gradient is cast into the node's dtype after the
        # add, so a tiny negative entry still ends as -0 in float32.
        x = nn.Tensor(np.zeros(4, dtype=dtype))
        g = np.array([-0.0, 0.1, -1e-300, np.nextafter(1.0, 2.0)])
        x._accumulate(g)
        want = np.zeros(4, dtype=dtype)
        want += g
        assert x.grad.dtype == dtype and x.grad is not g
        assert x.grad.tobytes() == want.tobytes()
        assert np.signbit(x.grad).tolist() == [False, False, True, False]

    def test_minus_zero_gradient_reaches_a_leaf_as_plus_zero(self):
        x = leaf(np.array([1.0, 2.0]))
        nn.backward(nn.total_sum(nn.mul(x, -0.0)))
        assert np.signbit(x.grad).tolist() == [False, False]

    def test_backward_consumes_the_graph(self):
        x = leaf(np.array([1.5, -2.0]))
        y = nn.mul(x, x)
        loss = nn.total_sum(y)
        nn.backward(loss)
        assert np.array_equal(x.grad, 2 * x.value)
        assert y.grad is None and loss.grad is None and not y._edges and not loss._edges

    def test_second_backward_over_one_loss_raises(self):
        x = leaf(np.array([1.5, -2.0]))
        loss = nn.total_sum(nn.mul(x, x))
        nn.backward(loss)
        with pytest.raises(ProtocolError):
            nn.backward(loss)
        assert np.array_equal(x._param.grad, 2 * x.value)

    def test_loss_on_a_consumed_graph_raises(self):
        # The fresh branch comes first in the new loss, and still no
        # gradient moves: the walk finds the consumed node before any vjp runs.
        x = leaf(np.array([1.5, -2.0]))
        y = nn.mul(x, x)
        nn.backward(nn.total_sum(y))
        with pytest.raises(ProtocolError):
            nn.backward(nn.add(nn.total_sum(nn.mul(x, 3.0)), nn.total_sum(nn.mul(y, 2.0))))
        assert np.array_equal(x._param.grad, 2 * x.value)

    def test_unreferenced_parameter_keeps_zero_gradient(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        store.add("used", rng.normal(size=(2, 2)))
        store.add("idle", rng.normal(size=(3,)))
        store.zero_grads()
        used = store.tensor("used")
        nn.backward(nn.total_sum(nn.mul(used, used)))
        assert np.array_equal(store.get("idle").grad, np.zeros(3))
        assert np.abs(store.get("used").grad).sum() > 0


def reference_backward(loss):
    """The backward loop that keeps the graph, as it was before the walk consumed it."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._edges:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        for p, vjp in node._edges:
            p._accumulate(vjp(node.grad))
    for node in topo:
        if node._param is not None:
            node._param.grad += node.grad


def reference_scale_rows(x, s):
    """The row-scaling op that ``weighted_gather`` replaced."""
    col = np.asarray(s, dtype=x.value.dtype).reshape(-1, 1)
    return nn._node(x.value * col, (x, lambda g: g * col))


def store_grads(store, backward, build_loss):
    store.zero_grads()
    backward(build_loss())
    return [store.get(name).grad.tobytes() for name in store.names()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestConsumingBackwardMatchesReference:
    """The consuming walk gives the old loop's parameter gradients, byte for byte."""

    def test_desk_repnet_loss(self, dtype):
        rng = np.random.default_rng(2027)
        pts = rng.uniform((-0.2, -0.2, 0.0), (0.2, 0.2, 0.03), size=(2048, 3))
        normals = rng.normal(size=(2048, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        curv = rng.uniform(0.0, 1.0 / 3.0, size=2048)
        net = RepNet(get_profile("desk"), store=nn.ParamStore(dtype=dtype), seed=0)
        plan = net.plan(pts)

        def build_loss():
            return rep_loss(net.forward(plan), normals, curv, 42)

        want = store_grads(net.store, reference_backward, build_loss)
        assert store_grads(net.store, nn.backward, build_loss) == want

    def test_parameter_used_twice(self, dtype):
        # One leaf feeds two layers, and three more leaves share its
        # parameter, as each row of a minibatch takes its own; inputs and
        # weights spread over six decades, so any other order of the
        # parameter's sums changes low bits.
        rng = np.random.default_rng(7)
        store = nn.ParamStore(dtype=dtype)
        store.add("w", rng.normal(size=(5, 5)) * 10.0 ** rng.uniform(-3, 3, size=(5, 5)))
        store.add("b", rng.normal(size=5))
        x = rng.normal(size=(9, 5)) * 10.0 ** rng.uniform(-3, 3, size=(9, 1))
        x = nn.Tensor.const(x, dtype)

        def build_loss():
            w, b = store.tensor("w"), store.tensor("b")
            h = nn.tanh(nn.linear(nn.tanh(nn.linear(x, w, b)), w, b))
            rows = [nn.linear(h, store.tensor("w"), store.tensor("b")) for _ in range(3)]
            return nn.total_sum(nn.mul(nn.add(nn.add(rows[0], rows[1]), rows[2]), h))

        want = store_grads(store, reference_backward, build_loss)
        assert store_grads(store, nn.backward, build_loss) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_gather_matches_gather_scale_add_chain(rng, dtype):
    # Few rows take many entries each, with magnitudes over six decades, so
    # any other order of the forward or the gradient sums changes low bits.
    x0 = rng.normal(size=(40, 6)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
    x0 = x0.astype(dtype)
    for idx in (rng.integers(0, 5, size=(700, 3)), rng.integers(0, 40, size=(30, 3))):
        wts = rng.uniform(0.0, 1.0, size=idx.shape) * 10.0 ** rng.uniform(-3, 3, size=idx.shape)
        up = rng.normal(size=(len(idx), 6)) * 10.0 ** rng.uniform(-3, 3, size=(len(idx), 1))
        up = nn.Tensor.const(up, dtype)
        x_ref = nn.Tensor(x0, param=nn.Param(x0))
        parts = [
            reference_scale_rows(nn.gather_rows(x_ref, idx[:, k]), wts[:, k])
            for k in range(idx.shape[1])
        ]
        want = nn.add(nn.add(parts[0], parts[1]), parts[2])
        x = nn.Tensor(x0, param=nn.Param(x0))
        got = nn.weighted_gather(x, idx, wts)
        assert got.value.dtype == dtype
        assert got.value.tobytes() == want.value.tobytes()
        nn.backward(nn.total_sum(nn.mul(want, up)))
        nn.backward(nn.total_sum(nn.mul(got, up)))
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == x_ref.grad.tobytes()


# Each multi-input op with its input shapes.
MULTI_INPUT_OPS = {
    "add": (nn.add, [(3, 2), (3, 2)]),
    "sub": (nn.sub, [(3, 2), (3, 2)]),
    "mul": (nn.mul, [(3, 2), (3, 2)]),
    "minimum": (nn.minimum, [(3, 2), (3, 2)]),
    "linear": (nn.linear, [(3, 4), (4, 2), (2,)]),
    "concat": (lambda *ts: nn.concat(list(ts)), [(3, 2), (3, 1), (3, 4)]),
}


def wiring_faults(source):
    """Sorted breaches of the wiring rule in ``source``, as (function, fault) pairs.

    Only ``_node`` may pass edges to ``Tensor``, only ``backward`` may call
    ``_accumulate``, and no op may define a ``bw`` closure.
    """
    faults = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if scope is not None and child.name == "bw":
                    faults.append((scope, "nested bw"))
                inner = child.name if scope is None else scope
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                with_edges = len(child.args) > 1 or any(
                    k.arg in (None, "edges") for k in child.keywords
                )
                if name == "Tensor" and with_edges and scope != "_node":
                    faults.append((scope, "Tensor with edges"))
                if name == "_accumulate" and scope != "backward":
                    faults.append((scope, "_accumulate"))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(faults, key=str)


class TestWiringRule:
    @pytest.mark.parametrize("name", sorted(MULTI_INPUT_OPS))
    def test_constant_input_keeps_no_gradient(self, rng, name):
        op, shapes = MULTI_INPUT_OPS[name]
        for const in range(len(shapes)):
            values = [rng.normal(size=shape) for shape in shapes]
            ts = [nn.Tensor.const(v) if i == const else leaf(v) for i, v in enumerate(values)]
            nn.backward(weighted_sum(op(*ts), rng))
            assert [t.grad is None for t in ts] == [i == const for i in range(len(ts))]
        out = op(*[nn.Tensor.const(v) for v in values])
        assert not out.requires_grad and not out._edges

    def test_only_node_wires_edges(self):
        probe = (
            "def add(a, b):\n"
            "    def bw(g):\n"
            "        a._accumulate(g)\n"
            "    return nn.Tensor(a.value + b.value, (a, b), bw)\n"
            "def _node(value, *edges):\n"
            "    return Tensor(value, edges)\n"
        )
        assert wiring_faults(probe) == [
            ("add", "Tensor with edges"), ("add", "_accumulate"), ("add", "nested bw")
        ]
        package = sorted(Path(nn.__file__).parent.glob("*.py"))
        assert Path(nn.__file__) in package
        found = {
            path.name: faults
            for path in package
            if (faults := wiring_faults(path.read_text(encoding="utf-8")))
        }
        assert found == {}


class TestOpIdentities:
    def test_tanh_relu_at_reference_points(self):
        assert nn.tanh(leaf([[0.0]])).value.item() == 0.0
        assert nn.relu(leaf([[-2.0]])).value.item() == 0.0

    def test_linear_identity_passthrough(self, rng):
        x = rng.normal(size=(4, 3))
        out = nn.linear(leaf(x), leaf(np.eye(3)), leaf(np.zeros(3)))
        assert np.array_equal(out.value, x)

    def test_single_element_group_pool_is_identity(self, rng):
        x = rng.normal(size=(3, 4))
        x[0, 0], x[2, 1] = -0.0, 0.0
        t = leaf(x)
        out = nn.max_pool_groups(t, np.arange(3))
        assert out.value.tobytes() == x.tobytes()
        nn.backward(nn.total_sum(out))
        assert np.array_equal(t.grad, np.ones_like(x))

    def test_pool_matches_argmax_on_ties(self, rng):
        # Half-step values tie often, zeros come with both signs, and rows of
        # a 63-row table repeat within and across the 25 runs of 1 to 9 rows.
        # The pooled value and its gradient must come from the first row of
        # a run holding the max, as a plain argmax over its members picks.
        table = np.round(rng.normal(size=(60, 5)) * 2) / 2
        table[::2][table[::2] == 0.0] = -0.0
        # Rows 60-62 make one run in which the first and the last holder of
        # a zero max differ in sign, in each of the first four columns.
        signed = [
            [-0.0, 0.0, -0.5, 0.0, -1.0],
            [0.0, -0.0, -0.0, 0.0, -0.5],
            [-1.0, -2.0, 0.0, -0.0, -0.5],
        ]
        table = np.concatenate([table, signed])
        idx = rng.integers(0, 60, size=(25, 9))
        for row, n in zip(idx, rng.integers(1, 10, size=25)):
            row[n:] = -1
        idx[0] = [60, 61, 62] + [-1] * 6
        valid = idx >= 0
        x = table[idx[valid]]
        sizes = valid.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        members = np.where(valid[:, :, None], table[np.where(valid, idx, 0)], -np.inf)
        arg = np.argmax(members, axis=1)
        want = np.take_along_axis(members, arg[:, None, :], axis=1)[:, 0, :]
        t = leaf(x)
        out = nn.max_pool_groups(t, starts)
        assert out.value.tobytes() == want.tobytes()
        nn.backward(nn.total_sum(out))
        grad = np.zeros_like(x)
        grad[starts[:, None] + arg, np.arange(5)[None, :]] = 1.0
        assert np.array_equal(t.grad, grad)

    def test_pool_rejects_empty_group(self):
        x = leaf(np.ones((3, 2)))
        nn.max_pool_groups(x, np.array([0, 1, 2]))
        # A repeated or falling start is an empty run; runs start at row 0
        # and inside the table, and ``starts`` is one flat list.
        for bad in ([0, 1, 1], [0, 2, 1], [1, 2], [0, 3], [], [[0, 1]]):
            with pytest.raises(SizeError):
                nn.max_pool_groups(x, np.array(bad, dtype=np.int64))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nn.add(leaf(np.ones((2, 2))), leaf(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            nn.smooth_l1(leaf(np.ones((2, 2))), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            nn.weighted_gather(leaf(np.ones((3, 2))), np.zeros((4, 3), dtype=int), np.ones((4, 1)))


class TestLossValues:
    def test_smooth_l1_reference_values(self):
        assert float(nn.smooth_l1(leaf([[3.0]]), [[3.0]]).value) == 0.0
        assert float(nn.smooth_l1(leaf([[2.0]]), [[0.0]]).value) == 1.5
        assert float(nn.smooth_l1(leaf([[0.3]]), [[0.0]]).value) == pytest.approx(0.045)

    def test_smooth_l1_symmetric(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 2))
        assert float(nn.smooth_l1(leaf(a), b).value) == pytest.approx(
            float(nn.smooth_l1(leaf(b), a).value), abs=1e-12
        )

    def test_normal_loss_three_alignments(self):
        gt = np.array([[0.0, 0.0, 1.0]])
        parallel = nn.normal_loss(leaf([[0.0, 0.0, 2.5]]), gt)
        orthogonal = nn.normal_loss(leaf([[3.0, 0.0, 0.0]]), gt)
        anti = nn.normal_loss(leaf([[0.0, 0.0, -0.5]]), gt)
        assert float(parallel.value) == -1.0
        assert float(orthogonal.value) == 0.0
        assert float(anti.value) == 1.0

    def test_normal_loss_zero_row_is_finite(self):
        gt = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        loss = nn.normal_loss(leaf([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), gt)
        assert np.isfinite(float(loss.value))

    def test_mse_zero_for_exact(self, rng):
        v = rng.normal(size=(3, 3))
        assert float(nn.mse(leaf(v), v).value) == 0.0


class TestParamStoreAndAdam:
    def test_add_linear_shapes_and_glorot_bounds(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        store.add_linear("fc", 20, 10, rng)
        w = store.get("fc.w").value
        b = store.get("fc.b").value
        assert w.shape == (20, 10) and b.shape == (10,)
        limit = nn.glorot_limit(20, 10)
        assert limit == pytest.approx(np.sqrt(6.0 / 30.0))
        assert np.abs(w).max() <= limit
        assert np.array_equal(b, np.zeros(10))

    def test_param_count(self, rng):
        store = nn.ParamStore()
        store.add("w", np.zeros((3, 3)))
        store.add("b", np.zeros(3))
        assert sum(store.get(name).value.size for name in store.names()) == 12

    def test_duplicate_name_rejected(self):
        store = nn.ParamStore()
        store.add("p", np.zeros(2))
        with pytest.raises(Exception):
            store.add("p", np.zeros(2))

    def test_adam_first_step_magnitude_is_lr(self):
        store = nn.ParamStore(dtype=np.float64)
        store.add("p", np.array([1.0, -2.0, 0.5]))
        store.zero_grads()
        store.get("p").grad[:] = [30.0, -40.0, 12.0]
        before = store.get("p").value.copy()
        store.adam_step(lr=0.01)
        delta = store.get("p").value - before
        # Bias-corrected first step moves every coordinate by lr against
        # the gradient sign, independent of the gradient magnitude (the
        # epsilon guard only matters for gradients near 1e-8).
        assert np.allclose(np.abs(delta), 0.01, rtol=1e-9)
        assert np.all(np.sign(delta) == -np.sign(store.get("p").grad))

    def test_adam_matches_hand_rolled_reference(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        x0 = rng.normal(size=(2, 3))
        store.add("p", x0.copy())
        m = np.zeros_like(x0)
        v = np.zeros_like(x0)
        ref = x0.copy()
        lr, b1, b2, eps, wd = 0.005, 0.9, 0.999, 1e-8, 0.01
        for step in range(1, 6):
            g = rng.normal(size=x0.shape)
            store.zero_grads()
            store.get("p").grad[:] = g
            store.adam_step(lr=lr, weight_decay=wd)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**step)
            vhat = v / (1 - b2**step)
            ref -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * ref)
            assert np.allclose(store.get("p").value, ref, atol=1e-12)

    def test_zero_gradient_zero_decay_is_noop(self):
        store = nn.ParamStore(dtype=np.float64)
        store.add("p", np.array([3.0, -1.0]))
        store.zero_grads()
        before = store.get("p").value.copy()
        store.adam_step(lr=0.1, weight_decay=0.0)
        assert np.array_equal(store.get("p").value, before)

    def test_quadratic_convergence(self):
        store = nn.ParamStore(dtype=np.float64)
        store.add("x", np.array([2.0]))
        target = 1.25
        for _ in range(500):
            store.zero_grads()
            x = store.tensor("x")
            d = nn.sub(x, np.array([target]))
            loss = nn.total_sum(nn.mul(d, d))
            nn.backward(loss)
            store.adam_step(lr=0.01)
        assert abs(float(store.get("x").value[0]) - target) < 1e-3


def draw_two_layers(store, rng):
    store.add_linear("a", 3, 4, rng)
    store.add_linear("b", 4, 2, rng)


class TestBind:
    """A new network draws into an empty store; a loaded one shares exactly its own parameters."""

    def test_new_draws_keep_their_rng_order(self):
        alone = nn.bind(None, draw_two_layers, np.random.default_rng(7))
        given = nn.ParamStore()
        assert nn.bind(given, draw_two_layers, np.random.default_rng(7)) is given
        assert given.names() == ["a.w", "a.b", "b.w", "b.b"]
        assert given.state_bytes() == alone.state_bytes()

    def test_loaded_store_is_read_as_it_is(self):
        # An agent store: another network's parameter, then this network's.
        drawn = nn.bind(None, draw_two_layers, np.random.default_rng(7))
        store = nn.ParamStore()
        store.add("encoder", np.ones(5))
        store = nn.joined(store, drawn)
        before = store.state_bytes()
        loaded = nn.bind(store, draw_two_layers, None)
        assert loaded.names() == drawn.names()
        assert all(loaded.get(name) is store.get(name) for name in loaded.names())
        assert store.state_bytes() == before

    def test_joined_shares_each_store_in_order(self):
        a = nn.bind(None, draw_two_layers, np.random.default_rng(1))
        b = nn.ParamStore()
        b.add("c", np.zeros(2))
        both = nn.joined(a, b)
        assert both.names() == a.names() + b.names()
        assert all(both.get(name) is s.get(name) for s in (a, b) for name in s.names())
        with pytest.raises(SizeError, match="duplicate parameter 'c'"):
            nn.joined(both, b)

    @pytest.mark.parametrize(
        "held, rng, message",
        [
            ((), None, "parameter 'a.w' is missing from the store"),
            (("a.w", "a.b", "b.w"), None, "parameter 'b.b' is missing from the store"),
            (("a.w", "a.b"), 7, "a new network needs an empty store, this one holds 'a.w'"),
            (("b.b",), 7, "a new network needs an empty store, this one holds 'b.b'"),
        ],
        ids=["load-none", "load-part", "new-over-part", "new-over-last"],
    )
    def test_store_breaking_its_rule_is_refused_untouched(self, held, rng, message):
        full = nn.bind(None, draw_two_layers, np.random.default_rng(0))
        store = nn.ParamStore()
        for name in held:
            store.add(name, full.get(name).value)
        before = store.state_bytes()
        rng = None if rng is None else np.random.default_rng(rng)
        with pytest.raises(ShapeError, match=re.escape(message)):
            nn.bind(store, draw_two_layers, rng)
        assert store.state_bytes() == before

    def test_shape_mismatch_is_refused(self):
        store = nn.bind(None, draw_two_layers, np.random.default_rng(0))

        def wider(s, rng):
            s.add_linear("a", 3, 5, rng)
            s.add_linear("b", 5, 2, rng)

        message = "parameter 'a.w' is (3, 4) in the store, the network needs (3, 5)"
        with pytest.raises(ShapeError, match=re.escape(message)):
            nn.bind(store, wider, None)


class TestCheckpoint:
    def test_round_trip_is_byte_exact(self, rng, tmp_path):
        store = nn.ParamStore(dtype=np.float32)
        store.add_linear("enc.l1", 7, 5, rng)
        store.add_linear("enc.l2", 5, 2, rng)
        store.add("scalar", np.float32(3.5) * np.ones(1, dtype=np.float32))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        nn.save_ckpt(store, p1)
        loaded = nn.load_ckpt(p1)
        nn.save_ckpt(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert list(loaded.names()) == list(store.names())
        for name in store.names():
            assert np.array_equal(loaded.get(name).value, store.get(name).value)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ShapeError):
            nn.load_ckpt(p)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        store = nn.ParamStore()
        store.add("p", np.zeros(2, dtype=np.float32))
        p = tmp_path / "t.ckpt"
        nn.save_ckpt(store, p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(ShapeError):
            nn.load_ckpt(p)
