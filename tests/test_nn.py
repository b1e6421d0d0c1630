import numpy as np
import pytest

from digrl import nn
from digrl.errors import ShapeError, SizeError


def leaf(arr):
    return nn.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


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
            "neg": nn.neg,
            "square": nn.square,
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

    def test_log_on_positive_inputs(self, rng):
        x0 = rng.uniform(0.5, 3.0, size=(4, 3))

        def build(arr):
            t = leaf(arr)
            return t, weighted_sum(nn.log(t), np.random.default_rng(5))

        assert fd_max_rel_err(build, x0) < 1e-6

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

    def test_gather_and_scale_rows(self, rng):
        x0 = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5, 1])
        s = rng.normal(size=5)

        def build(arr):
            t = leaf(arr)
            out = nn.scale_rows(nn.gather_rows(t, idx), s)
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
        groups = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5, 6])]

        def build(arr):
            t = leaf(arr)
            return t, weighted_sum(
                nn.max_pool_groups(t, groups), np.random.default_rng(5)
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
            l1 = nn.total_sum(nn.square(t))
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
            nn.backward(nn.square(x))

    def test_max_pool_gradient_only_at_argmax(self):
        x = leaf(np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 7.0]]))
        out = nn.max_pool_groups(x, [np.array([0, 1, 2])])
        nn.backward(nn.total_sum(out))
        want = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(x.grad, want)
        assert x.grad.sum() == out.value.size  # mass preserved

    def test_unreferenced_parameter_keeps_zero_gradient(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        store.add("used", rng.normal(size=(2, 2)))
        store.add("idle", rng.normal(size=(3,)))
        store.zero_grads()
        nn.backward(nn.total_sum(nn.square(store.tensor("used"))))
        assert np.array_equal(store.get("idle").grad, np.zeros(3))
        assert np.abs(store.get("used").grad).sum() > 0


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
        out = nn.max_pool_groups(leaf(x), [np.array([1])])
        assert np.array_equal(out.value, x[1:2])

    def test_pool_matches_argmax_on_ties(self, rng):
        # Half-step values tie often, zeros come with both signs, and -1 pads
        # short groups. The pooled value and its gradient must come from the
        # first member holding the max, as a plain argmax over members picks.
        x = np.round(rng.normal(size=(60, 5)) * 2) / 2
        x[::2][x[::2] == 0.0] = -0.0
        idx = rng.integers(0, 60, size=(25, 9))
        for row, n in zip(idx, rng.integers(1, 10, size=25)):
            row[n:] = -1
        valid = idx >= 0
        members = np.where(valid[:, :, None], x[np.where(valid, idx, 0)], -np.inf)
        arg = np.argmax(members, axis=1)
        want = np.take_along_axis(members, arg[:, None, :], axis=1)[:, 0, :]
        t = leaf(x)
        out = nn.max_pool_groups(t, idx)
        assert out.value.tobytes() == want.tobytes()
        nn.backward(nn.total_sum(out))
        grad = np.zeros_like(x)
        np.add.at(grad, (np.take_along_axis(idx, arg, axis=1), np.arange(5)[None, :]), 1.0)
        assert np.array_equal(t.grad, grad)

    def test_pool_rejects_empty_group(self):
        with pytest.raises(SizeError):
            nn.max_pool_groups(leaf(np.ones((2, 2))), [np.array([], dtype=np.int64)])

    def test_pad_groups_layout(self):
        padded = nn.pad_groups([np.array([3, 1]), np.array([2])])
        assert np.array_equal(padded, [[3, 1], [2, -1]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nn.add(leaf(np.ones((2, 2))), leaf(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            nn.smooth_l1(leaf(np.ones((2, 2))), np.ones((2, 3)))


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
            loss = nn.total_sum(nn.square(nn.sub(x, np.array([target]))))
            nn.backward(loss)
            store.adam_step(lr=0.01)
        assert abs(float(store.get("x").value[0]) - target) < 1e-3


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
