import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import digrl
from digrl import nn, repnet
from digrl.config import get_profile
from digrl.bench import save_table
from digrl.errors import ShapeError, SizeError
from digrl.repnet import (
    COUNT_SCALE,
    METRIC_FIELDS,
    RepNet,
    RepSample,
    eval_rep,
    gen_scene_files,
    label_scene_files,
    load_rep_dataset,
    rep_loss,
    train_rep,
)
from digrl.scenegen import spawn_scene
from digrl.sensor import SensorConfig, label_observation, observe

QUANT = 2.0 ** -20  # grid on which float64 addition is exact for |v| < 2^11


def quantized_cloud(rng, n, spread=0.2):
    pts = rng.uniform(-spread, spread, size=(n, 3))
    return np.round(pts / QUANT) * QUANT


def tiny_samples(n_scenes=5, n_points=300):
    """Labeled low-count scenes small enough for unit-test training."""
    cfg = SensorConfig(fps_target=n_points)
    samples = []
    for i in range(n_scenes):
        scene = spawn_scene(seed=100 + i, count_range=(3, 6))
        obs = label_observation(observe(scene, cfg))
        samples.append(
            RepSample(
                scene_id=f"{i:04d}",
                points=obs.cloud.points,
                normals=obs.cloud.normals,
                curvature=obs.cloud.curvature,
                count=obs.object_count,
                split="val" if i == n_scenes - 1 else "train",
            )
        )
    return samples


class TestForwardShapes:
    def test_desk_structure(self, rng):
        p = get_profile("desk")
        net = RepNet(p, seed=0)
        cloud = rng.uniform(-0.2, 0.2, size=(2048, 3))
        out = net.forward(net.plan(cloud))
        assert out["normals"].value.shape == (2048, 3)
        assert out["curvature"].value.shape == (2048, 1)
        assert out["count"].value.shape == (1, 1)
        assert out["code"].value.shape == (p.code_size,)
        levels = net.levels(cloud)
        assert [lv.centers.shape for lv in levels] == [(n, 3) for n in p.level_points]

    def test_code_size_both_profiles(self, rng):
        for name, n_pts in (("desk", 2048), ("paper", 1100)):
            p = get_profile(name)
            net = RepNet(p, seed=0)
            cloud = rng.uniform(-0.2, 0.2, size=(n_pts, 3))
            code = net.encode(cloud)
            assert code.shape == (280,)
            assert p.code_size == 280

    def test_too_small_cloud(self, rng):
        net = RepNet(get_profile("desk"), seed=0)
        with pytest.raises(SizeError):
            net.levels(rng.uniform(-0.2, 0.2, size=(200, 3)))

    def test_bad_shape(self):
        net = RepNet(get_profile("desk"), seed=0)
        with pytest.raises(ShapeError):
            net.levels(np.zeros((500, 2)))


class TestEncoderOnly:
    def test_encode_is_the_forward_code_without_the_decoder(self, rng, monkeypatch):
        net = RepNet(get_profile("desk"), seed=3)
        cloud = rng.uniform(-0.2, 0.2, size=(2048, 3))
        want = np.array(net.forward(net.plan(cloud))["code"].value, dtype=np.float64)
        calls = []
        idw_weights = repnet.idw_weights

        def counting(*args, **kwargs):
            calls.append(1)
            return idw_weights(*args, **kwargs)

        monkeypatch.setattr(repnet, "idw_weights", counting)
        assert net.encode(cloud).tobytes() == want.tobytes()
        assert calls == []


def golden_cloud():
    """A 2,048-point slab whose first-level balls overflow their group cap."""
    rng = np.random.default_rng(2022)
    pts = rng.uniform((-0.2, -0.2, 0.0), (0.2, 0.2, 0.03), size=(2048, 3))
    normals = rng.normal(size=(2048, 3))
    normals[:, 2] = np.abs(normals[:, 2])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return pts, normals, rng.uniform(0.0, 1.0 / 3.0, size=2048)


class TestGolden:
    """Hashes recorded with one ball query per center, before batching.

    The float64 store keeps the last bit of every distance and IDW weight
    visible in the hashes.
    """

    def golden_net(self):
        return RepNet(get_profile("desk"), store=nn.ParamStore(dtype=np.float64), seed=0)

    def test_encode_hash(self):
        pts, _, _ = golden_cloud()
        code = self.golden_net().encode(pts)
        assert (
            hashlib.sha256(code.tobytes()).hexdigest()
            == "d23c0f3cacf1681c0b36220d2410d294b84fcad2d03f127f6817fbe4fd402215"
        )

    def test_backward_hash(self):
        """Gradients of the golden loss, computed with one BLAS and OpenMP thread.

        A threaded matmul may split its sums differently for another thread
        count, so the gradients come from a child process whose thread pools
        all have one thread, whatever the test process uses.
        """
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        paths = [str(Path(digrl.__file__).parents[1]), str(Path(__file__).parent)]
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        child = subprocess.run(
            [sys.executable, "-c", "import test_repnet; print(test_repnet.golden_grad_hash())"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert (
            child.stdout.strip()
            == "ba81cd79211871dfb63d961788a6884b619c7859433a76125a0f554293386b57"
        )


def golden_grad_hash():
    """SHA-256 of every parameter gradient of the golden loss, in store order."""
    pts, normals, curv = golden_cloud()
    net = TestGolden().golden_net()
    nn.backward(rep_loss(net.forward(net.plan(pts)), normals, curv, 42))
    h = hashlib.sha256()
    for name in net.store.names():
        h.update(net.store.get(name).grad.tobytes())
    return h.hexdigest()


def test_one_ball_query_per_level(rng, monkeypatch):
    calls = []
    query = repnet.ball_query

    def counted(cloud, centers, radius, max_k):
        calls.append(len(centers))
        return query(cloud, centers, radius, max_k)

    monkeypatch.setattr(repnet, "ball_query", counted)
    p = get_profile("desk")
    RepNet(p, seed=0).levels(rng.uniform(-0.2, 0.2, size=(2048, 3)))
    assert calls == list(p.level_points)


def test_plan_reaches_geometry_through_module_names(rng, monkeypatch):
    """The benchmark times grouping by wrapping ``digrl.repnet``'s own
    ``fps``, ``ball_query`` and ``idw_weights``; a plan built through any
    other binding would drop out of those per-layer figures.
    """
    calls = []
    for name in ("fps", "ball_query", "idw_weights"):
        original = getattr(repnet, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(repnet, name, counted)
    p = get_profile("desk")
    RepNet(p, seed=0).plan(rng.uniform(-0.2, 0.2, size=(2048, 3)))
    levels = len(p.level_points)
    assert calls == ["fps", "ball_query"] * levels + ["idw_weights"] * levels


def out_bytes(out):
    return [out[k].value.tobytes() for k in ("normals", "curvature", "count", "code")]


class TestPlan:
    """A forward on a reused plan has the bits of one on a freshly built plan."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_with_plan_is_bitwise_equal(self, rng, dtype):
        net = RepNet(get_profile("desk"), store=nn.ParamStore(dtype=dtype), seed=5)
        for n in (256, 2048):
            cloud = rng.uniform(-0.2, 0.2, size=(n, 3))
            plan = net.plan(cloud)
            want = out_bytes(net.forward(net.plan(cloud)))
            assert out_bytes(net.forward(plan)) == want
            assert out_bytes(net.forward(plan)) == want  # a plan is reusable

    def test_forward_with_plan_on_a_dataset_scene(self, tmp_path):
        profile = get_profile("desk")
        build_dataset(str(tmp_path), profile=profile, seed=1, n_scenes=1, count_range=(3, 6))
        (sample,) = load_rep_dataset(str(tmp_path))
        net = RepNet(profile, seed=2)
        plan = net.plan(sample.points)
        assert out_bytes(net.forward(plan)) == out_bytes(net.forward(net.plan(sample.points)))
        assert eval_rep(net, [sample], [plan]) == eval_rep(net, [sample], [net.plan(sample.points)])

    def test_plans_must_match_the_samples(self):
        samples = tiny_samples(n_scenes=2)
        net = RepNet(get_profile("desk"), seed=0)
        with pytest.raises(SizeError):
            eval_rep(net, samples, [net.plan(samples[0].points)])

    def test_train_rep_matches_rebuilding_geometry_every_epoch(self, monkeypatch):
        samples = tiny_samples(n_scenes=3)
        profile = get_profile("desk")
        net, history = train_rep(samples, profile, seed=4, epochs=3, batch_size=2)
        original = repnet.eval_rep

        def fresh_plans(net, samples, plans):
            return original(net, samples, [net.plan(s.points) for s in samples])

        monkeypatch.setattr(repnet, "eval_rep", fresh_plans)
        ref_net, ref_history = train_rep(samples, profile, seed=4, epochs=3, batch_size=2)
        assert history == ref_history
        assert net.store.state_bytes() == ref_net.store.state_bytes()

    def test_train_rep_groups_each_evaluation_cloud_once(self, monkeypatch):
        samples = tiny_samples(n_scenes=3)
        n_train = sum(s.split == "train" for s in samples)
        n_val = len(samples) - n_train
        counts = dict.fromkeys(("fps", "ball_query", "idw_weights"), 0)
        for name in counts:
            original = getattr(repnet, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(repnet, name, counted)
        per_epoch = []

        def snapshot(line):  # the val row is an epoch's last log line
            if " val " in line:
                per_epoch.append(dict(counts))

        train_rep(samples, get_profile("desk"), epochs=3, batch_size=2, log=snapshot)
        levels = len(get_profile("desk").level_points)
        # Every training forward groups its jittered cloud; the evaluation
        # clouds are grouped once, before the first epoch.
        clouds = [2 * n_train + n_val, n_train, n_train]
        totals = np.cumsum(clouds) * levels
        assert per_epoch == [dict.fromkeys(counts, int(t)) for t in totals]


class TestTranslationInvariance:
    def test_code_halves(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        net = RepNet(get_profile("desk"), store=store, seed=0)
        cloud = quantized_cloud(rng, 2048)
        shift = np.round(np.array([0.13, -0.07, 0.0]) / QUANT) * QUANT
        a = net.encode(cloud)
        b = net.encode(cloud + shift)
        p = get_profile("desk")
        fa = a.reshape(p.level_points[-1], -1)
        fb = b.reshape(p.level_points[-1], -1)
        width = fa.shape[1] - 3
        assert np.array_equal(fa[:, :width], fb[:, :width])
        assert np.array_equal(fa[:, width:] + shift, fb[:, width:])

    def test_per_point_heads_invariant(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        net = RepNet(get_profile("desk"), store=store, seed=0)
        cloud = quantized_cloud(rng, 2048)
        shift = np.round(np.array([-0.05, 0.11, 0.0]) / QUANT) * QUANT
        na, ca, cnt_a = net.predict(net.plan(cloud))
        nb, cb, cnt_b = net.predict(net.plan(cloud + shift))
        assert np.array_equal(na, nb)
        assert np.array_equal(ca, cb)
        assert cnt_a == cnt_b


class TestPredict:
    def test_output_ranges(self, rng):
        net = RepNet(get_profile("desk"), seed=0)
        normals, curv, count = net.predict(net.plan(rng.uniform(-0.2, 0.2, size=(2048, 3))))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
        assert np.all((curv >= 0.0) & (curv <= 1.0 / 3.0))
        assert np.isfinite(count)

    def test_count_scaling(self, rng):
        net = RepNet(get_profile("desk"), seed=0)
        cloud = rng.uniform(-0.2, 0.2, size=(2048, 3))
        plan = net.plan(cloud)
        out = net.forward(plan)
        _, _, count = net.predict(plan)
        assert count == pytest.approx(out["count"].value.item() * COUNT_SCALE, rel=1e-12)


class TestRepLoss:
    def test_perfect_prediction_is_minus_ten(self):
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        curv = np.array([0.0, 0.1, 0.25])
        out = {
            "normals": nn.Tensor.const(normals),
            "curvature": nn.Tensor.const(curv.reshape(-1, 1)),
            "count": nn.Tensor.const(np.array([[7 / COUNT_SCALE]])),
        }
        loss = rep_loss(out, normals, curv, 7)
        assert loss.value.item() == -10.0

    def test_worst_normals(self):
        gt = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        out = {
            "normals": nn.Tensor.const(-gt),
            "curvature": nn.Tensor.const(np.zeros((2, 1))),
            "count": nn.Tensor.const(np.array([[0.0]])),
        }
        loss = rep_loss(out, gt, np.zeros(2), 0)
        assert loss.value.item() == 10.0

    def test_gradient_flows_to_all_heads(self, rng):
        net = RepNet(get_profile("desk"), seed=0)
        cloud = rng.uniform(-0.2, 0.2, size=(400, 3))
        gt_n = np.tile([0.0, 0.0, 1.0], (400, 1))
        out = net.forward(net.plan(cloud))
        loss = rep_loss(out, gt_n, np.zeros(400), 5)
        nn.backward(loss)
        for name in ("sa1_l1", "fp1_l2", "cnt_l3"):
            g = net.store.get(name + ".w").grad
            assert np.abs(g).max() > 0


class TestTraining:
    def test_loss_improves_and_is_deterministic(self):
        samples = tiny_samples()

        def total_loss(net):
            tot = 0.0
            for s in samples:
                if s.split != "train":
                    continue
                out = net.forward(net.plan(s.points))
                tot += rep_loss(out, s.normals, s.curvature, s.count).value.item()
            return tot

        before = total_loss(RepNet(get_profile("desk"), seed=3))
        net1, hist1 = train_rep(samples, get_profile("desk"), seed=3, epochs=3)
        net2, hist2 = train_rep(samples, get_profile("desk"), seed=3, epochs=3)
        assert total_loss(net1) < before
        assert hist1 == hist2
        assert net1.store.state_bytes() == net2.store.state_bytes()
        assert {row["split"] for row in hist1} == {"train", "val"}

    def test_eval_metrics_shape(self):
        samples = tiny_samples(n_scenes=2)
        net = RepNet(get_profile("desk"), seed=0)
        metrics = eval_rep(net, samples, [net.plan(s.points) for s in samples])
        assert set(metrics) == {"normal_cos", "normal_deg", "curv_mae", "count_mae"}
        assert -1.0 <= metrics["normal_cos"] <= 1.0
        assert metrics["curv_mae"] >= 0.0

    def test_eval_of_no_samples_rejected(self):
        net = RepNet(get_profile("desk"), seed=0)
        with pytest.raises(SizeError):
            eval_rep(net, [], [])

    @pytest.mark.parametrize(
        "name, value", [("batch_size", -2), ("batch_size", 0), ("epochs", 0)]
    )
    def test_non_positive_sizes_rejected(self, name, value):
        # A negative batch size used to take no step and still report every epoch.
        samples = tiny_samples(n_scenes=2)
        with pytest.raises(SizeError, match=f"{name} must be at least 1, got {value}"):
            train_rep(samples, get_profile("desk"), **{name: value})

    def test_empty_train_split_rejected(self):
        samples = tiny_samples(n_scenes=2)
        for s in samples:
            s.split = "val"
        with pytest.raises(SizeError):
            train_rep(samples, get_profile("desk"), epochs=1)


def build_dataset(root, profile, seed, n_scenes, count_range):
    """The CLI's two dataset steps: spawn and save scenes, then observe and label them."""
    gen_scene_files(root, profile=profile, seed=seed, n_scenes=n_scenes, count_range=count_range)
    return label_scene_files(root, profile=profile, seed=seed)


class TestDataset:
    def test_build_and_load_round_trip(self, tmp_path):
        root = tmp_path / "data"
        lines = build_dataset(
            str(root), profile=get_profile("desk"), seed=11, n_scenes=3, count_range=(3, 6)
        )
        assert len(lines) == 3
        samples = load_rep_dataset(str(root))
        assert len(samples) == 3
        assert {s.split for s in samples} == {"train", "val"}
        for s in samples:
            assert len(s.points) <= get_profile("desk").fps_target
            assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-6)
            assert np.all((s.curvature >= 0.0) & (s.curvature <= 1.0 / 3.0))
            assert 3 <= s.count <= 6

    def test_single_scene_is_a_training_scene(self, tmp_path):
        # Seed 1 draws this lone scene into the validation split.
        root = str(tmp_path / "data")
        profile = get_profile("desk")
        lines = build_dataset(root, profile=profile, seed=1, n_scenes=1, count_range=(50, 60))
        assert len(lines) == 1 and lines[0].endswith("split=train")
        samples = load_rep_dataset(root)
        assert [s.split for s in samples] == ["train"]
        _, history = train_rep(samples, profile, epochs=1)
        assert {row["split"] for row in history} == {"train"}

    def test_deterministic_rebuild(self, tmp_path):
        kwargs = dict(profile=get_profile("desk"), seed=11, n_scenes=2, count_range=(3, 5))
        build_dataset(str(tmp_path / "a"), **kwargs)
        build_dataset(str(tmp_path / "b"), **kwargs)
        for sub in ("manifest.txt", "scenes/0000.xyzl", "scenes/0001.xyzl"):
            assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()

    @pytest.mark.parametrize("n_scenes", [0, -1])
    def test_non_positive_scene_count_rejected(self, n_scenes, tmp_path):
        # A count of 0 used to write an empty manifest that ``label`` then rejected.
        with pytest.raises(SizeError, match=f"n_scenes must be at least 1, got {n_scenes}"):
            gen_scene_files(tmp_path / "data", n_scenes=n_scenes)
        assert not (tmp_path / "data").exists()

    def test_missing_labels_rejected(self, tmp_path):
        root = tmp_path / "data"
        (root / "scenes").mkdir(parents=True)
        (root / "manifest.txt").write_text("0000 seed=1 count=2 split=train\n")
        (root / "scenes" / "0000.xyzl").write_text("0 0 0\n" * 4)
        with pytest.raises(ShapeError, match=r"0000\.xyzl:1: expected 7 fields, got 3"):
            load_rep_dataset(str(root))

    def test_metrics_csv(self, tmp_path):
        rows = [
            {
                "epoch": 1,
                "split": "train",
                "normal_cos": 0.5,
                "normal_deg": 60.0,
                "curv_mae": 0.1,
                "count_mae": 3.0,
            }
        ]
        path = tmp_path / "m.csv"
        save_table(rows, METRIC_FIELDS, path)
        text = path.read_text().strip().splitlines()
        assert text[0] == "epoch,split,normal_cos,normal_deg,curv_mae,count_mae"
        assert text[1].startswith("1,train,0.5,60.0,")
