import math

import numpy as np
import pytest

from digrl import excavation, sensor
from digrl.bench import attack_to_action
from digrl.config import ATTACK_RANGES, get_profile
from digrl.errors import ProtocolError, ShapeError
from digrl.excavation import (
    M3_TO_CM3,
    PLAN_FAILURE_REWARD,
    BucketSpec,
    EnvConfig,
    ExcavationEnv,
    action_to_attack,
    capture_from_drag,
    execute_dig,
)
from digrl.geometry import HeightMap
from digrl.kinematics import ArmModel, AttackPose, TrajectoryParams, plan_trajectory
from digrl.scenegen import (
    INTERPENETRATION_TOL,
    PlacedObject,
    Scene,
    Tray,
    resettle,
    save_scene,
    spawn_scene,
)
from digrl.sensor import SensorConfig, scene_heightmap
from test_scenegen import _scene_bytes, make_box, penetration_depth, total_volume

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def boxes_scene(centers, size=0.06):
    placed = [
        PlacedObject(
            make_box(size, size, size),
            IDENTITY_QUAT.copy(),
            np.array([cx, cy, size / 2]),
        )
        for cx, cy in centers
    ]
    return Scene(Tray(), placed)


def flat_map(height):
    return HeightMap(
        origin=np.array([-0.40, -0.25]),
        resolution=0.005,
        heights=np.full((160, 100), float(height)),
    )


class TestCaptureFromDrag:
    def drag(self, x0, x1, z, n=5):
        tips = np.zeros((n, 3))
        tips[:, 0] = np.linspace(x0, x1, n)
        tips[:, 2] = z
        return tips

    def test_corridor_membership(self):
        hmap = flat_map(0.15)
        bucket = BucketSpec()
        inside = boxes_scene([(0.0, 0.0)])
        taken, vol = capture_from_drag(inside, self.drag(0.1, -0.1, 0.0), hmap, bucket)
        assert taken == [0]
        assert vol == pytest.approx(0.06 ** 3, rel=1e-9)

    def test_lateral_and_axial_exclusion(self):
        hmap = flat_map(0.15)
        bucket = BucketSpec()
        # One box too far sideways, one behind the start of the drag.
        scene = boxes_scene([(0.0, 0.07), (0.15, 0.0)])
        taken, vol = capture_from_drag(scene, self.drag(0.1, -0.1, 0.0), hmap, bucket)
        assert taken == [] and vol == 0.0

    def test_height_window(self):
        bucket = BucketSpec()
        drag = self.drag(0.1, -0.1, 0.0)
        # Centroid below the cutting edge: out.
        low = boxes_scene([(0.0, 0.0)])
        low.placed[0].translation[2] = -0.02
        assert capture_from_drag(low, drag, flat_map(0.15), bucket)[0] == []
        # Centroid above the sweep ceiling: out.
        high = boxes_scene([(0.0, 0.0)])
        high.placed[0].translation[2] = 0.12
        assert capture_from_drag(high, drag, flat_map(0.15), bucket)[0] == []
        # Ceiling also respects the pre-dig surface height.
        surface_limited = boxes_scene([(0.0, 0.0)])
        surface_limited.placed[0].translation[2] = 0.05
        assert capture_from_drag(surface_limited, drag, flat_map(0.02), bucket)[0] == []

    def test_encounter_order_and_capacity(self):
        hmap = flat_map(0.15)
        scene = boxes_scene([(-0.05, 0.0), (0.05, 0.0)])
        drag = self.drag(0.1, -0.1, 0.0)
        # Both fit: taken nearest-first along the drag.
        taken, vol = capture_from_drag(scene, drag, hmap, BucketSpec())
        assert taken == [1, 0]
        assert vol == pytest.approx(2 * 0.06 ** 3, rel=1e-9)
        # Tight capacity: the nearer one wins, the second would overflow.
        taken, vol = capture_from_drag(scene, drag, hmap, BucketSpec(capacity=3.0e-4))
        assert taken == [1]

    def test_overflow_skip_allows_later_fit(self):
        hmap = flat_map(0.15)
        big = make_box(0.06, 0.06, 0.06)
        small = make_box(0.04, 0.04, 0.04)
        scene = Scene(
            Tray(),
            [
                PlacedObject(big, IDENTITY_QUAT.copy(), np.array([0.05, 0.0, 0.03])),
                PlacedObject(big, IDENTITY_QUAT.copy(), np.array([0.0, 0.0, 0.03])),
                PlacedObject(small, IDENTITY_QUAT.copy(), np.array([-0.05, 0.0, 0.02])),
            ],
        )
        # Capacity fits one big box and the small one, but not two big ones:
        # the second big box is skipped, the small one behind it still fits.
        cap = 0.06 ** 3 + 0.04 ** 3 + 1e-6
        taken, vol = capture_from_drag(
            scene, self.drag(0.1, -0.1, 0.0), hmap, BucketSpec(capacity=cap)
        )
        assert taken == [0, 2]
        assert vol <= cap + 1e-15

    def test_zero_length_drag(self):
        scene = boxes_scene([(0.0, 0.0)])
        tips = np.zeros((2, 3))
        assert capture_from_drag(scene, tips, flat_map(0.15), BucketSpec()) == ([], 0.0)

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            capture_from_drag(boxes_scene([]), np.zeros((4, 2)), flat_map(0.1), BucketSpec())


class TestExecuteDig:
    def test_capture_and_resettle(self):
        # Attack over the first box for height; the drag sweeps up the second.
        scene = boxes_scene([(0.2, 0.0), (0.05, 0.0)])
        result = execute_dig(
            scene, AttackPose(0.2, 0.0, math.radians(60.0)), ArmModel(),
            TrajectoryParams(), BucketSpec(),
        )
        assert result.outcome.ok
        assert result.captured_indices == (1,)
        assert result.captured_volume == pytest.approx(0.06 ** 3, rel=1e-9)
        assert result.reward == pytest.approx(0.06 ** 3 * M3_TO_CM3, rel=1e-9)
        assert result.scene_after.object_count == 1
        assert scene.object_count == 2  # input scene untouched

    def test_volume_conservation(self):
        scene = boxes_scene([(0.2, 0.0), (0.05, 0.0), (0.05, 0.1)])
        result = execute_dig(
            scene, AttackPose(0.2, 0.0, math.radians(60.0)), ArmModel(),
            TrajectoryParams(), BucketSpec(),
        )
        assert result.outcome.ok
        total_after = total_volume(result.scene_after) + result.captured_volume
        assert total_after == pytest.approx(total_volume(scene), abs=1e-12)

    def test_empty_tray_dig(self):
        scene = Scene(Tray(), [])
        result = execute_dig(
            scene, AttackPose(0.0, 0.0, math.radians(60.0)), ArmModel(),
            TrajectoryParams(), BucketSpec(),
        )
        assert result.outcome.ok
        assert result.captured_indices == ()
        assert result.reward == 0.0

    def test_plan_failure_leaves_scene(self):
        scene = boxes_scene([(0.05, 0.0)])
        result = execute_dig(
            scene, AttackPose(0.50, 0.0, math.radians(60.0)), ArmModel(),
            TrajectoryParams(), BucketSpec(),
        )
        assert not result.outcome.ok
        assert result.reward == PLAN_FAILURE_REWARD
        assert result.captured_indices == ()
        assert result.scene_after is scene


def max_interpenetration(scene):
    """Deepest overlap over every pair of objects whose AABBs meet."""
    wv = [p.world_vertices() for p in scene.placed]
    lo = np.array([v.min(axis=0) for v in wv])
    hi = np.array([v.max(axis=0) for v in wv])
    meets = ((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None])).all(axis=-1)
    pairs = zip(*np.nonzero(np.triu(meets, 1)))
    faces = [p.obj.faces for p in scene.placed]
    return max(
        (penetration_depth(wv[i], faces[i], wv[j], faces[j]) for i, j in pairs), default=0.0
    )


class TestDigSequence:
    def test_invariants_hold_across_digs(self):
        """20 digs on one 250-object scene: no interpenetration, capacity, conservation."""
        scene = spawn_scene(3, (250, 250))
        rng = np.random.default_rng(3)
        ranges, arm, params, bucket = ATTACK_RANGES, ArmModel(), TrajectoryParams(), BucketSpec()
        captures = 0
        for _ in range(20):
            hmap = scene_heightmap(scene, SensorConfig())
            for _ in range(500):  # draw until the planner accepts, so most digs capture
                attack = AttackPose(*(rng.uniform(*r) for r in (ranges.x, ranges.y, ranges.alpha)))
                if plan_trajectory(arm, attack, hmap, scene.tray, params).ok:
                    break
            else:
                pytest.fail("no plannable attack in 500 draws")
            before = scene.object_count
            result = execute_dig(scene, attack, arm, params, bucket, hmap=hmap)
            scene = result.scene_after
            if not result.captured_indices:
                continue
            captures += 1
            assert max_interpenetration(scene) <= INTERPENETRATION_TOL
            assert result.captured_volume <= bucket.capacity
            assert scene.object_count + len(result.captured_indices) == before
        assert captures >= 10


    def test_dirty_resettle_matches_full_resettle(self, tmp_path):
        """20 capturing digs on 250 objects: the dig's resettle has the full re-drop's bytes."""
        scene = spawn_scene(3, (250, 250))
        rng = np.random.default_rng(3)
        ranges, arm, params, bucket = ATTACK_RANGES, ArmModel(), TrajectoryParams(), BucketSpec()
        hmap = scene_heightmap(scene, SensorConfig())
        captures = 0
        for _ in range(1000):
            attack = AttackPose(*(rng.uniform(*r) for r in (ranges.x, ranges.y, ranges.alpha)))
            result = execute_dig(scene, attack, arm, params, bucket, hmap=hmap)
            if not result.captured_indices:
                continue
            gone = set(result.captured_indices)
            kept = [p for i, p in enumerate(scene.placed) if i not in gone]
            full = resettle(Scene(scene.tray, kept, scene.seed))
            path = tmp_path / "s.scene"
            assert _scene_bytes(result.scene_after, path) == _scene_bytes(full, path)
            scene = result.scene_after
            hmap = scene_heightmap(scene, SensorConfig())
            captures += 1
            if captures == 20:
                break
        assert captures == 20


class TestActionMapping:
    def test_corners_and_midpoint(self):
        r = ATTACK_RANGES
        lo = action_to_attack([-1.0, -1.0, -1.0])
        hi = action_to_attack([1.0, 1.0, 1.0])
        mid = action_to_attack([0.0, 0.0, 0.0])
        assert (lo.x, lo.y, lo.alpha) == (r.x[0], r.y[0], r.alpha[0])
        assert hi.x == pytest.approx(r.x[1], abs=1e-12)
        assert hi.y == pytest.approx(r.y[1], abs=1e-12)
        assert hi.alpha == pytest.approx(r.alpha[1], abs=1e-12)
        assert mid.x == pytest.approx((r.x[0] + r.x[1]) / 2)
        assert mid.y == pytest.approx(0.0)
        assert mid.alpha == pytest.approx((r.alpha[0] + r.alpha[1]) / 2)

    def test_out_of_band_actions_clip(self):
        a = action_to_attack([5.0, -7.0, 0.2])
        b = action_to_attack([1.0, -1.0, 0.2])
        assert (a.x, a.y, a.alpha) == (b.x, b.y, b.alpha)

    def test_round_trip_within_band(self, rng):
        r = ATTACK_RANGES
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, size=3)
            att = action_to_attack(v)
            assert r.contains(att.x, att.y, att.alpha)


class TestEnv:
    # Seed 3 captures on the third of these actions.
    CAPTURE_SEED = 3
    ACTIONS = [[0.3, 0.0, 0.2], [-0.2, 0.4, 0.0], [0.6, -0.5, 0.8]]

    def small_env(self, seed=0, digs=3, noise_sigma=0.0):
        return ExcavationEnv(
            profile=get_profile("desk"),
            seed=seed,
            env_cfg=EnvConfig(digs_per_episode=digs, count_range=(5, 8)),
            sensor=SensorConfig(fps_target=512, noise_sigma=noise_sigma),
        )

    def test_episode_protocol(self):
        env = self.small_env()
        obs = env.reset()
        assert len(obs) <= 512
        assert obs.object_count == env.scene.object_count
        done = False
        steps = 0
        left = obs.object_count
        while not done:
            obs, reward, done, info = env.step([0.3, 0.0, 0.2])
            steps += 1
            assert set(info) >= {
                "dig", "attack", "plan_ok", "failure", "fail_index",
                "captured_cm3", "objects_left", "emptied",
            }
            assert info["objects_left"] <= left
            left = info["objects_left"]
            assert isinstance(reward, float)
        assert steps == 3
        with pytest.raises(ProtocolError):
            env.step([0.0, 0.0, 0.0])

    def assert_planner_map_is_noise_free(self, env, obs):
        expected = scene_heightmap(env.scene, env.sensor)
        assert obs.heightmap.heights.tobytes() == expected.heights.tobytes()
        assert obs.heightmap.origin.tobytes() == expected.origin.tobytes()
        assert obs.heightmap.resolution == expected.resolution

    def test_one_render_per_refresh(self, monkeypatch):
        renders = []
        grid = sensor._surface_grid

        def counted(*args):
            renders.append(1)
            return grid(*args)

        monkeypatch.setattr(sensor, "_surface_grid", counted)
        env = self.small_env(seed=self.CAPTURE_SEED)
        obs = env.reset()
        assert len(renders) == 1
        self.assert_planner_map_is_noise_free(env, obs)
        captures = 0
        for a in self.ACTIONS:
            renders.clear()
            obs, _, _, info = env.step(a)
            captured = info["captured_cm3"] > 0 and not info["emptied"]
            captures += captured
            assert len(renders) == (1 if captured else 0)
            self.assert_planner_map_is_noise_free(env, obs)
        assert captures >= 1

    def test_noisy_sensor(self, tmp_path):
        def run(noise_sigma):
            env = self.small_env(seed=self.CAPTURE_SEED, noise_sigma=noise_sigma)
            obs = env.reset()
            rows = []
            for a in [None] + self.ACTIONS:
                reward = None
                if a is not None:
                    obs, reward, _, _ = env.step(a)
                self.assert_planner_map_is_noise_free(env, obs)
                path = tmp_path / f"scene-{noise_sigma}-{len(rows)}.bin"
                save_scene(env.scene, path)
                rows.append((obs.points.tobytes(), reward, path.read_bytes()))
            return rows

        noisy = run(0.002)
        assert run(0.002) == noisy
        clean = run(0.0)
        # Noise has its own stream and never reaches the planner, so scenes and
        # rewards match the noise-free run; only the observed points differ.
        assert [r[1:] for r in noisy] == [r[1:] for r in clean]
        assert all(n[0] != c[0] for n, c in zip(noisy, clean))

    def test_deterministic_episodes(self):
        actions = [[0.3, 0.0, 0.2], [-0.2, 0.4, 0.0], [0.6, -0.5, 0.8]]
        outs = []
        for _ in range(2):
            env = self.small_env(seed=42)
            obs = env.reset()
            rows = [obs.points.tobytes()]
            for a in actions:
                obs, reward, done, info = env.step(a)
                rows.append((obs.points.tobytes(), reward, done, info["objects_left"]))
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_seed_sets_the_scenes(self):
        def resets(seed):
            env = self.small_env(seed=seed)
            return [env.reset().points.tobytes() for _ in range(2)]

        a = resets(123)
        assert resets(123) == a
        assert a[0] != a[1]
        assert all(x != y for x, y in zip(a, resets(124)))

    def test_capturing_the_last_object_ends_the_episode(self, monkeypatch):
        # One box in the tray; an attack just past it sweeps it up.
        monkeypatch.setattr(
            excavation, "spawn_scene", lambda seed, count_range: boxes_scene([(0.05, 0.0)])
        )
        env = self.small_env(digs=3)
        before = env.reset()
        action = attack_to_action(AttackPose(0.075, 0.0, math.radians(90.0)))
        obs, reward, done, info = env.step(action)
        # The returned observation is of the emptied tray, not the pre-dig one.
        assert obs is not before and obs.object_count == 0
        assert info["plan_ok"] and info["objects_left"] == 0
        assert reward == pytest.approx(0.06**3 * M3_TO_CM3, rel=1e-9)
        assert info["emptied"]
        assert done and info["dig"] == 1
        assert env.scene.object_count == 0
        with pytest.raises(ProtocolError):
            env.step(action)

    def test_failed_plan_keeps_observation(self):
        env = self.small_env()
        obs0 = env.reset()
        obs1, reward, done, info = env.step([1.0, 1.0, 1.0])  # corner: likely failure
        if not info["plan_ok"]:
            assert reward == PLAN_FAILURE_REWARD
            assert obs1 is obs0

