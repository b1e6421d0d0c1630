"""Geometric digging surrogate and the episodic excavation environment.

A dig is scored without contact dynamics: objects whose centroid lies inside
the volume swept by the bucket mouth during the drag phase are captured, in
the order the bucket reaches them, skipping any object that would overflow
the bucket's rated capacity. Captured objects leave the scene; the remainder
re-settles vertically. Reward is the captured solid volume in cubic
centimeters, or -1 when trajectory planning fails (the scene is untouched).

The environment wraps this into fixed-length episodes: a fresh cluttered
scene in the default tray per reset, a fixed number of digs per episode,
actions given as normalized (x, y, alpha) triples in [-1, 1] that map
affinely onto ``config.ATTACK_RANGES``. Every environment digs with the
default arm, trajectory parameters and bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ATTACK_RANGES, OBJECT_COUNT_RANGE, Profile, get_profile, seed_stream
from .errors import ProtocolError, ShapeError
from .geometry import HeightMap
from .kinematics import (
    ArmModel,
    AttackPose,
    PlanOutcome,
    TrajectoryParams,
    fk_batch,
    plan_trajectory,
)
from .scenegen import Scene, resettle, spawn_scene
from .sensor import ObservationCloud, SensorConfig, observe, scene_heightmap

M3_TO_CM3 = 1.0e6
PLAN_FAILURE_REWARD = -1.0


@dataclass
class BucketSpec:
    """Capture geometry of the bucket mouth."""

    capacity: float = 4.5e-4  # m^3 (450 cm^3)
    width: float = 0.12  # m, lateral extent of the swept region
    sweep_height: float = 0.10  # m, how far above the cutting edge it reaches


@dataclass
class DigResult:
    attack: AttackPose
    outcome: PlanOutcome
    captured_indices: tuple[int, ...]
    captured_volume: float  # m^3
    reward: float
    scene_after: Scene


def capture_from_drag(
    scene: Scene, drag_tips: np.ndarray, hmap: HeightMap, bucket: BucketSpec
) -> tuple[list[int], float]:
    """Objects swept up along one drag segment, greedily capped by capacity.

    ``drag_tips`` are the tip waypoints of the drag phase including its start
    point. An object is inside the swept region when its centroid falls in
    the drag-aligned rectangle of the bucket width, at a height between the
    cutting edge and the lower of the pre-dig surface and the sweep ceiling.
    Encounter order is distance along the drag.
    """
    if drag_tips.ndim != 2 or drag_tips.shape[1] != 3:
        raise ShapeError(f"drag_tips must be (N, 3), got {drag_tips.shape}")
    start, end = drag_tips[0], drag_tips[-1]
    span = end[:2] - start[:2]
    length = float(np.hypot(*span))
    if length < 1e-12:
        return [], 0.0
    g_hat = span / length
    t_hat = np.array([-g_hat[1], g_hat[0]])
    edge_z = float(start[2])
    candidates = []
    for i, placed in enumerate(scene.placed):
        c = placed.translation
        rel = c[:2] - start[:2]
        s = float(rel @ g_hat)
        t = float(rel @ t_hat)
        if not (0.0 <= s <= length and abs(t) <= bucket.width / 2.0):
            continue
        ceiling = min(hmap.height_at(c[0], c[1]), edge_z + bucket.sweep_height)
        if edge_z <= c[2] <= ceiling:
            candidates.append((s, i))
    candidates.sort()
    taken: list[int] = []
    vol = 0.0
    for _, i in candidates:
        v = scene.placed[i].obj.volume
        if vol + v <= bucket.capacity + 1e-15:
            taken.append(i)
            vol += v
    return taken, vol


def execute_dig(
    scene: Scene,
    attack: AttackPose,
    arm: ArmModel,
    params: TrajectoryParams,
    bucket: BucketSpec,
    hmap: HeightMap | None = None,
) -> DigResult:
    """Plan and score one dig. The input scene is never mutated."""
    if hmap is None:
        hmap = scene_heightmap(scene, SensorConfig())
    outcome = plan_trajectory(arm, attack, hmap, scene.tray, params)
    if not outcome.ok:
        return DigResult(attack, outcome, (), 0.0, PLAN_FAILURE_REWARD, scene)
    traj = outcome.trajectory
    tips, _ = fk_batch(arm, traj.joints)
    drag_tips = tips[traj.phase_slice("drag")]
    taken, vol = capture_from_drag(scene, drag_tips, hmap, bucket)
    after = resettle(scene, taken) if taken else Scene(scene.tray, list(scene.placed), scene.seed)
    return DigResult(attack, outcome, tuple(taken), vol, vol * M3_TO_CM3, after)


def action_to_attack(action) -> AttackPose:
    """Map a normalized [-1, 1]^3 action onto the physical attack ranges."""
    a = np.clip(np.asarray(action, dtype=np.float64).reshape(3), -1.0, 1.0)
    spans = [ATTACK_RANGES.x, ATTACK_RANGES.y, ATTACK_RANGES.alpha]
    vals = [lo + (v + 1.0) * 0.5 * (hi - lo) for v, (lo, hi) in zip(a, spans)]
    return AttackPose(*vals)


@dataclass
class EnvConfig:
    digs_per_episode: int = 10
    count_range: tuple[int, int] = OBJECT_COUNT_RANGE


class ExcavationEnv:
    """Episodic excavation: one cluttered tray, a fixed budget of digs.

    ``reset`` builds a fresh scene and returns its observation; ``step``
    takes a normalized action, executes the dig, and returns
    ``(obs, reward, done, info)``. The observation only changes when a dig
    actually disturbs the scene; failed plans leave it untouched. Stepping a
    finished episode raises ProtocolError. Sensor noise draws from its own
    stream of ``seed``, and the planner uses the observation's noise-free
    heightmap, so noise changes only the observed points. Only the profile,
    seed, episode config and sensor vary between environments.
    """

    def __init__(
        self,
        profile: Profile | None = None,
        seed: int | None = None,
        env_cfg: EnvConfig | None = None,
        sensor: SensorConfig | None = None,
    ) -> None:
        self.profile = profile or get_profile()
        self.cfg = env_cfg or EnvConfig()
        self.sensor = sensor or SensorConfig(fps_target=self.profile.fps_target)
        self._rng = np.random.default_rng(seed)
        # Sensor noise has its own stream, so scene seeds never shift.
        self._noise_rng = (
            np.random.default_rng() if seed is None else seed_stream(seed, "sensor-noise")
        )
        self._scene: Scene | None = None
        self._obs: ObservationCloud | None = None
        self._digs = 0
        self._done = True

    @property
    def scene(self) -> Scene | None:
        return self._scene

    def reset(self) -> ObservationCloud:
        scene_seed = int(self._rng.integers(0, 2**62))
        self._scene = spawn_scene(scene_seed, count_range=self.cfg.count_range)
        self._refresh_observation()
        self._digs = 0
        self._done = False
        return self._obs

    def _refresh_observation(self) -> None:
        self._obs = observe(self._scene, self.sensor, self._noise_rng)

    def step(self, action) -> tuple[ObservationCloud, float, bool, dict]:
        if self._done or self._scene is None:
            raise ProtocolError("step() on a finished episode; call reset() first")
        attack = action_to_attack(action)
        result = execute_dig(
            self._scene,
            attack,
            ArmModel(),
            TrajectoryParams(),
            BucketSpec(),
            hmap=self._obs.heightmap,
        )
        self._digs += 1
        info = {
            "dig": self._digs,
            "attack": attack.as_array(),
            "plan_ok": result.outcome.ok,
            "failure": result.outcome.failure,
            "fail_index": result.outcome.fail_index,
            "captured_cm3": result.captured_volume * M3_TO_CM3,
            "objects_left": result.scene_after.object_count,
            "emptied": False,
        }
        if result.outcome.ok and result.captured_indices:
            self._scene = result.scene_after
            self._refresh_observation()
            if self._scene.object_count == 0:
                info["emptied"] = self._done = True
        if self._digs >= self.cfg.digs_per_episode:
            self._done = True
        return self._obs, result.reward, self._done, info

