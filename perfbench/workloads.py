"""The three benchmark workloads, their output checks and behaviour digests.

Each workload calls only the public digrl API. It has a ``setup`` that
builds its inputs from the workload seed and a ``unit`` that does one
deterministic piece of work, numbered ``u``, whose inputs come from the seed
and ``u``. The runner repeats units until its time is up.

Checks run from outside on every unit. Anything that raises or breaks an
invariant counts as a failed item. A ``Recorder`` keeps the outputs of the
units it is switched on for and hashes them after the timed part, into the
workload's behaviour digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from digrl import bench, excavation, repnet, scenegen, sensor
from digrl.config import DESK_PROFILE, stream_seed
from digrl.excavation import EnvConfig, ExcavationEnv
from digrl.geometry import load_xyzl
from digrl.repnet import RepNet

PROFILE = DESK_PROFILE

# Reference share of PPO samples that capture at least one object. A freshly
# initialised policy on 200-300 object scenes captured on 0.094 of its
# samples over 20 runs. rl-dense reports its throughput at this share.
RL_CAPTURE_SHARE = 0.10

# Object counts are drawn in strata, one stratum per unit in turn, so every
# run sees the same spread of scene sizes: settling time grows with the
# square of the count, and a run holds only a few dozen scenes.
RL_STRATA = ((200, 224), (225, 249), (250, 274), (275, 300))
SCENE_STRATA = ((50, 99), (100, 149), (150, 199), (200, 249), (250, 300))


@dataclass(frozen=True)
class Size:
    """Work sizes. ``FULL`` is the benchmark; ``TINY`` is the digest check."""

    rl_rollout: int  # PPO samples per unit, two environments
    rl_strata: tuple[tuple[int, int], ...]
    scene_strata: tuple[tuple[int, int], ...]
    rep_scenes: int  # labelled scenes; the last one is the validation split
    rep_count_range: tuple[int, int]
    rep_epochs: int  # epochs per unit
    warmup_count_range: tuple[int, int] = (50, 60)


FULL = Size(
    rl_rollout=16,
    rl_strata=RL_STRATA,
    scene_strata=SCENE_STRATA,
    rep_scenes=3,
    rep_count_range=(50, 150),
    rep_epochs=2,
)
TINY = Size(
    rl_rollout=6,
    rl_strata=((50, 100),),
    scene_strata=SCENE_STRATA[:2],
    rep_scenes=2,
    rep_count_range=(50, 100),
    rep_epochs=1,
)


class CheckFailed(Exception):
    """An output of the program broke an invariant the benchmark checks."""


@dataclass
class UnitResult:
    items: int
    failed: int
    seconds: float


class Recorder:
    """Outputs of recorded units, turned into bytes only when hashed."""

    def __init__(self, tmp_dir: str) -> None:
        self.tmp_dir = tmp_dir
        self.active = False
        self.items: list[tuple[str, object]] = []

    def add(self, tag: str, obj) -> None:
        if self.active:
            self.items.append((tag, obj))

    def digest(self) -> str:
        h = hashlib.sha256()
        for tag, obj in self.items:
            data = self._bytes(obj)
            h.update(tag.encode())
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        return h.hexdigest()

    def _bytes(self, obj) -> bytes:
        if isinstance(obj, scenegen.Scene):
            path = os.path.join(self.tmp_dir, "digest.scene")
            scenegen.save_scene(obj, path)
            return _read(path)
        if isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
        if callable(obj):
            return self._bytes(obj())
        return bytes(obj)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _record_fps(patches, rec: Recorder) -> None:
    """Record the FPS indices of every observation the sensor makes."""

    def make(original):
        def fps(*args, **kwargs):
            idx = original(*args, **kwargs)
            rec.add("fps", idx)
            return idx

        return fps

    patches.wrap(sensor, "fps", make)


class Workload:
    """Defaults shared by the workloads; ``unit`` and ``setup`` are their own."""

    name = ""

    def __init__(self, size: Size, tmp_dir: str) -> None:
        self.size = size
        self.tmp_dir = tmp_dir

    def install(self, patches, state, rec: Recorder) -> None:
        """Wrap what the workload's checks and digest need to see."""

    def throughput(self, state, items: int, seconds: float) -> tuple[float, dict]:
        return items / seconds, {"workload.items_per_s_raw": items / seconds}

    def enough(self, state) -> bool:
        """Whether the run has measured what its throughput needs."""
        return True

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# rl-dense


@dataclass
class RlState:
    store: object
    steps: int = 0
    cap_steps: int = 0
    cap_s: float = 0.0  # capturing steps plus the encode that follows each
    plain_s: float = 0.0
    violations: int = 0
    pending: str | None = None  # "capture" until the step's encode is timed
    records: list | None = None


class RlDense(Workload):
    """PPO training, frozen fresh encoder, 2 envs, 200-300 object scenes.

    One unit is one ``train_rl_experiment`` call of one rollout, on scenes
    from stratum ``u mod 4`` of 200-300 objects.

    A sample that captures costs a resettle, a new observation and an encode,
    about 2 s against 0.05 s for one that does not. A freshly initialised
    policy captures on roughly one sample in ten, so one run holds only 4 to
    9 captures, and its raw samples/s ranged from 1.8 to 3.2 over 20 seeds.
    ``items_per_s`` therefore replaces the run's capture count by
    ``RL_CAPTURE_SHARE`` of its samples, at the capture and non-capture step
    times measured in the same run. The raw ratio is a per-layer metric.
    """

    name = "rl-dense"

    def setup(self, seed: int) -> RlState:
        store = RepNet(PROFILE, seed=seed).store
        # Warm the pipeline once on a small scene: spawn, observe, encode. No
        # dig: whether it captured would make setup time depend on the seed.
        env = ExcavationEnv(
            profile=PROFILE,
            seed=stream_seed(seed, "rl-dense-warmup"),
            env_cfg=EnvConfig(count_range=self.size.warmup_count_range),
        )
        RepNet(PROFILE, store=store).encode(env.reset().points)
        return RlState(store=store)

    def install(self, patches, state: RlState, rec: Recorder) -> None:
        """Count env steps, time them by kind, and check every dig."""
        state.steps = state.cap_steps = state.violations = 0
        state.cap_s = state.plain_s = 0.0

        def make_reset(original):
            def reset(env, *args, **kwargs):
                obs = original(env, *args, **kwargs)
                state.pending = None
                rec.add("scene", env.scene)
                return obs

            return reset

        def make_step(original):
            def step(env, action):
                start = time.perf_counter()
                out = original(env, action)
                elapsed = time.perf_counter() - start
                info = out[3]
                state.steps += 1
                state.records.append(
                    {"episode": 0, "captured_cm3": info["captured_cm3"], "plan_ok": info["plan_ok"]}
                )
                if info["plan_ok"] and info["captured_cm3"] > 0.0:
                    state.cap_steps += 1
                    state.cap_s += elapsed
                    state.pending = "capture"
                    rec.add("scene", env.scene)
                else:
                    state.plain_s += elapsed
                    state.pending = None
                return out

            return step

        def make_encode(original):
            def encode(net, points):
                start = time.perf_counter()
                code = original(net, points)
                if state.pending == "capture":
                    state.cap_s += time.perf_counter() - start
                state.pending = None
                rec.add("code", code)
                return code

            return encode

        def make_dig(original):
            def execute_dig(*args, **kwargs):
                result = original(*args, **kwargs)
                scene, bucket = args[0], args[4]
                taken = result.captured_indices
                volume = sum(scene.placed[i].obj.volume for i in taken)
                if not (
                    result.captured_volume <= bucket.capacity + 1e-15
                    and scene.object_count == result.scene_after.object_count + len(taken)
                    and math.isclose(result.captured_volume, volume, rel_tol=1e-9, abs_tol=1e-15)
                ):
                    state.violations += 1
                return result

            return execute_dig

        patches.wrap(ExcavationEnv, "reset", make_reset)
        patches.wrap(ExcavationEnv, "step", make_step)
        patches.wrap(RepNet, "encode", make_encode)
        patches.wrap(excavation, "execute_dig", make_dig)
        _record_fps(patches, rec)

    def unit(self, state: RlState, seed: int, u: int, rec: Recorder) -> UnitResult:
        rollout = self.size.rl_rollout
        steps0, violations0 = state.steps, state.violations
        state.records = []
        start = time.perf_counter()
        core, curve, _ = bench.train_rl_experiment(
            state.store,
            PROFILE,
            seed=stream_seed(seed, f"rl-dense-{u}"),
            total_samples=rollout,
            variant="rep",
            n_envs=2,
            rollout=rollout,
            minibatch=rollout // 2,
            update_epochs=4,
            env_cfg=EnvConfig(count_range=self.size.rl_strata[u % len(self.size.rl_strata)]),
        )
        elapsed = time.perf_counter() - start
        steps = state.steps - steps0
        failed = state.violations - violations0
        if curve[-1]["samples"] != steps:
            raise CheckFailed(f"curve reports {curve[-1]['samples']} samples, env stepped {steps}")
        metrics = bench.compute_metrics(self.name, state.records)
        if not math.isclose(
            metrics.avg_v_cm3,
            metrics.plan_succ_pct / 100.0 * metrics.avg_v_w_plan_cm3,
            rel_tol=1e-9,
            abs_tol=1e-9,
        ):
            failed = steps
        rec.add("policy", core.store.state_bytes)
        rec.add("rep", state.store.state_bytes)
        return UnitResult(steps, failed, elapsed)

    def throughput(self, state: RlState, items: int, seconds: float) -> tuple[float, dict]:
        plain = state.steps - state.cap_steps
        raw = items / seconds
        extra = {
            "workload.items_per_s_raw": raw,
            "workload.capture_step_frac": state.cap_steps / max(state.steps, 1),
        }
        if state.cap_steps == 0 or plain == 0:
            return raw, extra
        excess = state.cap_steps - RL_CAPTURE_SHARE * state.steps
        delta = state.cap_s / state.cap_steps - state.plain_s / plain
        return items / (seconds - excess * delta), extra

    def items_per_unit(self, state) -> int:
        return self.size.rl_rollout

    def enough(self, state: RlState) -> bool:
        """The capture-share correction needs a few captures to time."""
        return state.cap_steps >= 2


# ---------------------------------------------------------------------------
# scene-dataset


@dataclass
class SceneState:
    out_dir: str


class SceneDataset(Workload):
    """Generate settled scenes, then observe, label and write them.

    One unit is ``gen_scene_files`` of one scene followed by
    ``label_scene_files`` on it, with the object count drawn from stratum
    ``u mod 5`` of 50-300.
    """

    name = "scene-dataset"

    def setup(self, seed: int) -> SceneState:
        out_dir = os.path.join(self.tmp_dir, "scene-dataset")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        # Warm the pipeline once on one small scene.
        warm = os.path.join(out_dir, "warmup")
        seed_w = stream_seed(seed, "scene-dataset-warmup")
        repnet.gen_scene_files(
            warm, PROFILE, seed=seed_w, n_scenes=1, count_range=self.size.warmup_count_range
        )
        repnet.label_scene_files(warm, profile=PROFILE, seed=seed_w)
        shutil.rmtree(warm)
        return SceneState(out_dir)

    def install(self, patches, state: SceneState, rec: Recorder) -> None:
        _record_fps(patches, rec)

    def unit(self, state: SceneState, seed: int, u: int, rec: Recorder) -> UnitResult:
        strata = self.size.scene_strata
        unit_dir = os.path.join(state.out_dir, f"u{u:05d}")
        unit_seed = stream_seed(seed, f"scene-dataset-{u}")
        start = time.perf_counter()
        repnet.gen_scene_files(
            unit_dir, PROFILE, seed=unit_seed, n_scenes=1, count_range=strata[u % len(strata)]
        )
        repnet.label_scene_files(unit_dir, profile=PROFILE, seed=unit_seed)
        elapsed = time.perf_counter() - start
        failed = 0 if self._check(unit_dir, strata[u % len(strata)], rec) else 1
        shutil.rmtree(unit_dir)
        return UnitResult(1, failed, elapsed)

    def _check(self, unit_dir: str, count_range, rec: Recorder) -> bool:
        raw_path = os.path.join(unit_dir, "raw_scenes", "0000.scene")
        raw = _read(raw_path)
        scene = scenegen.load_scene(raw_path)
        again = os.path.join(unit_dir, "again.scene")
        scenegen.save_scene(scene, again)
        xyzl_path = os.path.join(unit_dir, "scenes", "0000.xyzl")
        cloud = load_xyzl(xyzl_path)
        with open(os.path.join(unit_dir, "manifest.txt")) as fh:
            rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
        rec.add("scene", raw)
        rec.add("xyzl", _read(xyzl_path))
        return (
            _read(again) == raw
            and count_range[0] <= scene.object_count <= count_range[1]
            and len(rows) == 1
            and f"count={scene.object_count}" in rows[0]
            and len(cloud) == PROFILE.fps_target
            and cloud.normals is not None
            and np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)
            and bool(np.all((cloud.curvature >= 0.0) & np.isfinite(cloud.curvature)))
        )

    def items_per_unit(self, state) -> int:
        return 1

    def close(self, state: SceneState) -> None:
        shutil.rmtree(state.out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# rep-train


@dataclass
class RepState:
    data_dir: str
    samples: list
    n_train: int


class RepTrain(Workload):
    """Representation training on a labelled dataset that setup builds.

    One unit is one ``train_rep`` call of a few epochs from a fresh encoder.
    The last scene of the dataset is the validation split, the others train,
    so every seed has the same split sizes.
    """

    name = "rep-train"

    def setup(self, seed: int) -> RepState:
        data_dir = os.path.join(self.tmp_dir, "rep-train")
        shutil.rmtree(data_dir, ignore_errors=True)
        data_seed = stream_seed(seed, "rep-train-data")
        repnet.gen_scene_files(
            data_dir,
            PROFILE,
            seed=data_seed,
            n_scenes=self.size.rep_scenes,
            count_range=self.size.rep_count_range,
        )
        repnet.label_scene_files(data_dir, profile=PROFILE, seed=data_seed)
        loaded = repnet.load_rep_dataset(data_dir)
        last = len(loaded) - 1
        samples = [
            dataclasses.replace(s, split="val" if i == last else "train")
            for i, s in enumerate(loaded)
        ]
        return RepState(data_dir, samples, last)

    def dataset_bytes(self, state: RepState) -> list[bytes]:
        out = []
        for sub, ext in (("raw_scenes", ".scene"), ("scenes", ".xyzl")):
            folder = os.path.join(state.data_dir, sub)
            out += [_read(os.path.join(folder, f)) for f in sorted(os.listdir(folder)) if f.endswith(ext)]
        return out

    def unit(self, state: RepState, seed: int, u: int, rec: Recorder) -> UnitResult:
        epochs = self.size.rep_epochs
        start = time.perf_counter()
        net, history = repnet.train_rep(
            state.samples,
            PROFILE,
            seed=stream_seed(seed, f"rep-train-{u}"),
            epochs=epochs,
            batch_size=2,
        )
        elapsed = time.perf_counter() - start
        items = state.n_train * epochs
        finite = all(
            math.isfinite(row[k])
            for row in history
            for k in ("normal_cos", "curv_mae", "count_mae")
        ) and all(np.all(np.isfinite(net.store.get(n).value)) for n in net.store.names())
        ok = finite and len(history) == 2 * epochs
        if rec.active:
            for blob in self.dataset_bytes(state):
                rec.add("dataset", blob)
            rec.add("rep", net.store.state_bytes)
            rec.add("code", lambda: net.encode(state.samples[0].points))
        return UnitResult(items, 0 if ok else items, elapsed)

    def items_per_unit(self, state) -> int:
        return state.n_train * self.size.rep_epochs

    def close(self, state: RepState) -> None:
        shutil.rmtree(state.data_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RlDense, SceneDataset, RepTrain)}
