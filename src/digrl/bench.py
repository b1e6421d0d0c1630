"""Baselines, evaluation metrics, and end-to-end experiment drivers.

Every evaluated method produces a flat list of per-dig records; the metrics
layer reduces those to one row per method. Volume averages count a failed
plan as zero captured volume, so

    avg_v == (plan success fraction) * (avg_v over plan-successful digs)

holds identically for any record set and is asserted downstream.

The two scripted baselines act on the same observations the policy sees: the
greedy one attacks the (x, y) of the highest observed point (ties to the
lowest point index), clipped to the attack ranges, with a uniformly random
entry angle, and the random one draws the whole action uniformly. Baselines
retry failed plans until they bank the required number of plan-valid digs,
under a hard attempt cap; an episode that exhausts the cap is dropped from
the record wholesale and reported separately. An episode that empties the
tray early is kept: there was nothing left to dig.

The fill rate is over the default ``BucketSpec``, the one every environment digs with.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, fields

import numpy as np

from .config import ATTACK_RANGES, Profile, get_profile, seed_stream, stream_seed
from .errors import ConfigError, ShapeError, SizeError
from .excavation import M3_TO_CM3, BucketSpec, EnvConfig, ExcavationEnv
from .kinematics import AttackPose
from .nn import ParamStore
from .ppo import PolicyCore, dig_record, evaluate_policy, train_rl
from .repnet import RepNet
from .sensor import SensorConfig


@dataclass
class MetricsRecord:
    method: str
    episodes: int
    digs: int
    avg_v_cm3: float
    fill_rate_pct: float
    plan_succ_pct: float
    avg_v_w_plan_cm3: float


METRICS_FIELDS = tuple(f.name for f in fields(MetricsRecord))


def compute_metrics(method: str, records: list[dict]) -> MetricsRecord:
    """Reduce per-dig records to one metrics row.

    Raises on an empty record set instead of fabricating zeros, so callers
    cannot mistake a failed evaluation for a catastrophic policy.
    """
    if not records:
        raise SizeError(f"no dig records for method {method!r}")
    vols = np.array([r["captured_cm3"] for r in records], dtype=np.float64)
    ok = np.array([bool(r["plan_ok"]) for r in records])
    episodes = len({r["episode"] for r in records})
    avg_v = float(vols.mean())
    succ = float(ok.mean())
    avg_with_plan = float(vols[ok].mean()) if ok.any() else 0.0
    return MetricsRecord(
        method=method,
        episodes=episodes,
        digs=len(records),
        avg_v_cm3=avg_v,
        fill_rate_pct=100.0 * avg_v / (BucketSpec().capacity * M3_TO_CM3),
        plan_succ_pct=100.0 * succ,
        avg_v_w_plan_cm3=avg_with_plan,
    )


def save_table(rows: list[dict], fields: tuple[str, ...], path) -> None:
    """Write the ``fields`` columns of dict rows as one CSV table."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({k: row[k] for k in fields} for row in rows)


def load_metrics_table(path) -> list[dict]:
    """Rows of a metrics CSV.

    Raises ShapeError naming ``path`` when a metric column is missing, and
    naming ``path:line`` when a row has fewer or more fields than the header.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in METRICS_FIELDS if k not in (reader.fieldnames or ())]
        if missing:
            raise ShapeError(f"{path}: not a metrics table, missing columns {missing}")
        rows = []
        for row in reader:
            # DictReader fills a short row with None and files extra fields under the key None.
            if None in row or None in row.values():
                where, width = f"{path}:{reader.line_num}", len(reader.fieldnames)
                raise ShapeError(f"{where}: expected {width} fields like the header")
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# Scripted baselines


def attack_to_action(attack: AttackPose) -> np.ndarray:
    """Inverse of the affine action map, clipped into [-1, 1]."""
    r = ATTACK_RANGES
    out = np.empty(3)
    for i, (v, (lo, hi)) in enumerate(
        zip((attack.x, attack.y, attack.alpha), (r.x, r.y, r.alpha))
    ):
        out[i] = 2.0 * (v - lo) / (hi - lo) - 1.0
    return np.clip(out, -1.0, 1.0)


def heuristic_action(obs, rng: np.random.Generator) -> np.ndarray:
    """Attack the (x, y) of the highest observed point, random entry angle.

    Ties go to the lowest point index. ``attack_to_action`` clips a point
    outside the ranges onto their edge.
    """
    x, y, _ = obs.points[int(np.argmax(obs.points[:, 2]))]
    alpha = rng.uniform(*ATTACK_RANGES.alpha)
    return attack_to_action(AttackPose(x, y, alpha))


def random_action(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=3)


def run_baseline(
    method: str,
    n_episodes: int,
    seed: int = 0,
    profile: Profile | None = None,
    valid_digs: int = 10,
    attempt_cap: int = 200,
    env_cfg: EnvConfig | None = None,
    sensor: SensorConfig | None = None,
) -> tuple[list[dict], int]:
    """Roll baseline episodes; returns (records, dropped_incomplete_episodes)."""
    if method not in ("random", "heuristic"):
        raise ConfigError(f"unknown baseline {method!r}")
    base_cfg = env_cfg or EnvConfig()
    cfg = EnvConfig(digs_per_episode=attempt_cap, count_range=base_cfg.count_range)
    env = ExcavationEnv(
        profile=profile,
        seed=stream_seed(seed, f"baseline-{method}-env"),
        env_cfg=cfg,
        sensor=sensor,
    )
    act_rng = seed_stream(seed, f"baseline-{method}-act")
    records: list[dict] = []
    incomplete = 0
    for ep in range(n_episodes):
        obs = env.reset()
        ep_records: list[dict] = []
        valid = 0
        emptied = False
        done = False
        while valid < valid_digs and not done:
            if method == "heuristic":
                action = heuristic_action(obs, act_rng)
            else:
                action = random_action(act_rng)
            obs, reward, done, info = env.step(action)
            if info["plan_ok"]:
                valid += 1
            emptied = emptied or info["emptied"]
            ep_records.append(dig_record(ep, info["dig"], action, reward, info))
        if valid >= valid_digs or emptied:
            records.extend(ep_records)
        else:
            incomplete += 1
    return records, incomplete


# ---------------------------------------------------------------------------
# Experiment drivers gluing encoder, environment and optimizer together

# Training scenes are denser than evaluation scenes: 200 to 300 objects,
# versus the 50 to 300 of ``EnvConfig`` held out for evaluation.
TRAIN_COUNT_RANGE = (200, 300)


def train_rl_experiment(
    rep_store: ParamStore,
    profile: Profile | None = None,
    seed: int = 0,
    total_samples: int | None = None,
    variant: str = "rep",
    n_envs: int = 6,
    rollout: int = 768,
    minibatch: int = 128,
    update_epochs: int = 10,
    lr: float = 3e-4,
    env_cfg: EnvConfig | None = None,
    log=None,
    sensor: SensorConfig | None = None,
) -> tuple[PolicyCore, list[dict], RepNet]:
    """Train the digging policy on top of a representation.

    ``variant="rep"`` freezes the encoder: codes are computed once per new
    observation and the optimizer never touches encoder parameters.
    ``variant="e2e"`` shares one parameter store and backpropagates through
    the encoder at every update epoch (only tractable at toy scale).
    Without ``env_cfg``, scenes hold ``TRAIN_COUNT_RANGE`` objects.
    """
    profile = profile or get_profile()
    net = RepNet(profile, store=rep_store)
    env_cfg = env_cfg or EnvConfig(count_range=TRAIN_COUNT_RANGE)
    make_env = functools.partial(ExcavationEnv, profile, env_cfg=env_cfg, sensor=sensor)
    encode = lambda obs: net.encode(obs.points)  # noqa: E731
    kwargs = {}
    if variant == "e2e":
        kwargs["graph_encode"] = lambda obs: net.encoder(net.levels(obs.points))["code"]
        kwargs["store"] = net.store
    elif variant != "rep":
        raise ConfigError(f"unknown variant {variant!r}; expected rep or e2e")
    core, curve = train_rl(
        make_env,
        encode,
        profile.code_size,
        total_samples if total_samples is not None else profile.rl_total_samples,
        seed=seed,
        n_envs=n_envs,
        rollout=rollout,
        minibatch=minibatch,
        update_epochs=update_epochs,
        lr=lr,
        log=log,
        **kwargs,
    )
    return core, curve, net


def eval_rl_experiment(
    rep_store: ParamStore,
    policy_store: ParamStore,
    n_episodes: int,
    profile: Profile | None = None,
    seed: int = 0,
    env_cfg: EnvConfig | None = None,
    sensor: SensorConfig | None = None,
) -> list[dict]:
    """Deterministic policy evaluation under the standard dig budget.

    An e2e policy store carries the encoder it was trained with, and that
    encoder is used; otherwise the frozen encoder comes from ``rep_store``.
    """
    profile = profile or get_profile()
    net = RepNet(profile, store=policy_store if "sa1_l1.w" in policy_store else rep_store)
    core = PolicyCore(profile.code_size, store=policy_store)
    make_env = functools.partial(ExcavationEnv, profile, env_cfg=env_cfg, sensor=sensor)
    return evaluate_policy(
        core, lambda obs: net.encode(obs.points), make_env, n_episodes, seed=seed
    )


def format_report(rows: list[dict]) -> str:
    """Fixed-width text table over metric rows (as read back from CSV)."""
    if not rows:
        raise SizeError("no metric rows to report")
    cols = list(METRICS_FIELDS)
    table = [cols] + [
        [
            str(r[c]) if c in ("method", "episodes", "digs") else f"{float(r[c]):.2f}"
            for c in cols
        ]
        for r in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(cols))]
    lines = []
    for k, line in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def collect_report(paths: list[str], out_path: str | None = None) -> str:
    """Merge metric CSVs into one table; optionally write the merged CSV."""
    rows: list[dict] = []
    for p in paths:
        if not os.path.exists(p):
            raise ConfigError(f"metrics file not found: {p}")
        rows.extend(load_metrics_table(p))
    text = format_report(rows)
    if out_path:
        save_table(rows, METRICS_FIELDS, out_path)
    return text
