"""Baselines, evaluation metrics, and end-to-end experiment drivers.

Every evaluated method, learned or scripted, runs through one
:func:`evaluate` and so one :func:`rollout`: the same held-out episodes, the
same dig budget, and one per-dig record for every dig, failed plans
included. ``METHODS`` names them: ``rl`` (a trained agent, loaded from one
store that holds its encoder and its policy), ``heuristic`` and ``random``.
The metrics layer reduces those records to one row per method. Volume
averages count a failed plan as zero captured volume, so

    avg_v == (plan success fraction) * (avg_v over plan-successful digs)

holds identically for any record set and is asserted downstream.

The two scripted baselines act on the same observations the policy sees: the
greedy one attacks the (x, y) of the highest observed point (ties to the
lowest point index), clipped to the attack ranges, with a uniformly random
entry angle, and the random one draws the whole action uniformly.

The fill rate is over the default ``BucketSpec``, the one every environment digs with.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, fields

import numpy as np

from .config import ATTACK_RANGES, Profile, seed_stream, stream_seed
from .errors import ConfigError, ShapeError, SizeError
from .excavation import M3_TO_CM3, BucketSpec, EnvConfig, ExcavationEnv
from .kinematics import AttackPose
from .nn import ParamStore, joined
from .ppo import PolicyCore, train_rl
from .repnet import RepNet


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
    naming ``path:line`` when a row has fewer or more fields than the header
    or a metric cell does not parse as its type (``episodes`` and ``digs``
    as int, the other metrics as float).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in METRICS_FIELDS if k not in (reader.fieldnames or ())]
        if missing:
            raise ShapeError(f"{path}: not a metrics table, missing columns {missing}")
        rows = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            # DictReader fills a short row with None and files extra fields under the key None.
            if None in row or None in row.values():
                width = len(reader.fieldnames)
                raise ShapeError(f"{where}: expected {width} fields like the header")
            for k in METRICS_FIELDS[1:]:  # every column after ``method`` is a number
                kind = int if k in ("episodes", "digs") else float
                try:
                    kind(row[k])
                except ValueError:
                    raise ShapeError(
                        f"{where}: column {k} = {row[k]!r} is not {kind.__name__}"
                    ) from None
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
    outside the ranges onto their edge. When the arm cannot reach the
    highest point, the plan fails, the observation stays the same, and the
    next dig aims at the same point; only alpha is drawn again.
    """
    x, y, _ = obs.points[int(np.argmax(obs.points[:, 2]))]
    alpha = rng.uniform(*ATTACK_RANGES.alpha)
    return attack_to_action(AttackPose(x, y, alpha))


def random_action(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=3)


def rollout(act, encode, make_env, n_episodes: int, seed: int) -> list[dict]:
    """Roll one method through the evaluation episodes; one record per dig.

    All episodes run in one environment, ``make_env(stream_seed(seed,
    "env-9000"))``, so every method sees the same scenes in the same order.
    An episode runs until the environment says it is done, so the budget is
    its ``digs_per_episode``, and a failed plan is a record with 0 cm³.
    ``act(code)`` gives the action for ``code = encode(obs)``; ``encode``
    runs again only when the observation object changes within an episode,
    so failed plans and an episode's last dig cost no encode.
    """
    if n_episodes <= 0:
        raise SizeError("need at least one evaluation episode")
    env = make_env(stream_seed(seed, "env-9000"))
    records = []
    for ep in range(n_episodes):
        ob = env.reset()
        code = encode(ob)
        done = False
        while not done:
            action = act(code)
            ob2, reward, done, info = env.step(action)
            records.append(
                {
                    "episode": ep,
                    "dig": info["dig"],
                    "raw_action": [float(v) for v in action],
                    "action": [float(v) for v in info["attack"]],
                    "reward": float(reward),
                    "plan_ok": bool(info["plan_ok"]),
                    "failure": info["failure"],
                    "captured_cm3": float(info["captured_cm3"]),
                    "objects_left": int(info["objects_left"]),
                }
            )
            if not done and ob2 is not ob:
                code = encode(ob2)
            ob = ob2
    return records


METHODS = ("rl", "heuristic", "random")


def evaluate(
    method: str,
    n_episodes: int,
    profile: Profile,
    seed: int = 0,
    env_cfg: EnvConfig | None = None,
    agent: ParamStore | None = None,
) -> list[dict]:
    """Roll one of ``METHODS`` through :func:`rollout`; returns its records.

    ``rl`` acts with the policy mean of a trained ``agent``: one store that
    holds the encoder the policy acted on, then the policy, as ``train-rl``
    writes it. Only ``rl`` takes an agent. The scripted methods act on the
    observation itself and draw from the ``baseline-{method}-act`` stream.
    """
    if (method == "rl") != (agent is not None):
        raise ConfigError(f"method {method!r} {'needs an' if agent is None else 'takes no'} agent")
    encode = lambda ob: ob  # noqa: E731
    act_rng = seed_stream(seed, f"baseline-{method}-act")
    if method == "rl":
        net, core = RepNet(profile, store=agent), PolicyCore(profile.code_size, store=agent)
        act, encode = core.act_deterministic, lambda ob: net.encode(ob.points)
    elif method == "heuristic":
        act = lambda ob: heuristic_action(ob, act_rng)  # noqa: E731
    elif method == "random":
        act = lambda ob: random_action(act_rng)  # noqa: E731
    else:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    make_env = functools.partial(ExcavationEnv, profile, env_cfg=env_cfg)
    return rollout(act, encode, make_env, n_episodes, seed)


# ---------------------------------------------------------------------------
# Experiment drivers gluing encoder, environment and optimizer together

# Training scenes are denser than evaluation scenes: 200 to 300 objects,
# versus the 50 to 300 of ``EnvConfig`` held out for evaluation.
TRAIN_COUNT_RANGE = (200, 300)


def train_rl_experiment(
    rep_store: ParamStore,
    profile: Profile,
    seed: int = 0,
    total_samples: int | None = None,
    variant: str = "rep",
    env_cfg: EnvConfig | None = None,
    **ppo_options,
) -> tuple[PolicyCore, list[dict], ParamStore]:
    """Train a new policy on the encoder in ``rep_store``, an encoder's or an agent's store.

    ``variant="rep"`` freezes the encoder: codes are computed once per new
    observation and the optimizer never touches encoder parameters.
    ``variant="e2e"`` backpropagates through the encoder at every update
    epoch and trains it in place (only tractable at toy scale). Without
    ``env_cfg``, scenes hold ``TRAIN_COUNT_RANGE`` objects. The ``ppo_options``
    (``n_envs``, ``rollout``, ``lr``, ``log``, ...) go to :func:`ppo.train_rl`
    as given. Returns the policy, its curve and the agent for :func:`evaluate`.
    """
    net = RepNet(profile, store=rep_store)
    env_cfg = env_cfg or EnvConfig(count_range=TRAIN_COUNT_RANGE)
    make_env = functools.partial(ExcavationEnv, profile, env_cfg=env_cfg)
    encode = lambda obs: net.encode(obs.points)  # noqa: E731
    if variant == "e2e":
        ppo_options["graph_encode"] = lambda obs: net.encoder(net.levels(obs.points))["code"]
        ppo_options["store"] = net.store
    elif variant != "rep":
        raise ConfigError(f"unknown variant {variant!r}; expected rep or e2e")
    total = profile.rl_total_samples if total_samples is None else total_samples
    core, curve = train_rl(make_env, encode, profile.code_size, total, seed=seed, **ppo_options)
    return core, curve, joined(net.store, core.store)


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
