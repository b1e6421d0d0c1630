"""Clipped-surrogate policy optimization over scene codes.

The policy is a small MLP on the fixed-size scene code with a squashed
Gaussian head: pre-squash samples u ~ N(mu, diag(sigma)) are pushed through
tanh into [-1, 1]^3, and the log density carries the change-of-variables
correction. sigma is state independent (one learned log-std vector, clamped
to a sane band). The rollout keeps the pre-squash sample of every step, so
update-time densities are recomputed from u exactly.

Collection steps a fixed number of single-threaded environments
round-robin, each exactly ``rollout // n_envs`` times per update, into
(env, round) arrays. Generalized advantage estimation runs along the round
axis for every environment at once, with a value bootstrap at the rollout
cut, and the advantages are normalized once over the whole rollout. Raw
rewards are scaled by a running standard deviation before they are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import seed_stream, stream_seed
from .errors import POSITIVE, DigrlError, SizeError, require, require_positive

ACT_DIM = 3  # (x, y, alpha)
HIDDEN = (256, 64)  # widths of the two trunk layers
GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_EPS = 0.2
VF_COEF = 0.5
LOG_STD_MIN, LOG_STD_MAX = -5.0, 1.0
SQUASH_EPS = 1e-6
REWARD_STD_FLOOR = 1e-8
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def squash_correction(u: np.ndarray) -> np.ndarray:
    """Per-row log |d tanh(u) / du| summed over action dims."""
    u = np.atleast_2d(u)
    return np.sum(np.log(1.0 - np.tanh(u) ** 2 + SQUASH_EPS), axis=1)


@dataclass
class ActStep:
    action: np.ndarray  # tanh-squashed, in [-1, 1]^d
    pre_squash: np.ndarray
    logp: float
    value: float


class PolicyCore:
    """Trunk + Gaussian head + value head over precomputed codes.

    With a ``seed`` the policy is new and draws its parameters from the
    ``policy-init`` stream into an empty store; without one it reads its own
    from ``store``, an agent's too (see :func:`nn.bind`).
    """

    def __init__(
        self, code_size: int, store: nn.ParamStore | None = None, seed: int | None = None
    ) -> None:
        self.code_size = code_size
        rng = None if seed is None else seed_stream(seed, "policy-init")
        self.store = nn.bind(store, self._draw, rng)

    def _draw(self, store: nn.ParamStore, rng: np.random.Generator) -> None:
        store.add_linear("pi_l1", self.code_size, HIDDEN[0], rng)
        store.add_linear("pi_l2", HIDDEN[0], HIDDEN[1], rng)
        store.add_linear("pi_mean", HIDDEN[1], ACT_DIM, rng)
        store.add_linear("pi_value", HIDDEN[1], 1, rng)
        store.add("pi_log_std", np.zeros(ACT_DIM))

    def _forward(self, codes: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        s = self.store
        h = nn.relu(nn.linear(codes, s.tensor("pi_l1.w"), s.tensor("pi_l1.b")))
        h = nn.relu(nn.linear(h, s.tensor("pi_l2.w"), s.tensor("pi_l2.b")))
        mean = nn.linear(h, s.tensor("pi_mean.w"), s.tensor("pi_mean.b"))
        value = nn.linear(h, s.tensor("pi_value.w"), s.tensor("pi_value.b"))
        return mean, nn.reshape(value, (-1,))

    def _clipped_log_std(self) -> nn.Tensor:
        return nn.clip(self.store.tensor("pi_log_std"), LOG_STD_MIN, LOG_STD_MAX)

    def _np_dist(self, code: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        codes_t = nn.Tensor.const(np.asarray(code).reshape(1, -1), self.store.dtype)
        mean_t, value_t = self._forward(codes_t)
        log_std = np.clip(
            np.asarray(self.store.get("pi_log_std").value, dtype=np.float64),
            LOG_STD_MIN,
            LOG_STD_MAX,
        )
        mean = np.asarray(mean_t.value[0], dtype=np.float64)
        return mean, float(value_t.value[0]), log_std

    def act(self, code: np.ndarray, rng: np.random.Generator) -> ActStep:
        """Sample one squashed action; density evaluated at the raw sample."""
        mean, value, log_std = self._np_dist(code)
        std = np.exp(log_std)
        u = mean + std * rng.standard_normal(ACT_DIM)
        z = (u - mean) / std
        logp = float(
            -0.5 * np.sum(z * z)
            - np.sum(log_std)
            - ACT_DIM * _HALF_LOG_2PI
            - squash_correction(u)[0]
        )
        return ActStep(np.tanh(u), u, logp, value)

    def act_deterministic(self, code: np.ndarray) -> np.ndarray:
        mean, _, _ = self._np_dist(code)
        return np.tanh(mean)

    def value_of(self, code: np.ndarray) -> float:
        return self._np_dist(code)[1]

    def evaluate(self, codes, pre_squash: np.ndarray) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        """Graph-mode log densities, values and entropy for a minibatch.

        ``codes`` may be a raw array or an already-built graph tensor (the
        end-to-end variant feeds encoder outputs straight through).
        """
        codes_t = codes if isinstance(codes, nn.Tensor) else nn.Tensor.const(
            codes, self.store.dtype
        )
        u = np.asarray(pre_squash)
        b = len(u)
        mean, values = self._forward(codes_t)
        ls = self._clipped_log_std()
        ls_rows = nn.broadcast_rows(ls, b)
        inv_std = nn.exp(nn.mul(ls_rows, -1.0))
        u_t = nn.Tensor.const(u, self.store.dtype)
        z = nn.mul(nn.sub(u_t, mean), inv_std)
        quad = nn.mul(nn.row_sum(nn.mul(z, z)), -0.5)
        logdet = nn.mul(nn.row_sum(ls_rows), -1.0)
        const_part = -(ACT_DIM * _HALF_LOG_2PI) - squash_correction(u)
        logp = nn.add(nn.add(quad, logdet), nn.Tensor.const(const_part, self.store.dtype))
        entropy = nn.add(
            nn.total_sum(ls),
            float(ACT_DIM * (0.5 + _HALF_LOG_2PI)),
        )
        return logp, values, entropy


class RewardNormalizer:
    """Scale rewards by their running standard deviation (Welford).

    A reward passes through unscaled while the running std is below
    ``REWARD_STD_FLOOR``: on the first sample, and while the stream has
    been constant.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    def normalize(self, x: float) -> float:
        self.update(x)
        s = self.std
        return x if s < REWARD_STD_FLOOR else x / s


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation along the last (time) axis, newest-last.

    The discount is ``GAMMA`` and the trace decay ``GAE_LAMBDA``.

    Leading axes are independent streams, one per environment. ``bootstrap``
    holds the value of each stream's state after its final step; it only
    matters when that step did not terminate its episode.
    """
    adv = np.zeros(np.shape(rewards))
    next_value = bootstrap
    next_adv = 0.0
    for i in range(adv.shape[-1] - 1, -1, -1):
        live = 1.0 - dones[..., i]
        delta = rewards[..., i] + GAMMA * next_value * live - values[..., i]
        next_adv = delta + GAMMA * GAE_LAMBDA * live * next_adv
        adv[..., i] = next_adv
        next_value = values[..., i]
    return adv, adv + values


def flat_advantages(
    rewards: np.ndarray, values: np.ndarray, dones: np.ndarray, bootstraps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GAE over (n_envs, rounds) arrays, flattened env-major.

    Returns (advantages, returns); the advantages are normalized once over
    the whole rollout.
    """
    adv, ret = gae(rewards, values, dones, bootstraps)
    adv = adv.reshape(-1)
    return (adv - adv.mean()) / (adv.std() + 1e-8), ret.reshape(-1)


def ppo_loss(
    core: PolicyCore,
    codes,
    us: np.ndarray,
    old_logp: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
) -> tuple[nn.Tensor, dict]:
    """Clipped surrogate + value regression, as one scalar.

    The loss has no entropy bonus; the entropy is only reported.
    """
    logp, values, entropy = core.evaluate(codes, us)
    dtype = core.store.dtype
    ratio = nn.exp(nn.sub(logp, nn.Tensor.const(old_logp, dtype)))
    adv_t = nn.Tensor.const(advantages, dtype)
    surr1 = nn.mul(ratio, adv_t)
    surr2 = nn.mul(nn.clip(ratio, 1.0 - CLIP_EPS, 1.0 + CLIP_EPS), adv_t)
    pg_loss = nn.mul(nn.mean(nn.minimum(surr1, surr2)), -1.0)
    v_loss = nn.mse(values, np.asarray(returns, dtype=dtype))
    loss = nn.add(pg_loss, nn.mul(v_loss, 0.5 * VF_COEF))
    stats = {
        "pg_loss": float(pg_loss.value),
        "v_loss": float(v_loss.value),
        "entropy": float(entropy.value),
        "clip_frac": float(
            np.mean(np.abs(ratio.value - 1.0) > CLIP_EPS).item()
        ),
    }
    return loss, stats


# ---------------------------------------------------------------------------
# Training driver


CURVE_FIELDS = ("update", "samples", "ep_reward_raw", "ep_reward_norm", "plan_fail_frac")


def train_rl(
    make_env,
    encode,
    code_size: int,
    total_samples: int,
    seed: int = 0,
    n_envs: int = 6,
    rollout: int = 768,
    minibatch: int = 128,
    update_epochs: int = 10,
    lr: float = 3e-4,
    graph_encode=None,
    store: nn.ParamStore | None = None,
    log=None,
) -> tuple[PolicyCore, list[dict]]:
    """Run PPO for ``total_samples // rollout`` updates.

    ``make_env(seed)`` builds one environment; environment ``i`` gets the
    seed ``stream_seed(seed, f"env-{i}")``. ``encode(obs)`` turns an
    observation into a flat code. ``rollout`` must be a multiple of
    ``n_envs``: each update steps every environment ``rollout // n_envs``
    times and fills (n_envs, rounds) arrays of codes, pre-squash actions,
    log-probs, normalized rewards, values and dones, flattened env-major for
    the minibatches. With ``graph_encode`` set, the rollout also keeps each
    step's observation, and update batches rebuild its code through that
    callable's graph so encoder parameters train jointly: each minibatch
    Adam-steps the encoder's ``store`` too. Without it no observation is kept.
    """
    if n_envs <= 0 or rollout % n_envs:
        raise SizeError(f"rollout={rollout} is not a multiple of n_envs={n_envs}")
    require_positive(rollout=rollout, minibatch=minibatch, update_epochs=update_epochs)
    require(POSITIVE, lr=lr)
    updates = total_samples // rollout
    if updates <= 0:
        raise SizeError(f"total_samples={total_samples} is below one rollout of {rollout}")
    core = PolicyCore(code_size, seed=seed)
    # Adam updates each parameter alone: a step over both stores is one over each.
    trained = core.store if store is None else nn.joined(store, core.store)
    act_rng = seed_stream(seed, "rl-act")
    sgd_rng = seed_stream(seed, "rl-minibatch")
    normalizer = RewardNormalizer()
    envs = [make_env(stream_seed(seed, f"env-{i}")) for i in range(n_envs)]
    obs = [env.reset() for env in envs]
    codes = [encode(o) for o in obs]
    raw_acc = [0.0] * n_envs
    norm_acc = [0.0] * n_envs
    fail_acc = [0] * n_envs
    dig_acc = [0] * n_envs
    rounds = rollout // n_envs
    # Row e, column t holds env e's step of round t; every update refills them.
    b_codes = np.empty((n_envs, rounds, code_size))
    b_us = np.empty((n_envs, rounds, ACT_DIM))
    b_logps, b_rewards, b_values, b_dones = (np.empty((n_envs, rounds)) for _ in range(4))
    curve: list[dict] = []
    for update in range(1, updates + 1):
        kept = [None] * rollout if graph_encode is not None else None  # env-major
        ep_raw, ep_norm, ep_fail = [], [], []
        for t in range(rounds):
            for e in range(n_envs):
                step = core.act(codes[e], act_rng)
                next_obs, reward, done, info = envs[e].step(step.action)
                r_norm = normalizer.normalize(reward)
                b_codes[e, t], b_us[e, t], b_logps[e, t] = codes[e], step.pre_squash, step.logp
                b_rewards[e, t], b_values[e, t], b_dones[e, t] = r_norm, step.value, done
                if kept is not None:
                    kept[e * rounds + t] = obs[e]
                raw_acc[e] += reward
                norm_acc[e] += r_norm
                dig_acc[e] += 1
                if not info.get("plan_ok", True):
                    fail_acc[e] += 1
                if done:
                    ep_raw.append(raw_acc[e])
                    ep_norm.append(norm_acc[e])
                    ep_fail.append(fail_acc[e] / max(dig_acc[e], 1))
                    raw_acc[e] = norm_acc[e] = 0.0
                    fail_acc[e] = dig_acc[e] = 0
                    next_obs = envs[e].reset()
                if done or next_obs is not obs[e]:
                    codes[e] = encode(next_obs)
                obs[e] = next_obs
        bootstraps = np.array(
            [0.0 if b_dones[e, -1] else core.value_of(codes[e]) for e in range(n_envs)]
        )
        advantages, returns = flat_advantages(b_rewards, b_values, b_dones, bootstraps)
        flat_codes = b_codes.reshape(rollout, code_size)
        flat_us = b_us.reshape(rollout, ACT_DIM)
        flat_logps = b_logps.reshape(rollout)
        for _ in range(update_epochs):
            perm = sgd_rng.permutation(rollout)
            for lo in range(0, rollout, minibatch):
                sel = perm[lo : lo + minibatch]
                if kept is not None:
                    code_rows = [nn.reshape(graph_encode(kept[i]), (1, -1)) for i in sel]
                    mb_codes = nn.concat(code_rows, axis=0)
                else:
                    mb_codes = flat_codes[sel]
                loss, _ = ppo_loss(
                    core, mb_codes, flat_us[sel], flat_logps[sel], advantages[sel], returns[sel]
                )
                if not np.isfinite(loss.value):
                    raise DigrlError(f"non-finite loss at update {update}")
                trained.zero_grads()
                nn.backward(loss)
                trained.adam_step(lr)
        row = {
            "update": update,
            "samples": update * rollout,
            "ep_reward_raw": float(np.mean(ep_raw)) if ep_raw else float("nan"),
            "ep_reward_norm": float(np.mean(ep_norm)) if ep_norm else float("nan"),
            "plan_fail_frac": float(np.mean(ep_fail)) if ep_fail else float("nan"),
        }
        curve.append(row)
        if log is not None:
            log(
                "update %d/%d reward=%.2f fail=%.2f"
                % (update, updates, row["ep_reward_raw"], row["plan_fail_frac"])
            )
    return core, curve

