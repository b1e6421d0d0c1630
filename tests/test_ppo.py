import gc
import weakref

import numpy as np
import pytest

from digrl import nn, ppo
from digrl.bench import save_table
from digrl.config import stream_seed
from digrl.errors import SizeError
from digrl.ppo import (
    CURVE_FIELDS,
    GAE_LAMBDA,
    GAMMA,
    PolicyCore,
    RewardNormalizer,
    evaluate_policy,
    flat_advantages,
    gae,
    ppo_loss,
    squash_correction,
    train_rl,
)


class TestGae:
    def test_hand_computed_chain(self):
        rewards = np.array([1.0, 0.0, 2.0])
        values = np.array([0.5, 0.2, 0.1])
        dones = np.zeros(3)
        adv, ret = gae(rewards, values, dones, bootstrap=0.3, gamma=0.9, lam=0.8)
        d2 = 2.0 + 0.9 * 0.3 - 0.1
        d1 = 0.0 + 0.9 * 0.1 - 0.2
        d0 = 1.0 + 0.9 * 0.2 - 0.5
        e2 = d2
        e1 = d1 + 0.72 * e2
        e0 = d0 + 0.72 * e1
        assert adv == pytest.approx([e0, e1, e2], abs=1e-12)
        assert ret == pytest.approx(adv + values, abs=1e-12)

    def test_done_blocks_propagation(self):
        rewards = np.array([1.0, 0.0, 2.0])
        values = np.array([0.5, 0.2, 0.1])
        adv, _ = gae(rewards, values, np.array([0.0, 1.0, 0.0]), 0.3, gamma=0.9, lam=0.8)
        assert adv[1] == pytest.approx(0.0 - 0.2, abs=1e-12)
        assert adv[0] == pytest.approx((1.0 + 0.9 * 0.2 - 0.5) + 0.72 * adv[1], abs=1e-12)

    def test_terminal_last_ignores_bootstrap(self):
        rewards = np.array([0.5, 1.5])
        values = np.array([0.3, 0.4])
        dones = np.array([0.0, 1.0])
        a1, r1 = gae(rewards, values, dones, bootstrap=0.0)
        a2, r2 = gae(rewards, values, dones, bootstrap=99.0)
        assert np.array_equal(a1, a2) and np.array_equal(r1, r2)

    def test_default_discounts(self):
        assert (GAMMA, GAE_LAMBDA) == (0.99, 0.95)


class TestPolicyHead:
    def core(self, dtype=np.float64):
        return PolicyCore(6, act_dim=3, hidden=(16, 8), store=nn.ParamStore(dtype=dtype), seed=3)

    def test_act_matches_graph_evaluate(self, rng):
        core = self.core()
        codes = rng.normal(size=(12, 6))
        steps = [core.act(c, rng) for c in codes]
        us = np.stack([s.pre_squash for s in steps])
        logp, values, _ = core.evaluate(codes, us)
        for i, s in enumerate(steps):
            assert s.logp == pytest.approx(float(logp.value[i]), abs=1e-10)
            assert s.value == pytest.approx(float(values.value[i]), abs=1e-10)
            assert np.array_equal(s.action, np.tanh(s.pre_squash))
            assert np.all(np.abs(s.action) < 1.0)

    def test_squash_correction_formula(self):
        u = np.array([[2.0, -1.0, 0.5]])
        expect = np.sum(np.log(1.0 - np.tanh(u) ** 2 + 1e-6))
        assert squash_correction(u)[0] == pytest.approx(expect, rel=1e-12)
        assert squash_correction(np.zeros((1, 3)))[0] == pytest.approx(3e-6, rel=1e-3)

    def test_deterministic_action(self, rng):
        core = self.core()
        code = rng.normal(size=6)
        a1 = core.act_deterministic(code)
        a2 = core.act_deterministic(code)
        assert np.array_equal(a1, a2)
        assert np.all(np.abs(a1) < 1.0)
        other = core.act_deterministic(code + 1.0)
        assert not np.array_equal(a1, other)


class TestRewardNormalizer:
    def test_warmup_and_scaling(self):
        norm = RewardNormalizer()
        assert norm.normalize(1.0) == 1.0
        # After the second sample: mean 2, sample std sqrt(2).
        assert norm.normalize(3.0) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-12)
        assert norm.std == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_two_equal_rewards_pass_unscaled(self):
        # Dividing by the std floor would turn the second -1 into -1e8.
        norm = RewardNormalizer()
        assert norm.normalize(-1.0) == -1.0
        assert norm.normalize(-1.0) == -1.0
        assert norm.normalize(-1.0) == -1.0
        assert norm.normalize(3.0) == pytest.approx(3.0 / 2.0)


def gae_one_stream(rewards, values, dones, bootstrap):
    """The scalar per-stream GAE loop that ``gae`` vectorises over envs."""
    adv = np.zeros(len(rewards))
    next_value = bootstrap
    next_adv = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        live = 1.0 - float(dones[i])
        delta = rewards[i] + GAMMA * next_value * live - values[i]
        next_adv = delta + GAMMA * GAE_LAMBDA * live * next_adv
        adv[i] = next_adv
        next_value = values[i]
    return adv, adv + values


def rollout_buffer_finish(streams, bootstraps):
    """The per-env list streams the array rollout replaced, as the oracle.

    ``streams[e]`` is env e's list of (reward, value, done) steps, oldest
    first; GAE runs per stream, the streams concatenate in env order, and
    the advantages are normalized once over the whole batch.
    """
    advs, rets = [], []
    for steps, boot in zip(streams, bootstraps):
        rewards, values, dones = (np.asarray(col) for col in zip(*steps))
        a, r = gae_one_stream(rewards, values, dones, boot)
        advs.append(a)
        rets.append(r)
    adv = np.concatenate(advs)
    return (adv - adv.mean()) / (adv.std() + 1e-8), np.concatenate(rets)


class TestRolloutArrays:
    def test_matches_rollout_buffer_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n_envs, rounds = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            rewards = rng.normal(size=(n_envs, rounds)) * 10.0 ** rng.uniform(-3, 3)
            values = rng.normal(size=(n_envs, rounds))
            # Episode ends mid-stream and, for some envs, at the last step.
            dones = rng.random((n_envs, rounds)) < 0.3
            dones[:, -1] |= rng.random(n_envs) < 0.5
            boots = [0.0 if d else float(v) for d, v in zip(dones[:, -1], rng.normal(size=n_envs))]
            streams = [
                [(float(r), float(v), bool(d)) for r, v, d in zip(*rows)]
                for rows in zip(rewards, values, dones)
            ]
            want_adv, want_ret = rollout_buffer_finish(streams, boots)
            adv, ret = flat_advantages(rewards, values, dones.astype(np.float64), np.array(boots))
            assert adv.tobytes() == want_adv.tobytes()
            assert ret.tobytes() == want_ret.tobytes()

    def test_normalized_env_major(self, rng):
        rewards, values = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        dones = np.zeros((2, 4))
        dones[0, 3] = 1.0
        boots = np.array([0.0, -0.2])
        adv, ret = flat_advantages(rewards, values, dones, boots)
        raw = np.concatenate(
            [gae(rewards[e], values[e], dones[e], boots[e])[0] for e in (0, 1)]
        )
        assert adv == pytest.approx((raw - raw.mean()) / (raw.std() + 1e-8), abs=1e-12)
        assert abs(adv.mean()) < 1e-12
        assert adv.std() == pytest.approx(1.0, abs=1e-6)
        assert ret.shape == (8,)


class TestPpoLoss:
    def setup_batch(self, rng, core, n=16):
        codes = rng.normal(size=(n, core.code_size))
        us = rng.normal(size=(n, core.act_dim))
        logp, values, _ = core.evaluate(codes, us)
        old = np.asarray(logp.value, dtype=np.float64).copy()
        adv = rng.normal(size=n)
        rets = np.asarray(values.value, dtype=np.float64) + rng.normal(size=n)
        return codes, us, old, adv, rets

    def test_unit_ratio_reduces_to_advantage_mean(self, rng):
        core = PolicyCore(4, hidden=(16, 8), store=nn.ParamStore(dtype=np.float64), seed=1)
        codes, us, old, adv, rets = self.setup_batch(rng, core)
        loss, stats = ppo_loss(core, codes, us, old, adv, rets)
        assert stats["clip_frac"] == 0.0
        assert stats["pg_loss"] == pytest.approx(-adv.mean(), abs=1e-12)
        assert loss.value.item() == pytest.approx(
            stats["pg_loss"] + 0.25 * stats["v_loss"], rel=1e-12
        )

    def test_shifted_old_logp_clips(self, rng):
        core = PolicyCore(4, hidden=(16, 8), store=nn.ParamStore(dtype=np.float64), seed=1)
        codes, us, old, adv, rets = self.setup_batch(rng, core)
        _, stats = ppo_loss(core, codes, us, old - 1.0, adv, rets)
        assert stats["clip_frac"] == 1.0

    def test_gradients_reach_all_heads(self, rng):
        core = PolicyCore(4, hidden=(16, 8), store=nn.ParamStore(dtype=np.float64), seed=1)
        codes, us, old, adv, rets = self.setup_batch(rng, core)
        loss, _ = ppo_loss(core, codes, us, old, adv, rets)
        core.store.zero_grads()
        nn.backward(loss)
        for name in ("pi_l1.w", "pi_mean.w", "pi_value.w", "pi_log_std"):
            assert np.any(core.store.get(name).grad != 0.0), name


class QuadraticBandit:
    """One-step episodes; reward peaks at action 0.5."""

    def __init__(self, seed=0):
        self.obs = np.zeros(2)

    def reset(self, seed=None):
        return self.obs

    def step(self, action):
        a = float(np.asarray(action).reshape(-1)[0])
        return self.obs, 1.0 - (a - 0.5) ** 2, True, {}


class TestTraining:
    def test_seed_streams_distinct(self):
        seeds = []
        train_rl(
            make_env=lambda seed: seeds.append(seed) or QuadraticBandit(seed),
            encode=lambda o: o,
            code_size=2,
            total_samples=6,
            seed=5,
            act_dim=1,
            n_envs=6,
            rollout=6,
            minibatch=6,
            update_epochs=1,
            hidden=(4, 4),
        )
        assert seeds == [stream_seed(5, f"env-{i}") for i in range(6)]
        assert len(set(seeds)) == 6

    def test_quadratic_bandit_improves(self, tmp_path):
        code = np.zeros(2)
        core, curve = train_rl(
            make_env=QuadraticBandit,
            encode=lambda o: o,
            code_size=2,
            total_samples=1536,
            seed=0,
            act_dim=1,
            n_envs=2,
            rollout=64,
            minibatch=32,
            update_epochs=4,
            lr=3e-3,
            hidden=(16, 8),
        )
        assert len(curve) == 24
        assert set(curve[0]) == set(CURVE_FIELDS)
        first, last = curve[0]["ep_reward_raw"], curve[-1]["ep_reward_raw"]
        assert last > first
        a = float(core.act_deterministic(code)[0])
        assert abs(a - 0.5) < 0.25
        save_table(curve, CURVE_FIELDS, tmp_path / "curve.csv")
        text = (tmp_path / "curve.csv").read_text().splitlines()
        assert text[0] == ",".join(CURVE_FIELDS)
        assert len(text) == 25

    @pytest.mark.parametrize("e2e", [False, True])
    def test_batch_keeps_clouds_only_for_e2e(self, monkeypatch, e2e):
        # Every reset and step hands out a new observation; at the update,
        # count how many of them are still alive.
        handed = []

        class Obs:
            def __init__(self):
                self.x = np.zeros(2)
                handed.append(weakref.ref(self))

        class FreshObsBandit(QuadraticBandit):
            def reset(self):
                return Obs()

            def step(self, action):
                return (Obs(),) + super().step(action)[1:]

        alive = []
        loss = ppo.ppo_loss

        def count_alive(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in handed))
            return loss(*args)

        monkeypatch.setattr(ppo, "ppo_loss", count_alive)
        train_rl(
            make_env=FreshObsBandit,
            encode=lambda o: o.x,
            code_size=2,
            total_samples=8,
            act_dim=1,
            n_envs=2,
            rollout=8,
            minibatch=4,
            update_epochs=1,
            hidden=(4, 4),
            graph_encode=(lambda o: nn.Tensor.const(o.x)) if e2e else None,
        )
        # Each env's current observation, plus the 8 of the rollout for e2e.
        assert alive == [2 + (8 if e2e else 0)] * 2

    @pytest.mark.parametrize(
        "name, value", [("minibatch", -4), ("minibatch", 0), ("update_epochs", 0), ("rollout", 0)]
    )
    def test_rejects_non_positive_batch_sizes(self, name, value):
        # Below 1 the update loop ran no step and still returned a curve, and
        # a rollout of 0 raised ZeroDivisionError.
        built = []
        kwargs = dict(
            make_env=lambda seed: built.append(seed) or QuadraticBandit(seed),
            encode=lambda o: o,
            code_size=2,
            total_samples=8,
            act_dim=1,
            n_envs=2,
            rollout=8,
            minibatch=4,
            update_epochs=1,
        )
        kwargs[name] = value
        with pytest.raises(SizeError, match=f"{name} must be at least 1, got {value}"):
            train_rl(**kwargs)
        assert built == []

    def test_rejects_sub_rollout_budget(self):
        with pytest.raises(SizeError):
            train_rl(
                make_env=QuadraticBandit,
                encode=lambda o: o,
                code_size=2,
                total_samples=10,
                rollout=64,
            )

    def test_rejects_rollout_not_divisible_by_envs(self):
        # 768 // 5 * 5 = 765 steps would be collected but 768 reported.
        with pytest.raises(SizeError):
            train_rl(
                make_env=QuadraticBandit,
                encode=lambda o: o,
                code_size=2,
                total_samples=768,
                n_envs=5,
                rollout=768,
            )

    def test_evaluate_policy_records(self):
        core = PolicyCore(2, act_dim=1, hidden=(8, 4), seed=5)
        records = evaluate_policy(
            core, lambda o: o, QuadraticBandit, n_episodes=3, seed=1
        )
        assert len(records) == 3
        for i, rec in enumerate(records):
            assert rec["episode"] == i and rec["dig"] == 1
            assert rec["plan_ok"] is True
        with pytest.raises(SizeError):
            evaluate_policy(core, lambda o: o, QuadraticBandit, n_episodes=0)
