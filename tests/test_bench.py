import functools
import hashlib
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from digrl import excavation, ppo, sensor
from digrl.bench import (
    METRICS_FIELDS,
    attack_to_action,
    collect_report,
    compute_metrics,
    evaluate,
    format_report,
    heuristic_action,
    load_metrics_table,
    random_action,
    rollout,
    save_table,
    train_rl_experiment,
)
from digrl.config import ATTACK_RANGES, get_profile, stream_seed
from digrl.errors import ConfigError, SizeError
from digrl.excavation import M3_TO_CM3, BucketSpec, EnvConfig, ExcavationEnv, action_to_attack
from digrl.kinematics import AttackPose
from digrl.nn import joined, load_ckpt, save_ckpt
from digrl.ppo import PolicyCore
from digrl.repnet import RepNet


def dig_record(episode, captured, plan_ok):
    return {
        "episode": episode,
        "captured_cm3": captured,
        "plan_ok": plan_ok,
    }


class TestMetrics:
    def test_volume_success_identity(self):
        records = [
            dig_record(0, 120.0, True),
            dig_record(0, 0.0, False),
            dig_record(1, 300.0, True),
            dig_record(1, 45.0, True),
            dig_record(1, 0.0, False),
        ]
        m = compute_metrics("demo", records)
        assert m.episodes == 2 and m.digs == 5
        assert m.avg_v_cm3 == pytest.approx(465.0 / 5.0, abs=1e-12)
        assert m.plan_succ_pct == pytest.approx(60.0, abs=1e-12)
        assert m.avg_v_w_plan_cm3 == pytest.approx(155.0, abs=1e-12)
        identity = (m.plan_succ_pct / 100.0) * m.avg_v_w_plan_cm3
        assert m.avg_v_cm3 == pytest.approx(identity, abs=1e-9)
        capacity_cm3 = BucketSpec().capacity * M3_TO_CM3
        assert capacity_cm3 == 450.0
        assert m.fill_rate_pct == pytest.approx(100.0 * m.avg_v_cm3 / capacity_cm3)

    def test_reference_fill_pairing(self):
        m = compute_metrics("ref", [dig_record(0, 208.4, True)])
        assert round(m.fill_rate_pct, 1) == 46.3

    def test_all_failed_plans(self):
        m = compute_metrics("dud", [dig_record(0, 0.0, False)] * 4)
        assert m.avg_v_cm3 == 0.0
        assert m.plan_succ_pct == 0.0
        assert m.avg_v_w_plan_cm3 == 0.0

    def test_empty_records_raise(self):
        with pytest.raises(SizeError):
            compute_metrics("none", [])

    def test_table_round_trip(self, tmp_path):
        rows = [
            asdict(compute_metrics("a", [dig_record(0, 100.0, True)])),
            asdict(compute_metrics("b", [dig_record(0, 0.0, False)])),
        ]
        path = tmp_path / "metrics.csv"
        save_table(rows, METRICS_FIELDS, path)
        back = load_metrics_table(path)
        assert [r["method"] for r in back] == ["a", "b"]
        assert float(back[0]["avg_v_cm3"]) == 100.0
        assert back[0].keys() == set(METRICS_FIELDS)


class TestActions:
    def test_attack_action_round_trip(self, rng):
        r = ATTACK_RANGES
        for _ in range(25):
            att = AttackPose(
                rng.uniform(*r.x), rng.uniform(*r.y), rng.uniform(*r.alpha)
            )
            back = action_to_attack(attack_to_action(att))
            assert back.x == pytest.approx(att.x, abs=1e-12)
            assert back.y == pytest.approx(att.y, abs=1e-12)
            assert back.alpha == pytest.approx(att.alpha, abs=1e-12)

    def test_attack_outside_band_clips(self):
        a = attack_to_action(AttackPose(5.0, -5.0, 0.0))
        assert a[0] == 1.0 and a[1] == -1.0 and a[2] == -1.0

    def test_random_action_bounds(self, rng):
        for _ in range(10):
            a = random_action(rng)
            assert a.shape == (3,) and np.all(np.abs(a) <= 1.0)


class FakeObs:
    def __init__(self, points):
        self.points = points


class TestHeuristic:
    def test_targets_highest_point(self):
        r = ATTACK_RANGES
        pts = np.random.default_rng(0).uniform(
            [r.x[0], r.y[0], 0.0], [r.x[1], r.y[1], 0.05], size=(500, 3)
        )
        pts[123] = [0.1234567, -0.0456789, 0.25]
        action = heuristic_action(FakeObs(pts), np.random.default_rng(3))
        alpha = np.random.default_rng(3).uniform(*r.alpha)
        want = attack_to_action(AttackPose(0.1234567, -0.0456789, alpha))
        assert action.tobytes() == want.tobytes()

    def test_tie_goes_to_lowest_point_index(self, rng):
        pts = np.array(
            [[0.0, 0.0, 0.01], [0.05, 0.1, 0.03], [-0.1, -0.05, 0.02], [0.2, 0.1, 0.03]]
        )
        att = action_to_attack(heuristic_action(FakeObs(pts), rng))
        assert att.x == pytest.approx(0.05, abs=1e-12)
        assert att.y == pytest.approx(0.1, abs=1e-12)

    def test_point_outside_ranges_is_clipped(self, rng):
        pts = np.array([[0.0, 0.0, 0.01], [5.0, -5.0, 0.3]])
        action = heuristic_action(FakeObs(pts), rng)
        assert action[0] == 1.0 and action[1] == -1.0
        assert -1.0 <= action[2] <= 1.0


class StubEnv:
    """Three digs per episode; a dig with a positive first action changes the observation."""

    def __init__(self, seed):
        self.seed = seed

    def reset(self):
        self.digs = 0
        self.ob = object()
        return self.ob

    def step(self, action):
        self.digs += 1
        ok = action[0] > 0
        if ok:
            self.ob = object()
        info = {
            "dig": self.digs,
            "attack": [2.0 * v for v in action],
            "plan_ok": ok,
            "failure": None if ok else "unreachable",
            "captured_cm3": 10.0 if ok else 0.0,
            "objects_left": 5,
        }
        return self.ob, info["captured_cm3"], self.digs == 3, info


class TestRollout:
    def test_records_and_encodes(self):
        envs, encoded = [], []
        actions = iter([(1.0,), (-1.0,), (1.0,)] * 2)

        def make_env(seed):
            envs.append(StubEnv(seed))
            return envs[-1]

        records = rollout(lambda code: next(actions), encoded.append, make_env, 2, 7)
        assert [e.seed for e in envs] == [stream_seed(7, "env-9000")]
        assert [(r["episode"], r["dig"]) for r in records] == [
            (ep, dig) for ep in range(2) for dig in (1, 2, 3)
        ]
        assert [r["plan_ok"] for r in records] == [True, False, True] * 2
        assert [r["captured_cm3"] for r in records] == [10.0, 0.0, 10.0] * 2
        assert records[1]["failure"] == "unreachable" and records[1]["action"] == [-2.0]
        # One encode per reset and per changed observation; the failed plan
        # costs none, and neither does the new observation of an episode's
        # last dig, which no action reads.
        assert len(encoded) == 2 * 2

    def test_needs_an_episode(self):
        with pytest.raises(SizeError, match="need at least one evaluation episode"):
            rollout(lambda code: (1.0,), lambda ob: ob, StubEnv, 0, 0)


def small_sensor_profile():
    """The desk profile with a 300-point observation, which is all the environment reads of it."""
    return replace(get_profile("desk"), fps_target=300)


def golden_agent(profile):
    """The golden policy's agent store: the seed-0 encoder, then the seed-8 policy."""
    return joined(RepNet(profile, seed=0).store, PolicyCore(profile.code_size, seed=8).store)


def test_loaded_networks_hold_only_their_own_parameters():
    # Each network loads its own parameters out of an agent store, shared
    # and not copied, and leaves the other network's alone.
    profile = get_profile("desk")
    agent = golden_agent(profile)
    before = agent.state_bytes()
    encoder = RepNet(profile, store=agent).store
    policy = PolicyCore(profile.code_size, store=agent).store
    assert encoder.names() == RepNet(profile, seed=0).store.names()
    assert policy.names() == PolicyCore(profile.code_size, seed=0).store.names()
    for store in (encoder, policy):
        assert all(store.get(name) is agent.get(name) for name in store.names())
    assert agent.state_bytes() == before


class TestRunBaseline:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            evaluate("greedy", 1, get_profile("desk"))

    @pytest.mark.parametrize(
        "method, agent", [("rl", None), ("random", "agent")], ids=["rl-without", "random-with"]
    )
    def test_agent_goes_with_rl_only(self, method, agent):
        profile = get_profile("desk")
        agent = golden_agent(profile) if agent else None
        with pytest.raises(ConfigError, match=f"method '{method}' (needs an|takes no) agent"):
            evaluate(method, 1, profile, agent=agent)

    @pytest.mark.parametrize(
        "method, digest",
        [
            ("random", "b663a9454115823c88e12b9c39c454f8430c981e52b2a214d08a0997ada3c1cd"),
            ("heuristic", "4fd4a1094ed60ac81a8386937b6114df5fe7f46301c6947cd5c37055e6054423"),
        ],
    )
    def test_golden_baseline_hash(self, method, digest):
        """Pins a baseline's records on the golden evaluation settings.

        The digests were recorded with ``run_baseline``, the baselines' own
        driver before one ``evaluate`` served every method.
        """
        profile = get_profile("desk")
        records = evaluate(method, 2, profile, seed=0, env_cfg=EnvConfig(count_range=(5, 8)))
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest

    @pytest.mark.parametrize("method", ["random", "heuristic"])
    def test_every_dig_is_a_record(self, method):
        cfg = EnvConfig(digs_per_episode=3, count_range=(30, 40))
        records = evaluate(method, 2, seed=5, profile=small_sensor_profile(), env_cfg=cfg)
        for ep in range(2):
            rows = [r for r in records if r["episode"] == ep]
            assert [r["dig"] for r in rows] == list(range(1, len(rows) + 1))
            # The full budget, unless the last dig emptied the tray.
            assert len(rows) == 3 or rows[-1]["objects_left"] == 0
        assert {r["episode"] for r in records} == {0, 1}
        for r in records:
            assert r["plan_ok"] or r["captured_cm3"] == 0.0
            assert set(r) == {
                "episode", "dig", "raw_action", "action", "reward",
                "plan_ok", "failure", "captured_cm3", "objects_left",
            }

    def test_heuristic_baseline_runs(self):
        # On a dense tray the highest point is out of reach: every plan fails,
        # the observation stays, and only alpha is drawn again.
        cfg = EnvConfig(digs_per_episode=3, count_range=(250, 250))
        records = evaluate("heuristic", 1, seed=2, profile=small_sensor_profile(), env_cfg=cfg)
        assert [r["plan_ok"] for r in records] == [False] * 3
        assert len({tuple(r["raw_action"][:2]) for r in records}) == 1
        assert len({r["raw_action"][2] for r in records}) == 3

    def test_deterministic(self):
        kwargs = dict(
            seed=9,
            profile=small_sensor_profile(),
            env_cfg=EnvConfig(digs_per_episode=2, count_range=(20, 30)),
        )
        a = evaluate("random", 2, **kwargs)
        b = evaluate("random", 2, **kwargs)
        assert a == b


class TestExperimentDrivers:
    def tiny_kwargs(self):
        return dict(
            profile=replace(get_profile("desk"), fps_target=512),
            seed=0,
            total_samples=8,
            n_envs=2,
            rollout=8,
            minibatch=4,
            update_epochs=1,
            env_cfg=EnvConfig(digs_per_episode=4, count_range=(20, 30)),
        )

    def test_rep_variant_freezes_encoder(self):
        profile = get_profile("desk")
        store = RepNet(profile, seed=0).store
        before = store.state_bytes()
        core, curve, agent = train_rl_experiment(store, **self.tiny_kwargs())
        assert store.state_bytes() == before
        assert len(curve) == 1
        # The policy trained in a store of its own; the agent is the frozen
        # encoder, then that policy.
        assert core.store.names() == PolicyCore(profile.code_size, seed=0).store.names()
        assert agent.names() == store.names() + core.store.names()
        assert joined(store, core.store).state_bytes() == agent.state_bytes()

    def test_e2e_variant_trains_encoder(self):
        profile = get_profile("desk")
        store = RepNet(profile, seed=0).store
        names = store.names()
        before = [store.get(name).value.tobytes() for name in names]
        core, _, agent = train_rl_experiment(store, variant="e2e", **self.tiny_kwargs())
        assert core.store.names() == PolicyCore(profile.code_size, seed=0).store.names()
        assert agent.names() == names + core.store.names()
        assert [agent.get(name).value.tobytes() for name in names] != before

    def test_e2e_policy_evaluates_with_its_trained_encoder(self, tmp_path):
        kwargs = self.tiny_kwargs()
        profile = kwargs["profile"]
        store = RepNet(profile, seed=0).store
        save_ckpt(store, tmp_path / "rep.ckpt")
        _, _, agent = train_rl_experiment(store, variant="e2e", **kwargs)
        save_ckpt(agent, tmp_path / "policy.ckpt")
        agent = load_ckpt(tmp_path / "policy.ckpt")
        got = evaluate("rl", 1, profile, seed=3, env_cfg=kwargs["env_cfg"], agent=agent)

        def evaluate_with(encoder_store):
            net = RepNet(profile, store=encoder_store)
            return rollout(
                PolicyCore(profile.code_size, store=agent).act_deterministic,
                lambda obs: net.encode(obs.points),
                functools.partial(ExcavationEnv, profile, env_cfg=kwargs["env_cfg"]),
                1,
                3,
            )

        assert got == evaluate_with(agent)
        assert got != evaluate_with(load_ckpt(tmp_path / "rep.ckpt"))

    def test_golden_eval_rl_hash(self):
        """Pins the bytes of the policy's records: desk profile, 5 to 8 objects, two episodes.

        Recorded before baselines and policies shared one rollout, when the
        encoder and the policy came from two stores. The policy seed is one
        whose mean captures once, so a changed observation is encoded again
        and the action moves.
        """
        profile = get_profile("desk")
        records = evaluate(
            "rl",
            2,
            profile=profile,
            seed=0,
            env_cfg=EnvConfig(count_range=(5, 8)),
            agent=golden_agent(profile),
        )
        assert sum(r["captured_cm3"] > 0 for r in records) == 1
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "9cf895b0270affc011f05228bb7c1c48ef34ae7521fe7e0bb9f7c90b6588ea3a"

    @staticmethod
    def single_store_agent(monkeypatch, store, variant, profile, env_cfg, **options):
        """The agent's bytes along the single-store path that trained both variants before.

        The e2e policy was drawn into the encoder's store, and one Adam step
        over that store trained both networks; the rep policy trained in its
        own store, and its values were appended to the encoder's afterwards.
        """
        net = RepNet(profile, store=store)
        policy_core = ppo.PolicyCore

        def policy_in_the_encoder_store(code_size, seed):
            core = policy_core(code_size, seed=seed)
            if variant == "e2e":
                core.store = joined(net.store, core.store)
            return core

        monkeypatch.setattr(ppo, "PolicyCore", policy_in_the_encoder_store)
        if variant == "e2e":
            options["graph_encode"] = lambda obs: net.encoder(net.levels(obs.points))["code"]
        core, _ = ppo.train_rl(
            functools.partial(ExcavationEnv, profile, env_cfg=env_cfg),
            lambda obs: net.encode(obs.points),
            profile.code_size,
            **options,
        )
        return (core.store if variant == "e2e" else joined(net.store, core.store)).state_bytes()

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("variant", ["rep", "e2e"])
    def test_agent_matches_the_single_store_path(self, monkeypatch, variant, seed):
        # A policy in a store of its own trains as one drawn into the encoder's store did.
        kwargs = {**self.tiny_kwargs(), "seed": seed}
        profile = kwargs["profile"]
        _, _, agent = train_rl_experiment(RepNet(profile, seed=1).store, variant=variant, **kwargs)
        want = self.single_store_agent(
            monkeypatch, RepNet(profile, seed=1).store, variant, **kwargs
        )
        assert agent.state_bytes() == want

    def test_unknown_variant(self):
        store = RepNet(get_profile("desk"), seed=0).store
        with pytest.raises(ConfigError):
            train_rl_experiment(store, variant="both", **self.tiny_kwargs())


class TestSensorNoise:
    """A noise setting in ``env_cfg`` reaches the observations of every evaluated method."""

    @staticmethod
    def first_observation(monkeypatch, run, noise_sigma):
        seen = []

        def recording(*args):
            seen.append(sensor.observe(*args))
            return seen[-1]

        monkeypatch.setattr(excavation, "observe", recording)
        run(EnvConfig(digs_per_episode=1, count_range=(20, 30), noise_sigma=noise_sigma))
        return seen[0]

    @pytest.mark.parametrize("method", ["random", "heuristic", "rl"])
    def test_noise_reaches_the_observations(self, monkeypatch, method):
        profile = small_sensor_profile()
        agent = golden_agent(profile) if method == "rl" else None

        def evaluate_method(env_cfg):
            return evaluate(method, 1, profile, 4, env_cfg, agent)

        clean = self.first_observation(monkeypatch, evaluate_method, 0.0)
        noisy = self.first_observation(monkeypatch, evaluate_method, 0.002)
        # The same scene: the planner's map agrees, the observed points do not.
        assert noisy.heightmap.heights.tobytes() == clean.heightmap.heights.tobytes()
        assert noisy.points.shape == clean.points.shape
        assert noisy.points.tobytes() != clean.points.tobytes()


class TestReport:
    def test_format_and_merge(self, tmp_path):
        rows_a = [asdict(compute_metrics("alpha", [dig_record(0, 90.0, True)]))]
        rows_b = [asdict(compute_metrics("beta", [dig_record(0, 0.0, False)]))]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_table(rows_a, METRICS_FIELDS, pa)
        save_table(rows_b, METRICS_FIELDS, pb)
        merged = tmp_path / "merged.csv"
        text = collect_report([str(pa), str(pb)], str(merged))
        lines = text.splitlines()
        assert lines[0].split()[0] == "method"
        assert "alpha" in text and "beta" in text
        back = load_metrics_table(merged)
        assert [r["method"] for r in back] == ["alpha", "beta"]
        assert back == load_metrics_table(pa) + load_metrics_table(pb)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            collect_report([str(tmp_path / "nope.csv")])

    def test_empty_report(self):
        with pytest.raises(SizeError):
            format_report([])
