import functools
from dataclasses import asdict

import numpy as np
import pytest

from digrl.bench import (
    METRICS_FIELDS,
    attack_to_action,
    collect_report,
    compute_metrics,
    eval_rl_experiment,
    format_report,
    heuristic_action,
    load_metrics_table,
    random_action,
    run_baseline,
    save_table,
    train_rl_experiment,
)
from digrl.config import ATTACK_RANGES, get_profile
from digrl.errors import ConfigError, SizeError
from digrl.excavation import M3_TO_CM3, BucketSpec, EnvConfig, ExcavationEnv, action_to_attack
from digrl.kinematics import AttackPose
from digrl.nn import load_ckpt, save_ckpt
from digrl.ppo import PolicyCore, evaluate_policy
from digrl.repnet import RepNet
from digrl.sensor import SensorConfig


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


class TestRunBaseline:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            run_baseline("greedy", 1)

    def test_records_and_drop_accounting(self):
        records, incomplete = run_baseline(
            "random",
            3,
            seed=5,
            profile=get_profile("desk"),
            valid_digs=3,
            attempt_cap=3,
            env_cfg=EnvConfig(count_range=(30, 40)),
            sensor=SensorConfig(fps_target=300),
        )
        kept = {r["episode"] for r in records}
        assert incomplete == 3 - len(kept)
        for ep in kept:
            ep_rows = [r for r in records if r["episode"] == ep]
            assert len(ep_rows) == 3
            assert sum(r["plan_ok"] for r in ep_rows) == 3
        for r in records:
            assert set(r) >= {
                "episode", "dig", "raw_action", "action", "reward",
                "plan_ok", "failure", "captured_cm3", "objects_left",
            }

    def test_heuristic_baseline_runs(self):
        records, incomplete = run_baseline(
            "heuristic",
            1,
            seed=2,
            profile=get_profile("desk"),
            valid_digs=2,
            attempt_cap=12,
            env_cfg=EnvConfig(count_range=(30, 40)),
            sensor=SensorConfig(fps_target=300),
        )
        assert incomplete in (0, 1)
        if not incomplete:
            assert sum(r["plan_ok"] for r in records) >= 2

    def test_deterministic(self):
        kwargs = dict(
            seed=9,
            profile=get_profile("desk"),
            valid_digs=2,
            attempt_cap=4,
            env_cfg=EnvConfig(count_range=(20, 30)),
            sensor=SensorConfig(fps_target=300),
        )
        a = run_baseline("random", 2, **kwargs)
        b = run_baseline("random", 2, **kwargs)
        assert a == b


class TestExperimentDrivers:
    def tiny_kwargs(self):
        return dict(
            profile=get_profile("desk"),
            seed=0,
            total_samples=8,
            n_envs=2,
            rollout=8,
            minibatch=4,
            update_epochs=1,
            env_cfg=EnvConfig(digs_per_episode=4, count_range=(20, 30)),
            sensor=SensorConfig(fps_target=512),
        )

    def test_rep_variant_freezes_encoder(self):
        profile = get_profile("desk")
        store = RepNet(profile, seed=0).store
        before = store.state_bytes()
        core, curve, net = train_rl_experiment(store, **self.tiny_kwargs())
        assert net.store.state_bytes() == before
        assert len(curve) == 1
        assert "pi_l1.w" in core.store

    def test_e2e_variant_trains_encoder(self):
        profile = get_profile("desk")
        store = RepNet(profile, seed=0).store
        before = store.state_bytes()
        _, _, net = train_rl_experiment(store, variant="e2e", **self.tiny_kwargs())
        assert net.store.state_bytes() != before

    def test_e2e_policy_evaluates_with_its_trained_encoder(self, tmp_path):
        kwargs = self.tiny_kwargs()
        profile = kwargs["profile"]
        store = RepNet(profile, seed=0).store
        save_ckpt(store, tmp_path / "rep.ckpt")
        core, _, _ = train_rl_experiment(store, variant="e2e", **kwargs)
        save_ckpt(core.store, tmp_path / "policy.ckpt")
        rep_store = load_ckpt(tmp_path / "rep.ckpt")
        policy_store = load_ckpt(tmp_path / "policy.ckpt")
        env = dict(env_cfg=kwargs["env_cfg"], sensor=kwargs["sensor"])
        got = eval_rl_experiment(rep_store, policy_store, 1, profile=profile, seed=3, **env)

        def evaluate_with(encoder_store):
            net = RepNet(profile, store=encoder_store)
            return evaluate_policy(
                PolicyCore(profile.code_size, store=policy_store),
                lambda obs: net.encode(obs.points),
                functools.partial(ExcavationEnv, profile, **env),
                1,
                seed=3,
            )

        assert got == evaluate_with(policy_store)
        assert got != evaluate_with(rep_store)

    def test_unknown_variant(self):
        store = RepNet(get_profile("desk"), seed=0).store
        with pytest.raises(ConfigError):
            train_rl_experiment(store, variant="both", **self.tiny_kwargs())


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
