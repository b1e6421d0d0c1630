"""The ``digrl`` command line, run in process through ``cli.main``.

The whole pipeline runs at toy scale from one ``--config`` file and the
``--count`` and ``--samples`` flags: two scenes of 5 to 8 objects, one
representation epoch, one tiny PPO update, and two-dig episodes.
"""

import argparse
import ast
import csv
import inspect
import pathlib
import shlex

import pytest

from digrl import cli, excavation, repnet
from digrl.config import get_profile
from digrl.nn import joined, load_ckpt, save_ckpt
from digrl.ppo import PolicyCore
from digrl.repnet import RepNet, load_rep_dataset

TOY_CONFIG = """\
[scenes]
count_min = 5
count_max = 8

[rep]
epochs = 1

[rl]
n_envs = 2
rollout = 4
minibatch = 4
update_epochs = 1

[env]
digs_per_episode = 2
count_min = 5
count_max = 8
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return str(path)


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_pipeline_from_one_config(tmp_path, config, capsys):
    data, rep, rl, ev = (tmp_path / d for d in ("data", "rep", "rl", "eval"))
    assert run("gen-scenes", "--config", config, "--count", 2, "--out", data) == 0
    assert run("label", "--config", config, "--data", data) == 0
    capsys.readouterr()
    assert run("train-rep", "--config", config, "--data", data, "--out", rep) == 0
    train_out = capsys.readouterr().out.splitlines()
    assert run("eval-rep", "--data", data, "--ckpt", rep / "rep.ckpt", "--out", rep) == 0
    eval_out = capsys.readouterr().out.splitlines()
    assert run("eval-rep", "--data", data, "--ckpt", rep / "nope.ckpt") == 2
    rl_argv = ("--rep-ckpt", rep / "rep.ckpt", "--samples", 4, "--out", rl)
    assert run("train-rl", "--config", config, *rl_argv) == 0
    assert run("train-rl", "--config", config, *rl_argv, "--variant", "e2e") == 0
    # Both agents evaluate into one directory: each row and file is named
    # after its checkpoint, so neither overwrites the other.
    runs = {
        "policy_rep": ("rl", "--policy-ckpt", rl / "policy_rep.ckpt"),
        "policy_e2e": ("rl", "--policy-ckpt", rl / "policy_e2e.ckpt"),
        "heuristic": ("heuristic",),
        "random": ("random",),
    }
    for method in runs.values():
        argv = ("--config", config, "--episodes", 1, "--out", ev)
        assert run("evaluate", "--method", *method, *argv) == 0
    methods = list(runs)
    metrics = [ev / f"{m}_metrics.csv" for m in methods]
    capsys.readouterr()
    assert run("report", "--inputs", *metrics, "--out", tmp_path / "report") == 0
    table = capsys.readouterr().out.splitlines()

    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {
        "toy.cfg",
        "data/raw_scenes/0000.scene",
        "data/raw_scenes/0001.scene",
        "data/manifest.txt",
        "data/scenes/0000.xyzl",
        "data/scenes/0001.xyzl",
        "rep/rep.ckpt",
        "rep/rep_metrics.csv",
        "rep/rep_eval.csv",
        "rl/policy_rep.ckpt",
        "rl/policy_e2e.ckpt",
        "rl/policy_rep_curve.csv",
        "rl/policy_e2e_curve.csv",
        "eval/policy_rep_metrics.csv",
        "eval/policy_e2e_metrics.csv",
        "eval/heuristic_metrics.csv",
        "eval/random_metrics.csv",
        "report/report.csv",
    }
    assert [line.split()[0] for line in table[2:]] == methods
    with open(tmp_path / "report" / "report.csv", newline="") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == methods

    # Each agent checkpoint holds the encoder its policy acted on, then the
    # policy: the rep agent the frozen rep.ckpt, the e2e agent its trained copy.
    encoder = load_ckpt(rep / "rep.ckpt")
    policy = PolicyCore(get_profile("desk").code_size, seed=0).store.names()

    def encoder_bytes(store):
        return [store.get(name).value.tobytes() for name in encoder.names()]

    for variant in ("rep", "e2e"):
        agent = load_ckpt(rl / f"policy_{variant}.ckpt")
        assert agent.names() == encoder.names() + policy
        assert (encoder_bytes(agent) == encoder_bytes(encoder)) == (variant == "rep")

    def floats(row):
        return {k: v if k in ("epoch", "split") else float(v) for k, v in row.items()}

    # One row per split that has samples, each equal to eval_splits on the
    # checkpoint, with every metric's floor in its own column.
    samples = load_rep_dataset(data)
    net = RepNet(get_profile("desk"), store=load_ckpt(rep / "rep.ckpt"))
    with open(rep / "rep_eval.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == repnet.METRIC_FIELDS
    splits = [split for split in ("train", "val") if any(s.split == split for s in samples)]
    assert [r["split"] for r in rows] == splits and [r["epoch"] for r in rows] == ["0"] * len(rows)
    plans = [net.plan(s.points) for s in samples]
    assert [floats(r) for r in rows] == [
        {"epoch": "0", **row} for row in repnet.eval_splits(net, samples, plans)
    ]

    # train-rep's epoch log, its final line and eval-rep's lines all print a
    # metrics row through repnet.format_metrics.
    with open(rep / "rep_metrics.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        history = [floats(r) for r in reader]
    assert tuple(reader.fieldnames) == repnet.METRIC_FIELDS
    final = [h for h in history if h["split"] == "val"] or history
    logged = [f"epoch {h['epoch']} " + repnet.format_metrics(h) for h in history]
    assert train_out == logged + ["final " + repnet.format_metrics(final[-1])]
    assert eval_out == [repnet.format_metrics(floats(r)) for r in rows]


def test_samples_flag_sets_the_total(tmp_path, config):
    ckpt = tmp_path / "rep.ckpt"
    save_ckpt(RepNet(get_profile("desk"), seed=0).store, ckpt)
    out = tmp_path / "rl"
    assert run(
        "train-rl", "--config", config, "--rep-ckpt", ckpt, "--samples", 8, "--out", out
    ) == 0
    with open(out / "policy_rep_curve.csv", newline="") as fh:
        assert [int(r["samples"]) for r in csv.DictReader(fh)] == [4, 8]


def test_profile_falls_back_to_the_environment(tmp_path, capsys, monkeypatch):
    # The command line alone reads DIGRL_PROFILE, and --profile wins over it.
    monkeypatch.setenv("DIGRL_PROFILE", "nope")
    argv = ("evaluate", "--method", "random", "--episodes", 0, "--out", tmp_path / "out")
    assert run(*argv) == 2
    assert "unknown profile 'nope'" in capsys.readouterr().err
    assert run(*argv, "--profile", "desk") == 2
    assert "need at least one evaluation episode" in capsys.readouterr().err


def test_usage_error_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("evaluate", "--method", "greedy", "--out", tmp_path)
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [("--method", "rl"), ("--method", "random", "--policy-ckpt", "policy_rep.ckpt")],
    ids=["rl-without-ckpt", "random-with-ckpt"],
)
def test_policy_ckpt_goes_with_rl_only(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run("evaluate", *argv, "--out", tmp_path / "out")
    assert exc.value.code == 1
    assert "--policy-ckpt goes with --method rl, and only with it" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def args_reads(tree):
    """Per top-level function, the ``args`` attributes it reads.

    A function reads what it reads itself and what every function of the
    same module that it hands ``args`` to reads.
    """
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    direct, hands = {}, {}
    for name, fn in defs.items():
        nodes = list(ast.walk(fn))
        direct[name] = {
            n.attr
            for n in nodes
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args"
        }
        hands[name] = {
            n.func.id
            for n in nodes
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in defs
            and any(isinstance(a, ast.Name) and a.id == "args" for a in n.args)
        }

    def reads(name, seen=frozenset()):
        out = set(direct[name])
        for callee in hands[name] - seen - {name}:
            out |= reads(callee, seen | {name})
        return out

    return reads


def test_every_flag_is_read():
    # eval-rep took a --seed and report a --seed and a --profile that nothing read.
    probe = ast.parse(
        "def cmd(args):\n    return helper(args)\n"
        "def helper(args):\n    return args.seed + other(1)\n"
        "def other(args):\n    return args.profile\n"
    )
    assert args_reads(probe)("cmd") == {"seed"}
    reads = args_reads(ast.parse(inspect.getsource(cli)))
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 7
    for command, sp in sub.choices.items():
        flags = {a.dest for a in sp._actions} - {"help"}
        unread = flags - reads(sp.get_default("func").__name__) - reads("main")
        assert unread == set(), command


@pytest.mark.parametrize(
    "argv",
    [
        ("eval-rep", "--data", "data", "--ckpt", "rep.ckpt", "--seed", 1),
        ("report", "--inputs", "metrics.csv", "--seed", 1),
        ("report", "--inputs", "metrics.csv", "--profile", "desk"),
    ],
    ids=["eval-rep-seed", "report-seed", "report-profile"],
)
def test_unread_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 1


def test_missing_input_exits_2(tmp_path, capsys):
    assert run("report", "--inputs", tmp_path / "nope.csv") == 2
    assert "metrics file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("train-rl", "--rep-ckpt", "rep.ckpt"), "[rll]\nn_envs = 2\n", "sections ['rll']"),
        (("evaluate", "--method", "random"), "[bnch]\nvalid_digs = 1\n", "sections ['bnch']"),
        # Baselines run the [env] dig budget, so no section sets a quota or cap of their own.
        (("evaluate", "--method", "random"), "[bench]\nvalid_digs = 1\n", "sections ['bench']"),
        (("report", "--inputs", "metrics.csv"), "[rep]\nepochs = 1\n[eval]\n", "sections ['eval']"),
        (("train-rl", "--rep-ckpt", "rep.ckpt"), "[rl]\nn_env = 2\n", "option 'n_env' in section [rl]"),
        # The totals have one source each, the flags --count and --samples.
        (("gen-scenes",), "[scenes]\nn_scenes = 2\n", "option 'n_scenes' in section [scenes]"),
        (
            ("train-rl", "--rep-ckpt", "rep.ckpt"),
            "[rl]\ntotal_samples = 4\n",
            "option 'total_samples' in section [rl]",
        ),
        (
            ("train-rl", "--rep-ckpt", "rep.ckpt"),
            "[rl]\nn_envs = 2.5\n",
            "error: [rl] n_envs = '2.5': expected int\n",
        ),
        (("train-rep", "--data", "data"), "[rep]\nlr = fast\n", "lr = 'fast': expected float"),
    ],
    ids=[
        "section-rll", "section-bnch", "section-bench", "section-eval",
        "key-n_env", "key-n_scenes", "key-total_samples", "value-n_envs", "value-lr",
    ],
)
def test_config_typo_exits_2(tmp_path, capsys, argv, text, message):
    # A misspelt section used to be skipped, and the run went on with the defaults.
    # A value that did not parse gave Python's bare message, which named no option.
    path = tmp_path / "typo.cfg"
    path.write_text(text)
    assert run(*argv, "--config", path, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, digs",
    [
        (("train-rl", "--samples", 2), 0),
        (("evaluate", "--method", "random", "--episodes", 1), -3),
    ],
    ids=["train-rl-env-0", "baseline-env-minus-3"],
)
def test_episode_without_digs_exits_2(tmp_path, capsys, argv, digs):
    # Such budgets used to run one-dig episodes. The toy sizes keep a run
    # that wrongly goes ahead short.
    path = tmp_path / "nodig.cfg"
    path.write_text(
        "[rl]\nn_envs = 2\nrollout = 2\nminibatch = 2\nupdate_epochs = 1\n\n"
        f"[env]\ndigs_per_episode = {digs}\ncount_min = 5\ncount_max = 8\n"
    )
    ckpt = tmp_path / "rep.ckpt"
    save_ckpt(RepNet(get_profile("desk"), seed=0).store, ckpt)
    extra = ("--rep-ckpt", ckpt) if argv[0] == "train-rl" else ()
    assert run(*argv, *extra, "--config", path, "--out", tmp_path / "out") == 2
    assert "digs_per_episode must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rep, passed",
    [("epochs = 1\n", {}), ("epochs = 1\nval_fraction = 0.5\n", {"val_fraction": 0.5})],
    ids=["unset", "set"],
)
def test_label_passes_only_a_configured_val_fraction(tmp_path, monkeypatch, rep, passed):
    # Without the key the library's own default applies; the CLI repeats no default.
    seen = []

    def spy(root_dir, **kwargs):
        seen.append({k: v for k, v in kwargs.items() if k == "val_fraction"})
        return []

    monkeypatch.setattr(repnet, "label_scene_files", spy)
    path = tmp_path / "label.cfg"
    path.write_text(f"[rep]\n{rep}")
    assert run("label", "--config", path, "--data", tmp_path / "data") == 0
    assert seen == [passed]


def test_train_rl_spawns_training_density(tmp_path, monkeypatch):
    # No [env] count keys: training scenes hold 200 to 300 objects, as in
    # bench.TRAIN_COUNT_RANGE, not the 50 to 300 of evaluation.
    path = tmp_path / "rl.cfg"
    path.write_text(
        "[rl]\nn_envs = 2\nrollout = 2\nminibatch = 2\nupdate_epochs = 1\n\n"
        "[env]\ndigs_per_episode = 2\n"
    )
    ckpt = tmp_path / "rep.ckpt"
    save_ckpt(RepNet(get_profile("desk"), seed=0).store, ckpt)
    spawned = []
    spawn = excavation.spawn_scene

    def spy(seed, count_range):
        scene = spawn(seed, count_range=count_range)
        spawned.append((count_range, scene.object_count))
        return scene

    monkeypatch.setattr(excavation, "spawn_scene", spy)
    argv = ("--rep-ckpt", ckpt, "--samples", 2, "--out", tmp_path / "rl")
    assert run("train-rl", "--config", path, *argv) == 0
    assert [r for r, _ in spawned] == [(200, 300)] * 2
    assert all(200 <= n <= 300 for _, n in spawned)


def agent_checkpoint(tmp_path):
    """An agent checkpoint as train-rl writes one: the encoder, then the policy."""
    profile = get_profile("desk")
    agent = joined(RepNet(profile, seed=0).store, PolicyCore(profile.code_size, seed=0).store)
    path = tmp_path / "policy.ckpt"
    save_ckpt(agent, path)
    return ("--method", "rl", "--policy-ckpt", path)


def test_every_method_runs_the_same_episodes(tmp_path, config, monkeypatch):
    # Every method's row covers the same scenes, in the same order, with the
    # [env] budget of digs per episode and no episode dropped. The agent's
    # row is named after its checkpoint, policy.ckpt.
    out = tmp_path / "eval"
    runs = {
        "policy": agent_checkpoint(tmp_path),
        "heuristic": ("--method", "heuristic"),
        "random": ("--method", "random"),
    }
    spawned, seen = [], {}
    spawn = excavation.spawn_scene

    def spy(seed, count_range):
        spawned.append(seed)
        return spawn(seed, count_range=count_range)

    monkeypatch.setattr(excavation, "spawn_scene", spy)
    for method, argv in runs.items():
        argv = ("evaluate", *argv, "--config", config, "--episodes", 2, "--seed", 4)
        assert run(*argv, "--out", out) == 0
        with open(out / f"{method}_metrics.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        # Two episodes of the toy config's two digs; 5 to 8 objects outlast them.
        assert (row["episodes"], row["digs"]) == ("2", "4")
        seen[method] = spawned[:]
        spawned.clear()
    assert len(seen["policy"]) == 2
    assert seen["heuristic"] == seen["policy"] and seen["random"] == seen["policy"]


def test_heuristic_on_dense_scenes_writes_a_row(tmp_path):
    # At 250 objects every greedy plan fails; the failures are the row.
    path = tmp_path / "dense.cfg"
    path.write_text("[env]\ndigs_per_episode = 2\ncount_min = 250\ncount_max = 250\n")
    out = tmp_path / "eval"
    argv = ("evaluate", "--method", "heuristic", "--episodes", 1, "--config", path)
    assert run(*argv, "--out", out) == 0
    with open(out / "heuristic_metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["episodes"], row["digs"], float(row["plan_succ_pct"])) == ("1", "2", 0.0)


@pytest.mark.parametrize("scripted", [False, True], ids=["eval-rl", "baseline"])
def test_no_episodes_exits_2(tmp_path, capsys, scripted):
    method = ("--method", "random") if scripted else agent_checkpoint(tmp_path)
    assert run("evaluate", *method, "--episodes", 0, "--out", tmp_path / "out") == 2
    assert "need at least one evaluation episode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [("train-rep", "--data", "data"), ("train-rl", "--rep-ckpt", "rep.ckpt")],
    ids=["train-rep", "train-rl"],
)
def test_default_section_exits_2(tmp_path, capsys, argv):
    # A [DEFAULT] key used to reach every section unseen: lr set both [rep] and [rl].
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nlr = 0.5\n\n[rep]\nepochs = 2\n")
    assert run(*argv, "--config", path, "--out", tmp_path / "out") == 2
    assert "[DEFAULT] sets ['lr']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_scenes_into_a_used_directory_exits_2(tmp_path, config, capsys):
    data = tmp_path / "data"
    assert run("gen-scenes", "--config", config, "--count", 2, "--seed", 1, "--out", data) == 0
    before = {p.name: p.read_bytes() for p in (data / "raw_scenes").iterdir()}
    argv = ("gen-scenes", "--config", config, "--count", 1, "--seed", 2, "--out", data)
    assert run(*argv) == 2
    assert f"{data / 'raw_scenes'} already holds .scene files" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (data / "raw_scenes").iterdir()} == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("evaluate", "--method", "rl", "--policy-ckpt", "rep.ckpt"),
            "parameter 'pi_l1.w' is missing from the store",
        ),
        (
            ("evaluate", "--method", "rl", "--policy-ckpt", "policy_only.ckpt"),
            "parameter 'sa1_l1.w' is missing from the store",
        ),
        (
            ("train-rl", "--rep-ckpt", "policy_only.ckpt", "--samples", 4),
            "parameter 'sa1_l1.w' is missing from the store",
        ),
        (
            ("eval-rep", "--profile", "paper", "--data", "data", "--ckpt", "rep.ckpt"),
            "parameter 'sa1_l1.w' is (3, 96) in the store, the network needs (3, 128)",
        ),
        (
            ("eval-rep", "--data", "data", "--ckpt", "policy_only.ckpt"),
            "parameter 'sa1_l1.w' is missing from the store",
        ),
    ],
    ids=[
        "evaluate-encoder-only", "evaluate-pre-change-policy", "train-rl-policy-as-encoder",
        "eval-rep-desk-weights-at-paper", "eval-rep-policy-only",
    ],
)
def test_checkpoint_without_its_network_exits_2(tmp_path, config, capsys, argv, message):
    # Each of these used to draw the missing network at random, or run the
    # paper grouping on desk weights, and exit 0.
    profile = get_profile("desk")
    save_ckpt(RepNet(profile, seed=0).store, tmp_path / "rep.ckpt")
    # A policy checkpoint as train-rl wrote it before it saved the encoder too.
    save_ckpt(PolicyCore(profile.code_size, seed=0).store, tmp_path / "policy_only.ckpt")
    argv = [tmp_path / a if str(a).endswith(".ckpt") else a for a in argv]
    assert run(*argv, "--config", config, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("variant", ["rep", "e2e"])
def test_agent_checkpoint_trains_either_variant(tmp_path, config, variant):
    # train-rl reads only the encoder of an agent checkpoint. The e2e variant
    # used to refuse one, and the rep variant failed at the save after training.
    given = agent_checkpoint(tmp_path)[-1]
    out = tmp_path / "rl"
    argv = ("--rep-ckpt", given, "--samples", 4, "--variant", variant, "--out", out)
    assert run("train-rl", "--config", config, *argv) == 0
    given, agent = load_ckpt(given), load_ckpt(out / f"policy_{variant}.ckpt")
    assert agent.names() == given.names()
    encoder = RepNet(get_profile("desk"), seed=0).store.names()
    kept = [agent.get(n).value.tobytes() == given.get(n).value.tobytes() for n in encoder]
    # The e2e update trains the encoder's layers below the code.
    assert all(kept) == (variant == "rep")


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("train-rl", "--samples", 4), "[rl]\nlr = nan\n", "lr must be finite and > 0, got nan"),
        (("train-rep",), "[rep]\nlr = -0.5\n", "lr must be finite and > 0, got -0.5"),
        (
            ("train-rep",),
            "[rep]\nweight_decay = -1e-4\n",
            "weight_decay must be finite and >= 0, got -0.0001",
        ),
        (
            ("train-rep",),
            "[rep]\ntranslate_jitter = inf\n",
            "translate_jitter must be finite and >= 0, got inf",
        ),
        (("label",), "[rep]\nval_fraction = 1.5\n", "val_fraction must be in [0, 1), got 1.5"),
        (("label",), "[rep]\nval_fraction = -3\n", "val_fraction must be in [0, 1), got -3.0"),
        (("label",), "[rep]\nval_fraction = nan\n", "val_fraction must be in [0, 1), got nan"),
    ],
    ids=[
        "rl-lr", "rep-lr", "rep-weight_decay", "rep-translate_jitter",
        "rep-val_fraction-1.5", "rep-val_fraction-minus-3", "rep-val_fraction-nan",
    ],
)
def test_tunable_out_of_range_exits_2(tmp_path, capsys, monkeypatch, argv, text, message):
    # The lr and val_fraction cases used to exit 0, with a NaN policy, a
    # diverged encoder or inverted splits.
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    ckpt = tmp_path / "rep.ckpt"
    save_ckpt(RepNet(get_profile("desk"), seed=0).store, ckpt)
    # train-rep checks its tunables before it looks at the samples.
    monkeypatch.setattr(repnet, "load_rep_dataset", lambda path: [])
    data, out = ("--data", tmp_path / "data"), ("--out", tmp_path / "out")
    extra = {"train-rl": ("--rep-ckpt", ckpt, *out), "train-rep": (*data, *out), "label": data}
    assert run(*argv, *extra[argv[0]], "--config", path) == 2
    assert message in capsys.readouterr().err


def test_readme_commands_parse():
    # The documented pipeline must not drift from the command line, and it
    # shows every command.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    prefix = "python3 -m digrl.cli "
    lines = [line for line in readme.read_text().splitlines() if line.startswith(prefix)]
    commands = [shlex.split(line)[3:] for line in lines]
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(sub.choices)
