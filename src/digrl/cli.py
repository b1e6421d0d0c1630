"""Command-line interface for the excavation workbench.

Exit codes: 0 on success, 1 on a usage error (bad flags or arguments), 2 on
a runtime failure (missing files, failed runs). A command accepts only the
flags it reads. Every command takes ``--out`` where it writes artifacts and
``--config`` pointing at a ``key = value`` file with ``[section]`` headers
for the tunables that have no flag, so no key repeats ``--count`` or
``--samples`` (both default to the profile's); a section or key that
``_SECTION_TYPES`` does not list is a runtime failure. Every command but
``report`` takes ``--profile`` (falling back to the DIGRL_PROFILE
environment variable, then ``desk``; the library never reads it), and every
command but ``eval-rep`` and ``report`` takes ``--seed``. ``evaluate``
rolls the same evaluation episodes for one ``--seed`` and ``[env]`` with a
scripted ``--method``, or with ``--method rl`` and the one checkpoint that
``train-rl`` writes per agent, ``policy_<variant>.ckpt`` (its encoder, then
its policy), beside its curve ``policy_<variant>_curve.csv``; ``train-rl``
reads the encoder of an agent checkpoint too. Each run writes one metrics
CSV, ``<name>_metrics.csv``, named after the method or the agent
checkpoint's stem; ``report`` merges such CSVs into one table.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import bench, ppo, repnet
from .config import OBJECT_COUNT_RANGE, get_profile, load_config
from .errors import ConfigError
from .excavation import EnvConfig
from .nn import load_ckpt, save_ckpt


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SECTION_TYPES = {
    "scenes": {"count_min": int, "count_max": int},
    "rep": {
        "epochs": int,
        "batch_size": int,
        "lr": float,
        "weight_decay": float,
        "translate_jitter": float,
        "val_fraction": float,
    },
    "rl": {
        "n_envs": int,
        "rollout": int,
        "minibatch": int,
        "update_epochs": int,
        "lr": float,
    },
    "env": {"digs_per_episode": int, "count_min": int, "count_max": int},
}


def _config_section(args, name: str) -> dict:
    """Typed key=value options from one section of the ``--config`` file."""
    if not args.config:
        return {}
    raw = load_config(args.config).get(name, {})
    types = _SECTION_TYPES[name]
    out = {}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"unknown option {key!r} in section [{name}]")
        try:
            out[key] = types[key](value)
        except ValueError:
            kind = types[key].__name__
            raise ConfigError(f"[{name}] {key} = {value!r}: expected {kind}") from None
    return out


def _count_range(section: dict, default=OBJECT_COUNT_RANGE) -> tuple[int, int]:
    return (section.get("count_min", default[0]), section.get("count_max", default[1]))


def _env_config(args, count_range=EnvConfig.count_range) -> EnvConfig:
    """``EnvConfig`` from the ``[env]`` section; ``count_range`` fills in absent count keys."""
    sec = _config_section(args, "env")
    return EnvConfig(
        digs_per_episode=sec.get("digs_per_episode", EnvConfig.digs_per_episode),
        count_range=_count_range(sec, count_range),
    )


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _progress(label):
    def advance(i, n):
        if i == n or i % 25 == 0:
            print(f"{label}: {i}/{n}", flush=True)

    return advance


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_scenes(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "scenes")
    out = _ensure_out(args)
    paths = repnet.gen_scene_files(
        out,
        profile=profile,
        seed=args.seed,
        n_scenes=args.count,
        count_range=_count_range(sec),
        progress=_progress("scenes"),
    )
    print(f"wrote {len(paths)} scenes under {out}")
    return 0


def cmd_label(args) -> int:
    profile = get_profile(args.profile)
    # Only [rep] val_fraction is the label step's; without it the library's default holds.
    split = {k: v for k, v in _config_section(args, "rep").items() if k == "val_fraction"}
    out = args.out or args.data
    os.makedirs(out, exist_ok=True)
    lines = repnet.label_scene_files(
        args.data,
        out_dir=out,
        profile=profile,
        seed=args.seed,
        progress=_progress("labels"),
        **split,
    )
    print(f"labeled {len(lines)} scenes into {out}")
    return 0


def cmd_train_rep(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "rep")
    sec.pop("val_fraction", None)
    out = _ensure_out(args)
    samples = repnet.load_rep_dataset(args.data)
    net, history = repnet.train_rep(
        samples, profile=profile, seed=args.seed, log=print, **sec
    )
    save_ckpt(net.store, os.path.join(out, "rep.ckpt"))
    bench.save_table(history, repnet.METRIC_FIELDS, os.path.join(out, "rep_metrics.csv"))
    final = [h for h in history if h["split"] == "val"] or history
    print("final " + repnet.format_metrics(final[-1]))
    return 0


def cmd_eval_rep(args) -> int:
    net = repnet.RepNet(get_profile(args.profile), store=load_ckpt(args.ckpt))
    samples = repnet.load_rep_dataset(args.data)
    rows = repnet.eval_splits(net, samples, [net.plan(s.points) for s in samples])
    for row in rows:
        print(repnet.format_metrics(row))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rows = [{"epoch": 0, **row} for row in rows]
        bench.save_table(rows, repnet.METRIC_FIELDS, os.path.join(args.out, "rep_eval.csv"))
    return 0


def cmd_train_rl(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "rl")
    out = _ensure_out(args)
    _, curve, agent = bench.train_rl_experiment(
        load_ckpt(args.rep_ckpt),
        profile=profile,
        seed=args.seed,
        total_samples=args.samples,
        variant=args.variant,
        env_cfg=_env_config(args, bench.TRAIN_COUNT_RANGE),
        log=print,
        **sec,
    )
    stem = os.path.join(out, f"policy_{args.variant}")
    save_ckpt(agent, stem + ".ckpt")
    bench.save_table(curve, ppo.CURVE_FIELDS, stem + "_curve.csv")
    print(f"trained {args.variant} policy over {curve[-1]['samples']} samples")
    return 0


def _score(method: str, records: list[dict], out: str) -> None:
    """Reduce dig records to a metrics row, save it as CSV and print it."""
    row = dataclasses.asdict(bench.compute_metrics(method, records))
    bench.save_table([row], bench.METRICS_FIELDS, os.path.join(out, f"{method}_metrics.csv"))
    print(bench.format_report([row]))


def cmd_evaluate(args) -> int:
    profile = get_profile(args.profile)
    out = _ensure_out(args)
    agent = load_ckpt(args.policy_ckpt) if args.policy_ckpt else None
    records = bench.evaluate(
        args.method, args.episodes, profile, args.seed, _env_config(args), agent
    )
    # A learned row is named after its checkpoint, so rep and e2e agents stay apart.
    _score(Path(args.policy_ckpt).stem if args.policy_ckpt else args.method, records, out)
    return 0


def cmd_report(args) -> int:
    out_path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "report.csv")
    print(bench.collect_report(args.inputs, out_path))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common(sp, out_required: bool = True, run_flags=("--seed", "--profile")):
    """``--config``, ``--out`` and those of ``--seed`` and ``--profile`` the command reads."""
    if "--seed" in run_flags:
        sp.add_argument("--seed", type=int, default=0, help="master seed for this command")
    if "--profile" in run_flags:
        sp.add_argument(
            "--profile",
            default=os.environ.get("DIGRL_PROFILE", "desk"),
            help="paper or desk (default: %(default)s)",
        )
    sp.add_argument("--config", default=None, help="key=value config file")
    sp.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="digrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-scenes", help="spawn and settle cluttered scenes")
    _add_common(sp)
    sp.add_argument("--count", type=int, default=None, help="scenes (default: profile's)")
    sp.set_defaults(func=cmd_gen_scenes)

    sp = sub.add_parser("label", help="observe raw scenes and attach labels")
    _add_common(sp, out_required=False)
    sp.add_argument("--data", required=True, help="directory from gen-scenes")
    sp.set_defaults(func=cmd_label)

    sp = sub.add_parser("train-rep", help="train the representation network")
    _add_common(sp)
    sp.add_argument("--data", required=True, help="labeled dataset directory")
    sp.set_defaults(func=cmd_train_rep)

    sp = sub.add_parser("eval-rep", help="evaluate a representation checkpoint")
    _add_common(sp, out_required=False, run_flags=("--profile",))
    sp.add_argument("--data", required=True, help="labeled dataset directory")
    sp.add_argument("--ckpt", required=True, help="representation checkpoint")
    sp.set_defaults(func=cmd_eval_rep)

    sp = sub.add_parser("train-rl", help="train the digging policy")
    _add_common(sp)
    sp.add_argument("--rep-ckpt", required=True, help="representation or agent checkpoint")
    sp.add_argument("--samples", type=int, default=None, help="env steps (default: profile's)")
    sp.add_argument("--variant", choices=("rep", "e2e"), default="rep")
    sp.set_defaults(func=cmd_train_rl)

    sp = sub.add_parser("evaluate", help="evaluate a trained agent or a scripted baseline")
    _add_common(sp)
    sp.add_argument("--method", choices=bench.METHODS, required=True)
    sp.add_argument("--episodes", type=int, default=20)
    sp.add_argument("--policy-ckpt", help="agent checkpoint from train-rl, for --method rl only")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("report", help="merge metric tables into one report")
    _add_common(sp, out_required=False, run_flags=())
    sp.add_argument("--inputs", nargs="+", required=True, help="metrics CSV files")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and (args.method == "rl") != (args.policy_ckpt is not None):
        parser.error("evaluate: --policy-ckpt goes with --method rl, and only with it")
    try:
        if args.config:
            unknown = sorted(set(load_config(args.config)) - set(_SECTION_TYPES))
            if unknown:
                raise ConfigError(f"unknown config sections {unknown}")
        return args.func(args)
    except Exception as exc:  # runtime failures map to a stable exit code
        print(f"digrl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
