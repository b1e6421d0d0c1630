"""Command-line interface for the excavation workbench.

Exit codes: 0 on success, 1 on a usage error (bad flags or arguments), 2 on
a runtime failure (missing files, failed runs). Every command takes
``--seed``, ``--profile`` (falling back to the DIGRL_PROFILE environment
variable, then ``desk``), ``--out`` where it writes artifacts, and
``--config`` pointing at a ``key = value`` file with ``[section]`` headers
for the tunables that have no dedicated flag; a section or key that
``_SECTION_TYPES`` does not list is a runtime failure. ``eval-rl`` and
``baseline`` each write one metrics CSV, ``<method>_metrics.csv``;
``report`` merges such CSVs into one table.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

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
    "scenes": {"count_min": int, "count_max": int, "n_scenes": int},
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
        "total_samples": int,
    },
    "env": {"digs_per_episode": int, "count_min": int, "count_max": int},
    "bench": {"valid_digs": int, "attempt_cap": int},
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
        out[key] = types[key](value)
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
    n = args.count if args.count is not None else sec.get("n_scenes", profile.rep_scenes)
    out = _ensure_out(args)
    lines = repnet.gen_scene_files(
        out,
        profile=profile,
        seed=args.seed,
        n_scenes=n,
        count_range=_count_range(sec),
        progress=_progress("scenes"),
    )
    print(f"wrote {len(lines)} scenes under {out}")
    return 0


def cmd_label(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "rep")
    out = args.out or args.data
    os.makedirs(out, exist_ok=True)
    lines = repnet.label_scene_files(
        args.data,
        out_dir=out,
        profile=profile,
        seed=args.seed,
        val_fraction=sec.get("val_fraction", 0.1),
        progress=_progress("labels"),
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
    print(
        "final val: cos=%.4f deg=%.2f curv_mae=%.4f count_mae=%.2f"
        % (
            final[-1]["normal_cos"],
            final[-1]["normal_deg"],
            final[-1]["curv_mae"],
            final[-1]["count_mae"],
        )
    )
    return 0


def cmd_eval_rep(args) -> int:
    profile = get_profile(args.profile)
    samples = repnet.load_rep_dataset(args.data)
    net = repnet.RepNet(profile, store=load_ckpt(args.ckpt))
    rows = []
    for split in ("train", "val"):
        subset = [s for s in samples if s.split == split]
        if not subset:
            continue
        row = {"epoch": 0, "split": split}
        row.update(repnet.eval_rep(net, subset, [net.plan(s.points) for s in subset]))
        rows.append(row)
        print(
            "%s: cos=%.4f deg=%.2f curv_mae=%.4f count_mae=%.2f"
            % (split, row["normal_cos"], row["normal_deg"], row["curv_mae"], row["count_mae"])
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        bench.save_table(rows, repnet.METRIC_FIELDS, os.path.join(args.out, "rep_eval.csv"))
    return 0


def cmd_train_rl(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "rl")
    out = _ensure_out(args)
    total = sec.pop("total_samples", None)
    if args.samples is not None:
        total = args.samples
    core, curve, _net = bench.train_rl_experiment(
        load_ckpt(args.rep_ckpt),
        profile=profile,
        seed=args.seed,
        total_samples=total,
        variant=args.variant,
        env_cfg=_env_config(args, bench.TRAIN_COUNT_RANGE),
        log=print,
        **sec,
    )
    save_ckpt(core.store, os.path.join(out, f"policy_{args.variant}.ckpt"))
    bench.save_table(curve, ppo.CURVE_FIELDS, os.path.join(out, "rl_curve.csv"))
    print(f"trained {args.variant} policy over {curve[-1]['samples']} samples")
    return 0


def _score(method: str, records: list[dict], out: str) -> None:
    """Reduce dig records to a metrics row, save it as CSV and print it."""
    row = dataclasses.asdict(bench.compute_metrics(method, records))
    bench.save_table([row], bench.METRICS_FIELDS, os.path.join(out, f"{method}_metrics.csv"))
    print(bench.format_report([row]))


def cmd_eval_rl(args) -> int:
    profile = get_profile(args.profile)
    out = _ensure_out(args)
    records = bench.eval_rl_experiment(
        load_ckpt(args.rep_ckpt),
        load_ckpt(args.policy_ckpt),
        args.episodes,
        profile=profile,
        seed=args.seed,
        env_cfg=_env_config(args),
    )
    _score("rl", records, out)
    return 0


def cmd_baseline(args) -> int:
    profile = get_profile(args.profile)
    sec = _config_section(args, "bench")
    out = _ensure_out(args)
    records, incomplete = bench.run_baseline(
        args.method,
        args.episodes,
        seed=args.seed,
        profile=profile,
        env_cfg=_env_config(args),
        **sec,
    )
    _score(args.method, records, out)
    if incomplete:
        print(f"dropped {incomplete} episode(s) that never reached the valid-dig quota")
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


def _add_common(sp, out_required: bool = True):
    sp.add_argument("--seed", type=int, default=0, help="master seed for this command")
    sp.add_argument("--profile", default=None, help="run profile (paper or desk)")
    sp.add_argument("--config", default=None, help="key=value config file")
    sp.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="digrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-scenes", help="spawn and settle cluttered scenes")
    _add_common(sp)
    sp.add_argument("--count", type=int, default=None, help="number of scenes")
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
    _add_common(sp, out_required=False)
    sp.add_argument("--data", required=True, help="labeled dataset directory")
    sp.add_argument("--ckpt", required=True, help="representation checkpoint")
    sp.set_defaults(func=cmd_eval_rep)

    sp = sub.add_parser("train-rl", help="train the digging policy")
    _add_common(sp)
    sp.add_argument("--rep-ckpt", required=True, help="representation checkpoint")
    sp.add_argument("--samples", type=int, default=None, help="total environment steps")
    sp.add_argument("--variant", choices=("rep", "e2e"), default="rep")
    sp.set_defaults(func=cmd_train_rl)

    sp = sub.add_parser("eval-rl", help="evaluate a trained policy")
    _add_common(sp)
    sp.add_argument(
        "--rep-ckpt",
        required=True,
        help="representation checkpoint, unused when the policy checkpoint holds its e2e encoder",
    )
    sp.add_argument("--policy-ckpt", required=True)
    sp.add_argument("--episodes", type=int, default=20)
    sp.set_defaults(func=cmd_eval_rl)

    sp = sub.add_parser("baseline", help="run a scripted baseline")
    _add_common(sp)
    sp.add_argument("--method", choices=("random", "heuristic"), required=True)
    sp.add_argument("--episodes", type=int, default=20)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("report", help="merge metric tables into one report")
    _add_common(sp, out_required=False)
    sp.add_argument("--inputs", nargs="+", required=True, help="metrics CSV files")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
