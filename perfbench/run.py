"""Benchmark entry point for the digrl workbench.

    python3 perfbench/run.py --workload rl-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run sets up several times, then repeats
units of the workload for ``--seconds`` seconds and reports the end-to-end
metrics, its times scaled for the host's speed by a reference loop. With
``--trace 1`` it runs units untraced for half the time, replays the same
units with every layer wrapped, and reports the per-layer metrics and the
tracing overhead. Either way it then checks the behaviour digest of a fixed
small run against ``digests.json``. See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check and the digest passed.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are capped before numpy is first imported. One thread keeps
# timings steady, and the three jobs the workloads model share one machine.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 3

# The speed of the development host drifted by about 15% over minutes, alike
# for every loop of small numpy operations, which is what all three workloads
# spend their time in. A run therefore times a fixed loop of that kind, which
# is no part of digrl, between its units. It scales its end-to-end times by
# REF_NOMINAL_S over the loop's median time, which takes most of the drift
# out. The unscaled figures are printed too.
REF_NOMINAL_S = 0.060
REF_REPEATS = 3
_REF_POINTS = np.random.default_rng(0).random((4096, 3))

DIGEST_SEED = 0
DIGEST_UNITS = {"rl-dense": 1, "scene-dataset": 2, "rep-train": 1}
ISSUE_NAMES = {
    "rl-dense": "rl_samples_per_s",
    "scene-dataset": "scenes_per_s",
    "rep-train": "rep_clouds_per_s",
}

END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Layers with a span each: calls, total ms, median ms per call, self ms.
TIMED_LAYERS = [
    "scenegen.spawn_scene",
    "scenegen.resettle",
    "sensor.observe",
    "sensor.render_surface",
    "sensor.scene_heightmap",
    "sensor.fps",
    "sensor.label_observation",
    "repnet.encode",
    "repnet.forward",
    "repnet.fps",
    "repnet.ball_query",
    "repnet.idw_weights",
    "nn.backward",
    "kinematics.plan_trajectory",
    "excavation.execute_dig",
    "excavation.capture_from_drag",
    "ppo.act",
    "ppo.ppo_loss",
]
# Layers reported by calls and total ms only.
COUNTED_LAYERS = [
    "repnet.eval_rep",
    "nn.adam_step",
    "scenegen.save_scene",
    "scenegen.load_scene",
    "geometry.save_xyzl",
    "geometry.load_xyzl",
]
RATIOS = [
    ("scenegen.resettle.objects", "count", "lower"),
    ("sensor.fps.points_in", "count", "lower"),
    ("sensor.fps.points_out", "count", "lower"),
    ("sensor.renders_per_refresh", "ratio", "lower"),
    ("kinematics.plan_trajectory.ok_frac", "ratio", "higher"),
    ("excavation.capture_frac", "ratio", "higher"),
    ("workload.items_per_s_raw", "1/s", "higher"),
    ("workload.capture_step_frac", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.ref_loop_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def reference_seconds() -> float:
    """Time one fixed farthest-point-style loop over 4,096 points."""
    start = time.perf_counter()
    nearest = np.full(len(_REF_POINTS), np.inf)
    for i in range(400):
        np.minimum(nearest, np.sum((_REF_POINTS - _REF_POINTS[i]) ** 2, axis=1), out=nearest)
        int(np.argmax(nearest))
    return time.perf_counter() - start


def reference_sample() -> list[float]:
    return [reference_seconds() for _ in range(REF_REPEATS)]


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for layer in TIMED_LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        for stat in ("ms", "ms_p50", "self_ms"):
            specs.append((f"{layer}.{stat}", "ms", "lower"))
    for layer in COUNTED_LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.ms", "ms", "lower"))
    return specs + RATIOS


def install_trace(tracer, patches) -> None:
    """Wrap every traced layer at the name its caller looks up."""
    from digrl import excavation, nn, ppo, repnet, sensor
    from digrl.nn import ParamStore
    from digrl.ppo import PolicyCore
    from digrl.repnet import RepNet

    def resettle_objects(t, args, kwargs, result):
        t.counts["scenegen.resettle.objects"] += args[0].object_count

    def fps_points(t, args, kwargs, result):
        t.counts["sensor.fps.points_in"] += len(args[0])
        t.counts["sensor.fps.points_out"] += len(result)

    def plan_ok(t, args, kwargs, result):
        t.counts["plan_ok"] += bool(result.ok)

    def captured(t, args, kwargs, result):
        t.counts["captures"] += bool(result.captured_indices)

    for owner, attr, name, observe in [
        (excavation, "spawn_scene", "scenegen.spawn_scene", None),
        (repnet, "spawn_scene", "scenegen.spawn_scene", None),
        (excavation, "resettle", "scenegen.resettle", resettle_objects),
        (excavation, "observe", "sensor.observe", None),
        (repnet, "observe", "sensor.observe", None),
        (excavation, "scene_heightmap", "sensor.scene_heightmap", None),
        (sensor, "render_surface", "sensor.render_surface", None),
        (sensor, "fps", "sensor.fps", fps_points),
        (repnet, "label_observation", "sensor.label_observation", None),
        (RepNet, "encode", "repnet.encode", None),
        (RepNet, "forward", "repnet.forward", None),
        (repnet, "fps", "repnet.fps", None),
        (repnet, "ball_query", "repnet.ball_query", None),
        (repnet, "idw_weights", "repnet.idw_weights", None),
        (repnet, "eval_rep", "repnet.eval_rep", None),
        (nn, "backward", "nn.backward", None),
        (ParamStore, "adam_step", "nn.adam_step", None),
        (excavation, "plan_trajectory", "kinematics.plan_trajectory", plan_ok),
        (excavation, "execute_dig", "excavation.execute_dig", captured),
        (excavation, "capture_from_drag", "excavation.capture_from_drag", None),
        (PolicyCore, "act", "ppo.act", None),
        (ppo, "ppo_loss", "ppo.ppo_loss", None),
        (repnet, "save_scene", "scenegen.save_scene", None),
        (repnet, "load_scene", "scenegen.load_scene", None),
        (repnet, "save_xyzl", "geometry.save_xyzl", None),
        (repnet, "load_xyzl", "geometry.load_xyzl", None),
    ]:
        tracer.wrap(patches, owner, attr, name, observe)


def layer_metrics(tracer, overhead_pct: float, ref_s: float, extra: dict) -> dict[str, float]:
    stats = tracer.layer_stats()
    zero = {"calls": 0, "ms": 0.0, "ms_p50": 0.0, "self_ms": 0.0}
    values = {}
    for layer in TIMED_LAYERS + COUNTED_LAYERS:
        for stat, v in stats.get(layer, zero).items():
            values[f"{layer}.{stat}"] = v

    def calls(layer):
        return stats.get(layer, zero)["calls"]

    def share(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    values.update(
        {
            "scenegen.resettle.objects": c["scenegen.resettle.objects"],
            "sensor.fps.points_in": c["sensor.fps.points_in"],
            "sensor.fps.points_out": c["sensor.fps.points_out"],
            "sensor.renders_per_refresh": share(
                calls("sensor.render_surface") + calls("sensor.scene_heightmap"),
                calls("sensor.observe"),
            ),
            "kinematics.plan_trajectory.ok_frac": share(
                c["plan_ok"], calls("kinematics.plan_trajectory")
            ),
            "excavation.capture_frac": share(c["captures"], calls("excavation.execute_dig")),
            "workload.items_per_s_raw": extra.get("workload.items_per_s_raw", 0.0),
            "workload.capture_step_frac": extra.get("workload.capture_step_frac", 0.0),
            "trace.spans": len(tracer.spans),
            "trace.ref_loop_ms": 1e3 * ref_s,
            "trace.overhead_pct": overhead_pct,
        }
    )
    return values


class Phase:
    """Totals of one sequence of units, and the median reference loop time."""

    def __init__(self, results, refs) -> None:
        self.units = len(results)
        self.items = sum(r.items for r in results)
        self.failed = sum(r.failed for r in results)
        self.seconds = sum(r.seconds for r in results)
        self.ref_s = statistics.median(refs)
        self.rate = 0.0
        self.extra = {}


def run_units(wl, state, seed, rec, seconds=None, units=None, recorded=0, tracer=None) -> Phase:
    """Run units ``0, 1, ...`` for ``seconds`` (or exactly ``units`` of them).

    Units below ``recorded`` feed the recorder. Only the units themselves are
    timed; checks between them are not.
    """
    from workloads import UnitResult

    results = []
    refs = []
    with Patches() as patches:
        wl.install(patches, state, rec)
        if tracer is not None:
            install_trace(tracer, patches)
        start = time.perf_counter()
        u = 0
        while True:
            if units is not None:
                if u >= units:
                    break
            elif u > 0:
                # Stop when the next unit would more likely end past the time
                # than before it, so a run measures ``seconds`` on average.
                elapsed = time.perf_counter() - start
                ends_late = elapsed + 0.5 * elapsed / u >= seconds
                if elapsed >= 3 * seconds or (ends_late and wl.enough(state)):
                    break
            refs += reference_sample()
            rec.active = u < recorded
            try:
                results.append(wl.unit(state, seed, u, rec))
            except Exception:
                traceback.print_exc()
                n = wl.items_per_unit(state)
                results.append(UnitResult(n, n, 0.0))
            rec.active = False
            u += 1
    refs += reference_sample()
    phase = Phase(results, refs)
    if phase.seconds > 0:
        phase.rate, phase.extra = wl.throughput(state, phase.items, phase.seconds)
    return phase


def digest_run(name: str, tmp: str, traced: bool = False) -> str:
    """Digest of the fixed small run of ``name`` that ``digests.json`` records."""
    from workloads import TINY, WORKLOADS, Recorder

    wl = WORKLOADS[name](TINY, tmp)
    state = wl.setup(DIGEST_SEED)
    rec = Recorder(tmp)
    units = DIGEST_UNITS[name]
    phase = run_units(
        wl, state, DIGEST_SEED, rec, units=units, recorded=units,
        tracer=Tracer() if traced else None,
    )
    digest = rec.digest()
    wl.close(state)
    if phase.failed:
        raise RuntimeError(f"{name}: digest run failed {phase.failed} of {phase.items} checks")
    return digest


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs across numpy releases
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "profile": "desk",
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tmp: str, size=None) -> dict:
    """Set up, measure and check one workload; ``size`` defaults to the full one."""
    from workloads import FULL, WORKLOADS, Recorder

    wl = WORKLOADS[workload](size or FULL, tmp)
    tracer = Tracer()
    setup_times = []
    setup_refs = []
    # A traced run traces its one setup too: rep-train loads its dataset there.
    with Patches() as patches:
        if trace:
            install_trace(tracer, patches)
        for _ in range(1 if trace else SETUP_REPEATS):
            setup_refs += reference_sample()
            start = time.perf_counter()
            state = wl.setup(seed)
            setup_times.append(time.perf_counter() - start)
    out = {"correct": True, "notes": []}
    if trace:
        rec_plain, rec_traced = Recorder(tmp), Recorder(tmp)
        plain = run_units(wl, state, seed, rec_plain, seconds=seconds / 2, recorded=1)
        traced = run_units(
            wl, state, seed, rec_traced, units=plain.units, recorded=1, tracer=tracer
        )
        # Both passes are scaled by their reference loop, as end-to-end times are.
        overhead = 100.0 * (
            (traced.seconds / traced.ref_s) / (plain.seconds / plain.ref_s) - 1.0
        )
        out["metrics"] = layer_metrics(tracer, overhead, plain.ref_s, plain.extra)
        if rec_plain.digest() != rec_traced.digest():
            out["correct"] = False
            out["notes"].append("traced run changed the outputs of unit 0")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))
        phases = [plain, traced]
    else:
        phase = run_units(wl, state, seed, Recorder(tmp), seconds=seconds)
        setup_s = statistics.median(setup_times)
        setup_ref_s = statistics.median(setup_refs)
        out["metrics"] = {
            "items_per_s": phase.rate * phase.ref_s / REF_NOMINAL_S,
            "setup_s": setup_s * REF_NOMINAL_S / setup_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out["summary"] = {
            ISSUE_NAMES[workload]: out["metrics"]["items_per_s"],
            f"{ISSUE_NAMES[workload]}.unscaled": phase.rate,
            **phase.extra,
            "setup_s.unscaled": setup_s,
            "ref_loop_ms": 1e3 * phase.ref_s,
        }
        phases = [phase]
    wl.close(state)
    out["attempted"] = sum(p.items for p in phases)
    out["failed"] = sum(p.failed for p in phases)
    with open(DIGESTS) as fh:
        expected = json.load(fh).get(workload)
    digest = digest_run(workload, tmp)
    out["digest"] = digest
    if digest != expected:
        out["correct"] = False
        out["notes"].append(f"behaviour digest {digest} differs from digests.json {expected}")
    if out["failed"]:
        out["correct"] = False
        out["notes"].append(f"{out['failed']} of {out['attempted']} items failed a check")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DIGEST_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "digrl")):
        print(f"perfbench: no digrl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = environment(args.workload, args.seed)
    record = {"env": env, **out}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    error_frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print("env " + json.dumps(env))
    for name, value in out.get("summary", {}).items():
        print(f"{args.workload} {name} {value:.6g}")
    print(f"{args.workload} error_frac {error_frac:.6g}")
    for note in out["notes"]:
        print(f"{args.workload} FAIL {note}")
    print(json.dumps(result_line(out, bool(args.trace))))
    return 0 if out["correct"] else 1


def result_line(out: dict, trace: bool) -> dict:
    """The JSON object printed last: every per-layer or end-to-end metric."""
    specs = per_layer_specs() if trace else END_TO_END
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit} for name, unit, _ in specs},
    }


if __name__ == "__main__":
    sys.exit(main())
