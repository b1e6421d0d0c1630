"""The benchmark's hooks and digests still fit the package.

``perfbench/run.py --trace 1`` wraps package names layer by layer, and the
rl-dense workload checks every dig through the positional ``scene`` and
``bucket`` arguments of ``execute_dig``. A renamed name or a reordered
signature would pass every other test and break the benchmark, so a few env
steps run here with all of those hooks installed. Every benchmark run also
checks the behaviour digests of ``perfbench/digests.json``, which are
recomputed here too.
"""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from digrl.config import get_profile
from digrl.excavation import EnvConfig, ExcavationEnv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
_MISSING = object()

# Seed 3 captures on the third of these actions (see test_excavation.TestEnv).
CAPTURE_SEED = 3
ACTIONS = [[0.3, 0.0, 0.2], [-0.2, 0.4, 0.0], [0.6, -0.5, 0.8]]


@pytest.fixture
def perfbench(monkeypatch):
    """The ``run``, ``tracer`` and ``workloads`` modules of the benchmark."""
    # run.py caps the BLAS threads in os.environ on import; this puts them back.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(PERFBENCH)
    return tuple(importlib.import_module(name) for name in ("run", "tracer", "workloads"))


def test_hooks_check_digs_and_restore(perfbench, tmp_path):
    run, tracer, workloads = perfbench
    originals = {}

    class RecordingPatches(tracer.Patches):
        def wrap(self, owner, attr, make_wrapper):
            originals.setdefault((owner, attr), vars(owner).get(attr, _MISSING))
            super().wrap(owner, attr, make_wrapper)

    trace = tracer.Tracer()
    state = workloads.RlState(store=None, records=[])
    with RecordingPatches() as patches:
        run.install_trace(trace, patches)
        workloads.RlDense(workloads.TINY, str(tmp_path)).install(
            patches, state, workloads.Recorder(str(tmp_path))
        )
        profile = replace(get_profile("desk"), fps_target=512)
        env = ExcavationEnv(profile, CAPTURE_SEED, EnvConfig(count_range=(5, 8)))
        env.reset()
        for action in ACTIONS:
            env.step(action)
    assert state.steps == len(ACTIONS)
    assert state.cap_steps >= 1
    assert state.violations == 0
    spans = {span[0] for span in trace.spans}
    assert {
        "scenegen.spawn_scene",
        "scenegen.resettle",
        "sensor.observe",
        "sensor.render_surface",
        "sensor.fps",
        "kinematics.plan_trajectory",
        "excavation.execute_dig",
        "excavation.capture_from_drag",
    } <= spans
    assert len(originals) > 20
    for (owner, attr), saved in originals.items():
        assert vars(owner).get(attr, _MISSING) is saved, f"{owner.__name__}.{attr}"


def test_digests_match_the_record(tmp_path):
    """``digest_run`` of every workload gives the digest that ``digests.json`` records.

    Checkpoint bytes depend on the BLAS thread count, so the digests come
    from a child process whose BLAS and OpenMP pools have one thread, as in
    a benchmark run, whatever the test process uses.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [PERFBENCH, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    script = (
        "import json, sys, run\n"
        "print(json.dumps({n: run.digest_run(n, sys.argv[1]) for n in run.DIGEST_UNITS}))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        assert json.loads(child.stdout.splitlines()[-1]) == json.load(fh)
