"""The benchmark's hooks still fit the package.

``perfbench/run.py --trace 1`` wraps package names layer by layer, and the
rl-dense workload checks every dig through the positional ``scene`` and
``bucket`` arguments of ``execute_dig``. A renamed name or a reordered
signature would pass every other test and break the benchmark, so a few env
steps run here with all of those hooks installed.
"""

import importlib
import os

import pytest

from digrl.config import get_profile
from digrl.excavation import EnvConfig, ExcavationEnv
from digrl.sensor import SensorConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
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
        env = ExcavationEnv(
            get_profile("desk"),
            CAPTURE_SEED,
            EnvConfig(count_range=(5, 8)),
            SensorConfig(fps_target=512),
        )
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
