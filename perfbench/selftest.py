"""Self-tests of the benchmark, on tiny sizes of each workload.

    python3 perfbench/selftest.py            # run the checks, exit 1 on failure
    python3 perfbench/selftest.py --record   # rewrite digests.json

The checks: the result line has the contract's schema and exactly the metric
names of BENCHMARK.json; the behaviour digest is the same on two runs and
with tracing on, and equals the recorded one; the tracer puts every patched
attribute back; and the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the BLAS thread cap before numpy is imported

sys.path.insert(0, run.SRC)

import digrl  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_names() -> None:
    spec = _benchmark_json()
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES, "workloads differ"
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == run.END_TO_END, "end_to_end metrics differ from BENCHMARK.json"
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == run.per_layer_specs(), "per_layer metrics differ from BENCHMARK.json"


def check_result(name: str, trace: bool, tmp: str) -> None:
    out = run.benchmark(name, seed=3, seconds=0.1, trace=trace, tmp=tmp, size=TINY)
    line = json.loads(json.dumps(run.result_line(out, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and line["failed"] == 0, out["notes"]
    assert line["correct"] is True, out["notes"]
    specs = run.per_layer_specs() if trace else run.END_TO_END
    assert list(line["metrics"]) == [n for n, _, _ in specs]
    for (metric, unit, _), value in zip(specs, line["metrics"].values()):
        assert set(value) == {"value", "unit"} and value["unit"] == unit, metric
        assert isinstance(value["value"], (int, float)), metric
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values()), line["metrics"]


def check_digests(name: str, tmp: str) -> None:
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)[name]
    first = run.digest_run(name, tmp)
    assert run.digest_run(name, tmp) == first, f"{name}: digest differs between two runs"
    assert run.digest_run(name, tmp, traced=True) == first, f"{name}: tracing changed the digest"
    assert first == recorded, f"{name}: digest {first} differs from digests.json {recorded}"


def check_restored() -> None:
    from digrl import excavation, nn, ppo, repnet, sensor

    owners = (excavation, nn, ppo, repnet, sensor, digrl.RepNet, digrl.PolicyCore,
              nn.ParamStore, digrl.ExcavationEnv)
    before = [dict(vars(o)) for o in owners]
    with Patches() as patches:
        run.install_trace(Tracer(), patches)
        assert vars(sensor)["fps"] is not before[4]["fps"]
    assert [dict(vars(o)) for o in owners] == before, "an attribute was not restored"


def check_refuses_without_package(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rl-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main(argv) -> int:
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        if argv[1:] == ["--record"]:
            digests = {name: run.digest_run(name, tmp) for name in NAMES}
            with open(run.DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1)
                fh.write("\n")
            print(json.dumps(digests, indent=1))
            return 0
        checks = [("names", check_names), ("restored", check_restored),
                  ("refuses without package", lambda: check_refuses_without_package(tmp))]
        for name in NAMES:
            checks.append((f"{name} digest", lambda n=name: check_digests(n, tmp)))
            for trace in (False, True):
                checks.append((f"{name} result trace={int(trace)}",
                               lambda n=name, t=trace: check_result(n, t, tmp)))
        failures = 0
        for label, check in checks:
            try:
                check()
                print(f"ok    {label}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {label}: {exc}")
        print(f"{len(checks) - failures} passed, {failures} failed")
        return 1 if failures else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
