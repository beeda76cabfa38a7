"""Self-tests of the benchmark at reduced size (T = 5*10^4, max period 3).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every declared metric is emitted with its unit, that every
output check and digest passes at the default seed and at another seed,
that broken outputs are caught, that the host-speed sampler disarms its
timer, that the tracer leaves the package as it found it, and that the
benchmark refuses to run without the package.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Tracer  # noqa: E402


def bench(cwd, workload, seed, trace, smoke=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_and_passes(workload, trace):
    proc = bench(ROOT, workload, run.DEFAULT_SEED, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.coverage"] >= 0.95
        assert metrics["trace.absent_entry_points"] == 0
        assert metrics["fail_frac"] == 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_passes_at_another_seed(workload):
    proc = bench(ROOT, workload, 7, 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"], proc.stderr


def corrupt(text):
    """Change one number the semantic checks look at."""
    for key in ("multiplicity", "fiber_size", "degree"):
        match = re.search(rf'"{key}": (\d+)', text)
        if match:
            return text[:match.start(1)] + str(int(match.group(1)) + 1) + text[match.end(1):]
    values = json.loads(text)
    return json.dumps(["0"] + values[1:])


def test_checks_catch_broken_outputs():
    sys.path.insert(0, str(run.SRC))
    for name in WORKLOAD_NAMES:
        sl, workload = run.setup(name, run.DEFAULT_SEED, workloads.SMOKE,
                                 run.WORK / f"test-{name}")
        reference = run.load_reference("smoke", name, run.DEFAULT_SEED)
        for op in workload.ops:
            text, error = run.run_op(sl, op)
            assert error is None and op.check(text)[0] == [], op.name
            semantic = run.Loop(sl, workload, reference=None)
            semantic.verify(op, corrupt(text), None)
            assert semantic.failed == 1, op.name
            digest = run.Loop(sl, workload, reference)
            digest.verify(op, text, None)
            digest.verify(op, text + " ", None)
            assert digest.failed == 1, op.name


def test_speed_region_samples_and_disarms_its_timer():
    with speed.Region() as region:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            speed.reference_loop()
        wall = time.perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.Region.active is None
    assert len(region.samples) >= 5                 # one at each end, the rest from the timer
    assert 0 < region.spent < wall and region.net(wall) == wall - region.spent
    assert region.at_reference(wall) > 0


def test_tracer_restores_the_package():
    sys.path.insert(0, str(run.SRC))
    sl = run.import_sftlift()
    before = (sl.codes.compute_degree, sl.fibers.compute_degree,
              sl.joinings._ViabilityWalk.__dict__["walk"],
              sl.measures.EmpiricalDistribution.__dict__["from_indices"])
    patches = Patches(Tracer())
    patches.install()
    assert sl.fibers.compute_degree is not before[1]
    patches.remove()
    after = (sl.codes.compute_degree, sl.fibers.compute_degree,
             sl.joinings._ViabilityWalk.__dict__["walk"],
             sl.measures.EmpiricalDistribution.__dict__["from_indices"])
    assert all(a is b for a, b in zip(before, after))
    assert patches.absent == []


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, WORKLOAD_NAMES[0], run.DEFAULT_SEED, 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
