"""sftlift benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload mc-bernoulli --seed 0 --seconds 44 --trace 0

One process, one caller, no extra threads.  Each operation is an in-process
call to ``sftlift.cli.main(argv)`` with stdout captured, or a direct library
call where the CLI has no subcommand.  A round runs every operation of the
workload once in a fixed order; rounds repeat while the next one is
expected to end within ``--seconds`` of the start, with at least
``MIN_WARM_ROUNDS`` after the first.  Outputs are checked after each round,
outside the timed region.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their times, ``setup_s``
and ``round_s``, are wall times converted to a fixed CPU speed with the
host speed sampled while they run (see ``speed.py``); the plain wall times
are printed to stderr.  ``--trace 1`` alternates traced and untraced warm
rounds and reports the per-layer metrics of the traced ones (see
``spans.py``), with the first round of the process as ``cold_round_s`` and
the plain wall-time medians as ``round_wall_s`` and ``setup_wall_s``.
``--smoke`` runs reduced sizes, for the benchmark's own tests.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402  (benchmark-local module)
import workloads  # noqa: E402
from spans import OP_SPAN, Patches, Tracer, layer_metrics  # noqa: E402

MIN_WARM_ROUNDS = 2
SETUPS = 5                  # timed set-ups before the first round and again before each later one
STOP_MARGIN = 1.2           # the next loop iteration may take this much longer than the longest warm one
DEFAULT_SEED = 0            # the seed whose output digests are committed


def import_sftlift():
    """Import a fresh copy of the package from ``src/``."""
    for name in [n for n in sys.modules if n == "sftlift" or n.startswith("sftlift.")]:
        del sys.modules[name]
    import sftlift
    import sftlift.cli  # noqa: F401  (loads the CLI layer with the package)
    if not Path(sftlift.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sftlift imported from {sftlift.__file__}, not from {SRC}")
    return sftlift


def setup(name, seed, sizes, workdir):
    """Import the package and generate and write every input file."""
    sl = import_sftlift()
    workload = workloads.build(name, seed, sizes, workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workloads.write_inputs(workload, workdir)
    return sl, workload


def probe_setup(name, seed, sizes, workdir):
    """Time one more set-up, then put the loaded package back in place, so
    the rounds keep running on it; returns the set-up's wall time, less the
    speed samples taken in it, and its time at reference speed, in seconds."""
    live = {n: m for n, m in sys.modules.items() if n == "sftlift" or n.startswith("sftlift.")}
    with speed.Region() as region:
        start = time.perf_counter()
        setup(name, seed, sizes, workdir)
        elapsed = time.perf_counter() - start
    sys.modules.update(live)
    gc.collect()            # drop the probe's package now, not inside a timed round
    return region.net(elapsed), region.at_reference(elapsed)


def run_op(sl, op):
    """Run one operation; returns (output text, error message or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                out.write(op.call(sl))
                status = 0
            else:
                status = sl.cli.main(op.argv)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return out.getvalue(), f"raised {type(exc).__name__}: {exc}"
    if status != 0:
        return out.getvalue(), f"exit status {status}: {err.getvalue().strip()}"
    return out.getvalue(), None


class Loop:
    """Runs rounds of one workload and checks their outputs."""

    def __init__(self, sl, workload, reference, tracer=None):
        self.sl = sl
        self.workload = workload
        self.reference = reference            # op name -> sha256, or None
        self.tracer = tracer
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.mc_max_dev = 0.0
        self.peak_rss_mb = None                # after the first round, before its checks

    def round(self, traced=False, sampled=True):
        """One timed round; returns its wall time, less the speed samples
        taken in it, and its time at reference speed (None when traced or
        not ``sampled``), in seconds."""
        tracer = self.tracer if traced else None
        if traced or not sampled:
            wall, outputs = self._run_ops(tracer)
            at_reference = None
        else:
            with speed.Region() as region:
                wall, outputs = self._run_ops(None)
            wall, at_reference = region.net(wall), region.at_reference(wall)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += sum(len(text.encode()) for text, _ in outputs)
        for op, (text, error) in zip(self.workload.ops, outputs):
            self.verify(op, text, error)
        return wall, at_reference

    def _run_ops(self, tracer):
        outputs = []
        start = time.perf_counter()
        for op in self.workload.ops:
            if tracer is None:
                outputs.append(run_op(self.sl, op))
                continue
            tracer.op_id = len(tracer.spans)      # the operation span's own index
            tracer.op_names[tracer.op_id] = op.name
            idx = tracer.open(OP_SPAN)
            try:
                outputs.append(run_op(self.sl, op))
            finally:
                tracer.close(idx)
        return time.perf_counter() - start, outputs

    def verify(self, op, text, error):
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            try:
                checked, dev = op.check(text)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                checked, dev = [f"output has an unexpected shape: {exc!r}"], None
            problems += checked
            if dev is not None:
                self.mc_max_dev = max(self.mc_max_dev, dev)
        digest = hashlib.sha256(text.encode()).hexdigest()
        expected = self.first_digest.setdefault(op.name, digest)
        if self.reference is not None:
            expected = self.reference.get(op.name)
        if digest != expected:
            problems.append(f"output digest {digest[:12]} != reference {str(expected)[:12]}")
        if problems:
            self.failed += 1
            print(f"FAIL {op.name}: {'; '.join(problems)}", file=sys.stderr)


def load_reference(mode, name, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[mode][name]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (T = 5*10^4, max period 3) for self-tests")
    return parser.parse_args(argv)


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = WORK / f"{mode}-{args.workload}-{args.seed}"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the one dependency: imported once, outside setup_s)

    # The package is imported from cached bytecode, as an installed one is,
    # whatever PYTHONDONTWRITEBYTECODE says; the cache lives in WORK.  The
    # first set-up fills it and is not timed.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(WORK / "pycache")
    try:
        sl, workload = setup(args.workload, args.seed, sizes, workdir)
    except ImportError as exc:
        print(f"cannot import sftlift from {SRC}: {exc}", file=sys.stderr)
        return 2

    def probe_setups():
        return [probe_setup(args.workload, args.seed, sizes, workdir) for _ in range(SETUPS)]
    setup_times = probe_setups()

    tracer = Tracer() if args.trace else None
    patches = Patches(tracer) if tracer else None
    loop = Loop(sl, workload, load_reference(mode, args.workload, args.seed), tracer)

    # The first round runs in a fresh process and is reported apart.  Later
    # rounds alternate traced and untraced ones in a traced run.  Timed
    # set-ups before every round spread the set-up samples over the run, so
    # their median sees the same machine load as the rounds.  A loop
    # iteration (set-ups, round and checks) starts only if it is expected
    # to end within --seconds of the process start.
    walls = {"cold": [], "warm": [], "traced": []}     # (wall, at reference speed) pairs
    iteration = time.perf_counter()
    # The cold round is not sampled: the sampler's allocations move the
    # garbage collector's passes, and with them the peak memory read after
    # this round.
    walls["cold"].append(loop.round(sampled=False))
    iterations = [time.perf_counter() - iteration]
    schedule = ("traced", "warm") if args.trace else ("warm",)
    minimum = {"traced": 1, "warm": 1} if args.trace else {"warm": MIN_WARM_ROUNDS}
    for kind in itertools.cycle(schedule):
        enough = all(len(walls[k]) >= n for k, n in minimum.items())
        iteration = time.perf_counter()
        # The first iteration also computes the expected results; later ones
        # predict the next better.
        longest = max(iterations[1:] or iterations)
        if enough and iteration - start + STOP_MARGIN * longest > args.seconds:
            break
        setup_times += probe_setups()
        if kind == "traced":
            patches.install()
            try:
                walls["traced"].append(loop.round(traced=True))
            finally:
                patches.remove()
        else:
            walls["warm"].append(loop.round())
        iterations.append(time.perf_counter() - iteration)

    at_reference = {kind: [r for _w, r in pairs] for kind, pairs in walls.items()}
    walls = {kind: [w for w, _r in pairs] for kind, pairs in walls.items()}
    setup_walls = [w for w, _r in setup_times]
    if args.trace:
        traced = walls["traced"]
        metrics = {k: (v, unit_of(k)) for k, v in layer_metrics(tracer, traced).items()}
        metrics["cli.stdout_bytes"] = (tracer.counts["cli.stdout_bytes"] / len(traced), "byte")
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(walls["warm"]), "s")
        metrics["trace.absent_entry_points"] = (len(set(patches.absent)), "count")
        metrics["cold_round_s"] = (walls["cold"][0], "s")
        metrics["round_wall_s"] = (statistics.median(walls["warm"]), "s")
        metrics["setup_wall_s"] = (statistics.median(setup_walls), "s")
        metrics["mc_max_dev"] = (loop.mc_max_dev, "prob")
        metrics["fail_frac"] = (loop.failed / loop.attempted, "ratio")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{mode}-{args.workload}-{args.seed}.json")
        if patches.absent:
            print(f"absent entry points: {sorted(set(patches.absent))}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(r for _w, r in setup_times), "s"),
            "round_s": (statistics.median(at_reference["warm"]), "s"),
            "peak_rss_mb": (loop.peak_rss_mb, "MB"),
        }
    print(f"{args.workload} seed {args.seed}: {time.perf_counter() - start:.1f} s; "
          f"median wall of {len(setup_walls)} setups {statistics.median(setup_walls):.4f} s; "
          + ", ".join(f"{len(w)} {kind} rounds, wall {[round(x, 3) for x in w]}"
                      + (f" at reference speed {[round(x, 3) for x in at_reference[kind]]}"
                         if kind == "warm" else "")
                      for kind, w in walls.items() if w), file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.coverage":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
