"""nlsmarket benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload of workloads.py for S seconds from the root of a source
checkout, closed loop: each operation is a batch job run through
``nlsmarket.cli.main`` and waited for before the next starts. Every
operation's outputs are checked (exit code, finite values, manifest
digests, byte-identical repeats, ladder gates, error against a stored
tol-1e-9 reference); an operation failing any check counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, taken from traced operations (spans.py) alternating with
untraced ones, whose difference is the tracing overhead. Lines before it,
prefixed ``#``, record the environment, every raw sample and the
deterministic counters. ``--smoke`` shortens every horizon for the
benchmark's own tests; its numbers are not measurements.

The end-to-end times are seconds at a reference machine speed. A shared
vCPU runs the same code up to 1.7 times slower for seconds to minutes at a
time, which put 12-27% between the medians of 40-second runs. So a fixed
calibration kernel that uses nothing of nlsmarket is timed before and after
every timed operation, and each operation's wall time is scaled by
CAL_REF_S over the mean of the two. A change to the program moves the
operation and not the kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
PROBE_TIMEOUT = 60.0
CAL_ITERS = 10_000
# The calibration kernel's seconds at the reference speed; 0.2 s is about
# its time on the 2-vCPU Xeon box the benchmark was defined on.
CAL_REF_S = 0.2
# stop a run early once this many operations have failed
MAX_FAILURES = 3
# the traced run's span self times must cover this share of its wall time
MIN_SELF_COVERAGE = 0.9

SETUP_PROBE = """\
import sys
from nlsmarket.cli import load_config
from nlsmarket.grid import make_grid
from nlsmarket.market import init_state
config = load_config(sys.argv[1])
make_grid(config.s0, config.s1, config.n)
init_state(config)
"""


def note(label: str, value) -> None:
    print(f"# {label}: {json.dumps(value, sort_keys=True)}")


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like the program's own work:
    numpy calls on 30-element arrays driven from a Python loop."""
    field = np.full(30, 1.0 + 0.5j)
    count = 0
    start = time.perf_counter()
    for i in range(CAL_ITERS):
        lap = np.roll(field, -1) - 2.0 * field + np.roll(field, 1)
        _ = 1j * (0.5 * lap - np.abs(field) ** 2 * field)
        count += i % 7  # some plain interpreter work too
    return time.perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S * 2.0 / (cal_before + cal_after)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD's commit, read from .git without starting git, whose child
    process would count in peak_rss_mb."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        return "none (not a git checkout)"
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlsmarket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {key: os.environ.get(key, "unset") for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


class Runner:
    """Runs and checks operations of one workload; keeps their results."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []  # run-level faults that are not one operation's
        self.first = None  # Outcome of the first passing operation
        self.walls = []  # untraced wall seconds
        self.ref_walls = []  # the same at the reference speed
        self.busy_shares = []
        self.traced_walls = []
        self.traced_counters = []
        self.overheads = []  # traced / the untraced just before it, minus one

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"operation {self.attempted} failed: {message}", file=sys.stderr)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"benchmark fault: {message}", file=sys.stderr)

    def op(self, argvs=None, instrument=None):
        """Run one operation and check it; returns (wall, outcome) or None."""
        from workloads import CheckFailed

        from nlsmarket import cli

        self.attempted += 1
        outdir = self.workdir / f"op{self.attempted}"
        argvs = (argvs or self.workload.argvs)(outdir)
        try:
            with instrument or contextlib.nullcontext():
                start = time.perf_counter()
                codes = [cli.main(argv) for argv in argvs]
                wall = time.perf_counter() - start
            if any(codes):
                raise CheckFailed(f"exit codes {codes}")
            outcome = self.workload.check(outdir)
            if not outcome.ref_err <= self.workload.ref_err_gate:
                raise CheckFailed(f"ref_err {outcome.ref_err:.6g} over the gate "
                                  f"{self.workload.ref_err_gate:g}")
            if self.first is None:
                self.first = outcome
            elif outcome.digests != self.first.digests:
                raise CheckFailed("data files differ from the run's first operation")
            elif outcome.counters != self.first.counters:
                raise CheckFailed(f"counters {outcome.counters} differ from the run's first "
                                  f"operation {self.first.counters}")
            return wall, outcome
        except CheckFailed as err:
            self.fail(str(err))
        except Exception:  # a crash of the program is a failed operation
            self.fail(traceback.format_exc())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return None

    def plain(self):
        done = self.op()
        if done is None:
            return None
        wall, outcome = done
        self.walls.append(wall)
        workers = getattr(self.workload, "workers", 1)
        self.busy_shares.append(outcome.busy / (workers * wall))
        return wall

    def traced(self, tracer, counters):
        from spans import Instrumented

        done = self.op(instrument=Instrumented(tracer, counters))
        taken = counters.take()
        if done is None:
            return None
        wall, outcome = done
        for key, value in outcome.counters.items():
            if taken[key] != value:
                self.fail(f"traced {key}={taken[key]} but outputs say {value}")
                return None
        if self.traced_counters and taken != self.traced_counters[0]:
            self.fail(f"traced counters {taken} differ from {self.traced_counters[0]}")
            return None
        self.traced_walls.append(wall)
        self.traced_counters.append(taken)
        return wall

    def loop(self, seconds: float, traced=None) -> None:
        """Closed loop for about ``seconds``: no operation starts that would,
        at the last one's length, end more than half its length past the
        end. With a tracer, alternate untraced and traced operations, at
        least one of each. The calibration kernel runs between operations."""
        start = time.perf_counter()
        cal = calibrate()
        last_untraced = None
        i = 0
        while self.failed < MAX_FAILURES:
            op_start = time.perf_counter()
            is_traced = bool(traced) and i % 2 == 1
            wall = self.traced(*traced) if is_traced else self.plain()
            after = calibrate()
            i += 1
            ref = None if wall is None else at_reference_speed(wall, cal, after)
            if ref is not None and not is_traced:
                self.ref_walls.append(ref)
            elif ref is not None and last_untraced is not None:
                self.overheads.append(ref / last_untraced - 1.0)
            last_untraced = None if is_traced else ref
            cal = after
            now = time.perf_counter()
            if now - start + (now - op_start) / 2 >= seconds and (not traced or i >= 2):
                break

    def one_off(self, argvs):
        """One more checked operation, outside the loop; its wall seconds at
        the reference speed, or None when it failed."""
        before = calibrate()
        done = self.op(argvs)
        after = calibrate()
        return None if done is None else at_reference_speed(done[0], before, after)


def setup_seconds(config: Path):
    """Wall seconds of fresh interpreters doing the set-up, after one
    warm-up, raw and at the reference speed.

    The wait has no timeout because Popen.wait with one polls in steps of
    up to 50 ms; a watchdog kills a probe that hangs instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    ref_times = []
    cal = calibrate()
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(config)], env=env,
                                 stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(PROBE_TIMEOUT, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        elapsed = time.perf_counter() - start
        if code:
            raise subprocess.CalledProcessError(code, probe.args)
        after = calibrate()
        if i:
            times.append(elapsed)
            ref_times.append(at_reference_speed(elapsed, cal, after))
        cal = after
    return times, ref_times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(runner: Runner) -> dict:
    # read before the set-up probes, whose interpreters would count as children
    rss = peak_rss_mb()
    try:
        setup, ref_setup = setup_seconds(runner.workload.config)
    except (OSError, subprocess.SubprocessError) as err:
        runner.problem(f"set-up probe: {err}")
        setup, ref_setup = [], []
    note("setup_s_raw_samples", setup)
    note("setup_s_samples", ref_setup)
    note("wall_s_raw_samples", runner.walls)
    note("wall_s_samples", runner.ref_walls)
    return {
        "wall_s": median(runner.ref_walls),
        "setup_s": median(ref_setup),
        "ref_err": runner.first.ref_err if runner.first else 0.0,
        "peak_rss_mb": rss,
    }


def per_op(total, ops):
    value = total / ops if ops else 0.0
    return int(value) if value == int(value) else value


def per_layer(runner: Runner, tracer, extra: dict) -> dict:
    spans = tracer.by_name()
    ops = len(runner.traced_walls)
    wall = sum(runner.traced_walls)
    first = runner.first

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def us_per(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    counted = runner.traced_counters[0] if runner.traced_counters else {}
    steps = calls("integrator.step")
    rows = first.rows * ops if first else 0
    metrics = {
        "grid.second_difference.calls": per_op(calls("grid.second_difference"), ops),
        "grid.second_difference.self_us": us_per(self_s("grid.second_difference"),
                                                 calls("grid.second_difference")),
        "grid.second_difference.share": self_s("grid.second_difference") / wall if wall else 0.0,
        "ladder.rhs.calls": per_op(calls("ladder.rhs"), ops),
        "ladder.rhs.self_us": us_per(self_s("ladder.rhs"), calls("ladder.rhs")),
        "ladder.pack.calls": per_op(calls("ladder.pack"), ops),
        "ladder.pack.us": us_per(total("ladder.pack"), calls("ladder.pack")),
        "integrator.steps_accepted": counted.get("accepted", 0),
        "integrator.steps_rejected": counted.get("rejected", 0),
        "integrator.rhs_evals": counted.get("rhs_evals", 0),
        "integrator.rhs_evals_per_day": (counted.get("rhs_evals", 0) / first.sim_days
                                         if first and first.sim_days else 0.0),
        "integrator.segments": counted.get("segments", 0),
        "integrator.residue_steps": counted.get("residue_steps", 0),
        "integrator.step.self_us": us_per(self_s("integrator.step"), steps),
        "integrator.driver.self_us_per_step": us_per(self_s("integrator.driver"), steps),
        "market.coupled_rhs.calls": per_op(calls("market.coupled_rhs"), ops),
        "market.coupled_rhs.self_us": us_per(self_s("market.coupled_rhs"),
                                             calls("market.coupled_rhs")),
        "market.adapter.us": us_per(total("market.adapter"), calls("market.coupled_rhs")),
        "market.simulation.self_s": per_op(self_s("market.simulation"), ops),
        "cli.self_s": per_op(self_s("cli.main") + self_s("cli.run_market"), ops),
        "cli.write.s": per_op(total("cli.write"), ops),
        "cli.write.us_per_row": us_per(total("cli.write"), rows),
        "cli.write.bytes": first.bytes if first else 0,
        "cli.manifest.s": per_op(total("cli.manifest"), ops),
        "cli.sweep.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "cli.sweep.busy_share": extra.get("busy_share", 0.0),
        "trace.overhead_share": median(runner.overheads),
        "trace.self_coverage": sum(s for _, _, s in spans.values()) / wall if wall else 0.0,
    }
    layers = {}
    for name, (_, _, seconds) in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    note("layer_self_share", {k: v / wall for k, v in sorted(layers.items())} if wall else {})
    note("spans", {f"{name} <- {parent}": [c, t, s] for (name, parent), (c, t, s)
                   in sorted(tracer.spans().items(), key=lambda kv: str(kv[0]))})

    for name in runner.workload.exercised:
        if calls(name) == 0:
            runner.problem(f"layer span {name} recorded no calls")
    if ops and metrics["trace.self_coverage"] < MIN_SELF_COVERAGE:
        runner.problem(f"span self times cover {metrics['trace.self_coverage']:.3f} "
                    f"of the traced wall, under {MIN_SELF_COVERAGE}")
    return metrics


def sweep_extras(runner: Runner) -> dict:
    """Parallel efficiency against a 1-worker pass of the same seeds, busy
    share from the seeds' manifests, and a byte-identity check of each seed
    against a standalone run-market (by the run's digest comparison)."""
    workload = runner.workload
    if not hasattr(workload, "standalone_argvs"):
        return {}
    one = runner.one_off(lambda out: workload.argvs(out, workers=1))
    runner.one_off(workload.standalone_argvs)
    extra = {"busy_share": median(runner.busy_shares)}
    if one and runner.ref_walls:
        extra["parallel_efficiency"] = one / (workload.workers * median(runner.ref_walls))
    return extra


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nlsmarket" / "__init__.py").is_file():
        print(f"error: no nlsmarket source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    from spans import Counters, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    note("environment", environment(args.seed))

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        workload.setup(workdir)
        runner = Runner(workload, workdir)
        if args.trace:
            tracer = Tracer()
            runner.loop(args.seconds, traced=(tracer, Counters()))
            values = per_layer(runner, tracer, sweep_extras(runner))
            declared = spec["per_layer"]
        else:
            runner.loop(args.seconds)
            values = end_to_end(runner)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    if runner.first:
        note("counters_per_op", runner.first.counters)
        note("ref_err_gate", workload.ref_err_gate)
    note("ops", {"attempted": runner.attempted, "failed": runner.failed,
                 "failed_share": runner.failed / max(runner.attempted, 1),
                 "untraced": len(runner.walls), "traced": len(runner.traced_walls)})
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        runner.problem(f"metrics not computed: {missing}")
    result = {
        "correct": not runner.failed and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
