"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-table1 --seed 0 --seconds 24 --trace 0

A run builds the workload's inputs from ``--seed``, computes the serial
in-process reference once (outside the timed region), then runs timed
passes through the workload's entry point, as many as fill
``--seconds`` at the workload's nominal pass time, checking every
pass's exports against the reference.

- ``--trace 0`` reports the end-to-end metrics: the median over passes
  of cells/s and sim-hours/s, the median set-up time of several fresh
  interpreters, and peak RSS.
- ``--trace 1`` runs untraced passes for the tracing-overhead baseline,
  then traced passes (span wrappers installed, see ``tracer.py``), and
  reports the per-layer metrics of ``ledger.py``. The traced exports
  must equal the untraced ones and the layer ledger must account for
  the traced wall time.

Human-readable results go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed. All
scratch files (result cache, checkpoints, spilled spans) live in a
fresh directory under ``.perfbench-tmp/`` in the checkout, removed on
exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

#: The end-to-end metrics: (name, unit).
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("sim_hours_per_s", "sim-h/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5

#: Environment variables that change what is measured; recorded as set.
RECORDED_ENV = ("CMFUZZ_FAST_PATH", "CMFUZZ_EXECUTOR_BACKEND")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="timed seconds to fill; sets the pass count "
                        "(seconds / the workload's nominal pass time, >= 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="also write the traced spans to this JSON file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale every campaign horizon (smoke tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no repro sources under %s\n" % SRC)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Body of one fresh interpreter: everything up to the first cell."""
    require_source()
    import repro  # noqa: F401
    from repro.parallel.registry import mode_names
    from repro.targets.registry import target_names

    import workloads

    target_names()
    mode_names()
    workloads.create(args.workload, args.seed, args.scale).build()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(args: argparse.Namespace) -> list:
    """Seconds from spawning a fresh interpreter to its first cell, each probe."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", repr(args.scale)]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed (exit %s)"
                                   % proc.returncode)
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------


def quartiles(values) -> tuple:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    recorded = {name: value for name, value in sorted(os.environ.items())
                if name in RECORDED_ENV
                or (name.startswith("CMFUZZ_") and name.endswith("_MODULES"))}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "env": recorded}


def print_table(title: str, rows) -> None:
    print(title)
    print("  %-30s %-10s %12s %12s %12s %4s"
          % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, unit, samples in rows:
        q1, median, q3 = quartiles(samples)
        print("  %-30s %-10s %12.5g %12.5g %12.5g %4d"
              % (name, unit, median, q1, q3, len(samples)))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def pass_count(workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` alone, not on how fast this run
    happens to go, so both sides of a comparison do the same work (and
    metrics that grow with the work done, like peak RSS, stay comparable).
    """
    return max(1, round(seconds / workload.nominal_pass_s))


def timed_passes(workload, workdir: str, passes: int, reference,
                 runner_for=None) -> list:
    """Run ``passes`` passes: [(PassResult, Check, extra)].

    Each pass starts from a collected heap.
    """
    from workloads import check_pass

    done = []
    for _ in range(passes):
        runner, finish = runner_for() if runner_for else (None, None)
        gc.collect()
        result = workload.run_pass(workdir, runner=runner)
        extra = finish(result) if finish else None
        done.append((result, check_pass(result, reference), extra))
    return done


def run(args: argparse.Namespace, workdir: str) -> int:
    import workloads

    env = environment()
    workload = workloads.create(args.workload, args.seed, args.scale)
    print("workload %s (seed %d): %s" % (workload.name, args.seed, workload.why))
    print("nproc %s, python %s, commit %s, env %s"
          % (env["nproc"], env["python"], env["commit"],
             json.dumps(env["env"], sort_keys=True)))

    setup = [] if args.trace else measure_setup(args)
    workload.build()
    reference = workload.reference()
    problems = ["reference cell %d failed: %s" % item
                for item in sorted(reference.failures.items())]
    passes = pass_count(workload, args.seconds)
    untraced = timed_passes(workload, workdir, passes, reference)
    traced = []
    if args.trace:
        traced = traced_passes(args, workload, workdir, reference, untraced,
                               passes)

    attempted = sum(check.attempted for _, check, _ in untraced + traced)
    failed = sum(check.failed for _, check, _ in untraced + traced)
    for number, (_, check, _) in enumerate(untraced + traced):
        problems.extend("pass %d: %s" % (number, p) for p in check.problems)

    if args.trace:
        metrics, more = report_traced(untraced, traced)
        problems.extend(more)
    else:
        metrics = report_untraced(untraced, setup)
    print("pass wall s: untraced %s%s" % (
        " ".join("%.3f" % r.wall_s for r, _, _ in untraced),
        "; traced " + " ".join("%.3f" % r.wall_s for r, _, _ in traced)
        if traced else ""))
    print("cells attempted %d, failed %d (cell_failure_ratio %.4f)"
          % (attempted, failed, failed / attempted if attempted else 1.0))
    for problem in problems:
        print("FAIL: %s" % problem)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


def report_untraced(passes, setup) -> dict:
    rows = {
        "cells_per_s": [r.cells / r.wall_s for r, _, _ in passes],
        "sim_hours_per_s": [r.sim_hours / r.wall_s for r, _, _ in passes],
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb()],
    }
    resumes = [s for r, _, _ in passes for s in r.resumes]
    units = dict(END_TO_END)
    print_table("end-to-end (samples: passes; set-up: fresh interpreters)",
                [(name, units[name], rows[name]) for name, _ in END_TO_END]
                + ([("resume_s", "s", resumes)] if resumes else []))
    return {name: {"value": statistics.median(rows[name]), "unit": unit}
            for name, unit in END_TO_END}


def traced_passes(args, workload, workdir: str, reference, untraced,
                  passes: int) -> list:
    """Traced passes; each carries its per-layer metrics."""
    import ledger
    import tracer as tracing
    import workloads

    baseline = statistics.median(r.wall_s for r, _, _ in untraced)
    spill = os.path.join(workdir, "spans")
    os.makedirs(spill, exist_ok=True)
    tracer = tracing.Tracer()
    dumps = []

    def runner_for():
        tracer.clear()
        if isinstance(workload, workloads.CheckpointResume):
            runner = tracing.ResumeRunner(tracer, workloads.interrupt_and_resume)
        else:
            runner = tracing.CellRunner(tracer, spill)

        def finish(result):
            states = tracer.collect() + tracing.load_spills(spill)
            if args.trace_out:
                dumps.append({"wall_s": result.wall_s, "states": states})
            book = ledger.build_ledger(states, tracer.owner_pid,
                                       workload.lanes, result.wall_s)
            return book, ledger.layer_metrics(book, baseline, result.resumes)
        return runner, finish

    with tracer:
        done = timed_passes(workload, workdir, passes, reference, runner_for)
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "passes": dumps}, handle)
    return done


def report_traced(untraced, traced) -> tuple:
    import ledger

    problems = []
    identical = untraced[0][0].merged
    for number, (result, _, (book, _)) in enumerate(traced):
        if result.merged != identical:
            problems.append("traced pass %d export differs from the untraced "
                            "export" % number)
        if not book.ok:
            problems.append(
                "traced pass %d: layer self times plus idle account for "
                "%.1f%% of %d lane(s) x %.2f s" % (
                    number, 100 * book.ratio, book.lanes, book.wall_s))
    book = traced[-1][2][0]
    print("layer ledger of the last traced pass: %d lane(s) x %.3f s = %.3f s"
          % (book.lanes, book.wall_s, book.capacity_s))
    print("  %-10s %12s %8s %14s" % ("layer", "lane self s", "share",
                                     "off-lane s"))
    for layer in ledger.LAYERS:
        seconds = book.lane_self.get(layer, 0.0)
        print("  %-10s %12.4f %7.1f%% %14.4f"
              % (layer, seconds, 100 * seconds / book.capacity_s,
                 book.off_lane_self.get(layer, 0.0)))
    print("  %-10s %12.4f %7.1f%%" % ("idle", book.idle_s,
                                     100 * book.idle_s / book.capacity_s))
    print("  %-10s %12.4f %7.1f%%" % ("unexplained", book.unattributed_s,
                                     100 * book.unattributed_s / book.capacity_s))
    per_pass = [values for _, _, (_, values) in traced]
    print_table("per-layer (samples: traced passes)",
                [(name, unit, [values[name] for values in per_pass])
                 for name, unit in ledger.PER_LAYER])
    medians = ledger.median_metrics(per_pass)
    return ({name: {"value": medians[name], "unit": unit}
             for name, unit in ledger.PER_LAYER}, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    require_source()
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    os.makedirs(os.path.join(workdir, "tmp"))
    os.environ["CMFUZZ_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(workdir, "tmp")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
