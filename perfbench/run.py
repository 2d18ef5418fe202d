"""Benchmark of rfdestab: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.

A workload is a series of passes, each the same work on new inputs drawn
from the seed.  With ``--trace 0`` the run makes passes for ``--seconds``
seconds (at least MIN_PASSES) and reports the end-to-end metrics:
``pass_s``, the median seconds of a pass; ``setup_s``, the median seconds
that SETUP_CHILDREN fresh interpreters running this process's set-up spend
from their creation to their first timed call (interpreter start, imports,
bundle builds, first inputs); ``peak_rss_mb``.  With ``--trace 1`` it makes
pass 0 three times traced and three times untraced, in turn, and reports the
per-layer metrics of the first traced run, ``trace.pass_s`` and
``trace.overhead_s`` (median traced minus median untraced seconds); it fails
when a count differs between traced runs.

Times are scaled CPU seconds, not wall seconds.  A run is one thread, and on
a machine shared with other tenants its wall time mostly measures their load.
Its CPU seconds still move with the load of whoever shares its physical core,
so each task of a pass, and each set-up, is bracketed by calibration loops,
and its CPU seconds are scaled by CALIBRATION_S over the loops' mean CPU
seconds: a time reads as CPU seconds on a machine where the loop takes
CALIBRATION_S.

Every output is checked, and the reference tasks are compared with
``reference.json``.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (the checks) and ``metrics``.
``--record-reference`` rewrites this workload's entry of ``reference.json``
after confirming the reference tasks against the certificate runners.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# One process, one thread: BLAS must not spread over the cores, so that set-up
# time and peak memory belong to this run alone.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_CHILDREN = 7  # fresh interpreters whose set-up is timed
MIN_PASSES = 3
TRACED_RUNS = 3  # of pass 0, alternating with untraced runs of it
WORKLOAD_NAMES = ("long-window-ensemble", "falsify-sweep", "probe-queries")
CALIBRATION_S = 0.1  # CPU seconds of calibrate() on the machine times refer to


def calibrate():
    """CPU seconds of a fixed loop of interpreted arithmetic and small NumPy
    calls, the mix the workloads run: the machine's present speed."""
    a = np.linspace(0.0, 1.0, 64)
    c0 = time.process_time()
    s = 0
    for i in range(600_000):
        s += i * i
    for _ in range(12_000):
        a = np.sin(a) + 0.5
    return time.process_time() - c0


def scaled(cpu_s, *calibrations):
    """``cpu_s`` CPU seconds as seconds at the reference speed, given the
    calibrations taken around them."""
    return cpu_s * CALIBRATION_S * len(calibrations) / sum(calibrations)


def run_tasks(tasks):
    """Run every task once, each between two calibrations: ({name: output},
    scaled seconds, CPU seconds, wall seconds).  An exception is kept as the
    task's output."""
    outputs = {}
    seconds = cpu = wall = 0.0
    before = calibrate()
    for task in tasks:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            outputs[task.name] = task.run()
        except Exception as exc:  # a failing call is a failed check, not a crash
            outputs[task.name] = exc
        task_cpu, task_wall = time.process_time() - c0, time.perf_counter() - w0
        after = calibrate()
        seconds += scaled(task_cpu, before, after)
        cpu += task_cpu
        wall += task_wall
        before = after
    return outputs, seconds, cpu, wall


def check_tasks(workloads, tasks, outputs, reference=None):
    """All checks of the tasks' outputs: [(task, label, ok, detail)].  With a
    ``reference`` mapping, each task's summary is compared with it too."""
    results = []
    for task in tasks:
        out = outputs[task.name]
        if isinstance(out, Exception):
            results.append((task.name, "raised no exception", False, repr(out)))
            continue
        for label, ok, detail in task.check(out):
            results.append((task.name, label, bool(ok), detail))
        if reference is not None:
            if task.name not in reference:
                results.append((task.name, "matches reference", False, "no reference recorded"))
            else:
                diffs = workloads.compare(reference[task.name], task.summary(out), *task.ref_tol)
                results.append((task.name, "matches reference", not diffs, diffs[:3]))
    return results


def setup_in_child(args):
    """Set-up seconds of a fresh interpreter running this script's set-up,
    calibrated here before it starts and after it ends."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = calibrate()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    cpu_s = float(done.stdout.split()[-1])
    return scaled(cpu_s, before, calibrate())


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rfdestab" / "__init__.py").is_file():
        print(f"error: no rfdestab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import rfdestab
    import workloads
    from spans import NullTracer, Tracer

    if Path(rfdestab.__file__).resolve().parent != SRC / "rfdestab":
        print(f"error: imported rfdestab from {rfdestab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    passes, reference_tasks = make(args.seed, NullTracer())
    tasks = next(passes)
    setup_cpu_s = time.process_time()  # since this process was created
    if args.setup_only:
        print(repr(setup_cpu_s))
        return 0

    # passes until --seconds have gone by, at least MIN_PASSES of them
    checks, pass_s, pass_cpu_s, pass_wall_s = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        outputs, seconds, cpu, wall = run_tasks(tasks)
        pass_s.append(seconds)
        pass_cpu_s.append(cpu)
        pass_wall_s.append(wall)
        checks += check_tasks(workloads, tasks, outputs)
        del outputs
        if args.trace or (len(pass_s) >= MIN_PASSES and time.perf_counter() >= deadline):
            break
        tasks = next(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref_outputs = run_tasks(reference_tasks)[0]
    checks += check_tasks(workloads, reference_tasks, ref_outputs, recorded.get(args.workload, {}))

    print("environment " + json.dumps(environment(args.seed)))
    if args.trace:
        # pass 0 again, traced and untraced in turn; each traced run has a
        # fresh tracer, and every count must repeat across the traced runs
        untraced_s, traced = pass_s[:1], []
        for k in range(TRACED_RUNS):
            tracer = Tracer()
            traced_passes, _ = make(args.seed, tracer)
            traced_tasks = next(traced_passes)
            outputs, seconds, _, _ = run_tasks(traced_tasks)
            checks += check_tasks(workloads, traced_tasks, outputs)
            traced.append((seconds, tracer, workloads.layer_metrics(tracer)))
            if k + 1 < TRACED_RUNS:
                outputs, seconds, _, _ = run_tasks(tasks)
                checks += check_tasks(workloads, tasks, outputs)
                untraced_s.append(seconds)
        _, tracer, metrics = traced[0]
        for _, _, again in traced[1:]:
            for name, (value, unit) in metrics.items():
                if unit in ("count", "knots"):
                    other = again[name][0]
                    checks.append(("determinism", f"{name} repeats", value == other, f"{value} vs {other}"))
        for what, value, unit, low, high in workloads.crosscheck(tracer):
            where = "within" if low <= value <= high else "OUTSIDE"
            print(f"crosscheck {what}: {value:.4g} {unit}, {where} the roadmap range {low:g}-{high:g} {unit}")
        traced_s = statistics.median(seconds for seconds, _, _ in traced)
        print(f"pass 0 seconds untraced: {', '.join(f'{s:.4g}' for s in untraced_s)}; "
              f"traced: {', '.join(f'{s:.4g}' for s, _, _ in traced)}")
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(untraced_s), "s")
    else:
        # set-up is timed in this process and in fresh interpreters; the median is kept
        setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        for what, values in (("seconds", pass_s), ("CPU seconds", pass_cpu_s), ("wall seconds", pass_wall_s)):
            print(f"passes = {len(values)}, {what} each: {', '.join(f'{s:.4g}' for s in values)}")
        print(f"set-up seconds: {', '.join(f'{s:.4g}' for s in setups)} "
              f"(this process: {setup_cpu_s:.4g} CPU seconds)")
        metrics = {
            "pass_s": (statistics.median(pass_s), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    failed = [c for c in checks if not c[2]]
    for task, label, _, detail in failed:
        print(f"FAILED check [{task}] {label}: {detail}")
    print(f"checks attempted={len(checks)} failed={len(failed)} check_fail_ratio={len(failed) / len(checks):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    if args.record_reference:
        runner = workloads.runner_checks(args.workload, ref_outputs)
        bad = [c for c in runner if not c[1]]
        for label, _, detail in bad:
            print(f"FAILED {label}: {detail}", file=sys.stderr)
        if bad or any(isinstance(o, Exception) for o in ref_outputs.values()):
            return 1
        recorded[args.workload] = {t.name: t.summary(ref_outputs[t.name]) for t in reference_tasks}
        REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(reference_tasks)} reference tasks in {REFERENCE}", file=sys.stderr)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
