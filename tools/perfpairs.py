"""Alternating parent/change pairs of the benchmark, with their summary.

    python3 tools/perfpairs.py PARENT CHANGE --workload NAME --pairs 10 \
        --first-seed 5101 --seconds 10
    python3 tools/perfpairs.py PARENT CHANGE --workload NAME --first-seed 5101 \
        --in-process 30

PARENT and CHANGE are two checkouts of the repository (a ``git worktree``
or an unpacked ``git archive`` of each commit).  Pair i runs
``perfbench/run.py --workload NAME --seed FIRST_SEED + i --seconds S`` once
in each checkout, one after the other: the parent first in even pairs, the
change first in odd ones, so that a drift in the machine's speed falls on
both sides alike.  The script prints each pair as it finishes, then, for
each end-to-end metric, each side's median and quartiles, the number of
pairs the change wins (every end-to-end metric is lower-is-better; a tie
wins for neither), and whether the medians differ by more than the parent's
interquartile range.  Every run whose ``failed`` count is above 0, or that
exits without a JSON result, is listed.

With ``--in-process ROUNDS`` both sides run in this one interpreter instead
(:func:`in_process`): each checkout's package and its ``perfbench``
workloads are loaded under names of their own, and round i times pass 0 of
seed FIRST_SEED + i on each side, alternating which side goes first.  Runs in
separate processes spread by 10-30 % on a shared machine; one interpreter
running both sides in turn sees the same drift on both.  Each round's task
summaries must be equal on the two sides.  The script prints each round's
CPU seconds, then the median, quartiles and wins of the per-round
change/parent ratio.

It reads the checkouts and writes nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the checkout's benchmark: its last output line, parsed
    (``correct``, ``attempted``, ``failed`` and ``metrics``), or a record
    with ``failed`` None and the run's error output when there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failed": None, "metrics": {}, "error": done.stderr.strip()[-500:]}


def _shown(side: str, run: dict) -> str:
    metrics = " ".join(f"{name}={m['value']:.4g}" for name, m in run["metrics"].items())
    return f"{side} {metrics} failed={run['failed']}"


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list) -> list:
    """The summary lines of ``pairs``, each a {"parent": run, "change": run}
    of :func:`run_once` records, in pair order."""
    lines = []
    names = [name for name in pairs[0]["parent"]["metrics"] if all(
        name in pair[side]["metrics"] for pair in pairs for side in SIDES)]
    for name in names:
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        change = (cm - pm) / pm * 100.0 if pm else float("nan")
        lines.append(
            f"{name}: parent {pm:.4g} [IQR {p1:.4g}-{p3:.4g}], change {cm:.4g} [IQR {c1:.4g}-{c3:.4g}], "
            f"{change:+.1f} %; change lower in {wins} of {len(pairs)} pairs; "
            f"|median difference| {'>' if abs(cm - pm) > p3 - p1 else '<='} parent IQR {p3 - p1:.4g}"
        )
    for i, pair in enumerate(pairs):
        for side in SIDES:
            run = pair[side]
            if run["failed"] is None:
                lines.append(f"pair {i} {side}: no result: {run.get('error', '')}")
            elif run["failed"] > 0:
                lines.append(f"pair {i} {side}: failed = {run['failed']}")
    return lines


def _load(name: str, path: Path, package_dir: Path | None = None):
    """The module (a package when ``package_dir`` is given) at ``path``,
    executed under ``name`` in ``sys.modules``."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, side: str) -> tuple:
    """The ``workloads`` and ``spans`` modules of the checkout's ``perfbench``,
    bound to the checkout's own ``rfdestab``: the package is loaded as
    ``perfpairs_<side>_rfdestab``, and ``workloads`` is executed while
    ``rfdestab`` names it."""
    package = checkout / "src" / "rfdestab"
    prefix = f"perfpairs_{side}_"
    rf = _load(prefix + "rfdestab", package / "__init__.py", package)
    saved = sys.modules.get("rfdestab")
    sys.modules["rfdestab"] = rf
    try:
        workloads = _load(prefix + "workloads", checkout / "perfbench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["rfdestab"]
        else:
            sys.modules["rfdestab"] = saved
    return workloads, _load(prefix + "spans", checkout / "perfbench" / "spans.py")


def timed_pass(side: tuple, workload: str, seed: int) -> tuple:
    """CPU seconds of pass 0 of ``workload`` at ``seed`` on one side, and its
    tasks' summaries, [(name, summary)]; a task that raises stops the script."""
    workloads, spans = side
    passes, _ = workloads.WORKLOADS[workload](seed, spans.NullTracer())
    tasks = next(passes)
    c0 = time.process_time()
    outputs = [task.run() for task in tasks]
    seconds = time.process_time() - c0
    return seconds, [(task.name, task.summary(out)) for task, out in zip(tasks, outputs)]


def in_process(parent: Path, change: Path, workload: str, rounds: int, first_seed: int):
    """Rounds of pass 0 on both sides in this interpreter: yields a line per
    round, then the summary of the change/parent ratio.  An untimed round at
    ``first_seed - 1`` comes first, so that neither side pays for first
    calls.  Two sides' summaries that differ are an AssertionError."""
    sides = {side: load_side(path, side) for side, path in zip(SIDES, (parent, change))}
    ratios = []
    for i in range(-1, rounds):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        done = {side: timed_pass(sides[side], workload, seed) for side in order}
        if done["parent"][1] != done["change"][1]:
            raise AssertionError(f"round {i} seed {seed}: the task summaries differ")
        if i >= 0:
            ratios.append(done["change"][0] / done["parent"][0])
            yield (f"round {i} seed {seed}: " + ", ".join(f"{side} {done[side][0]:.4g} s" for side in order)
                   + f", ratio {ratios[-1]:.4f}")
    q1, q2, q3 = quartiles(ratios)
    wins = sum(ratio < 1.0 for ratio in ratios)
    yield (f"change/parent CPU seconds of a pass: median {q2:.4f} [IQR {q1:.4f}-{q3:.4f}] "
           f"({(q2 - 1.0) * 100.0:+.1f} %); change lower in {wins} of {rounds} rounds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--in-process", type=int, metavar="ROUNDS",
                        help="run ROUNDS alternating rounds of pass 0 in this interpreter")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.in_process is not None and args.in_process < 1:
        parser.error("--in-process must be at least 1")
    needed = ("workloads.py", "spans.py") if args.in_process else ("run.py",)
    for checkout in (args.parent, args.change):
        for name in needed:
            if not (checkout / "perfbench" / name).is_file():
                parser.error(f"{checkout} has no perfbench/{name}")

    if args.in_process:
        for line in in_process(args.parent, args.change, args.workload, args.in_process, args.first_seed):
            print(line, flush=True)
        return 0

    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        pairs.append(pair)
        print(f"pair {i} seed {seed}: " + ", ".join(_shown(side, pair[side]) for side in order), flush=True)
    for line in summarize(pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
