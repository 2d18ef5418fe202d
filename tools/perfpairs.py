"""Alternating parent/change pairs of the benchmark, with their summary.

    python3 tools/perfpairs.py PARENT CHANGE --workload NAME --pairs 10 \
        --first-seed 5101 --seconds 10

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
exits without a JSON result, is listed.  It reads the checkouts and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

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
