"""``tools/perfpairs.py`` on two stand-in checkouts whose benchmark prints a
fixed result: the sides alternate, each pair runs one seed, and the summary
counts the change's wins and lists every failing run.  In process, each
stand-in's workloads run its own package, and the two sides' task summaries
must agree."""

import runpy
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perfpairs.py"
perfpairs = runpy.run_path(str(TOOL))

FAKE_RUN = """import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{SIDE} {seed}\\n")
print("noise")
print(json.dumps({"correct": True, "attempted": 4, "failed": FAILED,
                  "metrics": {"pass_s": {"value": PASS_S + 0.001 * seed, "unit": "s"}}}))
"""


def _checkout(root: Path, side: str, pass_s: float, failed: str) -> Path:
    run = root / side / "perfbench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(FAKE_RUN.replace("SIDE", repr(side)).replace("PASS_S", repr(pass_s)).replace("FAILED", failed))
    return root / side


def test_pairs_alternate_and_the_summary_counts_wins(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 0.6, "0")
    change = _checkout(tmp_path, "change", 0.5, "1 if seed == 8 else 0")
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "4", "--first-seed", "7", "--seconds", "1"]
    assert perfpairs["main"](argv) == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 7", "change 7", "change 8", "parent 8", "parent 9", "change 9", "change 10", "parent 10",
    ]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 0 seed 7: parent pass_s=0.607 failed=0, change pass_s=0.507")
    summary = [line for line in out if line.startswith("pass_s:")]
    assert summary == [
        "pass_s: parent 0.6085 [IQR 0.6078-0.6092], change 0.5085 [IQR 0.5078-0.5092], -16.4 %; "
        "change lower in 4 of 4 pairs; |median difference| > parent IQR 0.0015"
    ]
    assert out[-1] == "pair 1 change: failed = 1"


FAKE_PACKAGE = """SIDE = SIDE_NAME
LOOPS = LOOP_COUNT
"""

FAKE_WORKLOADS = """import rfdestab as rf
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Task:
    name: str
    run: Callable
    summary: Callable


def make(seed, tracer):
    def run():
        with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
            log.write(f"{rf.SIDE} {seed}\\n")
        return sum(i * i for i in range(rf.LOOPS))

    def passes():
        while True:
            yield [Task("sum", run, lambda out: {"seed": seed, "out": SUMMARY})]

    return passes(), []


WORKLOADS = {"w": make}
"""

FAKE_SPANS = """class NullTracer:
    pass
"""


def _package_checkout(root, side, loops, summary="None"):
    package, bench = root / side / "src" / "rfdestab", root / side / "perfbench"
    package.mkdir(parents=True)
    bench.mkdir()
    (package / "__init__.py").write_text(FAKE_PACKAGE.replace("SIDE_NAME", repr(side)).replace("LOOP_COUNT", str(loops)))
    (bench / "workloads.py").write_text(FAKE_WORKLOADS.replace("SUMMARY", summary))
    (bench / "spans.py").write_text(FAKE_SPANS)
    return root / side


def test_in_process_rounds_alternate_in_one_interpreter(tmp_path, capsys):
    # each side's workloads run its own package; the parent's pass does ten times the work
    parent = _package_checkout(tmp_path, "parent", 200_000)
    change = _package_checkout(tmp_path, "change", 20_000)
    before = sys.modules.get("rfdestab")
    argv = [str(parent), str(change), "--workload", "w", "--first-seed", "7", "--in-process", "3"]
    assert perfpairs["main"](argv) == 0
    assert sys.modules.get("rfdestab") is before
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "change 6", "parent 6", "parent 7", "change 7", "change 8", "parent 8", "parent 9", "change 9",
    ]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:3]] == ["round 0 seed 7", "round 1 seed 8", "round 2 seed 9"]
    assert out[0].startswith("round 0 seed 7: parent ") and out[1].startswith("round 1 seed 8: change ")
    assert len(out) == 4 and out[3].startswith("change/parent CPU seconds of a pass: median 0.")
    assert out[3].endswith("change lower in 3 of 3 rounds")


def test_in_process_refuses_rounds_whose_summaries_differ(tmp_path):
    parent = _package_checkout(tmp_path, "parent", 1_000, summary="rf.SIDE")
    change = _package_checkout(tmp_path, "change", 1_000, summary="rf.SIDE")
    with pytest.raises(AssertionError, match="round -1 seed 6: the task summaries differ"):
        perfpairs["main"]([str(parent), str(change), "--workload", "w", "--first-seed", "7", "--in-process", "2"])
