"""``tools/perfpairs.py`` on two stand-in checkouts whose benchmark prints a
fixed result: the sides alternate, each pair runs one seed, and the summary
counts the change's wins and lists every failing run."""

import runpy
from pathlib import Path

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
