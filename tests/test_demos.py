"""Smoke test: the demos run to completion.

``run_certificates.py`` is left out: criterion 9 already runs every
certificate through the command line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "simulate_delayed_system.py",
        "converse_energy_construction.py",
        "fit_and_check_envelopes.py",
        "robustness_and_continuity.py",
        "falsify_decay_inequalities.py",
    ],
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
