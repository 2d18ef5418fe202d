"""The benchmark's reference tasks (``perfbench/workloads.py``), run once at
their seed: each task's checks hold and its summary matches
``perfbench/reference.json``.  A change that breaks a call the benchmark
makes, or moves a recorded value, fails here.  Only reads ``perfbench/``."""

import json
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module named ``perfbench_<name>``, run
    from its source, so no bytecode cache is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load("workloads")
spans = _load("spans")
RECORDED = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_tasks_pass_their_checks_and_match_the_reference(name):
    _, tasks = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, spans.NullTracer())
    recorded = RECORDED[name]
    assert sorted(task.name for task in tasks) == sorted(recorded)
    for task in tasks:
        out = task.run()
        failed = [(label, detail) for label, ok, detail in task.check(out) if not ok]
        assert not failed, f"{task.name}: {failed}"
        diffs = workloads.compare(recorded[task.name], task.summary(out), *task.ref_tol)
        assert not diffs, f"{task.name}: {diffs[:3]}"
