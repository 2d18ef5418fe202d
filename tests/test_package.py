"""Source-level checks of the package: every exported checker is reached by
a certificate, the command line, a demo or the benchmark, and no module keeps
an import it does not use.  Both tests read files only."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rfdestab"
CHECKER_PREFIXES = ("check_", "verify_", "fit_", "estimate_", "converse_")


def _exported(path: Path) -> list:
    """The string entries of a module's ``__all__``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_checker_is_reached():
    callers = [PACKAGE / "examples.py", PACKAGE / "cli.py"]
    callers += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text() for p in callers)
    checkers = [n for n in _exported(PACKAGE / "__init__.py") if n.startswith(CHECKER_PREFIXES)]
    assert checkers
    unreached = [n for n in checkers if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert not unreached, f"exported but run by no certificate, command, demo or benchmark: {unreached}"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set(_exported(path))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused
