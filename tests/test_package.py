"""Source-level checks of the package: the package exports exactly its
modules' public APIs, every exported checker is reached by a certificate, the
command line, a demo or the benchmark, and no module keeps an import it does
not use."""

import ast
import re
from pathlib import Path

import rfdestab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rfdestab"
CHECKER_PREFIXES = ("check_", "verify_", "fit_", "estimate_", "converse_")


def _exported(path: Path) -> list:
    """The string entries written in a module's ``__all__``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # a literal list, or in __init__.py the strings its union expression names
            return [n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)]
    return []


def _star_imported(path: Path) -> list:
    """The modules ``path`` re-publishes with ``from .module import *``, in order."""
    return [
        node.module
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.names[0].name == "*"
    ]


def _module_apis() -> list:
    """The literal ``__all__`` entries of the modules the package re-publishes, in import order."""
    return [name for m in _star_imported(PACKAGE / "__init__.py") for name in _exported(PACKAGE / f"{m}.py")]


def test_package_exports_are_the_module_apis():
    modules = _star_imported(PACKAGE / "__init__.py")
    with_api = {p.stem for p in PACKAGE.glob("*.py") if _exported(p)} - {"__init__", "cli"}
    assert sorted(modules) == sorted(with_api)
    assert rfdestab.__all__ == ["__version__"] + _module_apis()
    assert len(set(rfdestab.__all__)) == len(rfdestab.__all__)
    missing = [name for name in rfdestab.__all__ if not hasattr(rfdestab, name)]
    assert not missing, missing


def test_every_exported_checker_is_reached():
    callers = [PACKAGE / "examples.py", PACKAGE / "cli.py"]
    callers += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text() for p in callers)
    checkers = [n for n in _module_apis() if n.startswith(CHECKER_PREFIXES)]
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
            if path == PACKAGE / "__init__.py" and node.level == 1 and node.names[0].name == "*":
                continue  # the package re-publishes its modules' public APIs
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set(_exported(path))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused
