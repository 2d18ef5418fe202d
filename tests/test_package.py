"""Source-level checks of the package: the package exports exactly its
modules' public APIs, every exported checker is reached by a certificate, the
command line, a demo or the benchmark, README's claims table names the
bundles' certificates, no module keeps an import it does not use or imports
SciPy, and no private function or method keeps a parameter it does not
read."""

import ast
import re
from pathlib import Path

import rfdestab
from rfdestab import REGISTRY, build_example

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


def test_readme_claims_table_names_the_bundles_certificates():
    # a row: | claim | `bundle` `certificate` | `checker` ... | criterion |
    row = re.compile(r"^\| [^|]+ \| `(example-[\d.]+)` `([\w-]+)` \| `(\w+)`", re.M)
    rows = row.findall((ROOT / "README.md").read_text())
    bundled = [(name, c.name, c.checker) for name in REGISTRY for c in build_example(name).certificates]
    assert rows == bundled


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


def test_no_module_imports_scipy():
    # NumPy is the package's only dependency; SciPy is a test-only reference
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, found


def _unread_parameters(path: Path) -> list:
    """Parameters that a module-level private function or a method never reads
    (a method's ``self`` or ``cls`` aside)."""
    tree = ast.parse(path.read_text())
    functions = [(fn, False) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                    functions.append((fn, not static))
    unread = []
    for fn, bound in functions:
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params = params[1:] if bound else params
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({p})" for p in params if p not in read]
    return unread


def test_no_unread_parameters():
    unread = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _unread_parameters(path)]
    assert not unread, unread
