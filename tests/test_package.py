"""Source-level checks of the package: the package exports exactly its
modules' public APIs, every exported checker is reached by a certificate, the
command line or a demo (not by the benchmark), README's claims table names the
bundles' certificates and its module table states the falsifiers' block size,
no module keeps an import it does not use or imports SciPy, only `_draw_runs`
draws an ensemble's signals, only `_sample_blocks` and `sample_history` draw
sampled windows, no private function or method keeps a parameter
it does not read, and every private definition is referenced."""

import ast
import re
from pathlib import Path

import rfdestab
from rfdestab import REGISTRY, build_example
from rfdestab.lyapunov import FALSIFY_BLOCK, FALSIFY_KEEP_BYTES

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
    # demos count until every checker is held by a certificate; the benchmark
    # only times checkers, so it holds no claim and does not count
    callers = [PACKAGE / "examples.py", PACKAGE / "cli.py"] + sorted((ROOT / "demos").glob("*.py"))
    text = "\n".join(p.read_text() for p in callers)
    checkers = [n for n in _module_apis() if n.startswith(CHECKER_PREFIXES)]
    assert checkers
    unreached = [n for n in checkers if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert not unreached, f"exported but run by no certificate, command or demo: {unreached}"


def test_readme_claims_table_names_the_bundles_certificates():
    # a row: | claim | `bundle` `certificate` | `checker` ... | criteria |
    row = re.compile(r"^\| [^|]+ \| `(example-[\d.]+)` `([\w-]+)` \| `(\w+)`[^|]* \| ([^|]+) \|$", re.M)
    rows = row.findall((ROOT / "README.md").read_text())
    bundled = [(name, c.name, c.checker) for name in REGISTRY for c in build_example(name).certificates]
    assert [found[:3] for found in rows] == bundled
    # each ;-separated part of the criteria that starts with a number names
    # an acceptance criterion with a test of its own
    held = set(re.findall(r"^def test_criterion_(\d+)_", (ROOT / "tests" / "test_acceptance.py").read_text(), re.M))
    for *cert, criteria in rows:
        for part in criteria.split(";"):
            number = re.match(r"\s*(\d+)\b", part)
            if number:
                assert number[1] in held, f"{cert}: no test for criterion {number[1]}"


def test_readme_states_the_falsifier_block_size():
    text = (ROOT / "README.md").read_text()
    stated = re.findall(r"(\d+) samples at a time", text) + re.findall(r"(\d+)-sample blocks", text)
    assert len(stated) == 2 and {int(n) for n in stated} == {FALSIFY_BLOCK}, stated


def test_readme_states_the_kept_draw_budget():
    stated = re.findall(r"take at most (\d+) MiB", (ROOT / "README.md").read_text())
    assert [int(n) * 2**20 for n in stated] == [FALSIFY_KEEP_BYTES], stated


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


def test_no_unreferenced_private_definitions():
    # every private function, method or class is read somewhere in the
    # package (by name or as an attribute), not only defined
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not unreferenced, unreferenced


def _callers(name: str) -> list:
    """``module.function`` of each call of ``name`` in the package (as a
    name or an attribute), by its innermost enclosing function."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if name in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                around = [fn for fn in functions if fn.lineno <= call.lineno <= fn.end_lineno]
                inner = max(around, key=lambda fn: fn.lineno).name if around else "<module>"
                callers.append(f"{path.stem}.{inner}")
    return callers


def test_only_draw_runs_draws_ensemble_signals():
    # one ensemble draw: outside signals.py, which defines it, _draw_signal is
    # called only inside simulator._draw_runs, so a new draw loop fails here
    callers = [c for c in _callers("_draw_signal") if not c.startswith("signals.")]
    assert callers and set(callers) == {"simulator._draw_runs"}, callers


def test_only_sample_blocks_and_sample_history_draw_points():
    # one falsifier draw: _draw_points is called only by lyapunov._sample_blocks
    # and by history.sample_history, its draw of one window, so a second
    # block draw fails here
    callers = _callers("_draw_points")
    assert sorted(callers) == ["history.sample_history", "lyapunov._sample_blocks"], callers


def _unbounded_caches(path: Path) -> list:
    """Each ``functools.cache`` in a module, and each ``functools.lru_cache``
    not called with an integer ``maxsize`` (bare, ``maxsize=None`` or none
    given), by the module's own names for them."""
    tree = ast.parse(path.read_text())
    modules, names = {"functools"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((alias.asname or alias.name, alias.name) for alias in node.names)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = names.get(node.id)
        else:
            continue
        call = calls.get(id(node))
        size = None if call is None else (call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"])
        bounded = size and isinstance(size[0], ast.Constant) and type(size[0].value) is int
        if name == "cache" or (name == "lru_cache" and not bounded):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_every_cache_is_bounded():
    # memory stays bounded: a cache keeps at most an integer number of entries
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _unbounded_caches(path)]
    assert not found, found
