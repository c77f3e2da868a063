"""Public names stay resolvable: the imports of examples, benchmarks and
perfbench, and every ``__all__``.

Nothing else runs ``examples/`` in tier 1, nor ``benchmarks/`` (only
under ``--run-bench``) or ``perfbench/``, so deleting or renaming a name
could break them silently.  These checks only parse and import —
nothing there is executed — so they stay cheap enough for tier 1.

Two guards keep the surface from growing unseen: ``InfomapConfig``'s
field names are pinned, so a new knob needs a visible edit here, and
no function, method or class under ``src/repro`` may be named nowhere
but in its own definition.  A third stands in for a linter: no module
imports a name it never uses.
"""

import ast
import dataclasses
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import InfomapConfig

ROOT = Path(__file__).parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith("__main__")
)


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import; name None for ``import``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


#: Benchmark and perfbench files that import from ``repro``: they run
#: only under ``--run-bench`` or by hand, so a renamed private name they
#: import would otherwise pass tier 1.
BENCH_FILES = [
    path for top in ("benchmarks", "perfbench")
    for path in sorted((ROOT / top).rglob("*.py")) if _repro_imports(path)
]


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_bench_imports_resolve(path):
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


@pytest.mark.parametrize("module", ["repro", *MODULES])
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(InfomapConfig)] == [
        "threshold", "max_levels", "seed", "shuffle",
        "d_high", "rebalance", "min_label", "full_module_info",
        "move_rule", "delta_swap", "delegate_consensus", "prune_inactive",
        "round_threshold_rel", "max_rounds", "batch_size", "overlap",
        "backend", "warm_dirty_hops",
        "tracer", "live",
    ]


def test_no_definition_goes_unreferenced():
    words: Counter[str] = Counter()
    for top in ("src", "tests", "benchmarks", "perfbench", "examples",
                "scripts"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".sh"):
                words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    lonely = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # protocol methods are called implicitly
            if words[name] == 1:
                lonely.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not lonely, f"defined but never referenced: {lonely}"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the quoted parts of an annotation."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                tree = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names


def _unused_imports(path: Path) -> list[str]:
    """Names *path* imports but never uses.

    A use is a name in the code, in a quoted annotation or in
    ``__all__``; every import of a package ``__init__.py`` is a
    re-export.
    """
    if path.name == "__init__.py":
        return []
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items() if name not in used
    ]


def test_no_unused_imports():
    unused = [
        hit
        for top in ("src", "tests", "benchmarks", "examples", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
        for hit in _unused_imports(path)
    ]
    assert not unused, f"imported but never used: {unused}"
