"""Public names stay resolvable: examples' imports and every ``__all__``.

Nothing else runs ``examples/``, so deleting or renaming a public name
could break an example silently.  These checks only parse and import —
no example is executed — so they stay cheap enough for tier 1.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))
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


@pytest.mark.parametrize("module", ["repro", *MODULES])
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
