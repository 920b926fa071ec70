"""Every package module uses every name it imports.

No linter runs on this tree, and folding or deleting code tends to leave
imports behind; this walks each module's syntax tree instead.
"""

import ast
from pathlib import Path

import pytest

import fermifock

MODULES = sorted(
    path for path in Path(fermifock.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`; `import a.b as c` binds `c`
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == set()
