"""Every package module uses every name it imports, and every private
top-level function is referenced somewhere in the package. Start-up loads
only what a run uses: no ARPACK, scipy.linalg, scipy.special or csgraph
for the demo and the dense path.

No linter runs on this tree, and folding or deleting code tends to leave
imports and helpers behind; this walks each module's syntax tree instead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermifock

PACKAGE = sorted(Path(fermifock.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read as `name` or `module.name`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_private_functions_are_referenced(path):
    private = {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set().union(*(referenced_names(ast.parse(p.read_text())) for p in PACKAGE))
    assert private - used == set()


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of the modules and members an import statement reaches."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_only_spectra_imports_the_sparse_eigensolvers():
    """One eigensolver policy: every ARPACK run goes through spectra.ground_state,
    so no other module may import scipy.sparse.linalg or a name from it."""
    importers = {
        path.name
        for path in PACKAGE
        if any(
            name == "scipy.sparse.linalg" or name.startswith("scipy.sparse.linalg.")
            for name in imported_modules(ast.parse(path.read_text()))
        )
    }
    assert importers == {"spectra.py"}


HEAVY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.special", "scipy.sparse.csgraph")
STARTUP_CHILD = """
import json, sys, tempfile
import numpy as np, scipy.sparse as sp
import fermifock.cli
from fermifock import cli, spectra

heavy = sys.argv[1:]
with tempfile.TemporaryDirectory() as out:
    demo_exit = cli.main(["--report-dir", out, "fermi-demo", "--variant", "regular"])
chain = sp.diags([np.full(29, 0.5), np.linspace(-1.0, 1.0, 30), np.full(29, 0.5)], [-1, 0, 1])
dense = spectra.ground_state(chain.tocsr())
after_dense = [name for name in heavy if name in sys.modules]
fermifock_modules = sorted(name for name in sys.modules if name.startswith("fermifock."))
lanczos = spectra.ground_state(sp.diags(np.arange(64.0)).tocsr(), dense_cap=8)
print(json.dumps({
    "demo_exit": demo_exit, "methods": [dense.method, lanczos.method],
    "after_dense": after_dense, "fermifock": fermifock_modules,
    "arpack_after_lanczos": "scipy.sparse.linalg" in sys.modules,
}))
"""


def test_demo_and_dense_runs_load_no_eigensolver_modules():
    """One child imports the CLI, runs fermi-demo and a dense ground solve, and
    must not have loaded ARPACK, scipy.linalg, scipy.special or csgraph; its
    Lanczos solve then loads ARPACK. The CLI import still loads every module."""
    src = str(Path(fermifock.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, *HEAVY],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["demo_exit"] == 0
    assert got["methods"] == ["dense", "lanczos"]
    assert got["after_dense"] == []
    assert got["fermifock"] == [f"fermifock.{path.stem}" for path in MODULES]
    assert got["arpack_after_lanczos"]
