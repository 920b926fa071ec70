"""Every package module uses every name it imports, every private
top-level function and every public function, class and method is
referenced somewhere in the package, and every parameter with a default is
passed by some call in the package or its tests. Start-up loads only what a
run uses: no ARPACK, scipy.linalg, scipy.special or csgraph for the demo, the
dense path or a dense-path `verify --suite all`, and no module imports
scipy.special at all. No module reads the environment, no function reads one
bundle's `h_total` twice, verify draws its bound checks' trial vectors
only in blocks, and the slice table evaluates the separable factor only
through the kernel spec.

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


def test_public_names_are_referenced():
    """Every public top-level function and class of a module, and every public
    method of its classes, is referenced in the package: as a name, an
    attribute or a `from ... import`, so a re-export in __init__ counts."""
    used = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        used |= referenced_names(tree)
        used |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    defined = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    unused = [label for label, name in defined if not name.startswith("_") and name not in used]
    assert unused == []


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


def test_only_config_builds_kernels_and_bundles():
    """One construction path: kernels and bundles come from a config, so in the
    package only config.py calls KernelSpec(...) or assemble_total(...)."""
    callers = {"KernelSpec": set(), "assemble_total": set()}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                callers.get(name, set()).add(path.name)
    assert callers == {"KernelSpec": {"config.py"}, "assemble_total": {"config.py"}}


def test_no_function_reads_h_total_twice():
    """HamiltonianBundle.h_total is built on every read (a sparse add), so a
    function that needs one bundle's H more than once binds it to a local: no
    function in the package reads `.h_total` twice off the same expression.
    mass_sweep reads it once per point and once off the limit bundle."""
    repeated = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads = [
                    ast.unparse(read.value) for read in ast.walk(node)
                    if isinstance(read, ast.Attribute) and read.attr == "h_total"
                ]
                repeated.extend(
                    f"{path.name}:{node.name}:{owner}"
                    for owner in sorted(set(reads)) if reads.count(owner) > 1
                )
    assert repeated == []


def test_verify_draws_trial_vectors_only_in_blocks():
    """verify.py calls standard_normal only in the block iterator of the bound
    checks' trial rows, in check_interpolation (kernel-space trials) and in
    check_smeared_norms (mode-space draws): no check may bring back a
    trials x dim draw held whole."""
    callers = set()
    for node in ast.parse((Path(fermifock.__file__).parent / "verify.py").read_text()).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "standard_normal":
                callers.add(getattr(node, "name", "<module>"))
    assert callers == {"_trial_blocks", "check_interpolation", "check_smeared_norms"}


def test_slice_profiles_evaluate_the_factor_only_through_the_kernel_spec():
    """separable_slice_profiles (its nested helpers too) calls no RadialProfile,
    plateau_cutoff or np.exp: the separable factor has one evaluation,
    KernelSpec._coordinate_factor, which the table fills its buffers through."""
    tree = ast.parse((Path(fermifock.__file__).parent / "kernels.py").read_text())
    [table] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "separable_slice_profiles"
    ]
    called = {ast.unparse(call.func) for call in ast.walk(table) if isinstance(call, ast.Call)}
    assert "spec._coordinate_factor" in called
    assert called & {"RadialProfile", "plateau_cutoff", "np.exp"} == set()


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_no_module_reads_the_environment():
    """Reports depend only on the config, the arguments and the BLAS build: no
    package module reads or sets an environment variable through os, neither
    as `os.environ` nor as an imported `environ`."""
    readers = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ENVIRONMENT_READS
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ENVIRONMENT_READS for alias in node.names)
            ):
                readers.add(f"{path.name}:{node.lineno}")
    assert readers == set()


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
long_chain = sp.diags([np.ones(63), np.arange(64.0), np.ones(63)], [-1, 0, 1])
lanczos = spectra.ground_state(long_chain.tocsr(), dense_cap=8)
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


# the triple shape of the acceptance instance with 2, 3 and 2 modes: dim 128,
# below the dense cap, so every ground solve of verify's suites is dense
DENSE_VERIFY_CONFIG = {
    "species": [
        {"mass": 1.0, "points": [[0.3, 0.02, -0.01], [0.6, -0.03, 0.04]],
         "weights": [0.8, 0.9], "spins": [0.5]},
        {"mass": 1.0, "points": [[0.2, 0.35, 0.1], [0.4, 0.35, 0.1], [0.6, 0.35, 0.1]],
         "weights": [0.2, 0.2, 0.2], "spins": [0.5], "chains": [[0, 1, 2]]},
        {"mass": 0.7, "points": [[0.42, 0.08, 0.03], [0.1, 0.52, 0.18]],
         "weights": [0.9, 0.8], "spins": [0.5]},
    ],
    "kernels": [
        {"kind": "power", "nus": [0.6, 0.6, 0.6], "lam": 2.5, "created": [0, 1, 2]},
        {"kind": "power", "nus": [0.6, 0.6, 0.6], "lam": 2.5, "created": [0]},
    ],
    "coupling": 0.6,
    "mass_grid": {"species": 1, "start": 1.0, "stop": 0.001, "count": 6},
    "infrared": {"slice_species": 1, "r": 1.9},
}
VERIFY_CHILD = """
import json, sys, tempfile
from fermifock import cli

config, heavy = sys.argv[1], sys.argv[2:]
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["--report-dir", out, "verify", "--suite", "all", "--config", config])
    with open(out + "/verify_all.json") as fh:
        failures = json.load(fh)["failures"]
loaded = [name for name in heavy if name in sys.modules]
print(json.dumps({"exit": code, "failures": failures, "loaded": loaded}))
"""


def test_dense_verify_run_loads_no_eigensolver_or_special_modules(tmp_path):
    """verify --suite all on a dense-path input loads none of ARPACK,
    scipy.linalg, scipy.special or csgraph: the Hermite bound's level sum is
    computed in kernels, not through scipy's zeta."""
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(DENSE_VERIFY_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(Path(fermifock.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", VERIFY_CHILD, str(config), *HEAVY],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"exit": 0, "failures": 0, "loaded": []}


def test_no_module_imports_scipy_special():
    """The package computes its one special function, the odd-level lattice
    sum, itself: no module imports scipy.special or a name from it."""
    importers = {
        path.name
        for path in PACKAGE
        if any(
            name == "scipy.special" or name.startswith("scipy.special.")
            for name in imported_modules(ast.parse(path.read_text()))
        )
    }
    assert importers == set()


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """(function name, position in a call or None when keyword-only, name)
    of every parameter with a default; a method's `self` or `cls` takes no
    position in a call."""
    out = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = [a.arg for a in positional[:1]] in (["self"], ["cls"])
            positional = positional[int(bound and isinstance(owner, ast.ClassDef)):]
            first = len(positional) - len(args.defaults)
            out.extend((node.name, i, positional[i].arg) for i in range(first, len(positional)))
            out.extend(
                (node.name, None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            )
    return out


def passed_arguments(tree: ast.Module) -> dict[str, set]:
    """Per called name, the positions and keywords some call passes; a
    `*args` or `**kwargs` argument counts as passing everything."""
    passed = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        got = passed.setdefault(name, set())
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            got.add("*")
        got.update(range(len(node.args)))
        got.update(k.arg for k in node.keywords if k.arg)
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call in the package or its tests overrides is a
    constant in disguise: it belongs in a module constant, not in a signature."""
    calls = {}
    for path in PACKAGE + sorted(Path(__file__).parent.glob("*.py")):
        for name, got in passed_arguments(ast.parse(path.read_text())).items():
            calls.setdefault(name, set()).update(got)
    unused = [
        f"{path.stem}.{function}({parameter})"
        for path in PACKAGE
        for function, position, parameter in defaulted_parameters(ast.parse(path.read_text()))
        if not calls.get(function, set()) & {"*", parameter, position}
    ]
    assert unused == []
