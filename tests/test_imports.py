"""Every package module uses every name it imports, every private
top-level function and every public function, class and method is
referenced somewhere in the package, and every parameter with a default is
passed by some call in the package or its tests. Start-up loads only what a
run uses: no ARPACK, scipy.linalg, scipy.special or csgraph for the demo, the
dense path or a dense-path `verify --suite all`, and no module imports
scipy.special at all. The CLI casts no config value and reads its solver
flags only where it checks them, a bundle holds no per-term matrix, no
module reads the environment, no function reads one bundle's `h_total` twice, verify draws
its bound checks' trial vectors only in blocks, and the slice table
evaluates the separable factor only through the kernel spec. Only
`hamiltonian.hermitized` adds a matrix to its own adjoint, and in spectra only
`_block` reads `.imag`, where it picks a block's arithmetic. numpy's
deferred submodules that no run uses (`numpy.testing`, `numpy.f2py`,
`numpy.ma`, ...) stay unexecuted until a caller touches one.

No linter runs on this tree, and folding or deleting code tends to leave
imports and helpers behind; this walks each module's syntax tree instead.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

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


def test_cli_casts_no_config_value():
    """config reads every value against its table and hands it over typed, so
    cli.py wraps no read of the config (`cfg`, a section or an entry of it) in
    int(...) or float(...)."""
    cli = next(path for path in PACKAGE if path.name == "cli.py")
    config_names = {"cfg", "exps", "section", "entry"}
    casts = [
        ast.unparse(node) for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("int", "float")
        and any(getattr(name, "id", None) in config_names for name in ast.walk(node))
    ]
    assert casts == []


def test_cli_reads_the_solver_flags_only_where_it_checks_them():
    """--seed, --dense-cap and --r are read against their config keys' table
    entries in one function: cli.py reads `args.seed`, `args.dense_cap` and
    `args.r` nowhere else, and that function calls config.flag_value."""
    tree = ast.parse((Path(fermifock.__file__).parent / "cli.py").read_text())
    readers = {
        node.name
        for node in tree.body if isinstance(node, ast.FunctionDef)
        for read in ast.walk(node)
        if isinstance(read, ast.Attribute) and read.attr in ("seed", "dense_cap", "r")
        and getattr(read.value, "id", None) == "args"
    }
    assert readers == {"_solver_flags"}
    [checker] = [node for node in tree.body if getattr(node, "name", None) == "_solver_flags"]
    assert "flag_value" in referenced_names(checker)


EMITTERS = ("print", "makedirs", "_write_json", "_write_csv", "save_triplets")


def test_only_cli_main_prints_or_writes_reports():
    """A subcommand returns its reports and stdout lines, and cli.main alone
    emits them, once the subcommand has returned: in the package only main
    calls print, os.makedirs or a report writer, no cmd_* calls open, and open
    is called only by the writers and config.load_config."""
    callers = {}
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call):
                        func = call.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        callers.setdefault(name, set()).add(f"{path.stem}.{node.name}")
    assert {name: callers.get(name) for name in EMITTERS} == {name: {"cli.main"} for name in EMITTERS}
    assert callers["open"] == {
        "cli._write_json", "cli._write_csv", "fock.save_triplets", "config.load_config"
    }


def test_bundle_holds_the_interaction_as_one_matrix():
    """The kernel tensors and h_int are a bundle's only record of the
    interaction: no field holds a per-term matrix, h_int is its one sparse
    field, and a process term is rebuilt from its tensor when a check needs it."""
    from fermifock.config import build_bundle, normalize_config

    bundle = build_bundle(normalize_config(DENSE_VERIFY_CONFIG))
    held = {f.name: getattr(bundle, f.name) for f in dataclasses.fields(bundle)}
    sparse = [
        name for name, value in held.items()
        if any(sp.issparse(v) for v in (value if isinstance(value, (tuple, list)) else (value,)))
    ]
    assert sparse == ["h_int"]


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


def functions_with(path: Path, found) -> set[str]:
    """The functions of a module holding a node for which found(node) is true
    (an enclosing function holds its nested functions' nodes too)."""
    return {
        f"{path.stem}.{node.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(found(inner) for stmt in node.body for inner in ast.walk(stmt))
    }


def addends(node: ast.AST) -> list[str]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return addends(node.left) + addends(node.right)
    return [ast.unparse(node)]


def adds_own_adjoint(node: ast.AST) -> bool:
    """A sum with some addend X and X.conj().T among its addends."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    terms = addends(node)
    return any(f"{term}.conj().T" in terms for term in terms)


def test_hermitized_is_the_one_hermitization():
    """H_int is hermitian because every term enters it as T + T*: in the
    package only hamiltonian.hermitized adds a matrix to its own .conj().T,
    so a second, post-hoc route to hermiticity cannot come back unnoticed."""
    found = set().union(*(functions_with(path, adds_own_adjoint) for path in PACKAGE))
    assert found == {"hamiltonian.hermitized"}


def test_spectra_chooses_the_arithmetic_only_per_block():
    """A block's solver arithmetic follows its own gathered entries: in spectra
    only _block reads .imag, so no whole-H real copy or residual fork on the
    dtype comes back."""
    path = Path(fermifock.__file__).parent / "spectra.py"
    reads = functions_with(path, lambda n: isinstance(n, ast.Attribute) and n.attr == "imag")
    assert reads == {"spectra._block"}


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


def child_result(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter on the package's sources and return
    the JSON object on the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(fermifock.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


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
    got = child_result(STARTUP_CHILD, *HEAVY)
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
    got = child_result(VERIFY_CHILD, str(config), *HEAVY)
    assert got == {"exit": 0, "failures": 0, "loaded": []}


UNUSED = ("unittest", "numpy.f2py.crackfortran", "numpy.ma.core")
LAZY_CHILD = """
import json, sys, tempfile, types
from fermifock import cli, spectra
import numpy as np, scipy.sparse as sp

unused = sys.argv[1:]
# built without sp.diags: scipy's dia constructor calls np.unique, and numpy's
# unique reads np.ma.is_masked, which executes numpy.ma
chain = np.diag(np.linspace(-1.0, 1.0, 30)) + np.diag(np.full(29, 0.5), 1)
method = spectra.ground_state(sp.csr_matrix(chain + chain.T)).method
before_demo = [name for name in unused if name in sys.modules]
masked_sum = float(np.ma.masked_array([1.0]).sum())
with tempfile.TemporaryDirectory() as out:
    demo_exit = cli.main(["--report-dir", out, "fermi-demo", "--variant", "regular"])
after_demo = [name for name in unused if name in sys.modules]
# type() reads no attribute of the module, so it does not execute it
testing_deferred = type(sys.modules["numpy.testing"]) is not types.ModuleType
np.testing.assert_allclose(1.0, 1.0)
print(json.dumps({
    "method": method, "before_demo": before_demo, "masked_sum": masked_sum,
    "demo_exit": demo_exit, "after_demo": after_demo, "testing_deferred": testing_deferred,
    "testing_executed": type(sys.modules["numpy.testing"]) is types.ModuleType,
}))
"""


def test_numpy_submodules_no_run_uses_stay_unexecuted():
    """After the CLI import and a dense ground solve, unittest, numpy.f2py's
    crackfortran and numpy.ma's core are not loaded, and fermi-demo loads
    neither of the first two; numpy.testing is still an unexecuted lazy module
    after the demo. The first real use of np.ma or np.testing executes it as
    a plain import would."""
    deferred = getattr(np, "__numpy_submodules__", set())
    if not {"testing", "f2py", "ma"} <= set(deferred):
        pytest.skip("numpy lists no deferred testing, f2py and ma submodules: "
                    "fermifock's lazy registration is a no-op there")
    got = child_result(LAZY_CHILD, *UNUSED)
    assert got == {
        "method": "dense", "before_demo": [], "masked_sum": 1.0,
        "demo_exit": 0, "after_demo": ["numpy.ma.core"], "testing_deferred": True,
        "testing_executed": True,
    }


NO_OP_CHILD = """
import json, sys, tempfile, types
import numpy as np, numpy.testing, scipy.sparse
before = sys.modules["numpy.testing"]
from fermifock import cli

with tempfile.TemporaryDirectory() as out:
    code = cli.main(["--report-dir", out, "verify", "--suite", "all", "--config", sys.argv[1]])
    with open(out + "/verify_all.json") as fh:
        failures = json.load(fh)["failures"]
print(json.dumps({
    "exit": code, "failures": failures, "same": sys.modules["numpy.testing"] is before,
    "plain": type(np.testing) is types.ModuleType and np.testing is before,
}))
"""


def test_submodules_imported_before_fermifock_are_left_alone(tmp_path):
    """A caller that imports numpy.testing and scipy.sparse before fermifock,
    as pytest's own imports may, keeps the very module it imported, still a
    plain executed one, and a dense-path verify --suite all passes."""
    config = tmp_path / "verify.json"
    config.write_text(json.dumps(DENSE_VERIFY_CONFIG))
    got = child_result(NO_OP_CHILD, str(config))
    assert got == {"exit": 0, "failures": 0, "same": True, "plain": True}


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
