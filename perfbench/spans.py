"""Traced child run and the per-layer metrics taken from its spans.

Run as a script, this module imports fermifock, wraps every public function of
its modules (plus the report writers and the LAPACK/ARPACK entry points the
package calls) in a span recorder, runs one CLI command and writes the spans
as JSON when the command ends:

    python3 perfbench/spans.py --out spans.json --run-id ID -- <fermifock args>

A wrapped name is replaced in every `fermifock.*` namespace that binds it,
because `cli` and `verify` import names directly. The program itself carries
no instrumentation. Imported by the benchmark, `aggregate` turns the span files
of one round into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

LAYERS = ("fock", "hamiltonian", "kernels", "spectra", "verify", "config", "cli", "modes")
# private helpers wrapped on purpose: report writing is a metric of its own
PRIVATE = {"cli": ("_write_json", "_write_csv")}
# (module, attribute, span label); numpy and scipy bind these at call time
FOREIGN = (
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("numpy.linalg", "svd", "lapack.svd"),
    ("scipy.linalg", "eigh_tridiagonal", "lapack.eigh_tridiagonal"),
    ("scipy.sparse.linalg", "eigsh", "arpack.eigsh"),
    ("scipy.sparse.linalg", "svds", "arpack.svds"),
)
NOT_ATTRIBUTED = (
    "numpy.linalg.norm(A, 2): dense SVD reached through numpy's internal binding "
    "(operator and smeared norms at dim <= 600); counted in the caller's self time",
    "BLAS inside dense products (@, np.kron, tensordot, einsum); caller's self time",
    "LAPACK called by scipy.sparse.linalg itself (Ritz extraction); inside arpack.eigsh",
    "sparse products outside eigsh; caller's self time (matvecs inside eigsh are counted)",
)

VERIFY_CHECKS = (
    "car_relations", "smeared_norms", "pull_through", "parity_identity", "hermiticity",
    "form_bound", "refined_form_bound", "hermite_bound", "operator_bound",
    "interpolation", "relative_bound_zero", "number_estimate", "gradient_estimate",
)

# span record fields
LABEL, PARENT, START, END, RSS0, RSS1, ATTRS = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; spans of one run share its run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, label: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [label, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0, 0, {}]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            before = probe[0]() if probe and probe[0] else None
            record[RSS0] = _maxrss_kb()
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                record[RSS1] = _maxrss_kb()
                self.stack.pop()
            if probe:
                record[ATTRS].update(probe[1](args, result, before))
            return result

        return traced

    def counting_eigsh(self, eigsh):
        """eigsh on an operator that counts the matvecs ARPACK asks for."""
        from scipy.sparse.linalg import LinearOperator

        @functools.wraps(eigsh)
        def call(a, *args, **kwargs):
            count = [0]

            def matvec(x):
                count[0] += 1
                return a @ x

            op = LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
            try:
                return eigsh(op, *args, **kwargs)
            finally:
                attrs = self.spans[self.stack[-1]][ATTRS]
                attrs["matvecs"] = count[0]
                attrs["dim"] = a.shape[0]
                if hasattr(a, "indptr"):
                    # CSR read plus one vector in and one out per matvec
                    attrs["bytes_per_matvec"] = int(
                        a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                        + 2 * a.shape[0] * a.dtype.itemsize
                    )

        return call

    def install(self) -> None:
        import importlib

        import fermifock.cli  # noqa: F401  (imports every fermifock module)

        namespaces = [m for n, m in sys.modules.items()
                      if n == "fermifock" or n.startswith("fermifock.")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"fermifock.{layer}"]
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") or name in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    label = f"{layer}.{name}"
                    targets.append((obj, self.wrap(label, obj, _PROBES.get(label))))
        for modname, attr, label in FOREIGN:
            mod = importlib.import_module(modname)
            obj = getattr(mod, attr)
            inner = self.counting_eigsh(obj) if label == "arpack.eigsh" else obj
            traced = self.wrap(label, inner, (None, _dim))
            setattr(mod, attr, traced)
            targets.append((obj, traced))
        for original, traced in targets:
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, traced)

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "exit_code": exit_code,
                       "not_attributed": NOT_ATTRIBUTED, "spans": self.spans}, fh)


def _cache_size() -> int:
    from fermifock import kernels

    return len(kernels._BASIS_CACHE)


def _dim(args, result, before):
    return {"dim": int(args[0].shape[0])}


def _written(args, result, before):
    return {"bytes": os.path.getsize(args[0])}


# label -> (state taken before the call or None, attributes taken after it)
_PROBES = {
    "fock.enumerate_basis": (None, lambda args, res, _: {"dim": int(res.dimension)}),
    "hamiltonian.assemble_total": (None, lambda args, res, _: {
        "h_int_nnz": int(res.h_int.nnz), "h_total_nnz": int(res.h_total.nnz)}),
    "hamiltonian.sample_kernel_tensor": (None, lambda args, res, _: {"entries": int(res.values.size)}),
    # a regularity-basis call is a hit when the cache did not grow
    "kernels.species_regularity_basis": (_cache_size, lambda args, res, before: {
        "hit": _cache_size() == before}),
    "cli._write_json": (None, _written),
    "cli._write_csv": (None, _written),
}


# ---------------------------------------------------------------------------
# aggregation (benchmark side)
# ---------------------------------------------------------------------------


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced invocations of one round.

    Times are inclusive span durations summed over the outermost calls of a
    function; `<layer>.self_s` sums self time (duration minus child spans).
    Counts add up over the round, sizes take their maximum.
    """
    spans = []
    for doc in docs:
        offset = len(spans)
        spans += [s[:PARENT] + [s[PARENT] + offset if s[PARENT] >= 0 else -1] + s[PARENT + 1:]
                  for s in doc["spans"]]
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_t = dur[:]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= dur[i]

    def layer(i):
        return spans[i][LABEL].split(".", 1)[0]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    def outermost(label):
        return [i for i in range(n) if spans[i][LABEL] == label
                and all(spans[a][LABEL] != label for a in ancestors(i))]

    def calls(label):
        return sum(1 for s in spans if s[LABEL] == label)

    def total(label):
        return sum(dur[i] for i in outermost(label))

    def rise_mb(label):
        return sum(spans[i][RSS1] - spans[i][RSS0] for i in outermost(label)) / 1024.0

    def attr_max(label, key):
        return max((s[ATTRS].get(key, 0) for s in spans if s[LABEL] == label), default=0)

    def under_verify(i):
        return any(layer(a) == "verify" for a in ancestors(i))

    def parent_layer(i):
        p = spans[i][PARENT]
        return layer(p) if p >= 0 else ""

    crosscheck = [i for i in range(n) if spans[i][LABEL] == "lapack.eigvalsh"
                  and spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][LABEL] == "spectra.ground_state"]
    spectra_dense = [i for i in range(n) if spans[i][LABEL] in ("lapack.eigh", "lapack.eigvalsh")
                     and parent_layer(i) == "spectra" and i not in crosscheck]
    lanczos = [i for i in range(n) if spans[i][LABEL] == "arpack.eigsh" and parent_layer(i) == "spectra"]
    in_verify = [i for i in range(n) if under_verify(i)]
    regularity = [s for s in spans if s[LABEL] == "kernels.species_regularity_basis"]
    writes = [s for s in spans if s[LABEL] in ("cli._write_json", "cli._write_csv")]

    work = total("cli.main") - total("config.load_config")
    dispatch = sum(self_t[i] for i in range(n)
                   if spans[i][LABEL] == "cli.main" or spans[i][LABEL].startswith("cli.cmd_"))

    m = {
        "fock.basis_dim": attr_max("fock.enumerate_basis", "dim"),
        "fock.creation_calls": calls("fock.creation"),
        "fock.creation_s": total("fock.creation"),
        "hamiltonian.assemble_total_calls": calls("hamiltonian.assemble_total"),
        "hamiltonian.assemble_total_s": total("hamiltonian.assemble_total"),
        "hamiltonian.assemble_rss_rise_mb": rise_mb("hamiltonian.assemble_total"),
        "hamiltonian.monomial_operator_calls": calls("hamiltonian.monomial_operator"),
        "hamiltonian.monomial_operator_s": total("hamiltonian.monomial_operator"),
        "hamiltonian.h_int_nnz": attr_max("hamiltonian.assemble_total", "h_int_nnz"),
        "hamiltonian.h_total_nnz": attr_max("hamiltonian.assemble_total", "h_total_nnz"),
        "hamiltonian.commutator_s": total("hamiltonian.commutator_with_annihilator"),
        "hamiltonian.parity_identity_s": total("hamiltonian.parity_identity_check"),
        "hamiltonian.sample_kernel_tensor_s": total("hamiltonian.sample_kernel_tensor"),
        "hamiltonian.kernel_entries": sum(s[ATTRS].get("entries", 0) for s in spans
                                          if s[LABEL] == "hamiltonian.sample_kernel_tensor"),
        "kernels.slice_profiles_calls": calls("kernels.separable_slice_profiles"),
        "kernels.slice_profiles_s": total("kernels.separable_slice_profiles"),
        "kernels.infrared_report_s": total("kernels.infrared_report"),
        "kernels.weight_kernel_tensor_s": total("kernels.weight_kernel_tensor"),
        "kernels.weighted_kernel_norm_s": total("kernels.weighted_kernel_norm"),
        "kernels.regularity_basis_calls": len(regularity),
        "kernels.regularity_basis_hit_ratio": (
            sum(1 for s in regularity if s[ATTRS]["hit"]) / len(regularity) if regularity else 0.0
        ),
        "spectra.crosscheck_s": sum(dur[i] for i in crosscheck),
        "spectra.crosscheck_dim": max((spans[i][ATTRS]["dim"] for i in crosscheck), default=0),
        "spectra.ground_rss_rise_mb": rise_mb("spectra.ground_state"),
        "spectra.lanczos_calls": len(lanczos),
        "spectra.lanczos_s": sum(dur[i] for i in lanczos),
        "spectra.lanczos_matvecs": sum(spans[i][ATTRS]["matvecs"] for i in lanczos),
        "spectra.lanczos_bytes_computed": sum(
            spans[i][ATTRS]["matvecs"] * spans[i][ATTRS].get("bytes_per_matvec", 0) for i in lanczos
        ),
        "spectra.dense_s": sum(dur[i] for i in spectra_dense),
        "spectra.mass_sweep_s": total("spectra.mass_sweep"),
        "spectra.ground_state_calls": calls("spectra.ground_state"),
        "spectra.ground_state_s": total("spectra.ground_state"),
        "spectra.low_spectrum_s": total("spectra.low_spectrum"),
        "spectra.observables_s": total("spectra.observables"),
        "verify.interpolation_rss_rise_mb": rise_mb("verify.check_interpolation"),
        "verify.dense_linalg_s": sum(dur[i] for i in in_verify
                                     if spans[i][LABEL].startswith("lapack.")),
        "verify.svds_calls": sum(1 for i in in_verify if spans[i][LABEL] == "arpack.svds"),
        "verify.eigsh_calls": sum(1 for i in in_verify if spans[i][LABEL] == "arpack.eigsh"),
        "config.load_s": total("config.load_config"),
        "cli.report_write_s": sum(s[END] - s[START] for s in writes),
        "cli.report_bytes": sum(s[ATTRS]["bytes"] for s in writes),
        "trace.work_s": work,
        "trace.coverage": (work - dispatch) / work if work > 0 else 0.0,
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = total(f"verify.check_{check}")
    for name in LAYERS + ("lapack", "arpack"):
        m[f"{name}.self_s"] = sum(self_t[i] for i in range(n) if layer(i) == name)
    return m


def main(argv: list[str]) -> int:
    out, run_id = argv[argv.index("--out") + 1], argv[argv.index("--run-id") + 1]
    command = argv[argv.index("--") + 1:]
    tracer = Tracer(run_id)
    tracer.install()
    import fermifock.cli

    code = 2
    try:
        code = fermifock.cli.main(command)
    finally:
        tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
