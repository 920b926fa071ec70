"""Planted defects against the exact and bound suites: every defect must make
some check fail, and pull_through must fail on every defect of the
interaction.

One dimension-128 bundle is built, shaped like the benchmark's verify input:
three species of 2, 3 and 2 modes and the power kernels c012 and c0a12. Each
defect is planted in a copy of it with dataclasses.replace (object.__setattr__
for the free diagonal, which the bundle derives), so the package carries no
hook. Every check of `verify --suite exact` and `--suite bounds` runs on every
copy, and its verdict is held to the table below.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fermifock.cli import _suite_bounds, _suite_exact
from fermifock.config import build_bundle, normalize_config
from fermifock.fock import parity_diagonal
from fermifock.hamiltonian import KernelTensor
from test_imports import DENSE_VERIFY_CONFIG


def _tensor_scaled(bundle):
    """Kernel tensor 0 scaled by 1.02, H_int kept."""
    first, *rest = bundle.tensors
    return replace(bundle, tensors=(KernelTensor(first.signature, 1.02 * first.values), *rest))


def _pair_negated(bundle):
    """One off-diagonal pair of H_int negated; H_int stays hermitian."""
    h = bundle.h_int.toarray()
    i, j = np.argwhere(np.triu(h != 0, 1))[0]
    h[i, j], h[j, i] = -h[i, j], -h[j, i]
    return replace(bundle, h_int=sp.csr_matrix(h))


def _h_int_scaled(bundle):
    """H_int scaled by 1.01, the tensors kept."""
    return replace(bundle, h_int=(1.01 * bundle.h_int).tocsr())


def _parity_even_entry(bundle):
    """A hermitian pair joining the vacuum to a two-particle state added to H_int."""
    i, j = np.flatnonzero(parity_diagonal(bundle.basis) > 0)[:2]
    entry = sp.csr_matrix(([0.05, 0.05], ([i, j], [j, i])), shape=bundle.h_int.shape)
    return replace(bundle, h_int=(bundle.h_int + entry).tocsr())


def _free_diag_shifted(bundle):
    """The free diagonal raised by 1e-3 at state 1, where mode 0 is occupied."""
    planted = replace(bundle)
    diag = planted.free_diag.copy()
    diag[1] += 1e-3
    object.__setattr__(planted, "free_diag", diag)
    return planted


DEFECTS = {
    "tensor_scaled": _tensor_scaled,
    "pair_negated": _pair_negated,
    "h_int_scaled": _h_int_scaled,
    "parity_even_entry": _parity_even_entry,
    "free_diag_shifted": _free_diag_shifted,
}
INTERACTION_DEFECTS = ("tensor_scaled", "pair_negated", "h_int_scaled", "parity_even_entry")

# check -> the defects it fails on; every other pair passes. The checks that no
# defect fails are kept (their reports are benchmark references), and why none
# reaches them: car_relations and smeared_norms read only the table and the
# basis; hermiticity sees a hermitian plant; the four constant-1 bounds build
# their terms from the kernel tensors alone, so scaling a tensor moves both
# sides of the inequality; relative_bound_zero keeps its slack.
FAILS = {
    "car_relations": (),
    "smeared_norms": (),
    "pull_through": tuple(DEFECTS),
    "hermiticity": (),
    "parity_identity": ("parity_even_entry",),
    **{
        f"{check}[{term}]": ()
        for term in ("c012a-", "c0a12")
        for check in ("form_bound", "refined_form_bound", "hermite_bound", "operator_bound")
    },
    "relative_bound_zero": (),
}


@pytest.fixture(scope="module")
def bundle_and_config():
    cfg = normalize_config(DENSE_VERIFY_CONFIG)
    bundle = build_bundle(cfg)
    assert bundle.basis.dimension == 128
    return bundle, cfg


def verdicts(bundle, cfg) -> dict[str, bool]:
    seed = cfg["solver"]["seed"]
    reports = _suite_exact(bundle, cfg, seed) + _suite_bounds(bundle, cfg, seed)
    return {
        f"{r.name}[{r.params['term']}]" if "term" in r.params else r.name: r.passed
        for r in reports
    }


def test_the_table_holds_every_defect_to_some_check():
    """Every defect fails some check, and pull_through fails on every defect
    of the interaction."""
    for defect in DEFECTS:
        assert any(defect in failing for failing in FAILS.values()), defect
    assert set(INTERACTION_DEFECTS) <= set(FAILS["pull_through"])


def test_unplanted_bundle_passes_every_check(bundle_and_config):
    assert verdicts(*bundle_and_config) == {check: True for check in FAILS}


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_fails_the_checks_the_table_names(bundle_and_config, defect):
    bundle, cfg = bundle_and_config
    got = verdicts(DEFECTS[defect](bundle), cfg)
    assert got == {check: defect not in failing for check, failing in FAILS.items()}
