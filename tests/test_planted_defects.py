"""Planted defects against the exact and bound suites: every defect must make
some check fail, and pull_through must fail on every defect of the
interaction that keeps it hermitian.

One dimension-128 bundle is built, shaped like the benchmark's verify input:
three species of 2, 3 and 2 modes and the power kernels c012 and c0a12. Each
defect is planted in a copy of it with dataclasses.replace (object.__setattr__
for the free diagonal and the table, which the bundle derives from or holds),
or in a package function through a monkeypatch undone after the checks, so the
package carries no hook. Every check of `verify --suite exact` and `--suite
bounds` runs on every planted copy, and its verdict is held to the table below.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fermifock import fock
from fermifock.cli import _suite_bounds, _suite_exact
from fermifock.config import build_bundle, normalize_config
from fermifock.fock import parity_diagonal
from fermifock.hamiltonian import KernelTensor
from fermifock.modes import ModeTable
from fermifock.verify import check_pull_through
from test_imports import DENSE_VERIFY_CONFIG

# species 2's first mode: pull_through compares the first mode of each species
SIGN_MODE = 5


def _tensor_scaled(bundle, patch):
    """Kernel tensor 0 scaled by 1.02, H_int kept."""
    first, *rest = bundle.tensors
    return replace(bundle, tensors=(KernelTensor(first.signature, 1.02 * first.values), *rest))


def _pair_negated(bundle, patch):
    """One off-diagonal pair of H_int negated; H_int stays hermitian."""
    h = bundle.h_int.toarray()
    i, j = np.argwhere(np.triu(h != 0, 1))[0]
    h[i, j], h[j, i] = -h[i, j], -h[j, i]
    return replace(bundle, h_int=sp.csr_matrix(h))


def _one_sided_entry(bundle, patch):
    """H_int's first stored entry above the diagonal, (0, 37), scaled by 1.01;
    its mirror kept, so H_int is no longer hermitian."""
    h = bundle.h_int.toarray()
    i, j = np.argwhere(np.triu(h != 0, 1))[0]
    h[i, j] *= 1.01
    return replace(bundle, h_int=sp.csr_matrix(h))


def _h_int_scaled(bundle, patch):
    """H_int scaled by 1.01, the tensors kept."""
    return replace(bundle, h_int=(1.01 * bundle.h_int).tocsr())


def _parity_even_entry(bundle, patch):
    """A hermitian pair joining the vacuum to a two-particle state added to H_int."""
    i, j = np.flatnonzero(parity_diagonal(bundle.basis) > 0)[:2]
    entry = sp.csr_matrix(([0.05, 0.05], ([i, j], [j, i])), shape=bundle.h_int.shape)
    return replace(bundle, h_int=(bundle.h_int + entry).tocsr())


def _free_diag_shifted(bundle, patch):
    """The free diagonal raised by 1e-3 at state 1, where mode 0 is occupied."""
    planted = replace(bundle)
    diag = planted.free_diag.copy()
    diag[1] += 1e-3
    object.__setattr__(planted, "free_diag", diag)
    return planted


class _ShiftedEnergyTable(ModeTable):
    def mode_energies(self, i):
        energies = super().mode_energies(i)
        return energies + 1e-3 * (np.arange(energies.size) == 0) if i == 0 else energies


def _mode_energy_shifted(bundle, patch):
    """Mode 0's energy in the table raised by 1e-3, the free diagonal kept."""
    planted = replace(bundle)
    object.__setattr__(planted, "table", _ShiftedEnergyTable(bundle.table.species))
    return planted


def _jordan_wigner_sign_flipped(bundle, patch):
    """fock's ladder helper builds b and b* of SIGN_MODE with the Jordan-Wigner
    sign flipped to +1 on every state with an odd count of modes occupied
    below it; the bundle's H, built through monomial_operator, keeps its signs."""
    ladder = fock._ladder

    def planted(table, basis, mode, create):
        op = ladder(table, basis, mode, create)
        if mode != SIGN_MODE:
            return op
        below = np.bitwise_count(basis.states & np.int64((1 << mode) - 1)) & 1
        return (op @ sp.diags(1.0 - 2.0 * below)).tocsr()

    patch.setattr(fock, "_ladder", planted)
    return bundle


DEFECTS = {
    "tensor_scaled": _tensor_scaled,
    "pair_negated": _pair_negated,
    "one_sided_entry": _one_sided_entry,
    "h_int_scaled": _h_int_scaled,
    "parity_even_entry": _parity_even_entry,
    "free_diag_shifted": _free_diag_shifted,
    "mode_energy_shifted": _mode_energy_shifted,
    "jordan_wigner_sign_flipped": _jordan_wigner_sign_flipped,
}
INTERACTION_DEFECTS = ("tensor_scaled", "pair_negated", "h_int_scaled", "parity_even_entry")
PULL_THROUGH_DEFECTS = tuple(defect for defect in DEFECTS if defect != "one_sided_entry")

# check -> the defects it fails on; every other pair passes. The checks that no
# defect fails are kept (their reports are benchmark references), and why none
# reaches them: smeared_norms reads only the table and the basis, and builds
# its operators through monomial_operator, not the ladder helper; the four
# constant-1 bounds build their terms from the kernel tensors alone, so scaling
# a tensor moves both sides of the inequality; relative_bound_zero keeps its
# slack. H_int is hermitian by construction, so hermiticity is the one check of
# that invariant, and it alone catches one_sided_entry (3.9e-4): pull_through
# reads only the first mode of each species and stays at round-off there, so
# one_sided_entry is neither an interaction defect it must catch nor in its
# far-above-tolerance test.
FAILS = {
    "car_relations": ("jordan_wigner_sign_flipped",),
    "smeared_norms": (),
    "pull_through": PULL_THROUGH_DEFECTS,
    "hermiticity": ("one_sided_entry",),
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
    with pytest.MonkeyPatch.context() as patch:
        got = verdicts(DEFECTS[defect](bundle, patch), cfg)
    assert got == {check: defect not in failing for check, failing in FAILS.items()}


@pytest.mark.parametrize("defect", PULL_THROUGH_DEFECTS)
def test_pull_through_reads_every_defect_far_above_its_tolerance(bundle_and_config, defect):
    """pull_through divides its residual by max(1, ||H||_inf), 8.1 on this
    bundle: every defect still reads at least 1e-5, 1e7 times the 1e-12
    tolerance, while the unplanted bundle reads round-off."""
    bundle, _ = bundle_and_config
    assert check_pull_through(bundle).max_ratio <= 1e-14
    with pytest.MonkeyPatch.context() as patch:
        assert check_pull_through(DEFECTS[defect](bundle, patch)).max_ratio >= 1e-5
