"""Numerical verification of the operator-theoretic estimates.

Every checker returns a BoundReport: the checked inequality's worst ratio over
random plus structured trial vectors (and, where the maximizer is computable,
the exact supremum via an eigen- or singular-value problem), the tolerance it
is held to, and enough detail to reproduce the numbers. Checkers never weaken
an inequality to make it pass; constants are the ones the estimates prescribe
and tolerances are fixed. Exact suprema other than the interpolation constants
come from spectra.ground_state: spectral edges are the ground states of op and
-op, a top singular value is the root of the top eigenvalue of op* op.

The four constant-1 bounds (form, refined, Hermite, operator) share one
scaffold. The form and Hermite bounds are one inequality,
|<phi, (T + T*) phi>| <= C ||D phi||^2, with D an energy power or 1:
_form_ratios takes its exact supremum from the spectral edges of
D^-1 (T + T*) D^-1 and adds the edge vectors to the seeded trial rows. All four
report through _bound_report: max_ratio is the larger of the trial maximum and
the exact ratio, held to 1 + RATIO_TOL together with the check's own conditions.

The number and gradient estimates along a mass sweep are one check,
check_sweep_estimates: one pass over the mass points reads the ground state's
rows b(xi) Phi from spectra.observables, the only place they are formed, and
takes each target mode's kernel slices and their weighted norms once for both
reports.

Conventions, fixed across the package:
* form-type estimates (quadratic forms) are checked on the hermitized process
  term T + T*, which satisfies them with the same constant;
* the operator-norm estimate applies to a single process term T only (it fails
  for T + T* already for one mode per species at n = 2);
* "exempt" names the species whose axis never carries a regularity weight.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .fock import (
    annihilation,
    below_caps,
    creation,
    diagonal_second_quantized,
    free_hamiltonian_diagonal,
    parity_diagonal,
    smeared,
)
from .hamiltonian import (
    HamiltonianBundle,
    KernelTensor,
    commutator_with_annihilator,
    hermitized,
    kernel_slice,
    process_term,
)
from .kernels import (
    blend_exponents,
    discrete_bound_constant,
    exponent_table,
    hermite_bound_constant,
    weight_kernel_tensor,
    weighted_kernel_norm,
)
from .modes import ModeTable, weighted_norm
from .spectra import MassCurve, _block_eigvalsh, ground_state, observables

RATIO_TOL = 1e-9
IDENTITY_TOL = 1e-12
LOG_CONVEXITY_TOL = 1e-6
UNIFORMITY_FACTOR = 4.0  # largest spread max/min of a sweep's per-mass best constants
COARSE_RATIO = 0.5  # relative single- vs double-spacing gradient gap that flags a chain
RELATIVE_MUS = (0.5, 0.25, 0.1, 0.05)  # decreasing mu grid of the relative bound
RELATIVE_TRIALS = 300  # trial vectors of the relative bound's scalar route
_TRIAL_BLOCK_BYTES = 2**17  # largest block of complex trial rows held at once
_TINY = 1e-300


@dataclass
class BoundReport:
    name: str
    passed: bool
    max_ratio: float
    tolerance: float
    trials: int = 0
    params: dict = dc_field(default_factory=dict)
    details: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_ratio": float(self.max_ratio),
            "tolerance": float(self.tolerance),
            "trials": int(self.trials),
            "params": self.params,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# constant-1 bound checks and their scaffold
# ---------------------------------------------------------------------------


def _trial_blocks(dim: int, count: int, draws: int, rng: np.random.Generator) -> Iterator:
    """`draws` successive draws of `count` unit rows, each one-piece draw
    rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    normalized by row, as aligned tuples of blocks of at most _TRIAL_BLOCK_BYTES.
    A draw-and-discard pass puts a clone of rng at the start of every real and
    imaginary segment but the last, which rng draws itself: the rows are
    bit-identical to the one-piece draws and rng ends where those leave it."""
    step = max(1, _TRIAL_BLOCK_BYTES // (16 * dim))
    segments = []
    for _ in range(2 * draws - 1):
        segments.append(copy.deepcopy(rng))
        for lo in range(0, count, step):
            rng.standard_normal((min(step, count - lo), dim))
    segments.append(rng)
    for lo in range(0, count, step):
        shape = (min(step, count - lo), dim)
        blocks = []
        for real, imag in zip(segments[::2], segments[1::2]):
            v = real.standard_normal(shape) + 1j * imag.standard_normal(shape)
            blocks.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        yield tuple(blocks)


def _top_singular_value(op: sp.spmatrix) -> float:
    """Largest singular value: the root of the top eigenvalue of op* op."""
    return math.sqrt(-ground_state(-(op.conj().T @ op)).energy)


def _max_abs(op: sp.spmatrix) -> float:
    op = sp.csr_matrix(op)
    return float(np.max(np.abs(op.data))) if op.nnz else 0.0


def _energy_weight(bundle: HamiltonianBundle, exempt: int) -> tuple[list[int], np.ndarray]:
    """The non-exempt species and the diagonal of (their free parts + 1)^((n-1)/2)."""
    n = bundle.table.n_species
    subset = [i for i in range(n) if i != exempt]
    energy = free_hamiltonian_diagonal(bundle.table, bundle.basis, subset) + 1.0
    return subset, energy ** ((n - 1) / 2.0)


def _form_ratios(
    op: sp.spmatrix, d: np.ndarray, scale: float, trials: int, seed: int
) -> tuple[float, float, int]:
    """For hermitian op and a positive diagonal d: the largest trial ratio
    |<v, op v>| / (scale ||d v||^2), the exact supremum of |<v, op v>| / ||d v||^2,
    and the number of trial rows.

    The supremum is the spectral radius of d^-1 op d^-1: its edges are the
    ground problems of that operator and its negative, solved by ground_state,
    whose ArpackNoConvergence or cross-check failure propagates, since a missing
    edge would leave the supremum unproven. The edge vectors, mapped back by
    d^-1 and normalized, follow the seeded unit rows as a last block, so the
    trials attain it.
    """
    d_inv = sp.diags(1.0 / d)
    scaled = d_inv @ op @ d_inv
    low, high = ground_state(scaled), ground_state(-scaled)
    edges = np.stack([v / np.linalg.norm(v) for v in (d_inv @ low.vector, d_inv @ high.vector)])
    ratios = []
    blocks = _trial_blocks(op.shape[0], trials, 1, np.random.default_rng(seed))
    for (vectors,) in itertools.chain(blocks, [(edges,)]):
        lhs = np.abs(np.einsum("id,di->i", vectors.conj(), op @ vectors.T))
        rhs = scale * np.sum((d[None, :] ** 2) * np.abs(vectors) ** 2, axis=1)
        ratios.append(lhs / np.maximum(rhs, _TINY))
    trial = float(np.max(np.concatenate(ratios)))
    return trial, max(abs(low.energy), abs(high.energy)), trials + len(edges)


def _bound_report(
    name: str, trial: float, exact: float, trials: int, params: dict, details: dict, *extra: bool
) -> BoundReport:
    """The report rule of every constant-1 bound: max_ratio is the larger of
    the trial maximum and the exact ratio (for the refined check, its
    single-term maximum); the check passes when that is at most 1 + RATIO_TOL
    and each of its extra conditions holds."""
    max_ratio = max(trial, exact)
    passed = max_ratio <= 1.0 + RATIO_TOL and all(extra)
    return BoundReport(name, passed, max_ratio, 1.0 + RATIO_TOL, trials, params, details)


def check_form_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 11,
) -> BoundReport:
    """Quadratic-form estimate with constant 1.

    |<phi, (T + T*) phi>| <= ||W G||_2 * ||(sum of non-exempt free parts + 1)^((n-1)/2) phi||^2
    with W the product of omega^(-1/2) over the non-exempt species. The exact
    supremum of the ratio is also computed (spectral radius of the scaled
    form) and reported alongside the trial maximum.
    """
    tensor = bundle.tensors[term_index]
    subset, d = _energy_weight(bundle, exempt)
    kernel_norm = weighted_kernel_norm(tensor.values, bundle.table, subset)
    op = hermitized(process_term(bundle.table, bundle.basis, tensor))
    trial, exact, rows = _form_ratios(op, d, kernel_norm, trials, seed)
    exact /= max(kernel_norm, _TINY)
    return _bound_report(
        "form_bound",
        trial,
        exact,
        rows,
        {"term": tensor.signature.label(), "exempt": exempt, "kernel_norm": kernel_norm},
        {"trial_max_ratio": trial, "exact_sup_ratio": exact},
    )


def _group_half_power_diag(
    bundle: HamiltonianBundle, group: Sequence[int], exempt: int
) -> np.ndarray:
    """Diagonal of prod over the group (omitting exempt) of H_free,i^(1/2)."""
    table, basis = bundle.table, bundle.basis
    diag = np.ones(basis.dimension)
    for i in group:
        if i == exempt:
            continue
        diag *= np.sqrt(diagonal_second_quantized(table, basis, i))
    return diag


def _ratio_off_vanishing(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, bool]:
    """Largest lhs/rhs where the right side does not vanish, and whether the
    left side vanishes (to IDENTITY_TOL) wherever it does."""
    good = rhs >= _TINY
    top = float(np.max(lhs[good] / rhs[good])) if np.any(good) else 0.0
    return top, bool(np.all(lhs[~good] <= IDENTITY_TOL))


def check_refined_form_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 13,
) -> BoundReport:
    """Two-sided refinement with independent trial vectors.

    |<phi, (T + T*) psi>| <= ||W G|| (A(phi) B(psi) + A(psi) B(phi)) where A
    carries square roots of the created species' free parts (exempt omitted)
    and B the annihilated species'. Vanishing right sides force a vanishing
    left side, checked separately at identity tolerance.
    """
    tensor = bundle.tensors[term_index]
    sig = tensor.signature
    term = process_term(bundle.table, bundle.basis, tensor)
    op = hermitized(term)
    subset = [i for i in range(bundle.table.n_species) if i != exempt]
    kernel_norm = weighted_kernel_norm(tensor.values, bundle.table, subset)
    a_diag = _group_half_power_diag(bundle, sig.created, exempt)
    b_diag = _group_half_power_diag(bundle, sig.annihilated, exempt)

    per_row = []  # each block's lhs, single_lhs, a_phi, b_phi, a_psi, b_psi
    for phis, psis in _trial_blocks(bundle.basis.dimension, trials, 2, np.random.default_rng(seed)):
        per_row.append(
            [np.abs(np.einsum("id,di->i", phis.conj(), t @ psis.T)) for t in (op, term)]
            + [np.linalg.norm(w * v, axis=1) for v in (phis, psis) for w in (a_diag, b_diag)]
        )
    lhs, single_lhs, a_phi, b_phi, a_psi, b_psi = (np.concatenate(c) for c in zip(*per_row))
    pair_max, pair_ok = _ratio_off_vanishing(lhs, kernel_norm * (a_phi * b_psi + a_psi * b_phi))
    single_max, single_ok = _ratio_off_vanishing(single_lhs, kernel_norm * a_phi * b_psi)
    return _bound_report(
        "refined_form_bound",
        pair_max,
        single_max,
        trials,
        {"term": sig.label(), "exempt": exempt, "kernel_norm": kernel_norm},
        {
            "pair_max_ratio": pair_max,
            "single_term_max_ratio": single_max,
            "degenerate_cases_vanish": pair_ok and single_ok,
        },
        pair_ok,
        single_ok,
    )


def check_hermite_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    smoothness: float = 0.75,
    trials: int = 1000,
    seed: int = 17,
) -> BoundReport:
    """Smoothing estimate: |<phi, (T + T*) phi>| <= C_s ||S_s G|| ||phi||^2.

    C_s is the reference constant (per species sqrt(n_spins * sigma(s)^3));
    the discrete level-sum constant, which is provably smaller, is reported
    too and the ordering asserted. The exact supremum is the spectral radius
    of T + T*: the form bound's scaffold with D = 1.
    """
    if smoothness <= 0.5:
        raise ValueError("smoothness must exceed 1/2")
    table = bundle.table
    tensor = bundle.tensors[term_index]
    exponents = {i: smoothness for i in range(table.n_species) if i != exempt}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing weight is refused below
        weighted = weight_kernel_tensor(tensor.values, table, exponents).ravel()
        weighted = float(np.linalg.norm(weighted))
    if not np.isfinite(weighted) or (weighted == 0.0 and tensor.values.any()):
        raise ValueError(f"exponents.smoothness {smoothness}: weighted kernel norm {weighted}")
    c_ref = hermite_bound_constant(table, exempt, smoothness)
    c_disc = discrete_bound_constant(table, exempt, smoothness)
    op = hermitized(process_term(table, bundle.basis, tensor))
    trial, exact, rows = _form_ratios(op, np.ones(op.shape[0]), c_ref * weighted, trials, seed)
    exact_ratio = exact / max(c_ref * weighted, _TINY)
    disc_ratio = exact / max(c_disc * weighted, _TINY)
    return _bound_report(
        "hermite_bound",
        trial,
        exact_ratio,
        rows,
        {
            "term": tensor.signature.label(),
            "exempt": exempt,
            "smoothness": smoothness,
            "weighted_kernel_norm": weighted,
        },
        {
            "reference_constant": c_ref,
            "discrete_constant": c_disc,
            "exact_sup_ratio": exact_ratio,
            "ratio_vs_discrete_constant": disc_ratio,
        },
        disc_ratio <= 1.0 + RATIO_TOL,
        c_disc <= c_ref * (1.0 + 1e-12),
    )


def check_operator_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 19,
) -> BoundReport:
    """Vector estimate for a single process term.

    ||T phi|| <= ||prod (1 + omega^(-1/2)) G|| * ||(sum free + 1)^((n-1)/2) phi||,
    exempt species excluded from both products. The exact supremum is the top
    singular value of T D^(-1).
    """
    tensor = bundle.tensors[term_index]
    term = process_term(bundle.table, bundle.basis, tensor)
    subset, d = _energy_weight(bundle, exempt)
    kernel_norm = weighted_kernel_norm(tensor.values, bundle.table, subset, one_plus=True)
    exact = _top_singular_value((term @ sp.diags(1.0 / d)).tocsr()) / max(kernel_norm, _TINY)
    ratios = []
    for (vectors,) in _trial_blocks(bundle.basis.dimension, trials, 1, np.random.default_rng(seed)):
        images = term @ vectors.T
        # ||T v|| summed in row order, as a reduce over 2+ columns does (1 sums pairwise)
        lhs = np.sqrt(np.cumsum((images.conj() * images).real, axis=0)[-1])
        rhs = kernel_norm * np.linalg.norm(d[None, :] * vectors, axis=1)
        ratios.append(lhs / np.maximum(rhs, _TINY))
    return _bound_report(
        "operator_bound",
        float(np.max(np.concatenate(ratios))),
        exact,
        trials,
        {"term": tensor.signature.label(), "exempt": exempt, "kernel_norm": kernel_norm},
        {"exact_sup_ratio": exact},
    )


# ---------------------------------------------------------------------------
# interpolation (log-convexity across the weight blend)
# ---------------------------------------------------------------------------


def check_interpolation(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    smoothness: float = 0.75,
    thetas: Sequence[float] = (0.25, 0.5, 0.75),
    trials: int = 200,
    seed: int = 23,
) -> BoundReport:
    """Log-convexity of the best constant across the weight blend.

    For each theta the best constant M_theta is the exact top singular value
    of the linear map A_theta: G -> E^(-e) (T(W_theta^(-1) G) + h.c.) E^(-e)
    from the instance's full kernel space to matrices in Frobenius norm, with
    the blended oscillator powers on the kernel side and the energy power
    (n-1)(1-theta)/2 on both operator sides. It is taken as the square root
    of the largest eigenvalue of the kernel-space Gram matrix A_theta* A_theta,
    built from the sparse per-entry operators, so no instance is too large
    for it. The check asserts log M_theta <= (1-theta) log M_0 + theta log M_1
    at the interior grid, and that random-kernel trials never exceed M_theta.
    """
    table = bundle.table
    basis = bundle.basis
    sig = bundle.tensors[term_index].signature
    dim = basis.dimension
    shape = tuple(len(table.block(i)) for i in range(table.n_species))
    k_dim = int(np.prod(shape))

    # column j: the hermitized operator of kernel entry j, with one row per
    # matrix position that some entry stores (the zero rows of the dim^2 map
    # add nothing to its Gram matrix)
    flat, entry, data = [], [], []
    for j in range(k_dim):
        values = np.zeros(shape, dtype=np.complex128)
        values[np.unravel_index(j, shape)] = 1.0
        herm = hermitized(process_term(table, basis, KernelTensor(sig, values))).tocoo()
        flat.append(herm.row.astype(np.int64) * dim + herm.col)
        entry.append(np.full(herm.nnz, j))
        data.append(herm.data)
    positions, position_index = np.unique(np.concatenate(flat), return_inverse=True)
    base = sp.csc_matrix(
        (np.concatenate(data), (position_index, np.concatenate(entry))),
        shape=(len(positions), k_dim),
    )
    rows, cols = np.divmod(positions[base.indices], dim)

    theta_grid = [0.0] + sorted(float(t) for t in thetas) + [1.0]
    constants = {}
    rng = np.random.default_rng(seed)
    trial_ok = True
    non_exempt = [i for i in range(table.n_species) if i != exempt]
    energy = free_hamiltonian_diagonal(table, basis, non_exempt) + 1.0
    # W_theta^(-1) as a matrix: its action on the stacked unit kernels
    unit_kernels = np.eye(k_dim).reshape(shape + (k_dim,))
    for theta in theta_grid:
        axis_powers, energy_power = blend_exponents(table, exempt, smoothness, theta)
        d_inv = energy**-energy_power
        scaled = base.copy()
        scaled.data *= d_inv[rows] * d_inv[cols]
        inverse = {i: -p for i, p in axis_powers.items()}
        w_inv = weight_kernel_tensor(unit_kernels, table, inverse).reshape(k_dim, k_dim)
        gram = w_inv.conj().T @ (scaled.conj().T @ scaled).toarray() @ w_inv
        m_theta = math.sqrt(np.linalg.eigvalsh(gram)[-1])
        constants[theta] = m_theta
        g_trials = rng.standard_normal((k_dim, trials)) + 1j * rng.standard_normal(
            (k_dim, trials)
        )
        g_trials /= np.linalg.norm(g_trials, axis=0, keepdims=True)
        ratios = np.sqrt(np.einsum("it,it->t", g_trials.conj(), gram @ g_trials).real)
        if np.max(ratios) > m_theta * (1.0 + 1e-10):
            trial_ok = False

    m0, m1 = constants[0.0], constants[1.0]
    worst = -math.inf
    per_theta = {}
    for theta in thetas:
        theta = float(theta)
        bound = (1.0 - theta) * math.log(m0) + theta * math.log(m1)
        gap = math.log(constants[theta]) - bound
        per_theta[theta] = {
            "constant": constants[theta],
            "log_excess": gap,
        }
        worst = max(worst, gap)
    passed = worst <= LOG_CONVEXITY_TOL and trial_ok
    return BoundReport(
        name="interpolation",
        passed=passed,
        max_ratio=worst,
        tolerance=LOG_CONVEXITY_TOL,
        trials=trials * len(theta_grid),
        params={
            "term": sig.label(),
            "exempt": exempt,
            "smoothness": smoothness,
            "endpoint_constants": [m0, m1],
        },
        details={
            "per_theta": {str(k): v for k, v in per_theta.items()},
            "trials_below_exact": trial_ok,
        },
    )


# ---------------------------------------------------------------------------
# relative bound with arbitrarily small coefficient
# ---------------------------------------------------------------------------


def check_relative_bound_zero(
    bundle: HamiltonianBundle,
    margin: float = 0.05,
    seed: int = 29,
) -> BoundReport:
    """Infinitesimal relative bounds in the coupling-free playground.

    Two statements: (a) on basis states, ||H_int phi|| <= mu ||H_free phi|| +
    C_mu ||phi|| with C_mu the smallest constant making it true, reported for
    a decreasing mu grid (the C_mu must be finite and nondecreasing as mu
    shrinks); (b) the scalar route: for every trial vector,
    ||(H_free + 1)^(1 - margin) phi|| <= mu ||H_free phi|| + C'_mu ||phi||
    with C'_mu read off the free spectrum, which is how the full estimate
    reduces once the interaction is dominated by (H_free + 1)^(1 - margin).
    """
    if not (0.0 < margin < 1.0):
        raise ValueError("margin must lie in (0, 1)")
    h_int = bundle.h_int.tocsc()
    col_norms = np.sqrt(np.asarray(h_int.multiply(h_int.conj()).sum(axis=0)).real).ravel()
    free = bundle.free_diag
    c_grid = []
    for mu in RELATIVE_MUS:
        c_grid.append(float(np.max(np.maximum(col_norms - mu * np.abs(free), 0.0))))
    monotone = bool(np.all(np.diff(c_grid) >= -1e-12))

    power_diag = (free + 1.0) ** (1.0 - margin)
    lhs, free_norms = [], []
    rng = np.random.default_rng(seed)
    for (vectors,) in _trial_blocks(bundle.basis.dimension, RELATIVE_TRIALS, 1, rng):
        lhs.append(np.linalg.norm(power_diag[None, :] * vectors, axis=1))
        free_norms.append(np.linalg.norm(free[None, :] * vectors, axis=1))
    lhs, free_norms = np.concatenate(lhs), np.concatenate(free_norms)
    scalar_ok = True
    worst = 0.0
    scalar_constants = {}
    for mu in RELATIVE_MUS:
        c_scalar = float(np.max(np.maximum((free + 1.0) ** (1.0 - margin) - mu * free, 0.0)))
        scalar_constants[mu] = c_scalar
        rhs = mu * free_norms + c_scalar
        ratios = lhs / np.maximum(rhs, _TINY)
        worst = max(worst, float(np.max(ratios)))
        if np.max(ratios) > 1.0 + RATIO_TOL:
            scalar_ok = False
    passed = monotone and scalar_ok and all(math.isfinite(c) for c in c_grid)
    return BoundReport(
        name="relative_bound_zero",
        passed=passed,
        max_ratio=worst,
        tolerance=1.0 + RATIO_TOL,
        trials=RELATIVE_TRIALS * len(RELATIVE_MUS),
        params={"margin": margin, "mus": list(RELATIVE_MUS)},
        details={
            "interaction_constants": dict(zip((str(m) for m in RELATIVE_MUS), c_grid)),
            "scalar_constants": {str(k): v for k, v in scalar_constants.items()},
            "constants_monotone": monotone,
        },
    )


# ---------------------------------------------------------------------------
# structural identity suite
# ---------------------------------------------------------------------------


def check_car_relations(bundle: HamiltonianBundle) -> BoundReport:
    """Anticommutators on the full mode set: {b_i, b*_j} = delta, others vanish."""
    table, basis = bundle.table, bundle.basis
    dim = basis.dimension
    eye = sp.identity(dim, dtype=np.complex128, format="csr")
    worst = 0.0
    modes = range(table.total_modes)
    creators = {m: creation(table, basis, m) for m in modes}
    annihilators = {m: creators[m].conj().T.tocsr() for m in modes}
    truncated = basis.truncation is not None
    for i in modes:
        for j in modes:
            both = annihilators[i] @ annihilators[j] + annihilators[j] @ annihilators[i]
            worst = max(worst, _max_abs(both))
            if truncated and table.locate(i)[0] == table.locate(j)[0]:
                # a truncated basis clips {b_i, b*_j} within a species at the
                # cap (the intermediate state above it is projected away), so
                # only cross-species mixed relations and the annihilator
                # pairs, which never leave the basis, stay exact
                continue
            mixed = annihilators[i] @ creators[j] + creators[j] @ annihilators[i]
            dev = mixed - eye if i == j else mixed
            worst = max(worst, _max_abs(dev))
    return BoundReport(
        name="car_relations",
        passed=worst <= IDENTITY_TOL,
        max_ratio=worst,
        tolerance=IDENTITY_TOL,
        params={"modes": table.total_modes, "truncated": truncated},
    )


def check_smeared_norms(
    bundle: HamiltonianBundle, trials: int = 5, seed: int = 31
) -> BoundReport:
    """||b#(f)|| equals the weighted l2 norm of f, for random f per species."""
    table, basis = bundle.table, bundle.basis
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(table.n_species):
        n_modes = len(table.block(i))
        for _ in range(trials):
            f = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            op = smeared(table, basis, i, f)
            target = weighted_norm(table, i, f)
            got = _top_singular_value(op)
            worst = max(worst, abs(got - target) / max(target, _TINY))
    return BoundReport(
        name="smeared_norms",
        passed=worst <= IDENTITY_TOL,
        max_ratio=worst,
        tolerance=IDENTITY_TOL,
        trials=trials * table.n_species,
    )


def check_pull_through(bundle: HamiltonianBundle) -> BoundReport:
    """Commutator decomposition against the direct commutator, all structure on.

    For the first mode of each species: [b_m, g H_int] from the structured decomposition
    (kernel slices plus parity tail) must match b_m H - H b_m - omega_m b_m,
    and for an eigenvector Phi of H with eigenvalue E,
    (H - E + omega_m) b_m Phi + [b_m, g H_int] Phi = 0 follows; the first is
    checked as operators, which implies the second. On a truncated basis the
    projected identity holds only on the states whose every species sits below
    its cap (H pushes no particle past the cap from them), so only those
    columns are compared, and params count them. Deviations are read relative to
    max(1, ||H||_inf), H's largest absolute row sum: round-off scales with H.
    """
    table, basis = bundle.table, bundle.basis
    modes = [table.block(i)[0] for i in range(table.n_species)]
    h = bundle.h_total
    scale = max(1.0, float(abs(h).sum(axis=1).max()))
    columns = np.flatnonzero(below_caps(table, basis))
    worst = 0.0
    for species, m in enumerate(modes):
        omega = table.mode_energies(species)[0]
        b = annihilation(table, basis, m)
        direct = (b @ h - h @ b - omega * b).tocsr()
        dev = direct - commutator_with_annihilator(bundle, m)
        worst = max(worst, _max_abs(dev[:, columns]) / scale)
    params = {"modes": list(int(m) for m in modes)}
    if basis.truncation is not None:
        params["compared_states"] = int(columns.size)
    return BoundReport(
        name="pull_through",
        passed=worst <= IDENTITY_TOL,
        max_ratio=worst,
        tolerance=IDENTITY_TOL,
        params=params,
    )


def check_parity_identity(bundle: HamiltonianBundle) -> BoundReport:
    """Verify (-1)^N H (-1)^N = H - 2g H_int for odd-degree interactions.

    Every monomial must have an odd factor count (odd species number);
    otherwise the identity does not hold and a ValueError is raised. Both
    sides stay sparse, and their sorted eigenvalues, taken block by block,
    witness that the two operators are unitarily equivalent.
    """
    if any(t.signature.n_species % 2 == 0 for t in bundle.tensors):
        raise ValueError("parity identity needs an odd number of species")
    p, h = sp.diags(parity_diagonal(bundle.basis)), bundle.h_total
    flipped = (p @ h @ p).tocsr()
    target = (h - 2.0 * bundle.coupling * bundle.h_int).tocsr()
    matrix_dev = _max_abs(flipped - target)
    spec_dev = float(np.max(np.abs(_block_eigvalsh(flipped) - _block_eigvalsh(target))))
    return BoundReport(
        name="parity_identity",
        passed=matrix_dev < 1e-12 and spec_dev < 1e-9,
        max_ratio=max(matrix_dev, spec_dev),
        tolerance=1e-9,
        details={"matrix_deviation": matrix_dev, "spectrum_deviation": spec_dev},
    )


def check_hermiticity(bundle: HamiltonianBundle) -> BoundReport:
    h = bundle.h_total
    dev = _max_abs(h - h.conj().T)
    return BoundReport(
        name="hermiticity", passed=dev <= IDENTITY_TOL, max_ratio=dev, tolerance=IDENTITY_TOL
    )


# ---------------------------------------------------------------------------
# number and gradient estimates along mass sweeps
# ---------------------------------------------------------------------------


def _slice_norm_sum(
    table: ModeTable, target: int, slices: Sequence[np.ndarray], exponents: dict[int, float]
) -> float:
    """Sum of the weighted norms of kernel slices taken at one target mode."""
    axis_species = dict(enumerate(i for i in range(table.n_species) if i != target))
    return sum(
        float(np.linalg.norm(weight_kernel_tensor(values, table, exponents, axis_species).ravel()))
        for values in slices
    )


def _uniformity_report(
    name: str, vanishing: str, sup_constants: list[float], params: dict, details: dict,
    *extra: bool,
) -> BoundReport:
    """Spread max/min of the per-mass best constants against UNIFORMITY_FACTOR,
    passed when it is within and each extra condition holds; a pass with a note
    when all of them vanish (zero left sides at this coupling)."""
    top = float(np.max(sup_constants))
    if top < 1e-12:
        note = {"target": params["target"], "note": f"{vanishing} vanish at this coupling"}
        return BoundReport(name, True, 0.0, UNIFORMITY_FACTOR, params=note)
    spread = top / max(float(np.min(sup_constants)), _TINY)
    details = {"per_mass_constants": [float(c) for c in sup_constants], **details}
    passed = spread <= UNIFORMITY_FACTOR and all(extra)
    return BoundReport(name, passed, spread, UNIFORMITY_FACTOR, 0, dict(params), details)


def check_sweep_estimates(
    curve: MassCurve, target: int, exempt: int = 0, margin: float = 0.05
) -> list[BoundReport]:
    """Mode-amplitude and gradient estimates, uniform across the mass grid.

    One pass over the mass points, the massless limit last. At each point the
    ground state's rows b_m Phi / sqrt(w_m) and their chain differences come
    from spectra.observables, and each target mode's kernel slices (a term annihilating the target creates
    it through its conjugate, so that slice comes from the conjugated tensor),
    their weighted norm sum S and the mode's scale are taken once. The scale is
    |k| when the target counts as massless (k = 0 is refused: the prefactors
    would be infinite), else omega; the swept species always counts as
    massless, since its constant must not degrade as its mass vanishes.

    number_estimate: || b(xi) Phi || <= C scale^-1 |g| S(xi). Then, when the
    target declares chains, gradient_estimate: at interior chain modes the
    central difference || grad b(xi) Phi || <= C |g| (scale^-2 S + scale^-1 S'),
    with S' the weighted norm sum of the slices' central difference. Single-
    and double-spacing differences that disagree by more than COARSE_RATIO
    flag a chain as too coarse, which fails the report. Each report holds the
    per-mass best constants C (sup over modes) within UNIFORMITY_FACTOR.
    """
    chains = curve.bundles[0].table.species[target].chains
    number_sups, gradient_sups, coarse_flags = [], [], []
    for bundle, vector in zip(curve.bundles, (*curve.vectors, curve.limit_vector)):
        table = bundle.table
        n, g = table.n_species, abs(bundle.coupling)
        massless = [i for i in range(n) if table.species[i].is_massless]
        full = exponent_table(n, massless, margin, exempt)
        exponents = {i: float(full[i]) for i in range(n) if i not in (target, exempt)}
        if target == curve.species or table.species[target].is_massless:
            scales = [float(np.linalg.norm(k)) for k in table.momenta(target)]
            if 0.0 in scales:
                raise ValueError(f"species {target}: species.points holds k = 0 (1/|k| infinite)")
        else:
            scales = [float(e) for e in table.mode_energies(target)]
        creating = [
            KernelTensor(t.signature, np.conj(t.values)) if target in t.signature.annihilated else t
            for t in bundle.tensors
        ]
        slices = [[kernel_slice(t, table, target, m) for t in creating] for m in range(len(scales))]
        sums = [_slice_norm_sum(table, target, s, exponents) for s in slices]
        obs = observables(bundle, vector, target)
        number_sups.append(float(np.max([
            amp / max(1.0 / scale * g * total, _TINY)
            for amp, scale, total in zip(obs.amplitudes, scales, sums)
        ])))
        rows, n_spins, ratios = obs.vectors, len(table.species[target].spins), []
        # observables' chain_gradients run over the chains, then their spins
        pairs = [(chain, spin) for chain in chains for spin in range(n_spins)]
        for (chain, spin), grads in zip(pairs, obs.chain_gradients):
            spacing = table.chain_spacing(target, chain)
            modes = [p * n_spins + spin for p in chain]
            for pos in range(1, len(chain) - 1):
                mid, lo, hi, grad = modes[pos], modes[pos - 1], modes[pos + 1], grads[pos - 1]
                if 2 <= pos < len(chain) - 2:
                    wide = np.linalg.norm(rows[modes[pos + 2]] - rows[modes[pos - 2]])
                    wide /= 4.0 * spacing
                    coarse_flags.append(abs(grad - wide) / max(grad, _TINY) > COARSE_RATIO)
                diffs = [(b - a) / (2.0 * spacing) for a, b in zip(slices[lo], slices[hi])]
                dtotal = _slice_norm_sum(table, target, diffs, exponents)
                rhs = g * (scales[mid] ** -2.0 * sums[mid] + scales[mid] ** -1.0 * dtotal)
                ratios.append(grad / max(rhs, _TINY))
        if chains:
            gradient_sups.append(float(np.max(ratios)))
    params = {"target": target, "exempt": exempt, "margin": margin}
    masses = {"masses": [float(m) for m in curve.masses] + [0.0]}
    reports = [_uniformity_report("number_estimate", "amplitudes", number_sups, params, masses)]
    if chains:
        coarse = any(coarse_flags)
        flag = {"coarse_spacing_flagged": coarse}
        reports.append(_uniformity_report(
            "gradient_estimate", "gradients", gradient_sups, params, flag, not coarse
        ))
    return reports
