"""Numerical verification of the operator-theoretic estimates.

Every checker returns a BoundReport: the checked inequality's worst ratio over
random plus structured trial vectors (and, where the maximizer is computable,
the exact supremum via an eigen- or singular-value problem), the tolerance it
is held to, and enough detail to reproduce the numbers. Checkers never weaken
an inequality to make it pass; constants are the ones the estimates prescribe.

Conventions, fixed across the package:
* form-type estimates (quadratic forms) are checked on the hermitized process
  term T + T*, which satisfies them with the same constant;
* the operator-norm estimate applies to a single process term T only (it fails
  for T + T* already for one mode per species at n = 2);
* "exempt" names the species whose axis never carries a regularity weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import (
    annihilation,
    creation,
    diagonal_second_quantized,
    free_hamiltonian_diagonal,
    monomial_operator,
    smeared,
)
from .hamiltonian import (
    HamiltonianBundle,
    KernelTensor,
    _max_abs,
    commutator_with_annihilator,
    kernel_slice,
    parity_identity_check,
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
from .spectra import MassCurve

RATIO_TOL = 1e-9
IDENTITY_TOL = 1e-12
LOG_CONVEXITY_TOL = 1e-6
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
# trial vectors and quadratic-form batches
# ---------------------------------------------------------------------------


def _unit_rows(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _with_structured(trials: np.ndarray, extras: list[np.ndarray]) -> np.ndarray:
    rows = [trials]
    for vec in extras:
        norm = np.linalg.norm(vec)
        if norm > 0:
            rows.append((vec / norm)[None, :])
    return np.concatenate(rows, axis=0)


def _form_values(op: sp.spmatrix, vectors: np.ndarray) -> np.ndarray:
    """|<v, op v>| for each row v."""
    applied = op @ vectors.conj().T
    return np.abs(np.einsum("id,di->i", vectors, applied))


def _spectral_edges(op: sp.spmatrix, dim: int) -> tuple[float, list[np.ndarray]]:
    """Exact supremum of |<v, op v>| over unit v for a hermitian sparse
    operator, with the eigenvectors at both spectral edges that attain it.

    Above dimension 600 ARPACK finds them; its ArpackNoConvergence propagates,
    since a missing edge would leave the exact supremum unproven.
    """
    if dim <= 600:
        vals, vecs = np.linalg.eigh(op.toarray())
        edges = [vecs[:, 0], vecs[:, -1]]
    else:
        v0 = np.ones(dim) / math.sqrt(dim)
        edges = [
            spla.eigsh(op, k=1, which=which, v0=v0, maxiter=2000)[1][:, 0]
            for which in ("SA", "LA")
        ]
    sup = max(float(_form_values(op, (v / np.linalg.norm(v))[None, :])[0]) for v in edges)
    return sup, edges


def _top_singular_value(op: sp.spmatrix) -> float:
    """Largest singular value: dense up to dimension 600, above it svds
    started from a fixed vector so that reruns give the same digits."""
    dim = min(op.shape)
    if dim <= 600:
        return float(np.linalg.norm(op.toarray(), 2))
    v0 = np.ones(dim) / math.sqrt(dim)
    return float(spla.svds(op, k=1, v0=v0, return_singular_vectors=False)[0])


def _hermitized(bundle: HamiltonianBundle, term_index: int) -> sp.csr_matrix:
    term = bundle.terms[term_index]
    return (term + term.conj().T).tocsr()


# ---------------------------------------------------------------------------
# constant-1 bound checks
# ---------------------------------------------------------------------------


def check_form_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 11,
    tol: float = RATIO_TOL,
) -> BoundReport:
    """Quadratic-form estimate with constant 1.

    |<phi, (T + T*) phi>| <= ||W G||_2 * ||(sum of non-exempt free parts + 1)^((n-1)/2) phi||^2
    with W the product of omega^(-1/2) over the non-exempt species. The exact
    supremum of the ratio is also computed (spectral radius of the scaled
    form) and reported alongside the trial maximum.
    """
    table = bundle.table
    n = table.n_species
    tensor = bundle.tensors[term_index]
    op = _hermitized(bundle, term_index)
    subset = [i for i in range(n) if i != exempt]
    kernel_norm = weighted_kernel_norm(tensor.values, table, subset)
    energy = free_hamiltonian_diagonal(table, bundle.basis, subset) + 1.0
    d = energy ** ((n - 1) / 2.0)

    dim = bundle.basis.dimension
    scaled = sp.diags(1.0 / d) @ op @ sp.diags(1.0 / d)
    exact, extremes = _spectral_edges(scaled.tocsr(), dim)
    structured = [sp.diags(1.0 / d) @ v for v in extremes]

    rng = np.random.default_rng(seed)
    vectors = _with_structured(_unit_rows(dim, trials, rng), structured)
    lhs = _form_values(op, vectors)
    rhs = kernel_norm * np.sum((d[None, :] ** 2) * np.abs(vectors) ** 2, axis=1)
    ratios = lhs / np.maximum(rhs, _TINY)
    max_ratio = float(np.max(ratios))
    exact_ratio = exact / kernel_norm if kernel_norm > 0 else 0.0
    passed = max_ratio <= 1.0 + tol and exact_ratio <= 1.0 + tol
    return BoundReport(
        name="form_bound",
        passed=passed,
        max_ratio=max(max_ratio, exact_ratio),
        tolerance=1.0 + tol,
        trials=vectors.shape[0],
        params={
            "term": tensor.signature.label(),
            "exempt": exempt,
            "kernel_norm": kernel_norm,
        },
        details={"trial_max_ratio": max_ratio, "exact_sup_ratio": exact_ratio},
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


def check_refined_form_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 13,
    tol: float = RATIO_TOL,
) -> BoundReport:
    """Two-sided refinement with independent trial vectors.

    |<phi, (T + T*) psi>| <= ||W G|| (A(phi) B(psi) + A(psi) B(phi)) where A
    carries square roots of the created species' free parts (exempt omitted)
    and B the annihilated species'. Vanishing right sides force a vanishing
    left side, checked separately at identity tolerance.
    """
    table = bundle.table
    tensor = bundle.tensors[term_index]
    sig = tensor.signature
    op = _hermitized(bundle, term_index)
    subset = [i for i in range(table.n_species) if i != exempt]
    kernel_norm = weighted_kernel_norm(tensor.values, table, subset)
    a_diag = _group_half_power_diag(bundle, sig.created, exempt)
    b_diag = _group_half_power_diag(bundle, sig.annihilated, exempt)

    dim = bundle.basis.dimension
    rng = np.random.default_rng(seed)
    phis = _unit_rows(dim, trials, rng)
    psis = _unit_rows(dim, trials, rng)
    lhs = np.abs(np.einsum("id,di->i", phis.conj(), op @ psis.T))
    a_phi = np.linalg.norm(a_diag[None, :] * phis, axis=1)
    b_phi = np.linalg.norm(b_diag[None, :] * phis, axis=1)
    a_psi = np.linalg.norm(a_diag[None, :] * psis, axis=1)
    b_psi = np.linalg.norm(b_diag[None, :] * psis, axis=1)
    rhs = kernel_norm * (a_phi * b_psi + a_psi * b_phi)

    degenerate = rhs < _TINY
    max_ratio = float(np.max(lhs[~degenerate] / rhs[~degenerate])) if np.any(~degenerate) else 0.0
    degenerate_ok = bool(np.all(lhs[degenerate] <= IDENTITY_TOL))

    term = bundle.terms[term_index]
    single_lhs = np.abs(np.einsum("id,di->i", phis.conj(), term @ psis.T))
    single_rhs = kernel_norm * a_phi * b_psi
    good = single_rhs >= _TINY
    single_max = float(np.max(single_lhs[good] / single_rhs[good])) if np.any(good) else 0.0
    single_degenerate_ok = bool(np.all(single_lhs[~good] <= IDENTITY_TOL))

    passed = (
        max_ratio <= 1.0 + tol
        and single_max <= 1.0 + tol
        and degenerate_ok
        and single_degenerate_ok
    )
    return BoundReport(
        name="refined_form_bound",
        passed=passed,
        max_ratio=max(max_ratio, single_max),
        tolerance=1.0 + tol,
        trials=trials,
        params={"term": sig.label(), "exempt": exempt, "kernel_norm": kernel_norm},
        details={
            "pair_max_ratio": max_ratio,
            "single_term_max_ratio": single_max,
            "degenerate_cases_vanish": degenerate_ok and single_degenerate_ok,
        },
    )


def check_hermite_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    smoothness: float = 0.75,
    trials: int = 1000,
    seed: int = 17,
    tol: float = RATIO_TOL,
) -> BoundReport:
    """Smoothing estimate: |<phi, (T + T*) phi>| <= C_s ||S_s G|| ||phi||^2.

    C_s is the reference constant (per species sqrt(n_spins * sigma(s)^3));
    the discrete level-sum constant, which is provably smaller, is reported
    too and the ordering asserted. The exact supremum is the spectral radius
    of T + T*.
    """
    if smoothness <= 0.5:
        raise ValueError("smoothness must exceed 1/2")
    table = bundle.table
    tensor = bundle.tensors[term_index]
    op = _hermitized(bundle, term_index)
    exponents = {i: smoothness for i in range(table.n_species) if i != exempt}
    weighted = float(np.linalg.norm(weight_kernel_tensor(tensor.values, table, exponents).ravel()))
    c_ref = hermite_bound_constant(table, exempt, smoothness)
    c_disc = discrete_bound_constant(table, exempt, smoothness)
    rhs_scale = c_ref * weighted

    dim = bundle.basis.dimension
    exact, extremes = _spectral_edges(op, dim)
    rng = np.random.default_rng(seed)
    vectors = _with_structured(_unit_rows(dim, trials, rng), extremes)
    lhs = _form_values(op, vectors)
    max_ratio = float(np.max(lhs)) / max(rhs_scale, _TINY)
    exact_ratio = exact / max(rhs_scale, _TINY)
    disc_ratio = exact / max(c_disc * weighted, _TINY)
    passed = (
        max_ratio <= 1.0 + tol
        and exact_ratio <= 1.0 + tol
        and disc_ratio <= 1.0 + tol
        and c_disc <= c_ref * (1.0 + 1e-12)
    )
    return BoundReport(
        name="hermite_bound",
        passed=passed,
        max_ratio=max(max_ratio, exact_ratio),
        tolerance=1.0 + tol,
        trials=vectors.shape[0],
        params={
            "term": tensor.signature.label(),
            "exempt": exempt,
            "smoothness": smoothness,
            "weighted_kernel_norm": weighted,
        },
        details={
            "reference_constant": c_ref,
            "discrete_constant": c_disc,
            "exact_sup_ratio": exact_ratio,
            "ratio_vs_discrete_constant": disc_ratio,
        },
    )


def check_operator_bound(
    bundle: HamiltonianBundle,
    term_index: int = 0,
    exempt: int = 0,
    trials: int = 1000,
    seed: int = 19,
    tol: float = RATIO_TOL,
) -> BoundReport:
    """Vector estimate for a single process term.

    ||T phi|| <= ||prod (1 + omega^(-1/2)) G|| * ||(sum free + 1)^((n-1)/2) phi||,
    exempt species excluded from both products. The exact supremum is the top
    singular value of T D^(-1).
    """
    table = bundle.table
    n = table.n_species
    tensor = bundle.tensors[term_index]
    term = bundle.terms[term_index]
    subset = [i for i in range(n) if i != exempt]
    kernel_norm = weighted_kernel_norm(tensor.values, table, subset, one_plus=True)
    d = (free_hamiltonian_diagonal(table, bundle.basis, subset) + 1.0) ** ((n - 1) / 2.0)
    scaled = (term @ sp.diags(1.0 / d)).tocsr()
    dim = bundle.basis.dimension
    exact = _top_singular_value(scaled)
    rng = np.random.default_rng(seed)
    vectors = _unit_rows(dim, trials, rng)
    lhs = np.linalg.norm(term @ vectors.T, axis=0)
    rhs = kernel_norm * np.linalg.norm(d[None, :] * vectors, axis=1)
    max_ratio = float(np.max(lhs / np.maximum(rhs, _TINY)))
    exact_ratio = exact / max(kernel_norm, _TINY)
    passed = max_ratio <= 1.0 + tol and exact_ratio <= 1.0 + tol
    return BoundReport(
        name="operator_bound",
        passed=passed,
        max_ratio=max(max_ratio, exact_ratio),
        tolerance=1.0 + tol,
        trials=trials,
        params={"term": tensor.signature.label(), "exempt": exempt, "kernel_norm": kernel_norm},
        details={"exact_sup_ratio": exact_ratio},
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
    tol: float = LOG_CONVEXITY_TOL,
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
        term = monomial_operator(table, basis, sig.factors(), values)
        herm = (term + term.conj().T).tocoo()
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
    passed = worst <= tol and trial_ok
    return BoundReport(
        name="interpolation",
        passed=passed,
        max_ratio=worst,
        tolerance=tol,
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
    mus: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
    trials: int = 300,
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
    mus = sorted((float(m) for m in mus), reverse=True)
    c_grid = []
    for mu in mus:
        c_grid.append(float(np.max(np.maximum(col_norms - mu * np.abs(free), 0.0))))
    monotone = bool(np.all(np.diff(c_grid) >= -1e-12))

    dim = bundle.basis.dimension
    rng = np.random.default_rng(seed)
    vectors = _unit_rows(dim, min(trials, 1000), rng)
    power_diag = (free + 1.0) ** (1.0 - margin)
    lhs = np.linalg.norm(power_diag[None, :] * vectors, axis=1)
    free_norms = np.linalg.norm(free[None, :] * vectors, axis=1)
    scalar_ok = True
    worst = 0.0
    scalar_constants = {}
    for mu in mus:
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
        trials=vectors.shape[0] * len(mus),
        params={"margin": margin, "mus": list(mus)},
        details={
            "interaction_constants": dict(zip((str(m) for m in mus), c_grid)),
            "scalar_constants": {str(k): v for k, v in scalar_constants.items()},
            "constants_monotone": monotone,
        },
    )


# ---------------------------------------------------------------------------
# structural identity suite
# ---------------------------------------------------------------------------


def check_car_relations(bundle: HamiltonianBundle, tol: float = IDENTITY_TOL) -> BoundReport:
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
        passed=worst <= tol,
        max_ratio=worst,
        tolerance=tol,
        params={"modes": table.total_modes, "truncated": truncated},
    )


def check_smeared_norms(
    bundle: HamiltonianBundle, trials: int = 5, seed: int = 31, tol: float = 1e-9
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
        passed=worst <= tol,
        max_ratio=worst,
        tolerance=tol,
        trials=trials * table.n_species,
    )


def check_pull_through(
    bundle: HamiltonianBundle, modes: Sequence[int] | None = None, tol: float = IDENTITY_TOL
) -> BoundReport:
    """Commutator decomposition against the direct commutator, all structure on.

    For each probed mode: [b_m, g H_int] from the structured decomposition
    (kernel slices plus parity tail) must match b_m H - H b_m - omega_m b_m,
    and for an eigenvector Phi of H with eigenvalue E,
    (H - E + omega_m) b_m Phi + [b_m, g H_int] Phi = 0 follows; the first is
    checked as operators, which implies the second.
    """
    table, basis = bundle.table, bundle.basis
    if modes is None:
        modes = [table.block(i)[0] for i in range(table.n_species)]
    h = bundle.h_total
    worst = 0.0
    for m in modes:
        species, point, spin = table.locate(m)
        omega = table.mode_energies(species)[m - table.offsets[species]]
        b = annihilation(table, basis, m)
        direct = (b @ h - h @ b - omega * b).tocsr()
        parts = commutator_with_annihilator(bundle, m)
        worst = max(worst, _max_abs(direct - parts.total))
    return BoundReport(
        name="pull_through",
        passed=worst <= tol,
        max_ratio=worst,
        tolerance=tol,
        params={"modes": list(int(m) for m in modes)},
    )


def check_parity_identity(bundle: HamiltonianBundle) -> BoundReport:
    result = parity_identity_check(bundle)
    return BoundReport(
        name="parity_identity",
        passed=result.passed,
        max_ratio=max(result.matrix_deviation, result.spectrum_deviation),
        tolerance=1e-9,
        details={
            "matrix_deviation": result.matrix_deviation,
            "spectrum_deviation": result.spectrum_deviation,
        },
    )


def check_hermiticity(bundle: HamiltonianBundle, tol: float = IDENTITY_TOL) -> BoundReport:
    dev = _max_abs(bundle.h_total - bundle.h_total.conj().T)
    return BoundReport(
        name="hermiticity", passed=dev <= tol, max_ratio=dev, tolerance=tol
    )


# ---------------------------------------------------------------------------
# number and gradient estimates along mass sweeps
# ---------------------------------------------------------------------------


def _target_slices(
    bundle: HamiltonianBundle, target: int, local_mode: int
) -> list[np.ndarray]:
    """Each term's kernel slice at one target mode, as a term creating it.

    A term that annihilates the target creates it through its hermitian
    conjugate, so its slice is taken from the conjugated tensor.
    """
    out = []
    for tensor in bundle.tensors:
        if target in tensor.signature.annihilated:
            tensor = KernelTensor(
                signature=tensor.signature, values=np.conj(tensor.values)
            )
        out.append(kernel_slice(tensor, bundle.table, target, local_mode))
    return out


def _slice_norm_sum(
    table: ModeTable,
    target: int,
    slices: Sequence[np.ndarray],
    exponents: dict[int, float],
) -> float:
    """Sum of the weighted norms of kernel slices taken at one target mode."""
    others = [i for i in range(table.n_species) if i != target]
    axis_species = {a: s for a, s in enumerate(others)}
    return sum(
        float(np.linalg.norm(weight_kernel_tensor(values, table, exponents, axis_species).ravel()))
        for values in slices
    )


def _estimate_exponents(
    table: ModeTable, target: int, exempt: int, margin: float
) -> dict[int, float]:
    """Per-species weights for the remaining axes of a sliced kernel."""
    n = table.n_species
    massless = [i for i in range(n) if table.species[i].is_massless]
    full = exponent_table(n, massless, margin, exempt)
    return {
        i: float(full[i]) for i in range(n) if i not in (target, exempt)
    }


def _mode_scale(table: ModeTable, target: int, local: int, massless: bool) -> float:
    """|k| of a target mode when the target counts as massless (k = 0 refused,
    its prefactors would be infinite), else omega."""
    if not massless:
        return float(table.mode_energies(target)[local])
    kabs = float(np.linalg.norm(table.momenta(target)[local]))
    if kabs == 0:
        raise ValueError("massless target species may not hold a k = 0 mode")
    return kabs


def _uniformity_report(
    name: str,
    vanishing: str,
    sup_constants: list[float],
    uniformity_factor: float,
    params: dict,
    details: dict,
    ok: bool = True,
) -> BoundReport:
    """Spread max/min of the per-mass best constants against the factor; a
    pass with a note when all of them vanish (zero left sides at this coupling)."""
    top = float(np.max(sup_constants))
    if top < 1e-12:
        return BoundReport(
            name=name,
            passed=True,
            max_ratio=0.0,
            tolerance=uniformity_factor,
            params={"target": params["target"], "note": f"{vanishing} vanish at this coupling"},
        )
    spread = top / max(float(np.min(sup_constants)), _TINY)
    return BoundReport(
        name=name,
        passed=spread <= uniformity_factor and ok,
        max_ratio=spread,
        tolerance=uniformity_factor,
        params=params,
        details={"per_mass_constants": [float(c) for c in sup_constants], **details},
    )


def check_number_estimate(
    curve: MassCurve,
    target: int,
    exempt: int = 0,
    margin: float = 0.05,
    uniformity_factor: float = 4.0,
) -> BoundReport:
    """Mode-amplitude estimate, uniform across the mass grid.

    For each mass point's ground state, the continuum-normalized amplitude
    || b(xi) Phi || must be controlled by
    prefactor(xi) * |g| * sum of weighted kernel slice norms at xi. The swept
    species always gets the prefactor 1/|k| (its constant must not degrade as
    its mass vanishes, so the massless form is used on the whole grid); a
    fixed massive target gets 1/omega. The per-mass best constants (sup of
    the ratio over modes) must stay within the uniformity factor across the
    grid including the limit point.
    """
    sup_constants = []
    for bundle, vector in _curve_points(curve):
        table = bundle.table
        target_massless = target == curve.species or table.species[target].is_massless
        exponents = _estimate_exponents(table, target, exempt, margin)
        w = table.mode_weights(target)
        ratios = []
        for local, mode in enumerate(table.block(target)):
            amp = np.linalg.norm(
                annihilation(table, bundle.basis, mode) @ vector
            ) / math.sqrt(w[local])
            prefactor = 1.0 / _mode_scale(table, target, local, target_massless)
            slices = _slice_norm_sum(
                table, target, _target_slices(bundle, target, local), exponents
            )
            rhs = prefactor * abs(bundle.coupling) * slices
            ratios.append(amp / max(rhs, _TINY))
        sup_constants.append(float(np.max(ratios)))
    return _uniformity_report(
        "number_estimate",
        "amplitudes",
        sup_constants,
        uniformity_factor,
        params={"target": target, "exempt": exempt, "margin": margin},
        details={"masses": [float(m) for m in curve.masses] + [0.0]},
    )


def _curve_points(curve: MassCurve):
    if not curve.vectors or curve.limit_vector is None:
        raise ValueError("mass curve must be built with keep_vectors=True")
    for bundle, vector in zip(curve.bundles[:-1], curve.vectors):
        yield bundle, vector
    yield curve.bundles[-1], curve.limit_vector


def check_gradient_estimate(
    curve: MassCurve,
    target: int,
    exempt: int = 0,
    margin: float = 0.05,
    uniformity_factor: float = 4.0,
    coarse_ratio: float = 0.5,
) -> BoundReport:
    """Finite-difference gradient estimate along the target species' chains.

    For interior chain modes, || grad (b(xi) Phi) || (central difference) is
    compared against prefactor2 * sum ||S slice|| + prefactor1 * sum ||S d slice||
    where d slice is the central difference of the kernel slice, prefactor2 is
    |k|^-2 (massless) or omega^-2 (massive) and prefactor1 one power less. A
    Richardson-style comparison of the single- and double-spacing differences
    flags chains whose spacing is too coarse.
    """
    sup_constants = []
    coarse_flags = []
    for bundle, vector in _curve_points(curve):
        table = bundle.table
        cfg = table.species[target]
        if not cfg.chains:
            raise ValueError("gradient estimate needs declared chains")
        target_massless = target == curve.species or cfg.is_massless
        exponents = _estimate_exponents(table, target, exempt, margin)
        n_spins = len(cfg.spins)
        w = table.mode_weights(target)
        ratios = []
        for chain in cfg.chains:
            spacing = table.chain_spacing(target, chain)
            for s_idx in range(n_spins):
                locals_ = [p * n_spins + s_idx for p in chain]
                psi = {}
                for loc in locals_:
                    mode = table.offsets[target] + loc
                    psi[loc] = (
                        annihilation(table, bundle.basis, mode) @ vector
                    ) / math.sqrt(w[loc])
                slices = {loc: _target_slices(bundle, target, loc) for loc in locals_}
                for pos in range(1, len(chain) - 1):
                    mid, lo, hi = locals_[pos], locals_[pos - 1], locals_[pos + 1]
                    grad = np.linalg.norm(psi[hi] - psi[lo]) / (2.0 * spacing)
                    if 2 <= pos < len(chain) - 2:
                        wide = np.linalg.norm(
                            psi[locals_[pos + 2]] - psi[locals_[pos - 2]]
                        ) / (4.0 * spacing)
                        denom = max(grad, _TINY)
                        coarse_flags.append(abs(grad - wide) / denom > coarse_ratio)
                    slice_total = _slice_norm_sum(table, target, slices[mid], exponents)
                    dslices = [
                        (v_hi - v_lo) / (2.0 * spacing)
                        for v_lo, v_hi in zip(slices[lo], slices[hi])
                    ]
                    dslice_total = _slice_norm_sum(table, target, dslices, exponents)
                    scale = _mode_scale(table, target, mid, target_massless)
                    pref2, pref1 = scale**-2.0, scale**-1.0
                    rhs = abs(bundle.coupling) * (pref2 * slice_total + pref1 * dslice_total)
                    ratios.append(grad / max(rhs, _TINY))
        sup_constants.append(float(np.max(ratios)))
    coarse = any(coarse_flags)
    return _uniformity_report(
        "gradient_estimate",
        "gradients",
        sup_constants,
        uniformity_factor,
        params={"target": target, "exempt": exempt, "margin": margin},
        details={"coarse_spacing_flagged": coarse},
        ok=not coarse,
    )
