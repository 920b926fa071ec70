"""Ground states, low spectra, mass sweeps and simple observables.

Dense LAPACK diagonalization is authoritative below a dimension cap; above it
a seeded Lanczos run takes over and, below a cross-check cap, both are run and
compared. Every dense solve runs per block of H, one per connected component
of its sparsity pattern (every term changes each species' particle number by
one, so these are conserved sectors); the blocks' spectra together are exactly
H's, and the largest block sets the cost. Degenerate ground spaces, counted
across blocks, get a deterministic representative: the projection of the first
basis vector with nonvanishing component, with a fixed phase convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .fock import annihilation
from .hamiltonian import HamiltonianBundle

DENSE_CAP_DEFAULT = 2048
CROSS_CHECK_TOL = 1e-9
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    vector: np.ndarray
    residual: float
    method: str
    degeneracy: int
    cross_check_gap: float | None = None

    @property
    def dimension(self) -> int:
        return self.vector.shape[0]


def _row_sum_bound(h: sp.spmatrix) -> float:
    """Gershgorin-style upper bound on the spectrum: max row sum of |H|."""
    h = sp.csr_matrix(h)
    return float(np.max(np.abs(h).sum(axis=1))) if h.nnz else 0.0


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    out = vec / phase
    return out / np.linalg.norm(out)


def _blocks(h: sp.csr_matrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """(states, dense block of h) for each connected component of h's pattern.

    states are ascending basis indices. One-state components share a single
    pair whose block is the 1-D array of their diagonal entries, so a diagonal
    h costs no per-state work.
    """
    # the graph is the stored pattern, not h: csgraph would cast complex data
    # to real (a ComplexWarning) and weigh a purely imaginary coupling as zero
    pattern = sp.csr_matrix((np.ones(h.nnz, np.int8), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    sizes = np.bincount(labels)
    lone = sizes[labels] == 1
    pairs = [(np.nonzero(lone)[0], h.diagonal()[lone].real)] if lone.any() else []
    order = np.argsort(labels, kind="stable")
    grouped = order[~lone[order]]  # the other components one after the other
    permuted = h[grouped][:, grouped]
    bounds = np.cumsum([0, *sizes[sizes > 1]])
    for start, end in zip(bounds[:-1], bounds[1:]):
        pairs.append((grouped[start:end], permuted[start:end, start:end].toarray()))
    return pairs


def _block_eigvalsh(h: sp.csr_matrix) -> np.ndarray:
    """All eigenvalues of h, ascending, from its blocks."""
    vals = [b if b.ndim == 1 else np.linalg.eigvalsh(b) for _, b in _blocks(h)]
    return np.sort(np.concatenate(vals))


def _in_ground_space(vals: np.ndarray, energy: float) -> np.ndarray:
    return vals - energy <= DEGENERACY_TOL * max(1.0, abs(energy))


def _dense_ground(h: sp.csr_matrix) -> tuple[float, np.ndarray, int]:
    solved = [(s, b, None) if b.ndim == 1 else (s, *np.linalg.eigh(b)) for s, b in _blocks(h)]
    energy = float(min(vals.min() for _, vals, _ in solved))
    degeneracy = 0
    # deterministic representative: project the first basis vector that meets
    # the ground space. It lies in one block, so each block offers its first.
    offers = []
    for states, vals, vecs in solved:
        members = _in_ground_space(vals, energy)
        degeneracy += int(members.sum())
        if not members.any():
            continue
        if vecs is None:  # one-state blocks: the ground states are basis vectors
            offers.append((states[members][0], states[members][:1], np.ones(1)))
            continue
        space = vecs[:, members]
        local = int(np.argmax(np.linalg.norm(space, axis=1) > 1e-8))
        offers.append((states[local], states, space @ space[local].conj()))
    _, states, projection = min(offers, key=lambda offer: offer[0])
    rep = np.zeros(h.shape[0], dtype=np.complex128)
    rep[states] = projection
    return energy, _fix_phase(rep), degeneracy


def ground_state(
    h: sp.spmatrix,
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
) -> GroundStateResult:
    """Lowest eigenpair of a hermitian sparse matrix.

    Dense up to dimension dense_cap; above it seeded Lanczos (eigsh), with a
    dense eigenvalue cross-check when the dimension still allows one.
    """
    h = sp.csr_matrix(h)
    dim = h.shape[0]
    if dim <= dense_cap:
        energy, vec, degeneracy = _dense_ground(h)
        method = "dense"
        cross = None
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        v0 /= np.linalg.norm(v0)
        # flip the spectrum around a Gershgorin upper bound: the smallest
        # algebraic eigenvalue becomes the largest-magnitude one, which
        # Lanczos resolves much more reliably than a raw "SA" run
        shift = 1.0 + _row_sum_bound(h)
        flipped = (sp.identity(dim, dtype=h.dtype, format="csr") * shift) - h
        vals, vecs = spla.eigsh(flipped, k=1, which="LA", v0=v0, maxiter=10000)
        energy = float(shift - vals[0])
        vec = _fix_phase(vecs[:, 0].astype(np.complex128))
        degeneracy = 1
        method = "lanczos"
        cross = None
        if dim <= 4 * dense_cap:
            vals = _block_eigvalsh(h)
            dense_energy = float(vals[0])
            degeneracy = int(_in_ground_space(vals, dense_energy).sum())
            cross = abs(dense_energy - energy)
            if cross > CROSS_CHECK_TOL * max(1.0, abs(energy)):
                raise AssertionError(
                    f"dense and Lanczos ground energies disagree by {cross:.2e}"
                )
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    return GroundStateResult(
        energy=energy,
        vector=np.asarray(vec, dtype=np.complex128),
        residual=residual,
        method=method,
        degeneracy=degeneracy,
        cross_check_gap=cross,
    )


def low_spectrum(h: sp.spmatrix, count: int, dense_cap: int = DENSE_CAP_DEFAULT, seed: int = 7) -> np.ndarray:
    """Lowest `count` eigenvalues, ascending."""
    h = sp.csr_matrix(h)
    dim = h.shape[0]
    if dim <= dense_cap:
        return _block_eigvalsh(h)[:count]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    vals = spla.eigsh(h, k=count, which="SA", v0=v0 / np.linalg.norm(v0))[0]
    return np.sort(vals)


def spectral_gap(h: sp.spmatrix, dense_cap: int = DENSE_CAP_DEFAULT, seed: int = 7) -> float:
    vals = low_spectrum(h, 2, dense_cap=dense_cap, seed=seed)
    return float(vals[1] - vals[0])


@dataclass(frozen=True)
class ObservableReport:
    """Ground-state occupation data for one species.

    amplitudes[m] is the continuum-normalized annihilation amplitude
    || b(xi_m) Phi || = || b_m Phi || / sqrt(w_m); their weighted squares sum
    to the species' expected particle number.
    """

    species: int
    expected_number: float
    amplitudes: np.ndarray
    chain_gradients: tuple[np.ndarray, ...] = ()


def observables(
    bundle: HamiltonianBundle, vector: np.ndarray, species: int
) -> ObservableReport:
    table = bundle.table
    basis = bundle.basis
    w = table.mode_weights(species)
    amps = np.zeros(len(w))
    psi_vectors = []
    for local, mode in enumerate(table.block(species)):
        psi = annihilation(table, basis, mode) @ vector
        psi_vectors.append(psi / np.sqrt(w[local]))
        amps[local] = np.linalg.norm(psi) / np.sqrt(w[local])
    number = float(np.sum(w * amps**2))

    cfg = table.species[species]
    n_spins = len(cfg.spins)
    gradients = []
    for chain in cfg.chains:
        spacing = table.chain_spacing(species, chain)
        for s_idx in range(n_spins):
            locals_ = [p * n_spins + s_idx for p in chain]
            grads = np.zeros(len(chain) - 2)
            for pos in range(1, len(chain) - 1):
                diff = (
                    psi_vectors[locals_[pos + 1]] - psi_vectors[locals_[pos - 1]]
                ) / (2.0 * spacing)
                grads[pos - 1] = np.linalg.norm(diff)
            gradients.append(grads)
    return ObservableReport(
        species=species,
        expected_number=number,
        amplitudes=amps,
        chain_gradients=tuple(gradients),
    )


@dataclass(frozen=True)
class MassCurve:
    """Ground-state data along a decreasing mass grid for one species.

    energies[j] solves the Hamiltonian with masses[j]; limit_energy is the
    massless problem. cross_energies[j] = <Phi_j, H(limit) Phi_j> realizes the
    sandwich limit_energy <= cross_energies[j] <= energies[j]; overlaps track
    |<Phi_j, Phi_(j+1)>| as a convergence proxy (no compactness claim).
    bundles holds one bundle per mass and the limit last, all sharing one h_int.
    """

    species: int
    masses: np.ndarray
    energies: np.ndarray
    limit_energy: float
    cross_energies: np.ndarray
    overlaps: np.ndarray
    limit_overlap: float
    vectors: tuple[np.ndarray, ...] = field(repr=False, default=())
    limit_vector: np.ndarray | None = field(repr=False, default=None)
    bundles: tuple[HamiltonianBundle, ...] = field(repr=False, default=())

    def monotonicity_violation(self) -> float:
        """Largest increase of energy as the mass decreases (should be <= 0)."""
        diffs = np.diff(self.energies)
        return float(np.max(diffs)) if diffs.size else 0.0

    def sandwich_violation(self) -> float:
        lower = np.max(self.limit_energy - self.cross_energies)
        upper = np.max(self.cross_energies - self.energies)
        return float(max(lower, upper))

    def limit_gap(self) -> float:
        return float(self.energies[-1] - self.limit_energy)


def mass_sweep(
    bundle: HamiltonianBundle,
    species: int,
    masses: Sequence[float],
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
    keep_vectors: bool = True,
) -> MassCurve:
    """Solve the ground problem along a decreasing mass grid plus the limit.

    The mode geometry is fixed and only the species' dispersion changes, so
    every point is the bundle with that species' mass replaced: all points
    share the bundle's h_int, terms and tensors, and only the free diagonal
    differs. Masses must be strictly decreasing and positive; the massless
    limit is appended internally.
    """
    masses = np.asarray([float(m) for m in masses])
    if masses.size < 2 or np.any(np.diff(masses) >= 0):
        raise ValueError("masses must be strictly decreasing")
    if np.any(masses <= 0):
        raise ValueError("masses must be positive; the limit is added internally")

    bundles = [
        replace(bundle, table=bundle.table.with_species_mass(species, m))
        for m in [*masses, 0.0]
    ]
    results = [ground_state(b.h_total, dense_cap=dense_cap, seed=seed) for b in bundles]
    limit_result = results.pop()

    h_limit = bundles[-1].h_total
    cross = np.array(
        [float(np.real(np.vdot(r.vector, h_limit @ r.vector))) for r in results]
    )
    overlaps = np.array(
        [
            abs(np.vdot(results[j].vector, results[j + 1].vector))
            for j in range(len(results) - 1)
        ]
    )
    limit_overlap = float(abs(np.vdot(results[-1].vector, limit_result.vector)))
    return MassCurve(
        species=species,
        masses=masses,
        energies=np.array([r.energy for r in results]),
        limit_energy=limit_result.energy,
        cross_energies=cross,
        overlaps=overlaps,
        limit_overlap=limit_overlap,
        vectors=tuple(r.vector for r in results) if keep_vectors else (),
        limit_vector=limit_result.vector if keep_vectors else None,
        bundles=tuple(bundles),
    )


def coupling_gap_curve(
    bundle: HamiltonianBundle,
    couplings: Sequence[float],
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
) -> np.ndarray:
    """Spectral gap of H_free + g H_int for each g in couplings."""
    gaps = []
    for g in couplings:
        gaps.append(spectral_gap(bundle.with_coupling(g).h_total, dense_cap, seed))
    return np.asarray(gaps)


def quadratic_gap_fit(
    couplings: np.ndarray, gaps: np.ndarray, gap0: float
) -> tuple[float, float]:
    """Fit |gap(g) - gap(0)| = C g^2; returns (C, relative residual)."""
    couplings = np.asarray(couplings, dtype=float)
    deltas = np.abs(np.asarray(gaps, dtype=float) - gap0)
    g2 = couplings**2
    coeff = float(np.dot(deltas, g2) / np.dot(g2, g2))
    resid = float(np.linalg.norm(deltas - coeff * g2))
    scale = float(np.linalg.norm(deltas))
    return coeff, resid / scale if scale > 0 else 0.0
