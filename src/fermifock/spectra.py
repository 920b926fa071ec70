"""Ground states with their low spectra, mass sweeps and simple observables.

One call, ground_state, answers the ground problem and the low spectrum above
it. Dense LAPACK diagonalization is authoritative below a dimension cap and on
problems too small for ARPACK; above it one seeded Lanczos run takes over and,
below a cross-check cap, the block spectrum is computed too, compared and
reported. Every dense solve runs per block of H, one per connected component
of its sparsity pattern (every term changes each species' particle number by
one, so these are conserved sectors); the blocks' spectra together are exactly
H's, and the largest block sets the cost. Degenerate ground spaces, counted
across blocks, get a deterministic representative: the projection of the first
basis vector with nonvanishing component, with a fixed phase convention.

The arithmetic is decided once, by _solver_arithmetic: an H that stores no
nonzero imaginary part (any kernel with a real value gives one) is real
symmetric and is solved as h.real, so Lanczos runs ARPACK's dsaupd and the
block solves run real LAPACK, at a fraction of the complex cost. A complex
kernel value keeps the complex solvers. The ground vector is complex either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .fock import annihilation
from .hamiltonian import HamiltonianBundle

DENSE_CAP_DEFAULT = 2048
CROSS_CHECK_TOL = 1e-9
DEGENERACY_TOL = 1e-10


def __getattr__(name: str):  # ARPACK loads with the first Lanczos run, its exception too
    if name == "ArpackNoConvergence":  # what an unconverged run raises; callers refuse it
        from scipy.sparse.linalg import ArpackNoConvergence
        return ArpackNoConvergence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    vector: np.ndarray
    residual: float
    method: str
    degeneracy: int | None  # None: Ritz values alone cannot count it
    spectrum: np.ndarray  # the lowest eigenvalues, ascending
    cross_check_gap: float | None = None


def _row_sum_bound(h: sp.spmatrix) -> float:
    """Gershgorin-style upper bound on the spectrum: max row sum of |H|."""
    return float(np.max(np.abs(h).sum(axis=1))) if h.nnz else 0.0


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    out = vec / phase
    return out / np.linalg.norm(out)


def _solver_arithmetic(h: sp.csr_matrix) -> sp.csr_matrix:
    """h.real (contiguous) when h stores no nonzero imaginary part, else h."""
    if np.iscomplexobj(h.data) and not h.data.imag.any():
        return sp.csr_matrix((h.data.real.copy(), h.indices, h.indptr), shape=h.shape)
    return h


def _component_labels(h: sp.csr_matrix) -> np.ndarray:
    """Component of each state in h's stored pattern (a purely imaginary coupling
    is an edge), numbered by least state as csgraph's connected_components numbers
    them: min-label propagation with pointer jumping over pattern + pattern^T + I."""
    pattern = sp.csr_matrix((np.ones(h.nnz, bool), h.indices, h.indptr), shape=h.shape)
    graph = (pattern + pattern.T + sp.identity(h.shape[0], dtype=bool, format="csr")).tocsr()
    labels, old = np.arange(h.shape[0]), None
    while not np.array_equal(labels, old):  # each label a state of its component, never rising
        old, labels = labels, np.minimum.reduceat(labels[graph.indices], graph.indptr[:-1])
        labels = labels[labels]
    return np.unique(labels, return_inverse=True)[1]


def _blocks(h: sp.csr_matrix) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(states, dense block of h) for each connected component of h's pattern,
    one at a time and all from one pass over h's entries sorted by component.

    states are ascending basis indices. One-state components share a single
    pair whose block is the 1-D array of their diagonal entries, so a diagonal
    h costs no per-state work. The blocks are real when h has no imaginary part.
    """
    h = _solver_arithmetic(h)
    sizes = np.bincount(labels := _component_labels(h))
    lone = sizes[labels] == 1
    if lone.any():
        yield np.nonzero(lone)[0], h.diagonal()[lone].real
    order = np.argsort(labels, kind="stable")  # the components one after the other
    bounds = np.cumsum([0, *sizes])
    local = np.argsort(order) - bounds[labels]  # each state's index inside its block
    entries = h.tocoo()
    by_block = np.argsort(labels[entries.row], kind="stable")
    rows, cols, data = (a[by_block] for a in (local[entries.row], local[entries.col], entries.data))
    ends = np.cumsum([0, *np.bincount(labels[entries.row], minlength=sizes.size)])
    for label in np.nonzero(sizes > 1)[0]:
        take = slice(ends[label], ends[label + 1])
        dense = np.zeros((sizes[label], sizes[label]), dtype=h.dtype)
        np.add.at(dense, (rows[take], cols[take]), data[take])
        yield order[bounds[label]:bounds[label + 1]], dense


def _block_eigvalsh(h: sp.csr_matrix) -> np.ndarray:
    """All eigenvalues of h, ascending, from its blocks."""
    vals = [b if b.ndim == 1 else np.linalg.eigvalsh(b) for _, b in _blocks(h)]
    return np.sort(np.concatenate(vals))


def _in_ground_space(vals: np.ndarray, energy: float) -> np.ndarray:
    return vals - energy <= DEGENERACY_TOL * max(1.0, abs(energy))


def _dense_ground(h: sp.csr_matrix) -> tuple[float, np.ndarray, int, np.ndarray]:
    eigenvalues, candidates, energy = [], [], np.inf
    for states, block in _blocks(h):
        vals, vecs = (block, None) if block.ndim == 1 else np.linalg.eigh(block)
        eigenvalues.append(vals)
        if (low := float(vals.min())) < energy:
            energy = low
            # the energy only falls: a block that cannot meet it now never will
            candidates = [c for c in candidates if _in_ground_space(c[1], energy).any()]
        if _in_ground_space(vals, energy).any():
            candidates.append((states, vals, vecs))
    degeneracy = 0
    # deterministic representative: project the first basis vector that meets
    # the ground space. It lies in one block, so each block offers its first.
    offers = []
    for states, vals, vecs in candidates:
        members = _in_ground_space(vals, energy)
        degeneracy += int(members.sum())
        if vecs is None:  # one-state blocks: the ground states are basis vectors
            offers.append((states[members][0], states[members][:1], np.ones(1)))
            continue
        space = vecs[:, members]
        local = int(np.argmax(np.linalg.norm(space, axis=1) > 1e-8))
        offers.append((states[local], states, space @ space[local].conj()))
    _, states, projection = min(offers, key=lambda offer: offer[0])
    rep = np.zeros(h.shape[0], dtype=np.complex128)
    rep[states] = projection
    spectrum = np.sort(np.concatenate(eigenvalues))
    return energy, _fix_phase(rep), degeneracy, spectrum


def ground_state(
    h: sp.spmatrix,
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
    count: int = 1,
) -> GroundStateResult:
    """Lowest eigenpair of a hermitian sparse matrix and its `count` lowest
    eigenvalues.

    Dense up to dimension dense_cap, and whenever ARPACK cannot return `count`
    values (it needs count < dim - 1). Otherwise one seeded Lanczos run (eigsh,
    k=count) gives the ground pair from its lowest Ritz value, with a dense
    eigenvalue cross-check when the dimension still allows one. The spectrum
    comes from the blocks whenever they were solved, else from the Ritz values.
    """
    h = _solver_arithmetic(sp.csr_matrix(h))
    dim = h.shape[0]
    cross = None
    if dim <= dense_cap or count >= dim - 1:
        energy, vec, degeneracy, spectrum = _dense_ground(h)
        method = "dense"
    else:
        v0 = np.random.default_rng(seed).standard_normal(dim)
        v0 /= np.linalg.norm(v0)
        # flip the spectrum around a Gershgorin upper bound: the smallest
        # algebraic eigenvalues become the largest-magnitude ones, which
        # Lanczos resolves much more reliably than a raw "smallest" run
        shift = 1.0 + _row_sum_bound(h)
        flipped = (sp.identity(dim, dtype=h.dtype, format="csr") * shift) - h
        import scipy.sparse.linalg as spla  # ARPACK, loaded by the first Lanczos run
        vals, vecs = spla.eigsh(flipped, k=count, which="LA", v0=v0, maxiter=10000)
        order = np.argsort(-vals)  # the lowest Ritz values of h first
        spectrum = shift - vals[order]
        energy = float(spectrum[0])
        vec = _fix_phase(vecs[:, order[0]].astype(np.complex128))
        # two Ritz values in the ground space: Lanczos alone cannot count it
        degeneracy = 1 if _in_ground_space(spectrum, energy).sum() == 1 else None
        method = "lanczos"
        if dim <= 4 * dense_cap:
            spectrum = _block_eigvalsh(h)
            dense_energy = float(spectrum[0])
            degeneracy = int(_in_ground_space(spectrum, dense_energy).sum())
            cross = abs(dense_energy - energy)
            if cross > CROSS_CHECK_TOL * max(1.0, abs(energy)):
                raise AssertionError(
                    f"dense and Lanczos ground energies disagree by {cross:.2e}"
                )
    # a real h times the real and imaginary parts: no complex copy of h
    hvec = h @ vec if np.iscomplexobj(h.data) else h @ vec.real + 1j * (h @ vec.imag)
    residual = float(np.linalg.norm(hvec - energy * vec))
    return GroundStateResult(
        energy=energy,
        vector=vec,
        residual=residual,
        method=method,
        degeneracy=degeneracy,
        spectrum=spectrum[:count],
        cross_check_gap=cross,
    )


@dataclass(frozen=True)
class ObservableReport:
    """Ground-state occupation data for one species.

    vectors[m] is the continuum-normalized row b(xi_m) Phi = b_m Phi / sqrt(w_m),
    and amplitudes[m] its norm || b_m Phi || / sqrt(w_m); their weighted squares
    sum to the species' expected particle number.
    """

    species: int
    expected_number: float
    amplitudes: np.ndarray
    vectors: np.ndarray = field(repr=False)
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
                diff = psi_vectors[locals_[pos + 1]] - psi_vectors[locals_[pos - 1]]
                grads[pos - 1] = np.linalg.norm(diff) / (2.0 * spacing)
            gradients.append(grads)
    return ObservableReport(
        species=species,
        expected_number=number,
        amplitudes=amps,
        vectors=np.array(psi_vectors),
        chain_gradients=tuple(gradients),
    )


@dataclass(frozen=True)
class MassCurve:
    """Ground-state data along a decreasing mass grid for one species.

    energies[j] solves the Hamiltonian with masses[j]; limit_energy is the
    massless problem. cross_energies[j] = <Phi_j, H(limit) Phi_j> realizes the
    sandwich limit_energy <= cross_energies[j] <= energies[j]; overlaps track
    |<Phi_j, Phi_(j+1)>| as a convergence proxy (no compactness claim).
    bundles holds one bundle per mass and the limit last, all sharing one h_int;
    they hold no H_total (a bundle builds it on access).
    """

    species: int
    masses: np.ndarray
    energies: np.ndarray
    limit_energy: float
    cross_energies: np.ndarray
    overlaps: np.ndarray
    limit_overlap: float
    vectors: tuple[np.ndarray, ...] = field(repr=False)
    limit_vector: np.ndarray = field(repr=False)
    bundles: tuple[HamiltonianBundle, ...] = field(repr=False)

    def monotonicity_violation(self) -> float:
        """Largest increase of energy as the mass decreases (should be <= 0)."""
        diffs = np.diff(self.energies)
        return float(np.max(diffs)) if diffs.size else 0.0

    def sandwich_violation(self) -> float:
        lower = np.max(self.limit_energy - self.cross_energies)
        upper = np.max(self.cross_energies - self.energies)
        return float(max(lower, upper))


def mass_sweep(
    bundle: HamiltonianBundle,
    species: int,
    masses: Sequence[float],
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
) -> MassCurve:
    """Solve the ground problem along a decreasing mass grid plus the limit.

    The mode geometry is fixed and only the species' dispersion changes, so
    every point is the bundle with that species' mass replaced: all points
    share the bundle's h_int, terms and tensors, and own only a table and a free
    diagonal. Each H_total lives for its own solve, and the limit's is built
    once more for the cross energies, so a sweep holds one at a time. Masses
    must be strictly decreasing and positive; the massless limit is appended.
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
    # held by ground_state alone, which frees the complex H once it has h.real
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
        vectors=tuple(r.vector for r in results),
        limit_vector=limit_result.vector,
        bundles=tuple(bundles),
    )

