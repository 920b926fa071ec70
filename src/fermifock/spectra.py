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
mass_sweep solves each point per block of the shared interaction, skipping
the blocks whose Weyl lower bounds lie above the ground found (see there).

The arithmetic is decided once, by _solver_arithmetic: an H that stores no
nonzero imaginary part (any kernel with a real value gives one) is real
symmetric and is solved as h.real, so Lanczos runs ARPACK's dsaupd and the
block solves run real LAPACK, at a fraction of the complex cost. A complex
kernel value keeps the complex solvers. The ground vector is complex either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

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


def _ground(solved: Iterable[tuple], dim: int) -> tuple[float, np.ndarray, int, np.ndarray]:
    """Ground energy, representative, degeneracy and sorted eigenvalues of solved
    blocks (states, eigenvalues, eigenvectors or None). The representative comes
    from the block of the first state meeting the ground space: that state's
    projection in a full eigenbasis, a Ritz vector as it is, or the state."""
    eigenvalues, candidates, energy = [], [], np.inf
    for states, vals, vecs in solved:
        eigenvalues.append(vals)
        if (low := float(vals.min(initial=np.inf))) < energy:
            energy = low
            # the energy only falls: a block that cannot meet it now never will
            candidates = [c for c in candidates if _in_ground_space(c[1], energy).any()]
        if _in_ground_space(vals, energy).any():
            candidates.append((states, vals, vecs))
    degeneracy, offers = 0, []
    for states, vals, vecs in candidates:
        members = _in_ground_space(vals, energy)
        degeneracy += int(members.sum())
        if vecs is None:
            offers.append((states[members][0], states[members][:1], np.ones(1)))
            continue
        space = vecs[:, members]
        local = int(np.argmax(np.linalg.norm(space, axis=1) > 1e-8))
        ritz = vecs.shape[1] < states.size
        offers.append((states[local], states, space[:, 0] if ritz else space @ space[local].conj()))
    _, states, vec = min(offers, key=lambda offer: offer[0])
    rep = np.zeros(dim, dtype=np.complex128)
    rep[states] = vec
    return energy, _fix_phase(rep), degeneracy, np.sort(np.concatenate(eigenvalues))


def _dense_ground(h: sp.csr_matrix) -> tuple[float, np.ndarray, int, np.ndarray]:
    solved = ((s, b, None) if b.ndim == 1 else (s, *np.linalg.eigh(b)) for s, b in _blocks(h))
    return _ground(solved, h.shape[0])


def _lanczos(h: sp.csr_matrix, v0: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count lowest Ritz values of h, ascending, and their vectors, from one
    eigsh run from v0 on h flipped around a Gershgorin upper bound: the smallest
    algebraic eigenvalues become the largest-magnitude ones, which Lanczos
    resolves much more reliably than a raw "smallest" run."""
    shift = 1.0 + _row_sum_bound(h)
    flipped = (sp.identity(h.shape[0], dtype=h.dtype, format="csr") * shift) - h
    import scipy.sparse.linalg as spla  # ARPACK, loaded by the first Lanczos run
    v0 = v0 / np.linalg.norm(v0)
    vals, vecs = spla.eigsh(flipped, k=count, which="LA", v0=v0, maxiter=10000)
    order = np.argsort(-vals)  # the lowest Ritz values of h first
    return shift - vals[order], vecs[:, order]


def _cross_checked(dense_energy: float, energy: float) -> float:
    """|dense_energy - energy|, the Lanczos energy's gap to its dense check."""
    cross = abs(dense_energy - energy)
    if cross > CROSS_CHECK_TOL * max(1.0, abs(energy)):
        raise AssertionError(f"dense and Lanczos ground energies disagree by {cross:.2e}")
    return cross


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
        ritz, vecs = _lanczos(h, np.random.default_rng(seed).standard_normal(dim), count)
        energy, vec, degeneracy, spectrum = _ground([(np.arange(dim), ritz, vecs)], dim)
        # two Ritz values in the ground space: Lanczos alone cannot count it
        degeneracy = 1 if degeneracy == 1 else None
        method = "lanczos"
        if dim <= 4 * dense_cap:
            spectrum = _block_eigvalsh(h)
            degeneracy = int(_in_ground_space(spectrum, float(spectrum[0])).sum())
            cross = _cross_checked(float(spectrum[0]), energy)
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
    massless problem. cross_energies[j] = <Phi_j, H(limit) Phi_j>, from the free
    diagonal and h_int, realizes limit_energy <= cross_energies[j] <= energies[j];
    overlaps track |<Phi_j, Phi_(j+1)>| as a convergence proxy (no compactness
    claim). bundles: one per mass, the limit last, sharing one h_int, no H_total.
    At every size a level that blocks share is taken as ground_state's dense tier takes it.
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


def _block_sweep(bundles: Sequence[HamiltonianBundle], dense_cap: int, seed: int):
    """(energy, vector) at each bundle's masses, solved per block of their shared
    h_int: see mass_sweep."""
    h_int, g = bundles[0].h_int, bundles[0].coupling
    sizes = np.bincount(labels := _component_labels(h_int))
    blocks = [s for s in np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)) if s.size > 1]
    lone = np.nonzero(sizes[labels] == 1)[0]
    lone_int = g * h_int.diagonal().real[lone]
    v0 = np.random.default_rng(seed).standard_normal(dim := h_int.shape[0])
    bound, previous = np.full(len(blocks), -np.inf), bundles[0].free_diag
    for fd in (b.free_diag for b in bundles):
        # below each block's lowest level, by Weyl: min eig(A - D) >= min eig(A) - max D
        bound -= [np.max(previous[s] - fd[s]) for s in blocks]
        previous, lone_energies = fd, fd[lone] + lone_int

        def solved():
            best = float(lone_energies.min(initial=np.inf))
            yield lone, lone_energies, None
            for k in np.argsort(bound, kind="stable"):
                if bound[k] > best + DEGENERACY_TOL * max(1.0, abs(best)):
                    break  # this block and every later one lie above the ground
                s = blocks[k]
                h = (sp.diags(fd[s]) + g * _solver_arithmetic(h_int[s][:, s])).tocsr()
                # ARPACK needs a block of three states or more
                if dim <= dense_cap or s.size <= 2:
                    vals, vecs = np.linalg.eigh(h.toarray())
                else:
                    vals, vecs = _lanczos(h, v0[s], 1)
                    if dim <= 4 * dense_cap:
                        _cross_checked(float(np.linalg.eigvalsh(h.toarray())[0]), float(vals[0]))
                energy, vec = float(vals[0]), vecs[:, 0]
                bound[k] = energy - np.linalg.norm(h @ vec - energy * vec)
                del h  # the next block is sliced without this one alive
                best = min(best, energy)
                yield s, vals, vecs

        yield _ground(solved(), dim)[:2]


def mass_sweep(
    bundle: HamiltonianBundle,
    species: int,
    masses: Sequence[float],
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
) -> MassCurve:
    """Ground problems along a strictly decreasing grid of two or more positive
    masses plus the massless limit, each point the bundle with the species' mass
    replaced (sharing h_int, owning a table and a free diagonal). The diagonal
    free part leaves each block of h_int invariant, so a block is sliced when
    solved: dense if the space has at most dense_cap states or the block two,
    else by seeded Lanczos, cross-checked up to 4 * dense_cap states. A block's
    energy less its residual, lowered at each later point by its largest
    free-diagonal fall (Weyl), bounds its lowest level; blocks go by ascending
    bound, none above the ground found is solved, and the ground is picked as
    ground_state picks it."""
    masses = np.asarray([float(m) for m in masses])
    if masses.size < 2 or np.any(np.diff(masses) >= 0):
        raise ValueError("a mass sweep needs at least two masses, strictly decreasing")
    if np.any(masses <= 0):
        raise ValueError("masses must be positive; the limit is added internally")

    bundles = [
        replace(bundle, table=bundle.table.with_species_mass(species, m))
        for m in [*masses, 0.0]
    ]
    points = _block_sweep(bundles, dense_cap, seed)
    (*energies, limit_energy), (*vectors, limit_vector) = zip(*points)
    fd, g = bundles[-1].free_diag, bundle.coupling
    cross = [fd @ np.abs(v) ** 2 + g * np.vdot(v, bundle.h_int @ v).real for v in vectors]
    return MassCurve(
        species=species,
        masses=masses,
        energies=np.array(energies),
        limit_energy=limit_energy,
        cross_energies=np.array(cross),
        overlaps=np.array([abs(np.vdot(u, v)) for u, v in zip(vectors, vectors[1:])]),
        limit_overlap=float(abs(np.vdot(vectors[-1], limit_vector))),
        vectors=tuple(vectors),
        limit_vector=limit_vector,
        bundles=tuple(bundles),
    )
