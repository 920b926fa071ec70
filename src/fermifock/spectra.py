"""Ground states with their low spectra, mass sweeps and simple observables.

H splits into blocks, the connected components of its sparsity pattern (every
term changes each species' particle number by one, so these are conserved
sectors), and the largest block sets a solve's cost. One loop, _block_ground,
solves a ground problem block by block: ground_state solves every block, each
mass_sweep point only the blocks its Weyl lower bounds leave in reach of the
ground. LAPACK's eigh is authoritative below a dimension cap and on blocks too
small for ARPACK. Up to four times the cap eigvalsh gives every other block's
values and the block holding the ground takes one seeded Lanczos run, checked
against them; above that each of those blocks takes a seeded Lanczos run.
Degenerate ground spaces, counted across blocks, get a deterministic
representative from the block of the first basis vector meeting them: its
projection, or the block's lowest Ritz vector, with a fixed phase convention.

The arithmetic is decided per block, by _block from the entries it gathers: a
block that stores no nonzero imaginary part (any kernel with a real value gives
one) is real symmetric and is solved real, so Lanczos runs ARPACK's dsaupd and
the block solves run real LAPACK, at a fraction of the complex cost. A block
with a complex entry keeps the complex solvers. No real copy of the whole H is
made, and the ground vector is complex either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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


def _partition(h: sp.csr_matrix) -> tuple[np.ndarray, list[np.ndarray]]:
    """The one-state components of h's pattern, as one ascending array, and the
    ascending states of each larger one, in _component_labels' numbering."""
    sizes = np.bincount(labels := _component_labels(h))
    order, ends = np.argsort(labels, kind="stable"), np.cumsum(sizes).tolist()
    blocks = [order[end - n:end] for n, end in zip(sizes.tolist(), ends) if n > 1]
    return np.nonzero(sizes[labels] == 1)[0], blocks


def _block(h: sp.csr_matrix, states: np.ndarray, dense: bool):
    """h on the ascending states of one component, an array if dense else CSR,
    real when its entries store no nonzero imaginary part: their rows hold no
    other column, so the rows are gathered from h's arrays and the columns
    renumbered."""
    starts, ends = h.indptr[states], h.indptr[states + 1]
    lengths, offsets = ends - starts, np.cumsum(ends - starts)
    take = np.repeat(ends - offsets, lengths) + np.arange(offsets[-1])
    cols, data = np.searchsorted(states, h.indices[take]), h.data[take]
    if np.iscomplexobj(data) and not data.imag.any():
        data = data.real.copy()
    if not dense:
        return sp.csr_matrix((data, cols, np.concatenate([[0], offsets])), shape=(states.size,) * 2)
    block = np.zeros((states.size,) * 2, dtype=data.dtype)
    np.add.at(block, (np.repeat(np.arange(states.size), lengths), cols), data)
    return block


def _block_eigvalsh(h: sp.spmatrix) -> np.ndarray:
    """All eigenvalues of h, ascending, from its blocks."""
    lone, blocks = _partition(h := sp.csr_matrix(h))
    vals = [np.linalg.eigvalsh(_block(h, s, True)) for s in blocks]
    return np.sort(np.concatenate([h.diagonal()[lone].real, *vals]))


def _in_ground_space(vals: np.ndarray, energy: float) -> np.ndarray:
    return vals - energy <= DEGENERACY_TOL * max(1.0, abs(energy))


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


def _block_ground(
    lone: np.ndarray, lone_energies: np.ndarray, blocks: Sequence[np.ndarray],
    bound: np.ndarray, block: Callable[[np.ndarray, bool], np.ndarray | sp.csr_matrix],
    v0: np.ndarray, dense_cap: int, count: int = 1,
) -> tuple[float, np.ndarray, int | None, np.ndarray, str, float | None]:
    """Ground energy, representative, degeneracy and `count` lowest values of a
    space split into lone states and blocks, the method and the largest
    cross-check gap (None without a check).

    Blocks go by ascending lower bound, and the rest are skipped once a bound
    lies above the lowest level found (finite bounds come with count 1); a
    solved block's bound becomes its lowest value, less the residual for a Ritz
    value. block(states, dense) slices a block as an array or as CSR. It is
    solved by eigh if the space has at most dense_cap states or the block at
    most count + 1 (ARPACK needs k < n - 1), by eigvalsh up to 4 * dense_cap
    states, and above that by seeded Lanczos with k = count. The representative
    comes from the block of the first state meeting the ground space: that
    state's projection in a full eigenbasis, else the block's lowest Ritz
    vector, or the lone state. The blocks meeting the ground are tried by least
    state; an eigvalsh block tried takes one seeded Lanczos pair (k = 1), its
    value checked against the block's lowest eigenvalue.
    """
    dim, gaps, unchecked = v0.size, [], False
    energy = float(lone_energies.min(initial=np.inf))
    eigenvalues, candidates = [lone_energies], [(lone, lone_energies, None)] * bool(lone.size)
    for k in np.argsort(bound, kind="stable"):
        if bound[k] > energy + DEGENERACY_TOL * max(1.0, abs(energy)):
            break  # this block and every later one lie above the ground
        s, vecs, slack = blocks[k], None, 0.0  # LAPACK's lowest value needs no slack
        if dim <= dense_cap or s.size <= count + 1:
            vals, vecs = np.linalg.eigh(block(s, True))
        elif dim <= 4 * dense_cap:
            vals = np.linalg.eigvalsh(block(s, True))  # vectors only if the block is tried
        else:
            h = block(s, False)
            vals, vecs = _lanczos(h, v0[s], count)
            unchecked = True
            slack = np.linalg.norm(h @ vecs[:, 0] - vals[0] * vecs[:, 0])  # the Ritz residual
            del h  # the next block is sliced without this one alive
        bound[k] = vals[0] - slack
        eigenvalues.append(vals)
        if vals[0] < energy:
            energy = float(vals[0])
            # the energy only falls: a block that cannot meet it now never will
            candidates = [c for c in candidates if _in_ground_space(c[1], energy).any()]
        if _in_ground_space(vals, energy).any():
            candidates.append((s, vals, vecs))

    degeneracy = sum(int(_in_ground_space(c[1], energy).sum()) for c in candidates)
    first, offer = dim, None
    for states, vals, vecs in sorted(candidates, key=lambda c: c[0][0]):
        if states[0] > first:
            break  # this block and every later one start after the first state found
        members = _in_ground_space(vals, energy)
        if states is lone:
            local, states, vec = 0, states[members][:1], np.ones(1)
        else:
            if vecs is None:
                (low,), vecs = _lanczos(block(states, False), v0[states], 1)
                gaps.append(gap := abs(float(vals[0]) - float(low)))
                if gap > CROSS_CHECK_TOL * max(1.0, abs(low)):
                    raise AssertionError(f"dense and Lanczos ground energies disagree by {gap:.2e}")
            space = vecs[:, members[:vecs.shape[1]]]  # a lone Ritz vector beside eigvalsh values
            local = int(np.argmax(np.linalg.norm(space, axis=1) > 1e-8))
            vec = space[:, 0] if vecs.shape[1] < states.size else space @ space[local].conj()
        if states[local] < first:
            first, offer = states[local], (states, vec)
    rep = np.zeros(dim, dtype=np.complex128)
    rep[offer[0]] = offer[1]
    if unchecked:  # two Ritz values in the ground space: Lanczos alone cannot count it
        degeneracy = 1 if degeneracy == 1 else None
    method = "lanczos" if gaps or unchecked else "dense"
    spectrum = np.sort(np.concatenate(eigenvalues))[:count]
    return energy, _fix_phase(rep), degeneracy, spectrum, method, max(gaps, default=None)


def ground_state(
    h: sp.spmatrix,
    dense_cap: int = DENSE_CAP_DEFAULT,
    seed: int = 7,
    count: int = 1,
) -> GroundStateResult:
    """Lowest eigenpair of a hermitian sparse matrix and its `count` lowest
    eigenvalues, every block of h solved by _block_ground. The method is
    "lanczos" when some block took a Lanczos run, else "dense"; above 4 *
    dense_cap states the spectrum holds the Lanczos blocks' Ritz values."""
    h = sp.csr_matrix(h)
    lone, blocks = _partition(h)
    v0 = np.random.default_rng(seed).standard_normal(h.shape[0])
    energy, vec, degeneracy, spectrum, method, cross = _block_ground(
        lone, h.diagonal()[lone].real, blocks, np.full(len(blocks), -np.inf),
        lambda s, dense: _block(h, s, dense), v0, dense_cap, count,
    )
    residual = float(np.linalg.norm(h @ vec - energy * vec))
    return GroundStateResult(
        energy=energy,
        vector=vec,
        residual=residual,
        method=method,
        degeneracy=degeneracy,
        spectrum=spectrum,
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
    At every size the ground is taken as ground_state takes it, shared levels included.
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
    lone, blocks = _partition(h_int)
    lone_int = g * h_int.diagonal().real[lone]
    v0 = np.random.default_rng(seed).standard_normal(h_int.shape[0])
    bound, previous = np.full(len(blocks), -np.inf), bundles[0].free_diag
    for fd in (b.free_diag for b in bundles):
        # below each block's lowest level, by Weyl: min eig(A - D) >= min eig(A) - max D
        bound -= [np.max(previous[s] - fd[s]) for s in blocks]
        previous = fd

        def block(s, dense):  # _block chose the arithmetic from the block's entries
            b = (sp.diags(fd[s]) + g * _block(h_int, s, False)).tocsr()
            return b.toarray() if dense else b

        yield _block_ground(lone, fd[lone] + lone_int, blocks, bound, block, v0, dense_cap)[:2]


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
    free part leaves each block of h_int invariant, so every point runs
    ground_state's block loop, _block_ground, slicing a block from h_int plus
    the point's free diagonal when it is solved. A block's lowest value (less
    its residual for a Ritz value), lowered at each later point by its largest
    free-diagonal fall (Weyl), bounds its lowest level, so no block above the
    ground found is solved."""
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
