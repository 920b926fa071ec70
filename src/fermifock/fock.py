"""Fermionic Fock space over a ModeTable.

Basis states are int64 bit masks over the global modes (bit m set = mode m
occupied), listed in ascending integer order. Creation and annihilation
operators carry the Jordan-Wigner sign (-1)^(number of occupied modes below m),
which together with the species-major global mode order realizes
anticommutation both within and across species.

monomial_operator is the one builder of off-diagonal operators: single
creators and annihilators, smeared fields and interaction monomials are all
calls of it. All operators are scipy CSR matrices with complex128 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .modes import ModeTable

# Refuse to enumerate bases beyond this many states (dense vectors of this
# size are ~1 GiB as complex128 and nothing here needs them).
MAX_BASIS_STATES = 2**24


@dataclass(frozen=True)
class FockBasis:
    """Sorted list of occupation bit masks, possibly truncated per species.

    states is ascending, so membership and positions resolve via searchsorted.
    """

    states: np.ndarray
    truncation: tuple[int, ...] | None = None

    @property
    def dimension(self) -> int:
        return self.states.shape[0]

    def positions(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Locate bit masks in the basis.

        Returns (pos, found); pos entries are valid only where found is True,
        which is how truncated bases silently drop states pushed outside the
        particle-number caps.
        """
        masks = np.asarray(masks, dtype=np.int64)
        pos = np.searchsorted(self.states, masks)
        pos_clip = np.minimum(pos, self.dimension - 1)
        found = self.states[pos_clip] == masks
        return pos_clip, found


def enumerate_basis(
    table: ModeTable,
    truncation: list[int] | tuple[int, ...] | None = None,
) -> FockBasis:
    """Enumerate occupation states, optionally capping particles per species.

    truncation, when given, holds one non-negative integer cap per species; states
    with more than that many occupied modes in the species' block are dropped.
    """
    m = table.total_modes
    if 2**m > MAX_BASIS_STATES and truncation is None:
        raise ValueError("basis too large; truncate or reduce the mode count")
    states = np.arange(2**m, dtype=np.int64)
    if truncation is not None:
        if len(truncation) != table.n_species:
            raise ValueError("need one truncation cap per species")
        if any(not isinstance(cap, (int, np.integer)) or cap < 0 for cap in truncation):
            raise ValueError(
                f"truncation caps must be non-negative integers, got {list(truncation)}"
            )
        keep = np.ones(states.shape[0], dtype=bool)
        for i, cap in enumerate(truncation):
            keep &= _species_count(table, states, i) <= cap
        states = states[keep]
    if states.shape[0] > MAX_BASIS_STATES:
        raise ValueError("basis too large; tighten truncation")
    return FockBasis(states=states, truncation=tuple(truncation) if truncation else None)


def _species_count(table: ModeTable, states: np.ndarray, species: int) -> np.ndarray:
    """Particles of one species in each state."""
    return np.bitwise_count(states & np.int64(sum(1 << mode for mode in table.block(species))))


def below_caps(table: ModeTable, basis: FockBasis) -> np.ndarray:
    """Mask of the states in which every species holds fewer particles than
    its truncation cap (every state of an untruncated basis): from these, no
    single creator leaves the basis."""
    below = np.ones(basis.dimension, dtype=bool)
    for i, cap in enumerate(basis.truncation or ()):
        below &= _species_count(table, basis.states, i) < cap
    return below


def monomial_operator(
    table: ModeTable,
    basis: FockBasis,
    factors: Sequence[tuple[int, bool]],
    values: np.ndarray,
) -> sp.csr_matrix:
    """Assemble sum over mode tuples of values[tuple] * (operator factors).

    factors lists (species, is_creation) pairs left to right; each species may
    appear at most once. values has one axis per involved species in ascending
    species order, sized by that species' mode count. Zero tensor entries are
    skipped, so sparse kernels assemble cheaply.
    """
    involved = sorted(s for s, _ in factors)
    if len(set(involved)) != len(factors):
        raise ValueError("each species may appear only once in a monomial")
    values = np.asarray(values, dtype=np.complex128)
    expected = tuple(len(table.block(s)) for s in involved)
    if values.shape != expected:
        raise ValueError("tensor shape must match the involved species' mode counts")
    axis_of = {s: a for a, s in enumerate(involved)}
    offsets = [table.offsets[s] for s, _ in factors]

    states = basis.states
    dim = basis.dimension
    all_rows, all_cols, all_data = [], [], []
    for idx in np.argwhere(values != 0):
        amp = values[tuple(idx)]
        cur = states.copy()
        sign = np.ones(dim)
        alive = np.ones(dim, dtype=bool)
        for (s, create), off in zip(reversed(factors), reversed(offsets)):
            mode = off + int(idx[axis_of[s]])
            bit = np.int64(1) << np.int64(mode)
            occupied = (cur & bit) != 0
            ok = ~occupied if create else occupied
            below = np.bitwise_count(cur & (bit - np.int64(1))) & 1
            sign = np.where(ok, sign * (1.0 - 2.0 * below), 0.0)
            alive &= ok
            cur = np.where(ok, cur | bit if create else cur & ~bit, cur)
        cols = np.nonzero(alive)[0]
        if cols.size == 0:
            continue
        rows, found = basis.positions(cur[cols])
        cols = cols[found]
        rows = rows[found]
        all_rows.append(rows)
        all_cols.append(cols)
        all_data.append(amp * sign[cols])
    if not all_rows:
        return sp.csr_matrix((dim, dim), dtype=np.complex128)
    op = sp.csr_matrix(
        (np.concatenate(all_data), (np.concatenate(all_rows), np.concatenate(all_cols))),
        shape=(dim, dim),
    )
    op.sum_duplicates()
    return op


def _ladder(table: ModeTable, basis: FockBasis, mode: int, create: bool) -> sp.csr_matrix:
    species = table.locate(mode)[0]
    values = np.zeros(len(table.block(species)))
    values[mode - table.offsets[species]] = 1.0
    return monomial_operator(table, basis, ((species, create),), values)


def creation(table: ModeTable, basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Sparse matrix of b*_mode in the given basis."""
    return _ladder(table, basis, mode, True)


def annihilation(table: ModeTable, basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Sparse matrix of b_mode in the given basis."""
    return _ladder(table, basis, mode, False)


def smeared(
    table: ModeTable, basis: FockBasis, species: int, coefficients: np.ndarray
) -> sp.csr_matrix:
    """Smeared creator sum_m sqrt(w_m) f_m b*_m of one species, the discrete b*(f).

    Its operator norm equals the weighted l2 norm of f (checked in the test
    suite).
    """
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    w = table.mode_weights(species)
    if coefficients.shape != w.shape:
        raise ValueError("need one coefficient per mode of the species")
    return monomial_operator(table, basis, ((species, True),), np.sqrt(w) * coefficients)


def diagonal_second_quantized(table: ModeTable, basis: FockBasis, species: int) -> np.ndarray:
    """Diagonal of the free Hamiltonian block dGamma(omega) of one species, as a
    dense vector; wrap with scipy.sparse.diags to get an operator."""
    energies = table.mode_energies(species)
    diag = np.zeros(basis.dimension)
    for local, mode in enumerate(table.block(species)):
        occ = (basis.states >> np.int64(mode)) & 1
        diag += energies[local] * occ
    return diag


def free_hamiltonian_diagonal(
    table: ModeTable, basis: FockBasis, species: Sequence[int] | None = None
) -> np.ndarray:
    """Diagonal of sum_i dGamma(omega_i) over the given species (all by default)."""
    diag = np.zeros(basis.dimension)
    for i in range(table.n_species) if species is None else species:
        diag += diagonal_second_quantized(table, basis, i)
    return diag


def parity_diagonal(basis: FockBasis) -> np.ndarray:
    """Diagonal of the total parity (-1)^N."""
    counts = np.bitwise_count(basis.states)
    return 1.0 - 2.0 * (counts & 1).astype(float)


def save_triplets(op: sp.spmatrix, path: str) -> None:
    """Write a sparse operator in the plain text triplet format.

    First line: dimension and number of stored entries. Then one line per
    entry: row, column, real part, imaginary part. Entries are emitted in
    row-major CSR order so equal operators serialize identically.
    """
    op = sp.csr_matrix(op)
    op.sum_duplicates()
    coo = op.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{op.shape[0]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")

