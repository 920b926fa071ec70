"""Interaction processes, kernel tensors and Hamiltonian assembly.

An interaction process over n species is a monomial with one operator factor
per species: the species in `created` contribute creators, the rest
annihilators, creators written left of annihilators and each group in
ascending species order. A signature with creators and annihilators both
must have its first created species precede the first annihilated one; the
others are adjoints of such signatures, and the assembled interaction adds
hermitian conjugates explicitly.

A kernel tensor stores the amplitude for every mode tuple. Axis i always
corresponds to species i (ascending), regardless of the factor order in the
monomial, and entries carry the product of sqrt(mode weight) over all axes so
that weighted continuum integrals become plain tensor sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, annihilation, free_hamiltonian_diagonal, monomial_operator
from .modes import ModeTable


@dataclass(frozen=True)
class ProcessSignature:
    """Which species are created vs annihilated in one interaction monomial."""

    n_species: int
    created: tuple[int, ...]
    annihilated: tuple[int, ...]

    def __post_init__(self):
        created = tuple(int(i) for i in self.created)
        annihilated = tuple(int(i) for i in self.annihilated)
        object.__setattr__(self, "created", created)
        object.__setattr__(self, "annihilated", annihilated)
        n = self.n_species
        if n < 1:
            raise ValueError("need at least one species")
        if sorted(created + annihilated) != list(range(n)):
            raise ValueError("created and annihilated must partition the species")
        if list(created) != sorted(created) or list(annihilated) != sorted(annihilated):
            raise ValueError("species groups must be ascending")
        if created and annihilated and not created[0] < annihilated[0]:
            raise ValueError("first created species must precede first annihilated")

    def factors(self) -> tuple[tuple[int, bool], ...]:
        """Operator factors left to right as (species, is_creation)."""
        return tuple((c, True) for c in self.created) + tuple(
            (a, False) for a in self.annihilated
        )

    def label(self) -> str:
        c = "".join(str(i) for i in self.created) or "-"
        a = "".join(str(i) for i in self.annihilated) or "-"
        return f"c{c}a{a}"


@dataclass(frozen=True)
class KernelTensor:
    """Sampled interaction amplitude, weights folded in.

    values has one axis per species in ascending order; entry [m_0, ..., m_(n-1)]
    is G(xi_(m_0), ..., xi_(m_(n-1))) * prod_i sqrt(w_(m_i)).
    """

    signature: ProcessSignature
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))
        if self.values.ndim != self.signature.n_species:
            raise ValueError("tensor rank must equal the species count")

    def frobenius(self) -> float:
        """l2 norm of the weighted tensor = discrete L2 norm of the kernel."""
        return float(np.linalg.norm(self.values.ravel()))


def sample_kernel_tensor(
    table: ModeTable,
    signature: ProcessSignature,
    amplitude: Callable[[Sequence[np.ndarray]], np.ndarray],
) -> KernelTensor:
    """Sample amplitude on every mode tuple in one call and fold in weights.

    amplitude receives one momentum array per species in ascending species
    order; species i's modes run along axis i (shape (1, .., M_i, .., 1, 3)),
    and it returns the amplitude broadcast over them.
    """
    n = table.n_species
    if signature.n_species != n:
        raise ValueError("signature species count must match the table")

    def along(i: int, values: np.ndarray) -> np.ndarray:
        return values.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i) + values.shape[1:])

    values = np.asarray(
        amplitude([along(i, table.momenta(i)) for i in range(n)]), dtype=np.complex128
    )
    for i in range(n):
        values = values * along(i, np.sqrt(table.mode_weights(i)))
    return KernelTensor(signature=signature, values=values)


def kernel_slice(
    tensor: KernelTensor, table: ModeTable, species: int, local_mode: int
) -> np.ndarray:
    """Fix the species' mode and strip that axis' sqrt-weight factor.

    The result has n-1 axes (remaining species, ascending) and still carries
    their weights, so its plain l2 norm is the weighted norm of the continuum
    kernel slice at that mode's (momentum, spin).
    """
    w = table.mode_weights(species)[local_mode]
    return np.take(tensor.values, local_mode, axis=species) / np.sqrt(w)


@dataclass(frozen=True)
class HamiltonianBundle:
    """H = H_free + coupling * H_int for one table, basis and coupling.

    The interaction (h_int and the kernel tensors it was summed from) depends
    on the mode geometry only and is built once, by assemble_total; a process
    term is rebuilt from its tensor by process_term. The species masses enter
    only the free diagonal, derived from the table on construction: a mass or
    coupling change is a dataclasses.replace that shares the interaction. h_total is built on each
    access and never stored; a caller that needs it twice binds it once.
    """

    table: ModeTable
    basis: FockBasis
    coupling: float
    tensors: tuple[KernelTensor, ...]
    h_int: sp.csr_matrix
    free_diag: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coupling", float(self.coupling))
        object.__setattr__(self, "free_diag", free_hamiltonian_diagonal(self.table, self.basis))

    @property
    def h_total(self) -> sp.csr_matrix:
        return (sp.diags(self.free_diag) + self.coupling * self.h_int).tocsr()


def process_term(table: ModeTable, basis: FockBasis, tensor: KernelTensor) -> sp.csr_matrix:
    """The process term T of one kernel tensor: its monomial summed over mode tuples."""
    return monomial_operator(table, basis, tensor.signature.factors(), tensor.values)


def hermitized(term: sp.csr_matrix) -> sp.csr_matrix:
    """term + term*: hermitian entry for entry, since a process term and its
    adjoint change each species' particle number oppositely and so never store
    the same position; each entry is a value or its exact conjugate."""
    return (term + term.conj().T).tocsr()


def assemble_total(
    table: ModeTable,
    basis: FockBasis,
    tensors: Sequence[KernelTensor],
    coupling: float = 1.0,
) -> HamiltonianBundle:
    """Build H = H_free + coupling * sum_terms hermitized(term).

    The only place the interaction is assembled. Every term adds at most one
    addend per position and its mirror the conjugate addend, in the same order,
    so H_int is hermitian by construction, to the bit.
    """
    dim = basis.dimension
    h_int = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for tensor in tensors:
        h_int = h_int + hermitized(process_term(table, basis, tensor))
    return HamiltonianBundle(
        table=table,
        basis=basis,
        coupling=coupling,
        tensors=tuple(tensors),
        h_int=h_int,
    )


def commutator_with_annihilator(bundle: HamiltonianBundle, mode: int) -> sp.csr_matrix:
    """[b_mode, g H_int] from its structured decomposition.

    The slice sum collects the contraction remnants: for every monomial
    carrying a creator of the mode's species, the monomial with that factor
    removed and the kernel sliced at the mode, with the anticommutation sign.
    Every monomial has one factor per species, so its degree is the species
    count: when that is odd the parity tail is -2 g H_int b_mode, else zero.
    Their sum is the commutator.
    """
    table = bundle.table
    basis = bundle.basis
    species, point, spin = table.locate(mode)
    local = mode - table.offsets[species]
    g = bundle.coupling
    dim = basis.dimension

    slice_sum = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for tensor in bundle.tensors:
        monomials = [
            (tensor.signature.factors(), tensor.values),
            (_adjoint_factors(tensor.signature), np.conj(tensor.values)),
        ]
        for factors, values in monomials:
            for q, (s, create) in enumerate(factors):
                if s != species or not create:
                    continue
                remnant_factors = factors[:q] + factors[q + 1 :]
                axis = sorted(fs for fs, _ in factors).index(s)
                remnant_values = ((-1.0) ** q) * np.take(values, local, axis=axis)
                slice_sum = slice_sum + monomial_operator(
                    table, basis, remnant_factors, remnant_values
                )

    if table.n_species % 2 == 0:
        return (g * slice_sum).tocsr()
    tail = -2.0 * (bundle.h_int @ annihilation(table, basis, mode))
    return (g * slice_sum + g * tail).tocsr()


def _adjoint_factors(sig: ProcessSignature) -> tuple[tuple[int, bool], ...]:
    """Factor sequence of the adjoint monomial (reversed, roles flipped)."""
    return tuple((s, not create) for s, create in reversed(sig.factors()))
