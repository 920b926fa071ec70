"""Interaction processes, kernel tensors and Hamiltonian assembly.

An interaction process over n species is a monomial with one operator factor
per species: the species in `created` contribute creators, the rest
annihilators, creators written left of annihilators and each group in
ascending species order. The canonical signature list for given n and p
(number of creators) keeps, for 0 < p < n, only signatures whose first created
species precedes the first annihilated one; the dropped ones are adjoints of
kept ones, and the assembled interaction adds hermitian conjugates explicitly.

A kernel tensor stores the amplitude for every mode tuple. Axis i always
corresponds to species i (ascending), regardless of the factor order in the
monomial, and entries carry the product of sqrt(mode weight) over all axes so
that weighted continuum integrals become plain tensor sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .fock import (
    FockBasis,
    annihilation,
    free_hamiltonian_diagonal,
    monomial_operator,
    parity_diagonal,
)
from .modes import ModeTable

HERMITICITY_TOL = 1e-13


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


def enumerate_processes(n: int, n_created: int | None = None) -> list[ProcessSignature]:
    """Canonical process signatures for n species.

    With n_created given, only that creator count; otherwise all counts 0..n,
    ordered by creator count then lexicographically by the created set. For
    creator counts strictly between 0 and n, species 0 is always in the
    created group (the ordering condition), so the count is C(n-1, p-1);
    p = 0 and p = n contribute one signature each.
    """
    if n < 1:
        raise ValueError("need at least one species")
    counts = range(n + 1) if n_created is None else [n_created]
    out = []
    for p in counts:
        if not (0 <= p <= n):
            raise ValueError("creator count out of range")
        if p == 0:
            out.append(ProcessSignature(n, (), tuple(range(n))))
            continue
        if p == n:
            out.append(ProcessSignature(n, tuple(range(n)), ()))
            continue
        for rest in combinations(range(1, n), p - 1):
            created = (0,) + rest
            annihilated = tuple(i for i in range(n) if i not in created)
            out.append(ProcessSignature(n, created, annihilated))
    return out


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

    The interaction (h_int, the process terms it was summed from and their
    kernel tensors) depends on the mode geometry only and is built once, by
    assemble_total. The species masses enter only the free diagonal, so
    free_diag and h_total are derived from the table and the coupling on
    construction: a mass or coupling change is a dataclasses.replace that
    shares the interaction.
    """

    table: ModeTable
    basis: FockBasis
    coupling: float
    tensors: tuple[KernelTensor, ...]
    terms: tuple[sp.csr_matrix, ...]
    h_int: sp.csr_matrix
    free_diag: np.ndarray = field(init=False)
    h_total: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        coupling = float(self.coupling)
        free_diag = free_hamiltonian_diagonal(self.table, self.basis)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "free_diag", free_diag)
        object.__setattr__(
            self, "h_total", (sp.diags(free_diag) + coupling * self.h_int).tocsr()
        )

    def with_coupling(self, coupling: float) -> "HamiltonianBundle":
        return replace(self, coupling=coupling)


def assemble_total(
    table: ModeTable,
    basis: FockBasis,
    tensors: Sequence[KernelTensor],
    coupling: float = 1.0,
) -> HamiltonianBundle:
    """Build H = H_free + coupling * sum_terms (term + adjoint).

    The only place the interaction is assembled. Raises if it fails
    hermiticity at 1e-13, which would indicate an assembly bug rather than
    bad input.
    """
    dim = basis.dimension
    h_int = sp.csr_matrix((dim, dim), dtype=np.complex128)
    terms = []
    for tensor in tensors:
        term = monomial_operator(table, basis, tensor.signature.factors(), tensor.values)
        terms.append(term)
        h_int = h_int + term + term.conj().T
    h_int = h_int.tocsr()
    dev = _max_abs(h_int - h_int.conj().T)
    if dev > HERMITICITY_TOL:
        raise AssertionError(f"interaction not hermitian, deviation {dev:.2e}")
    return HamiltonianBundle(
        table=table,
        basis=basis,
        coupling=coupling,
        tensors=tuple(tensors),
        terms=tuple(terms),
        h_int=h_int,
    )


def _max_abs(op: sp.spmatrix) -> float:
    op = sp.csr_matrix(op)
    return float(np.max(np.abs(op.data))) if op.nnz else 0.0


@dataclass(frozen=True)
class ParityCheckResult:
    matrix_deviation: float
    spectrum_deviation: float

    @property
    def passed(self) -> bool:
        return self.matrix_deviation < 1e-12 and self.spectrum_deviation < 1e-9


def parity_identity_check(bundle: HamiltonianBundle) -> ParityCheckResult:
    """Verify (-1)^N H (-1)^N = H - 2g H_int for odd-degree interactions.

    Every monomial must have an odd factor count (odd species number);
    otherwise the identity does not hold and a ValueError is raised. The
    spectrum deviation compares sorted eigenvalues of the two sides, which
    also witnesses that the two operators are unitarily equivalent.
    """
    for tensor in bundle.tensors:
        if tensor.signature.n_species % 2 == 0:
            raise ValueError("parity identity needs an odd number of species")
    p = parity_diagonal(bundle.basis)
    h = bundle.h_total.toarray()
    flipped = p[:, None] * h * p[None, :]
    target = h - 2.0 * bundle.coupling * bundle.h_int.toarray()
    matrix_dev = float(np.max(np.abs(flipped - target))) if h.size else 0.0
    ev_flip = np.linalg.eigvalsh(flipped)
    ev_target = np.linalg.eigvalsh(target)
    spec_dev = float(np.max(np.abs(ev_flip - ev_target)))
    return ParityCheckResult(matrix_deviation=matrix_dev, spectrum_deviation=spec_dev)


@dataclass(frozen=True)
class CommutatorParts:
    """Structured decomposition of [b_mode, g * H_int].

    slice_sum collects the contraction remnants: for every monomial carrying a
    creator of the mode's species, the monomial with that factor removed and
    the kernel sliced at the mode, with the anticommutation sign. tail is
    -2 g M b_mode summed over monomials of odd degree (zero when all degrees
    are even). total = slice_sum + tail equals the commutator.
    """

    mode: int
    species: int
    slice_sum: sp.csr_matrix
    tail: sp.csr_matrix
    total: sp.csr_matrix


def commutator_with_annihilator(
    bundle: HamiltonianBundle, mode: int
) -> CommutatorParts:
    """Decompose [b_mode, g H_int] into kernel-slice terms plus parity tail."""
    table = bundle.table
    basis = bundle.basis
    species, point, spin = table.locate(mode)
    local = mode - table.offsets[species]
    g = bundle.coupling
    dim = basis.dimension

    b_op = annihilation(table, basis, mode)
    slice_sum = sp.csr_matrix((dim, dim), dtype=np.complex128)
    tail = sp.csr_matrix((dim, dim), dtype=np.complex128)

    for tensor, term in zip(bundle.tensors, bundle.terms):
        monomials = [
            (tensor.signature.factors(), tensor.values, term),
            (_adjoint_factors(tensor.signature), np.conj(tensor.values), term.conj().T.tocsr()),
        ]
        for factors, values, op in monomials:
            for q, (s, create) in enumerate(factors):
                if s != species or not create:
                    continue
                remnant_factors = factors[:q] + factors[q + 1 :]
                axis = sorted(fs for fs, _ in factors).index(s)
                remnant_values = ((-1.0) ** q) * np.take(values, local, axis=axis)
                slice_sum = slice_sum + monomial_operator(
                    table, basis, remnant_factors, remnant_values
                )
            if len(factors) % 2 == 1:
                tail = tail - 2.0 * (op @ b_op)

    slice_sum = (g * slice_sum).tocsr()
    tail = (g * tail).tocsr()
    total = (slice_sum + tail).tocsr()
    return CommutatorParts(
        mode=mode, species=species, slice_sum=slice_sum, tail=tail, total=total
    )


def _adjoint_factors(sig: ProcessSignature) -> tuple[tuple[int, bool], ...]:
    """Factor sequence of the adjoint monomial (reversed, roles flipped)."""
    return tuple((s, not create) for s, create in reversed(sig.factors()))
