"""Fock basis enumeration and the fermionic operator algebra."""

from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from fermifock.fock import (
    annihilation,
    creation,
    diagonal_second_quantized,
    enumerate_basis,
    free_hamiltonian_diagonal,
    parity_diagonal,
    save_triplets,
    smeared,
)
from fermifock.modes import SpeciesConfig, build_mode_table, weighted_norm

CAR_TOL = 1e-14
NORM_TOL = 1e-10
PULL_TOL = 1e-12


def load_triplets(path):
    """Read back what `save_triplets` wrote: the export format's inverse."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("malformed triplet header")
        dim, nnz = int(header[0]), int(header[1])
        rows, cols, data = [], [], []
        for _ in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError("malformed triplet line")
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            data.append(float(parts[2]) + 1j * float(parts[3]))
    op = sp.csr_matrix((np.array(data, dtype=np.complex128), (rows, cols)), shape=(dim, dim))
    op.sum_duplicates()
    return op


def random_table(seed, masses, points_per, spins_per):
    rng = np.random.default_rng(seed)
    species = []
    for m, np_, sp_ in zip(masses, points_per, spins_per):
        pts = rng.uniform(-1.2, 1.2, size=(np_, 3))
        w = rng.uniform(0.2, 1.8, size=np_)
        spins = (0.5, -0.5)[:sp_]
        species.append(SpeciesConfig(mass=m, points=pts, weights=w, spins=spins))
    return build_mode_table(species)


def max_abs(op):
    return np.max(np.abs(op.toarray())) if op.nnz else 0.0


def test_basis_counts():
    table = random_table(0, (1.0, 0.5), (2, 3), (2, 1))
    basis = enumerate_basis(table)
    assert basis.dimension == 2**table.total_modes
    assert np.all(np.diff(basis.states) > 0)


def test_truncated_basis_counts():
    table = random_table(1, (1.0, 0.5), (3, 2), (1, 1))
    basis = enumerate_basis(table, truncation=(1, 2))
    # one cap per species: sum of binomials per block, multiplied out
    expected = sum(comb(3, a) for a in range(2)) * sum(comb(2, b) for b in range(3))
    assert basis.dimension == expected
    for state in basis.states:
        assert bin(int(state) & 0b000111).count("1") <= 1
        assert bin(int(state) & 0b011000).count("1") <= 2


@pytest.mark.parametrize("truncation", [(-1, 0), (1, -2)])
def test_negative_truncation_caps_are_rejected(truncation):
    table = random_table(1, (1.0, 0.5), (3, 2), (1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_basis(table, truncation=truncation)


def test_creation_matrices_single_species():
    """Two modes: frozen 4x4 matrices fix the sign convention."""
    pts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    table = build_mode_table(
        [SpeciesConfig(mass=1.0, points=pts, weights=np.ones(2), spins=(0.5,))]
    )
    basis = enumerate_basis(table)
    b0 = creation(table, basis, 0).toarray()
    b1 = creation(table, basis, 1).toarray()
    want0 = np.zeros((4, 4))
    want0[1, 0] = 1.0
    want0[3, 2] = 1.0
    want1 = np.zeros((4, 4))
    want1[2, 0] = 1.0
    want1[3, 1] = -1.0  # Jordan-Wigner sign from the occupied mode below
    np.testing.assert_allclose(b0, want0)
    np.testing.assert_allclose(b1, want1)


@pytest.mark.parametrize(
    "points_per_species,builder,mode,entries",
    [
        ((2,), annihilation, 0, {(0, 1): 1, (2, 3): 1}),
        ((2,), annihilation, 1, {(0, 2): 1, (1, 3): -1}),
        # species 1's single mode picks up the sign of the occupied species-0 modes
        ((2, 1), creation, 2, {(4, 0): 1, (5, 1): -1, (6, 2): -1, (7, 3): 1}),
        ((2, 1), annihilation, 2, {(0, 4): 1, (1, 5): -1, (2, 6): -1, (3, 7): 1}),
    ],
    ids=["ann0", "ann1", "cre-species1", "ann-species1"],
)
def test_ladder_matrices_frozen(points_per_species, builder, mode, entries):
    """Frozen matrices fix the Jordan-Wigner sign convention, across species too."""
    pts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    table = build_mode_table(
        [
            SpeciesConfig(mass=1.0, points=pts[:n], weights=np.ones(n), spins=(0.5,))
            for n in points_per_species
        ]
    )
    basis = enumerate_basis(table)
    want = np.zeros((basis.dimension, basis.dimension))
    for (row, col), value in entries.items():
        want[row, col] = value
    np.testing.assert_array_equal(builder(table, basis, mode).toarray(), want)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_car_relations(seed):
    masses = [(1.0,), (1.0, 0.0), (0.8, 0.4, 0.0)][seed - 3]
    points = [(3,), (2, 2), (2, 1, 1)][seed - 3]
    spins = [(2,), (1, 2), (1, 2, 1)][seed - 3]
    table = random_table(seed, masses, points, spins)
    basis = enumerate_basis(table)
    dim = basis.dimension
    eye = sp.identity(dim, dtype=np.complex128, format="csr")
    ops = [annihilation(table, basis, m) for m in range(table.total_modes)]
    for a in range(table.total_modes):
        for b in range(table.total_modes):
            anti = ops[a] @ ops[b] + ops[b] @ ops[a]
            assert max_abs(anti) <= CAR_TOL
            mixed = ops[a] @ ops[b].conj().T + ops[b].conj().T @ ops[a]
            target = eye if a == b else None
            dev = mixed - eye if a == b else mixed
            assert max_abs(dev) <= CAR_TOL


def test_creation_is_adjoint_of_annihilation():
    table = random_table(6, (0.9, 0.0), (2, 2), (2, 1))
    basis = enumerate_basis(table)
    for m in range(table.total_modes):
        dev = creation(table, basis, m) - annihilation(table, basis, m).conj().T
        assert max_abs(dev) == 0.0


def test_smeared_norm_matches_weighted_l2():
    table = random_table(7, (1.0, 0.2), (3, 2), (1, 2))
    basis = enumerate_basis(table)
    rng = np.random.default_rng(7)
    for i in range(table.n_species):
        f = rng.normal(size=len(table.block(i))) + 1j * rng.normal(
            size=len(table.block(i))
        )
        op = smeared(table, basis, i, f)
        op_norm = np.linalg.norm(op.toarray(), ord=2)
        assert op_norm == pytest.approx(weighted_norm(table, i, f), abs=NORM_TOL)


def test_function_pull_through():
    """phi(dGamma(w)) b* = b* phi(dGamma(w) + w_m) for sampled scalar phi."""
    table = random_table(8, (1.0, 0.0), (2, 2), (1, 2))
    basis = enumerate_basis(table)
    for i in range(table.n_species):
        diag = diagonal_second_quantized(table, basis, i)
        energies = table.mode_energies(i)
        for local, mode in enumerate(table.block(i)):
            cre = creation(table, basis, mode)
            for phi in (lambda x: 1.0 / np.sqrt(x + 1.0), lambda x: np.exp(-x)):
                left = sp.diags(phi(diag)) @ cre
                right = cre @ sp.diags(phi(diag + energies[local]))
                assert max_abs(left - right) <= PULL_TOL


def test_number_and_parity_diagonals():
    table = random_table(9, (1.0, 0.5), (2, 1), (1, 2))
    basis = enumerate_basis(table)
    n_total = np.bitwise_count(basis.states)
    np.testing.assert_allclose(parity_diagonal(basis), (-1.0) ** n_total)
    free = free_hamiltonian_diagonal(table, basis)
    assert free[0] == 0.0
    assert np.all(free >= 0.0)
    # occupying everything costs the sum of all mode energies
    full = int(np.argmax(basis.states))
    total_energy = sum(table.mode_energies(i).sum() for i in range(table.n_species))
    assert free[full] == pytest.approx(total_energy, rel=1e-14)


def test_triplet_roundtrip(tmp_path):
    table = random_table(10, (1.0,), (3,), (2,))
    basis = enumerate_basis(table)
    rng = np.random.default_rng(10)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    op = smeared(table, basis, 0, f) + 0.5j * creation(table, basis, 1)
    path = tmp_path / "op.txt"
    save_triplets(op, str(path))
    back = load_triplets(str(path))
    assert (op - back).nnz == 0
    header = path.read_text().splitlines()[0].split()
    assert int(header[0]) == basis.dimension
    assert int(header[1]) == op.nnz


def test_load_triplets_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n")
    with pytest.raises(ValueError, match="header"):
        load_triplets(str(bad))
