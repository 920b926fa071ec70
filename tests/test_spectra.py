"""Eigensolvers, mass sweeps and ground-state observables."""

import gc
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components  # the oracle for the block labels
from test_acceptance import grid_instance, pair_instance, quad_instance, triple_parts
from test_config_cli import lanczos_sweep_config, sweep_config
from test_verify import c0a1_bundle

from fermifock import spectra
from fermifock.config import build_bundle, normalize_config
from fermifock.fock import enumerate_basis, free_hamiltonian_diagonal
from fermifock.hamiltonian import (
    HamiltonianBundle,
    KernelTensor,
    ProcessSignature,
    assemble_total,
)
from fermifock.modes import SpeciesConfig, build_mode_table
from fermifock.spectra import DEGENERACY_TOL, ground_state, mass_sweep, observables

TOY_ENERGY_TOL = 1e-10
CURVE_TOL = 1e-9
CROSS_METHOD_TOL = 1e-9


def toy_pieces(mass0=1.0):
    point = np.zeros((1, 3))
    species = [
        SpeciesConfig(mass=mass0, points=point, weights=np.ones(1), spins=(0.5,)),
        SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,)),
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    tensor = KernelTensor(
        signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1))
    )
    return table, basis, [tensor]


def toy_bundle(coupling=1.0, mass0=1.0):
    table, basis, tensors = toy_pieces(mass0)
    return assemble_total(table, basis, tensors, coupling)


def toy_energy(mass0):
    """Analytic 2x2 ground energy of the pair-creation toy model."""
    s = 1.0 + mass0
    return (s - np.sqrt(s * s + 4.0)) / 2.0


def random_sparse_hermitian(dim, seed, density=0.05):
    rng = np.random.default_rng(seed)
    mat = sp.random(
        dim, dim, density=density, random_state=rng, dtype=np.complex128,
        data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k),
    ).tocsr()
    return (mat + mat.conj().T) * 0.5 + sp.diags(rng.normal(size=dim))


def random_hermitian(dim, rng):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) * 0.5


def permuted_block_diagonal(blocks, rng):
    """The block-diagonal matrix of `blocks`, with its basis randomly permuted."""
    mat = sp.block_diag(blocks, format="csr")
    perm = rng.permutation(mat.shape[0])
    return mat[perm][:, perm]


def full_dense_ground(h):
    """The full-matrix dense ground solve the blockwise one replaced."""
    vals, vecs = np.linalg.eigh(h)
    energy = float(vals[0])
    members = np.nonzero(vals - energy <= DEGENERACY_TOL * max(1.0, abs(energy)))[0]
    degeneracy = int(members.size)
    space = vecs[:, members]
    rep = None
    for basis_index in range(h.shape[0]):
        overlap = space.conj().T[:, basis_index]
        cand = space @ overlap
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            rep = cand / norm
            break
    if rep is None:
        rep = space[:, 0]
    return energy, spectra._fix_phase(rep), degeneracy


def test_toy_ground_energy():
    result = ground_state(toy_bundle().h_total)
    assert result.energy == pytest.approx(1.0 - np.sqrt(2.0), abs=TOY_ENERGY_TOL)
    assert result.method == "dense"
    assert result.residual <= 1e-12
    assert np.linalg.norm(result.vector) == pytest.approx(1.0, abs=1e-10)


def test_free_ground_state_is_vacuum():
    bundle = toy_bundle(coupling=0.0)
    result = ground_state(bundle.h_total)
    assert result.energy == pytest.approx(0.0, abs=1e-14)
    probs = np.abs(result.vector) ** 2
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_toy_gap_and_spectrum():
    h = toy_bundle().h_total
    spectrum = ground_state(h, count=4).spectrum
    np.testing.assert_allclose(
        spectrum,
        [1.0 - np.sqrt(2.0), 1.0, 1.0, 1.0 + np.sqrt(2.0)],
        atol=1e-12,
    )
    assert spectrum[1] - spectrum[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_tiny_problems_above_dense_cap_use_the_blocks():
    """ARPACK needs k < dim - 1; below that the dense block path answers."""
    h = toy_bundle().h_total  # dimension 4
    exact = [1.0 - np.sqrt(2.0), 1.0, 1.0, 1.0 + np.sqrt(2.0)]
    for count in (3, 4):
        spectrum = ground_state(h, dense_cap=1, count=count).spectrum
        np.testing.assert_allclose(spectrum, exact[:count], atol=1e-12)
    two = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, -1.0]], dtype=np.complex128))
    result = ground_state(two, dense_cap=1)
    assert result.method == "dense"
    assert result.energy == pytest.approx(-np.sqrt(1.25), abs=1e-12)


def test_variational_upper_bound():
    h = toy_bundle().h_total
    result = ground_state(h)
    rng = np.random.default_rng(50)
    for _ in range(100):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rayleigh = float(np.real(np.vdot(psi, h @ psi)))
        assert result.energy <= rayleigh + 1e-12


def test_dense_lanczos_agreement():
    h = random_sparse_hermitian(400, seed=51)
    dense = ground_state(h, dense_cap=400)
    lanczos = ground_state(h, dense_cap=100, seed=3)
    assert dense.method == "dense"
    assert lanczos.method == "lanczos"
    assert abs(dense.energy - lanczos.energy) <= CROSS_METHOD_TOL
    assert abs(np.vdot(dense.vector, lanczos.vector)) == pytest.approx(1.0, abs=1e-7)
    assert lanczos.cross_check_gap is not None


def test_degenerate_ground_space_is_reported():
    diag = np.array([0.5, -1.0, -1.0, 2.0])
    h = sp.diags(diag).tocsr()
    result = ground_state(h)
    assert result.degeneracy == 2
    # deterministic representative: the first basis state in the eigenspace
    assert abs(result.vector[1]) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_path_reports_degeneracy_across_blocks():
    """Equal minima in two blocks: both paths count a two-fold ground space."""
    rng = np.random.default_rng(52)
    twin = random_hermitian(20, rng)
    h = permuted_block_diagonal([twin, twin, random_hermitian(20, rng) + 10.0 * np.eye(20)], rng)
    lanczos = ground_state(h, dense_cap=40)
    dense = ground_state(h, dense_cap=60)
    assert lanczos.method == "lanczos" and lanczos.cross_check_gap is not None
    assert lanczos.degeneracy == 2
    assert dense.degeneracy == 2
    assert abs(lanczos.energy - dense.energy) <= CROSS_METHOD_TOL


@pytest.mark.parametrize(
    "dense_cap, count", [(10, 1), (4, 1), (4, 8)], ids=["checked", "ritz", "ritz-count-8"]
)
def test_lanczos_path_takes_the_dense_tier_representative(dense_cap, count):
    """The lowest level is shared by two 12-state blocks. Above the cap each is
    solved by its own Lanczos run, and the representative is the dense tier's:
    the ground vector of the block holding the least state that meets the
    ground space. A whole-space Lanczos run returned a mix of the two."""
    rng = np.random.default_rng(56)
    twin = random_hermitian(12, rng)
    h = permuted_block_diagonal([twin, random_hermitian(12, rng) + 10.0 * np.eye(12), twin], rng)
    dense = ground_state(h)
    lanczos = ground_state(h, dense_cap=dense_cap, count=count)
    assert dense.method == "dense" and dense.degeneracy == 2
    assert lanczos.method == "lanczos"
    assert abs(lanczos.energy - dense.energy) <= CROSS_METHOD_TOL
    np.testing.assert_allclose(lanczos.vector, dense.vector, rtol=0, atol=1e-10)


def test_dense_path_spectrum_is_the_block_spectrum():
    h = sp.csr_matrix(assemble_total(*triple_parts()).h_total)
    result = ground_state(h, count=8)
    assert result.method == "dense"
    want = spectra._block_eigvalsh(h)[:8]
    np.testing.assert_allclose(result.spectrum, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    assert result.energy == result.spectrum[0]


def test_lanczos_path_reports_the_cross_checked_block_spectrum():
    h = random_sparse_hermitian(200, seed=53)
    result = ground_state(h, dense_cap=60, seed=3, count=6)
    assert result.method == "lanczos" and result.cross_check_gap is not None
    np.testing.assert_array_equal(result.spectrum, spectra._block_eigvalsh(h)[:6])


def test_lanczos_path_above_the_cross_check_reports_ritz_values():
    rng = np.random.default_rng(54)
    blocks = [random_hermitian(20, rng) + shift * np.eye(20) for shift in (0.0, 0.5, 1.5)]
    h = permuted_block_diagonal(blocks, rng)
    result = ground_state(h, dense_cap=10, count=5)
    assert result.method == "lanczos" and result.cross_check_gap is None
    want = spectra._block_eigvalsh(h)[:5]
    np.testing.assert_allclose(result.spectrum, want, rtol=1e-10)
    assert result.energy == result.spectrum[0]


def test_lanczos_alone_leaves_a_near_degenerate_ground_space_unresolved():
    """Above the cross-check cap two Ritz values 1e-12 apart cannot be counted:
    the degeneracy is None. A gapped ground state keeps degeneracy 1. The
    levels sit in one 64-state block, a random rotation of their diagonal."""
    diag = np.linspace(0.0, 5.0, 64)
    diag[:2] = -1.0, -1.0 * (1.0 - 1e-12)
    q = np.linalg.qr(np.random.default_rng(55).normal(size=(64, 64)))[0]
    result = ground_state(sp.csr_matrix(q @ np.diag(diag) @ q.T), dense_cap=8, count=2)
    assert result.method == "lanczos" and result.cross_check_gap is None
    assert result.degeneracy is None
    diag[1] = -0.5
    result = ground_state(sp.csr_matrix(q @ np.diag(diag) @ q.T), dense_cap=8, count=2)
    assert result.method == "lanczos" and result.cross_check_gap is None
    assert result.degeneracy == 1


def imaginary_coupling_matrix(components=((0, 5, 7), (1, 2), (3, 4, 8, 11)), dim=12):
    """Only purely imaginary off-diagonal couplings, each component a chain;
    returns the matrix and its components."""
    h = sp.lil_matrix((dim, dim), dtype=np.complex128)
    h.setdiag(np.linspace(-1.0, 1.0, dim))
    for comp in components:
        for a, b in zip(comp, comp[1:]):
            h[a, b], h[b, a] = 0.7j, -0.7j
    return h.tocsr(), components


BLOCK_INSTANCES = pytest.mark.parametrize(
    "build",
    [
        lambda: grid_instance().h_total,
        lambda: pair_instance().h_total,
        lambda: assemble_total(*triple_parts()).h_total,
        lambda: quad_instance().h_total,
        lambda: imaginary_coupling_matrix()[0],
    ],
    ids=["grid", "pair", "triple", "quad", "imaginary"],
)


@BLOCK_INSTANCES
def test_block_spectrum_equals_full_spectrum(build):
    h = sp.csr_matrix(build())
    full = h.toarray()
    if not np.any(full.imag):
        full = full.real  # the same matrix; the real solver is about 4x faster
    np.testing.assert_allclose(
        spectra._block_eigvalsh(h), np.linalg.eigvalsh(full), rtol=0, atol=1e-12
    )


@pytest.mark.filterwarnings("error")  # no complex-to-real cast may warn
def test_blocks_follow_imaginary_couplings():
    h, components = imaginary_coupling_matrix()
    lone, blocks = spectra._partition(h)
    assert sorted(tuple(states) for states in blocks) == sorted(components)
    assert list(lone) == [6, 9, 10]
    for states in blocks:
        block = spectra._block(h, states, True)
        np.testing.assert_array_equal(block, h[states][:, states].toarray())


def entry_dtype(block):
    """The dtype _block gathers a block in: real exactly when it stores no
    nonzero imaginary part."""
    return np.complex128 if np.asarray(block.data).imag.any() else np.float64


def real_storage(h):
    """h stored real when it stores no nonzero imaginary part, else h."""
    return sp.csr_matrix(h.real) if not h.data.imag.any() else h


def csgraph_labels(h):
    """The components csgraph finds on h's stored pattern, as the blocks were once taken."""
    pattern = sp.csr_matrix((np.ones(h.nnz, np.int8), h.indices, h.indptr), shape=h.shape)
    return connected_components(pattern, directed=False)[1]


@st.composite
def one_sided_matrices(draw):
    """Complex matrices whose entries are stored where drawn and never mirrored,
    so most couplings sit on one side only; some are purely imaginary, and there
    are empty rows and isolated states."""
    dim = draw(st.integers(1, 30))
    index = st.integers(0, dim - 1)
    value = st.sampled_from([1.0, -0.5, 0.7j, -2j, 0.3 + 0.4j])
    entries = draw(st.lists(st.tuples(index, index, value), max_size=2 * dim))
    rows = np.array([r for r, _, _ in entries], dtype=np.int64)
    cols = np.array([c for _, c, _ in entries], dtype=np.int64)
    vals = np.array([v for _, _, v in entries], dtype=np.complex128)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


@seed(2026)
@settings(max_examples=300, deadline=None)
@given(h=one_sided_matrices())
def test_component_labels_match_csgraph(h):
    np.testing.assert_array_equal(spectra._component_labels(h), csgraph_labels(h))


@BLOCK_INSTANCES
def test_blocks_match_the_csgraph_blocks(monkeypatch, build):
    """The same lone states and block states, in the same order, as with
    csgraph's labels, and each block the slice of h on csgraph's states."""
    h = sp.csr_matrix(build())
    lone, blocks = spectra._partition(h)
    monkeypatch.setattr(spectra, "_component_labels", csgraph_labels)
    want_lone, want_blocks = spectra._partition(h)
    np.testing.assert_array_equal(lone, want_lone)
    assert len(blocks) == len(want_blocks)
    for states, want_states in zip(blocks, want_blocks):
        np.testing.assert_array_equal(states, want_states)
        assert np.all(np.diff(states) > 0)
        block, want = spectra._block(h, states, True), h[want_states][:, want_states]
        assert block.dtype == entry_dtype(want) and np.array_equal(block, want.toarray())


@pytest.mark.parametrize(
    "build",
    [
        lambda: pair_instance().h_total,
        lambda: grid_instance().h_total,
        lambda: c0a1_bundle(5).h_total,
        lambda: sp.diags(np.linspace(-1.0, 1.0, 9)).tocsr(),
    ],
    ids=["pair", "grid", "c0a1-complex", "diagonal"],
)
def test_block_gathers_the_sliced_block(build):
    """_block gathers each component's rows from h's arrays and renumbers their
    columns; as an array and as CSR it equals scipy's slice h[s][:, s] in value,
    and it is real exactly when the slice stores no nonzero imaginary part,
    whether h is stored complex or real. Lone states are one-state components."""
    for h in (sp.csr_matrix(build()), real_storage(sp.csr_matrix(build()))):
        lone, blocks = spectra._partition(h)
        for states in [*blocks, *lone[:, None]]:
            want = h[states][:, states]
            dense, csr = spectra._block(h, states, True), spectra._block(h, states, False)
            assert dense.dtype == csr.dtype == entry_dtype(want)
            assert np.array_equal(dense, want.toarray())
            assert np.array_equal(csr.toarray(), want.toarray())


DENSE_GROUND_PEAK_BYTES = int(4.5 * 2**20)


def test_dense_ground_holds_one_block_at_a_time():
    """On c0a1_bundle(5) (dim 1024, blocks up to 252 states) a warm dense
    ground_state traces about 3.5 MB at its peak: one block, its eigenvectors
    and those of the blocks that can still meet the ground energy. Solving
    every block and keeping all eigenvectors traced 5.7 MB."""
    h = sp.csr_matrix(c0a1_bundle(5).h_total)
    ground_state(h)
    tracemalloc.start()
    try:
        result = ground_state(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "dense"
    assert peak < DENSE_GROUND_PEAK_BYTES


SWEEP_PEAK_BYTES = int(3.5 * 2**20)


def test_sweep_below_the_cap_holds_one_block_at_a_time():
    """A warm sweep of c0a1_bundle(5) below the dense cap (four masses and the
    limit) traces about 3.0 MB at its peak: it slices and solves one block at a
    time and builds no H_total. One ground_state per point traced 3.84 MB."""
    bundle, masses = c0a1_bundle(5), [0.9, 0.5, 0.2, 0.05]
    mass_sweep(bundle, 0, masses)
    tracemalloc.start()
    try:
        mass_sweep(bundle, 0, masses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.h_int.shape[0] <= spectra.DENSE_CAP_DEFAULT
    assert peak < SWEEP_PEAK_BYTES


def test_residual_of_a_real_h_equals_the_complex_product():
    """An h with real entries gives the same bits stored complex or real: its
    blocks are gathered real either way, and the residual is the complex
    product h @ vec."""
    h = sp.csr_matrix(grid_instance().h_total)
    result = ground_state(h, dense_cap=1024)
    real = ground_state(real_storage(h), dense_cap=1024)
    assert np.iscomplexobj(h.data) and result.method == real.method == "lanczos"
    assert result.energy == real.energy and np.array_equal(result.vector, real.vector)
    want = float(np.linalg.norm(h @ result.vector - result.energy * result.vector))
    assert result.residual == real.residual == want


def ground_space_across_blocks(seed):
    """Ground space spread over two equal blocks and a one-state block.

    At seed 54 the representative comes from a block although a one-state
    block holds state 0; at seed 70 the one-state block's ground state wins.
    """
    rng = np.random.default_rng(seed)
    twin = random_hermitian(6, rng)
    lowest = np.linalg.eigvalsh(twin)[0]
    lone = sp.diags([lowest + 5.0, lowest, lowest + 3.0])
    return permuted_block_diagonal(
        [twin, random_hermitian(5, rng) + 10.0 * np.eye(5), twin, lone], rng
    )


@pytest.mark.parametrize(
    "build, expected_degeneracy",
    [
        (lambda: ground_space_across_blocks(54), 3),
        (lambda: ground_space_across_blocks(70), 3),
        (lambda: toy_bundle(coupling=0.0).h_total, 1),
        (lambda: pair_instance(coupling=0.0).h_total, 1),
    ],
    ids=["block-wins", "one-state-wins", "toy-coupling-0", "pair-coupling-0"],
)
def test_blockwise_dense_ground_matches_full_matrix(build, expected_degeneracy):
    h = sp.csr_matrix(build())
    want_energy, want_vector, want_degeneracy = full_dense_ground(h.toarray())
    result = ground_state(h, count=h.shape[0])
    energy, vector, degeneracy = result.energy, result.vector, result.degeneracy
    assert result.method == "dense"
    assert abs(energy - want_energy) <= 1e-12
    assert degeneracy == want_degeneracy == expected_degeneracy
    np.testing.assert_allclose(vector, want_vector, rtol=0, atol=1e-12)


def refiltering_dense_ground(h):
    """The dense ground solve that re-filtered every candidate block after each
    block it solved: the oracle for the bookkeeping that re-filters only when
    the energy falls."""
    lone, blocks = spectra._partition(h)
    sliced = [h[s][:, s].toarray() for s in blocks]  # each in the arithmetic of its entries
    solved = [(s, *np.linalg.eigh(b if b.imag.any() else b.real)) for s, b in zip(blocks, sliced)]
    eigenvalues, candidates, energy = [], [], np.inf
    for states, vals, vecs in [(lone, h.diagonal()[lone].real, None), *solved]:
        eigenvalues.append(vals)
        energy = min(energy, float(vals.min(initial=np.inf)))
        candidates.append((states, vals, vecs))
        candidates = [c for c in candidates if spectra._in_ground_space(c[1], energy).any()]
    degeneracy = 0
    offers = []
    for states, vals, vecs in candidates:
        members = spectra._in_ground_space(vals, energy)
        degeneracy += int(members.sum())
        if vecs is None:
            offers.append((states[members][0], states[members][:1], np.ones(1)))
            continue
        space = vecs[:, members]
        local = int(np.argmax(np.linalg.norm(space, axis=1) > 1e-8))
        offers.append((states[local], states, space @ space[local].conj()))
    _, states, projection = min(offers, key=lambda offer: offer[0])
    rep = np.zeros(h.shape[0], dtype=np.complex128)
    rep[states] = projection
    spectrum = np.sort(np.concatenate(eigenvalues))
    return energy, spectra._fix_phase(rep), degeneracy, spectrum


@st.composite
def planted_ground_matrices(draw):
    """Real or complex block-diagonal hermitian matrices in a permuted basis.
    Each block is shifted so that its lowest eigenvalue is a drawn level, so
    the ground level sits in several blocks, one-state ones among them, and
    later blocks both lower the energy and meet it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    levels = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5]), min_size=1, max_size=8))
    blocks = []
    for level in levels:
        size = draw(st.integers(1, 6))
        block = random_hermitian(size, rng)
        block = block.real if real else block
        blocks.append(block - (np.linalg.eigvalsh(block)[0] - level) * np.eye(size))
    return permuted_block_diagonal(blocks, rng)


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(h=planted_ground_matrices())
def test_dense_ground_equals_the_refiltering_oracle(h):
    result = ground_state(h, count=h.shape[0])
    got = result.energy, result.vector, result.degeneracy, result.spectrum
    want = refiltering_dense_ground(h)
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part)
    full = np.linalg.eigvalsh(h.toarray())
    assert got[2] == int(spectra._in_ground_space(full, float(full[0])).sum())


def record_eigsh_dtypes(monkeypatch):
    """The dtype of every operator spectra hands to ARPACK, in call order."""
    dtypes = []
    eigsh = spla.eigsh

    def recording_eigsh(op, *args, **kwargs):
        dtypes.append(op.dtype)
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    return dtypes


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: pair_instance().h_total, np.float64),
        (lambda: c0a1_bundle(3).h_total, np.complex128),
    ],
    ids=["gaussian", "complex-c0a1"],
)
def test_lanczos_runs_in_the_arithmetic_of_the_entries(monkeypatch, build, want):
    h = build()
    assert h.dtype == np.complex128
    dtypes = record_eigsh_dtypes(monkeypatch)
    result = ground_state(h, dense_cap=h.shape[0] // 4)
    assert result.method == "lanczos" and result.cross_check_gap is not None
    assert dtypes == [want]
    assert result.vector.dtype == np.complex128


@pytest.mark.parametrize(
    "build, dense_cap, method",
    [
        (lambda: assemble_total(*triple_parts()).h_total, 2048, "dense"),
        (lambda: pair_instance().h_total, 64, "lanczos"),
    ],
    ids=["triple-dense", "pair-lanczos"],
)
def test_real_arithmetic_matches_the_complex_dense_oracle(build, dense_cap, method):
    h = sp.csr_matrix(build())
    assert not np.any(h.data.imag)
    vals, vecs = np.linalg.eigh(h.toarray())  # complex LAPACK on the full matrix
    members = np.nonzero(vals - vals[0] <= DEGENERACY_TOL * max(1.0, abs(vals[0])))[0]
    result = ground_state(h, dense_cap=dense_cap)
    assert result.method == method
    assert abs(result.energy - vals[0]) <= 1e-12
    assert result.degeneracy == members.size
    if members.size == 1:
        assert abs(abs(np.vdot(result.vector, vecs[:, 0])) - 1.0) <= 1e-10


def test_imaginary_couplings_keep_the_complex_solvers(monkeypatch):
    """Its real part is diagonal, so solving h.real would give a wrong spectrum.
    Its two chains of six and seven states are solved by Lanczos with k = 4."""
    chains = [(0, 5, 7, 12, 14, 17), (1, 2), (3, 4, 8, 11, 13, 15, 16)]
    h, _ = imaginary_coupling_matrix(chains, 18)
    want = np.linalg.eigvalsh(h.toarray())
    assert not np.allclose(want, np.sort(h.diagonal().real))
    dtypes = record_eigsh_dtypes(monkeypatch)
    lanczos = ground_state(h, dense_cap=2, count=4)
    assert lanczos.method == "lanczos" and dtypes == [np.complex128] * 2
    np.testing.assert_allclose(lanczos.spectrum, want[:4], rtol=0, atol=1e-10)
    dense = ground_state(h, count=18)
    assert dense.method == "dense"
    np.testing.assert_allclose(dense.spectrum, want, rtol=0, atol=1e-12)


# A dim-300 block with real entries stored as complex, as an assembled H is.
# Its real eigvalsh is threaded at two OpenBLAS threads and sums in another
# order there, so the bytes may differ across thread counts, but not the values.
BLOCK_SPECTRUM_CHILD = """
import sys
import numpy as np
import scipy.sparse as sp
from fermifock.spectra import _block_eigvalsh
m = sp.random(300, 300, density=0.05, random_state=np.random.default_rng(5), format="csr")
sys.stdout.write(" ".join(map(repr, _block_eigvalsh((m + m.T).astype(np.complex128)).tolist())))
"""


def block_spectrum_output(threads):
    src = str(Path(spectra.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", BLOCK_SPECTRUM_CHILD],
        env=env, capture_output=True, check=True,
    )
    return run.stdout


def test_block_spectrum_determinism_contract():
    """Byte-identical at one thread count; equal to 1e-12 relative across two."""
    one = [block_spectrum_output(1) for _ in range(2)]
    two = [block_spectrum_output(2) for _ in range(2)]
    assert one[0] == one[1]
    assert two[0] == two[1]
    a, b = (np.array([float(x) for x in out[0].split()]) for out in (one, two))
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-12 * np.max(np.abs(a)))


def test_toy_observables():
    bundle = toy_bundle()
    result = ground_state(bundle.h_total)
    rep = observables(bundle, result.vector, 0)
    # occupation probability of the pair state: x^2/(1+x^2), x = 1 - sqrt(2)
    x = 1.0 - np.sqrt(2.0)
    want = x * x / (1.0 + x * x)
    assert rep.expected_number == pytest.approx(want, abs=1e-12)
    assert rep.amplitudes[0] == pytest.approx(np.sqrt(want), abs=1e-12)
    assert rep.chain_gradients == ()


def test_toy_mass_curve_matches_analytic():
    masses = [1.0, 0.6, 0.3, 0.1, 0.01]
    curve = mass_sweep(toy_bundle(), 0, masses)
    for m, e in zip(curve.masses, curve.energies):
        assert e == pytest.approx(toy_energy(m), abs=CURVE_TOL)
    assert curve.limit_energy == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0, abs=CURVE_TOL)
    assert curve.monotonicity_violation() <= CURVE_TOL
    assert curve.sandwich_violation() <= CURVE_TOL
    assert np.all(curve.overlaps >= 0.99)
    assert curve.limit_overlap >= 0.99
    assert curve.energies[-1] - curve.limit_energy >= -CURVE_TOL
    # every point, the limit included, shares the one assembled interaction
    first = curve.bundles[0]
    assert len(curve.bundles) == len(masses) + 1
    for bundle in curve.bundles:
        assert bundle.h_int is first.h_int
        assert bundle.tensors is first.tensors


def test_mass_sweep_points_match_fresh_assembly():
    """Each point equals assembling the whole operator again at its mass."""
    rng = np.random.default_rng(3)
    species = [
        SpeciesConfig(
            mass=m, points=rng.uniform(-1.0, 1.0, size=(2, 3)),
            weights=rng.uniform(0.5, 1.5, size=2), spins=(0.5,),
        )
        for m in (1.0, 0.8, 0.6)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    tensors = [
        KernelTensor(
            signature=sig,
            values=rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)),
        )
        for sig in (ProcessSignature(3, (0, 1, 2), ()), ProcessSignature(3, (0,), (1, 2)))
    ]
    masses = [0.8, 0.3, 0.05]
    curve = mass_sweep(assemble_total(table, basis, tensors, 0.7), 1, masses)
    for mass, bundle in zip(masses + [0.0], curve.bundles):
        fresh = assemble_total(table.with_species_mass(1, mass), basis, tensors, 0.7)
        assert bundle.table.species[1].mass == mass
        np.testing.assert_array_equal(bundle.free_diag, fresh.free_diag)
        assert np.array_equal(bundle.h_total.toarray(), fresh.h_total.toarray())


def test_finished_sweep_holds_no_per_point_h_total():
    """A bundle builds H_total on access and stores none, so a finished sweep
    (four masses and the limit, every point a Lanczos solve) still holds less
    than two H_totals: its vectors, free diagonals and tables."""
    assert "h_total" not in {f.name for f in fields(HamiltonianBundle)}
    bundle = grid_instance()  # dimension 4096
    h = bundle.h_total
    one = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
    ground_state(h, dense_cap=512)  # ARPACK loads outside the traced window
    del h
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = mass_sweep(bundle, 1, [0.5, 0.3, 0.2, 0.1], dense_cap=512)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(curve.bundles) == 5
    assert held < 2 * one


def refused_h_total(bundle):
    raise AssertionError("mass_sweep built a whole-space H_total")


def per_point_sweep(bundle, species, masses):
    """The oracle for sweeps up to the dense cap: one whole-space ground_state
    per point on the point's H_total, and the curve's cross energies and
    overlaps from those vectors as mass_sweep computes them. Returns energies,
    cross energies, overlaps and vectors, the limit last in each."""
    bundles = [replace(bundle, table=bundle.table.with_species_mass(species, m))
               for m in [*masses, 0.0]]
    results = [ground_state(b.h_total) for b in bundles]
    vectors = [r.vector for r in results]
    fd, g = bundles[-1].free_diag, bundle.coupling
    cross = [fd @ np.abs(v) ** 2 + g * np.vdot(v, bundle.h_int @ v).real for v in vectors[:-1]]
    overlaps = [abs(np.vdot(u, v)) for u, v in zip(vectors, vectors[1:])]
    return [r.energy for r in results], cross, overlaps, vectors


@pytest.mark.parametrize(
    "instance, exact",
    [
        (lambda: (build_bundle(normalize_config(sweep_config())), 1, [0.5, 0.2, 0.05]), True),
        (lambda: (build_bundle(normalize_config(lanczos_sweep_config())), 1, [0.5, 0.2, 0.05]),
         True),
        (lambda: (c0a1_bundle(5), 0, [0.9, 0.5, 0.2, 0.05]), False),
    ],
    ids=["sweep-config-real", "lanczos-config-real", "c0a1-complex"],
)
def test_sweep_below_the_cap_equals_per_point_ground_states(monkeypatch, instance, exact):
    """Below the dense cap the block sweep equals one whole-space ground_state
    per point: bit for bit on a real interaction, where the blocks are solved
    in the same arithmetic, and within 1e-12 on a complex one, where a block
    without an imaginary part is solved as real. It never reads h_total."""
    bundle, species, masses = instance()
    assert bundle.h_int.shape[0] <= spectra.DENSE_CAP_DEFAULT
    assert exact == (not bundle.h_int.data.imag.any())
    want = per_point_sweep(bundle, species, masses)
    with monkeypatch.context() as patch:
        patch.setattr(HamiltonianBundle, "h_total", property(refused_h_total))
        curve = mass_sweep(bundle, species, masses)
    got = (
        [*curve.energies, curve.limit_energy],
        curve.cross_energies,
        [*curve.overlaps, curve.limit_overlap],
        [*curve.vectors, curve.limit_vector],
    )
    for got_part, want_part in zip(got, want):
        if exact:
            assert np.array_equal(got_part, want_part)
        else:
            np.testing.assert_allclose(got_part, want_part, rtol=0, atol=1e-12)


def counted_block_sweep(monkeypatch, bundle, species, masses, dense_cap):
    """mass_sweep and the dtype of each eigsh run and each eigvalsh call, as
    ("eigsh" or "eigvalsh", dtype) per mass point (each point ends in one
    _fix_phase call); eigsh is wrapped as perfbench's spans wrap it. Reading a
    bundle's h_total inside the sweep fails the test."""
    runs = [[]]
    eigsh, eigvalsh, fix_phase = spla.eigsh, np.linalg.eigvalsh, spectra._fix_phase

    def counting_eigsh(op, *args, **kwargs):
        runs[-1].append(("eigsh", op.dtype))
        return eigsh(op, *args, **kwargs)

    def counting_eigvalsh(a):
        runs[-1].append(("eigvalsh", a.dtype))
        return eigvalsh(a)

    def marking(vec):
        runs.append([])
        return fix_phase(vec)

    with monkeypatch.context() as patch:
        patch.setattr(spla, "eigsh", counting_eigsh)
        patch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        patch.setattr(spectra, "_fix_phase", marking)
        patch.setattr(HamiltonianBundle, "h_total", property(refused_h_total))
        curve = mass_sweep(bundle, species, masses, dense_cap=dense_cap)
    return curve, runs[:-1]


@pytest.mark.parametrize(
    "instance, arithmetic",
    [
        (lambda: (build_bundle(normalize_config(lanczos_sweep_config())), 1, [0.5, 0.2, 0.05], 32),
         np.float64),
        # the massless limit's ground level is shared by the blocks led by states 0 and 64
        (lambda: (grid_instance(), 1, [0.5, 0.3, 0.2, 0.1], 512), np.float64),
        # dimension 1024 = 4 x the dense cap: blocks go to eigvalsh, the ground's to Lanczos too
        (lambda: (c0a1_bundle(5), 0, [0.9, 0.5, 0.2, 0.05], 256), np.complex128),
    ],
    ids=["lanczos-config", "grid", "c0a1-complex"],
)
def test_block_sweep_matches_whole_space_solves(monkeypatch, instance, arithmetic):
    """Above the dense cap the sweep solves per block of h_int, in the blocks'
    arithmetic (complex for c0a1's complex kernel), and skips the blocks its
    Weyl bounds rule out. Every point's energy, cross energy, overlap and
    vector equals ground_state runs on the point's H_total within 1e-12 (the
    vectors within 1e-10 and inside one block), the grid's two-fold massless
    limit included, and every point after the first solves fewer blocks than
    the first, which solves every block of more than two states: by Lanczos,
    or up to 4 x the cap by eigvalsh, with one Lanczos run per point."""
    bundle, species, masses, dense_cap = instance()
    assert bundle.h_int.shape[0] > dense_cap
    curve, runs = counted_block_sweep(monkeypatch, bundle, species, masses, dense_cap)
    sizes = np.bincount(labels := spectra._component_labels(bundle.h_int))
    checked = bundle.h_int.shape[0] <= 4 * dense_cap
    solves = [sum(name == ("eigvalsh" if checked else "eigsh") for name, _ in run) for run in runs]
    assert len(solves) == len(masses) + 1
    assert solves[0] == np.sum(sizes > 2) and max(solves[1:]) < solves[0]
    if checked:
        assert [sum(name == "eigsh" for name, _ in run) for run in runs] == [1] * len(runs)
    assert {np.dtype(t) for run in runs for _, t in run} == {np.dtype(arithmetic)}

    refs = [ground_state(b.h_total, dense_cap=dense_cap, seed=7) for b in curve.bundles]
    h_limit = curve.bundles[-1].h_total
    np.testing.assert_allclose(
        [*curve.energies, curve.limit_energy], [r.energy for r in refs], rtol=1e-12, atol=0
    )
    want_cross = [np.vdot(r.vector, h_limit @ r.vector).real for r in refs[:-1]]
    np.testing.assert_allclose(curve.cross_energies, want_cross, rtol=1e-12, atol=0)
    overlaps = [*curve.overlaps, curve.limit_overlap]
    want_overlaps = [abs(np.vdot(a.vector, b.vector)) for a, b in zip(refs, refs[1:])]
    np.testing.assert_allclose(overlaps, want_overlaps, rtol=1e-12, atol=0)
    for vec, ref in zip([*curve.vectors, curve.limit_vector], refs):
        assert abs(np.vdot(vec, ref.vector)) > 1.0 - 1e-10
        assert len(set(labels[np.abs(vec) > 0])) == 1  # one block's vector, never a mix


def planted_crossing_bundle():
    """Two spinless two-mode species (dimension 16) and a hand-made h_int with
    two blocks: the 4 states without a species-1 particle, shifted by -3, and
    the 12 with one, shifted by -3.5, each with random hermitian couplings that
    connect it. Species 1 costs at least its mass, so block A holds the ground
    at large mass and block B at small mass."""
    rng = np.random.default_rng(5)
    species = [
        SpeciesConfig(mass=1.0, points=rng.uniform(-0.3, 0.3, size=(2, 3)),
                      weights=np.ones(2), spins=(0.5,))
        for _ in range(2)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    in_b = free_hamiltonian_diagonal(table, basis, [1]) > 0
    h_int = np.zeros((16, 16), dtype=np.complex128)
    for members, shift in ((~in_b, -3.0), (in_b, -3.5)):
        idx = np.nonzero(members)[0]
        a = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
        h_int[np.ix_(idx, idx)] = 0.05 * (a + a.conj().T) + shift * np.eye(idx.size)
    bundle = HamiltonianBundle(table, basis, 1.0, (), sp.csr_matrix(h_int))
    return bundle, in_b


def test_block_sweep_follows_a_planted_crossing(monkeypatch):
    """Between masses 1 and 0.3 the ground moves from block A to block B; the
    block sweep follows it and every energy equals the dense whole-space one."""
    bundle, in_b = planted_crossing_bundle()
    masses = [5.0, 2.0, 1.0, 0.3, 0.05]
    curve, runs = counted_block_sweep(monkeypatch, bundle, 1, masses, dense_cap=2)
    refs = [ground_state(b.h_total, dense_cap=16) for b in curve.bundles]
    np.testing.assert_allclose(
        [*curve.energies, curve.limit_energy], [r.energy for r in refs], rtol=1e-12, atol=0
    )
    in_block_b = [bool(in_b[np.abs(v) > 0].all()) for v in (*curve.vectors, curve.limit_vector)]
    assert in_block_b == [False, False, False, True, True, True]
    for vec, ref in zip((*curve.vectors, curve.limit_vector), refs):
        assert abs(np.vdot(vec, ref.vector)) > 1.0 - 1e-10
    assert len(runs[0]) == 2  # both blocks at the first point, by Lanczos


def two_fold_ground_bundle():
    """Two spinless two-mode species (dimension 16) and a hand-made real h_int.
    Block A, the 4 states without a species-1 particle, has the levels -3, -3,
    -2 and -1 at every mass of species 1 (h_int cancels their free diagonal).
    Block B, two states with one species-1 particle, lies near -3.5 plus at
    least the mass. The other 10 states are lone. A holds the two-fold ground
    at large mass, B the simple one at small mass. Returns the bundle and A."""
    rng = np.random.default_rng(11)
    species = [
        SpeciesConfig(mass=1.0, points=rng.uniform(-0.3, 0.3, size=(2, 3)),
                      weights=np.ones(2), spins=(0.5,))
        for _ in range(2)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    in_b = free_hamiltonian_diagonal(table, basis, [1]) > 0
    block_a = np.nonzero(~in_b)[0]
    block_b = np.nonzero(in_b & (free_hamiltonian_diagonal(table, basis, [0]) == 0))[0][:2]
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    free_a = free_hamiltonian_diagonal(table, basis)[block_a]
    h_int = np.zeros((16, 16))
    h_int[np.ix_(block_a, block_a)] = q @ np.diag([-3.0, -3.0, -2.0, -1.0]) @ q.T - np.diag(free_a)
    h_int[np.ix_(block_b, block_b)] = [[-3.5, 0.1], [0.1, -3.4]]
    bundle = HamiltonianBundle(table, basis, 1.0, (), sp.csr_matrix(h_int, dtype=np.complex128))
    return bundle, block_a


@pytest.mark.parametrize("dense_cap", [16, 2], ids=["below-cap", "above-cap"])
def test_sweep_takes_the_dense_tier_representative(dense_cap):
    """Each point's ground vector follows ground_state's dense rule: the projection
    of the first basis state meeting the ground space inside the block's
    eigenbasis. Below the cap this pins the two-fold ground of block A, bit for
    bit. Above the cap the two-state block B is solved dense too and takes the
    same projection (its first eigh column differs from it in the last bits),
    while A's Lanczos vector is one vector of A's ground space."""
    bundle, block_a = two_fold_ground_bundle()
    lanczos_a = dense_cap < bundle.h_int.shape[0]
    curve = mass_sweep(bundle, 1, [5.0, 2.0, 1.0, 0.3, 0.05], dense_cap=dense_cap)
    points = zip(curve.bundles, [*curve.energies, curve.limit_energy],
                 [*curve.vectors, curve.limit_vector])
    in_a = []
    for point, energy, vec in points:
        want = ground_state(point.h_total, count=16)
        want_energy, want_vector, degeneracy = want.energy, want.vector, want.degeneracy
        in_a.append(degeneracy == 2)
        assert (set(np.nonzero(vec)[0]) <= set(block_a)) == in_a[-1]
        if in_a[-1] and lanczos_a:
            assert energy == pytest.approx(want_energy, abs=1e-12)
            assert np.linalg.norm(point.h_total @ vec - energy * vec) < 1e-9
        else:
            assert energy == want_energy
            assert np.array_equal(vec, want_vector)
    assert in_a == [True, True, True, False, False, False]


def test_block_sweep_peak_stays_below_one_h_total():
    """Above the dense cap no whole-space H_total is built: on grid_instance
    (dimension 4096, dense cap 512) the sweep's traced peak stays below the
    bytes of one complex H_total. Whole-space solves held an H_total and its
    real copy at once, about 2.5 H_totals. ARPACK is loaded with this module."""
    bundle = grid_instance()
    h = bundle.h_total
    one = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
    del h
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mass_sweep(bundle, 1, [0.5, 0.3, 0.2, 0.1], dense_cap=512)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < one


def test_mass_sweep_validates_grid():
    bundle = toy_bundle()
    with pytest.raises(ValueError, match="at least two"):
        mass_sweep(bundle, 0, [0.5])
    with pytest.raises(ValueError, match="decreasing"):
        mass_sweep(bundle, 0, [0.1, 0.5])
    with pytest.raises(ValueError, match="positive"):
        mass_sweep(bundle, 0, [0.5, 0.0])


def test_toy_coupling_gap_curve():
    bundle = toy_bundle()
    gs = np.array([0.05, 0.1])
    # gap(g) = (sqrt(4g^2+4) - ... ) on the toy: E1 - E0 = sqrt(g^2+1) - 1 + ...
    for g in gs:
        spectrum = ground_state(replace(bundle, coupling=g).h_total, count=2).spectrum
        gap = spectrum[1] - spectrum[0]
        want = 1.0 - (2.0 - np.sqrt(4.0 * g * g + 4.0)) / 2.0
        assert gap == pytest.approx(want, abs=1e-12)
