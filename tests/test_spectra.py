"""Eigensolvers, mass sweeps and ground-state observables."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components  # the oracle for the block labels
from test_acceptance import grid_instance, pair_instance, quad_instance, triple_parts
from test_verify import c0a1_bundle

from fermifock import spectra
from fermifock.fock import enumerate_basis
from fermifock.hamiltonian import KernelTensor, ProcessSignature, assemble_total
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
    the degeneracy is None. A gapped ground state keeps degeneracy 1."""
    diag = np.linspace(0.0, 5.0, 64)
    diag[:2] = -1.0, -1.0 * (1.0 - 1e-12)
    result = ground_state(sp.diags(diag).tocsr(), dense_cap=8, count=2)
    assert result.method == "lanczos" and result.cross_check_gap is None
    assert result.degeneracy is None
    diag[1] = -0.5
    result = ground_state(sp.diags(diag).tocsr(), dense_cap=8, count=2)
    assert result.method == "lanczos" and result.cross_check_gap is None
    assert result.degeneracy == 1


def imaginary_coupling_matrix():
    """Only purely imaginary off-diagonal couplings; components listed below."""
    components = [(0, 5, 7), (1, 2), (3, 4, 8, 11)]
    h = sp.lil_matrix((12, 12), dtype=np.complex128)
    h.setdiag(np.linspace(-1.0, 1.0, 12))
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
    blocks = spectra._blocks(h)
    lone = [states for states, block in blocks if block.ndim == 1]
    multi = [tuple(states) for states, block in blocks if block.ndim == 2]
    assert sorted(multi) == sorted(components)
    assert [list(states) for states in lone] == [[6, 9, 10]]
    for states, block in blocks:
        if block.ndim == 2:
            np.testing.assert_array_equal(block, h[states][:, states].toarray())


def csgraph_labels(h):
    """The components csgraph finds on h's stored pattern, as _blocks once took them."""
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
    """The same (states, block) pairs, in the same order, as with csgraph's labels."""
    h = sp.csr_matrix(build())
    got = spectra._blocks(h)
    monkeypatch.setattr(spectra, "_component_labels", csgraph_labels)
    want = spectra._blocks(h)
    assert len(got) == len(want)
    for (states, block), (want_states, want_block) in zip(got, want):
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(block, want_block)
        assert block.dtype == want_block.dtype


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
    energy, vector, degeneracy, _ = spectra._dense_ground(h)
    assert abs(energy - want_energy) <= 1e-12
    assert degeneracy == want_degeneracy == expected_degeneracy
    np.testing.assert_allclose(vector, want_vector, rtol=0, atol=1e-12)


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
    """Its real part is diagonal, so solving h.real would give a wrong spectrum."""
    h, _ = imaginary_coupling_matrix()
    want = np.linalg.eigvalsh(h.toarray())
    assert not np.allclose(want, np.sort(h.diagonal().real))
    dtypes = record_eigsh_dtypes(monkeypatch)
    lanczos = ground_state(h, dense_cap=2, count=4)
    assert lanczos.method == "lanczos" and dtypes == [np.complex128]
    np.testing.assert_allclose(lanczos.spectrum, want[:4], rtol=0, atol=1e-10)
    dense = ground_state(h, count=12)
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
        assert bundle.terms is first.terms


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


def test_mass_sweep_validates_grid():
    bundle = toy_bundle()
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
