"""Eigensolvers, mass sweeps and ground-state observables."""

import numpy as np
import pytest
import scipy.sparse as sp
from test_acceptance import grid_instance, pair_instance, quad_instance, triple_parts

from fermifock import spectra
from fermifock.fock import enumerate_basis
from fermifock.hamiltonian import KernelTensor, ProcessSignature, assemble_total
from fermifock.modes import SpeciesConfig, build_mode_table
from fermifock.spectra import (
    DEGENERACY_TOL,
    coupling_gap_curve,
    ground_state,
    low_spectrum,
    mass_sweep,
    observables,
    quadratic_gap_fit,
    spectral_gap,
)

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
    np.testing.assert_allclose(
        low_spectrum(h, 4),
        [1.0 - np.sqrt(2.0), 1.0, 1.0, 1.0 + np.sqrt(2.0)],
        atol=1e-12,
    )
    assert spectral_gap(h) == pytest.approx(np.sqrt(2.0), abs=1e-12)


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


def imaginary_coupling_matrix():
    """Only purely imaginary off-diagonal couplings; components listed below."""
    components = [(0, 5, 7), (1, 2), (3, 4, 8, 11)]
    h = sp.lil_matrix((12, 12), dtype=np.complex128)
    h.setdiag(np.linspace(-1.0, 1.0, 12))
    for comp in components:
        for a, b in zip(comp, comp[1:]):
            h[a, b], h[b, a] = 0.7j, -0.7j
    return h.tocsr(), components


@pytest.mark.parametrize(
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
def test_block_spectrum_equals_full_spectrum(build):
    h = sp.csr_matrix(build())
    full = h.toarray()
    if not np.any(full.imag):
        full = full.real  # the same matrix; the real solver is about 4x faster
    np.testing.assert_allclose(
        spectra._block_eigvalsh(h), np.linalg.eigvalsh(full), rtol=0, atol=1e-12
    )


@pytest.mark.filterwarnings("error")  # csgraph warns when it casts complex data
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
    energy, vector, degeneracy = spectra._dense_ground(h)
    assert abs(energy - want_energy) <= 1e-12
    assert degeneracy == want_degeneracy == expected_degeneracy
    np.testing.assert_allclose(vector, want_vector, rtol=0, atol=1e-12)


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
    assert curve.limit_gap() >= -CURVE_TOL
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


def test_mass_sweep_without_vectors():
    curve = mass_sweep(toy_bundle(), 0, [1.0, 0.5], keep_vectors=False)
    assert curve.vectors == ()
    assert curve.limit_vector is None
    assert len(curve.bundles) == 3  # two masses plus the limit


def test_quadratic_gap_fit_recovers_exact_quadratic():
    gs = np.linspace(0.01, 0.1, 10)
    gap0 = 0.8
    gaps = gap0 + 1.7 * gs**2
    coeff, resid = quadratic_gap_fit(gs, gaps, gap0)
    assert coeff == pytest.approx(1.7, rel=1e-12)
    assert resid <= 1e-12


def test_toy_coupling_gap_curve():
    bundle = toy_bundle()
    gs = np.array([0.05, 0.1])
    gaps = coupling_gap_curve(bundle, gs)
    # gap(g) = (sqrt(4g^2+4) - ... ) on the toy: E1 - E0 = sqrt(g^2+1) - 1 + ...
    for g, gap in zip(gs, gaps):
        want = 1.0 - (2.0 - np.sqrt(4.0 * g * g + 4.0)) / 2.0
        assert gap == pytest.approx(want, abs=1e-12)
