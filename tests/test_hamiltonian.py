"""Process enumeration, interaction assembly and structural identities."""

from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from fermifock.config import build_bundle, normalize_config
from fermifock.fock import annihilation, creation, enumerate_basis, monomial_operator
from fermifock.hamiltonian import (
    KernelTensor,
    ProcessSignature,
    assemble_total,
    commutator_with_annihilator,
    kernel_slice,
    process_term,
    sample_kernel_tensor,
)
from fermifock.kernels import (
    KernelSpec,
    RadialProfile,
)
from fermifock.modes import SpeciesConfig, build_mode_table
from fermifock.verify import check_hermiticity, check_parity_identity
from test_acceptance import enumerate_processes
from test_config_cli import seed_1009_verify

ASSEMBLY_TOL = 1e-13
GROUND_PULL_TOL = 1e-8


def brute_force_processes(n):
    """All (created, annihilated) splits obeying the canonical ordering."""
    out = []
    for p in range(n + 1):
        for created in combinations(range(n), p):
            annihilated = tuple(i for i in range(n) if i not in created)
            if created and annihilated and not created[0] < annihilated[0]:
                continue
            out.append((created, annihilated))
    return out


def random_table(seed, masses, points_per, spins_per, chains=None):
    rng = np.random.default_rng(seed)
    species = []
    for j, (m, np_, sp_) in enumerate(zip(masses, points_per, spins_per)):
        pts = rng.uniform(-1.0, 1.0, size=(np_, 3))
        w = rng.uniform(0.4, 1.6, size=np_)
        ch = chains[j] if chains else ()
        species.append(
            SpeciesConfig(mass=m, points=pts, weights=w, spins=(0.5, -0.5)[:sp_], chains=ch)
        )
    return build_mode_table(species)


def random_tensor(table, signature, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(len(table.block(i)) for i in range(table.n_species))
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return KernelTensor(signature=signature, values=vals)


def toy_bundle(coupling=1.0, mass=1.0):
    """Single zero-momentum mode per species, unit weights, constant kernel."""
    point = np.zeros((1, 3))
    s0 = SpeciesConfig(mass=mass, points=point, weights=np.ones(1), spins=(0.5,))
    s1 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    tensor = KernelTensor(
        signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1))
    )
    return assemble_total(table, basis, [tensor], coupling)


# ---------------------------------------------------------------------------
# process enumeration
# ---------------------------------------------------------------------------

def test_process_counts_match_oracle():
    for n in range(1, 7):
        sigs = enumerate_processes(n)
        want = brute_force_processes(n)
        got = [(s.created, s.annihilated) for s in sigs]
        assert sorted(got) == sorted(want)
        if n >= 2:
            assert len(sigs) == 2 ** (n - 1) + 1
        for p in range(1, n):
            assert len(enumerate_processes(n, p)) == comb(n - 1, p - 1)


def test_signature_validation():
    with pytest.raises(ValueError, match="partition"):
        ProcessSignature(3, (0, 1), (1, 2))
    with pytest.raises(ValueError, match="ascending"):
        ProcessSignature(3, (1, 0), (2,))
    with pytest.raises(ValueError, match="precede"):
        ProcessSignature(3, (1, 2), (0,))
    sig = ProcessSignature(3, (0, 2), (1,))
    assert sig.factors() == ((0, True), (2, True), (1, False))
    assert sig.label() == "c02a1"
    assert ProcessSignature(2, (), (0, 1)).label() == "c-a01"


# ---------------------------------------------------------------------------
# assembly against the naive operator-product oracle
# ---------------------------------------------------------------------------

def naive_term(table, basis, tensor):
    """Literal sum over mode tuples of explicit sparse operator products."""
    dim = basis.dimension
    out = sp.csr_matrix((dim, dim), dtype=np.complex128)
    factors = tensor.signature.factors()
    shape = tensor.values.shape
    for idx in np.ndindex(shape):
        val = tensor.values[idx]
        if val == 0:
            continue
        op = sp.identity(dim, dtype=np.complex128, format="csr")
        for s, create in factors:
            mode = table.offsets[s] + idx[s]
            fac = creation(table, basis, mode) if create else annihilation(table, basis, mode)
            op = op @ fac
        out = out + val * op
    return out


@pytest.mark.parametrize(
    "masses,points,spins,created,annihilated,seed",
    [
        ((1.0, 0.5), (2, 2), (1, 1), (0,), (1,), 21),
        ((1.0, 0.5), (2, 2), (1, 1), (0, 1), (), 22),
        ((1.0, 0.0, 0.7), (2, 1, 1), (1, 2, 1), (0, 1), (2,), 23),
        ((1.0, 0.0, 0.7), (2, 1, 1), (1, 2, 1), (0,), (1, 2), 24),
    ],
)
def test_assembly_matches_naive_oracle(masses, points, spins, created, annihilated, seed):
    table = random_table(seed, masses, points, spins)
    basis = enumerate_basis(table)
    assert basis.dimension <= 256
    sig = ProcessSignature(len(masses), created, annihilated)
    tensor = random_tensor(table, sig, seed)
    fast = monomial_operator(table, basis, sig.factors(), tensor.values)
    slow = naive_term(table, basis, tensor)
    dev = fast - slow
    assert (np.max(np.abs(dev.toarray())) if dev.nnz else 0.0) <= ASSEMBLY_TOL


def test_monomial_operator_respects_factor_order():
    """b*_0 b_1 and b_1 b*_0 differ by the anticommutation sign."""
    table = random_table(25, (1.0, 1.0), (1, 1), (1, 1))
    basis = enumerate_basis(table)
    vals = np.ones((1, 1))
    ab = monomial_operator(table, basis, ((0, True), (1, False)), vals)
    ba = monomial_operator(table, basis, ((1, False), (0, True)), vals)
    dev = ab + ba  # disjoint modes anticommute
    assert (np.max(np.abs(dev.toarray())) if dev.nnz else 0.0) == 0.0


def test_sampled_tensor_folds_weights():
    table = random_table(26, (1.0, 0.5), (2, 2), (1, 1))
    sig = ProcessSignature(2, (0,), (1,))

    def amplitude(ks):
        return np.sum(ks[0] * ks[1], axis=-1) + 0.25j

    tensor = sample_kernel_tensor(table, sig, amplitude)
    k0 = table.momenta(0)
    k1 = table.momenta(1)
    w0 = table.mode_weights(0)
    w1 = table.mode_weights(1)
    for a in range(2):
        for b in range(2):
            want = (k0[a] @ k1[b] + 0.25j) * np.sqrt(w0[a] * w1[b])
            assert tensor.values[a, b] == pytest.approx(want, abs=1e-15)
    sliced = kernel_slice(tensor, table, 0, 1)
    np.testing.assert_allclose(sliced, tensor.values[1, :] / np.sqrt(w0[1]))
    assert tensor.frobenius() == pytest.approx(np.linalg.norm(tensor.values))


def per_tuple_amplitude(spec, ks):
    """Scalar oracle: the kernel at one (n, 3) momentum stack, family by family."""
    if spec.kind == "constant":
        return spec.constant
    if spec.kind == "gaussian":
        return spec.constant * np.exp(-spec.alpha * np.sum(ks * ks))
    out = spec.constant
    if spec.kind == "power":
        for nu, k in zip(spec.nus, ks):
            out *= RadialProfile(nu, spec.lam)(np.linalg.norm(k))
        return out
    for j in range(3):
        for nu, k in zip(spec.nus, ks):
            out *= RadialProfile(nu / 3.0, spec.lam)(k[j])
        total = np.dot(spec.conservation_signs, ks[:, j])
        out *= np.exp(-(total**2) / (4.0 * spec.conservation_sigma**2))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(4, "constant", 0.7 - 0.2j),
        KernelSpec(4, "gaussian", 1.5, alpha=0.3),
        KernelSpec(4, "power", nus=(0.5, -0.25, 0.0, 1.0), lam=2.5),
        KernelSpec(4, "separable", nus=(0.6, 0.0, 0.5, 0.3), lam=2.5,
                   conservation_sigma=0.6, conservation_signs=(1, 1, -1, -1)),
    ],
    ids=lambda spec: spec.kind,
)
def test_broadcast_sampling_matches_per_tuple_loop(spec):
    # four species, species 0 and 2 spinful, species 2 massless
    table = random_table(27, (1.0, 0.5, 0.0, 0.8), (2, 3, 2, 2), (2, 1, 2, 1))
    tensor = sample_kernel_tensor(table, ProcessSignature(4, (0, 1), (2, 3)), spec.amplitude)
    momenta = [table.momenta(i) for i in range(4)]
    sqw = [np.sqrt(table.mode_weights(i)) for i in range(4)]
    assert tensor.values.shape == (4, 3, 4, 2)
    assert np.max(np.abs(tensor.values)) > 1e-3
    for idx in np.ndindex(tensor.values.shape):
        want = per_tuple_amplitude(spec, np.stack([momenta[i][m] for i, m in enumerate(idx)]))
        for i, m in enumerate(idx):
            want = want * sqw[i][m]
        assert abs(tensor.values[idx] - want) <= 1e-15


# ---------------------------------------------------------------------------
# toy model: frozen closed forms
# ---------------------------------------------------------------------------

def test_toy_pair_creation_sign():
    bundle = toy_bundle()
    vac = np.zeros(4)
    vac[0] = 1.0
    out = process_term(bundle.table, bundle.basis, bundle.tensors[0]) @ vac
    want = np.zeros(4)
    want[3] = 1.0  # both modes occupied, plus sign
    np.testing.assert_allclose(out, want)


def test_toy_spectrum():
    bundle = toy_bundle()
    ev = np.linalg.eigvalsh(bundle.h_total.toarray())
    want = np.sort([1.0 - np.sqrt(2.0), 1.0, 1.0, 1.0 + np.sqrt(2.0)])
    np.testing.assert_allclose(ev, want, atol=1e-12)


def test_with_coupling_rescales_interaction():
    """A coupling change is a dataclasses.replace; h_total follows it."""
    bundle = toy_bundle(coupling=1.0)
    half = replace(bundle, coupling=0.5)
    dev = half.h_total - (sp.diags(bundle.free_diag) + 0.5 * bundle.h_int)
    assert (np.max(np.abs(dev.toarray())) if dev.nnz else 0.0) == 0.0


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_assembled_hamiltonian_is_hermitian():
    """H_int equals its adjoint entry for entry, with no tolerance: a process
    term and its adjoint never store the same position, so every position holds
    the same addends as its mirror, conjugated, summed in the same order. Cases:
    complex values, a repeated signature, the adjoint pair created-all and
    created-none, a truncated basis, and a kernel scaled by 1e5."""
    table = random_table(27, (1.0, 0.0, 0.5), (2, 1, 2), (1, 2, 1))
    cases = [
        ([(0, 1, 2), (0,)], None, 1.0),
        ([(0, 1), (0, 1), (0, 2)], None, 1.0),
        ([(0, 1, 2), ()], None, 1.0),
        ([(0,), (0, 2), ()], [1, 1, 1], 1.0),
        ([(0, 1, 2), (0, 1), ()], None, 1e5),
    ]
    for signatures, truncation, scale in cases:
        tensors = []
        for k, created in enumerate(signatures):
            annihilated = tuple(i for i in range(3) if i not in created)
            tensor = random_tensor(table, ProcessSignature(3, created, annihilated), 27 + k)
            tensors.append(KernelTensor(tensor.signature, scale * tensor.values))
        h_int = assemble_total(table, enumerate_basis(table, truncation), tensors, 0.8).h_int
        assert h_int.nnz > 0 and h_int.data.imag.any()
        assert (h_int != h_int.conj().T).nnz == 0


def test_parity_identity_odd_species():
    table = random_table(29, (1.0, 0.6, 0.3), (2, 1, 1), (1, 1, 1))
    basis = enumerate_basis(table)
    tensors = [random_tensor(table, ProcessSignature(3, (0, 1), (2,)), 29)]
    bundle = assemble_total(table, basis, tensors, 0.7)
    res = check_parity_identity(bundle)
    assert res.details["matrix_deviation"] <= 1e-12
    assert res.details["spectrum_deviation"] <= 1e-9
    assert res.passed


@pytest.mark.parametrize("k", [None, 1e3, 1e5], ids=["unmoved", "1e3", "1e5"])
def test_parity_identity_is_exact_at_every_scale(k):
    """On the seed-1009 verify input, species 0's second point moved out to
    |k| = 1e5 or not, both parity deviations and hermiticity read exactly 0:
    P H P only flips signs, (2g) * h = 2 * (g * h) in floating point, and H_int
    is hermitian by construction, so the absolute tolerances need no scale."""
    cfg = seed_1009_verify()
    if k is not None:
        cfg["species"][0]["points"][1] = [k, 0.0, 0.0]
    bundle = build_bundle(normalize_config(cfg))
    parity = check_parity_identity(bundle)
    assert parity.details == {"matrix_deviation": 0.0, "spectrum_deviation": 0.0}
    assert check_hermiticity(bundle).max_ratio == 0.0


def test_parity_identity_rejects_even_species():
    bundle = toy_bundle()
    with pytest.raises(ValueError, match="odd"):
        check_parity_identity(bundle)


def test_commutator_decomposition_on_toy():
    """[b_0, g H_int] on the toy model is the sliced remnant b*_1."""
    bundle = toy_bundle(coupling=0.6)
    commutator = commutator_with_annihilator(bundle, 0)
    cre1 = creation(bundle.table, bundle.basis, 1).toarray()
    np.testing.assert_allclose(commutator.toarray(), 0.6 * cre1, atol=1e-14)


def test_ground_state_pull_through_consequence():
    """(H - E + w_m) b_m R + [b_m, g H_int] R vanishes on a ground pair (E, R)."""
    table = random_table(30, (1.0, 0.5), (2, 2), (2, 1))
    basis = enumerate_basis(table)
    tensors = [
        random_tensor(table, ProcessSignature(2, (0, 1), ()), 30),
        random_tensor(table, ProcessSignature(2, (0,), (1,)), 31),
    ]
    bundle = assemble_total(table, basis, tensors, 0.4)
    h = bundle.h_total.toarray()
    evals, evecs = np.linalg.eigh(h)
    energy, ground = evals[0], evecs[:, 0]
    eye = np.eye(h.shape[0])
    for i in range(table.n_species):
        energies = table.mode_energies(i)
        for local, mode in enumerate(table.block(i)):
            b_op = annihilation(table, basis, mode)
            commutator = commutator_with_annihilator(bundle, mode)
            shifted = h + (energies[local] - energy) * eye
            resid = shifted @ (b_op @ ground) + commutator @ ground
            assert np.linalg.norm(resid) <= GROUND_PULL_TOL
