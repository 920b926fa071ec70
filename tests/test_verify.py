"""Bound checkers: frozen toy suprema, report plumbing, sweep estimates."""

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_acceptance import limit_curve, pair_instance, triple_parts

from fermifock import spectra, verify
from fermifock.fock import (
    enumerate_basis,
    free_hamiltonian_diagonal,
    monomial_operator,
    parity_diagonal,
)
from fermifock.hamiltonian import (
    KernelTensor,
    ProcessSignature,
    assemble_total,
    sample_kernel_tensor,
)
from fermifock.kernels import (
    KernelSpec,
    blend_exponents,
    level_lattice_sum,
    species_regularity_basis,
)
from fermifock.modes import SpeciesConfig, build_mode_table
from fermifock.spectra import DENSE_CAP_DEFAULT, mass_sweep
from fermifock.verify import (
    BoundReport,
    check_car_relations,
    check_form_bound,
    check_hermite_bound,
    check_hermiticity,
    check_interpolation,
    check_operator_bound,
    check_parity_identity,
    check_pull_through,
    check_refined_form_bound,
    check_relative_bound_zero,
    check_smeared_norms,
    check_sweep_estimates,
)

EXACT_TOL = 1e-12
RATIO_CAP = 1.0 + 1e-9
TRIAL_PEAK_BYTES = 4 * 2**20  # one bound check's traced peak at dimension 1024


def toy_bundle(coupling=1.0):
    """One zero-momentum mode per species, unit weights, kernel value 1."""
    point = np.zeros((1, 3))
    s0 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    s1 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    tensor = KernelTensor(
        signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1))
    )
    return assemble_total(table, basis, [tensor], coupling)


def two_point_bundle(seed=5, coupling=0.8):
    """Two momenta per species, random kernel: small but not degenerate."""
    rng = np.random.default_rng(seed)
    species = []
    for _ in range(2):
        pts = rng.uniform(-1.0, 1.0, size=(2, 3))
        w = rng.uniform(0.5, 1.5, size=2)
        species.append(
            SpeciesConfig(mass=rng.uniform(0.5, 1.5), points=pts, weights=w, spins=(0.5,))
        )
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    vals = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tensor = KernelTensor(signature=ProcessSignature(2, (0, 1), ()), values=vals)
    return assemble_total(table, basis, [tensor], coupling)


def c0a1_bundle(modes, seed=9, coupling=0.7):
    """Two spinless species of `modes` modes each and a random complex c0a1
    kernel: dimension 4**modes. At six modes (4096) it lies above
    DENSE_CAP_DEFAULT, so the exact suprema come from seeded Lanczos runs."""
    rng = np.random.default_rng(seed)
    species = [
        SpeciesConfig(
            mass=m, points=rng.uniform(-1.0, 1.0, size=(modes, 3)),
            weights=rng.uniform(0.5, 1.5, size=modes), spins=(0.5,),
        )
        for m in (1.0, 0.7)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    vals = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    tensor = KernelTensor(signature=ProcessSignature(2, (0,), (1,)), values=vals)
    return assemble_total(table, basis, [tensor], coupling)


def chain_sweep(coupling=0.6, masses=(0.5, 0.1), profile=None):
    """Sweep a chain-carrying species to its massless limit, keeping vectors.
    profile, when given, replaces the smooth kernel values along the chain."""
    s0 = SpeciesConfig(
        mass=1.0, points=np.array([[0.3, 0.0, 0.0]]), weights=np.ones(1), spins=(0.5,)
    )
    pts = np.array([[0.2 + 0.2 * i, 0.35, 0.1] for i in range(5)])
    s1 = SpeciesConfig(
        mass=masses[0],
        points=pts,
        weights=np.full(5, 0.2),
        spins=(0.5,),
        chains=((0, 1, 2, 3, 4),),
    )
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    # smooth along the chain, otherwise the coarse-spacing detector fires
    x = pts[:, 0]
    vals = (1.0 + 0.3 * x) * np.exp(-0.8 * x) if profile is None else np.asarray(profile)
    vals = vals.reshape(1, 5).astype(np.complex128)
    tensors = [KernelTensor(signature=ProcessSignature(2, (0, 1), ()), values=vals)]
    return mass_sweep(assemble_total(table, basis, tensors, coupling), 1, list(masses))


# ---------------------------------------------------------------------------
# form-type bounds on the toy instance, where the suprema are known exactly
# ---------------------------------------------------------------------------

def test_form_bound_exact_supremum_on_toy():
    bundle = toy_bundle()
    report = check_form_bound(bundle, trials=300, seed=11)
    assert report.name == "form_bound"
    assert report.passed
    assert report.max_ratio <= RATIO_CAP
    # D = (number of the non-exempt species + 1)^(1/2) = diag(1, 1, sqrt2, sqrt2)
    # and T + T* couples only |00> and |11>, so the supremum is 1/sqrt2.
    assert abs(report.details["exact_sup_ratio"] - 1.0 / math.sqrt(2.0)) <= EXACT_TOL

    # hand check of one trial vector: phi = (e0 + e3)/sqrt2 gives form value
    # 1 against the right-hand side 1.5 (kernel norm is exactly 1)
    herm = (bundle.terms[0] + bundle.terms[0].conj().T).toarray()
    phi = np.zeros(4)
    phi[[0, 3]] = 1.0 / math.sqrt(2.0)
    lhs = abs(phi @ herm @ phi)
    d = np.sqrt(np.array([1.0, 1.0, 2.0, 2.0]))
    rhs = float(np.linalg.norm(d * phi) ** 2)
    assert abs(lhs - 1.0) <= EXACT_TOL
    assert abs(rhs - 1.5) <= EXACT_TOL
    assert abs(report.params["kernel_norm"] - 1.0) <= EXACT_TOL
    assert report.params["term"] == "c01a-"


def test_refined_form_bound_on_toy():
    report = check_refined_form_bound(toy_bundle(), trials=300, seed=13)
    assert report.name == "refined_form_bound"
    assert report.passed
    assert report.max_ratio <= RATIO_CAP
    assert report.details["pair_max_ratio"] <= RATIO_CAP
    assert report.details["single_term_max_ratio"] <= RATIO_CAP
    assert report.details["degenerate_cases_vanish"]


def test_hermite_bound_is_tight_on_toy():
    report = check_hermite_bound(toy_bundle(), smoothness=0.75, trials=300, seed=17)
    assert report.name == "hermite_bound"
    assert report.passed
    # one spin, one non-exempt species: the reference constant collapses to
    # the lattice level sum to the power 3/2, and the discrete constant is 1
    # because the single mode sits at energy 1
    sigma = level_lattice_sum(0.75)
    assert abs(report.details["reference_constant"] - sigma**1.5) <= 1e-12
    assert abs(report.details["discrete_constant"] - 1.0) <= EXACT_TOL
    assert report.details["discrete_constant"] <= report.details["reference_constant"]
    # against the discrete constant the toy saturates the bound exactly
    assert abs(report.details["ratio_vs_discrete_constant"] - 1.0) <= 1e-9


def test_hermite_bound_rejects_low_smoothness():
    with pytest.raises(ValueError, match="smoothness"):
        check_hermite_bound(toy_bundle(), smoothness=0.5)


def test_operator_bound_exact_ratio_on_toy():
    report = check_operator_bound(toy_bundle(), trials=300, seed=19)
    assert report.name == "operator_bound"
    assert report.passed
    # T D^(-1) has top singular value 1 and the weighted kernel norm is
    # (1 + omega^(-1/2)) |G| = 2, so the exact ratio is 1/2
    assert abs(report.params["kernel_norm"] - 2.0) <= EXACT_TOL
    assert abs(report.details["exact_sup_ratio"] - 0.5) <= EXACT_TOL


def test_complex_kernel_suprema_match_dense_eigvalsh():
    """Form and Hermite suprema for a complex kernel against the dense
    spectrum. The structured edge rows attain them only if the form is taken
    as <v, op v>, not at conj(v)."""
    bundle = c0a1_bundle(4)
    assert bundle.basis.dimension == 256
    assert np.abs(bundle.tensors[0].values.imag).max() > 0
    herm = (bundle.terms[0] + bundle.terms[0].conj().T).toarray()

    form = check_form_bound(bundle, trials=50)
    # n = 2 and species 0 is exempt: D = (H_free,1 + 1)^(1/2)
    d = np.sqrt(free_hamiltonian_diagonal(bundle.table, bundle.basis, [1]) + 1.0)
    scaled = herm / np.outer(d, d)
    want = np.abs(np.linalg.eigvalsh(scaled)).max() / form.params["kernel_norm"]
    assert form.passed
    for got in (form.details["exact_sup_ratio"], form.details["trial_max_ratio"], form.max_ratio):
        assert got == pytest.approx(want, rel=1e-12)

    hermite = check_hermite_bound(bundle, trials=50)
    scale = hermite.details["reference_constant"] * hermite.params["weighted_kernel_norm"]
    want = np.abs(np.linalg.eigvalsh(herm)).max() / scale
    assert hermite.passed
    for got in (hermite.details["exact_sup_ratio"], hermite.max_ratio):
        assert got == pytest.approx(want, rel=1e-12)


def test_bounds_hold_on_a_random_instance():
    bundle = two_point_bundle()
    for check in (check_form_bound, check_refined_form_bound, check_operator_bound):
        report = check(bundle, trials=400, seed=23)
        assert report.passed, report.name
        assert report.max_ratio <= RATIO_CAP


def test_bounds_hold_for_every_process_class_odd_species():
    # three species, one term per particle-number class p = 3, 2, 1, 0
    rng = np.random.default_rng(41)
    species = []
    for j in range(3):
        pts = rng.uniform(-1.0, 1.0, size=(2, 3))
        w = rng.uniform(0.5, 1.5, size=2)
        species.append(
            SpeciesConfig(mass=0.6 + 0.2 * j, points=pts, weights=w, spins=(0.5,))
        )
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    signatures = [
        ProcessSignature(3, (0, 1, 2), ()),
        ProcessSignature(3, (0, 1), (2,)),
        ProcessSignature(3, (0,), (1, 2)),
        ProcessSignature(3, (), (0, 1, 2)),
    ]
    tensors = []
    for sig in signatures:
        vals = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        tensors.append(KernelTensor(signature=sig, values=vals))
    bundle = assemble_total(table, basis, tensors, 0.7)
    for index in range(len(signatures)):
        for check in (check_form_bound, check_refined_form_bound, check_operator_bound):
            report = check(bundle, index, trials=300, seed=43 + index)
            assert report.passed, (report.name, index)
            assert report.max_ratio <= RATIO_CAP


FROZEN_REPORTS = Path(__file__).with_name("frozen_bound_reports.json")


def assert_report_matches(got, want, where):
    """Floats to 1e-12 relative, every other field exactly, types included."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


def test_bound_reports_match_the_frozen_record():
    """The four constant-1 checks at their default trials and seeds, on every
    term of a real power kernel (triple, dimension 512) and of a complex c0a1
    kernel (dimension 256). The record holds each report's as_dict() as the
    checks gave it before they shared one scaffold."""
    want = json.loads(FROZEN_REPORTS.read_text())
    got = {}
    for name, bundle in (("triple", assemble_total(*triple_parts())), ("c0a1", c0a1_bundle(4))):
        for index in range(len(bundle.tensors)):
            for check in (
                check_form_bound, check_refined_form_bound, check_hermite_bound, check_operator_bound
            ):
                report = check(bundle, index)
                got[f"{name}/{index}/{report.name}"] = report.as_dict()
    got = json.loads(json.dumps(got, sort_keys=True))
    assert list(got) == list(want)
    for key in want:
        assert_report_matches(got[key], want[key], key)


# ---------------------------------------------------------------------------
# interpolation and the vanishing relative bound
# ---------------------------------------------------------------------------

def test_interpolation_log_convexity():
    report = check_interpolation(two_point_bundle(), trials=60, seed=29)
    assert report.name == "interpolation"
    assert report.passed
    assert report.max_ratio <= 1e-6
    m0, m1 = report.params["endpoint_constants"]
    assert m0 > 0.0 and m1 > 0.0
    per_theta = report.details["per_theta"]
    assert set(per_theta) == {"0.25", "0.5", "0.75"}
    for entry in per_theta.values():
        assert entry["log_excess"] <= 1e-6
    assert report.details["trials_below_exact"]


def dense_svd_interpolation(
    bundle, term_index=0, exempt=0, smoothness=0.75, thetas=(0.25, 0.5, 0.75),
    trials=200, seed=23, tol=1e-6,
):
    """Oracle: the interpolation check with each M_theta the top singular
    value of the dense (dim^2, k_dim) map, as check_interpolation computed it
    before it moved to the Gram matrix."""
    table = bundle.table
    basis = bundle.basis
    sig = bundle.tensors[term_index].signature
    dim = basis.dimension
    shape = tuple(len(table.block(i)) for i in range(table.n_species))
    k_dim = int(np.prod(shape))

    base_columns = np.zeros((dim * dim, k_dim), dtype=np.complex128)
    for j in range(k_dim):
        values = np.zeros(shape, dtype=np.complex128)
        values[np.unravel_index(j, shape)] = 1.0
        term = monomial_operator(table, basis, sig.factors(), values)
        herm = (term + term.conj().T).toarray()
        base_columns[:, j] = herm.ravel()

    # free energy of the non-exempt species, read off the occupation bits
    energy = np.ones(dim)
    for i in range(table.n_species):
        if i != exempt:
            for omega, mode in zip(table.mode_energies(i), table.block(i)):
                energy += omega * ((basis.states >> mode) & 1)

    theta_grid = [0.0] + sorted(float(t) for t in thetas) + [1.0]
    constants = {}
    rng = np.random.default_rng(seed)
    trial_ok = True
    for theta in theta_grid:
        axis_powers, energy_power = blend_exponents(table, exempt, smoothness, theta)
        d_inv = energy**-energy_power
        row_scale = np.kron(d_inv, d_inv)
        # kron product over the species axes of the inverse oscillator powers
        w_inv = np.ones((1, 1))
        for i in range(table.n_species):
            power = axis_powers.get(i, 0.0)
            w_inv = np.kron(w_inv, (
                species_regularity_basis(table, i).power_matrix(-power)
                if power else np.eye(len(table.block(i)))
            ))
        full_map = (base_columns * row_scale[:, None]) @ w_inv
        m_theta = float(np.linalg.svd(full_map, compute_uv=False)[0])
        constants[theta] = m_theta
        g_trials = rng.standard_normal((k_dim, trials)) + 1j * rng.standard_normal(
            (k_dim, trials)
        )
        g_trials /= np.linalg.norm(g_trials, axis=0, keepdims=True)
        ratios = np.linalg.norm(full_map @ g_trials, axis=0)
        if np.max(ratios) > m_theta * (1.0 + 1e-10):
            trial_ok = False

    m0, m1 = constants[0.0], constants[1.0]
    worst = -math.inf
    per_theta = {}
    for theta in thetas:
        theta = float(theta)
        bound = (1.0 - theta) * math.log(m0) + theta * math.log(m1)
        gap = math.log(constants[theta]) - bound
        per_theta[theta] = {"constant": constants[theta], "log_excess": gap}
        worst = max(worst, gap)
    return BoundReport(
        name="interpolation",
        passed=worst <= tol and trial_ok,
        max_ratio=worst,
        tolerance=tol,
        trials=trials * len(theta_grid),
        params={
            "term": sig.label(),
            "exempt": exempt,
            "smoothness": smoothness,
            "endpoint_constants": [m0, m1],
        },
        details={
            "per_theta": {str(k): v for k, v in per_theta.items()},
            "trials_below_exact": trial_ok,
        },
    )


@pytest.mark.parametrize(
    "make, term_index",
    [
        (lambda: pair_instance(KernelSpec(2, "gaussian", alpha=0.25)), 0),
        (lambda: pair_instance(KernelSpec(2, "power", nus=(0.6, 0.5), lam=2.5)), 0),
        (lambda: pair_instance(KernelSpec(2, "separable", nus=(0.5, 0.7), lam=2.0,
                                          conservation_sigma=0.25,
                                          conservation_signs=(1, -1))), 0),
        (two_point_bundle, 0),
        (lambda: assemble_total(*triple_parts()), 0),
        (lambda: assemble_total(*triple_parts()), 1),
    ],
    ids=["pair_gaussian", "pair_power", "pair_separable", "two_point", "triple_0", "triple_1"],
)
def test_interpolation_constants_match_dense_svd(make, term_index):
    bundle = make()
    report = check_interpolation(bundle, term_index, trials=50, seed=31)
    oracle = dense_svd_interpolation(bundle, term_index, trials=50, seed=31)
    got, want = report.as_dict(), oracle.as_dict()
    for m, m_oracle in zip(got["params"].pop("endpoint_constants"),
                           want["params"].pop("endpoint_constants")):
        assert m == pytest.approx(m_oracle, rel=EXACT_TOL, abs=0.0)
    got_theta = got["details"].pop("per_theta")
    want_theta = want["details"].pop("per_theta")
    assert set(got_theta) == set(want_theta)
    for key, entry in want_theta.items():
        assert got_theta[key]["constant"] == pytest.approx(
            entry["constant"], rel=EXACT_TOL, abs=0.0
        )
        assert got_theta[key]["log_excess"] == pytest.approx(
            entry["log_excess"], rel=0.0, abs=EXACT_TOL
        )
    assert got.pop("max_ratio") == pytest.approx(want.pop("max_ratio"), rel=0.0, abs=EXACT_TOL)
    # name, verdict, tolerance, trial count, term label, trial verdict
    assert got == want


def test_interpolation_above_the_old_dense_map_cap():
    """Dimension 2048 with 30 kernel entries: the dense (dim^2, k_dim) map
    would hold 1.3e8 complex values, well above the 5e7 the check once
    refused."""
    line = np.array([[0.2 + 0.15 * i, 0.1, 0.05] for i in range(5)])
    species = [
        SpeciesConfig(mass=1.0, points=line[:3], weights=np.full(3, 0.8)),
        SpeciesConfig(mass=0.7, points=line, weights=np.full(5, 0.6), spins=(0.5,)),
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    signature = ProcessSignature(2, (0, 1), ())
    tensor = sample_kernel_tensor(table, signature, KernelSpec(2, "gaussian", alpha=0.3).amplitude)
    bundle = assemble_total(table, basis, [tensor], 0.7)
    k_dim = tensor.values.size
    assert basis.dimension == 2048 and k_dim == 30
    assert basis.dimension**2 * k_dim > 5e7
    report = check_interpolation(bundle, trials=100, seed=37)
    assert report.passed
    assert report.max_ratio <= 1e-6
    assert report.details["trials_below_exact"]
    m0, m1 = report.params["endpoint_constants"]
    assert m0 > 0.0 and m1 > 0.0


def test_relative_bound_zero_frozen_constants():
    # the toy interaction column at the vacuum has norm 1 and free energy 0,
    # so every C_mu equals exactly 1
    report = check_relative_bound_zero(toy_bundle())
    assert report.name == "relative_bound_zero"
    assert report.passed
    assert report.details["constants_monotone"]
    constants = report.details["interaction_constants"]
    assert all(abs(v - 1.0) <= EXACT_TOL for v in constants.values())
    assert report.max_ratio <= RATIO_CAP


def test_relative_bound_zero_rejects_bad_margin():
    with pytest.raises(ValueError, match="margin"):
        check_relative_bound_zero(toy_bundle(), margin=1.5)


# ---------------------------------------------------------------------------
# structural identity wrappers
# ---------------------------------------------------------------------------

def test_identity_suite_on_toy():
    bundle = toy_bundle()
    for check, name in (
        (check_hermiticity, "hermiticity"),
        (check_car_relations, "car_relations"),
        (check_smeared_norms, "smeared_norms"),
        (check_pull_through, "pull_through"),
    ):
        report = check(bundle)
        assert report.name == name
        assert report.passed, name
        assert report.max_ratio <= report.tolerance


def test_car_relations_on_truncated_basis():
    pts = np.array([[0.2, 0.0, 0.0], [0.5, 0.0, 0.0]])
    s0 = SpeciesConfig(mass=1.0, points=pts, weights=np.ones(2), spins=(0.5,))
    s1 = SpeciesConfig(
        mass=0.8, points=np.zeros((1, 3)), weights=np.ones(1), spins=(0.5,)
    )
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table, truncation=(1, 1))
    tensor = KernelTensor(
        signature=ProcessSignature(2, (0, 1), ()), values=np.ones((2, 1))
    )
    bundle = assemble_total(table, basis, [tensor], 0.5)
    report = check_car_relations(bundle)
    assert report.passed
    assert report.params["truncated"]


def test_parity_identity_wrapper():
    point = np.zeros((1, 3))
    species = [
        SpeciesConfig(mass=1.0 + 0.1 * j, points=point, weights=np.ones(1), spins=(0.5,))
        for j in range(3)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    tensor = KernelTensor(
        signature=ProcessSignature(3, (0, 1, 2), ()), values=np.ones((1, 1, 1))
    )
    bundle = assemble_total(table, basis, [tensor], 0.7)
    report = check_parity_identity(bundle)
    assert report.name == "parity_identity"
    assert report.passed
    assert report.details["matrix_deviation"] <= 1e-12


def dense_parity_identity_check(bundle):
    """Oracle: the parity identity on dense dim x dim arrays, with full-space
    eigvalsh for the spectrum half. Returns (matrix, spectrum) deviations."""
    p = parity_diagonal(bundle.basis)
    h = bundle.h_total.toarray()
    flipped = p[:, None] * h * p[None, :]
    target = h - 2.0 * bundle.coupling * bundle.h_int.toarray()
    matrix_dev = float(np.max(np.abs(flipped - target))) if h.size else 0.0
    ev_flip = np.linalg.eigvalsh(flipped)
    ev_target = np.linalg.eigvalsh(target)
    spec_dev = float(np.max(np.abs(ev_flip - ev_target)))
    return matrix_dev, spec_dev


def random_odd_bundle(seed=41):
    """Three species with 2, 1 and 2 modes and a complex random c01a2 kernel."""
    rng = np.random.default_rng(seed)
    species = [
        SpeciesConfig(
            mass=rng.uniform(0.5, 1.5),
            points=rng.uniform(-1.0, 1.0, size=(n, 3)),
            weights=rng.uniform(0.5, 1.5, size=n),
            spins=(0.5,),
        )
        for n in (2, 1, 2)
    ]
    table = build_mode_table(species)
    vals = rng.normal(size=(2, 1, 2)) + 1j * rng.normal(size=(2, 1, 2))
    tensor = KernelTensor(signature=ProcessSignature(3, (0, 1), (2,)), values=vals)
    return assemble_total(table, enumerate_basis(table), [tensor], 0.8)


@pytest.mark.parametrize(
    "make", [lambda: assemble_total(*triple_parts()), random_odd_bundle], ids=["triple", "random"]
)
def test_parity_identity_matches_dense_oracle(make):
    bundle = make()
    report = check_parity_identity(bundle)
    matrix_dev, spec_dev = dense_parity_identity_check(bundle)
    assert report.details["matrix_deviation"] == matrix_dev
    assert report.details["spectrum_deviation"] <= 1e-9
    assert spec_dev <= 1e-9
    assert report.passed


def test_parity_identity_runs_no_full_space_eigensolve(monkeypatch):
    bundle = assemble_total(*triple_parts())
    dim = bundle.basis.dimension
    assert dim >= 256
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert check_parity_identity(bundle).passed
    assert sizes and max(sizes) < dim


# ---------------------------------------------------------------------------
# number and gradient estimates along mass sweeps
# ---------------------------------------------------------------------------

def test_number_estimate_vanishes_at_zero_coupling():
    report, _ = check_sweep_estimates(chain_sweep(coupling=0.0), target=1)
    assert report.name == "number_estimate"
    assert report.passed
    assert report.max_ratio == 0.0
    assert "note" in report.params


def test_estimates_uniform_along_chain_sweep():
    number, gradient = check_sweep_estimates(chain_sweep(), target=1)
    assert number.passed
    assert number.max_ratio <= number.tolerance
    constants = number.details["per_mass_constants"]
    assert len(constants) == 3
    assert all(c > 0.0 for c in constants)
    assert number.details["masses"][-1] == 0.0

    assert gradient.name == "gradient_estimate"
    assert gradient.passed
    assert not gradient.details["coarse_spacing_flagged"]
    assert len(gradient.details["per_mass_constants"]) == 3


def test_number_estimate_rejects_momentum_origin_on_massless_target():
    point = np.zeros((1, 3))
    s0 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    s1 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    tensors = [
        KernelTensor(signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1)))
    ]
    curve = mass_sweep(assemble_total(table, basis, tensors, 1.0), 0, [1.0, 0.5])
    with pytest.raises(ValueError, match="k = 0"):
        check_sweep_estimates(curve, target=0)


def test_gradient_estimate_needs_chains():
    """A target without declared chains gets the number report only."""
    point = np.zeros((1, 3))
    s0 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    s1 = SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    tensors = [
        KernelTensor(signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1)))
    ]
    curve = mass_sweep(assemble_total(table, basis, tensors, 1.0), 0, [1.0, 0.5])
    assert [r.name for r in check_sweep_estimates(curve, target=1)] == ["number_estimate"]


def test_sweep_estimates_form_no_amplitudes_of_their_own(monkeypatch):
    """b(xi) Phi comes from spectra.observables only: the sweep estimates run
    with verify's own annihilation unavailable."""
    def refused(*args):
        raise AssertionError("annihilation called from verify")

    curve = chain_sweep()
    monkeypatch.setattr("fermifock.verify.annihilation", refused)
    assert [r.name for r in check_sweep_estimates(curve, target=1)] == [
        "number_estimate", "gradient_estimate"
    ]


FROZEN_SWEEPS = Path(__file__).with_name("frozen_sweep_reports.json")


def test_sweep_estimates_match_the_frozen_record():
    """The number and gradient reports on four curves, as the two separate
    checks gave them before the sweep estimates became one pass: the smooth
    chain sweep, the same sweep uncoupled (the "vanish" notes), a chain whose
    kernel alternates 1.0, 0.2 (coarse spacing flagged, gradient failed) and
    the acceptance limit curve."""
    curves = {
        "chain": chain_sweep(),
        "chain_uncoupled": chain_sweep(coupling=0.0),
        "coarse_chain": chain_sweep(profile=[1.0, 0.2, 1.0, 0.2, 1.0]),
        "limit": limit_curve(),
    }
    got = {
        f"{name}/{report.name}": report.as_dict()
        for name, curve in curves.items()
        for report in check_sweep_estimates(curve, target=1)
    }
    want = json.loads(FROZEN_SWEEPS.read_text())
    got = json.loads(json.dumps(got, sort_keys=True))
    assert list(got) == list(want)
    assert not want["coarse_chain/gradient_estimate"]["passed"]
    for key in want:
        assert_report_matches(got[key], want[key], key)


def test_singular_value_checks_repeat_exactly_above_dense_size():
    bundle = c0a1_bundle(6)
    assert bundle.basis.dimension > DENSE_CAP_DEFAULT
    op_1, op_2 = (check_operator_bound(bundle, trials=20, seed=3) for _ in range(2))
    norms_1, norms_2 = (check_smeared_norms(bundle, trials=2) for _ in range(2))
    assert op_1.passed and norms_1.passed
    assert op_1.details["exact_sup_ratio"] == op_2.details["exact_sup_ratio"]
    assert op_1.max_ratio == op_2.max_ratio
    assert norms_1.max_ratio == norms_2.max_ratio


def recorded_ground_problems(monkeypatch):
    """The matrices verify hands to ground_state, in call order."""
    problems, solve = [], verify.ground_state
    monkeypatch.setattr(verify, "ground_state", lambda h, **kw: problems.append(h) or solve(h, **kw))
    return problems


def ground_block_size(h):
    """States in the block of h's dense ground representative: above the dense
    cap, the block whose Lanczos run checks the ground."""
    h = spectra._solver_arithmetic(sp.csr_matrix(h))
    labels = spectra._component_labels(h)
    first = np.argmax(np.abs(spectra.ground_state(h, dense_cap=h.shape[0]).vector) > 0)
    return int(np.sum(labels == labels[first]))


def test_form_bound_raises_when_an_edge_does_not_converge(monkeypatch):
    """A spectral edge ARPACK could not find must not pass as an exact supremum."""
    bundle = c0a1_bundle(6)
    assert bundle.basis.dimension > DENSE_CAP_DEFAULT
    calls = []

    def no_convergence(op, **kwargs):
        calls.append(op.shape)
        raise spla.ArpackNoConvergence(
            "No convergence (10000 iterations, 0/1 eigenvectors converged)",
            np.empty(0), np.empty((op.shape[0], 0)),
        )

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    problems = recorded_ground_problems(monkeypatch)
    with pytest.raises(spla.ArpackNoConvergence):
        check_form_bound(bundle, trials=5)
    size = ground_block_size(problems[0])
    assert calls == [(size, size)]


# ---------------------------------------------------------------------------
# trial vectors in blocks
# ---------------------------------------------------------------------------

def one_piece_unit_rows(dim, count, rng):
    """count seeded unit rows drawn as one piece, as the bound checks once did."""
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@seed(2026)
@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 300),
    count=st.integers(1, 300),
    draws=st.integers(1, 2),
    block_bytes=st.sampled_from([1, 16 * 7, 2**12, verify._TRIAL_BLOCK_BYTES]),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_trial_blocks_concatenate_to_the_one_piece_draws(
    dim, count, draws, block_bytes, rng_seed
):
    """Bit for bit, at block sizes down to one row, and the generator ends
    where the one-piece draws leave it."""
    reference = np.random.default_rng(rng_seed)
    want = [one_piece_unit_rows(dim, count, reference) for _ in range(draws)]
    rng = np.random.default_rng(rng_seed)
    with mock.patch.object(verify, "_TRIAL_BLOCK_BYTES", block_bytes):
        blocks = list(verify._trial_blocks(dim, count, draws, rng))
    rows = max(1, block_bytes // (16 * dim))
    for block in blocks:
        assert len(block) == draws
        assert all(part.shape[0] == block[0].shape[0] <= rows for part in block)
    for k in range(draws):
        got = np.concatenate([block[k] for block in blocks])
        assert got.shape == want[k].shape and got.tobytes() == want[k].tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


BLOCKED_CHECKS = [
    check_form_bound, check_refined_form_bound, check_operator_bound, check_relative_bound_zero
]


@pytest.mark.parametrize("check", BLOCKED_CHECKS, ids=lambda c: c.__name__)
def test_bound_reports_do_not_depend_on_the_trial_block_size(monkeypatch, check):
    """One-row blocks and a single block give the default blocks' report. The
    operator bound's exact part is zeroed, so its max_ratio is the trial
    maximum, to the last bit."""
    monkeypatch.setattr(verify, "_top_singular_value", lambda op: 0.0)
    bundle = c0a1_bundle(4)
    want = check(bundle).as_dict()
    for block_bytes in (1, 2**30):
        monkeypatch.setattr(verify, "_TRIAL_BLOCK_BYTES", block_bytes)
        assert check(bundle).as_dict() == want


def c012_bundle():
    """Three spinless species of 4, 3 and 3 modes and a random complex c012
    kernel: dimension 1024, in blocks of at most 95 states."""
    rng = np.random.default_rng(9)
    species = [
        SpeciesConfig(
            mass=m, points=rng.uniform(-1.0, 1.0, size=(n, 3)),
            weights=rng.uniform(0.5, 1.5, size=n), spins=(0.5,),
        )
        for m, n in ((1.0, 4), (0.7, 3), (0.5, 3))
    ]
    table = build_mode_table(species)
    vals = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    tensor = KernelTensor(signature=ProcessSignature(3, (0, 1, 2), ()), values=vals)
    return assemble_total(table, enumerate_basis(table), [tensor], 0.7)


@pytest.mark.parametrize("check", BLOCKED_CHECKS, ids=lambda c: c.__name__)
def test_bound_check_memory_follows_one_trial_block(check):
    """Dimension 1024: one draw of the default 1000 trials is 16 MB (300
    trials, 4.9 MB, for the relative bound), and the one-piece draws took the
    checks' traced peaks to 15-83 MB. With warm caches each now stays below
    4 MB, most of it the exact suprema's dense blocks."""
    bundle = c012_bundle()
    check(bundle)
    tracemalloc.start()
    try:
        check(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRIAL_PEAK_BYTES


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_serializes_to_json():
    report = check_hermiticity(toy_bundle())
    payload = report.as_dict()
    assert payload["name"] == "hermiticity"
    assert payload["passed"] is True
    json.dumps(payload)
