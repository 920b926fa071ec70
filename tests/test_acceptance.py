"""Acceptance gate: one test per shipping criterion.

Each test pins its instance and tolerance explicitly, so `pytest -v
tests/test_acceptance.py` reads as a pass/fail line per criterion. The
instances are sized for a desk machine: dimensions stay at or below 4096 and
the two timed criteria assert their own budgets.
"""

import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import sqrt

import numpy as np

from fermifock import verify as vf
from fermifock.fock import enumerate_basis
from fermifock.hamiltonian import (
    KernelTensor,
    ProcessSignature,
    assemble_total,
    enumerate_processes,
    sample_kernel_tensor,
)
from fermifock.kernels import (
    KernelSpec,
    exponent_table,
    infrared_report,
    power_counting_verdict,
)
from fermifock.modes import SpeciesConfig, build_mode_table, uniform_grid_species
from fermifock.spectra import ground_state, mass_sweep

IDENTITY_TOL = 1e-12
RATIO_CAP = 1.0 + 1e-9
LOG_TOL = 1e-6
TOY_TOL = 1e-10
CURVE_TOL = 1e-9
SWEEP_TOL = 1e-9
UNIFORMITY_FACTOR = 4.0


# ---------------------------------------------------------------------------
# pinned instances
# ---------------------------------------------------------------------------

def toy_instance(coupling=1.0):
    """Two single-mode species, constant pair kernel: fully analytic."""
    point = np.zeros((1, 3))
    species = [
        SpeciesConfig(mass=1.0, points=point, weights=np.ones(1), spins=(0.5,))
        for _ in range(2)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    tensor = KernelTensor(
        signature=ProcessSignature(2, (0, 1), ()), values=np.ones((1, 1))
    )
    return assemble_total(table, basis, [tensor], coupling)


def pair_instance(spec=None, coupling=0.7):
    """Two massive four-mode species, dimension 256."""
    pts0 = np.array(
        [[0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [0.2, 0.4, 0.0], [0.5, 0.1, 0.3]]
    )
    # species 1 momenta keep the lowest one-particle level well isolated,
    # otherwise the weak-coupling gap picks up level mixing beyond g^2
    pts1 = np.array(
        [[0.2, 0.0, 0.0], [0.8, 0.1, 0.0], [0.5, 0.6, 0.0], [0.9, 0.4, 0.3]]
    )
    s0 = SpeciesConfig(mass=1.0, points=pts0, weights=np.full(4, 0.9), spins=(0.5,))
    s1 = SpeciesConfig(mass=0.8, points=pts1, weights=np.full(4, 0.8), spins=(0.5,))
    table = build_mode_table([s0, s1])
    basis = enumerate_basis(table)
    spec = spec if spec is not None else KernelSpec(2, "gaussian", alpha=0.25)
    tensor = sample_kernel_tensor(table, ProcessSignature(2, (0, 1), ()), spec.amplitude)
    return assemble_total(table, basis, [tensor], coupling)


def triple_parts():
    """Three species, a five-point chain on the driven one, dimension 512."""
    s0 = SpeciesConfig(
        mass=1.0,
        points=np.array([[0.3, 0.0, 0.0], [0.6, 0.0, 0.0]]),
        weights=np.array([0.8, 0.9]),
        spins=(0.5,),
    )
    chain_pts = np.array([[0.2 + 0.2 * i, 0.35, 0.1] for i in range(5)])
    s1 = SpeciesConfig(
        mass=1.0,
        points=chain_pts,
        weights=np.full(5, 0.2),
        spins=(0.5,),
        chains=((0, 1, 2, 3, 4),),
    )
    s2 = SpeciesConfig(
        mass=0.7,
        points=np.array([[0.4, 0.1, 0.0], [0.1, 0.5, 0.2]]),
        weights=np.array([0.7, 1.1]),
        spins=(0.5,),
    )
    table = build_mode_table([s0, s1, s2])
    basis = enumerate_basis(table)
    spec = KernelSpec(3, "power", nus=(0.6, 0.5, 0.7), lam=2.5)
    tensors = [
        sample_kernel_tensor(table, ProcessSignature(3, (0, 1, 2), ()), spec.amplitude),
        sample_kernel_tensor(table, ProcessSignature(3, (0,), (1, 2)), spec.amplitude),
    ]
    return table, basis, tensors, 0.6


def quad_instance():
    """Four species with a decay-style two-in two-out kernel, dimension 256."""
    # off the coordinate planes: the separable amplitude is a product of
    # per-component powers, so a zero coordinate makes the kernel vanish
    pts = np.array([[0.3, 0.1, 0.05], [0.1, 0.45, 0.15]])
    species = [
        SpeciesConfig(mass=m, points=pts, weights=np.array([0.7, 0.6]), spins=(0.5,))
        for m in (1.0, 0.8, 0.5, 0.4)
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    spec = KernelSpec(4, "separable", nus=(0.0, 0.0, 0.0, 0.5), lam=1.0,
                      conservation_sigma=0.35, conservation_signs=(1, 1, -1, -1))
    tensor = sample_kernel_tensor(
        table, ProcessSignature(4, (0, 1), (2, 3)), spec.amplitude
    )
    return assemble_total(table, basis, [tensor], 0.5)


def grid_instance():
    """Two spinful grid species, dimension 4096: the size ceiling."""
    g0 = uniform_grid_species(1.0, 0.9, (3, 1, 1), spins=(0.5, -0.5))
    g1 = uniform_grid_species(0.6, 0.8, (1, 3, 1), spins=(0.5, -0.5))
    table = build_mode_table([g0, g1])
    basis = enumerate_basis(table)
    spec = KernelSpec(2, "gaussian", alpha=0.3)
    tensor = sample_kernel_tensor(table, ProcessSignature(2, (0, 1), ()), spec.amplitude)
    return assemble_total(table, basis, [tensor], 0.7)


@lru_cache(maxsize=1)
def limit_curve():
    table, basis, tensors, coupling = triple_parts()
    masses = list(np.geomspace(1.0, 1e-3, 6))
    return mass_sweep(assemble_total(table, basis, tensors, coupling), 1, masses)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_identity_suite():
    start = time.monotonic()
    bundles = [
        toy_instance(),
        pair_instance(),
        assemble_total(*triple_parts()),
        quad_instance(),
        grid_instance(),
    ]
    assert len(bundles) >= 5
    assert {b.table.n_species for b in bundles} == {2, 3, 4}
    for bundle in bundles:
        assert bundle.basis.dimension <= 4096
        assert bundle.h_int.nnz > 0, bundle.table.n_species
        for report in (
            vf.check_car_relations(bundle),
            vf.check_smeared_norms(bundle),
            vf.check_pull_through(bundle),
            vf.check_hermiticity(bundle),
        ):
            assert report.passed, (report.name, bundle.basis.dimension, report.max_ratio)
            assert report.tolerance == IDENTITY_TOL, report.name
    odd = next(b for b in bundles if b.table.n_species == 3)
    parity = vf.check_parity_identity(odd)
    assert parity.passed
    assert parity.details["matrix_deviation"] <= IDENTITY_TOL
    assert time.monotonic() - start < 60.0


def test_criterion_02_constant_one_bounds():
    checks = (
        (vf.check_form_bound, 101),
        (vf.check_refined_form_bound, 103),
        (vf.check_operator_bound, 105),
    )
    for bundle in (toy_instance(), pair_instance(), quad_instance()):
        for check, seed in checks:
            report = check(bundle, trials=1000, seed=seed)
            assert report.trials >= 1000
            assert report.passed, (report.name, bundle.table.n_species)
            assert report.max_ratio <= RATIO_CAP


def test_criterion_03_interpolation_log_convexity():
    families = (
        KernelSpec(2, "gaussian", alpha=0.25),
        KernelSpec(2, "power", nus=(0.6, 0.5), lam=2.5),
        KernelSpec(2, "separable", nus=(0.5, 0.7), lam=2.0,
                   conservation_sigma=0.25, conservation_signs=(1, -1)),
    )
    # the best constants are norms over the whole kernel space, so the report
    # depends on the term's signature and the table, not on the sampled kernel
    reports = [
        vf.check_interpolation(pair_instance(spec), trials=200, seed=31) for spec in families
    ]
    for spec, report in zip(families, reports):
        assert report.as_dict() == reports[0].as_dict(), spec.kind
    exempt_one = vf.check_interpolation(pair_instance(families[0]), exempt=1, trials=200, seed=31)
    for report in (reports[0], exempt_one):
        assert report.passed, report.params["exempt"]
        assert report.max_ratio <= LOG_TOL
        assert set(report.details["per_theta"]) == {"0.25", "0.5", "0.75"}
    # moving the exempt axis changes the weights, hence the constants
    m0_one = exempt_one.params["endpoint_constants"][0]
    m0_zero = reports[0].params["endpoint_constants"][0]
    assert abs(m0_one - m0_zero) > 1e-3 * m0_zero


def test_criterion_04_exponent_table_exact():
    eps = Fraction(1, 20)
    one_massless = exponent_table(4, [3], eps, 0)
    assert one_massless == {
        0: Fraction(0),
        1: Fraction(1, 6) + eps,
        2: Fraction(1, 6) + eps,
        3: Fraction(2, 9) + eps,
    }
    two_massless = exponent_table(4, [2, 3], eps, 0)
    assert two_massless == {
        0: Fraction(0),
        1: Fraction(1, 6) + eps,
        2: Fraction(2, 9) + eps,
        3: Fraction(2, 9) + eps,
    }
    for value in two_massless.values():
        assert isinstance(value, Fraction)


def test_criterion_05_toy_energy_and_mass_curve():
    bundle = toy_instance()
    result = ground_state(bundle.h_total)
    assert abs(result.energy - (1.0 - sqrt(2.0))) <= TOY_TOL

    masses = [1.0, 0.6, 0.3, 0.1, 0.01]
    curve = mass_sweep(bundle, 0, masses)
    for m, energy in zip(curve.masses, curve.energies):
        want = ((1.0 + m) - sqrt((1.0 + m) ** 2 + 4.0)) / 2.0
        assert abs(energy - want) <= CURVE_TOL, m


def test_criterion_06_mass_limit_program():
    start = time.monotonic()
    curve = limit_curve()
    assert curve.bundles[0].basis.dimension <= 4096
    assert len(curve.masses) == 6
    assert curve.masses[-1] == 1e-3
    assert curve.monotonicity_violation() <= SWEEP_TOL
    assert curve.sandwich_violation() <= SWEEP_TOL
    assert time.monotonic() - start < 300.0


def test_criterion_07_number_gradient_uniform_when_infrared_finite():
    spec = KernelSpec(3, "power", nus=(0.6, 0.5, 0.7), lam=2.5)
    exponents = {
        i: float(v)
        for i, v in exponent_table(3, [1], 0.05, 0).items()
        if i != 1
    }
    assert infrared_report(spec, 1, 1.9, exponents).verdict == "finite"

    curve = limit_curve()
    number, gradient = vf.check_sweep_estimates(curve, target=1)
    assert number.passed
    assert number.max_ratio <= UNIFORMITY_FACTOR
    assert gradient.name == "gradient_estimate"
    assert gradient.passed
    assert gradient.max_ratio <= UNIFORMITY_FACTOR


def test_criterion_08_infrared_detector_matches_power_counting():
    def spec(nu):
        return KernelSpec(2, "power", nus=(0.6, nu), lam=2.5)

    for nu, want in ((0.5, "finite"), (0.0, "divergent")):
        report = infrared_report(spec(nu), 1, 1.9, {0: 0.0})
        assert report.verdict == want, nu
    for nu in (-0.25, 0.0, 0.25, 0.5, 1.0):
        for r in (1.0, 1.5, 1.9):
            report = infrared_report(spec(nu), 1, r, {0: 0.0})
            assert report.verdict == power_counting_verdict(nu, r), (nu, r)


def test_criterion_09_weak_coupling_gap_is_quadratic():
    bundle = pair_instance()
    assert not any(s.is_massless for s in bundle.table.species)

    def gap(g):
        spectrum = ground_state(replace(bundle, coupling=g).h_total, count=2).spectrum
        return spectrum[1] - spectrum[0]

    gap0 = gap(0.0)
    couplings = np.linspace(0.01, 0.1, 10)
    gaps = np.array([gap(g) for g in couplings])
    assert np.max(np.abs(gaps - gap0)) > 0.0
    # least-squares fit |gap(g) - gap(0)| = C g^2 and its relative residual
    deltas = np.abs(gaps - gap0)
    g2 = couplings**2
    coeff = np.dot(deltas, g2) / np.dot(g2, g2)
    residual = np.linalg.norm(deltas - coeff * g2) / np.linalg.norm(deltas)
    assert np.isfinite(coeff)
    assert residual < 0.10


def test_criterion_10_process_counts_match_exhaustive_oracle():
    for n in range(1, 7):
        oracle = []
        for p in range(n + 1):
            for created in combinations(range(n), p):
                annihilated = tuple(i for i in range(n) if i not in created)
                if created and annihilated and not created[0] < annihilated[0]:
                    continue
                oracle.append((created, annihilated))
        signatures = enumerate_processes(n)
        assert len(signatures) == len(oracle)
        got = Counter(len(s.created) for s in signatures)
        want = Counter(len(c) for c, _ in oracle)
        assert got == want, n
        assert len(signatures) == 2 ** (n - 1) + 1
