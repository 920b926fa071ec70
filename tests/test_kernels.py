"""Hermite machinery, regularity weights, kernel families and infrared integrals."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import eigh_tridiagonal
from scipy.special import zeta  # the oracle for level_lattice_sum

from fermifock import kernels
from fermifock.cli import _demo_config
from fermifock.config import build_kernel_spec
from fermifock.kernels import (
    KernelSpec,
    RadialProfile,
    _radial_integral_decades,
    _verdict_from_levels,
    blend_exponents,
    discrete_bound_constant,
    exponent_table,
    hermite_axis,
    hermite_bound_constant,
    hermite_functions,
    infrared_report,
    level_lattice_sum,
    plateau_cutoff,
    power_counting_verdict,
    separable_slice_profiles,
    species_regularity_basis,
    weight_kernel_tensor,
)
from fermifock.modes import SpeciesConfig, build_mode_table

ORTHO_TOL = 1e-10
ROUNDTRIP_TOL = 1e-9
DUAL_ROUTE_TOL = 1e-3
LATTICE_SUM_TOL = 1e-10
LATTICE_SUM_ULPS = 8
PROFILE_QUAD_TOL = 5e-2
SLICE_PEAK_BYTES = 2**20
TABLE_REL_TOL = 1e-13


def small_table(seed=40, n_points=(3, 2), masses=(1.0, 0.5), spins=((0.5,), (0.5, -0.5))):
    rng = np.random.default_rng(seed)
    species = [
        SpeciesConfig(
            mass=m,
            points=rng.uniform(-1.0, 1.0, size=(np_, 3)),
            weights=rng.uniform(0.5, 1.5, size=np_),
            spins=sp_,
        )
        for m, np_, sp_ in zip(masses, n_points, spins)
    ]
    return build_mode_table(species)


# ---------------------------------------------------------------------------
# Hermite functions and quadrature axes
# ---------------------------------------------------------------------------

def test_hermite_functions_closed_forms():
    x = np.linspace(-2.0, 2.0, 9)
    e = hermite_functions(2, x)
    e0 = np.pi**-0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(e[0], e0, atol=1e-15)
    np.testing.assert_allclose(e[1], np.sqrt(2.0) * x * e0, atol=1e-15)
    np.testing.assert_allclose(e[2], (2.0 * x * x - 1.0) / np.sqrt(2.0) * e0, atol=1e-14)


def test_hermite_axis_orthonormal_and_spectral():
    axis = hermite_axis(40)
    gram = (axis.basis * axis.weights) @ axis.basis.T
    assert np.max(np.abs(gram - np.eye(40))) <= 1e-8
    # h e_l = (2l+1) e_l realized by power_matrix with power 1
    e5 = axis.basis[5]
    out = axis.power_matrix(1.0) @ e5
    np.testing.assert_allclose(out, 11.0 * e5, atol=1e-8)


def test_hermite_axis_power_roundtrip():
    axis = hermite_axis(30)
    rng = np.random.default_rng(41)
    coeff = rng.normal(size=12)
    f = coeff @ axis.basis[:12]
    back = axis.power_matrix(-0.7) @ (axis.power_matrix(0.7) @ f)
    np.testing.assert_allclose(back, f, atol=1e-10)


def test_hermite_quadrature_against_raw_hermgauss():
    # integral of e_0^2 should be 1 with the function-sampling weights
    x, w = hermgauss(24)
    e0 = np.pi**-0.25 * np.exp(-0.5 * x * x)
    val = np.sum(w * np.exp(x * x) * e0 * e0)
    assert val == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# level sums and reference constants
# ---------------------------------------------------------------------------

def euler_maclaurin_level_sum(s, cut=200000):
    """Independent partial-sum oracle for sum (2l+1)^(-2s)."""
    l = np.arange(cut + 1)
    partial = np.sum((2.0 * l + 1.0) ** (-2.0 * s))
    a = 2.0 * (cut + 1) + 1.0
    integral = a ** (1.0 - 2.0 * s) / (2.0 * (2.0 * s - 1.0))
    return partial + integral + 0.5 * a ** (-2.0 * s) + s * a ** (-2.0 * s - 1.0) / 3.0


@pytest.mark.parametrize("s", [0.6, 0.75, 1.0, 1.5, 2.0])
def test_level_lattice_sum_matches_direct_sum(s):
    assert level_lattice_sum(s) == pytest.approx(
        euler_maclaurin_level_sum(s), abs=LATTICE_SUM_TOL
    )


def test_level_lattice_sum_diverges_at_half():
    assert level_lattice_sum(0.5) == np.inf
    assert level_lattice_sum(0.75) == pytest.approx(1.6887611866554482, abs=1e-12)


def zeta_level_sum(s):
    """sum (2l+1)^(-2s) through the Riemann zeta function."""
    return float((1.0 - 2.0 ** (-2.0 * s)) * zeta(2.0 * s))


def test_level_lattice_sum_within_ulps_of_zeta():
    """The Euler–Maclaurin sum agrees with the zeta route to a few ulps, from
    just above the pole at s = 1/2 to where the sum is 1 + 3^(-160)."""
    s = np.concatenate([np.linspace(0.5 + 1e-8, 80.0, 1000), 0.5 + np.geomspace(1e-8, 0.5, 200)])
    got = np.array([level_lattice_sum(v) for v in s])
    want = np.array([zeta_level_sum(v) for v in s])
    assert np.all(np.abs(got - want) <= LATTICE_SUM_ULPS * np.spacing(want))


def test_level_lattice_sum_is_bit_equal_at_the_default_smoothness_and_limits():
    assert level_lattice_sum(0.75) == zeta_level_sum(0.75)
    assert level_lattice_sum(1e3) == 1.0
    assert level_lattice_sum(1e6) == 1.0
    assert level_lattice_sum(1e308) == 1.0
    for s in (0.5, 0.25, 0.0, -1.0):
        assert level_lattice_sum(s) == np.inf


def test_discrete_constant_below_reference():
    table = small_table()
    for exempt in (0, 1):
        for s in (0.6, 0.75, 1.2):
            disc = discrete_bound_constant(table, exempt, s)
            ref = hermite_bound_constant(table, exempt, s)
            assert 0.0 < disc <= ref * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# regularity basis and oscillator weights
# ---------------------------------------------------------------------------

def test_regularity_basis_orthonormal():
    table = small_table()
    for i in range(table.n_species):
        basis = species_regularity_basis(table, i)
        n = basis.vectors.shape[0]
        gram = basis.vectors.T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(n))) <= ORTHO_TOL
        assert np.all(basis.levels >= 1.0 - 1e-12)
        # identity at power zero
        np.testing.assert_allclose(basis.power_matrix(0.0), np.eye(n), atol=ORTHO_TOL)


def test_regularity_spin_degeneracy():
    table = small_table()
    basis = species_regularity_basis(table, 1)  # two spin labels
    lv = np.sort(basis.levels)
    np.testing.assert_allclose(lv[0::2], lv[1::2])


def test_weight_roundtrip_and_monotonicity():
    table = small_table()
    rng = np.random.default_rng(42)
    shape = tuple(len(table.block(i)) for i in range(table.n_species))
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    forward = weight_kernel_tensor(tensor, table, {0: 0.8, 1: 0.35})
    back = weight_kernel_tensor(forward, table, {0: -0.8, 1: -0.35})
    assert np.max(np.abs(back - tensor)) <= ROUNDTRIP_TOL
    norms = [
        np.linalg.norm(weight_kernel_tensor(tensor, table, {0: s, 1: s}).ravel())
        for s in (0.0, 0.3, 0.6, 1.0)
    ]
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

def test_exponent_table_exact_n4():
    eps = Fraction(1, 20)
    table = exponent_table(4, massless=[2, 3], margin=eps, exempt=0)
    assert table[0] == Fraction(0)
    assert table[1] == Fraction(1, 6) + eps
    assert table[2] == Fraction(2, 9) + eps
    assert table[3] == Fraction(2, 9) + eps


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_exponent_ordering(n):
    table = exponent_table(n, massless=[1], margin=Fraction(0), exempt=0)
    massive = exponent_table(n, massless=[], margin=Fraction(0), exempt=0)[1]
    massless = table[1]
    assert massive < massless < Fraction(1, 2)
    assert massive == Fraction(1, 2) - Fraction(1, n - 1)
    assert massless == Fraction(1, 2) - Fraction(5, 6) / (n - 1)


def test_blend_exponents_endpoints():
    table = small_table(masses=(1.0, 0.0))
    axes0, epow0 = blend_exponents(table, exempt=0, smoothness=0.75, theta=0.0)
    assert axes0 == {1: pytest.approx(1.0 / 12.0)}
    assert epow0 == pytest.approx(0.5)
    axes1, epow1 = blend_exponents(table, exempt=0, smoothness=0.75, theta=1.0)
    assert axes1 == {1: pytest.approx(0.75)}
    assert epow1 == 0.0


# ---------------------------------------------------------------------------
# profiles and kernel families
# ---------------------------------------------------------------------------

def test_plateau_cutoff_shape():
    rho = np.array([0.0, 0.5, 0.79, 0.85, 0.999, 1.2])
    cut = plateau_cutoff(rho, 1.0)
    np.testing.assert_allclose(cut[:3], 1.0)
    assert 0.0 < cut[3] < 1.0
    assert cut[4] < 1e-3
    assert cut[5] == 0.0
    assert np.all(np.diff(cut) <= 1e-12)


def test_radial_profile_envelope():
    prof = RadialProfile(nu=0.5, lam=1.0)
    rho = np.array([0.1, 0.4, 0.7])
    np.testing.assert_allclose(prof(rho), rho**0.5)
    assert prof(np.array([1.05]))[0] == 0.0


def test_kernel_family_amplitudes():
    ks = [np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.4, 0.0])]
    assert KernelSpec(2, "constant", 2.0).amplitude(ks) == 2.0
    assert KernelSpec(2, "gaussian", alpha=0.5).amplitude(ks) == pytest.approx(
        np.exp(-0.5 * 0.25)
    )
    pk = KernelSpec(2, "power", nus=(1.0, 0.0), lam=1.0)
    assert pk.amplitude(ks) == pytest.approx(0.3)
    sep = KernelSpec(2, "separable", nus=(0.0, 0.0), lam=1.0,
                     conservation_sigma=0.5, conservation_signs=(1, -1))
    # conservation regularizer sees the signed coordinate sums
    want = np.exp(-(0.3**2 + 0.4**2) / (4 * 0.25))
    assert sep.amplitude(ks) == pytest.approx(want)


def test_fermi_demo_spec_structure():
    """The kernel that fermi-demo's regular config builds."""
    cfg = _demo_config("regular", 1.9)
    _, spec = build_kernel_spec(cfg["kernels"][0], len(cfg["species"]))
    assert spec.n_species == 4
    assert spec.nus == (0.0, 0.0, 0.0, 0.5)
    assert spec.conservation_signs == (1, 1, -1, -1)


# ---------------------------------------------------------------------------
# slice profiles against a trapezoid oracle
# ---------------------------------------------------------------------------

def test_slice_profiles_match_trapezoid_oracle():
    spec = KernelSpec(2, "separable", nus=(0.0, 0.0), lam=1.0,
                      conservation_sigma=0.4, conservation_signs=(1, -1))
    prof = separable_slice_profiles(spec, slice_species=1, exponents={})
    x = np.linspace(-1.2, 1.2, 20001)
    col = plateau_cutoff(np.abs(x), 1.0)
    for a in (0.0, 0.4, 0.8):
        got = float(np.interp(a, prof.a_grid, prof.values))
        integrand = col**2 * np.exp(-((x - a) ** 2) / (2 * 0.4**2))
        want = float(
            plateau_cutoff(np.array([a]), 1.0)[0] * np.sqrt(np.trapezoid(integrand, x))
        )
        assert got == pytest.approx(want, rel=PROFILE_QUAD_TOL)
    # profile vanishes outside the cutoff
    assert float(np.interp(1.04, prof.a_grid, prof.values)) <= 1e-6


def test_slice_profile_gradient_sign():
    spec = KernelSpec(2, "separable", nus=(0.0, 1.0), lam=1.0,
                      conservation_sigma=0.0, conservation_signs=(1, -1))
    prof = separable_slice_profiles(spec, slice_species=1, exponents={})
    # slice norm along each component behaves like |a|^(1/3): gradient blows
    # up toward zero, so the tabulated derivative must dominate there
    g_near = float(np.interp(0.05, prof.a_grid, np.abs(prof.grad_values)))
    g_far = float(np.interp(0.6, prof.a_grid, np.abs(prof.grad_values)))
    assert g_near > g_far


def demo_variant_slice_inputs(variant):
    """A fermi-demo variant's kernel, its slice species and the oscillator
    powers its infrared check puts on the other species."""
    cfg = _demo_config(variant, 1.9)
    _, spec = build_kernel_spec(cfg["kernels"][0], len(cfg["species"]))
    exps, slice_species = cfg["exponents"], cfg["infrared"]["slice_species"]
    exponents = exponent_table(4, [3], exps["margin"], exps["exempt_species"])
    return spec, slice_species, {i: float(v) for i, v in exponents.items() if i != slice_species}


def demo_slice_inputs():
    return demo_variant_slice_inputs("regular")


def middle_slice_inputs():
    """Three species sliced at the middle one, so the slice coordinate is not
    the last term of the conservation sum; powers on both other axes."""
    spec = KernelSpec(3, "separable", nus=(0.3, 0.6, 0.5), lam=1.2,
                      conservation_sigma=0.4, conservation_signs=(1, -1, 1))
    return spec, 1, {0: 0.4, 2: 0.7}


def full_support_slice_inputs():
    """The middle-species kernel with its cutoff past every quadrature node."""
    return replace(middle_slice_inputs()[0], lam=6.5), 1, {0: 0.4, 2: 0.7}


@pytest.mark.parametrize("inputs", [demo_slice_inputs, middle_slice_inputs],
                         ids=["demo-regular", "middle-species"])
def test_slice_profiles_do_not_depend_on_the_block_size(monkeypatch, inputs):
    """The grid is tabulated in blocks of at most _SLICE_BLOCK_BYTES of factor
    values; each point takes the same operations, so one point per block gives
    the one-block table bit for bit."""
    spec, slice_species, exponents = inputs()
    monkeypatch.setattr(kernels, "_SLICE_BLOCK_BYTES", 2**40)
    whole = separable_slice_profiles(spec, slice_species, exponents)
    monkeypatch.setattr(kernels, "_SLICE_BLOCK_BYTES", 1)
    blocked = separable_slice_profiles(spec, slice_species, exponents)
    assert np.array_equal(blocked.values, whole.values)
    assert np.array_equal(blocked.grad_values, whole.grad_values)


def traced_peak(inputs):
    """tracemalloc's peak over one slice table, taken with warm caches."""
    spec, slice_species, exponents = inputs()
    separable_slice_profiles(spec, slice_species, exponents)
    tracemalloc.start()
    try:
        separable_slice_profiles(spec, slice_species, exponents)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_slice_profiles_memory_follows_one_block():
    """One demo table allocates under 1 MB at its peak (0.41 MB traced): its
    161 grid points form one block of 4^3 support nodes each. Five 4-row
    buffers against all 24^3 nodes traced 2.5 MB, and the one-piece
    161 x 24^3 grids about 100 MB."""
    assert traced_peak(demo_slice_inputs) < SLICE_PEAK_BYTES


def test_slice_profiles_memory_stays_bounded_on_full_support():
    """With every node in the support a block holds two grid points of 24^3
    factor values, and the table traces 1.1 MB at its peak."""
    assert traced_peak(full_support_slice_inputs) < 2 * SLICE_PEAK_BYTES


def reference_coordinate_factor(spec, coords):
    """The separable coordinate factor with a fresh array per operation, over
    whatever coordinates it is given."""
    out = np.ones(())
    for nu, c in zip(spec.nus, coords):
        out = out * RadialProfile(nu / 3.0, spec.lam)(c)
    if spec.conservation_sigma > 0:
        total = sum(s * c for s, c in zip(spec.conservation_signs, coords))
        out = out * np.exp(-(total**2) / (4.0 * spec.conservation_sigma**2))
    return out


def reference_slice_profiles(spec, slice_species, exponents):
    """The slice table on the full 24^3 node grid, one operation at a time in
    8-row blocks, with tensordot on each weighted axis and the cell-weighted
    sum of |W u|^2: the oracle for the support-restricted Gram-form table."""
    others = [i for i in range(spec.n_species) if i != slice_species]
    axis = hermite_axis(kernels._SLICE_QUAD_NODES)
    span = kernels._SLICE_GRID_MARGIN * spec.lam
    a_grid = np.linspace(-span, span, kernels._SLICE_GRID_POINTS)
    delta = 1e-4 * spec.lam

    def factor(a_values):
        coords = [None] * spec.n_species
        coords[slice_species] = a_values.reshape((-1,) + (1,) * len(others))
        for pos, i in enumerate(others):
            coords[i] = axis.nodes.reshape((-1,) + (1,) * (len(others) - 1 - pos))
        return reference_coordinate_factor(spec, coords)

    def weighted(values):
        for a, mat in weights.items():
            values = np.moveaxis(np.tensordot(mat, np.moveaxis(values, a, 0), axes=(1, 0)), 0, a)
        return values

    powers = {1 + pos: float(exponents.get(i, 0.0)) for pos, i in enumerate(others)}
    weights = {a: axis.power_matrix(p) for a, p in powers.items() if p != 0.0}
    w_nd = np.ones(())
    for _ in others:
        w_nd = np.multiply.outer(w_nd, axis.weights)
    cell = w_nd.reshape(-1)
    values = np.empty(a_grid.shape[0])
    grad_values = np.empty(a_grid.shape[0])
    for lo in range(0, a_grid.shape[0], 8):
        rows = slice(lo, lo + 8)
        a = a_grid[rows]
        base = weighted(factor(a))
        deriv = weighted((factor(a + delta) - factor(a - delta)) / (2.0 * delta))
        values[rows] = np.abs(base.reshape(a.shape[0], -1)) ** 2 @ cell
        grad_values[rows] = np.abs(deriv.reshape(a.shape[0], -1)) ** 2 @ cell
    return np.sqrt(values), np.sqrt(grad_values)


def negative_slice_exponent_inputs():
    """The middle-species kernel with a slice factor that is infinite at a = 0."""
    return replace(middle_slice_inputs()[0], nus=(0.3, -0.6, 0.5)), 1, {0: 0.4, 2: 0.7}


TABLE_CASES, TABLE_IDS = [
    demo_slice_inputs,
    lambda: demo_variant_slice_inputs("physical"),
    middle_slice_inputs,
    lambda: (middle_slice_inputs()[0], 0, {1: 0.4, 2: 0.7}),
    lambda: (KernelSpec(3, "separable", nus=(0.3, 0.0, 0.5), lam=1.1,
                        conservation_sigma=0.0, conservation_signs=(1, -1, 1)), 2, {0: 0.3}),
], ["demo-regular", "demo-physical", "middle-species", "slice-species-0", "sigma-0"]
# supports of 12 and 24 nodes per axis, a slice factor that is infinite at a = 0,
# and the same inside a cutoff that leaves no node (the nearest is at 0.224)
SUPPORT_CASES, SUPPORT_IDS = [
    lambda: (replace(middle_slice_inputs()[0], lam=3.0), 1, {0: 0.4, 2: 0.7}),
    full_support_slice_inputs,
    negative_slice_exponent_inputs,
    lambda: (replace(negative_slice_exponent_inputs()[0], lam=0.1), 1, {0: 0.4, 2: 0.7}),
], ["lam-3", "full-support", "negative-slice-exponent", "empty-support"]
TABLE_INPUTS = pytest.mark.parametrize("inputs", TABLE_CASES, ids=TABLE_IDS)
SLICE_TABLE_INPUTS = pytest.mark.parametrize(
    "inputs", TABLE_CASES + SUPPORT_CASES, ids=TABLE_IDS + SUPPORT_IDS
)


@SLICE_TABLE_INPUTS
def test_buffered_slice_table_is_bit_identical_to_the_reference(inputs):
    """The table on the cutoff's support, in Gram form, agrees with the
    full-grid oracle to 1e-13 relative, with its zeros and NaNs where the
    oracle has them: the supports hold 4, 12 and 24 nodes per axis at
    lam = 1, 3 and 6.5, and a negative slice exponent is infinite at a = 0,
    where the oracle's inf * 0 reads NaN, also when no node is in the support."""
    spec, slice_species, exponents = inputs()
    with np.errstate(invalid="ignore"):  # inf * 0 off the support, and on it when it is empty
        table = separable_slice_profiles(spec, slice_species, exponents)
        want_tables = reference_slice_profiles(spec, slice_species, exponents)
    for got, want in zip((table.values, table.grad_values), want_tables):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=TABLE_REL_TOL, atol=0)


def test_an_infinite_slice_factor_reads_nan_without_a_warning():
    """The row at a = 0 reads NaN and every other row is finite. No inf reaches
    the quadratic forms' products, where it would warn of an invalid value
    (warnings are errors in this suite)."""
    table = separable_slice_profiles(*negative_slice_exponent_inputs())
    zero = kernels._SLICE_GRID_POINTS // 2
    assert table.a_grid[zero] == 0.0 and np.isnan(table.values[zero])
    assert np.isfinite(np.delete(table.values, zero)).all()
    assert np.isfinite(table.grad_values).all()


@SLICE_TABLE_INPUTS
def test_separable_amplitude_is_bit_identical_to_the_reference(inputs):
    """amplitude multiplies one _coordinate_factor per coordinate; per-species
    coordinate views broadcast as in a kernel tensor."""
    spec = inputs()[0]
    rng = np.random.default_rng(61)
    ks = [
        rng.uniform(-1.1 * spec.lam, 1.1 * spec.lam, size=(n,) + (1,) * (spec.n_species - 1 - i) + (3,))
        for i, n in enumerate((5, 4, 3, 2)[: spec.n_species])
    ]
    want = spec.constant
    for j in range(3):
        want = want * reference_coordinate_factor(spec, [k[..., j] for k in ks])
    got = spec.amplitude(ks)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# infrared detector vs power counting
# ---------------------------------------------------------------------------

def test_power_counting_rule():
    assert power_counting_verdict(0.0, 1.9) == "divergent"
    assert power_counting_verdict(0.5, 1.9) == "finite"
    assert power_counting_verdict(0.0, 1.0) == "finite"
    assert power_counting_verdict(-0.4, 1.8) == "divergent"


@pytest.mark.parametrize("nu", [-0.25, 0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("r", [1.0, 1.5, 1.9])
def test_infrared_matches_power_counting(nu, r):
    # the detector on a slice norm that is exactly |k|^nu inside radius 1
    def radial(rho):
        return 4.0 * np.pi * rho**2 * rho ** (-2.0 * r) * rho ** (nu * r)

    def radial_grad(rho):
        scale = abs(nu) if nu != 0 else 1.0
        return 4.0 * np.pi * rho**2 * rho ** (-r) * (scale * rho ** (nu - 1.0)) ** r

    levels, gradient_levels = _radial_integral_decades(lambda rho: (radial(rho), radial_grad(rho)), 1.0)
    verdict, _ = _verdict_from_levels(levels)
    gradient_verdict, _ = _verdict_from_levels(gradient_levels)
    assert verdict == power_counting_verdict(nu, r)
    assert gradient_verdict == power_counting_verdict(nu, r)


def reference_sphere_levels(profiles, r, lam):
    """Level integrals with one sphere loop per integrand, each interpolating
    the slice factors on its own: the oracle for infrared_report's shared
    interpolation."""
    cos_nodes, cos_w = np.polynomial.legendre.leggauss(kernels._IR_ANGULAR)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * kernels._IR_ANGULAR, endpoint=False)
    sin_nodes = np.sqrt(1.0 - cos_nodes**2)
    dirs = np.stack([np.outer(sin_nodes, np.cos(phi)).ravel(),
                     np.outer(sin_nodes, np.sin(phi)).ravel(),
                     np.repeat(cos_nodes, phi.shape[0])], axis=1)
    dir_w = np.repeat(cos_w, phi.shape[0]) * (2.0 * np.pi / phi.shape[0])

    def norm_at(k):
        return np.prod(np.interp(k, profiles.a_grid, profiles.values), axis=1)

    def grad_norm_at(k):
        factors = np.interp(k, profiles.a_grid, profiles.values).T
        grads = np.interp(k, profiles.a_grid, profiles.grad_values).T
        total = np.zeros(k.shape[0])
        for j in range(3):
            term = grads[j]
            for jp in range(3):
                if jp != j:
                    term = term * factors[jp]
            total += term**2
        return np.sqrt(total)

    def levels(norm, power):
        x, w = np.polynomial.legendre.leggauss(kernels._IR_NODES_PER_DECADE)
        totals, running = [], 0.0
        for level in range(kernels._IR_LEVELS):
            hi, lo = lam * 10.0 ** (-level), lam * 10.0 ** (-(level + 1))
            mid = 0.5 * (np.log(hi) + np.log(lo))
            half = 0.5 * (np.log(hi) - np.log(lo))
            rho = np.exp(mid + half * x)
            sphere = np.array([np.sum(dir_w * norm(r_val * dirs) ** r) for r_val in rho])
            running += float(np.sum(w * half * rho * (sphere * rho**2 * rho ** (-power))))
            totals.append(running)
        return tuple(totals)

    return levels(norm_at, 2.0 * r), levels(grad_norm_at, r)


@TABLE_INPUTS
def test_infrared_levels_are_bit_identical_to_the_per_integrand_loops(inputs):
    spec, slice_species, exponents = inputs()
    report = infrared_report(spec, slice_species, 1.9, exponents)
    levels, gradient_levels = reference_sphere_levels(report.profiles, 1.9, spec.lam)
    assert report.levels == levels
    assert report.gradient_levels == gradient_levels


def test_infrared_rejects_bad_r():
    spec = KernelSpec(2, "power", nus=(0.0, 0.5), lam=1.0)
    with pytest.raises(ValueError, match="r must"):
        infrared_report(spec, slice_species=1, r=2.0)


# ---------------------------------------------------------------------------
# dual-route fractional powers
# ---------------------------------------------------------------------------

def fd_oscillator_power_norm(fn, power, extent=9.0, n_grid=1600, n_eigs=140):
    """|| h^power f || via a finite-difference discretization of h.

    Independent of the Hermite-recurrence machinery: h = -d2/dx2 + x^2 on a
    uniform grid, lowest eigenpairs from LAPACK, fractional power applied
    spectrally. The cross-check oracle for hermite_power_norm.
    """
    x = np.linspace(-extent, extent, n_grid)
    dx = x[1] - x[0]
    diag = 2.0 / dx**2 + x * x
    off = np.full(n_grid - 1, -1.0 / dx**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_eigs - 1))
    f = fn(x)
    coeff = vecs.T @ f
    return float(np.sqrt(dx) * np.linalg.norm(coeff * vals**power))


def hermite_power_norm(fn, power, n_quad=160):
    """|| h^power f || via Gauss-Hermite coefficients of hermite_axis."""
    axis = hermite_axis(n_quad)
    coeff = axis.basis @ (axis.weights * fn(axis.nodes))
    return float(np.linalg.norm(coeff * axis.levels**power))


@pytest.mark.parametrize("power", [0.5, 0.75, -0.5])
@pytest.mark.parametrize(
    "fn",
    [
        lambda x: np.exp(-0.6 * x * x) * (1.0 + x),
        lambda x: (x**2 - 1.0) * np.exp(-0.5 * x * x),
    ],
    ids=["gauss_shift", "bump_poly"],
)
def test_fractional_power_dual_route(fn, power):
    fast = hermite_power_norm(fn, power)
    oracle = fd_oscillator_power_norm(fn, power)
    assert fast == pytest.approx(oracle, rel=DUAL_ROUTE_TOL)
