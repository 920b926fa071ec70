"""Kernel families, oscillator-weight machinery and infrared diagnostics.

Three related jobs live here:

* Harmonic-oscillator weights. The regularity weight applied to kernels is a
  fractional power of the per-component oscillator h = -d^2/dx^2 + x^2, whose
  Hermite eigenfunctions have eigenvalues 2l+1. On a species' finite momentum
  point set the weight becomes a matrix: sampled 3D Hermite products are
  orthonormalized against the quadrature inner product and each surviving
  vector carries its level value prod_j (2 l_j + 1); fractional powers act
  spectrally in that basis. On Gauss-Hermite grids the same construction is
  exact quadrature.

* Kernel specs. Amplitude families (constant, gaussian, per-species radial
  powers, component-separable products with a momentum conservation
  regularizer). KernelSpec.amplitude is the one evaluation of a kernel: it
  takes one momentum array per species and broadcasts, so a kernel tensor or
  a slice-profile grid is a single call on per-species coordinate views.

* Infrared diagnostics. Radial integrals of |k|^(-2r) ||S G slice||^r (and the
  gradient variant) over shrinking inner cutoffs, with a geometric-decay
  verdict and a pure power-counting oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .modes import ModeTable

# ---------------------------------------------------------------------------
# Hermite functions and Gauss-Hermite grids
# ---------------------------------------------------------------------------


def hermite_functions(l_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions e_0..e_l_max sampled at x, shape (l_max+1, len(x)).

    Stable two-term recurrence seeded with e_0 = pi^(-1/4) exp(-x^2/2).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((l_max + 1, x.shape[0]))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if l_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for l in range(1, l_max):
        out[l + 1] = np.sqrt(2.0 / (l + 1)) * x * out[l] - np.sqrt(
            l / (l + 1.0)
        ) * out[l - 1]
    return out


@dataclass(frozen=True)
class HermiteAxis:
    """One Gauss-Hermite quadrature axis with its sampled Hermite basis.

    nodes/weights are the function-sampling pair: sum_j weights[j] f(x_j) g(x_j)
    approximates the L2 pairing and is exact for polynomial-times-gaussian
    integrands up to degree 2P-1, so the sampled basis is exactly orthonormal.
    """

    nodes: np.ndarray
    weights: np.ndarray
    basis: np.ndarray  # (P, P), row l = e_l at the nodes
    levels: np.ndarray  # (P,) oscillator eigenvalues 2l+1

    def power_matrix(self, power: float) -> np.ndarray:
        """The oscillator power h^power acting on values sampled at the nodes."""
        return (self.basis.T * self.levels**power) @ (self.basis * self.weights)


def hermite_axis(n_nodes: int) -> HermiteAxis:
    """Build a Gauss-Hermite axis with function-sampling weights."""
    if n_nodes < 1 or n_nodes > 300:
        raise ValueError("node count out of the stable range")
    x, w = hermgauss(n_nodes)
    w_mod = w * np.exp(x * x)
    basis = hermite_functions(n_nodes - 1, x)
    gram = (basis * w_mod) @ basis.T
    resid = np.max(np.abs(gram - np.eye(n_nodes)))
    if resid > 1e-8:
        raise AssertionError(f"Gauss-Hermite orthonormality failed: {resid:.2e}")
    levels = 2.0 * np.arange(n_nodes) + 1.0
    return HermiteAxis(nodes=x, weights=w_mod, basis=basis, levels=levels)


# ---------------------------------------------------------------------------
# Discrete regularity basis on arbitrary weighted point sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityBasis:
    """Spectral data of the oscillator weight restricted to one species.

    vectors columns are orthonormal in plain l2 after the sqrt-weight
    absorption used everywhere else, so the weight with exponent s acts on
    weighted per-species axes as vectors @ diag(levels**s) @ vectors.conj().T.
    """

    vectors: np.ndarray
    levels: np.ndarray

    def power_matrix(self, exponent: float) -> np.ndarray:
        scaled = self.levels.astype(float) ** exponent
        return (self.vectors * scaled) @ self.vectors.conj().T


_BASIS_CACHE: dict[tuple, RegularityBasis] = {}


def _graded_levels(l_cap: int) -> list[tuple[int, int, int]]:
    levels = [
        (l1, l2, l3)
        for l1 in range(l_cap + 1)
        for l2 in range(l_cap + 1)
        for l3 in range(l_cap + 1)
    ]
    levels.sort(key=lambda t: ((2 * t[0] + 1) * (2 * t[1] + 1) * (2 * t[2] + 1), t))
    return levels


def species_regularity_basis(
    table: ModeTable, species: int, tol: float = 1e-9
) -> RegularityBasis:
    """Gram-Schmidt oscillator basis for one species' modes.

    Candidates e_l1 e_l2 e_l3 are taken in graded level order (by the product
    (2l1+1)(2l2+1)(2l3+1), ties lexicographic), sampled on the species'
    points, multiplied by sqrt(point weight) and orthonormalized; candidates
    that are numerically dependent on earlier ones are skipped. Spin labels
    produce degenerate copies. Results are cached by the species' geometry.
    """
    cfg = table.species[species]
    key = (
        cfg.points.tobytes(),
        cfg.weights.tobytes(),
        cfg.spins,
        round(math.log10(tol), 6),
    )
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit

    points = cfg.points
    sqw = np.sqrt(cfg.weights)
    n_pts = cfg.n_points
    accepted: list[np.ndarray] = []
    accepted_levels: list[float] = []
    l_cap = 3
    while len(accepted) < n_pts:
        if l_cap > 48:
            raise RuntimeError("point set not separated by the oscillator basis")
        samples = {
            l: hermite_functions(l_cap, points[:, j])
            for j, l in enumerate("xyz")
        }
        accepted = []
        accepted_levels = []
        for l1, l2, l3 in _graded_levels(l_cap):
            cand = samples["x"][l1] * samples["y"][l2] * samples["z"][l3] * sqw
            norm0 = np.linalg.norm(cand)
            if norm0 < 1e-300:
                continue
            vec = cand.copy()
            for _ in range(2):  # the second orthogonalization pass keeps the basis clean
                for prev in accepted:
                    vec -= np.dot(prev, vec) * prev
            resid = np.linalg.norm(vec)
            if resid <= tol * norm0:
                continue
            accepted.append(vec / resid)
            accepted_levels.append(
                float((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1))
            )
            if len(accepted) == n_pts:
                break
        l_cap += 3

    point_vectors = np.stack(accepted, axis=1)
    point_levels = np.array(accepted_levels)
    n_spins = len(cfg.spins)
    n_modes = n_pts * n_spins
    vectors = np.zeros((n_modes, n_modes))
    levels = np.zeros(n_modes)
    col = 0
    for pv, lv in zip(point_vectors.T, point_levels):
        for s_idx in range(n_spins):
            mode_vec = np.zeros(n_modes)
            mode_vec[s_idx::n_spins] = pv
            vectors[:, col] = mode_vec
            levels[col] = lv
            col += 1
    basis = RegularityBasis(vectors=vectors, levels=levels)
    _BASIS_CACHE[key] = basis
    return basis


def _apply_on_axes(values: np.ndarray, matrices: dict[int, np.ndarray]) -> np.ndarray:
    """Apply each matrix to values along its axis (as mat @ v on that axis)."""
    for axis, mat in matrices.items():
        values = np.moveaxis(np.tensordot(mat, np.moveaxis(values, axis, 0), axes=(1, 0)), 0, axis)
    return values


def weight_kernel_tensor(
    values: np.ndarray,
    table: ModeTable,
    exponents: dict[int, float],
    axis_species: dict[int, int] | None = None,
) -> np.ndarray:
    """Apply per-species oscillator powers to a weighted kernel tensor.

    exponents maps species index to the power applied on its axis; species not
    listed (or with power 0) are left alone. axis_species maps tensor axis to
    species when the tensor does not cover all species in ascending order
    (sliced tensors in the number estimates).
    """
    values = np.asarray(values, dtype=np.complex128)
    if axis_species is None:
        axis_species = {a: a for a in range(values.ndim)}
    powers = {axis: float(exponents.get(species, 0.0)) for axis, species in axis_species.items()}
    return _apply_on_axes(values, {
        axis: species_regularity_basis(table, axis_species[axis]).power_matrix(power)
        for axis, power in powers.items() if power != 0.0
    })


# ---------------------------------------------------------------------------
# Reference constants and exponent bookkeeping
# ---------------------------------------------------------------------------


def level_lattice_sum(s: float) -> float:
    """sum over l >= 0 of (2l+1)^(-2s), finite for s > 1/2."""
    if s <= 0.5:
        return math.inf
    from scipy.special import zeta  # loaded by the one caller, verify's Hermite bound
    return float((1.0 - 2.0 ** (-2.0 * s)) * zeta(2.0 * s))


def hermite_bound_constant(table: ModeTable, exempt: int, s: float) -> float:
    """Reference smoothing-bound constant prod_(i != exempt) sqrt(n_spins_i * sigma(s)^3)."""
    sigma = level_lattice_sum(s)
    out = 1.0
    for i in range(table.n_species):
        if i == exempt:
            continue
        out *= math.sqrt(len(table.species[i].spins) * sigma**3)
    return out


def discrete_bound_constant(table: ModeTable, exempt: int, s: float) -> float:
    """The provable discrete constant: finite level sums over accepted vectors.

    Always bounded by hermite_bound_constant because accepted levels are a
    subset of the full lattice (with spin multiplicity).
    """
    out = 1.0
    for i in range(table.n_species):
        if i == exempt:
            continue
        basis = species_regularity_basis(table, i)
        out *= math.sqrt(float(np.sum(basis.levels ** (-2.0 * s))))
    return out


def exponent_table(
    n: int,
    massless: Sequence[int],
    margin: Fraction | float,
    exempt: int,
) -> dict[int, Fraction | float]:
    """Per-species regularity exponents for the relative-bound weights.

    Massive species get 1/2 - 1/(n-1) + margin, massless ones
    1/2 - (5/6)/(n-1) + margin, the exempt species 0. Passing a Fraction
    margin keeps everything exact.
    """
    if n < 2:
        raise ValueError("need at least two species")
    if not (0 <= exempt < n):
        raise ValueError("exempt species out of range")
    massless = set(int(i) for i in massless)
    exact = isinstance(margin, Fraction)
    half = Fraction(1, 2) if exact else 0.5
    out: dict[int, Fraction | float] = {}
    for i in range(n):
        if i == exempt:
            out[i] = Fraction(0) if exact else 0.0
        elif i in massless:
            out[i] = half - (Fraction(5, 6) if exact else 5.0 / 6.0) / (n - 1) + margin
        else:
            out[i] = half - (Fraction(1) if exact else 1.0) / (n - 1) + margin
    return out


def blend_exponents(
    table: ModeTable, exempt: int, smoothness: float, theta: float
) -> tuple[dict[int, float], float]:
    """Interpolation-stage weights: per-species oscillator powers and the
    energy power on both sides.

    Massive non-exempt axes get theta * smoothness, massless non-exempt axes
    1/12 + theta (smoothness - 1/12); the energy factor (H_free + 1) carries
    (n - 1)(1 - theta)/2.
    """
    n = table.n_species
    axis_powers: dict[int, float] = {}
    for i in range(n):
        if i == exempt:
            continue
        if table.species[i].is_massless:
            axis_powers[i] = 1.0 / 12.0 + theta * (smoothness - 1.0 / 12.0)
        else:
            axis_powers[i] = theta * smoothness
    energy_power = (n - 1) * (1.0 - theta) / 2.0
    return axis_powers, energy_power


# ---------------------------------------------------------------------------
# Pointwise-weighted kernel norms
# ---------------------------------------------------------------------------


def weighted_kernel_norm(
    tensor_values: np.ndarray,
    table: ModeTable,
    species_subset: Sequence[int],
    one_plus: bool = False,
) -> float:
    """l2 norm of a kernel tensor weighted by omega^(-1/2) on the axis of each
    species in species_subset, or by 1 + omega^(-1/2) with one_plus set."""
    out = np.asarray(tensor_values, dtype=np.complex128)
    for i in species_subset:
        omega = table.mode_energies(i)
        if np.any(omega == 0):
            raise ValueError("zero-energy mode makes the energy weight singular")
        scale = omega**-0.5
        if one_plus:
            scale = 1.0 + scale
        out = out * scale.reshape((1,) * i + (-1,) + (1,) * (out.ndim - i - 1))
    return float(np.linalg.norm(out.ravel()))


# ---------------------------------------------------------------------------
# Smooth profiles and kernel specs
# ---------------------------------------------------------------------------


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def plateau_cutoff(rho: np.ndarray, lam: float, edge: float = 0.8) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0, edge*lam], 0 beyond lam."""
    rho = np.asarray(rho, dtype=float)
    return 1.0 - _smooth_step((rho - edge * lam) / ((1.0 - edge) * lam))


@dataclass(frozen=True)
class RadialProfile:
    """|k|^nu times a smooth plateau cutoff at radius lam."""

    nu: float
    lam: float

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.abs(np.asarray(rho, dtype=float))
        cut = plateau_cutoff(rho, self.lam)
        if self.nu == 0:
            return cut
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.where(rho > 0, rho**self.nu, 0.0 if self.nu > 0 else np.inf)
        return power * cut


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family: a broadcasting amplitude plus structural metadata.

    kind:
      "constant"   amplitude c everywhere.
      "gaussian"   c * exp(-alpha * sum_i |k_i|^2).
      "power"      prod_i RadialProfile(nu_i, lam)(|k_i|), species-separable.
      "separable"  component-separable: c * prod_j u(k_0^j, ..., k_(n-1)^j), one
                   coordinate factor u for x, y and z alike, made of the
                   profiles RadialProfile(nu_i / 3, lam)(k_i^j) and a gaussian
                   momentum-conservation regularizer in the signed sum
                   sum_i s_i k_i^j.
    """

    n_species: int
    kind: str
    constant: complex = 1.0
    alpha: float = 0.0
    nus: tuple[float, ...] = ()
    lam: float = 1.0
    conservation_sigma: float = 0.0
    conservation_signs: tuple[int, ...] = ()

    def amplitude(self, ks: Sequence[np.ndarray]) -> np.ndarray:
        """The kernel on momenta: ks[i] holds species i's momenta, shape (..., 3).

        The leading shapes broadcast against each other, and so does the result.
        """
        ks = [np.asarray(k, dtype=float) for k in ks]
        if self.kind == "constant":
            return np.full(np.broadcast_shapes(*(k.shape[:-1] for k in ks)), self.constant)
        if self.kind == "gaussian":
            total = sum(np.sum(k * k, axis=-1) for k in ks)
            return self.constant * np.exp(-self.alpha * total)
        if self.kind == "power":
            value = self.constant
            for nu, k in zip(self.nus, ks):
                value = value * RadialProfile(nu, self.lam)(np.linalg.norm(k, axis=-1))
            return value
        if self.kind == "separable":
            value = self.constant
            for j in range(3):
                value = value * self._coordinate_factor([k[..., j] for k in ks])
            return value
        raise ValueError(f"unknown kernel kind {self.kind!r}")

    def _coordinate_factor(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """The separable coordinate factor u; coords[i] holds species i's values
        of one coordinate, and the factor broadcasts over them."""
        out = np.ones(())
        for nu, c in zip(self.nus, coords):
            out = out * RadialProfile(nu / 3.0, self.lam)(c)
        if self.conservation_sigma > 0:
            total = sum(s * c for s, c in zip(self.conservation_signs, coords))
            out = out * np.exp(-(total**2) / (4.0 * self.conservation_sigma**2))
        return out


def constant_kernel(n_species: int, value: complex = 1.0) -> KernelSpec:
    return KernelSpec(n_species=n_species, kind="constant", constant=value)


def gaussian_kernel(n_species: int, alpha: float, value: complex = 1.0) -> KernelSpec:
    return KernelSpec(n_species=n_species, kind="gaussian", constant=value, alpha=alpha)


def power_kernel(nus: Sequence[float], lam: float, value: complex = 1.0) -> KernelSpec:
    return KernelSpec(
        n_species=len(nus),
        kind="power",
        constant=value,
        nus=tuple(float(v) for v in nus),
        lam=lam,
    )


def separable_kernel(
    nus: Sequence[float],
    lam: float,
    conservation_sigma: float,
    conservation_signs: Sequence[int],
    value: complex = 1.0,
) -> KernelSpec:
    if len(conservation_signs) != len(nus):
        raise ValueError("need one conservation sign per species")
    return KernelSpec(
        n_species=len(nus),
        kind="separable",
        constant=value,
        nus=tuple(float(v) for v in nus),
        lam=lam,
        conservation_sigma=float(conservation_sigma),
        conservation_signs=tuple(int(s) for s in conservation_signs),
    )


def fermi_demo_spec(nu_massless: float, lam: float = 1.0, sigma: float = 0.35) -> KernelSpec:
    """Four-species decay-style kernel: two created, two annihilated, species 3
    massless with component exponent nu_massless / 3, gaussian momentum
    conservation."""
    return separable_kernel(
        nus=(0.0, 0.0, 0.0, nu_massless),
        lam=lam,
        conservation_sigma=sigma,
        conservation_signs=(1, 1, -1, -1),
    )


# ---------------------------------------------------------------------------
# Component-separable slice norms on fine grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceProfiles:
    """Coordinate slice-norm profile of a separable kernel.

    A separable kernel is a product of one coordinate factor u, taken at the x,
    y and z coordinates alike, so a single table serves all three. values[g]
    is || W (u sliced at coordinate a_grid[g]) || with the oscillator weights W
    on the remaining species' axes, and grad_values[g] is the same for the
    coordinate derivative of the slice. The full 3D slice norm at momentum k
    factorizes as prod_j values(k_j).
    """

    a_grid: np.ndarray
    values: np.ndarray
    grad_values: np.ndarray

    def norm_at(self, k: np.ndarray) -> np.ndarray:
        k = np.atleast_2d(np.asarray(k, dtype=float))
        return np.prod(np.interp(k, self.a_grid, self.values), axis=1)

    def grad_norm_at(self, k: np.ndarray) -> np.ndarray:
        """Euclidean norm over the three coordinate derivatives."""
        k = np.atleast_2d(np.asarray(k, dtype=float))
        factors = np.interp(k, self.a_grid, self.values).T
        grads = np.interp(k, self.a_grid, self.grad_values).T
        total = np.zeros(k.shape[0])
        for j in range(3):
            term = grads[j]
            for jp in range(3):
                if jp != j:
                    term = term * factors[jp]
            total += term**2
        return np.sqrt(total)


# Gauss-Hermite nodes per remaining species axis, and the half-width of the
# slice grid in units of lam (the cutoff support ends at lam)
_SLICE_QUAD_NODES = 24
_SLICE_GRID_MARGIN = 1.05


def separable_slice_profiles(
    spec: KernelSpec,
    slice_species: int,
    exponents: dict[int, float],
    n_grid: int = 161,
) -> SliceProfiles:
    """Tabulate the weighted coordinate slice norms of a separable kernel.

    exponents gives the oscillator power per remaining species (the slice
    species itself and any exempt species should be absent or zero). The
    coordinate factor is sampled once per grid shift (base, plus and minus the
    difference step), from per-species 1-D coordinate views that broadcast.
    """
    if spec.kind != "separable":
        raise ValueError("slice profiles require a separable kernel")
    others = [i for i in range(spec.n_species) if i != slice_species]
    axis = hermite_axis(_SLICE_QUAD_NODES)
    span = _SLICE_GRID_MARGIN * spec.lam
    a_grid = np.linspace(-span, span, n_grid)
    delta = 1e-4 * spec.lam

    def factor(a_values: np.ndarray) -> np.ndarray:
        # slice coordinate on axis 0, the nodes of others[pos] on axis 1 + pos
        coords = [None] * spec.n_species
        coords[slice_species] = a_values.reshape((-1,) + (1,) * len(others))
        for pos, i in enumerate(others):
            coords[i] = axis.nodes.reshape((-1,) + (1,) * (len(others) - 1 - pos))
        return spec._coordinate_factor(coords)

    powers = {1 + pos: float(exponents.get(i, 0.0)) for pos, i in enumerate(others)}
    weights = {a: axis.power_matrix(power) for a, power in powers.items() if power != 0.0}
    base = _apply_on_axes(factor(a_grid), weights)
    deriv = _apply_on_axes(
        (factor(a_grid + delta) - factor(a_grid - delta)) / (2.0 * delta), weights
    )
    # quadrature cell weights for the remaining axes (these are L2 norms)
    w_nd = np.ones(())
    for _ in others:
        w_nd = np.multiply.outer(w_nd, axis.weights)
    cell = w_nd.reshape(-1)
    flat = base.reshape(a_grid.shape[0], -1)
    flat_d = deriv.reshape(a_grid.shape[0], -1)
    return SliceProfiles(
        a_grid=a_grid,
        values=np.sqrt(np.abs(flat) ** 2 @ cell),
        grad_values=np.sqrt(np.abs(flat_d) ** 2 @ cell),
    )


# ---------------------------------------------------------------------------
# Infrared diagnostics
# ---------------------------------------------------------------------------


def power_counting_verdict(nu: float, r: float) -> str:
    """Oracle for slice norms |k|^nu: radial exponent nu*r - 2r + 2 vs -1."""
    exponent = nu * r - 2.0 * r + 2.0
    return "finite" if exponent > -1.0 else "divergent"


@dataclass(frozen=True)
class InfraredReport:
    r: float
    slice_species: int
    levels: tuple[float, ...]
    gradient_levels: tuple[float, ...]
    verdict: str
    gradient_verdict: str
    decay_ratio: float
    gradient_decay_ratio: float

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "slice_species": self.slice_species,
            "levels": list(self.levels),
            "gradient_levels": list(self.gradient_levels),
            "verdict": self.verdict,
            "gradient_verdict": self.gradient_verdict,
            "decay_ratio": self.decay_ratio,
            "gradient_decay_ratio": self.gradient_decay_ratio,
        }


_DECAY_THRESHOLD = 0.9
# decades of inner cutoff, Gauss-Legendre nodes per decade, and polar nodes of
# the angular rule (the azimuth gets twice as many)
_IR_LEVELS = 3
_IR_NODES_PER_DECADE = 32
_IR_ANGULAR = 24


def _radial_integral_decades(
    integrand: Callable[[np.ndarray], np.ndarray], lam: float
) -> tuple[float, ...]:
    """Cumulative integrals int_(a_l)^(lam) with a_l = lam * 10^-(l+1).

    Each decade is integrated by Gauss-Legendre in log rho, so pure powers are
    captured accurately however singular they are at the origin.
    """
    x, w = leggauss(_IR_NODES_PER_DECADE)
    totals = []
    running = 0.0
    for level in range(_IR_LEVELS):
        hi = lam * 10.0 ** (-level)
        lo = lam * 10.0 ** (-(level + 1))
        mid = 0.5 * (math.log(hi) + math.log(lo))
        half = 0.5 * (math.log(hi) - math.log(lo))
        rho = np.exp(mid + half * x)
        running += float(np.sum(w * half * rho * integrand(rho)))
        totals.append(running)
    return tuple(totals)


def _verdict_from_levels(levels: tuple[float, ...]) -> tuple[str, float]:
    arr = np.asarray(levels)
    increments = np.diff(arr)
    if increments.size == 0:
        return "finite", 0.0
    tail = float(increments[-1])
    prev = float(increments[-2]) if increments.size >= 2 else tail
    if tail <= 1e-12 * max(float(arr[-1]), 1e-300) or prev <= 0:
        return "finite", 0.0
    ratio = tail / prev
    return ("finite" if ratio < _DECAY_THRESHOLD else "divergent"), ratio


def infrared_report(
    spec: KernelSpec,
    slice_species: int,
    r: float,
    exponents: dict[int, float] | None = None,
) -> InfraredReport:
    """Shrinking-cutoff integrals of the ground-state infrared conditions.

    The integrand is |k|^(-2r) ||S G(.., k, ..)||^r (gradient variant
    |k|^(-r) ||S grad G||^r) integrated over the ball of radius lam, with the
    inner cutoff shrinking one decade per level. Verdict "finite" when the
    level increments decay geometrically.
    """
    if not (1.0 <= r < 2.0):
        raise ValueError("r must lie in [1, 2)")
    lam = spec.lam

    if spec.kind == "separable":
        profiles = separable_slice_profiles(spec, slice_species, exponents or {})
        cos_nodes, cos_w = leggauss(_IR_ANGULAR)
        phi = np.linspace(0.0, 2.0 * math.pi, 2 * _IR_ANGULAR, endpoint=False)
        phi_w = 2.0 * math.pi / phi.shape[0]
        sin_nodes = np.sqrt(1.0 - cos_nodes**2)
        dirs = np.stack(
            [
                np.outer(sin_nodes, np.cos(phi)).ravel(),
                np.outer(sin_nodes, np.sin(phi)).ravel(),
                np.repeat(cos_nodes, phi.shape[0]),
            ],
            axis=1,
        )
        dir_w = np.repeat(cos_w, phi.shape[0]) * phi_w

        def angular_average(norm_at, power: float):
            """rho -> rho^(2 - power) times the sphere integral of norm_at^r."""

            def integrand(rho: np.ndarray) -> np.ndarray:
                out = np.array([np.sum(dir_w * norm_at(r_val * dirs) ** r) for r_val in rho])
                return out * rho**2 * rho ** (-power)

            return integrand

        radial = angular_average(profiles.norm_at, 2.0 * r)
        radial_grad = angular_average(profiles.grad_norm_at, r)

    elif spec.kind == "power":
        prof = RadialProfile(spec.nus[slice_species], spec.lam)
        # other species' factors only contribute a constant; scale-free verdicts
        # do not depend on it, so use 1.

        def radial(rho: np.ndarray) -> np.ndarray:
            return 4.0 * math.pi * rho**2 * rho ** (-2.0 * r) * prof(rho) ** r

        def radial_grad(rho: np.ndarray) -> np.ndarray:
            h = 1e-6 * lam
            dprof = np.abs(prof(rho + h) - prof(rho - h)) / (2 * h)
            return 4.0 * math.pi * rho**2 * rho ** (-r) * dprof**r

    else:
        raise ValueError(f"kind {spec.kind!r} has no infrared profile")

    levels = _radial_integral_decades(radial, lam)
    grad_levels = _radial_integral_decades(radial_grad, lam)
    verdict, ratio = _verdict_from_levels(levels)
    gverdict, gratio = _verdict_from_levels(grad_levels)
    return InfraredReport(
        r=r,
        slice_species=slice_species,
        levels=levels,
        gradient_levels=grad_levels,
        verdict=verdict,
        gradient_verdict=gverdict,
        decay_ratio=ratio,
        gradient_decay_ratio=gratio,
    )
