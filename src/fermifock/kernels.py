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
  regularizer). A KernelSpec checks and normalizes its own fields, and
  config.build_kernel_spec is the one place that makes one. KernelSpec.amplitude
  is the one evaluation of a kernel: it takes one momentum array per species
  and broadcasts, so a kernel tensor or a slice-profile grid is a single call
  on per-species coordinate views.

* Infrared diagnostics. Radial integrals of |k|^(-2r) ||S G slice||^r (and the
  gradient variant) over shrinking inner cutoffs, with a geometric-decay
  verdict and a pure power-counting oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
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
_BASIS_TOL = 1e-9  # relative residual below which a candidate counts as dependent


def _graded_levels(l_cap: int) -> list[tuple[int, int, int]]:
    levels = [
        (l1, l2, l3)
        for l1 in range(l_cap + 1)
        for l2 in range(l_cap + 1)
        for l3 in range(l_cap + 1)
    ]
    levels.sort(key=lambda t: ((2 * t[0] + 1) * (2 * t[1] + 1) * (2 * t[2] + 1), t))
    return levels


def species_regularity_basis(table: ModeTable, species: int) -> RegularityBasis:
    """Gram-Schmidt oscillator basis for one species' modes.

    Candidates e_l1 e_l2 e_l3 are taken in graded level order (by the product
    (2l1+1)(2l2+1)(2l3+1), ties lexicographic), sampled on the species'
    points, multiplied by sqrt(point weight) and orthonormalized; candidates
    that are numerically dependent on earlier ones are skipped. Spin labels
    produce degenerate copies. Results are cached by the species' geometry.
    """
    cfg = table.species[species]
    key = (cfg.points.tobytes(), cfg.weights.tobytes(), cfg.spins)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit

    points = cfg.points
    sqw = np.sqrt(cfg.weights)
    n_pts = cfg.n_points
    accepted: list[np.ndarray] = []
    accepted_levels: list[float] = []
    # a point where every candidate up to the last level cap is below the floor: refuse now
    peaks = np.prod([abs(hermite_functions(48, x)).max(axis=0) for x in points.T], axis=0)
    l_cap = 3
    while len(accepted) < n_pts:
        if l_cap > 48 or np.any(sqw * peaks < 1e-300):
            raise ValueError(f"species {species}: point set not separated by the oscillator basis")
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
            if resid <= _BASIS_TOL * norm0:
                continue
            accepted.append(vec / resid)
            accepted_levels.append(
                float((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1))
            )
            if len(accepted) == n_pts:
                break
        l_cap += 3

    # a copy per spin label (mode = point * n_spins + spin); + 0.0 clears kron's -0.0
    spins = np.eye(len(cfg.spins))
    basis = RegularityBasis(vectors=np.kron(np.stack(accepted, axis=1), spins) + 0.0,
                            levels=np.repeat(np.array(accepted_levels), len(cfg.spins)))
    _BASIS_CACHE[key] = basis
    return basis


def _apply_on_axes(
    values: np.ndarray, matrices: dict[int, np.ndarray], moved: np.ndarray, product: np.ndarray
) -> np.ndarray:
    """Apply each matrix to values along its axis (as mat @ v on that axis), through
    np.copyto into the buffer moved and np.dot into product on C-ordered 2-D views;
    both hold values.size entries of the result's dtype or more."""
    for axis, mat in matrices.items():
        front = np.moveaxis(values, axis, 0)
        operand, result = (b.ravel()[: front.size].reshape(front.shape) for b in (moved, product))
        np.copyto(operand, front)
        np.dot(mat, operand.reshape(len(mat), -1), out=result.reshape(len(mat), -1))
        values = np.moveaxis(result, 0, axis)
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
    }, *(np.empty(values.size, values.dtype) for _ in range(2)))


# ---------------------------------------------------------------------------
# Reference constants and exponent bookkeeping
# ---------------------------------------------------------------------------


_LATTICE_HEAD = 12  # odd levels summed one by one before the Euler–Maclaurin tail
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,  # B_2k / (2k)!
                    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def level_lattice_sum(s: float) -> float:
    """sum over l >= 0 of (2l+1)^(-2s), finite for s > 1/2.

    Euler–Maclaurin (DLMF 2.10.1) with x = 2s, a = 2 _LATTICE_HEAD + 1: the head
    terms, the tail integral a^(1-x) / (2(x-1)), the half term a^(-x) / 2 and
    B_2k/(2k)! 2^(2k-1) x(x+1)...(x+2k-2) a^(-x-2k+1) for k = 1..8, by fsum.
    Against (1 - 2^(-2s)) scipy.special.zeta(2s) on 3,600 s in (0.5 + 1e-8, 80]
    it is at most 7 ulps off and bit-equal on 85% of them and at s = 0.75.
    """
    if s <= 0.5:
        return math.inf
    x, a = 2.0 * min(s, 1e6), 2.0 * _LATTICE_HEAD + 1.0  # from s = 1e6 on the sum is 1.0 exactly
    terms = [(2.0 * l + 1.0) ** -x for l in range(_LATTICE_HEAD)]
    terms += [a ** (1.0 - x) / (2.0 * (x - 1.0)), a ** -x / 2.0]
    rising = x * a ** (-x - 1.0)  # x(x+1)...(x+2k-2) a^(-x-2k+1) at k = 1
    for k, coefficient in enumerate(_EULER_MACLAURIN, 1):
        terms.append(coefficient * 2.0 ** (2 * k - 1) * rising)
        rising = rising * (x + 2 * k - 1) / a * (x + 2 * k) / a  # no overflow at large s
    return math.fsum(terms)


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
            raise ValueError(f"species {i}: species.points holds k = 0 at mass 0: singular weight")
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


_PLATEAU_EDGE = 0.8


def plateau_cutoff(rho: np.ndarray, lam: float) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0, _PLATEAU_EDGE*lam], 0 beyond lam."""
    rho = np.asarray(rho, dtype=float)
    return 1.0 - _smooth_step((rho - _PLATEAU_EDGE * lam) / ((1.0 - _PLATEAU_EDGE) * lam))


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

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "gaussian", "power", "separable"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        # frozen: the normalized fields are set through object.__setattr__
        object.__setattr__(self, "nus", tuple(float(v) for v in self.nus))
        object.__setattr__(self, "conservation_sigma", float(self.conservation_sigma))
        object.__setattr__(
            self, "conservation_signs", tuple(int(s) for s in self.conservation_signs)
        )
        if self.kind in ("power", "separable") and len(self.nus) != self.n_species:
            raise ValueError(
                f"{self.kind} kernel needs one nus entry per species ({self.n_species}), "
                f"got {len(self.nus)}"
            )
        if self.kind == "separable" and len(self.conservation_signs) != self.n_species:
            raise ValueError("need one conservation sign per species")

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
        value = self.constant  # separable
        shape = np.broadcast_shapes(*(k.shape[:-1] for k in ks))
        out, scratch = np.empty(shape), np.empty(shape)
        for j in range(3):
            value = value * self._coordinate_factor([k[..., j] for k in ks], out, scratch)
        return value

    def _coordinate_factor(
        self, coords: Sequence[np.ndarray], out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """The separable coordinate factor u, in out; coords[i] holds species i's
        values of one coordinate, broadcasting to out's shape. Intermediates of
        that shape are formed in place in out and scratch, smaller ones apart."""

        def into(ufunc, a, b, buffer):
            full = np.broadcast_shapes(np.shape(a), np.shape(b)) == buffer.shape
            return ufunc(a, b, out=buffer if full else None)

        value = np.ones(())
        for nu, c in zip(self.nus, coords):
            value = into(np.multiply, value, RadialProfile(nu / 3.0, self.lam)(c), out)
        if self.conservation_sigma > 0:
            total = 0  # then -(total**2) / (4 sigma^2), in place
            for s, c in zip(self.conservation_signs, coords):
                total = into(np.add, total, s * c, scratch)
            np.square(total, out=total)
            np.negative(total, out=total)
            np.divide(total, 4.0 * self.conservation_sigma**2, out=total)
            value = into(np.multiply, value, np.exp(total, out=total), out)
        return value


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
    factorizes as prod_j values(k_j). Both tables are filled in blocks of
    _SLICE_BLOCK_ROWS grid points.
    """

    a_grid: np.ndarray
    values: np.ndarray
    grad_values: np.ndarray

    def norms_at(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slice norm at each momentum k (rows) and the Euclidean norm of its gradient."""
        factors = np.interp(k, self.a_grid, self.values)
        grads = np.interp(k, self.a_grid, self.grad_values).T
        total = np.zeros(k.shape[0])
        for j in range(3):
            term = grads[j]
            for jp in range(3):
                if jp != j:
                    term = term * factors.T[jp]
            total += term**2
        return np.prod(factors, axis=1), np.sqrt(total)


# Gauss-Hermite nodes per remaining species axis, points of the slice grid and
# of one block of it, and its half-width in lam (the cutoff support ends at lam)
_SLICE_QUAD_NODES = 24
_SLICE_GRID_POINTS = 161
_SLICE_BLOCK_ROWS = 4
_SLICE_GRID_MARGIN = 1.05


def separable_slice_profiles(
    spec: KernelSpec,
    slice_species: int,
    exponents: dict[int, float],
) -> SliceProfiles:
    """Tabulate the weighted coordinate slice norms of a separable kernel.

    exponents gives the oscillator power per remaining species (the slice
    species itself and any exempt species should be absent or zero). The grid
    is tabulated in blocks of _SLICE_BLOCK_ROWS points, in five block buffers made
    once, so memory follows one block against the quadrature nodes, not the whole
    grid; each point takes the same operations in the same order as in a one-piece
    table. Per block the coordinate factor is sampled once per grid shift (base,
    plus and minus the difference step), from 1-D coordinate views that broadcast.
    """
    if spec.kind != "separable":
        raise ValueError("slice profiles require a separable kernel")
    others = [i for i in range(spec.n_species) if i != slice_species]
    axis = hermite_axis(_SLICE_QUAD_NODES)
    span = _SLICE_GRID_MARGIN * spec.lam
    a_grid = np.linspace(-span, span, _SLICE_GRID_POINTS)
    delta = 1e-4 * spec.lam
    block_shape = (_SLICE_BLOCK_ROWS,) + axis.nodes.shape * len(others)
    factor_buf, minus_buf, scratch, moved, product = np.empty((5, *block_shape))

    def factor(a_values: np.ndarray, buffer: np.ndarray) -> np.ndarray:
        # slice coordinate on axis 0, the nodes of others[pos] on axis 1 + pos
        coords = [None] * spec.n_species
        coords[slice_species] = a_values.reshape((-1,) + (1,) * len(others))
        for pos, i in enumerate(others):
            coords[i] = axis.nodes.reshape((-1,) + (1,) * (len(others) - 1 - pos))
        return spec._coordinate_factor(coords, buffer[: a_values.size], scratch[: a_values.size])

    def squared_norms(block: np.ndarray) -> np.ndarray:  # |block|^2 @ cell per grid row
        square = np.abs(block, out=scratch[: block.shape[0]])
        return np.square(square, out=square).reshape(block.shape[0], -1) @ cell

    powers = {1 + pos: float(exponents.get(i, 0.0)) for pos, i in enumerate(others)}
    weights = {a: axis.power_matrix(power) for a, power in powers.items() if power != 0.0}
    # quadrature cell weights for the remaining axes (these are L2 norms)
    w_nd = np.ones(())
    for _ in others:
        w_nd = np.multiply.outer(w_nd, axis.weights)
    cell = w_nd.reshape(-1)
    values, grad_values = np.empty((2, a_grid.shape[0]))
    for lo in range(0, a_grid.shape[0], _SLICE_BLOCK_ROWS):
        rows = slice(lo, lo + _SLICE_BLOCK_ROWS)
        a = a_grid[rows]
        values[rows] = squared_norms(_apply_on_axes(factor(a, factor_buf), weights, moved, product))
        deriv = factor(a + delta, factor_buf)
        np.subtract(deriv, factor(a - delta, minus_buf), out=deriv)
        np.divide(deriv, 2.0 * delta, out=deriv)
        grad_values[rows] = squared_norms(_apply_on_axes(deriv, weights, moved, product))
    return SliceProfiles(a_grid=a_grid, values=np.sqrt(values), grad_values=np.sqrt(grad_values))


# ---------------------------------------------------------------------------
# Infrared diagnostics
# ---------------------------------------------------------------------------


def power_counting_verdict(nu: float, r: float) -> str:
    """Oracle for slice norms |k|^nu: radial exponent nu*r - 2r + 2 vs -1."""
    exponent = nu * r - 2.0 * r + 2.0
    return "finite" if exponent > -1.0 else "divergent"


@dataclass(frozen=True)
class InfraredReport:
    """Level integrals and verdicts; profiles is the separable kernel's slice
    table the integrals used (None for a power kernel), kept out of as_dict."""

    r: float
    slice_species: int
    levels: tuple[float, ...]
    gradient_levels: tuple[float, ...]
    verdict: str
    gradient_verdict: str
    decay_ratio: float
    gradient_decay_ratio: float
    profiles: SliceProfiles | None = field(compare=False, repr=False)

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
    integrands: Callable[[np.ndarray], Sequence[np.ndarray]], lam: float
) -> tuple[tuple[float, ...], ...]:
    """Cumulative integrals int_(a_l)^(lam), a_l = lam * 10^-(l+1), of each integrands(rho).

    Each decade is integrated by Gauss-Legendre in log rho, so pure powers are
    captured accurately however singular they are at the origin.
    """
    x, w = leggauss(_IR_NODES_PER_DECADE)
    decades = []
    for level in range(_IR_LEVELS):
        hi = lam * 10.0 ** (-level)
        lo = lam * 10.0 ** (-(level + 1))
        mid = 0.5 * (math.log(hi) + math.log(lo))
        half = 0.5 * (math.log(hi) - math.log(lo))
        rho = np.exp(mid + half * x)
        decades.append([float(np.sum(w * half * rho * part)) for part in integrands(rho)])
    return tuple(tuple(accumulate(parts, initial=0.0))[1:] for parts in zip(*decades))


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

        def radial(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """rho^2 times the sphere integrals of norm^r / rho^(2r) and grad_norm^r / rho^r."""
            spheres = np.empty((2, rho.shape[0]))
            for node, r_val in enumerate(rho):
                norm, grad_norm = profiles.norms_at(r_val * dirs)
                spheres[0, node] = np.sum(dir_w * norm**r)
                spheres[1, node] = np.sum(dir_w * grad_norm**r)
            return spheres[0] * rho**2 * rho ** (-2.0 * r), spheres[1] * rho**2 * rho ** (-r)

    elif spec.kind == "power":
        profiles = None
        prof = RadialProfile(spec.nus[slice_species], spec.lam)
        # other species' factors only contribute a constant; scale-free verdicts
        # do not depend on it, so use 1.

        def radial(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            h = 1e-6 * lam
            dprof = np.abs(prof(rho + h) - prof(rho - h)) / (2 * h)
            ball = 4.0 * math.pi * rho**2
            return ball * rho ** (-2.0 * r) * prof(rho) ** r, ball * rho ** (-r) * dprof**r

    else:
        raise ValueError(f"kind {spec.kind!r} has no infrared profile")

    levels, grad_levels = _radial_integral_decades(radial, lam)
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
        profiles=profiles,
    )
