"""Species tables: finite mode sets with momenta, spins, weights and dispersion.

Everything downstream (Fock bases, Hamiltonians, kernel tensors) is built over a
ModeTable. Each species contributes a finite list of momentum points in R^3 with
positive quadrature weights and a tuple of spin labels; a mode is one
(point, spin) pair and continuum integrals over (k, spin) become weighted sums
over modes. Global mode order is species-major, then point index, then spin
index, which fixes the Jordan-Wigner sign convention used in fock.py.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

# Cap on the total number of modes across all species. 2^24 basis
# states is already past what the dense solver path will accept, so this is a
# guard against accidentally huge configurations, not a tuning knob.
MAX_TOTAL_MODES = 24

_COLLINEAR_TOL = 1e-10


def relativistic_energy(mass: float, momenta: np.ndarray) -> np.ndarray:
    """sqrt(|k|^2 + m^2) for an (..., 3) array of momenta."""
    momenta = np.asarray(momenta, dtype=float)
    if momenta.shape[-1] != 3:
        raise ValueError("momenta must have trailing dimension 3")
    return np.sqrt(np.sum(momenta * momenta, axis=-1) + float(mass) ** 2)


@dataclass(frozen=True)
class SpeciesConfig:
    """One fermion species: mass, sampled momentum points, weights, spins.

    Parameters
    ----------
    mass : float
        Rest mass, >= 0. Zero marks the species massless.
    points : (P, 3) float array
        Distinct momentum sample points.
    weights : (P,) float array
        Positive quadrature weights, one per point. Each (point, spin) mode
        inherits the weight of its point.
    spins : tuple of float
        Spin labels. (0.5, -0.5) gives the physical two-component species,
        a single label gives a spinless one.
    chains : tuple of tuple of int
        Optional collinear runs of point indices with uniform spacing, used
        by gradient checks. Validated at table construction.
    """

    mass: float
    points: np.ndarray
    weights: np.ndarray
    spins: tuple[float, ...] = (0.5, -0.5)
    chains: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "spins", tuple(float(s) for s in self.spins))
        object.__setattr__(
            self, "chains", tuple(tuple(int(i) for i in c) for c in self.chains)
        )
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be an (P, 3) array")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must match the number of points")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if len(self.spins) == 0:
            raise ValueError("need at least one spin label")
        if len(set(self.spins)) != len(self.spins):
            raise ValueError("duplicate spin label")
        seen = {tuple(np.round(p, 12)) for p in points}
        if len(seen) != points.shape[0]:
            raise ValueError("duplicate momentum point in species")
        for chain in self.chains:
            _validate_chain(points, chain)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_modes(self) -> int:
        return self.n_points * len(self.spins)

    @property
    def is_massless(self) -> bool:
        return self.mass == 0.0


def _validate_chain(points: np.ndarray, chain: tuple[int, ...]) -> None:
    if len(chain) < 3:
        raise ValueError("chain needs at least 3 points")
    if any(i < 0 or i >= points.shape[0] for i in chain):
        raise ValueError("chain index out of range")
    pts = points[list(chain)]
    steps = np.diff(pts, axis=0)
    step0 = steps[0]
    norm0 = np.linalg.norm(step0)
    if norm0 == 0:
        raise ValueError("chain has repeated points")
    if np.max(np.abs(steps - step0)) > _COLLINEAR_TOL * max(1.0, norm0):
        raise ValueError("chain points must be collinear with uniform spacing")


@dataclass(frozen=True)
class ModeTable:
    """Immutable global mode table over all species.

    Built via build_mode_table. Modes are indexed 0..total_modes-1 in
    species-major order; per-mode arrays (momenta, weights, energies, spins)
    are precomputed for vectorized use.
    """

    species: tuple[SpeciesConfig, ...]
    offsets: tuple[int, ...] = field(init=False)
    total_modes: int = field(init=False)

    def __post_init__(self):
        offsets = []
        total = 0
        for cfg in self.species:
            offsets.append(total)
            total += cfg.n_modes
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "total_modes", total)

    @property
    def n_species(self) -> int:
        return len(self.species)

    def block(self, i: int) -> range:
        """Global mode indices belonging to species i."""
        return range(self.offsets[i], self.offsets[i] + self.species[i].n_modes)

    def locate(self, mode: int) -> tuple[int, int, int]:
        """mode -> (species, point, spin), where mode = offsets[species] +
        point * n_spins + spin."""
        if not (0 <= mode < self.total_modes):
            raise ValueError("mode index out of range")
        i = bisect.bisect_right(self.offsets, mode) - 1
        local, ns = mode - self.offsets[i], len(self.species[i].spins)
        return i, local // ns, local % ns

    def momenta(self, i: int) -> np.ndarray:
        """(n_modes, 3) momentum of every mode of species i, point-major."""
        cfg = self.species[i]
        return np.repeat(cfg.points, len(cfg.spins), axis=0)

    def mode_weights(self, i: int) -> np.ndarray:
        """(n_modes,) quadrature weight of every mode of species i."""
        cfg = self.species[i]
        return np.repeat(cfg.weights, len(cfg.spins))

    def mode_energies(self, i: int) -> np.ndarray:
        """(n_modes,) relativistic energy of every mode of species i."""
        return self.dispersion(i, self.momenta(i))

    def dispersion(self, i: int, momenta: np.ndarray) -> np.ndarray:
        return relativistic_energy(self.species[i].mass, momenta)

    def with_species_mass(self, i: int, mass: float) -> "ModeTable":
        """Copy of the table with species i given a new mass.

        Points, weights, spins and hence mode indexing are unchanged, so Fock
        bases and interaction tensors built for this table stay valid.
        """
        if not (0 <= i < self.n_species):
            raise ValueError("species index out of range")
        new = list(self.species)
        new[i] = replace(new[i], mass=float(mass))
        return ModeTable(tuple(new))

    def chain_spacing(self, i: int, chain: tuple[int, ...]) -> float:
        pts = self.species[i].points[list(chain)]
        return float(np.linalg.norm(pts[1] - pts[0]))


def build_mode_table(species: list[SpeciesConfig] | tuple[SpeciesConfig, ...]) -> ModeTable:
    """Validate species configs and assemble the global ModeTable.

    Raises ValueError when there are no species or the total mode count
    exceeds MAX_TOTAL_MODES.
    """
    species = tuple(species)
    if not species:
        raise ValueError("need at least one species")
    table = ModeTable(species)
    if table.total_modes > MAX_TOTAL_MODES:
        raise ValueError(f"total mode count {table.total_modes} exceeds cap {MAX_TOTAL_MODES}")
    return table


def weighted_norm(table: ModeTable, i: int, values: np.ndarray) -> float:
    """Weighted l2 norm of per-mode coefficients for species i.

    This is the discrete stand-in for the one-particle L2 norm: the norm of
    sum_m sqrt(w_m) f_m b*_m acting on Fock space equals weighted_norm(f).
    """
    values = np.asarray(values)
    w = table.mode_weights(i)
    if values.shape != w.shape:
        raise ValueError("values must have one entry per mode of the species")
    return float(np.sqrt(np.sum(w * np.abs(values) ** 2)))


def uniform_grid_species(
    mass: float,
    extent: float,
    points_per_axis: tuple[int, int, int],
    spins: tuple[float, ...] = (0.5, -0.5),
    axis_offsets: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> SpeciesConfig:
    """Convenience builder: small uniform momentum grid, product weights.

    Grid spans [-extent, extent] per axis (single-point axes sit at the
    offset). Weights are the product trapezoid cell volumes, all equal.
    """
    axes = []
    spacing = []
    for n_ax, off in zip(points_per_axis, axis_offsets):
        if n_ax < 1:
            raise ValueError("points_per_axis entries must be >= 1")
        if n_ax == 1:
            axes.append(np.array([off]))
            spacing.append(2.0 * extent if extent > 0 else 1.0)
        else:
            axes.append(np.linspace(-extent, extent, n_ax) + off)
            spacing.append(axes[-1][1] - axes[-1][0])
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    cell = float(np.prod(spacing))
    weights = np.full(grid.shape[0], cell)
    return SpeciesConfig(mass=mass, points=grid, weights=weights, spins=spins)
