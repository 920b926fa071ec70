"""Mode table construction, indexing, dispersion and weighted norms."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fermifock.modes import (
    ModeTable,
    SpeciesConfig,
    build_mode_table,
    relativistic_energy,
    uniform_grid_species,
    weighted_norm,
)

IDENTITY_TOL = 1e-12
N_POINTS = 5


def small_table(masses=(1.0, 0.0), seed_=11):
    rng = np.random.default_rng(seed_)
    species = []
    for j, m in enumerate(masses):
        pts = rng.uniform(-1.0, 1.0, size=(3 + j, 3))
        w = rng.uniform(0.3, 1.5, size=3 + j)
        spins = (0.5, -0.5) if j == 0 else (0.5,)
        species.append(SpeciesConfig(mass=m, points=pts, weights=w, spins=spins))
    return build_mode_table(species)


def test_relativistic_energy_values():
    k = np.array([[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(relativistic_energy(0.0, k), [5.0, 0.0])
    np.testing.assert_allclose(relativistic_energy(12.0, k), [13.0, 12.0])


def test_dispersion_dominates_mass_and_momentum():
    table = small_table(masses=(0.7, 0.0))
    for i in range(table.n_species):
        k = table.momenta(i)
        e = table.dispersion(i, k)
        assert np.all(e >= table.species[i].mass - IDENTITY_TOL)
        assert np.all(e >= np.linalg.norm(k, axis=-1) - IDENTITY_TOL)


def test_locate_follows_the_species_major_layout():
    table = small_table()
    located = [table.locate(mode) for mode in range(table.total_modes)]
    layout = [
        (i, point, spin)
        for i, cfg in enumerate(table.species)
        for point in range(cfg.n_points)
        for spin in range(len(cfg.spins))
    ]
    assert located == layout
    for mode, (i, point, spin) in enumerate(located):
        assert mode == table.offsets[i] + point * len(table.species[i].spins) + spin


def test_block_layout_is_species_major():
    table = small_table()
    covered = []
    for i in range(table.n_species):
        covered.extend(table.block(i))
    assert covered == list(range(table.total_modes))


def test_species_validation_errors():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="mass"):
        SpeciesConfig(mass=-1.0, points=pts, weights=np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        SpeciesConfig(mass=1.0, points=pts, weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="duplicate momentum"):
        SpeciesConfig(mass=1.0, points=np.zeros((2, 3)), weights=np.ones(2))
    with pytest.raises(ValueError, match="spin"):
        SpeciesConfig(mass=1.0, points=pts, weights=np.ones(2), spins=(0.5, 0.5))


def test_chain_validation():
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0], [0.5, 0.7, 0.0]])
    w = np.ones(4)
    cfg = SpeciesConfig(mass=1.0, points=pts, weights=w, chains=((0, 1, 2),))
    table = build_mode_table([cfg])
    assert table.chain_spacing(0, (0, 1, 2)) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="collinear"):
        SpeciesConfig(mass=1.0, points=pts, weights=w, chains=((0, 1, 3),))
    with pytest.raises(ValueError, match="at least 3"):
        SpeciesConfig(mass=1.0, points=pts, weights=w, chains=((0, 1),))


def test_mode_cap_enforced():
    cfg = uniform_grid_species(1.0, 1.0, (3, 3, 3), spins=(0.5,))
    with pytest.raises(ValueError, match="cap"):
        build_mode_table([cfg, cfg])


def test_uniform_grid_species_weights():
    cfg = uniform_grid_species(0.5, 1.0, (3, 1, 2), spins=(0.5,))
    assert cfg.n_points == 6
    # spacing 1.0 along x, 2.0 for the collapsed y axis, 2.0 along z
    np.testing.assert_allclose(cfg.weights, 4.0)


def test_with_species_mass_keeps_layout():
    table = small_table(masses=(1.0, 0.5))
    other = table.with_species_mass(1, 0.0)
    assert other.offsets == table.offsets
    assert other.species[1].is_massless
    np.testing.assert_array_equal(other.momenta(1), table.momenta(1))
    assert table.species[1].mass == 0.5


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(
    values=arrays(
        np.float64,
        (2, N_POINTS),
        elements=st.floats(min_value=-10.0, max_value=10.0),
    ),
    scale=st.floats(min_value=-5.0, max_value=5.0),
)
def test_weighted_norm_is_a_norm(values, scale):
    """Absolute homogeneity and the parallelogram identity on random pairs."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(N_POINTS, 3))
    w = rng.uniform(0.2, 2.0, size=N_POINTS)
    table = build_mode_table(
        [SpeciesConfig(mass=0.3, points=pts, weights=w, spins=(0.5,))]
    )
    f, g = values
    assert weighted_norm(table, 0, scale * f) == pytest.approx(
        abs(scale) * weighted_norm(table, 0, f), abs=IDENTITY_TOL
    )
    lhs = weighted_norm(table, 0, f + g) ** 2 + weighted_norm(table, 0, f - g) ** 2
    rhs = 2.0 * (weighted_norm(table, 0, f) ** 2 + weighted_norm(table, 0, g) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=IDENTITY_TOL)
