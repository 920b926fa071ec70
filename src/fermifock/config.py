"""JSON run configurations: validation and construction of model objects.

A config names the species (explicit points/weights or a small uniform grid),
the interaction kernels with their process signatures, the coupling, and the
knobs used by the verification suites. Loading is strict: unknown kernel kinds
or malformed species raise immediately, so a bad config never produces a
half-built run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any

import numpy as np

from .fock import FockBasis, enumerate_basis
from .hamiltonian import (
    HamiltonianBundle,
    KernelTensor,
    ProcessSignature,
    assemble_total,
    sample_kernel_tensor,
)
from .kernels import (
    KernelSpec,
    constant_kernel,
    gaussian_kernel,
    power_kernel,
    separable_kernel,
)
from .modes import ModeTable, SpeciesConfig, build_mode_table, uniform_grid_species

DEFAULTS = {
    "coupling": 1.0,
    "exponents": {
        "margin": 0.05,
        "exempt_species": 0,
        "smoothness": 0.75,
        "theta_grid": [0.25, 0.5, 0.75],
    },
    "solver": {"dense_cap": 2048, "seed": 7, "trials": 1000},
}


def load_config(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    if "species" not in raw or not raw["species"]:
        raise ValueError("config must declare at least one species")
    if "kernels" not in raw:
        raise ValueError("config must declare a kernels list (may be empty)")
    cfg = dict(raw)
    cfg.setdefault("coupling", DEFAULTS["coupling"])
    exps = dict(DEFAULTS["exponents"])
    exps.update(cfg.get("exponents", {}))
    cfg["exponents"] = exps
    solver = dict(DEFAULTS["solver"])
    solver.update(cfg.get("solver", {}))
    cfg["solver"] = solver
    cfg.setdefault("truncation", None)
    return cfg


def config_digest(cfg: dict) -> str:
    """Stable digest of the normalized config for manifests."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_species(entry: dict) -> SpeciesConfig:
    mass = float(entry["mass"])
    spins = tuple(float(s) for s in entry.get("spins", [0.5, -0.5]))
    chains = tuple(tuple(int(i) for i in c) for c in entry.get("chains", []))
    if "grid" in entry:
        grid = entry["grid"]
        cfg = uniform_grid_species(
            mass=mass,
            extent=float(grid["extent"]),
            points_per_axis=tuple(int(n) for n in grid["shape"]),
            spins=spins,
            axis_offsets=tuple(float(v) for v in grid.get("offsets", (0.0, 0.0, 0.0))),
        )
        return replace(cfg, chains=chains) if chains else cfg
    points = np.asarray(entry["points"], dtype=float)
    weights = entry.get("weights")
    if weights is None:
        weights = np.ones(points.shape[0])
    return SpeciesConfig(
        mass=mass,
        points=points,
        weights=np.asarray(weights, dtype=float),
        spins=spins,
        chains=chains,
    )


def build_table(cfg: dict) -> ModeTable:
    return build_mode_table([build_species(e) for e in cfg["species"]])


def build_kernel_spec(entry: dict, n_species: int) -> tuple[ProcessSignature, KernelSpec]:
    created = tuple(int(i) for i in entry.get("created", ()))
    annihilated = tuple(
        int(i) for i in entry.get(
            "annihilated", [i for i in range(n_species) if i not in created]
        )
    )
    signature = ProcessSignature(n_species, created, annihilated)
    kind = entry["kind"]
    value = complex(entry.get("value", 1.0))
    if kind in ("power", "separable"):
        nus = [float(v) for v in entry["nus"]]
        if len(nus) != n_species:
            raise ValueError(
                f"{kind} kernel needs one nus entry per species ({n_species}), got {len(nus)}"
            )
    if kind == "constant":
        spec = constant_kernel(n_species, value)
    elif kind == "gaussian":
        spec = gaussian_kernel(n_species, float(entry["alpha"]), value)
    elif kind == "power":
        spec = power_kernel(nus, float(entry["lam"]), value)
    elif kind == "separable":
        signs = entry.get(
            "conservation_signs",
            [1 if i in created else -1 for i in range(n_species)],
        )
        spec = separable_kernel(
            nus=nus,
            lam=float(entry["lam"]),
            conservation_sigma=float(entry.get("conservation_sigma", 0.0)),
            conservation_signs=signs,
            value=value,
        )
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return signature, spec


def build_tensors(cfg: dict, table: ModeTable) -> list[KernelTensor]:
    tensors = []
    for entry in cfg["kernels"]:
        signature, spec = build_kernel_spec(entry, table.n_species)
        tensors.append(sample_kernel_tensor(table, signature, spec.amplitude))
    return tensors


def build_basis(cfg: dict, table: ModeTable) -> FockBasis:
    return enumerate_basis(table, cfg.get("truncation"))


def build_bundle(cfg: dict) -> HamiltonianBundle:
    table = build_table(cfg)
    basis = build_basis(cfg, table)
    tensors = build_tensors(cfg, table)
    return assemble_total(table, basis, tensors, float(cfg["coupling"]))


def _one_mass_grid(grid: dict) -> tuple[int, list[float]]:
    species = int(grid["species"])
    if "values" in grid:
        values = [float(v) for v in grid["values"]]
    else:
        start, stop, count = (
            float(grid["start"]),
            float(grid["stop"]),
            int(grid["count"]),
        )
        if start <= stop or stop <= 0:
            raise ValueError("mass_grid must decrease toward a positive stop")
        values = list(np.geomspace(start, stop, count))
    if not values or any(np.diff(values) >= 0):
        raise ValueError("mass grid must be strictly decreasing")
    return species, values


def mass_grid_entries(cfg: dict) -> list[tuple[int, list[float]]]:
    """Ordered (species, masses) pairs; a later sweep starts after the
    earlier species have been driven to zero mass."""
    grid = cfg.get("mass_grid")
    if grid is None:
        raise ValueError("config has no mass_grid section")
    entries = grid if isinstance(grid, list) else [grid]
    pairs = [_one_mass_grid(g) for g in entries]
    if len({s for s, _ in pairs}) != len(pairs):
        raise ValueError("mass_grid targets a species twice")
    return pairs


def to_jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj
