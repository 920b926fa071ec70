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

from .fock import enumerate_basis
from .hamiltonian import (
    HamiltonianBundle,
    ProcessSignature,
    assemble_total,
    sample_kernel_tensor,
)
from .kernels import KernelSpec
from .modes import SpeciesConfig, build_mode_table, uniform_grid_species
from .spectra import DENSE_CAP_DEFAULT

DEFAULTS = {
    "coupling": 1.0,
    "exponents": {
        "margin": 0.05,
        "exempt_species": 0,
        "smoothness": 0.75,
        "theta_grid": [0.25, 0.5, 0.75],
    },
    "solver": {"dense_cap": DENSE_CAP_DEFAULT, "seed": 7, "trials": 1000},
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
    for entry in _typed(raw["kernels"], "kernels", list):
        _typed(entry, "kernels entry", dict)
    cfg = dict(raw)
    cfg.setdefault("coupling", DEFAULTS["coupling"])
    exps = dict(DEFAULTS["exponents"])
    exps.update(cfg.get("exponents", {}))
    cfg["exponents"] = exps
    solver = dict(DEFAULTS["solver"])
    solver.update(cfg.get("solver", {}))
    cfg["solver"] = solver
    cfg.setdefault("truncation", None)
    # a value of the wrong JSON type is refused by its key, before any use
    _typed(cfg["coupling"], "coupling", float)
    for section in ("exponents", "solver"):
        for key, default in DEFAULTS[section].items():
            _typed(cfg[section][key], f"{section}.{key}", type(default))
    if cfg["truncation"] is not None:
        _typed(cfg["truncation"], "truncation", list)
    n_species = len(cfg["species"])
    _species_index(exps["exempt_species"], "exponents.exempt_species", n_species)
    if "infrared" in cfg:
        slice_species = _required(cfg["infrared"], "slice_species", "infrared section")
        _species_index(slice_species, "infrared.slice_species", n_species)
        _typed(cfg["infrared"].get("r", 1.9), "infrared.r", float)
    # log-convexity is claimed only at interior theta
    thetas = exps["theta_grid"]
    if any(not 0 < float(t) < 1 for t in thetas):
        raise ValueError(f"exponents.theta_grid entries must lie in (0, 1), got {thetas}")
    if int(solver["trials"]) < 1:
        raise ValueError(f"solver.trials must be at least 1, got {solver['trials']}")
    return cfg


def config_digest(cfg: dict) -> str:
    """Stable digest of the normalized config for manifests."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _integer(value: Any, key: str) -> int:
    """value when it is a JSON integer; a fraction, a bool (an int subclass in
    Python) or a string is a config error that names the key."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _species_index(value: Any, key: str, n_species: int) -> int:
    if not 0 <= _integer(value, key) < n_species:
        raise ValueError(f"{key} must be an integer in [0, {n_species}), got {value!r}")
    return int(value)


def _typed(value: Any, key: str, kind: type) -> Any:
    """value when it has kind's JSON type (list: an array, dict: an object, int:
    an integer, float: a finite number, not a bool); else a config error naming
    the key. A fraction where an integer belongs is refused, not truncated."""
    if kind is int:
        return _integer(value, key)
    if kind in (list, dict):
        ok = isinstance(value, (list, tuple) if kind is list else dict)
    else:
        ok = isinstance(value, (int, float, np.number)) and not isinstance(value, bool)
        # json.load reads NaN and Infinity; an integer is always finite
        ok = ok and (isinstance(value, (int, np.integer)) or bool(np.isfinite(value)))
    if not ok:
        what = {list: "list", dict: "JSON object"}.get(kind, "finite number")
        raise ValueError(f"{key} must be a {what}, got {value!r}")
    return value


def _numbers(values: Any, key: str) -> list[float]:
    """values, a list of finite numbers, as floats; else a config error naming key."""
    return [float(_typed(v, key, float)) for v in _typed(values, key, list)]


def _required(entry: dict, key: str, what: str, kind: type | None = None) -> Any:
    """entry[key]; a missing key, or one whose value is not of kind, is a
    config error that names it."""
    if key not in entry:
        raise ValueError(f"{what} is missing required key {key!r}")
    return entry[key] if kind is None else _typed(entry[key], f"{what} key {key!r}", kind)


def build_species(entry: dict) -> SpeciesConfig:
    mass = float(_required(entry, "mass", "species entry", float))
    spins = tuple(_numbers(entry.get("spins", [0.5, -0.5]), "species entry key 'spins'"))
    chains = tuple(
        tuple(_integer(i, "species entry key 'chains'") for i in c)
        for c in entry.get("chains", [])
    )
    if "grid" in entry:
        grid = entry["grid"]
        offsets = _numbers(grid.get("offsets", [0.0] * 3), "species grid key 'offsets'")
        cfg = uniform_grid_species(
            mass=mass,
            extent=float(_required(grid, "extent", "species grid", float)),
            points_per_axis=tuple(
                _integer(n, "species grid key 'shape'")
                for n in _required(grid, "shape", "species grid")
            ),
            spins=spins,
            axis_offsets=tuple(offsets),
        )
        return replace(cfg, chains=chains) if chains else cfg
    rows = _required(entry, "points", "species entry", list)
    points = np.asarray([_numbers(p, "species entry key 'points'") for p in rows], dtype=float)
    weights = entry.get("weights")
    if weights is None:
        weights = [1.0] * len(rows)
    return SpeciesConfig(
        mass=mass,
        points=points,
        weights=np.asarray(_numbers(weights, "species entry key 'weights'")),
        spins=spins,
        chains=chains,
    )


def build_kernel_spec(entry: dict, n_species: int) -> tuple[ProcessSignature, KernelSpec]:
    created = tuple(_integer(i, "kernel entry key 'created'") for i in entry.get("created", ()))
    annihilated = tuple(
        _integer(i, "kernel entry key 'annihilated'") for i in entry.get(
            "annihilated", [i for i in range(n_species) if i not in created]
        )
    )
    signature = ProcessSignature(n_species, created, annihilated)
    kind = _required(entry, "kind", "kernel entry")
    what = f"{kind} kernel"
    fields = {}
    if kind == "gaussian":
        fields["alpha"] = float(_required(entry, "alpha", what, float))
    if kind in ("power", "separable"):
        fields["nus"] = _numbers(_required(entry, "nus", what), f"{what} key 'nus'")
        fields["lam"] = float(_required(entry, "lam", what, float))
    if kind == "separable":
        sigma = entry.get("conservation_sigma", 0.0)
        fields["conservation_sigma"] = _typed(sigma, f"{what} key 'conservation_sigma'", float)
        fields["conservation_signs"] = [
            _integer(sign, f"{what} key 'conservation_signs'") for sign in entry.get(
                "conservation_signs", [1 if i in created else -1 for i in range(n_species)]
            )
        ]
    value = complex(_typed(entry.get("value", 1.0), f"{what} key 'value'", float))
    spec = KernelSpec(n_species, kind, value, **fields)
    return signature, spec


def build_bundle(cfg: dict) -> HamiltonianBundle:
    table = build_mode_table([build_species(e) for e in cfg["species"]])
    basis = enumerate_basis(table, cfg.get("truncation"))
    tensors = []
    for entry in cfg["kernels"]:
        signature, spec = build_kernel_spec(entry, table.n_species)
        tensors.append(sample_kernel_tensor(table, signature, spec.amplitude))
    return assemble_total(table, basis, tensors, float(cfg["coupling"]))


def _one_mass_grid(grid: dict, n_species: int) -> tuple[int, list[float]]:
    species = _species_index(
        _required(grid, "species", "mass_grid entry"), "mass_grid.species", n_species
    )
    if "values" in grid:
        values = _numbers(grid["values"], "mass_grid.values")
    else:
        start, stop, count = (
            float(_required(grid, "start", "mass_grid entry", float)),
            float(_required(grid, "stop", "mass_grid entry", float)),
            _integer(_required(grid, "count", "mass_grid entry"), "mass_grid.count"),
        )
        if start <= stop or stop <= 0:
            raise ValueError("mass_grid must decrease toward a positive stop")
        values = list(np.geomspace(start, stop, max(count, 0)))
    if len(values) < 2:
        key = "mass_grid.values" if "values" in grid else "mass_grid.count"
        raise ValueError(f"{key} gives {len(values)} masses; a mass sweep needs at least two")
    if any(np.diff(values) >= 0):
        raise ValueError("mass grid must be strictly decreasing")
    return species, values


def mass_grid_entries(cfg: dict) -> list[tuple[int, list[float]]]:
    """Ordered (species, masses) pairs; a later sweep starts after the
    earlier species have been driven to zero mass."""
    grid = cfg.get("mass_grid")
    if grid is None:
        raise ValueError("config has no mass_grid section")
    entries = grid if isinstance(grid, list) else [grid]
    pairs = [_one_mass_grid(g, len(cfg["species"])) for g in entries]
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
