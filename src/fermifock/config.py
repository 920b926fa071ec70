"""JSON run configurations: one schema, validation and construction of model objects.

A config names the species (explicit points/weights or a small uniform grid),
the interaction kernels with their process signatures, the coupling, and the
knobs used by the verification suites. `_KEYS` gives every key's JSON type,
default and range. Loading reads every section and entry against it and builds
the species and kernels once, so a bad config is refused with one line naming
its key before any model work, and never produces a half-built run.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from typing import Any

import numpy as np

from .fock import enumerate_basis
from .hamiltonian import HamiltonianBundle, ProcessSignature, assemble_total, sample_kernel_tensor
from .kernels import KernelSpec
from .modes import SpeciesConfig, build_mode_table, uniform_grid_species
from .spectra import DENSE_CAP_DEFAULT

_REQUIRED = "required"
_SPECIES = "[0, n_species)"
# the keys a kernel kind needs besides the kernel entry's required ones
_KINDS = {"constant": (), "gaussian": ("alpha",), "power": ("nus", "lam"),
          "separable": ("nus", "lam")}

# Every config key by its path: (JSON type, default, range). A path's prefix is
# its section; the top level has none, and "species", "kernels" and "mass_grid"
# hold the keys of each of their entries. "[n]t" is a list of n entries of
# type t ("[]t" any number, "[n:]t" n or more). A range "[a, b)" bounds a
# number, or each number of a list, with n_species the config's species count;
# a tuple lists the admitted strings. A default None leaves the key
# absent (null admitted) for its builder to derive or to require.
_KEYS = {
    "species": ("[1:]object", _REQUIRED),
    "kernels": ("[]object", _REQUIRED),
    "coupling": ("number", 1.0),
    "truncation": ("[]integer", None, "[1, inf)"),  # one cap per species; 0 removes H_int
    "exponents": ("object", {}),
    "solver": ("object", {}),
    "exponents.margin": ("number", 0.05, "(0, 1)"),
    "exponents.exempt_species": ("integer", 0, _SPECIES),
    "exponents.smoothness": ("number", 0.75, "(0.5, inf)"),
    "exponents.theta_grid": ("[]number", [0.25, 0.5, 0.75], "(0, 1)"),  # log-convexity: interior
    "solver.dense_cap": ("integer", DENSE_CAP_DEFAULT, "[1, inf)"),
    "solver.seed": ("integer", 7, "[0, inf)"),
    "solver.trials": ("integer", 1000, "[1, inf)"),
    "infrared.slice_species": ("integer", _REQUIRED, _SPECIES),
    "infrared.r": ("number", 1.9, "[1, 2)"),
    "infrared.expect": ("string", None, ("finite", "divergent")),
    "output.export_operators": ("boolean", False),
    "species.mass": ("number", _REQUIRED, "[0, inf)"),
    "species.points": ("[1:][3]number", None),  # required without a grid
    "species.weights": ("[]number", None, "(0, inf)"),  # None: 1 per point
    "species.spins": ("[1:]number", [0.5, -0.5]),
    "species.chains": ("[][3:]integer", []),
    "species.grid": ("object", None),
    "species.grid.extent": ("number", _REQUIRED),
    "species.grid.shape": ("[3]integer", _REQUIRED, "[1, inf)"),
    "species.grid.offsets": ("[3]number", [0.0, 0.0, 0.0]),
    "kernels.kind": ("string", _REQUIRED, tuple(_KINDS)),
    "kernels.created": ("[]integer", [], _SPECIES),
    "kernels.annihilated": ("[]integer", None, _SPECIES),  # None: the species not created
    "kernels.value": ("number", 1.0),
    "kernels.alpha": ("number", None),
    "kernels.nus": ("[]number", None),
    "kernels.lam": ("number", None),
    "kernels.conservation_sigma": ("number", 0.0),
    "kernels.conservation_signs": ("[]integer", None),  # None: +1 created, -1 annihilated
    "mass_grid.species": ("integer", _REQUIRED, _SPECIES),
    "mass_grid.values": ("[]number", None, "[0, inf)"),  # else start, stop and count
    "mass_grid.start": ("number", None),
    "mass_grid.stop": ("number", None),
    "mass_grid.count": ("integer", None),
}

_TYPES = {  # JSON type: (what a value must be, test, Python type)
    "number": ("a finite number", lambda v: isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max, float),
    "integer": ("an integer", lambda v: isinstance(v, (int, np.integer))
                and not isinstance(v, bool), int),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "boolean": ("true or false", lambda v: isinstance(v, bool), bool),
    "object": ("a JSON object", lambda v: isinstance(v, dict), dict),
}


def _check(value: Any, kind: str, rng: Any, key: str, n_species: int) -> Any:
    """value as a Python value of the JSON type `kind` within `rng`; else a
    ValueError naming key. A fraction where an integer belongs is refused, not
    truncated; a bool, a NaN or an infinity is no number."""
    if kind.startswith("["):
        size, item = kind[1:].split("]", 1)
        least, more, _ = size.partition(":")
        if not isinstance(value, (list, tuple)) or least and not (
            len(value) == int(least) or more and len(value) > int(least)
        ):
            what = f" of {least}{' or more' if more else ''} entries" if least else ""
            raise ValueError(f"{key} must be a list{what}, got {value!r}")
        entry = key if key.endswith(" entry") else f"{key} entry"
        return [_check(v, item, rng, entry, n_species) for v in value]
    what, test, python_type = _TYPES[kind]
    if not test(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    if isinstance(rng, tuple) and value not in rng:
        raise ValueError(f"{key} must be one of {', '.join(map(repr, rng))}, got {value!r}")
    if isinstance(rng, str):
        rng = rng.replace("n_species", str(n_species))
        low, high = (float(bound) for bound in rng[1:-1].split(","))
        above = low < value or rng[0] == "[" and low == value
        if not (above and (value < high or rng[-1] == "]" and value == high)):
            raise ValueError(f"{key} must be {what} in {rng}, got {value!r}")
    return python_type(value)


def _missing(where: str, key: str) -> ValueError:
    return ValueError(f"{where or 'config'} is missing required key {key!r}")


def _read(obj: Any, section: str, n_species: int) -> dict:
    """obj, a JSON object, with the section's keys as typed values and their
    defaults filled in; a key that _KEYS does not name is kept as written."""
    _check(obj, "object", None, section or "config", n_species)
    values = dict(obj)
    for path, (kind, default, *rng) in _KEYS.items():
        parent, _, key = path.rpartition(".")
        if parent != section:
            continue
        if key not in obj and default is _REQUIRED:
            raise _missing(section, key)
        value = obj.get(key, default)
        if value is not None or default is not None:
            value = _check(value, kind, rng[0] if rng else None, path, n_species)
        values[key] = value
    return values


def load_config(path: str) -> dict:
    with open(path) as fh:
        return normalize_config(json.load(fh))


def normalize_config(raw: dict) -> dict:
    """raw with the top-level defaults filled in, once every section and entry
    has been read against _KEYS: a bad value is refused here, before any model
    work. Entries stay as written, so the digest reads the config as given."""
    cfg = _read(raw, "", 0)
    n_species, caps = len(cfg["species"]), cfg["truncation"]
    if caps is not None and len(caps) != n_species:
        raise ValueError(f"truncation must hold one cap per species ({n_species}), got {caps!r}")
    for name in ("exponents", "solver"):
        cfg[name] = _read(cfg[name], name, n_species)
    for name in ("infrared", "output"):
        if name in cfg:
            section(cfg, name)
    if "mass_grid" in cfg:
        mass_grid_entries(cfg)
    for entry in cfg["kernels"]:
        build_kernel_spec(entry, n_species)
    build_mode_table([build_species(entry) for entry in cfg["species"]])
    return cfg


def flag_value(value: Any, key: str, flag: str) -> Any:
    """A command-line flag's value read against the table entry of the config
    key it overrides, so flag and key admit the same values; a refusal names
    the flag."""
    kind, _, *rng = _KEYS[key]
    return _check(value, kind, rng[0] if rng else None, flag, 0)


def section(cfg: dict, name: str) -> dict:
    """The config's section `name` as typed values, its defaults filled in."""
    if name not in cfg:
        raise ValueError(f"config has no {name} section")
    return _read(cfg[name], name, len(cfg["species"]))


def config_digest(cfg: dict) -> str:
    """Stable digest of the normalized config for manifests."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_species(entry: dict) -> SpeciesConfig:
    species = _read(entry, "species", 0)
    mass, spins = species["mass"], tuple(species["spins"])
    chains = tuple(map(tuple, species["chains"]))
    if species["grid"] is not None:
        grid = _read(species["grid"], "species.grid", 0)
        shape, offsets = tuple(grid["shape"]), tuple(grid["offsets"])
        cfg = uniform_grid_species(mass, grid["extent"], shape, spins, offsets)
        return replace(cfg, chains=chains) if chains else cfg
    points, weights = species["points"], species["weights"]
    if points is None:
        raise _missing("species", "points")
    weights = [1.0] * len(points) if weights is None else weights
    return SpeciesConfig(mass, np.asarray(points), np.asarray(weights), spins, chains)


def build_kernel_spec(entry: dict, n_species: int) -> tuple[ProcessSignature, KernelSpec]:
    kernel = _read(entry, "kernels", n_species)
    kind, created, annihilated = kernel["kind"], tuple(kernel["created"]), kernel["annihilated"]
    if annihilated is None:
        annihilated = [i for i in range(n_species) if i not in created]
    signature = ProcessSignature(n_species, created, tuple(annihilated))
    fields = {key: kernel[key] for key in _KINDS[kind]}
    for key, value in fields.items():
        if value is None:
            raise _missing(f"{kind} kernel", key)
    if kind == "separable":
        signs = kernel["conservation_signs"]
        fields["conservation_sigma"] = kernel["conservation_sigma"]
        fields["conservation_signs"] = (
            [1 if i in created else -1 for i in range(n_species)] if signs is None else signs
        )
    return signature, KernelSpec(n_species, kind, complex(kernel["value"]), **fields)


def build_bundle(cfg: dict) -> HamiltonianBundle:
    table = build_mode_table([build_species(e) for e in cfg["species"]])
    basis = enumerate_basis(table, cfg.get("truncation"))
    tensors = []
    for entry in cfg["kernels"]:
        signature, spec = build_kernel_spec(entry, table.n_species)
        tensors.append(sample_kernel_tensor(table, signature, spec.amplitude))
    return assemble_total(table, basis, tensors, cfg["coupling"])


def _one_mass_grid(grid: dict, n_species: int) -> tuple[int, list[float]]:
    grid = _read(grid, "mass_grid", n_species)
    values = grid["values"]
    if values is None:
        for key in ("start", "stop", "count"):
            if grid[key] is None:
                raise _missing("mass_grid", key)
        if grid["start"] <= grid["stop"] or grid["stop"] <= 0:
            raise ValueError("mass_grid must decrease toward a positive stop")
        values = list(np.geomspace(grid["start"], grid["stop"], max(grid["count"], 0)))
    key = "mass_grid.values" if grid["values"] is not None else "mass_grid.count"
    if len(values) < 2:
        raise ValueError(f"{key} gives {len(values)} masses; a mass sweep needs at least two")
    if any(np.diff(values) >= 0):
        raise ValueError(f"{key} gives masses that are not strictly decreasing")
    return grid["species"], values


def mass_grid_entries(cfg: dict) -> list[tuple[int, list[float]]]:
    """Ordered (species, masses) pairs; a later sweep starts after the
    earlier species have been driven to zero mass."""
    if "mass_grid" not in cfg:
        raise ValueError("config has no mass_grid section")
    grid = cfg["mass_grid"]
    entries = _check(grid if isinstance(grid, list) else [grid], "[1:]object", None, "mass_grid", 0)
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
