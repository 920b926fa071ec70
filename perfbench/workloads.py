"""Seeded inputs for the benchmark workloads.

A workload is a round of `fermifock` invocations on generated inputs; the
benchmark repeats the round and times each whole round. The seed moves the
inputs' values (masses, grid extents, point positions, kernel parameters,
coupling, solver seed) inside ranges on which every check passes; it never
moves their size, so every seed does the same work and timings from different
seeds are comparable. The program receives only the generated files and
arguments.

Instances are smaller than the acceptance instances, so that a round takes a
few seconds at one BLAS thread, and each keeps the layer that dominated the
full-size instance dominant. The ground and sweep inputs share one round
(`solve`): on a shared 2-core machine, where speed drifts by 10-30% from one
half-minute to the next, three workloads with 42-second runs fit the time the
benchmark may take and are far steadier than four with 30-second runs.
"""

from __future__ import annotations

import json
import os
import random

# Seed kept out of every tuning run; a later performance claim is checked on it.
HELD_OUT_SEED = 1009

WHY = {
    "solve": (
        "groundstate (Lanczos then the O(n^3) dense eigvalsh cross-check) and masslimit "
        "(7 Lanczos solves, 7 rebuilds of one H_int): the spectra and hamiltonian hot paths."
    ),
    "verify": (
        "verify --suite all: the interpolation check dominates, plus many small "
        "dense solves and per-entry monomial_operator calls, the same layers as solve used small."
    ),
    "demo": (
        "fermi-demo, both variants: separable_slice_profiles on 161x24^3 grids is "
        "nearly all of it, the only workload where kernels does real work."
    ),
}

WORKLOADS = tuple(WHY)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _line_species(rng, n_points, axis, extent, mass, spins=(0.5,)):
    shape = [1, 1, 1]
    shape[axis] = n_points
    offsets = [0.0 if a == axis else _u(rng, -0.1, 0.1) for a in range(3)]
    return {
        "mass": mass,
        "grid": {"extent": extent, "shape": shape, "offsets": offsets},
        "spins": list(spins),
    }


def _ground(rng):
    # grid_instance with species 1 made a spinless 5-point line: dimension
    # 2048 instead of 4096, above dense_cap so Lanczos runs and below
    # 4 * dense_cap so the dense cross-check follows it
    return {
        "species": [
            _line_species(rng, 3, 0, _u(rng, 0.8, 1.0), _u(rng, 0.9, 1.1), (0.5, -0.5)),
            _line_species(rng, 5, 1, _u(rng, 0.7, 0.9), _u(rng, 0.5, 0.7)),
        ],
        "kernels": [{"kind": "gaussian", "alpha": _u(rng, 0.25, 0.35), "created": [0, 1]}],
        "coupling": _u(rng, 0.6, 0.8),
        "solver": {"dense_cap": 1024, "seed": rng.randrange(1, 2**31)},
    }


def _sweep(rng):
    # three spinless grid lines of 5, 4 and 4 points: dimension 8192, above
    # 4 * dense_cap, so every one of the 7 solves is Lanczos only
    alpha = _u(rng, 0.25, 0.35)
    return {
        "species": [
            _line_species(rng, 5, 0, _u(rng, 0.7, 1.0), _u(rng, 0.8, 1.2)),
            _line_species(rng, 4, 1, _u(rng, 0.7, 1.0), 1.0),
            _line_species(rng, 4, 2, _u(rng, 0.7, 1.0), _u(rng, 0.6, 1.0)),
        ],
        "kernels": [
            {"kind": "gaussian", "alpha": alpha, "created": [0, 1, 2]},
            {"kind": "gaussian", "alpha": alpha, "created": [0]},
        ],
        "coupling": _u(rng, 0.5, 0.7),
        "solver": {"dense_cap": 1024, "seed": rng.randrange(1, 2**31)},
        "mass_grid": {"species": 1, "start": 1.0, "stop": 0.001, "count": 6},
    }


def _verify(rng):
    # triple_parts with 2, 3 and 2 modes (dimension 128 instead of 512); the
    # mass grid has one entry because `verify --suite number` reads only the first
    def jitter(point):
        return [round(v + rng.uniform(-0.05, 0.05), 6) for v in point]

    start, step = _u(rng, 0.15, 0.25), _u(rng, 0.18, 0.22)
    chain_y, chain_z = _u(rng, 0.3, 0.4), _u(rng, 0.05, 0.15)
    nus = [_u(rng, 0.5, 0.7) for _ in range(3)]
    lam = _u(rng, 2.3, 2.7)
    return {
        "species": [
            {
                "mass": 1.0,
                "points": [jitter([0.3, 0.0, 0.0]), jitter([0.6, 0.0, 0.0])],
                "weights": [_u(rng, 0.7, 1.0), _u(rng, 0.7, 1.0)],
                "spins": [0.5],
            },
            {
                "mass": 1.0,
                "points": [[round(start + step * i, 6), chain_y, chain_z] for i in range(3)],
                "weights": [_u(rng, 0.15, 0.25)] * 3,
                "spins": [0.5],
                "chains": [[0, 1, 2]],
            },
            {
                "mass": _u(rng, 0.6, 0.8),
                "points": [jitter([0.4, 0.1, 0.0]), jitter([0.1, 0.5, 0.2])],
                "weights": [_u(rng, 0.6, 1.2), _u(rng, 0.6, 1.2)],
                "spins": [0.5],
            },
        ],
        "kernels": [
            {"kind": "power", "nus": nus, "lam": lam, "created": [0, 1, 2]},
            {"kind": "power", "nus": nus, "lam": lam, "created": [0]},
        ],
        "coupling": _u(rng, 0.5, 0.7),
        "solver": {"seed": rng.randrange(1, 2**31)},
        "mass_grid": {"species": 1, "start": 1.0, "stop": 0.001, "count": 6},
        "infrared": {"slice_species": 1, "r": 1.9},
    }


_CONFIGS = {"ground": _ground, "sweep": _sweep, "verify": _verify}
_SUBCOMMANDS = {
    "ground": ["groundstate"],
    "sweep": ["masslimit"],
    "verify": ["verify", "--suite", "all"],
}
_ROUNDS = {"solve": ("ground", "sweep"), "verify": ("verify",)}


def generate(workload: str, seed: int, directory: str) -> list[tuple[str, list[str], str | None]]:
    """Write the workload's inputs for this seed into directory.

    Returns the round as (input name, fermifock arguments after
    `--report-dir DIR`, config path or None) per invocation. The input name
    selects the report check; the demo takes no config.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "demo":
        rng = random.Random(f"demo:{seed}")
        # physical diverges for r > 1.5 and regular stays finite for r < 2
        common = ["--seed", str(rng.randrange(1, 2**31)), "fermi-demo", "--r", repr(_u(rng, 1.7, 1.9))]
        return [("demo", common + ["--variant", v], None) for v in ("physical", "regular")]
    os.makedirs(directory, exist_ok=True)
    round_ = []
    for name in _ROUNDS[workload]:
        cfg = _CONFIGS[name](random.Random(f"{name}:{seed}"))
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, sort_keys=True, indent=1)
        argv = ["--seed", str(cfg["solver"]["seed"])] + _SUBCOMMANDS[name] + ["--config", path]
        round_.append((name, argv, path))
    return round_
