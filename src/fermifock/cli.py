"""Command-line entry points.

Subcommands:
  build        assemble the model and write a manifest (optionally operators)
  verify       run a verification suite and write its reports
  groundstate  solve the ground problem, write spectrum and observables
  masslimit    run the decreasing-mass sweep with its checks
  fermi-demo   bundled four-fermion decay demo (physical and regular variants):
               one config per variant, run through the same infrared loop and
               config.build_bundle as the other subcommands

All outputs are deterministic for a fixed config and seed: reports are
sort-keyed JSON and CSVs are written with repr floats, no timestamps.

A subcommand writes and prints nothing: it returns its reports by file name
(a payload for .json, (header, rows) for .csv, an operator for .txt), its
stdout lines and its exit code, and `main` emits them once it has returned.
So a refused run prints one `error:` line and leaves no report behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import config as cfgmod
from .fock import save_triplets
from .kernels import exponent_table, infrared_report, power_counting_verdict
from . import spectra
from .spectra import ground_state, mass_sweep, observables
from . import verify as vf


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(cfgmod.to_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


Run = tuple[dict, list[str], int]  # reports by file name, stdout lines, exit code


def cmd_build(args) -> Run:
    cfg = cfgmod.load_config(args.config)
    bundle = cfgmod.build_bundle(cfg)
    h_total = bundle.h_total
    manifest = {
        "config_digest": cfgmod.config_digest(cfg),
        "n_species": bundle.table.n_species,
        "total_modes": bundle.table.total_modes,
        "dimension": bundle.basis.dimension,
        "interaction_nnz": int(bundle.h_int.nnz),
        "total_nnz": int(h_total.nnz),
        "coupling": bundle.coupling,
        "terms": [t.signature.label() for t in bundle.tensors],
        "kernel_norms": [t.frobenius() for t in bundle.tensors],
    }
    reports = {"manifest.json": manifest}
    if cfg.get("output", {}).get("export_operators"):
        reports.update({"hamiltonian.txt": h_total, "interaction.txt": bundle.h_int})
    return reports, [f"build: dimension {bundle.basis.dimension}, "
                     f"interaction nnz {bundle.h_int.nnz}"], 0


def _suite_exact(bundle, cfg, seed):
    reports = [
        vf.check_car_relations(bundle),
        vf.check_smeared_norms(bundle, seed=seed),
        vf.check_pull_through(bundle),
        vf.check_hermiticity(bundle),
    ]
    if all(t.signature.n_species % 2 == 1 for t in bundle.tensors) and bundle.tensors:
        reports.append(vf.check_parity_identity(bundle))
    return reports


def _suite_bounds(bundle, cfg, seed):
    exps = cfg["exponents"]
    exempt, trials = exps["exempt_species"], cfg["solver"]["trials"]
    reports = []
    for index in range(len(bundle.tensors)):
        reports.append(
            vf.check_form_bound(bundle, index, exempt, trials=trials, seed=seed)
        )
        reports.append(
            vf.check_refined_form_bound(bundle, index, exempt, trials=trials, seed=seed + 1)
        )
        reports.append(
            vf.check_hermite_bound(
                bundle, index, exempt, exps["smoothness"], trials=trials, seed=seed + 2
            )
        )
        reports.append(
            vf.check_operator_bound(bundle, index, exempt, trials=trials, seed=seed + 3)
        )
    reports.append(
        vf.check_relative_bound_zero(bundle, margin=exps["margin"], seed=seed + 4)
    )
    return reports


def _suite_interpolation(bundle, cfg, seed):
    exps = cfg["exponents"]
    return [
        vf.check_interpolation(
            bundle,
            index,
            exps["exempt_species"],
            exps["smoothness"],
            thetas=tuple(exps["theta_grid"]),
            seed=seed,
        )
        for index in range(len(bundle.tensors))
    ]


def _sweeps(bundle, cfg, seed):
    """Run the mass_grid entries in order, yielding (species, curve).

    Each later sweep starts where the earlier ones ended, with every finished
    species frozen at zero mass.
    """
    for species, masses in cfgmod.mass_grid_entries(cfg):
        curve = mass_sweep(bundle, species, masses, dense_cap=cfg["solver"]["dense_cap"], seed=seed)
        yield species, curve
        # the limit point is this bundle with the swept species at zero mass
        bundle = curve.bundles[-1]


def _suite_number(bundle, cfg, seed):
    exempt, margin = cfg["exponents"]["exempt_species"], cfg["exponents"]["margin"]
    reports = []
    for species, curve in _sweeps(bundle, cfg, seed):
        reports.extend(vf.check_sweep_estimates(curve, species, exempt, margin))
    return reports


def _infrared_runs(cfg):
    """Per kernel entry, for the config's infrared section: (entry, infrared
    report, the section's `expect`, whether the verdict is that expectation)."""
    section = cfgmod.section(cfg, "infrared")
    n = len(cfg["species"])
    massless = [i for i, e in enumerate(cfg["species"]) if cfgmod.build_species(e).is_massless]
    exps, slice_species, expect = cfg["exponents"], section["slice_species"], section["expect"]
    exponents = exponent_table(n, massless, exps["margin"], exps["exempt_species"])
    exponents = {i: float(v) for i, v in exponents.items() if i != slice_species}
    runs = []
    for entry in cfg["kernels"]:
        _, spec = cfgmod.build_kernel_spec(entry, n)
        ir = infrared_report(spec, slice_species, section["r"], exponents)
        runs.append((entry, ir, expect, expect is not None and ir.verdict == expect))
    return runs


def _suite_infrared(cfg, seed):
    return [
        vf.BoundReport(
            name="infrared",
            passed=ir.verdict == "finite" or annotated,
            max_ratio=ir.decay_ratio,
            tolerance=0.9,
            params={
                "kernel": entry["kind"],
                "r": ir.r,
                "slice_species": ir.slice_species,
                "expected": expect,
            },
            details=dict(ir.as_dict(), annotated_expected=annotated),
        )
        for entry, ir, expect, annotated in _infrared_runs(cfg)
    ]


_BUNDLE_SUITES = {
    "exact": _suite_exact,
    "bounds": _suite_bounds,
    "interpolation": _suite_interpolation,
    "number": _suite_number,
}
# the config section each suite reads that a valid config may leave out
_SUITE_SECTIONS = {"number": "mass_grid", "infrared": "infrared"}


def _solver_flags(args) -> dict:
    """The values --seed, --dense-cap and --r set, by their config keys' last
    names, each given flag read against its key's table entry, before any
    model work."""
    given = {"solver.seed": ("--seed", args.seed), "infrared.r": ("--r", args.r),
             "solver.dense_cap": ("--dense-cap", args.dense_cap)}
    return {
        key.rpartition(".")[2]: cfgmod.flag_value(value, key, flag)
        for key, (flag, value) in given.items() if value is not None
    }


def _load_config(args, sections: list[str]) -> tuple[dict, int]:
    """The config, refused unless it holds each of the sections the run
    reads, with the --dense-cap override applied, and the run's seed."""
    cfg = cfgmod.load_config(args.config)
    for name in sections:
        if name not in cfg:
            raise ValueError(f"config has no {name} section")
    if "dense_cap" in args.solver:
        cfg["solver"]["dense_cap"] = args.solver["dense_cap"]
    return cfg, _seed(args, cfg)


def _seed(args, cfg: dict) -> int:
    """--seed when given, else the config's solver.seed."""
    return args.solver.get("seed", cfg["solver"]["seed"])


def cmd_verify(args) -> Run:
    suites = (
        ["exact", "bounds", "interpolation", "number", "infrared"]
        if args.suite == "all"
        else [args.suite]
    )
    cfg, seed = _load_config(args, [_SUITE_SECTIONS[s] for s in suites if s in _SUITE_SECTIONS])
    all_reports, lines, failures = {}, [], 0
    bundle = None
    for suite in suites:
        if suite == "infrared":
            reports = _suite_infrared(cfg, seed)
        else:
            # one bundle serves every suite that needs the operators
            if bundle is None:
                bundle = cfgmod.build_bundle(cfg)
            reports = _BUNDLE_SUITES[suite](bundle, cfg, seed)
        all_reports[suite] = [r.as_dict() for r in reports]
        for report in reports:
            status = "pass" if report.passed else "FAIL"
            lines.append(f"[{suite}] {report.name}: {status} "
                         f"(max_ratio {report.max_ratio:.6g}, tol {report.tolerance:g})")
            if not report.passed:
                failures += 1
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "seed": seed,
        "reports": all_reports,
        "failures": failures,
    }
    return {f"verify_{args.suite}.json": payload}, lines, 1 if failures else 0


def cmd_groundstate(args) -> Run:
    cfg, seed = _load_config(args, [])
    bundle = cfgmod.build_bundle(cfg)
    result = ground_state(
        bundle.h_total, dense_cap=cfg["solver"]["dense_cap"], seed=seed,
        count=min(bundle.basis.dimension, 8),
    )
    rows = [[i, float(v)] for i, v in enumerate(result.spectrum)]
    obs_rows, payload_obs = [], []
    for i in range(bundle.table.n_species):
        rep = observables(bundle, result.vector, i)
        payload_obs.append({"species": i, "expected_number": rep.expected_number,
                            "amplitudes": list(rep.amplitudes),
                            "chain_gradients": [list(g) for g in rep.chain_gradients]})
        obs_rows.extend([i, local, float(amp)] for local, amp in enumerate(rep.amplitudes))
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "energy": result.energy,
        "residual": result.residual,
        "method": result.method,
        "degeneracy": result.degeneracy,
        "observables": payload_obs,
    }
    reports = {
        "spectrum.csv": (["index", "energy"], rows),
        "observables.csv": (["species", "mode", "amplitude"], obs_rows),
        "groundstate.json": payload,
    }
    return reports, [f"groundstate: E = {result.energy!r} ({result.method}, "
                     f"residual {result.residual:.2e})"], 0


def cmd_masslimit(args) -> Run:
    cfg, seed = _load_config(args, ["mass_grid"])
    bundle = cfgmod.build_bundle(cfg)
    rows, sweeps, lines = [], [], []
    for species, curve in _sweeps(bundle, cfg, seed):
        for j, m in enumerate(curve.masses):
            overlap = float(curve.overlaps[j]) if j < len(curve.overlaps) else curve.limit_overlap
            rows.append([species, float(m), float(curve.energies[j]),
                         float(curve.cross_energies[j]), overlap])
        rows.append([species, 0.0, float(curve.limit_energy), float(curve.limit_energy), 1.0])
        mono, sandwich = curve.monotonicity_violation(), curve.sandwich_violation()
        sweeps.append({
            "species": species,
            "masses": list(curve.masses),
            "energies": list(curve.energies),
            "limit_energy": curve.limit_energy,
            "monotonicity_violation": mono,
            "sandwich_violation": sandwich,
            "passed": bool(mono <= 1e-9 and sandwich <= 1e-9),
        })
        lines.append(f"masslimit[{species}]: E({float(curve.masses[-1])}) = "
                     f"{float(curve.energies[-1])}, limit {curve.limit_energy!r}, "
                     f"monotone dev {mono:.2e}, sandwich dev {sandwich:.2e}")
    header = ["target_species", "mass", "energy", "cross_energy", "overlap_next"]
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "sweeps": sweeps,
        "passed": all(s["passed"] for s in sweeps),
    }
    reports = {"masslimit.csv": (header, rows), "masslimit.json": payload}
    return reports, lines, 0 if payload["passed"] else 1


_DEMO_VARIANTS = {
    # massless exponent, expectation for the infrared verdict at the default r
    "physical": (0.0, "divergent"),
    "regular": (0.5, "finite"),
}
_DEMO_MASSES = [1.0, 0.8, 0.5, 0.0]
_DEMO_MARGIN = Fraction(1, 20)


def _demo_config(variant: str, r: float | None) -> dict:
    """The bundled four-fermion decay model: species 0 and 1 created, 2 and 3
    annihilated, species 3 massless; one separable kernel whose massless
    component exponent sets the variant, with gaussian momentum conservation.
    The infrared section takes r when given, else the config default."""
    nu, expect = _DEMO_VARIANTS[variant]
    species = {"points": [[0.3, 0.0, 0.0], [0.0, 0.45, 0.15]], "weights": [0.7, 0.6],
               "spins": [0.5]}
    return cfgmod.normalize_config({
        "species": [dict(species, mass=m) for m in _DEMO_MASSES],
        "kernels": [{"kind": "separable", "nus": [0.0, 0.0, 0.0, nu], "lam": 1.0,
                     "created": [0, 1], "conservation_sigma": 0.35}],
        "coupling": 0.4,
        "exponents": {"margin": float(_DEMO_MARGIN), "exempt_species": 0},
        "infrared": {"slice_species": 3, "expect": expect, **({} if r is None else {"r": r})},
    })


def cmd_fermi_demo(args) -> Run:
    r = args.solver.get("r")
    exact = exponent_table(len(_DEMO_MASSES), [3], _DEMO_MARGIN, 0)
    payload = {
        "species_masses": _DEMO_MASSES,
        "exempt_species": 0,
        "margin": str(_DEMO_MARGIN),
        "exponents": {str(i): str(v) for i, v in exact.items()},
        "variants": {},
    }
    failures, lines = 0, []
    for name in args.variant:
        nu, expect = _DEMO_VARIANTS[name]
        ((_, ir, _, annotated),) = _infrared_runs(_demo_config(name, r))
        if not annotated:
            failures += 1
        payload["variants"][name] = {
            "massless_exponent": nu,
            "infrared": ir.as_dict(),
            "expected_verdict": expect,
            "verdict_as_expected": annotated,
            "power_counting_oracle": power_counting_verdict(nu, ir.r),
            "slice_profiles_finite": all(math.isfinite(v) for v in ir.profiles.values),
        }
        lines.append(f"fermi-demo[{name}]: infrared {ir.verdict} "
                     f"(expected {expect}), gradient {ir.gradient_verdict}")

    # small Fock-side ground problem of the regular variant
    cfg = _demo_config("regular", r)
    bundle = cfgmod.build_bundle(cfg)
    result = ground_state(
        bundle.h_total, dense_cap=cfg["solver"]["dense_cap"], seed=_seed(args, cfg)
    )
    numbers = [
        observables(bundle, result.vector, i).expected_number
        for i in range(bundle.table.n_species)
    ]
    payload["fock_demo"] = {
        "dimension": bundle.basis.dimension,
        "energy": result.energy,
        "expected_numbers": numbers,
    }
    lines.append(f"fermi-demo: Fock dim {bundle.basis.dimension}, E = {result.energy!r}")
    return {"fermi_demo.json": payload}, lines, 1 if failures else 0


def _refuse(message: str):
    """argparse's error hook: raise, so a bad argument takes main's one refusal path."""
    raise ValueError(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermifock",
        description="finite-mode fermionic Hamiltonians: assembly, ground states, "
        "estimate verification",
    )
    parser.add_argument("--report-dir", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    parser.set_defaults(dense_cap=None, r=None)  # for the subcommands without these flags
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble and write the manifest")
    p_build.add_argument("--config", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["exact", "bounds", "interpolation", "number", "infrared", "all"],
    )
    p_verify.add_argument("--dense-cap", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_gs = sub.add_parser("groundstate", help="solve the ground problem")
    p_gs.add_argument("--config", required=True)
    p_gs.add_argument("--dense-cap", type=int, default=None)
    p_gs.set_defaults(func=cmd_groundstate)

    p_ml = sub.add_parser("masslimit", help="decreasing-mass ground sweep")
    p_ml.add_argument("--config", required=True)
    p_ml.add_argument("--dense-cap", type=int, default=None)
    p_ml.set_defaults(func=cmd_masslimit)

    p_demo = sub.add_parser("fermi-demo", help="bundled four-fermion decay demo")
    p_demo.add_argument(
        "--variant",
        nargs="+",
        default=["physical", "regular"],
        choices=list(_DEMO_VARIANTS),
    )
    p_demo.add_argument("--r", type=float, default=None)
    p_demo.set_defaults(func=cmd_fermi_demo)
    for each in (parser, *sub.choices.values()):
        each.error = _refuse

    try:
        args = parser.parse_args(argv)
        args.solver = _solver_flags(args)
        reports, lines, code = args.func(args)
        os.makedirs(args.report_dir, exist_ok=True)
        for name, report in reports.items():
            path = os.path.join(args.report_dir, name)
            if name.endswith(".json"):
                _write_json(path, report)
            elif name.endswith(".csv"):
                _write_csv(path, *report)
            else:
                save_triplets(report, path)
    # AssertionError: a failed internal check (e.g. the dense/Lanczos cross-check) refuses it;
    # TypeError: a wrong-typed config value that no key check names still refuses the config;
    # the tuple is evaluated only when an exception arrives, so ARPACK is not loaded for it
    except (ValueError, TypeError, OSError, spectra.ArpackNoConvergence, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
