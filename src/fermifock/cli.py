"""Command-line entry points.

Subcommands:
  build        assemble the model and write a manifest (optionally operators)
  verify       run a verification suite and write its reports
  groundstate  solve the ground problem, write spectrum and observables
  masslimit    run the decreasing-mass sweep with its checks
  fermi-demo   bundled four-fermion decay demo (physical and regular variants)

All outputs are deterministic for a fixed config and seed: reports are
sort-keyed JSON and CSVs are written with repr floats, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import config as cfgmod
from .fock import enumerate_basis, save_triplets
from .hamiltonian import (
    ProcessSignature,
    assemble_total,
    sample_kernel_tensor,
)
from .kernels import (
    exponent_table,
    fermi_demo_spec,
    infrared_report,
    power_counting_verdict,
    separable_slice_profiles,
)
from .modes import SpeciesConfig, build_mode_table
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


def _report_dir(args) -> str:
    os.makedirs(args.report_dir, exist_ok=True)
    return args.report_dir


def cmd_build(args) -> int:
    cfg = cfgmod.load_config(args.config)
    bundle = cfgmod.build_bundle(cfg)
    out = _report_dir(args)
    manifest = {
        "config_digest": cfgmod.config_digest(cfg),
        "n_species": bundle.table.n_species,
        "total_modes": bundle.table.total_modes,
        "dimension": bundle.basis.dimension,
        "interaction_nnz": int(bundle.h_int.nnz),
        "total_nnz": int(bundle.h_total.nnz),
        "coupling": bundle.coupling,
        "terms": [t.signature.label() for t in bundle.tensors],
        "kernel_norms": [t.frobenius() for t in bundle.tensors],
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    if cfg.get("output", {}).get("export_operators"):
        save_triplets(bundle.h_total, os.path.join(out, "hamiltonian.txt"))
        save_triplets(bundle.h_int, os.path.join(out, "interaction.txt"))
    print(f"build: dimension {bundle.basis.dimension}, "
          f"interaction nnz {bundle.h_int.nnz}")
    return 0


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
    exempt = int(exps["exempt_species"])
    trials = int(cfg["solver"]["trials"])
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
                bundle, index, exempt, float(exps["smoothness"]), trials=trials, seed=seed + 2
            )
        )
        reports.append(
            vf.check_operator_bound(bundle, index, exempt, trials=trials, seed=seed + 3)
        )
    reports.append(
        vf.check_relative_bound_zero(bundle, margin=float(exps["margin"]), seed=seed + 4)
    )
    return reports


def _suite_interpolation(bundle, cfg, seed):
    exps = cfg["exponents"]
    return [
        vf.check_interpolation(
            bundle,
            index,
            int(exps["exempt_species"]),
            float(exps["smoothness"]),
            thetas=tuple(float(t) for t in exps["theta_grid"]),
            seed=seed,
        )
        for index in range(len(bundle.tensors))
    ]


def _sweeps(bundle, cfg, seed):
    """Run the mass_grid entries in order, yielding (species, curve).

    Each later sweep starts where the earlier ones ended, with every finished
    species frozen at zero mass.
    """
    dense_cap = int(cfg["solver"]["dense_cap"])
    for species, masses in cfgmod.mass_grid_entries(cfg):
        curve = mass_sweep(bundle, species, masses, dense_cap=dense_cap, seed=seed)
        yield species, curve
        # the limit point is this bundle with the swept species at zero mass
        bundle = curve.bundles[-1]


def _suite_number(bundle, cfg, seed):
    exps = cfg["exponents"]
    exempt = int(exps["exempt_species"])
    margin = float(exps["margin"])
    reports = []
    for species, curve in _sweeps(bundle, cfg, seed):
        reports.append(vf.check_number_estimate(curve, species, exempt, margin))
        if cfg["species"][species].get("chains"):
            reports.append(vf.check_gradient_estimate(curve, species, exempt, margin))
    return reports


def _suite_infrared(cfg, seed):
    section = cfg.get("infrared")
    if section is None:
        raise ValueError("config has no infrared section")
    reports = []
    n = len(cfg["species"])
    massless = [i for i, e in enumerate(cfg["species"]) if cfgmod.build_species(e).is_massless]
    exps = cfg["exponents"]
    slice_species = int(section["slice_species"])
    r = float(section.get("r", 1.9))
    expect = section.get("expect")
    for entry in cfg["kernels"]:
        signature, spec = cfgmod.build_kernel_spec(entry, n)
        exponents = exponent_table(
            n, massless, float(exps["margin"]), int(exps["exempt_species"])
        )
        exponents = {
            i: float(v) for i, v in exponents.items() if i != slice_species
        }
        ir = infrared_report(spec, slice_species, r, exponents)
        annotated = expect is not None and ir.verdict == expect
        passed = ir.verdict == "finite" or annotated
        reports.append(
            vf.BoundReport(
                name="infrared",
                passed=passed,
                max_ratio=ir.decay_ratio,
                tolerance=0.9,
                params={
                    "kernel": entry["kind"],
                    "r": r,
                    "slice_species": slice_species,
                    "expected": expect,
                },
                details=dict(ir.as_dict(), annotated_expected=annotated),
            )
        )
    return reports


_BUNDLE_SUITES = {
    "exact": _suite_exact,
    "bounds": _suite_bounds,
    "interpolation": _suite_interpolation,
    "number": _suite_number,
}


def _load_config(args) -> tuple[dict, int]:
    """The config with the --dense-cap override applied, and the run's seed."""
    cfg = cfgmod.load_config(args.config)
    if args.dense_cap is not None:
        cfg["solver"]["dense_cap"] = args.dense_cap
    seed = args.seed if args.seed is not None else int(cfg["solver"]["seed"])
    return cfg, seed


def cmd_verify(args) -> int:
    cfg, seed = _load_config(args)
    out = _report_dir(args)
    suites = (
        ["exact", "bounds", "interpolation", "number", "infrared"]
        if args.suite == "all"
        else [args.suite]
    )
    all_reports = {}
    failures = 0
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
            print(f"[{suite}] {report.name}: {status} "
                  f"(max_ratio {report.max_ratio:.6g}, tol {report.tolerance:g})")
            if not report.passed:
                failures += 1
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "seed": seed,
        "reports": all_reports,
        "failures": failures,
    }
    _write_json(os.path.join(out, f"verify_{args.suite}.json"), payload)
    return 1 if failures else 0


def cmd_groundstate(args) -> int:
    cfg, seed = _load_config(args)
    bundle = cfgmod.build_bundle(cfg)
    out = _report_dir(args)
    result = ground_state(
        bundle.h_total, dense_cap=int(cfg["solver"]["dense_cap"]), seed=seed,
        count=min(bundle.basis.dimension, 8),
    )
    rows = [[i, float(v)] for i, v in enumerate(result.spectrum)]
    _write_csv(os.path.join(out, "spectrum.csv"), ["index", "energy"], rows)
    obs_rows = []
    payload_obs = []
    for i in range(bundle.table.n_species):
        rep = observables(bundle, result.vector, i)
        payload_obs.append(
            {
                "species": i,
                "expected_number": rep.expected_number,
                "amplitudes": list(rep.amplitudes),
                "chain_gradients": [list(g) for g in rep.chain_gradients],
            }
        )
        for local, amp in enumerate(rep.amplitudes):
            obs_rows.append([i, local, float(amp)])
    _write_csv(
        os.path.join(out, "observables.csv"),
        ["species", "mode", "amplitude"],
        obs_rows,
    )
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "energy": result.energy,
        "residual": result.residual,
        "method": result.method,
        "degeneracy": result.degeneracy,
        "observables": payload_obs,
    }
    _write_json(os.path.join(out, "groundstate.json"), payload)
    print(f"groundstate: E = {result.energy!r} ({result.method}, "
          f"residual {result.residual:.2e})")
    return 0


def cmd_masslimit(args) -> int:
    cfg, seed = _load_config(args)
    cfgmod.mass_grid_entries(cfg)  # reject a bad grid before any model work
    bundle = cfgmod.build_bundle(cfg)
    out = _report_dir(args)
    rows = []
    sweeps = []
    for species, curve in _sweeps(bundle, cfg, seed):
        for j, m in enumerate(curve.masses):
            overlap = float(curve.overlaps[j]) if j < len(curve.overlaps) else curve.limit_overlap
            rows.append([species, float(m), float(curve.energies[j]),
                         float(curve.cross_energies[j]), overlap])
        rows.append([species, 0.0, float(curve.limit_energy), float(curve.limit_energy), 1.0])
        mono = curve.monotonicity_violation()
        sandwich = curve.sandwich_violation()
        sweeps.append({
            "species": species,
            "masses": list(curve.masses),
            "energies": list(curve.energies),
            "limit_energy": curve.limit_energy,
            "monotonicity_violation": mono,
            "sandwich_violation": sandwich,
            "passed": bool(mono <= 1e-9 and sandwich <= 1e-9),
        })
        print(f"masslimit[{species}]: E({float(curve.masses[-1])}) = {float(curve.energies[-1])}, "
              f"limit {curve.limit_energy!r}, monotone dev {mono:.2e}, "
              f"sandwich dev {sandwich:.2e}")
    _write_csv(
        os.path.join(out, "masslimit.csv"),
        ["target_species", "mass", "energy", "cross_energy", "overlap_next"],
        rows,
    )
    payload = {
        "config_digest": cfgmod.config_digest(cfg),
        "sweeps": sweeps,
        "passed": all(s["passed"] for s in sweeps),
    }
    _write_json(os.path.join(out, "masslimit.json"), payload)
    return 0 if payload["passed"] else 1


_DEMO_VARIANTS = {
    # massless exponent, expectation for the infrared verdict at r = 1.9
    "physical": (0.0, "divergent"),
    "regular": (0.5, "finite"),
}


def cmd_fermi_demo(args) -> int:
    out = _report_dir(args)
    n = 4
    massless_index = 3
    masses = [1.0, 0.8, 0.5, 0.0]
    margin = Fraction(1, 20)
    exempt = 0
    exact = exponent_table(n, [massless_index], margin, exempt)
    failures = 0
    payload = {
        "species_masses": masses,
        "exempt_species": exempt,
        "margin": str(margin),
        "exponents": {str(i): str(v) for i, v in exact.items()},
    }
    variants = {}
    for name in args.variant:
        nu, expect = _DEMO_VARIANTS[name]
        spec = fermi_demo_spec(nu)
        float_exps = {
            i: float(v) for i, v in exact.items() if i != massless_index
        }
        ir = infrared_report(spec, massless_index, args.r, float_exps)
        annotated = ir.verdict == expect
        if not annotated:
            failures += 1
        profiles = separable_slice_profiles(spec, massless_index, float_exps, n_grid=41)
        finite_norm = np.all(np.isfinite(profiles.values))
        oracle = power_counting_verdict(nu, args.r)
        variants[name] = {
            "massless_exponent": nu,
            "infrared": ir.as_dict(),
            "expected_verdict": expect,
            "verdict_as_expected": annotated,
            "power_counting_oracle": oracle,
            "slice_profiles_finite": bool(finite_norm),
        }
        print(f"fermi-demo[{name}]: infrared {ir.verdict} "
              f"(expected {expect}), gradient {ir.gradient_verdict}")
    payload["variants"] = variants

    # small Fock-side ground problem with the same structure
    spec = fermi_demo_spec(_DEMO_VARIANTS["regular"][0])
    pts = np.array([[0.3, 0.0, 0.0], [0.0, 0.45, 0.15]])
    species = [
        SpeciesConfig(mass=m, points=pts, weights=np.array([0.7, 0.6]), spins=(0.5,))
        for m in masses
    ]
    table = build_mode_table(species)
    basis = enumerate_basis(table)
    signature = ProcessSignature(n, (0, 1), (2, 3))
    tensor = sample_kernel_tensor(table, signature, spec.amplitude)
    bundle = assemble_total(table, basis, [tensor], coupling=0.4)
    result = ground_state(bundle.h_total, seed=args.seed or 7)
    numbers = [observables(bundle, result.vector, i).expected_number for i in range(n)]
    payload["fock_demo"] = {
        "dimension": basis.dimension,
        "energy": result.energy,
        "expected_numbers": numbers,
    }
    print(f"fermi-demo: Fock dim {basis.dimension}, E = {result.energy!r}")
    _write_json(os.path.join(out, "fermi_demo.json"), payload)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermifock",
        description="finite-mode fermionic Hamiltonians: assembly, ground states, "
        "estimate verification",
    )
    parser.add_argument("--report-dir", default="reports")
    parser.add_argument("--seed", type=int, default=None)
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
    p_demo.add_argument("--r", type=float, default=1.9)
    p_demo.set_defaults(func=cmd_fermi_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # AssertionError: a failed internal check (cross-check, hermiticity) refuses the result;
    # the tuple is evaluated only when an exception arrives, so ARPACK is not loaded for it
    except (ValueError, OSError, spectra.ArpackNoConvergence, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
