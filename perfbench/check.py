"""Per-run correctness check of fermifock reports.

`summarize` reduces a run's report directory to the entries that are checked,
each tagged with how it is compared:

* "exact": exit code, every `passed` verdict, verdict strings, methods and
  dimensions must equal the reference;
* "value": energies, limit energies, overlaps and bound ratios must agree with
  the reference to 1e-9 relative (1e-12 absolute for round-off sized values);
* "bound": identity deviations (CAR, pull-through, hermiticity, smeared norms,
  the parity matrix identity), residuals and sweep violations are round-off
  sized and differ between BLAS thread counts, so they are held only to their
  bound and never compared by value.

References are summaries stored per workload and seed, taken at the pinned
thread count (see record.py).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
IDENTITY_BOUND = 1e-12
# sweeps and residuals are held to the tolerance the program itself applies
SWEEP_BOUND = 1e-9
IDENTITY_CHECKS = ("car_relations", "smeared_norms", "pull_through", "hermiticity")


def report_digest(report_dir: str) -> str:
    """sha256 over every report file's name and bytes."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(report_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(report_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _load(report_dir, name):
    with open(os.path.join(report_dir, name)) as fh:
        return json.load(fh) if name.endswith(".json") else list(csv.DictReader(fh))


def _ground(d, out):
    gs = _load(d, "groundstate.json")
    out["ground.method"] = ["exact", gs["method"]]
    out["ground.degeneracy"] = ["exact", gs["degeneracy"]]
    out["ground.energy"] = ["value", gs["energy"]]
    out["ground.residual"] = ["bound", gs["residual"], SWEEP_BOUND]
    for row in _load(d, "spectrum.csv"):
        out[f"spectrum.{row['index']}"] = ["value", float(row["energy"])]


def _sweep(d, out):
    ml = _load(d, "masslimit.json")
    out["masslimit.passed"] = ["exact", ml["passed"]]
    for k, sweep in enumerate(ml["sweeps"]):
        key = f"sweep{k}"
        out[f"{key}.passed"] = ["exact", sweep["passed"]]
        out[f"{key}.limit_energy"] = ["value", sweep["limit_energy"]]
        for j, e in enumerate(sweep["energies"]):
            out[f"{key}.energy.{j}"] = ["value", e]
        out[f"{key}.monotonicity_violation"] = ["bound", sweep["monotonicity_violation"], SWEEP_BOUND]
        out[f"{key}.sandwich_violation"] = ["bound", sweep["sandwich_violation"], SWEEP_BOUND]
    for j, row in enumerate(_load(d, "masslimit.csv")):
        out[f"row{j}.cross_energy"] = ["value", float(row["cross_energy"])]
        out[f"row{j}.overlap_next"] = ["value", float(row["overlap_next"])]


def _verify(d, out):
    vf = _load(d, "verify_all.json")
    out["verify.failures"] = ["exact", vf["failures"]]
    for suite, reports in sorted(vf["reports"].items()):
        for k, rep in enumerate(reports):
            key = f"{suite}.{k}.{rep['name']}"
            det = rep["details"]
            out[f"{key}.passed"] = ["exact", rep["passed"]]
            if rep["name"] in IDENTITY_CHECKS:
                out[f"{key}.deviation"] = ["bound", rep["max_ratio"], IDENTITY_BOUND]
            elif rep["name"] == "parity_identity":
                out[f"{key}.matrix_deviation"] = ["bound", det["matrix_deviation"], IDENTITY_BOUND]
                out[f"{key}.spectrum_deviation"] = ["bound", det["spectrum_deviation"], rep["tolerance"]]
            else:
                out[f"{key}.max_ratio"] = ["value", rep["max_ratio"]]
            if "exact_sup_ratio" in det:
                out[f"{key}.exact_sup_ratio"] = ["value", det["exact_sup_ratio"]]
            for theta, entry in sorted(det.get("per_theta", {}).items()):
                out[f"{key}.constant.{theta}"] = ["value", entry["constant"]]
            for field in ("verdict", "gradient_verdict"):
                if field in det:
                    out[f"{key}.{field}"] = ["exact", det[field]]


def _demo(d, out):
    demo = _load(d, "fermi_demo.json")
    for name, var in sorted(demo["variants"].items()):
        ir = var["infrared"]
        for field in ("verdict_as_expected", "power_counting_oracle", "slice_profiles_finite"):
            out[f"{name}.{field}"] = ["exact", var[field]]
        for field in ("verdict", "gradient_verdict"):
            out[f"{name}.{field}"] = ["exact", ir[field]]
        for field in ("decay_ratio", "gradient_decay_ratio"):
            out[f"{name}.{field}"] = ["value", ir[field]]
    fock = demo["fock_demo"]
    out["fock.dimension"] = ["exact", fock["dimension"]]
    out["fock.energy"] = ["value", fock["energy"]]
    for i, v in enumerate(fock["expected_numbers"]):
        out[f"fock.number.{i}"] = ["value", v]


_SUMMARIES = {"ground": _ground, "sweep": _sweep, "verify": _verify, "demo": _demo}


def summarize(workload: str, report_dir: str, exit_code: int) -> dict:
    """Checked entries of one run; a missing or unreadable report is recorded
    as an entry that no reference matches."""
    out = {"exit_code": ["exact", exit_code]}
    try:
        _SUMMARIES[workload](report_dir, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out["reports"] = ["exact", f"unreadable: {type(exc).__name__}: {exc}"]
    return out


def compare(summary: dict, reference: dict) -> list[str]:
    """Problems with one run's summary against a reference summary."""
    problems = []
    for key in sorted(set(summary) | set(reference)):
        if key not in summary or key not in reference:
            problems.append(f"{key}: present in only one of run and reference")
            continue
        kind, value = summary[key][0], summary[key][1]
        ref = reference[key][1]
        if kind == "exact" and value != ref:
            problems.append(f"{key}: {value!r} != reference {ref!r}")
        elif kind == "value" and not abs(value - ref) <= REL_TOL * max(abs(value), abs(ref)) + ABS_FLOOR:
            problems.append(f"{key}: {value!r} differs from reference {ref!r} beyond 1e-9")
        elif kind == "bound" and not value <= summary[key][2]:
            problems.append(f"{key}: {value!r} exceeds its bound {summary[key][2]!r}")
    return problems


def expected_outcome(summary: dict) -> list[str]:
    """Verdicts every generated input must reach: exit 0 and all checks passed.

    Used on top of `compare` when a seed has no stored reference and the
    session's first run stands in for one.
    """
    problems = []
    for key, entry in summary.items():
        if key == "exit_code" and entry[1] != 0:
            problems.append(f"exit code {entry[1]}")
        elif key == "reports":
            problems.append(entry[1])
        elif key.endswith(("passed", "verdict_as_expected")) and entry[1] is not True:
            problems.append(f"{key} is {entry[1]!r}")
        elif key == "verify.failures" and entry[1] != 0:
            problems.append(f"{entry[1]} verify failures")
    return problems
