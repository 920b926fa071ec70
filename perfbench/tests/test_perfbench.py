"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests

They run real fermifock children, one untraced and one traced invocation of
each workload's round, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3  # any seed but workloads.HELD_OUT_SEED

# the layer each workload was chosen for, as a share of traced work after setup
DOMINANT = {
    "solve": ("spectra.crosscheck_s", "spectra.lanczos_s", "hamiltonian.assemble_total_s"),
    "verify": ("verify.interpolation_s",),
    "demo": ("kernels.slice_profiles_s",),
}


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        inputs = []
        for i, seed in enumerate((SEED, SEED, SEED + 1)):
            round_ = workloads.generate(name, seed, str(tmp_path / f"{name}{i}"))
            inputs.append([(kind, [a for a in argv if a != path], Path(path).read_text() if path else "")
                           for kind, argv, path in round_])
        assert inputs[0] == inputs[1]
        assert inputs[0] != inputs[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_covers_the_work(workload):
    session = run.Session(workload, SEED, seconds=0, trace=True)
    outcome = session.run()
    assert [s["traced"] for s in session.samples] == [False, True] * len(session.invocations)
    # a traced sample fails when its report bytes differ from the untraced one
    assert all(s["identical"] for s in session.samples)
    assert outcome["failed"] == 0, [s["problems"] for s in session.samples]
    assert session.references is not None, "no stored reference for the test seed"
    assert len(session.layer_samples) == len(session.rounds) == 1
    for layers in session.layer_samples:
        assert layers["trace.coverage"] >= 0.9
        dominant = sum(layers[name] for name in DOMINANT[workload])
        assert dominant > 0.5 * layers["trace.work_s"], (dominant, layers["trace.work_s"])
    assert set(outcome["metrics"]) == set(run.declared_metrics(trace=True))


@pytest.fixture(scope="module")
def ground_reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("ground")
    (name, argv, _), _ = workloads.generate("solve", SEED, str(base))
    assert name == "ground"
    report_dir = str(base / "reports")
    cmd = [sys.executable, "-m", "fermifock.cli", "--report-dir", report_dir] + argv
    sample = run.run_child(cmd, run.child_env(), str(base / "stderr.txt"), 120.0)
    assert sample["exit_code"] == 0
    return report_dir


def _perturbed(report_dir, tmp_path, edit):
    copy = str(tmp_path / "perturbed")
    shutil.copytree(report_dir, copy)
    path = os.path.join(copy, "groundstate.json")
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return check.summarize("ground", copy, 0)


def test_reference_accepts_the_run_it_was_taken_from(ground_reports):
    summary = check.summarize("ground", ground_reports, 0)
    assert check.compare(summary, summary) == []
    assert check.expected_outcome(summary) == []
    stored, _ = run.load_reference("solve", SEED)
    assert check.compare(summary, stored) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(energy=d["energy"] * (1 + 1e-7)),
        lambda d: d.update(method="dense"),
        lambda d: d.update(residual=1e-6),
    ],
    ids=["energy", "method", "residual"],
)
def test_perturbed_report_counts_as_failure(ground_reports, tmp_path, edit):
    reference = check.summarize("ground", ground_reports, 0)
    assert check.compare(_perturbed(ground_reports, tmp_path, edit), reference)


def test_wrong_exit_code_and_missing_reports_fail(ground_reports, tmp_path):
    reference = check.summarize("ground", ground_reports, 0)
    assert check.compare(check.summarize("ground", ground_reports, 1), reference)
    empty = check.summarize("ground", str(tmp_path), 0)
    assert check.compare(empty, reference)


def test_identity_deviations_are_held_to_their_bound_not_compared():
    ref = {"exact.0.car_relations.deviation": ["bound", 1e-16, check.IDENTITY_BOUND]}
    near = {"exact.0.car_relations.deviation": ["bound", 3e-15, check.IDENTITY_BOUND]}
    over = {"exact.0.car_relations.deviation": ["bound", 2e-12, check.IDENTITY_BOUND]}
    assert check.compare(near, ref) == []
    assert check.compare(over, ref)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "no fermifock sources" in done.stderr
    assert "correct" not in done.stdout
