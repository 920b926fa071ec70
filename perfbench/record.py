#!/usr/bin/env python3
"""Record the correctness references the benchmark checks every run against.

    python3 perfbench/record.py --workload all --seeds 0-31,1009

Runs each workload once per seed, untraced, with BLAS pinned as in the
benchmark, and stores the checked summary of its reports in
perfbench/references/<workload>.json. Report bytes depend on the BLAS thread
count, so references are only valid at the pinned setting recorded in the
file. Rerun this only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import check
import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload: str, seeds: list[int], machine: dict) -> None:
    path = os.path.join(run.REFERENCES, f"{workload}.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)["seeds"]
    env = run.child_env()
    for seed in seeds:
        directory = os.path.join(run.WORK, f"record-{workload}-{seed}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        try:
            summaries = []
            for kind, (name, argv, _) in enumerate(workloads.generate(workload, seed, directory)):
                report_dir = os.path.join(directory, f"reports{kind}")
                cmd = [sys.executable, "-m", "fermifock.cli", "--report-dir", report_dir] + argv
                sample = run.run_child(cmd, env, os.path.join(directory, "stderr.txt"),
                                       run.CHILD_TIMEOUT_S)
                summaries.append(check.summarize(name, report_dir, sample["exit_code"]))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        problems = [p for summary in summaries for p in check.expected_outcome(summary)]
        if problems:
            raise SystemExit(f"{workload} seed {seed}: {problems}")
        stored[str(seed)] = summaries
        print(f"{workload} seed {seed}: done", flush=True)
    os.makedirs(run.REFERENCES, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"blas_threads": run.THREADS, "machine": machine,
                   "seeds": dict(sorted(stored.items(), key=lambda kv: int(kv[0])))},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,1009")
    args = parser.parse_args()
    machine = run.machine_record()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record(name, parse_seeds(args.seeds), machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
