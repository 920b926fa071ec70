#!/usr/bin/env python3
"""fermifock benchmark: time to solution of the CLI on seeded inputs.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 42 --trace 0

One process drives a closed loop with one client: it starts one child
`fermifock` process at a time, waits for it, checks its reports and starts the
next. A workload is a round of invocations (workloads.py), repeated until the
run length is used up and timed per round. Children run with BLAS and OpenMP
pinned to one thread (recorded in the machine record). Only the benchmark's
own child processes are measured: no whole-machine tracing, no cache dropping.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it runs every invocation untraced and then traced (spans.py)
and reports the per-layer metrics; `trace.overhead_s` is the traced minus the
untraced median round time. `--workload all` runs every workload in turn.
The last line of standard output is the result as one JSON object."""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
REFERENCES = os.path.join(HERE, "references")

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
# The untraced child: the `fermifock` console script (import the CLI, call
# main) with a time stamp once the CLI is imported and the config loaded, so
# every invocation also gives a set-up sample. The config is parsed once more
# by main; that costs well under a millisecond.
LAUNCH = (
    "import sys, time\n"
    "from fermifock import config\n"
    "import fermifock.cli\n"
    "if sys.argv[2]:\n"
    "    config.load_config(sys.argv[2])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(repr(time.monotonic()))\n"
    "sys.exit(fermifock.cli.main(sys.argv[3:]))\n"
)


class Failure(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(THREADS) for name in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            cpu_max = fh.read().strip()
    except OSError:
        cpu_max = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu.max": cpu_max,
        "blas": blas,
        "blas_threads": THREADS,
        "thread_env": sorted(THREAD_VARS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "load_client": "closed loop, 1 client, 1 child process at a time",
        "scope": "only the benchmark's own child processes are measured; "
                 "no whole-machine tracing, no cache dropping",
    }


def run_child(cmd: list[str], env: dict, log_path: str, timeout: float) -> dict:
    """Spawn one child, wait for it and return its wall, CPU and peak RSS."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        pidfd = os.pidfd_open(proc.pid)
        try:
            # the pidfd turns readable when the child exits; no polling
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "timed_out": timed_out,
    }


def load_reference(workload: str, seed: int) -> list[dict] | None:
    """Stored summaries for this seed, one per invocation of a round."""
    path = os.path.join(REFERENCES, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"none (n={n} < 11)"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f} {sorted(values)[k]:.6g}"


class Session:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = child_env()
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.references = load_reference(workload, seed)
        self.first: dict[int, tuple[str, dict]] = {}
        self.samples: list[dict] = []  # one per invocation
        self.rounds: list[dict] = []  # untraced and traced totals per round
        self.layer_samples: list[dict] = []  # per-layer metrics per traced round

    def invoke(self, index: int, kind: int, traced: bool) -> tuple[dict, dict | None]:
        """Run invocation `kind` of the round once and check its reports.

        Returns the sample and, when traced, the span file's contents."""
        name, argv, config_path = self.invocations[kind]
        report_dir = os.path.join(self.dir, f"run{index}")
        spans_path = os.path.join(self.dir, f"spans{index}.json")
        stamp_path = os.path.join(self.dir, f"stamp{index}")
        cmd = [sys.executable]
        if traced:
            cmd += [os.path.join(HERE, "spans.py"), "--out", spans_path,
                    "--run-id", f"{self.workload}-{self.seed}-{index}", "--"]
        else:
            cmd += ["-c", LAUNCH, stamp_path, config_path or ""]
        cmd += ["--report-dir", report_dir] + argv
        timeout = max(5.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        sample = run_child(cmd, self.env, os.path.join(self.dir, f"stderr{index}.txt"), timeout)
        sample.update(kind=kind, traced=traced)
        if not traced and os.path.exists(stamp_path):
            with open(stamp_path) as fh:
                sample["setup_s"] = float(fh.read()) - sample["start"]
        problems = self.verify(name, report_dir, sample)
        doc = None
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                doc = json.load(fh)
        elif traced:
            problems.append("no span file")
        sample["problems"] = problems
        shutil.rmtree(report_dir, ignore_errors=True)
        self.samples.append(sample)
        return sample, doc

    def verify(self, name: str, report_dir: str, sample: dict) -> list[str]:
        if sample["timed_out"]:
            return ["timed out"]
        if sample["exit_code"] < 0:
            return [f"killed by signal {-sample['exit_code']}"]
        os.makedirs(report_dir, exist_ok=True)
        kind = sample["kind"]
        summary = check.summarize(name, report_dir, sample["exit_code"])
        digest = check.report_digest(report_dir)
        problems = []
        if kind not in self.first:
            self.first[kind] = (digest, summary)
            if self.references is None:
                problems += check.expected_outcome(summary)
        sample["identical"] = digest == self.first[kind][0]
        if sample["traced"] and not sample["identical"]:
            problems.append("traced reports differ from untraced ones")
        reference = self.references[kind] if self.references else self.first[kind][1]
        return problems + check.compare(summary, reference)

    def run_round(self, index: int) -> int:
        totals = {traced: {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
                  for traced in ((False, True) if self.trace else (False,))}
        docs = []
        for kind in range(len(self.invocations)):
            for traced, total in totals.items():
                sample, doc = self.invoke(index, kind, traced)
                index += 1
                total["wall_s"] += sample["wall_s"]
                total["cpu_s"] += sample["cpu_s"]
                total["peak_rss_mb"] = max(total["peak_rss_mb"], sample["peak_rss_mb"])
                if doc is not None:
                    docs.append(doc)
        self.rounds.append(totals)
        if self.trace and len(docs) == len(self.invocations):
            self.layer_samples.append(spans.aggregate(docs))
        return index

    def run(self) -> dict:
        if os.path.exists(self.dir):
            shutil.rmtree(self.dir)
        os.makedirs(self.dir)
        try:
            self.invocations = workloads.generate(self.workload, self.seed, self.dir)
            # warm-up: writes the bytecode (where enabled) and fills the file cache
            warm = subprocess.run([sys.executable, "-c", "import fermifock.cli"], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=60)
            if warm.returncode != 0:
                raise Failure(f"cannot import fermifock: {warm.stderr.strip()[-300:]}")
            self.deadline = time.monotonic() + self.seconds + 60.0
            used, index = 0.0, 0
            while True:
                round_start = time.monotonic()
                index = self.run_round(index)
                took = time.monotonic() - round_start
                used += took
                if used + took > self.seconds:
                    break
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return self.result()

    def result(self) -> dict:
        plain = [s for s in self.samples if not s["traced"]]
        failed = sum(1 for s in self.samples if s["problems"])

        def median(key, traced=False):
            return statistics.median(r[traced][key] for r in self.rounds)

        if self.trace:
            metrics = {name: statistics.median(s[name] for s in self.layer_samples)
                       for name in self.layer_samples[0]} if self.layer_samples else {}
            metrics["trace.overhead_s"] = median("wall_s", True) - median("wall_s")
        else:
            setup = [s["setup_s"] for s in plain if "setup_s" in s]
            if not setup:
                raise Failure("no invocation got as far as loading its config")
            metrics = {
                "wall_s": median("wall_s"),
                "setup_s": statistics.median(setup),
                "cpu_s": median("cpu_s"),
                "peak_rss_mb": median("peak_rss_mb"),
                "identical_ratio": sum(1 for s in plain if s.get("identical")) / len(plain),
            }
        return {"attempted": len(self.samples), "failed": failed, "metrics": metrics}


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, machine: dict) -> dict:
    session = Session(workload, seed, seconds, trace)
    outcome = session.run()
    units = declared_metrics(trace)
    missing = set(units) ^ set(outcome["metrics"])
    if missing:
        raise Failure(f"metrics not declared or not measured: {sorted(missing)}")
    walls = [r[False]["wall_s"] for r in session.rounds]
    print(f"workload {workload} (seed {seed}, trace {int(trace)}): {workloads.WHY[workload]}")
    print(f"reference: {'stored' if session.references else 'none stored; first run of this session'}")
    print(f"samples: {len(walls)} rounds of {len(session.invocations)} invocation(s), "
          f"{len(session.samples)} invocations in all; round wall_s median "
          f"{statistics.median(walls):.6g} s, tail {tail(walls)}; "
          f"fail_ratio {outcome['failed']}/{outcome['attempted']}")
    for s in session.samples:
        for problem in s["problems"][:5]:
            print(f"  FAIL: {problem}")
    for name, unit in units.items():
        print(f"  {name} = {outcome['metrics'][name]:.6g} {unit}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  machine=machine, samples=session.samples, rounds=session.rounds,
                  not_attributed=spans.NOT_ATTRIBUTED if trace else None)
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "fermifock", "cli.py")):
            raise Failure("no fermifock sources under src/; run from a checkout of the repository")
        machine = machine_record()
        print("machine: " + json.dumps(machine, sort_keys=True))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), machine)
            print(json.dumps(result))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
