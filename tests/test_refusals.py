"""Every refused run ends one way: exit 2, one stderr line that starts with
`error:` and names the flag, key or species at fault, nothing on stdout and no
report directory, however late in the run the refusal comes.

Hypothesis draws the refusals: a flag out of its key's range or of the wrong
type, an argument argparse rejects, a config value out of range at load, an
oscillator weight that overflows in the bound checks, and a k = 0 mode that a
check cannot weigh. The small model is `sweep_config` (dimension 16); the
examples are the late refusals on the benchmark's seed-1009 verify input.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from fermifock.cli import main
from test_config_cli import massless_at_k0, seed_1009_verify, swept_at_k0, sweep_config

SUBCOMMANDS = (["build"], ["groundstate"], ["masslimit"], ["verify", "--suite", "all"],
               ["verify", "--suite", "exact"])
DEMO = ["fermi-demo", "--variant", "regular"]


def _set(cfg: dict, path: tuple, value) -> dict:
    """A copy of cfg with value at path (keys and list indices)."""
    cfg = copy.deepcopy(cfg)
    *parents, key = path
    target = cfg
    for step in parents:
        target = target[step]
    target[key] = value
    return cfg


def _flag(flag, values, commands=SUBCOMMANDS + (DEMO,)):
    """(config or None, argv, name): one bad value for a flag, given before or
    after the subcommand as the flag belongs."""
    def case(command, value):
        cfg = None if command == DEMO else sweep_config()
        before = [f"{flag}={value}"] if flag == "--seed" else []
        after = [] if flag == "--seed" else [f"{flag}={value}"]
        return cfg, before + command + after, flag
    return st.builds(case, st.sampled_from(commands), values)


def _key(path, name, values, commands=SUBCOMMANDS):
    return st.builds(
        lambda command, value: (_set(sweep_config(), path, value), command, name),
        st.sampled_from(commands), values,
    )


def _outside(low, high):
    """Finite and non-finite numbers outside [low, high)."""
    return st.floats().filter(lambda v: not low <= v < high)


def _k0(suite):
    """A k = 0 point in one of the small model's two species: massless (the
    bounds' energy weight) for species 1, which is not exempt, or in either
    swept species (the number estimate's 1/|k|)."""
    def case(species, point):
        cfg = sweep_config()
        if suite == "bounds":
            cfg["species"][species]["mass"] = 0.0
        cfg["species"][species]["points"][point] = [0.0, 0.0, 0.0]
        return cfg, ["verify", "--suite", suite], f"species {species}"
    return st.builds(case, st.just(1) if suite == "bounds" else st.sampled_from([0, 1]),
                     st.sampled_from([0, 1]))


REFUSALS = st.one_of(
    _flag("--seed", st.integers(max_value=-1).map(str) | st.floats().map(repr)),
    _flag("--dense-cap", st.integers(max_value=0).map(str) | st.floats().map(repr),
          SUBCOMMANDS[1:]),
    _flag("--r", _outside(1.0, 2.0).map(repr), (DEMO,)),
    _flag("--suite", st.text("abcxyz", min_size=1), (["verify"],)),
    _key(("exponents",), "exponents.margin",
         st.floats().filter(lambda v: not 0.0 < v < 1.0).map(lambda v: {"margin": v})),
    _key(("solver", "trials"), "solver.trials", st.integers(max_value=0)),
    _key(("infrared", "r"), "infrared.r", _outside(1.0, 2.0)),
    _key(("coupling",), "coupling", st.text(max_size=3) | st.none() | st.booleans()),
    _key(("exponents",), "exponents.smoothness",
         st.floats(400.0, 1e308).map(lambda v: {"smoothness": v}),
         (["verify", "--suite", "bounds"], ["verify", "--suite", "all"])),
    _key(("kernels", 0, "lam"), "kernels.lam", _outside(0.0, math.inf) | st.just(0.0)),
    _key(("kernels", 0, "conservation_sigma"), "kernels.conservation_sigma",
         _outside(0.0, math.inf)),
    _k0("bounds"),
    _k0("number"),
)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(REFUSALS)
# the late refusals on the seed-1009 verify input, each found after other
# suites had printed their report lines: 5, 5 and 16 of them
@example((_set(seed_1009_verify(), ("exponents",), {"smoothness": 400}),
          ["verify", "--suite", "all"], "exponents.smoothness"))
@example((massless_at_k0(seed_1009_verify()), ["verify", "--suite", "all"], "species 2"))
@example((swept_at_k0(seed_1009_verify()), ["verify", "--suite", "all"], "species 1"))
# a cutoff at lam <= 0 and a negative regularizer width: a math domain error
# naming no key, and a silently dropped regularizer, before the key table refused them
@example((_set(sweep_config(), ("kernels", 0, "lam"), 0), ["verify", "--suite", "infrared"],
          "kernels.lam"))
@example((_set(sweep_config(), ("kernels", 0, "lam"), -1), ["verify", "--suite", "infrared"],
          "kernels.lam"))
@example((_set(sweep_config(), ("kernels", 0, "conservation_sigma"), -0.35),
          ["verify", "--suite", "infrared"], "kernels.conservation_sigma"))
# flags that argparse or the key table refuses: --r named, not infrared.r
@example((None, ["fermi-demo", "--r", "5"], "--r"))
@example((seed_1009_verify(), ["--seed", "1.5", "verify", "--suite", "all"], "--seed"))
def test_a_refused_run_prints_one_line_and_leaves_nothing(case):
    cfg, argv, name = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reports")
        if cfg is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = argv + ["--config", path]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--report-dir", out, *argv])
        assert (code, stdout.getvalue()) == (2, "")
        [line] = stderr.getvalue().splitlines()
        assert line.startswith("error: ") and name in line
        assert not os.path.exists(out)
