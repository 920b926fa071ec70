"""Config loading and the command-line surface, end to end on tiny models."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fermifock.cli
import fermifock.config
import fermifock.hamiltonian
import fermifock.kernels
import fermifock.spectra
import fermifock.verify

from fermifock.cli import main
from fermifock.config import (
    build_bundle,
    build_kernel_spec,
    build_species,
    config_digest,
    load_config,
    mass_grid_entries,
    normalize_config,
    to_jsonable,
)
from test_fock import load_triplets
from test_verify import ground_block_size, recorded_ground_problems

TOY_ENERGY = 1.0 - math.sqrt(2.0)


def toy_config():
    """Two single-mode species with a constant pair-creation kernel."""
    return {
        "species": [
            {"mass": 1.0, "points": [[0.0, 0.0, 0.0]], "weights": [1.0], "spins": [0.5]},
            {"mass": 1.0, "points": [[0.0, 0.0, 0.0]], "weights": [1.0], "spins": [0.5]},
        ],
        "kernels": [{"kind": "constant", "created": [0, 1], "value": 1.0}],
        "coupling": 1.0,
        "solver": {"trials": 300},
    }


def sweep_config():
    """Two two-mode species, both swept to zero mass one after the other.

    The points stay off the coordinate planes, where the separable kernel
    vanishes, so the interaction is nonzero.
    """
    return {
        "species": [
            {
                "mass": 1.0,
                "points": [[0.3, 0.2, 0.1], [0.6, 0.15, 0.2]],
                "weights": [0.8, 0.9],
                "spins": [0.5],
            },
            {
                "mass": 0.8,
                "points": [[0.25, 0.1, 0.3], [0.5, 0.1, 0.25]],
                "weights": [0.7, 1.1],
                "spins": [0.5],
            },
        ],
        "kernels": [
            {
                "kind": "separable",
                "created": [0, 1],
                "nus": [0.6, 0.5],
                "lam": 2.5,
            }
        ],
        "coupling": 0.6,
        "solver": {"trials": 200},
        "mass_grid": [
            {"species": 1, "values": [0.5, 0.2]},
            {"species": 0, "values": [0.4, 0.1]},
        ],
        "infrared": {"slice_species": 1, "r": 1.9},
    }


# the benchmark's verify input at its held-out seed 1009: three species of 2, 3
# and 2 modes (dimension 128), the power kernels c012 and c0a12
SEED_1009_VERIFY = {
    "coupling": 0.678473,
    "infrared": {"r": 1.9, "slice_species": 1},
    "kernels": [
        {"created": [0, 1, 2], "kind": "power", "lam": 2.580477,
         "nus": [0.541136, 0.640034, 0.674921]},
        {"created": [0], "kind": "power", "lam": 2.580477,
         "nus": [0.541136, 0.640034, 0.674921]},
    ],
    "mass_grid": {"count": 6, "species": 1, "start": 1.0, "stop": 0.001},
    "solver": {"seed": 2062498596},
    "species": [
        {"mass": 1.0, "points": [[0.346056, 0.022494, 0.025212], [0.643829, -0.045102, 0.029414]],
         "spins": [0.5], "weights": [0.983666, 0.932609]},
        {"chains": [[0, 1, 2]], "mass": 1.0,
         "points": [[0.240625, 0.311737, 0.140025], [0.450785, 0.311737, 0.140025],
                    [0.660945, 0.311737, 0.140025]],
         "spins": [0.5], "weights": [0.152748, 0.152748, 0.152748]},
        {"mass": 0.703544, "points": [[0.435624, 0.09914, 0.04805], [0.092352, 0.51289, 0.232423]],
         "spins": [0.5], "weights": [0.903914, 1.149549]},
    ],
}


def seed_1009_verify():
    return copy.deepcopy(SEED_1009_VERIFY)


def massless_at_k0(cfg):
    """Species 2 made massless, with its first point at k = 0."""
    cfg["species"][2].update(mass=0.0)
    cfg["species"][2]["points"][0] = [0.0, 0.0, 0.0]
    return cfg


def swept_at_k0(cfg):
    """The mass grid's species given a further point, at k = 0."""
    swept = cfg["species"][cfg["mass_grid"]["species"]]
    swept["points"].append([0.0, 0.0, 0.0])
    swept["weights"].append(swept["weights"][0])
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config module
# ---------------------------------------------------------------------------

def test_normalize_fills_defaults():
    cfg = normalize_config({"species": [{"mass": 1.0, "points": [[0.0, 0.0, 0.0]]}], "kernels": []})
    assert cfg["coupling"] == 1.0
    assert cfg["exponents"]["margin"] == 0.05
    assert cfg["exponents"]["exempt_species"] == 0
    assert cfg["solver"]["dense_cap"] == 2048
    assert cfg["truncation"] is None


def test_normalize_rejects_missing_sections():
    with pytest.raises(ValueError, match="missing required key 'species'"):
        normalize_config({"kernels": []})
    with pytest.raises(ValueError, match="species must be a list of 1 or more entries"):
        normalize_config({"species": [], "kernels": []})
    with pytest.raises(ValueError, match="kernels"):
        normalize_config({"species": [{"mass": 1.0}]})


def test_digest_is_stable_and_sensitive():
    cfg = normalize_config(toy_config())
    again = normalize_config(toy_config())
    assert config_digest(cfg) == config_digest(again)
    assert len(config_digest(cfg)) == 16
    bumped = dict(cfg)
    bumped["coupling"] = 0.5
    assert config_digest(bumped) != config_digest(cfg)


def test_build_species_from_grid_entry():
    entry = {
        "mass": 0.9,
        "grid": {"extent": 1.0, "shape": [3, 1, 2], "offsets": [0.0, 0.2, 0.0]},
        "spins": [0.5],
        "chains": [[0, 2, 4]],
    }
    species = build_species(entry)
    assert species.points.shape == (6, 3)
    assert species.chains == ((0, 2, 4),)
    assert np.all(species.weights > 0)


def test_kernel_spec_kinds_and_default_annihilated():
    sig, spec = build_kernel_spec({"kind": "constant", "created": [0, 2]}, 3)
    assert sig.created == (0, 2)
    assert sig.annihilated == (1,)
    assert spec.kind == "constant"
    _, spec = build_kernel_spec({"kind": "gaussian", "alpha": 0.3, "created": [0]}, 2)
    assert spec.alpha == 0.3
    _, spec = build_kernel_spec(
        {"kind": "power", "nus": [0.5, 0.6], "lam": 2.0, "created": [0]}, 2
    )
    assert spec.nus == (0.5, 0.6)
    _, spec = build_kernel_spec(
        {"kind": "separable", "nus": [0.5, 0.6], "lam": 2.0, "created": [0]}, 2
    )
    assert spec.conservation_signs == (1, -1)
    with pytest.raises(ValueError, match="kernels.kind must be one of"):
        build_kernel_spec({"kind": "cubic"}, 2)
    with pytest.raises(ValueError, match="one conservation sign per species"):
        build_kernel_spec(
            {"kind": "separable", "nus": [0.5, 0.6], "lam": 2.0, "conservation_signs": [1]}, 2
        )


def grid_config(grid):
    """A mass_grid section on the two toy species, the range its indices are held to."""
    return {"species": toy_config()["species"], "mass_grid": grid}


def test_mass_grid_entries_single_and_multi():
    cfg = grid_config({"species": 0, "values": [1.0, 0.5]})
    assert mass_grid_entries(cfg) == [(0, [1.0, 0.5])]
    cfg = grid_config(
        [
            {"species": 1, "values": [0.5, 0.2]},
            {"species": 0, "start": 1.0, "stop": 0.001, "count": 6},
        ]
    )
    pairs = mass_grid_entries(cfg)
    assert pairs[0] == (1, [0.5, 0.2])
    species, values = pairs[1]
    assert species == 0
    assert len(values) == 6
    assert np.allclose(values, np.geomspace(1.0, 0.001, 6))


def test_mass_grid_entries_rejections():
    with pytest.raises(ValueError, match="no mass_grid"):
        mass_grid_entries({})
    with pytest.raises(ValueError, match="twice"):
        mass_grid_entries(
            grid_config([{"species": 0, "values": [1.0, 0.5]},
                         {"species": 0, "values": [0.4, 0.2]}])
        )
    with pytest.raises(ValueError, match="strictly decreasing"):
        mass_grid_entries(grid_config({"species": 0, "values": [0.5, 1.0]}))
    with pytest.raises(ValueError, match="positive stop"):
        mass_grid_entries(grid_config({"species": 0, "start": 0.5, "stop": 1.0, "count": 4}))


def test_build_bundle_toy():
    bundle = build_bundle(normalize_config(toy_config()))
    assert bundle.basis.dimension == 4
    assert bundle.coupling == 1.0
    assert [t.signature.label() for t in bundle.tensors] == ["c01a-"]


def test_to_jsonable_handles_numpy():
    payload = {
        "arr": np.arange(3.0),
        "scalar": np.float64(1.5),
        "z": 1.0 + 2.0j,
        "nested": [np.int64(4)],
    }
    out = to_jsonable(payload)
    json.dumps(out)
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["z"] == {"re": 1.0, "im": 2.0}


# ---------------------------------------------------------------------------
# command line, driven through main()
# ---------------------------------------------------------------------------

def test_cli_build_writes_manifest(tmp_path):
    cfg_path = write_config(tmp_path, toy_config())
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "build", "--config", cfg_path]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dimension"] == 4
    assert manifest["total_modes"] == 2
    assert manifest["terms"] == ["c01a-"]
    assert manifest["config_digest"] == config_digest(load_config(cfg_path))


def test_cli_build_exports_operators(tmp_path):
    cfg = toy_config()
    cfg["output"] = {"export_operators": True}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "build", "--config", cfg_path]) == 0
    h = load_triplets(str(out / "hamiltonian.txt"))
    assert h.shape == (4, 4)
    assert load_triplets(str(out / "interaction.txt")).nnz == 2


def test_cli_rejects_malformed_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"species": [{"mass": 1.0}]})
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "build", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["--report-dir", str(out), "build", "--config", missing]) == 2


@pytest.mark.parametrize("nus", [[0.5], [0.5, 0.6, 0.7]])
def test_cli_rejects_kernel_nus_of_wrong_length(tmp_path, capsys, nus):
    cfg = toy_config()
    cfg["kernels"] = [{"kind": "power", "nus": nus, "lam": 2.0, "created": [0, 1]}]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "build", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "one nus entry per species" in err[0]


def test_cli_far_point_exits_2_naming_its_species(tmp_path, capsys):
    """A point at x = 1e6 is not separated by the oscillator basis, which
    verify's regularity weights need: one line naming the species, exit 2."""
    cfg = sweep_config()
    cfg["species"][1]["points"][0] = [1e6, 0.1, 0.3]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "verify", "--suite", "all", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: species 1:") and "not separated" in err[0]


@pytest.mark.parametrize("smoothness", [400, 1e308], ids=["400", "1e308"])
def test_cli_smoothness_that_breaks_the_oscillator_weight_exits_2(tmp_path, capsys, smoothness):
    """levels ** smoothness overflows: at 400 the weighted kernel norm is inf
    (the Hermite check used to pass with max_ratio 0), at 1e308 it is NaN. Such
    a norm bounds nothing, so the run is refused with one line naming the key."""
    cfg = sweep_config()
    cfg["exponents"] = {"smoothness": smoothness}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "verify", "--suite", "bounds", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: exponents.smoothness")


def _drop(path):
    """Config mutation: delete the key at path (a tuple of keys and indices)."""
    def mutate(cfg):
        *parents, key = path
        for step in parents:
            cfg = cfg[step]
        del cfg[key]
    return mutate


def _gaussian_without_alpha(cfg):
    cfg["kernels"] = [{"kind": "gaussian", "created": [0, 1]}]


def _grid_without_extent(cfg):
    cfg["species"][0] = {"mass": 1.0, "grid": {"shape": [2, 1, 1]}, "spins": [0.5]}


def _infrared_without_slice_species(cfg):
    cfg["infrared"] = {"r": 1.9}


@pytest.mark.parametrize(
    "mutate, key",
    [
        (_drop(("species", 0, "mass")), "mass"),
        (_drop(("species", 1, "points")), "points"),
        (_drop(("kernels", 0, "kind")), "kind"),
        (_gaussian_without_alpha, "alpha"),
        (_grid_without_extent, "extent"),
        (_drop(("mass_grid", 0, "species")), "species"),
        (_infrared_without_slice_species, "slice_species"),
    ],
    ids=["species.mass", "species.points", "kernel.kind", "gaussian.alpha", "grid.extent",
         "mass_grid.species", "infrared.slice_species"],
)
def test_cli_missing_required_key_exits_2_naming_it(tmp_path, capsys, mutate, key):
    cfg = toy_config()
    cfg["mass_grid"] = [{"species": 0, "values": [0.5, 0.2]}]
    mutate(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "masslimit", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and f"'{key}'" in err[0]


def test_cli_infrared_suite_names_a_missing_mass(tmp_path, capsys):
    cfg = sweep_config()
    del cfg["species"][0]["mass"]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "infrared", "--config", cfg_path]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'mass'" in err[0]


@pytest.mark.parametrize("exempt", [-1, 2, 7])
def test_exempt_species_out_of_range_is_rejected(tmp_path, capsys, exempt):
    cfg = toy_config()
    cfg["exponents"] = {"exempt_species": exempt}
    with pytest.raises(ValueError, match="exempt_species"):
        normalize_config(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "bounds", "--config", cfg_path]
    assert main(argv) == 2
    assert "exempt_species" in capsys.readouterr().err


def test_cli_groundstate_above_dense_cap_on_a_tiny_problem(tmp_path, capsys):
    """Dimension 8 with dense cap 4: ARPACK cannot return the 8-value spectrum
    (it needs count < dim - 1), so the dense block path answers the whole
    ground problem, above the cap."""
    cfg = toy_config()
    cfg["species"][0]["points"] = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]
    cfg["species"][0]["weights"] = [1.0, 1.0]
    cfg["kernels"][0] = {"kind": "gaussian", "alpha": 0.5, "created": [0, 1]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "groundstate", "--dense-cap", "4", "--config", cfg_path]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads((out / "groundstate.json").read_text())["method"] == "dense"
    dense = tmp_path / "dense"
    assert main(["--report-dir", str(dense), "groundstate", "--config", cfg_path]) == 0

    def energies(report_dir):
        rows = (report_dir / "spectrum.csv").read_text().splitlines()[1:]
        return [float(row.split(",")[1]) for row in rows]

    assert len(energies(out)) == 8
    np.testing.assert_allclose(energies(out), energies(dense), atol=1e-12)


def test_cli_groundstate_runs_one_eigensolve(tmp_path, monkeypatch):
    """Dimension 256 with dense cap 64: every block's eigvalsh gives the 8-value
    spectrum, and one Lanczos run (k = 1), on the block holding the ground,
    gives the ground vector and is cross-checked against that spectrum."""
    calls = []
    eigsh = spla.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    cfg_path = write_config(tmp_path, lanczos_sweep_config())
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "groundstate", "--dense-cap", "64", "--config", cfg_path]
    assert main(argv) == 0
    assert calls == [1]
    assert json.loads((out / "groundstate.json").read_text())["method"] == "lanczos"
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    want = fermifock.spectra._block_eigvalsh(build_bundle(load_config(cfg_path)).h_total)
    assert [float(row.split(",")[1]) for row in rows] == list(want[:8])


def test_cli_groundstate_writes_an_unresolved_degeneracy_as_null(tmp_path, monkeypatch):
    """Dimension 256 with dense cap 2 runs Lanczos alone on every block of more
    than nine states. When the two lowest Ritz values of each run coincide, as
    ARPACK returns a near-degenerate pair, the report says the degeneracy is
    unknown instead of 1."""
    eigsh = spla.eigsh

    def coinciding_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        top = np.argsort(-vals)  # the flipped operator's largest are h's lowest
        vals[top[1]] = vals[top[0]]
        return vals, vecs

    cfg_path = write_config(tmp_path, lanczos_sweep_config())
    argv = ["groundstate", "--dense-cap", "2", "--config", cfg_path]
    assert main(["--report-dir", str(tmp_path / "resolved"), *argv]) == 0
    report = json.loads((tmp_path / "resolved" / "groundstate.json").read_text())
    assert report["method"] == "lanczos" and report["degeneracy"] == 1
    monkeypatch.setattr(spla, "eigsh", coinciding_eigsh)
    assert main(["--report-dir", str(tmp_path / "unresolved"), *argv]) == 0
    text = (tmp_path / "unresolved" / "groundstate.json").read_text()
    assert json.loads(text)["degeneracy"] is None and '"degeneracy": null' in text


@pytest.mark.parametrize("caps", [[1.5, 1], ["1", 1]], ids=["fractional", "string"])
def test_cli_rejects_non_integer_truncation_caps(tmp_path, capsys, caps):
    cfg = toy_config()
    cfg["truncation"] = caps
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "groundstate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "truncation entry must be an integer" in err[0]


@pytest.mark.parametrize("slice_species", [-1, 2, 9])
def test_infrared_slice_species_out_of_range_is_rejected(tmp_path, capsys, slice_species):
    cfg = sweep_config()
    cfg["infrared"]["slice_species"] = slice_species
    with pytest.raises(ValueError, match="slice_species"):
        normalize_config(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "infrared", "--config", cfg_path]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "infrared.slice_species" in err[0]


def _set_exempt(cfg, value):
    cfg["exponents"] = {"exempt_species": value}


def _set_slice(cfg, value):
    cfg["infrared"]["slice_species"] = value


def _set_grid_species(cfg, value):
    cfg["mass_grid"][0]["species"] = value


@pytest.mark.parametrize(
    "mutate, value, key",
    [
        (_set_exempt, 1.5, "exponents.exempt_species"),
        (_set_exempt, True, "exponents.exempt_species"),
        (_set_slice, 1.5, "infrared.slice_species"),
        (_set_slice, "1", "infrared.slice_species"),
        (_set_grid_species, 1.5, "mass_grid.species"),
        (_set_grid_species, 2, "mass_grid.species"),
        (_set_grid_species, -1, "mass_grid.species"),
    ],
    ids=["exempt-1.5", "exempt-true", "slice-1.5", "slice-str", "grid-1.5", "grid-2", "grid-neg"],
)
def test_cli_species_index_must_be_an_integer_in_range(tmp_path, capsys, mutate, value, key):
    """A species index is an integer in [0, n_species): a fractional one is
    not truncated to a species, and an out-of-range mass_grid target does not
    reach the sweep."""
    cfg = sweep_config()
    mutate(cfg, value)
    with pytest.raises(ValueError, match=key):
        mass_grid_entries(normalize_config(cfg))
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "masslimit", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("exponents", "theta_grid", [0.5, 1.5]),
        ("exponents", "theta_grid", [0.0, 0.5]),
        ("exponents", "theta_grid", [1.0]),
        ("solver", "trials", 0),
        ("solver", "trials", -3),
    ],
    ids=["theta-1.5", "theta-0", "theta-1", "trials-0", "trials-negative"],
)
def test_config_values_out_of_range_are_rejected(tmp_path, capsys, section, key, value):
    cfg = sweep_config()
    cfg[section] = {key: value}
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        normalize_config(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "all", "--config", cfg_path]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and f"{section}.{key}" in err[0]


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda cfg: cfg.update(coupling=None), "coupling"),
        (lambda cfg: cfg["solver"].update(dense_cap=None), "solver.dense_cap"),
        (
            lambda cfg: cfg.update(
                kernels=[{"kind": "gaussian", "alpha": None, "created": [0, 1]}]
            ),
            "alpha",
        ),
        (lambda cfg: cfg.update(exponents={"theta_grid": 0.5}), "exponents.theta_grid"),
        (lambda cfg: cfg["species"][0].update(spins=0.5), "spins"),
        (lambda cfg: cfg.update(truncation=1), "truncation"),
        (lambda cfg: cfg["kernels"][0].update(conservation_sigma=None), "conservation_sigma"),
        (lambda cfg: cfg["infrared"].update(r=None), "infrared.r"),
        (lambda cfg: cfg["solver"].update(dense_cap=float("inf")), "solver.dense_cap"),
        (lambda cfg: cfg["solver"].update(trials=float("inf")), "solver.trials"),
        (lambda cfg: cfg["species"][0].update(spins=[float("nan")]), "spins"),
        (lambda cfg: cfg.update(coupling=float("nan")), "coupling"),
        (lambda cfg: cfg["species"][0]["points"][1].__setitem__(2, float("nan")), "points"),
        (
            lambda cfg: cfg["species"].__setitem__(1, {
                "mass": 0.8, "spins": [0.5],
                "grid": {"extent": 1.0, "shape": [2, 1, 1], "offsets": [0.1, float("nan"), 0.2]},
            }),
            "offsets",
        ),
        (lambda cfg: cfg["kernels"][0].update(value=float("nan")), "kernels.value"),
        (lambda cfg: cfg["kernels"][0]["nus"].__setitem__(1, float("nan")), "nus"),
        (
            lambda cfg: cfg.update(mass_grid={"species": 1, "start": float("nan"), "stop": 0.1,
                                              "count": 3}),
            "mass_grid.start",
        ),
        (
            lambda cfg: cfg.update(mass_grid={"species": 1, "start": 1.0, "stop": float("nan"),
                                              "count": 3}),
            "mass_grid.stop",
        ),
        (
            lambda cfg: cfg.update(mass_grid={"species": 1, "values": [0.5, float("nan")]}),
            "mass_grid.values",
        ),
        (lambda cfg: cfg.update(kernels=["gaussian"]), "kernels entry"),
        (lambda cfg: cfg.update(kernels={}), "kernels"),
        (lambda cfg: cfg.update(mass_grid=[]), "mass_grid"),
        (lambda cfg: cfg["species"].__setitem__(1, grid_line(0.8, [2, 1])), "grid.shape"),
        (
            lambda cfg: cfg["species"].__setitem__(1, {
                "mass": 0.8, "spins": [0.5],
                "grid": {"extent": 1.0, "shape": [2, 1, 1], "offsets": [0.1, 0.2]},
            }),
            "grid.offsets",
        ),
    ],
    ids=["coupling-null", "dense-cap-null", "alpha-null", "theta-number", "spins-number",
         "truncation-number", "conservation-sigma-null", "infrared-r-null",
         "dense-cap-infinity", "trials-infinity", "spins-nan", "coupling-nan",
         "points-nan", "offsets-nan", "value-nan", "nus-nan",
         "mass-grid-start-nan", "mass-grid-stop-nan", "mass-grid-values-nan",
         "kernel-entry-string", "kernels-object", "mass-grid-empty", "grid-two-axes",
         "grid-two-offsets"],
)
def test_cli_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, mutate, key):
    """A null where a number belongs, a number where a list belongs, a string
    where an object belongs, a NaN or an infinity (which json.load reads)
    where a number belongs, an empty mass_grid list, or a grid's shape or
    offsets without one entry per axis, is a refused config: exit 2 and one
    `error:` line that names the key, no traceback. A mass grid is read by
    masslimit."""
    cfg = sweep_config()
    mutate(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    command = "masslimit" if key.startswith("mass_grid") else "groundstate"
    assert main(["--report-dir", str(out), command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0]


def _leaves(node, path=()):
    """(path, value) of every value below node, lists and objects included."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _replacements(value):
    """What a leaf is replaced by: a number by null, true, a string, a list, an
    object or NaN, an integer also by a fraction, a list or object by a string."""
    if isinstance(value, (dict, list)):
        return ["x"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    fraction = [2.5] if isinstance(value, int) else []
    return [None, True, "x", [], {}, float("nan")] + fraction


def test_cli_build_refuses_every_mistyped_value_naming_its_key(tmp_path, capsys):
    """Every value of sweep_config, found by walking the dict, replaced by a
    value of the wrong JSON type: `build` exits 2 with one `error:` line that
    names the value's key, and prints nothing on stdout."""
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "reports"
    cases, wrong = 0, []
    for path, value in _leaves(sweep_config()):
        key = [step for step in path if isinstance(step, str)][-1]
        for bad in _replacements(value):
            cfg = sweep_config()
            parent = cfg
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = bad
            cfg_path.write_text(json.dumps(cfg))
            code = main(["--report-dir", str(out), "build", "--config", str(cfg_path)])
            stdout, err = capsys.readouterr()
            lines = err.strip().splitlines()
            cases += 1
            if code != 2 or stdout or len(lines) != 1 or not (
                lines[0].startswith("error:") and key in lines[0]
            ):
                wrong.append((path, bad, code, stdout, lines))
    assert cases > 200
    assert wrong == []


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda cfg: cfg.update(exponents={"theta_grid": ["0.5"]}), "exponents.theta_grid"),
        (lambda cfg: cfg["species"][1].update(chains=5), "species.chains"),
        (lambda cfg: cfg["kernels"][0].update(created=0), "kernels.created"),
        (lambda cfg: cfg.update(mass_grid=[]), "mass_grid"),
        (lambda cfg: cfg["mass_grid"][0].update(values=[0.2, 0.5]), "mass_grid.values"),
        (lambda cfg: cfg["infrared"].update(r=2.5), "infrared.r"),
        (lambda cfg: cfg["infrared"].update(expect="finit"), "infrared.expect"),
        (lambda cfg: cfg.update(exponents={"smoothness": 0.4}), "exponents.smoothness"),
        (lambda cfg: cfg.update(exponents={"margin": 1.5}), "exponents.margin"),
        (lambda cfg: cfg["solver"].update(seed=-1), "solver.seed"),
    ],
    ids=["theta-string", "chains-number", "created-number", "mass-grid-empty",
         "mass-grid-increasing", "infrared-r-2.5", "infrared-expect", "smoothness-0.4",
         "margin-1.5", "seed-negative"],
)
def test_cli_verify_refuses_a_bad_value_before_any_check(tmp_path, capsys, mutate, key):
    """A value that only one suite reads is still refused when the config
    loads: `verify --suite all` exits 2 with one line naming the key, before
    any check prints its report line or any report is written."""
    cfg = sweep_config()
    mutate(cfg)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "all"]
    assert main(argv + ["--config", write_config(tmp_path, cfg)]) == 2
    stdout, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert stdout == ""
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}")
    assert not out.exists()


def _without(name):
    return lambda cfg: cfg.pop(name)


def _truncation(caps):
    return lambda cfg: cfg.update(truncation=caps)


@pytest.mark.parametrize(
    "argv, mutate, name",
    [
        (["--seed", "-1", "verify", "--suite", "exact"], None, "--seed"),
        (["--seed", "-1", "groundstate"], None, "--seed"),
        (["--seed", "-1", "masslimit"], None, "--seed"),
        (["--seed", "-1", "build"], None, "--seed"),
        (["--seed", "-1", "fermi-demo", "--variant", "regular"], None, "--seed"),
        (["groundstate", "--dense-cap", "-5"], None, "--dense-cap"),
        (["masslimit", "--dense-cap", "0"], None, "--dense-cap"),
        (["verify", "--suite", "number", "--dense-cap", "0"], None, "--dense-cap"),
        (["verify", "--suite", "all"], _without("infrared"), "infrared"),
        (["verify", "--suite", "infrared"], _without("infrared"), "infrared"),
        (["verify", "--suite", "all"], _without("mass_grid"), "mass_grid"),
        (["verify", "--suite", "number"], _without("mass_grid"), "mass_grid"),
        (["masslimit"], _without("mass_grid"), "mass_grid"),
        (["verify", "--suite", "infrared"], _truncation([1]), "truncation"),
        (["build"], _truncation([1, 1, 1]), "truncation"),
        (["verify", "--suite", "all"], _truncation([0, 2]), "truncation"),
    ],
    ids=["seed-verify", "seed-groundstate", "seed-masslimit", "seed-build", "seed-demo",
         "dense-cap-groundstate", "dense-cap-masslimit", "dense-cap-verify",
         "no-infrared-all", "no-infrared-infrared", "no-mass-grid-all", "no-mass-grid-number",
         "no-mass-grid-masslimit", "truncation-short", "truncation-long", "truncation-zero"],
)
def test_cli_refuses_before_any_output_naming_the_flag_key_or_section(
    tmp_path, capsys, monkeypatch, argv, mutate, name
):
    """A flag out of its config key's range, a section the subcommand or a
    suite reads but the config leaves out, or a truncation without one
    positive cap per species: exit 2 with one `error:` line naming it, nothing
    on stdout, no report written and no bundle built."""
    cfg = sweep_config()
    if mutate:
        mutate(cfg)
    if argv[-1] != "regular":
        argv = argv + ["--config", write_config(tmp_path, cfg)]
    monkeypatch.setattr(fermifock.config, "build_bundle", None)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), *argv]) == 2
    stdout, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert stdout == ""
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert not out.exists()


def test_a_zero_truncation_cap_is_refused_at_load():
    """Every monomial has one factor per species, so a zero cap would remove
    the whole interaction; the count of caps is read at load too."""
    for caps in ([0, 1], [1], [1, 1, 1]):
        with pytest.raises(ValueError, match="truncation"):
            normalize_config(dict(sweep_config(), truncation=caps))
    assert normalize_config(dict(sweep_config(), truncation=[1, 2]))["truncation"] == [1, 2]


def grid_line(mass, shape, chains=()):
    return {"mass": mass, "grid": {"extent": 1.0, "shape": shape}, "spins": [0.5],
            "chains": [list(c) for c in chains]}


@pytest.mark.parametrize(
    "mutate,key,command",
    [
        (lambda cfg: cfg.update(mass_grid={"species": 1, "start": 1.0, "stop": 0.1,
                                           "count": 2.5}), "mass_grid.count", "masslimit"),
        (lambda cfg: cfg.update(mass_grid={"species": 1, "start": 1.0, "stop": 0.1,
                                           "count": "3"}), "mass_grid.count", "masslimit"),
        (lambda cfg: cfg.update(mass_grid={"species": 1, "start": 1.0, "stop": 0.1,
                                           "count": True}), "mass_grid.count", "masslimit"),
        (lambda cfg: cfg["species"].__setitem__(1, grid_line(0.8, [3, 1, 1], [[0, 1.7, 2]])),
         "chains", "groundstate"),
        (lambda cfg: cfg["species"].__setitem__(1, grid_line(0.8, [2.5, 1, 1])),
         "shape", "groundstate"),
        (lambda cfg: cfg["species"].__setitem__(1, grid_line(0.8, ["2", 1, 1])),
         "shape", "groundstate"),
        (lambda cfg: cfg["kernels"][0].update(created=[0.5, 1.9]), "created", "groundstate"),
        (lambda cfg: cfg["kernels"][0].update(created=[0], annihilated=[1.5]),
         "annihilated", "groundstate"),
        (lambda cfg: cfg["kernels"][0].update(conservation_signs=[1, -0.5]),
         "conservation_signs", "groundstate"),
        (lambda cfg: cfg["solver"].update(trials=2.5), "solver.trials", "verify"),
        (lambda cfg: cfg["solver"].update(seed=7.9), "solver.seed", "groundstate"),
        (lambda cfg: cfg["solver"].update(dense_cap=100.7), "solver.dense_cap", "groundstate"),
    ],
    ids=["count-fraction", "count-string", "count-bool", "chain-fraction", "shape-fraction",
         "shape-string", "created-fraction", "annihilated-fraction", "sign-fraction",
         "trials-fraction", "seed-fraction", "dense-cap-fraction"],
)
def test_cli_config_integer_that_is_not_an_integer_exits_2(
    tmp_path, capsys, mutate, key, command
):
    """A count, a chain's point index, a grid's points per axis, a kernel's
    species index or conservation sign, and the solver's trials, seed and dense
    cap are JSON integers: a fraction is not rounded down, and a bool or a
    string is not read as one. Each is a refused config: exit 2 and one line
    naming the key."""
    cfg = sweep_config()
    mutate(cfg)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0] and "integer" in err[0]


@pytest.mark.parametrize(
    "grid, key",
    [
        ({"species": 1, "values": [0.5]}, "mass_grid.values"),
        ({"species": 1, "start": 1.0, "stop": 0.1, "count": 1}, "mass_grid.count"),
        ({"species": 1, "start": 1.0, "stop": 0.1, "count": 0}, "mass_grid.count"),
        ({"species": 1, "start": 1.0, "stop": 0.1, "count": -2}, "mass_grid.count"),
    ],
    ids=["one-value", "count-1", "count-0", "count-negative"],
)
def test_cli_mass_grid_of_fewer_than_two_masses_exits_2(tmp_path, capsys, grid, key):
    """A sweep needs two masses before its limit: a shorter grid is a refused
    config whose one line names the key that set its length, not a grid that
    fails to decrease."""
    cfg = sweep_config()
    cfg["mass_grid"] = grid
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "masslimit", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0] and "at least two" in err[0]
    assert "decreasing" not in err[0]


def test_cli_solver_non_convergence_exits_2(tmp_path, capsys, monkeypatch):
    """Two six-mode species (dimension 4096, above DENSE_CAP_DEFAULT): the
    form bound's spectral edges are checked by ARPACK on the block holding each
    edge, and the first run's non-convergence ends the run with one line."""
    cfg = toy_config()
    cfg["species"] = [
        {"mass": m, "grid": {"extent": 1.0, "shape": [6, 1, 1]}, "spins": [0.5]}
        for m in (1.0, 0.7)
    ]
    cfg["solver"] = {"trials": 5}
    cfg_path = write_config(tmp_path, cfg)
    calls = []

    def no_convergence(op, **kwargs):
        calls.append(op.shape)
        raise spla.ArpackNoConvergence(
            "No convergence (10000 iterations, 0/1 eigenvectors converged)",
            np.empty(0), np.empty((op.shape[0], 0)),
        )

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    problems = recorded_ground_problems(monkeypatch)
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "bounds", "--config", cfg_path]
    assert main(argv) == 2
    size = ground_block_size(problems[0])
    assert calls == [(size, size)]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "No convergence" in err[0]


def _disagreeing_block_spectrum(monkeypatch):
    eigvalsh = np.linalg.eigvalsh  # each block's cross-check values
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - 1.0)
    return "dense and Lanczos ground energies disagree"


@pytest.mark.parametrize("failure", [_disagreeing_block_spectrum])
def test_cli_refused_result_exits_2(tmp_path, capsys, monkeypatch, failure):
    """Dimension 256 with dense cap 64: Lanczos runs and the block cross-check
    with it. A failed internal check ends the run with one line, no traceback."""
    message = failure(monkeypatch)
    cfg_path = write_config(tmp_path, lanczos_sweep_config())
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "groundstate", "--dense-cap", "64", "--config", cfg_path]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_cli_groundstate_outputs(tmp_path):
    cfg_path = write_config(tmp_path, toy_config())
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "groundstate", "--config", cfg_path]) == 0
    payload = json.loads((out / "groundstate.json").read_text())
    assert abs(payload["energy"] - TOY_ENERGY) <= 1e-10
    assert payload["residual"] <= 1e-10
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,energy"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(energies[0] - TOY_ENERGY) <= 1e-10
    assert energies == sorted(energies)
    obs_lines = (out / "observables.csv").read_text().strip().splitlines()
    assert obs_lines[0] == "species,mode,amplitude"
    assert len(obs_lines) == 3


def test_cli_verify_exact_suite(tmp_path):
    cfg_path = write_config(tmp_path, toy_config())
    out = tmp_path / "reports"
    code = main(
        ["--report-dir", str(out), "verify", "--config", cfg_path, "--suite", "exact"]
    )
    assert code == 0
    payload = json.loads((out / "verify_exact.json").read_text())
    assert payload["failures"] == 0
    names = [r["name"] for r in payload["reports"]["exact"]]
    assert names == ["car_relations", "smeared_norms", "pull_through", "hermiticity"]
    assert all(r["passed"] for r in payload["reports"]["exact"])


def test_cli_pull_through_is_read_relative_to_the_hamiltonian(tmp_path):
    """A point at |k| = 1e5 gives H a row sum near 2e5, and the commutator's
    round-off grows with it (an absolute reading of 9.75e-12 failed this
    correct program): divided by max(1, ||H||_inf) it passes at 1e-12."""
    cfg = seed_1009_verify()
    cfg["species"][0]["points"][1] = [1e5, 0.0, 0.0]
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "exact"]
    assert main(argv + ["--config", write_config(tmp_path, cfg)]) == 0
    reports = json.loads((out / "verify_exact.json").read_text())["reports"]["exact"]
    [pull] = [r for r in reports if r["name"] == "pull_through"]
    assert pull["passed"] and pull["max_ratio"] <= 1e-12


@pytest.mark.parametrize(
    "mutate, species",
    [(massless_at_k0, 2), (swept_at_k0, 1)],
    ids=["massless-species", "swept-species"],
)
def test_cli_a_k0_point_that_a_check_cannot_weigh_is_refused_naming_it(
    tmp_path, capsys, mutate, species
):
    """A massless species' k = 0 mode makes the bounds' energy weight singular,
    and the swept species' k = 0 mode the number estimate's 1/|k|: both are
    found only when the check runs, after other suites have reported. The run
    still exits 2 with one line naming the species and `species.points`, prints
    no report line and leaves no report directory."""
    cfg = mutate(seed_1009_verify())
    out = tmp_path / "reports"
    argv = ["--report-dir", str(out), "verify", "--suite", "all"]
    assert main(argv + ["--config", write_config(tmp_path, cfg)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    [line] = err.strip().splitlines()
    assert line.startswith(f"error: species {species}: species.points holds k = 0")
    assert not out.exists()


def test_cli_verify_all_suites_on_sweep_instance(tmp_path):
    assert build_bundle(normalize_config(sweep_config())).h_int.nnz > 0
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "reports"
    code = main(["--report-dir", str(out), "verify", "--config", cfg_path])
    assert code == 0
    payload = json.loads((out / "verify_all.json").read_text())
    assert payload["failures"] == 0
    assert set(payload["reports"]) == {
        "exact", "bounds", "interpolation", "number", "infrared"
    }
    bound_names = [r["name"] for r in payload["reports"]["bounds"]]
    assert bound_names == [
        "form_bound",
        "refined_form_bound",
        "hermite_bound",
        "operator_bound",
        "relative_bound_zero",
    ]
    # one number estimate per mass_grid entry (species 1, then species 0)
    assert [r["name"] for r in payload["reports"]["number"]] == ["number_estimate"] * 2
    ir = payload["reports"]["infrared"][0]
    assert ir["passed"]
    assert ir["details"]["verdict"] == "finite"


def test_cli_verify_number_suite_runs_every_mass_grid_entry(tmp_path):
    cfg = sweep_config()
    # a gaussian kernel, so that both sweeps see a nonzero interaction
    cfg["kernels"] = [{"kind": "gaussian", "alpha": 0.3, "created": [0, 1]}]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "reports"
    code = main(
        ["--report-dir", str(out), "verify", "--config", cfg_path, "--suite", "number"]
    )
    assert code == 0
    reports = json.loads((out / "verify_number.json").read_text())["reports"]["number"]
    assert [r["name"] for r in reports] == ["number_estimate", "number_estimate"]
    assert [r["params"]["target"] for r in reports] == [1, 0]
    for report, grid in zip(reports, cfg["mass_grid"]):
        assert report["passed"]
        assert report["details"]["masses"] == grid["values"] + [0.0]


def test_cli_verify_infrared_annotation_controls_exit(tmp_path):
    cfg = sweep_config()
    cfg["kernels"][0]["nus"] = [0.6, 0.0]
    cfg_path = write_config(tmp_path, cfg, "divergent.json")
    out = tmp_path / "r1"
    code = main(
        ["--report-dir", str(out), "verify", "--config", cfg_path, "--suite", "infrared"]
    )
    assert code == 1
    payload = json.loads((out / "verify_infrared.json").read_text())
    assert payload["reports"]["infrared"][0]["details"]["verdict"] == "divergent"

    cfg["infrared"]["expect"] = "divergent"
    cfg_path = write_config(tmp_path, cfg, "annotated.json")
    out = tmp_path / "r2"
    code = main(
        ["--report-dir", str(out), "verify", "--config", cfg_path, "--suite", "infrared"]
    )
    assert code == 0
    payload = json.loads((out / "verify_infrared.json").read_text())
    report = payload["reports"]["infrared"][0]
    assert report["passed"]
    assert report["details"]["annotated_expected"]


def test_cli_masslimit_runs_both_targets(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "reports"
    code = main(["--report-dir", str(out), "masslimit", "--config", cfg_path])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("masslimit[") == 2
    assert "np.float64" not in stdout
    payload = json.loads((out / "masslimit.json").read_text())
    assert payload["passed"]
    assert [s["species"] for s in payload["sweeps"]] == [1, 0]
    for sweep in payload["sweeps"]:
        assert sweep["passed"]
        assert sweep["monotonicity_violation"] <= 1e-9
        assert sweep["sandwich_violation"] <= 1e-9
        # energies decrease with the mass and the limit sits below them all
        assert all(np.diff(sweep["energies"]) <= 1e-12)
        assert sweep["limit_energy"] <= sweep["energies"][-1] + 1e-12
    lines = (out / "masslimit.csv").read_text().strip().splitlines()
    assert lines[0] == "target_species,mass,energy,cross_energy,overlap_next"
    assert len(lines) == 1 + 2 * (2 + 1)
    limit_rows = [line for line in lines[1:] if line.split(",")[1] == "0.0"]
    assert len(limit_rows) == 2


def test_cli_fermi_demo_verdicts(tmp_path):
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "fermi-demo"]) == 0
    payload = json.loads((out / "fermi_demo.json").read_text())
    assert payload["exponents"] == {"0": "0", "1": "13/60", "2": "13/60", "3": "49/180"}
    physical = payload["variants"]["physical"]
    regular = payload["variants"]["regular"]
    assert physical["infrared"]["verdict"] == "divergent"
    assert physical["power_counting_oracle"] == "divergent"
    assert regular["infrared"]["verdict"] == "finite"
    assert regular["power_counting_oracle"] == "finite"
    assert physical["verdict_as_expected"] and regular["verdict_as_expected"]
    assert regular["slice_profiles_finite"]
    assert payload["fock_demo"]["dimension"] == 256


def test_cli_fermi_demo_matches_the_frozen_report(tmp_path):
    """Both variants at --r 1.8 and --seed 5 write tests/frozen_demo_report.json
    byte for byte."""
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "--seed", "5", "fermi-demo", "--r", "1.8"]) == 0
    frozen = Path(__file__).with_name("frozen_demo_report.json")
    assert (out / "fermi_demo.json").read_bytes() == frozen.read_bytes()


def test_cli_fermi_demo_computes_one_slice_table_per_variant(tmp_path, monkeypatch):
    """The slice_profiles_finite flag reads the table the infrared integrals
    used, so each variant tabulates its slice profiles once."""
    massless_nus = []
    tabulate = fermifock.kernels.separable_slice_profiles

    def counting(spec, *args, **kwargs):
        massless_nus.append(spec.nus[3])
        return tabulate(spec, *args, **kwargs)

    monkeypatch.setattr(fermifock.kernels, "separable_slice_profiles", counting)
    # a module that imported the name holds its own reference to it
    monkeypatch.setattr(fermifock.cli, "separable_slice_profiles", counting, raising=False)
    assert main(["--report-dir", str(tmp_path / "reports"), "fermi-demo"]) == 0
    assert massless_nus == [0.0, 0.5]


def lanczos_sweep_config():
    """sweep_config with four modes per species (dimension 256) under a dense
    cap of 32: every mass point is a Lanczos solve, without the dense
    cross-check, which runs only up to 4 x the cap."""
    cfg = sweep_config()
    cfg["species"][0].update(
        points=[[0.3, 0.2, 0.1], [0.6, 0.15, 0.2], [0.45, 0.35, 0.15], [0.2, 0.5, 0.3]],
        weights=[0.8, 0.9, 0.6, 0.7],
    )
    cfg["species"][1].update(
        points=[[0.25, 0.1, 0.3], [0.5, 0.1, 0.25], [0.35, 0.4, 0.2], [0.7, 0.3, 0.1]],
        weights=[0.7, 1.1, 0.5, 0.9],
    )
    cfg["solver"]["dense_cap"] = 32
    cfg["mass_grid"] = [
        {"species": 1, "values": [0.5, 0.2, 0.05]},
        {"species": 0, "start": 1.0, "stop": 0.01, "count": 4},
    ]
    return cfg


def test_cli_masslimit_matches_the_frozen_report(tmp_path, monkeypatch):
    """masslimit on lanczos_sweep_config writes tests/frozen_masslimit_report.json
    and .csv byte for byte, with every mass point solved by Lanczos: each of the
    9 reported energies is the lowest Ritz value of one Lanczos run."""
    ritz = []
    lanczos = fermifock.spectra._lanczos

    def recording(*args):
        spectrum, vecs = lanczos(*args)
        ritz.append(float(spectrum[0]))
        return spectrum, vecs

    monkeypatch.setattr(fermifock.spectra, "_lanczos", recording)
    cfg_path = write_config(tmp_path, lanczos_sweep_config())
    out = tmp_path / "reports"
    assert main(["--report-dir", str(out), "masslimit", "--config", cfg_path]) == 0
    sweeps = json.loads((out / "masslimit.json").read_text())["sweeps"]
    solved = [e for sweep in sweeps for e in (*sweep["energies"], sweep["limit_energy"])]
    assert len(solved) == 4 + 5 and set(solved) <= set(ritz)
    for suffix in ("json", "csv"):
        frozen = Path(__file__).with_name(f"frozen_masslimit_report.{suffix}")
        assert (out / f"masslimit.{suffix}").read_bytes() == frozen.read_bytes(), suffix


def test_cli_outputs_are_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(
            ["--report-dir", str(out), "--seed", "11", "masslimit", "--config", cfg_path]
        ) == 0
        assert main(
            ["--report-dir", str(out), "--seed", "11", "groundstate", "--config", cfg_path]
        ) == 0
    for name in ("masslimit.json", "masslimit.csv", "groundstate.json",
                 "spectrum.csv", "observables.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
