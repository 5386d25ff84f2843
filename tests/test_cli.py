"""CLI tests: config validation, presets, output formats, exit codes."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nearscat
from nearscat import bayes, born, cli, sampling
from nearscat.cli import PRESETS, main, run, validate_config
from nearscat.bayes import make_bayes_model
from nearscat.disk import assemble_nearfield_matrix
from nearscat.errors import ConfigError
from nearscat.geometry import Disk, make_grid
from nearscat.sampling import fm_mlsm_fields

from failure_cases import CASES, check_case
from reference import expand_runs, grid_points, read_field_csv


def small_music_config():
    return {
        "mode": "born-music",
        "k": 1.0,
        "sensors": {"count": 16, "radius": 1.0},
        "scatterers": [
            {
                "shape": {"type": "disk", "center": [-0.5, 0.5], "radius": 0.2},
                "index": {"kind": "constant", "value": [5.0, 0.0]},
            }
        ],
        "rule_order": 8,
        "grid": {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 21, "ny": 21},
        "noise": {"delta": 0.0, "seed": 0},
        "rank_override": None,
    }


def small_disk_config():
    return {
        "mode": "disk-fm",
        "k": 1.0,
        "disk_medium": {"a": [0.5, 0.0], "n": [5.0, 0.0]},
        "regime": "nonabsorbing",
        "truncation": 10,
        "quad_points": 32,
        "grid": {"bounds": [-1.8, 1.8, -1.8, 1.8], "nx": 15, "ny": 15},
        "filter": None,
    }


def test_presets_cover_all_figures():
    # pinned: code that lists the presets iterates in this order
    assert list(PRESETS) == [f"figure{i}" for i in (1, 2, 3, 4, 6, 7, 5)]


# sha256 of json.dumps(preset): the exact text that manifest.json echoes
_PRESET_SHA256 = {
    "figure1": "8bdf3ecb38f84fcfd8e63c8b297d0ed955411e88373b88bffd00b67e2908f3e0",
    "figure2": "01189091d5f4347a4ea727666a9ba64d859363a3f324cdb7b42bda24c5828e5c",
    "figure3": "09f9b72929a62d08984fdb8b7c95ed5f73ede2a575d90a7bbf496dfaf1d1f95a",
    "figure4": "2a149e5ae65ec020a133baee062c5d1aacd5f19f325f35ed8ec5210e0879f7d4",
    "figure5": "a6152165ca8324eec83222c5b9c178011c0cf2d228cdf4bfc3ccd6d682d6ccd6",
    "figure6": "b30ecb0d3972dfca3997d7ee7501c89ecc577424827c3b4475dccc070bc946e1",
    "figure7": "286b3bc1c6730647276f89d879ad908b59157862f2b14fa1b517ddddd1a2d4de",
}


@pytest.mark.parametrize("preset", sorted(_PRESET_SHA256))
def test_preset_text_is_pinned(preset):
    text = json.dumps(PRESETS[preset])
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESET_SHA256[preset]


def test_presets_share_no_nested_object():
    # callers copy presets shallowly: a list or dict held by two presets would
    # carry an edit of one into the other
    def containers(node):
        if isinstance(node, (dict, list)):
            yield id(node)
            for child in node.values() if isinstance(node, dict) else node:
                yield from containers(child)

    seen = {}
    for name, preset in PRESETS.items():
        for obj in containers(preset):
            assert seen.setdefault(obj, name) == name, f"{name} shares an object with {seen[obj]}"


def test_validate_rejects_unknown_keys():
    cfg = small_music_config()
    cfg["mystery"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)


@pytest.mark.parametrize("mode", ["nope", "disk-mlsm"])
def test_validate_rejects_unknown_mode(mode):
    with pytest.raises(ConfigError):
        validate_config({"mode": mode})


def test_main_removed_disk_mlsm_mode_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "disk-mlsm"}))
    code = main(["run", "--preset", "figure6", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert all(repr(mode) in err["message"] for mode in ("born-music", "disk-fm", "bayes"))


def test_validate_rejects_underresolved_truncation():
    cfg = small_disk_config()
    cfg["truncation"] = 40
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_run_born_music_outputs(tmp_path):
    result = run(config=small_music_config(), out_dir=tmp_path)
    assert result["rank"] >= 1
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "field.pgm").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "born-music"
    assert "wall_time_s" in manifest


def test_run_disk_writes_companion(tmp_path):
    run(config=small_disk_config(), out_dir=tmp_path)
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "mlsm.csv").exists()
    assert (tmp_path / "mlsm.pgm").exists()


def test_run_disk_writes_w_as_field_and_p_as_mlsm(tmp_path):
    # with a filter, P differs from W: field.* holds W and mlsm.* holds P,
    # exactly as fm_mlsm_fields returns them for the same inputs
    tikhonov = {"kind": "tikhonov", "eps": 1e-6}
    run(preset="figure6", config={"grid": {"nx": 21, "ny": 21}, "filter": tikhonov},
        out_dir=tmp_path)
    cfg = copy.deepcopy(PRESETS["figure6"])
    cfg["grid"].update(nx=21, ny=21)
    s = validate_config({**cfg, "filter": tikhonov})
    matrix = assemble_nearfield_matrix(s["disk_medium"], s["truncation"], s["quad_points"])
    _, (w, p) = fm_mlsm_fields(matrix, s["regime"], s["grid"], s["filter"])
    assert (p != w).all()
    for stem, values in (("field", w), ("mlsm", p)):
        back = read_field_csv(tmp_path / f"{stem}.csv")
        assert np.array_equal(back[:, :2], grid_points(s["grid"]))
        assert np.array_equal(back[:, 2], values)


def test_run_unknown_preset():
    with pytest.raises(ConfigError):
        run(preset="figure99")


def test_run_requires_config_or_preset():
    with pytest.raises(ConfigError):
        run()


def test_determinism_byte_identical(tmp_path):
    run(config=small_music_config(), out_dir=tmp_path / "a")
    run(config=small_music_config(), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "field.csv").read_bytes() == (
        tmp_path / "b" / "field.csv"
    ).read_bytes()


def test_csv_full_precision_roundtrip(tmp_path):
    run(config=small_disk_config(), out_dir=tmp_path)
    data = read_field_csv(tmp_path / "field.csv")
    assert data.shape == (225, 3)
    assert np.all(np.isfinite(data))


def validate_pgm(path):
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = [int(t) for t in tokens[4:]]
    assert len(pixels) == w * h
    assert all(0 <= p <= maxval for p in pixels)
    assert maxval == 255


def test_pgm_grammar(tmp_path):
    run(config=small_disk_config(), out_dir=tmp_path)
    validate_pgm(tmp_path / "field.pgm")
    validate_pgm(tmp_path / "mlsm.pgm")


# ---------------------------------------------------------------------------
# process-level interface


def test_main_success(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_disk_config()))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["retained_modes"] >= 1


def test_main_config_error_exit_2(tmp_path, capsys):
    cfg_dict = small_disk_config()
    cfg_dict["truncation"] = 40
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict))
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_main_numerical_error_exit_3(tmp_path, capsys):
    cfg_dict = small_disk_config()
    # a numerically exact resonance of the m = 0 series denominator
    cfg_dict["disk_medium"] = {"a": [1.0, 0.0], "n": [1.2522593555094796, -1.625069365435874]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"


def test_main_unreadable_config(tmp_path, capsys):
    cfg = tmp_path / "nope.json"
    code = main(["run", "--config", str(cfg)])
    assert code == 2


def test_preset_with_seed_override(tmp_path):
    run(preset="figure1", out_dir=tmp_path / "a", seed=9)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["noise"]["seed"] == 9


def test_steering_matrix_built_once_per_run(tmp_path, monkeypatch):
    # the steering columns are built once per run, FM and MLSM sharing them,
    # and only on the fundamental domain F = {x >= 0, 0 <= y <= x} of the
    # square's mirror maps, which send these sensors and grids onto
    # themselves; the images of F under those maps cover the whole grid
    original = sampling.fundamental_solution_many
    for preset in ("figure1", "figure6"):
        blocks = []

        def recording(k, points_x, points_y):
            blocks.append(np.array(points_y))
            return original(k, points_x, points_y)

        monkeypatch.setattr(sampling, "fundamental_solution_many", recording)
        run(preset=preset, out_dir=tmp_path / preset)
        g = PRESETS[preset]["grid"]
        grid = make_grid(g["bounds"], g["nx"], g["ny"])
        nx, ny = grid.nx, grid.ny
        built = np.concatenate(blocks)
        assert len(built) == len(np.unique(built, axis=0)) == 51 * 52 // 2
        # every built point is a grid point, named by its centred lattice
        # indices (u, v) = (2 ix - (nx - 1), 2 iy - (ny - 1))
        ix = np.searchsorted(grid.xs, built[:, 0])
        iy = np.searchsorted(grid.ys, built[:, 1])
        assert np.array_equal(np.column_stack([grid.xs[ix], grid.ys[iy]]), built)
        u, v = 2 * ix - (nx - 1), 2 * iy - (ny - 1)
        assert np.all((0 <= v) & (v <= u))
        images = set()
        for a, b in ((u, v), (v, u)):
            for su in (1, -1):
                for sv in (1, -1):
                    images.update(zip((su * a).tolist(), (sv * b).tolist()))
        lattice = {(2 * i - (nx - 1), 2 * j - (ny - 1)) for i in range(nx) for j in range(ny)}
        assert images == lattice


def test_preset_override_merges_nested_objects(tmp_path):
    override = {"bayes": {"seed": 3, "iterations": 300, "burn_in": 100}, "noise": {"seed": 5}}
    run(preset="figure4", config=override, out_dir=tmp_path)
    cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert cfg["bayes"] == {**PRESETS["figure4"]["bayes"], **override["bayes"]}
    assert cfg["noise"] == {"delta": 0.15, "seed": 5}
    assert (tmp_path / "summary.json").exists()


def test_preset_override_replaces_lists(tmp_path):
    scatterers = PRESETS["figure1"]["scatterers"][:1]
    override = {"scatterers": scatterers, "grid": {"nx": 11, "ny": 11}}
    run(preset="figure1", config=override, out_dir=tmp_path)
    cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert cfg["scatterers"] == scatterers
    assert cfg["grid"] == {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 11, "ny": 11}
    assert PRESETS["figure1"]["grid"]["nx"] == 101  # the preset itself is untouched


_DISK_SUPPORT = {"type": "disk", "center": [0, 0], "radius": 0.3}
_SHORT_CHAIN = {"iterations": 300, "burn_in": 100}


@pytest.mark.parametrize(
    "support",
    [_DISK_SUPPORT, {**_DISK_SUPPORT, "corner_min": None, "corner_max": None}],
    ids=["disk", "disk-nulling-the-corners"],
)
def test_preset_override_switches_the_support_shape(tmp_path, capsys, monkeypatch, support):
    shapes = []

    def recording(shape, *args, **kwargs):
        shapes.append(shape)
        return make_bayes_model(shape, *args, **kwargs)

    monkeypatch.setattr(cli.bayes_mod, "make_bayes_model", recording)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bayes": {"support": support, **_SHORT_CHAIN}}))
    out = tmp_path / "out"
    code = main(["run", "--preset", "figure4", "--config", str(cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert shapes == [Disk(center=(0.0, 0.0), radius=0.3)]
    assert json.loads((out / "manifest.json").read_text())["config"]["bayes"]["support"] == support


@pytest.mark.parametrize(
    "support",
    [{"type": "rectangle", "corner_max": [0.3, 0.3]}, {"corner_max": [0.3, 0.3]}],
    ids=["same-type", "no-type"],
)
def test_preset_override_of_the_same_shape_merges(tmp_path, support):
    run(preset="figure4", config={"bayes": {"support": support, **_SHORT_CHAIN}}, out_dir=tmp_path)
    cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert cfg["bayes"]["support"] == {
        "type": "rectangle", "corner_min": [-0.2, -0.2], "corner_max": [0.3, 0.3]
    }


def test_preset_override_unknown_shape_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    support = {**_DISK_SUPPORT, "corner_min": [-0.2, -0.2]}
    cfg.write_text(json.dumps({"bayes": {"support": support}}))
    code = main(["run", "--preset", "figure4", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "unknown key(s) ['corner_min'] in bayes.support" in err["message"]


def test_preset_override_must_be_an_object():
    with pytest.raises(ConfigError):
        run(preset="figure1", config=["not", "an", "object"])


@pytest.mark.parametrize(
    "preset, mode, key",
    [
        ("figure1", "born-music", "sensors"),
        ("figure1", "born-music", "scatterers"),
        ("figure1", "born-music", "grid"),
        ("figure6", "disk-fm", "disk_medium"),
        ("figure6", "disk-fm", "grid"),
        ("figure4", "bayes", "sensors"),
        ("figure4", "bayes", "scatterers"),
        ("figure4", "bayes", "bayes"),
    ],
)
def test_main_missing_required_key_exit_2(tmp_path, capsys, preset, mode, key):
    cfg_dict = {**PRESETS[preset], "mode": mode}
    del cfg_dict[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "config"
    assert key in err["message"]


@pytest.mark.parametrize(
    "preset, key",
    [
        ("figure1", "sensors.count"),
        ("figure1", "sensors.radius"),
        ("figure1", "grid.bounds"),
        ("figure1", "grid.nx"),
        ("figure6", "grid.ny"),
        ("figure6", "disk_medium.a"),
        ("figure6", "disk_medium.n"),
        ("figure4", "sensors.count"),
        ("figure4", "bayes.support"),
    ],
)
def test_main_missing_nested_key_exit_2(tmp_path, capsys, preset, key):
    cfg_dict = json.loads(json.dumps(PRESETS[preset]))
    outer, inner = key.split(".")
    del cfg_dict[outer][inner]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "config"
    assert key in err["message"]


def test_main_wavenumber_beyond_bessel_guard_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1e9}))
    out = tmp_path / "out"
    code = main(["run", "--preset", "figure1", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "numerical"


def test_chain_csv_matches_per_row_reference(tmp_path, monkeypatch):
    original = bayes.run_mh
    summaries = []

    def capturing(model, readings):
        summaries.append(original(model, readings))
        return summaries[-1]

    monkeypatch.setattr(bayes, "run_mh", capturing)
    override = {"bayes": {"iterations": 400, "burn_in": 100}}
    run(preset="figure4", config=override, out_dir=tmp_path)
    (summary,) = summaries
    gamma, logpost = expand_runs(400, *summary.runs)
    lines = ["iteration,gamma,log_post"]
    for it, (g, lp) in enumerate(zip(gamma, logpost)):
        lines.append(f"{it},{g:.17g},{lp:.17g}")
    assert (tmp_path / "chain.csv").read_text() == "\n".join(lines) + "\n"


def _edited_preset(preset, path, value):
    """A copy of the preset with the dotted `path` set to value (deleted when
    value is ...); integer parts index lists."""
    cfg = json.loads(json.dumps(PRESETS[preset]))
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = cfg
    for part in parents:
        node = node[part]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return cfg


def _forbid_phi(monkeypatch):
    def no_phi(*args):
        raise AssertionError("Phi built before the settings were checked")

    for module in (born, sampling, bayes):
        monkeypatch.setattr(module, "fundamental_solution_many", no_phi)


def _main_on(tmp_path, cfg_dict):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_dict))
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "key, value",
    [
        ("thinning", 0),
        ("thinning", -1),
        ("prior_sd", 0),
        ("prior_sd", -1e5),
        ("iterations", "abc"),
        ("iterations", float("inf")),
        ("burn_in", -5),
        ("seed", -1),
        ("h", "abc"),
        ("proposal_sd_eta", "abc"),
        ("proposal_sd_eta", 0),
        ("proposal_sd_gamma", -0.5),
        ("rule_order", 0),
        ("thinning", 15000),
    ],
)
def test_main_bad_bayes_setting_exit_2_or_3(tmp_path, capsys, key, value):
    code = _main_on(tmp_path, _edited_preset("figure4", f"bayes.{key}", value))
    assert code in (2, 3)
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] in ("config", "numerical")


@pytest.mark.parametrize(
    "key, value",
    [
        ("thinning", 0),
        ("prior_sd", 0),
        ("h", -1),
        ("seed", -1),
        ("rule_order", 0),
        ("burn_in", 30000),
        ("thinning", 15000),
        ("iterations", 1e12),
    ],
)
def test_main_out_of_range_bayes_setting_exit_2(tmp_path, capsys, key, value):
    # the model rejects these before any MH step runs: a config error, not a
    # numerical one
    code = _main_on(tmp_path, _edited_preset("figure4", f"bayes.{key}", value))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "config"


@pytest.mark.parametrize(
    "key, value",
    [
        ("prior_sd", 1e-300),
        ("h", 1e-200),
        ("h", 1e200),
        ("prior_sd", 1e200),
    ],
)
def test_main_bayes_setting_whose_square_leaves_the_float_range_exit_2(
        tmp_path, capsys, key, value):
    # h^2 and prior_sd^2 would be 0 or inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bayes": {key: value}}))
    code = main(["run", "--preset", "figure4", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "config"
    assert err["message"].startswith(f"bayes: {key} = ")


@pytest.mark.parametrize(
    "preset, path, value, message",
    [
        ("figure4", "bayes.thinning", 15000, "bayes: thinning 15000 keeps 1 draw"),
        ("figure6", "disk_medium.a", 0, "disk_medium: disk coefficient a must be nonzero"),
        ("figure1", "rule_order", 1, "rule_order: quadrature order must be"),
        ("figure4", "bayes.rule_order", 1, "bayes: quadrature order must be"),
    ],
)
def test_main_setting_a_library_object_rejects_names_its_path_exit_2(
        tmp_path, capsys, preset, path, value, message):
    # the two rule_order settings fail with one library message: only the
    # path tells them apart
    code = _main_on(tmp_path, _edited_preset(preset, path, value))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert err["message"].startswith(message)


@pytest.mark.parametrize(
    "preset, grid, code, message",
    [
        ("figure6", {"bounds": [-2, 2, -2, 2], "nx": 5, "ny": 5}, 2, "(2, 0) is a sensor"),
        ("figure1", {"bounds": [-1, 1, -1, 1], "nx": 3, "ny": 3}, 2, "(1, 0) is a sensor"),
        # (0, ±R) miss the sensors at R(cos, sin)(±pi/2) by about 1e-16
        ("figure6", {"bounds": [-2, 2, -2, 2], "nx": 5, "ny": 2}, 0, None),
        ("figure1", {"bounds": [-1, 1, -1, 1], "nx": 3, "ny": 2}, 0, None),
    ],
    ids=["disk-fm-on-sensor", "born-music-on-sensor", "disk-fm-near-miss",
         "born-music-near-miss"],
)
def test_main_grid_point_on_a_sensor_exit_2_near_miss_exit_0(
        tmp_path, capsys, preset, grid, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid}))
    assert main(["run", "--preset", preset, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.err == ""
        return
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert err["message"].startswith(f"grid: lattice point {message}")


def test_proposal_sd_setting_is_an_unknown_key_exit_2(tmp_path, capsys):
    # the proposal is N(0, (2.38^2/dim) Q^-1), worked out from the model:
    # no config setting shapes it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bayes": {"proposal_sd_eta": 0.1}}))
    code = main(["run", "--preset", "figure4", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert "unknown key(s) ['proposal_sd_eta'] in bayes" in err["message"]


def test_precision_that_cholesky_rejects_names_its_settings_exit_3(tmp_path, capsys):
    # at h = 1e-20 the 1/h^2 terms swamp the data term, and Q is singular in
    # floating point: the chain cannot be whitened
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bayes": {"h": 1e-20}}))
    code = main(["run", "--preset", "figure4", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "numerical"
    assert "h = 1e-20" in err["message"]
    assert "prior_sd = 100000" in err["message"]


@pytest.mark.parametrize("h", [1e-150, 1e-10])
def test_precision_whose_data_term_rounds_away_names_h_exit_3(tmp_path, capsys, h):
    # Cholesky takes this Q, but its data term is below eps of the 1/h^2 term
    # and rounds away: the chain would sample the prior alone
    code = _main_on(tmp_path, _edited_preset("figure4", "bayes.h", h))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "numerical"
    assert f"h = {h:g}" in err["message"]


@pytest.mark.parametrize("k", [1e-80, 1e-150])
def test_readings_whose_noise_square_underflows_name_delta_exit_3(tmp_path, capsys, k):
    # the readings scale as k^2, so delta^2 is subnormal at k = 1e-80 and
    # delta itself is 0 at k = 1e-150
    code = _main_on(tmp_path, _edited_preset("figure4", "k", k))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "numerical"
    assert "delta" in err["message"]
    assert "too small" in err["message"]


def test_precision_whose_data_term_is_above_the_float_precision_runs(tmp_path):
    # at h = 1e-8 the data term is about 1.7e-14 of the 1/h^2 term
    run(preset="figure4", config={"bayes": {"h": 1e-8}}, out_dir=tmp_path)
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "preset, path, center",
    [("figure1", "scatterers.0.shape", [-0.5, 0.5]), ("figure4", "bayes.support", [0.0, 0.0])],
)
def test_a_disk_writes_the_bytes_of_the_ellipse_with_equal_semi_axes(tmp_path, preset, path,
                                                                       center):
    disk = {"type": "disk", "center": center, "radius": 0.2}
    ellipse = {"type": "ellipse", "center": center, "a": 0.2, "b": 0.2}
    if preset == "figure1":
        assert PRESETS[preset]["scatterers"][0]["shape"] == disk
    for name, shape in (("disk", disk), ("ellipse", ellipse)):
        run(config=_edited_preset(preset, path, shape), out_dir=tmp_path / name)
    names = sorted(f.name for f in (tmp_path / "disk").iterdir() if f.name != "manifest.json")
    assert len(names) >= 2
    for name in names:
        assert (tmp_path / "disk" / name).read_bytes() == (tmp_path / "ellipse" / name).read_bytes()


@pytest.mark.parametrize(
    "preset, path, value",
    [
        ("figure1", "scatterers.0.shape.radius", ...),
        ("figure1", "scatterers.1.shape.b", ...),
        ("figure1", "scatterers.0.shape.center", 5),
        ("figure1", "scatterers.0.shape.radius", "abc"),
        ("figure1", "scatterers.0.shape", ...),
        ("figure1", "scatterers.0.index", ...),
        ("figure1", "scatterers.0.index.value", ...),
        ("figure1", "scatterers.0", 5),
        ("figure3", "scatterers.0.index.coeffs", ...),
        ("figure4", "bayes.support.corner_max", ...),
        ("figure1", "noise", {"delta": 0.1}),
        ("figure4", "noise.seed", ...),
        ("figure4", "noise.seed", -3),
        ("figure4", "noise.delta", "abc"),
        ("figure4", "k", "abc"),
        ("figure6", "truncation", "abc"),
        ("figure1", "grid.nx", "abc"),
        ("figure6", "grid.bounds", [0, 1]),
        ("figure1", "grid.bounds", [-0.9, 0.9, "a", 0.9]),
        ("figure1", "rank_override", "abc"),
        ("figure1", "scatterers.0.shape.type", ["disk"]),
        ("figure1", "scatterers.0.index.kind", ["constant"]),
        ("figure1", "mode", ["born-music"]),
        ("figure6", "truncation", -1),
        ("figure1", "grid.nx", 20.7),
        ("figure4", "bayes.iterations", 20000.9),
        ("figure1", "k", "1"),
        ("figure1", "grid.bounds.2", float("nan")),
        ("figure1", "sensors.radius", float("nan")),
        ("figure6", "filter", {"kind": "tikhonov", "eps": float("nan")}),
        ("figure1", "noise.delta", float("nan")),
        ("figure4", "noise.delta", float("nan")),
        ("figure4", "noise.delta", 0),
    ],
)
def test_main_bad_nested_value_exit_2(tmp_path, capsys, monkeypatch, preset, path, value):
    _forbid_phi(monkeypatch)
    code = _main_on(tmp_path, _edited_preset(preset, path, value))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "config"


@pytest.mark.parametrize(
    "preset, path, value",
    [
        ("figure1", "grid.nx", 1),
        ("figure6", "grid.ny", 1),
        ("figure1", "k", 0),
        ("figure6", "k", -1),
        ("figure1", "sensors.count", 0),
        ("figure1", "sensors.radius", 0),
        ("figure1", "sensors.radius", -1),
        ("figure6", "regime", "foo"),
        ("figure7", "filter", {"kind": "bar", "eps": 1}),
        ("figure6", "filter", {"kind": "tikhonov", "eps": 0}),
        ("figure6", "filter", {"kind": "cutoff", "eps": -1}),
        ("figure1", "rule_order", 100),
        ("figure1", "rank_override", 99),
        ("figure1", "rank_override", -1),
        ("figure1", "scatterers.0.epsilon_scale", 0),
        ("figure1", "noise.delta", -1),
        ("figure6", "disk_medium.a", 0),
        # size caps: at the parent these exhausted memory
        ("figure1", "grid.nx", 1e12),
        ("figure1", "sensors.count", 1e9),
        ("figure6", "quad_points", 1e9),
        # 65 scatterers at rule_order 16: 16 640 Born nodes
        ("figure1", "scatterers", PRESETS["figure1"]["scatterers"][:1] * 65),
        # the series evaluates order truncation + 1, and MAX_ORDER is 200
        ("figure6", "truncation", 200),
        # k^2 outside the normal floats: unchecked, figure1 ran on flat or
        # subnormal data and the others failed later in the numerics
        ("figure1", "k", 1e-170),
        ("figure1", "k", 1e-160),
        ("figure1", "k", 1.4e-154),
        ("figure1", "k", 1e200),
        ("figure6", "k", 1e-300),
        ("figure4", "k", 1e-170),
    ],
)
def test_main_out_of_range_imaging_setting_exit_2(
    tmp_path, capsys, monkeypatch, preset, path, value
):
    _forbid_phi(monkeypatch)
    code = _main_on(tmp_path, _edited_preset(preset, path, value))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert path.split(".")[0] in err["message"].split()[0]  # the message names the setting first


_DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 0.3}
_SQUARE = {"type": "rectangle", "corner_min": [-0.2, -0.2], "corner_max": [0.2, 0.2]}


@pytest.mark.parametrize(
    "preset, path, value",
    [
        ("figure1", "scatterers.0.shape.radius", -1.5),
        ("figure1", "scatterers.0.shape.radius", 0),
        ("figure1", "scatterers.1.shape.a", -0.2),
        ("figure1", "scatterers.1.shape.b", 0),
        ("figure3", "scatterers.0.shape.corner_min", [0.2, 0.2]),
        ("figure3", "scatterers.0.shape.corner_max", [0.2, -0.3]),
        ("figure3", "scatterers.0.shape.corner_min", [0.3, -0.2]),
        ("figure4", "scatterers.0.shape", {**_SQUARE, "corner_max": [-0.3, -0.3]}),
        ("figure4", "bayes.support.corner_min", [0.2, 0.2]),
        ("figure5", "bayes.support", {**_DISK, "radius": -0.3}),
        ("figure4", "bayes.support", {"type": "ellipse", "center": [0, 0], "a": 0.3, "b": -0.1}),
    ],
)
def test_main_inside_out_shape_exit_2(tmp_path, capsys, monkeypatch, preset, path, value):
    # a negative size or swapped corners turn a shape inside out: at the
    # parent its quadrature mirrored it into the valid shape and figure1 ran
    _forbid_phi(monkeypatch)
    code = _main_on(tmp_path, _edited_preset(preset, path, value))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    shape_path = path if path.endswith(("shape", "support")) else path.rsplit(".", 1)[0]
    assert err["message"].startswith(shape_path + ": ")


@pytest.mark.parametrize("preset", ["figure1", "figure4"])
def test_main_sensor_inside_a_scatterer_exit_2_before_the_numerics(
    tmp_path, capsys, monkeypatch, preset
):
    # every sensor of the unit circle lies inside a disk of radius 1.5
    def no_runner(s, out_dir):
        raise AssertionError("runner called with a sensor inside a scatterer")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, no_runner))
    disk = {**_DISK, "radius": 1.5}
    code = _main_on(tmp_path, _edited_preset(preset, "scatterers.0.shape", disk))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config"
    assert "scatterer 0" in err["message"]


@pytest.mark.parametrize(
    "preset, override",
    [
        # the grid point (1, 1e-170) misses the first sensor, (1, 0), by a
        # distance whose square underflows
        ("figure1", {"grid": {"bounds": [-1.0, 1.0, -1e-170, 1e-170], "nx": 5, "ny": 2}}),
        # k|x - y| beyond MAX_ABS_ARG on the outer grid points
        ("figure6", {"grid": {"bounds": [-1e3, 1e3, -1e3, 1e3], "nx": 5, "ny": 5}}),
    ],
)
def test_main_phi_error_in_grid_block_exit_3(tmp_path, capsys, monkeypatch, preset, override):
    monkeypatch.setattr(sampling, "_BLOCK", 4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    out = tmp_path / "out"
    code = main(["run", "--preset", preset, "--config", str(cfg), "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "numerical"


def test_main_rank_override_equal_to_sensor_count_writes_the_sentinel_field(tmp_path, capsys):
    # every singular vector is signal: the noise space is empty, the MUSIC
    # sums are 0, and every point, on F and its mirror images alike, reads
    # the sentinel cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank_override": 32, "grid": {"nx": 21, "ny": 21}}))
    out = tmp_path / "out"
    code = main(["run", "--preset", "figure1", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"rank": 32}
    values = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)[:, 2]
    assert values.size == 21 * 21
    assert (values == sampling.SENTINEL_CAP).all()


def test_main_series_overflow_names_order_and_k_exit_3(tmp_path, capsys):
    # |H_m(2k)|^2 passes the largest double near order 100 at k = 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation": 120, "quad_points": 256,
                               "grid": {"nx": 5, "ny": 5}}))
    code = main(["run", "--preset", "figure6", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "numerical"
    assert "order 100" in err["message"] and "k = 1.0" in err["message"]


def test_main_eigensolver_failure_exit_3_with_its_message(tmp_path, capsys, monkeypatch):
    # LAPACK's "did not converge" reaches main as numpy's LinAlgError, which
    # exits 3 as a numerical error carrying LAPACK's own message
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    code = main(["run", "--preset", "figure6", "--out", str(tmp_path / "out")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": "numerical", "message": "Eigenvalues did not converge"}


@pytest.mark.parametrize("preset", ["figure6", "figure7"])
def test_main_filter_that_cuts_every_mode_exit_3(tmp_path, capsys, preset):
    # eps above lambda_1^2 leaves P(z) nothing to sum: such a run used to exit
    # 0 with an mlsm.csv of 1e12 everywhere and an all-128 mlsm.pgm
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": {"kind": "cutoff", "eps": 1e300}}))
    out = tmp_path / "out"
    code = main(["run", "--preset", preset, "--config", str(cfg), "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "numerical"
    assert "eps = 1e+300" in err["message"] and "lambda_1^2 = " in err["message"]
    assert not any(out.iterdir())


def test_run_path_imports_no_scipy(tmp_path):
    # every preset runs with SciPy unimportable, and no scipy module loads,
    # not even lazily inside a run
    script = f"""
import json, sys
sys.modules["scipy"] = None
from nearscat.cli import PRESETS, main
codes = {{}}
for preset in sorted(PRESETS):
    cfg = {str(tmp_path)!r} + "/" + preset + ".json"
    with open(cfg, "w") as fh:
        json.dump({{"grid": {{"nx": 11, "ny": 11}}}} if "grid" in PRESETS[preset] else {{}}, fh)
    out = {str(tmp_path)!r} + "/" + preset
    codes[preset] = main(["run", "--preset", preset, "--config", cfg, "--out", out])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({{"codes": codes, "scipy": loaded}}))
"""
    src = Path(nearscat.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == {preset: 0 for preset in PRESETS}
    assert report["scipy"] == []


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_failure_case_exits_with_one_json_line_and_no_traceback(tmp_path, case):
    # every documented failure, run as a real process (tests/failure_cases.json)
    check_case(case, tmp_path)


@pytest.mark.parametrize("preset", [None, "figure1"])
@pytest.mark.parametrize("depth", [600, 100_000])
def test_deeply_nested_config_exits_2_with_one_stderr_line(tmp_path, depth, preset):
    # valid JSON: 600 levels are too deep to copy, 100,000 too deep to decode
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a": ' * depth + "1" + "}" * depth)
    src = Path(nearscat.__file__).resolve().parents[1]
    argv = ["--preset", preset] if preset else []
    proc = subprocess.run(
        [sys.executable, "-m", "nearscat.cli", "run", *argv,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err_lines = proc.stderr.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "config"


def test_seed_override_keeps_the_mode_noise_default(tmp_path):
    # a bayes config without a noise block reads 15% noise, with --seed too
    cfg = {key: val for key, val in PRESETS["figure4"].items() if key != "noise"}
    cfg["bayes"] = {**cfg["bayes"], "iterations": 400, "burn_in": 100}
    run(config=cfg, out_dir=tmp_path / "seeded", seed=0)
    explicit = {**cfg, "noise": {"delta": 0.15, "seed": 0}}
    explicit["bayes"] = {**cfg["bayes"], "seed": 0}
    run(config=explicit, out_dir=tmp_path / "explicit")
    assert (tmp_path / "seeded" / "chain.csv").read_bytes() == (
        tmp_path / "explicit" / "chain.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "content, seed",
    [(b"[1, 2]", []), (b"[1, 2]", ["--seed", "3"]), (b"\xff\xfe{}", [])],
)
def test_main_unusable_config_file_exit_2(tmp_path, capsys, content, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "config"


@pytest.mark.parametrize("preset, block", [("figure1", "noise"), ("figure4", "bayes")])
def test_main_seed_with_non_object_block_exit_2(tmp_path, capsys, preset, block):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_edited_preset(preset, block, 5)))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "config"


def _small_preset(preset):
    """The preset on a 5x5 grid, or with a 400-step chain."""
    cfg = json.loads(json.dumps(PRESETS[preset]))
    if "grid" in cfg:
        cfg["grid"].update(nx=5, ny=5)
    if "bayes" in cfg:
        cfg["bayes"].update(iterations=400, burn_in=100)
    return cfg


def _leaf_paths(node, path=()):
    """The paths to the values of a config that are neither objects nor lists."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [leaf for key, val in items for leaf in _leaf_paths(val, (*path, key))]


_FUZZ_BASES = {p: _small_preset(p) for p in ("figure1", "figure3", "figure4", "figure6", "figure7")}
# Small sizes only: a valid but large size would make one example slow.
_FUZZ_VALUES = st.sampled_from([
    ..., None, True, -1, 0, 1, 2, 3, 7, 12, 10**12, 0.5, -2.5, 1e-300, 1e300,
    float("nan"), float("inf"), "", "abc", "disk", "constant", "absorbing",
    "born-music", "disk-mlsm", "bayes", [], [1.0, 2.0], {}, {"kind": "tikhonov", "eps": 1e-3},
])


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_fuzzed_setting_exits_0_2_or_3(tmp_path, capsys, data):
    # one leaf of a small preset replaced (... deletes it): the run ends in
    # exit 0 with its result on stdout, or exit 2 or 3 with one JSON line
    # on stderr, never in a traceback
    capsys.readouterr()
    cfg = copy.deepcopy(_FUZZ_BASES[data.draw(st.sampled_from(sorted(_FUZZ_BASES)))])
    *parents, last = data.draw(st.sampled_from(_leaf_paths(cfg)))
    node = cfg
    for part in parents:
        node = node[part]
    value = data.draw(_FUZZ_VALUES)
    if value is ...:
        del node[last]
    else:
        node[last] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    seed = data.draw(st.sampled_from([[], ["--seed", "3"]]))
    code = main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), *seed])
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    written, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert silent == ""
    (line,) = written.splitlines()
    result = json.loads(line)
    if code:
        assert result["error"] == {2: "config", 3: "numerical"}[code]


@pytest.mark.parametrize("setting", ["--out", "output_dir"])
@pytest.mark.parametrize("below_file", [False, True], ids=["a-file", "below-a-file"])
def test_unusable_output_dir_exit_2_before_the_numerics(
    tmp_path, capsys, monkeypatch, setting, below_file
):
    # an existing file, or a path below one, cannot be created as the output
    # directory: exit 2 with one JSON line, and no runner starts
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out" if below_file else blocker)

    def no_runner(s, out_dir):
        raise AssertionError("runner called with an unusable output directory")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, no_runner))
    if setting == "--out":
        code = main(["run", "--preset", "figure2", "--out", out])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": out}))
        code = main(["run", "--preset", "figure2", "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "config"


def test_output_write_error_exit_2(tmp_path, capsys, monkeypatch):
    def disk_full(grid, values, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, "write_field_csv", disk_full)
    assert _main_on(tmp_path, small_disk_config()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "config"


@pytest.mark.parametrize(
    "preset, shape",
    [
        ("figure1", {"type": "disk", "center": [-0.5, 0.5], "radius": 0.1}),
        ("figure3", {"type": "rectangle", "corner_min": [-0.1, -0.1], "corner_max": [0.1, 0.1]}),
    ],
)
def test_epsilon_scale_runs_the_scaled_shape(tmp_path, preset, shape):
    # 0.5 * 0.2 == 0.1 exactly, so both runs see the same shape
    run(config=_edited_preset(preset, "scatterers.0.epsilon_scale", 0.5), out_dir=tmp_path / "e")
    run(config=_edited_preset(preset, "scatterers.0.shape", shape), out_dir=tmp_path / "s")
    scaled = (tmp_path / "e" / "field.csv").read_bytes()
    assert scaled == (tmp_path / "s" / "field.csv").read_bytes()
