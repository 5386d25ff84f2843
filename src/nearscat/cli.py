"""Configuration-driven experiment runner.

A run is described by a single JSON file (schema below, unknown keys
rejected), or by a named preset mirroring the standard experiment
configurations; `--config` on top of `--preset` merges in overrides.

Outputs per run: field.csv + field.pgm + manifest.json (reconstruction
modes; disk modes additionally write the companion indicator), or
chain.csv + summary.json + manifest.json (bayes mode).  Exit codes:
0 success, 2 configuration error, 3 numerical error.
"""

import argparse
import copy
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bayes as bayes_mod
from . import disk as disk_mod
from .born import add_noise, assemble_multistatic
from .errors import ConfigError, DomainError, NearscatError
from .fields import write_chain_csv, write_field_csv, write_field_pgm
from .geometry import (
    Disk,
    Ellipse,
    Rectangle,
    ScattererSpec,
    constant_index,
    make_grid,
    make_sensor_array,
)
from .linalg import REGIMES, nsharp
from .music import build_music, music_field
from .sampling import FilterSpec, fm_mlsm_fields, make_picard_data

# ---------------------------------------------------------------------------
# Presets: the standard experiment configurations at desk scale.

PRESETS = {
    "figure1": {
        "mode": "born-music",
        "k": 1.0,
        "sensors": {"count": 32, "radius": 1.0},
        "scatterers": [
            {
                "shape": {"type": "disk", "center": [-0.5, 0.5], "radius": 0.2},
                "index": {"kind": "constant", "value": [5.0, 0.0]},
            },
            {
                "shape": {"type": "ellipse", "center": [0.5, -0.5], "a": 0.2, "b": 0.1},
                "index": {"kind": "constant", "value": [5.0, 0.0]},
            },
        ],
        "rule_order": 16,
        "grid": {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 101, "ny": 101},
        "noise": {"delta": 0.0, "seed": 7},
        "rank_override": None,
    },
    "figure2": {
        "mode": "born-music",
        "k": 1.0,
        "sensors": {"count": 32, "radius": 1.0},
        "scatterers": [
            {
                "shape": {"type": "ellipse", "center": [0.5, -0.5], "a": 0.2, "b": 0.1},
                "index": {"kind": "constant", "value": [2.0, 1.0]},
            }
        ],
        "rule_order": 16,
        "grid": {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 101, "ny": 101},
        "noise": {"delta": 0.0, "seed": 7},
        "rank_override": None,
    },
    "figure3": {
        "mode": "born-music",
        "k": 1.0,
        "sensors": {"count": 32, "radius": 1.0},
        "scatterers": [
            {
                "shape": {
                    "type": "rectangle",
                    "corner_min": [-0.2, -0.2],
                    "corner_max": [0.2, 0.2],
                },
                "index": {"kind": "poly_x1", "coeffs": [2.0, 0.0, 1.0]},
            }
        ],
        "rule_order": 16,
        "grid": {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 101, "ny": 101},
        "noise": {"delta": 0.0, "seed": 7},
        "rank_override": None,
    },
    "figure4": {
        "mode": "bayes",
        "k": 1.0,
        "sensors": {"count": 32, "radius": 1.0},
        "scatterers": [
            {
                "shape": {
                    "type": "rectangle",
                    "corner_min": [-0.2, -0.2],
                    "corner_max": [0.2, 0.2],
                },
                "index": {"kind": "poly_x1", "coeffs": [2.0, 0.0, 1.0]},
            }
        ],
        "rule_order": 16,
        "noise": {"delta": 0.15, "seed": 11},
        "bayes": {
            "support": {
                "type": "rectangle",
                "corner_min": [-0.2, -0.2],
                "corner_max": [0.2, 0.2],
            },
            "rule_order": 3,
            "h": None,
            "prior_sd": 1e5,
            "iterations": 20000,
            "burn_in": 5000,
            "thinning": 1,
            "seed": 101,
        },
    },
    "figure6": {
        "mode": "disk-fm",
        "k": 1.0,
        "disk_medium": {"a": [0.5, 0.0], "n": [5.0, 0.0]},
        "regime": "nonabsorbing",
        "truncation": 20,
        "quad_points": 64,
        "grid": {"bounds": [-1.8, 1.8, -1.8, 1.8], "nx": 101, "ny": 101},
        "filter": None,
    },
    "figure7": {
        "mode": "disk-fm",
        "k": 1.0,
        "disk_medium": {"a": [3.0, -1.0], "n": [0.25, 2.0]},
        "regime": "absorbing",
        "truncation": 20,
        "quad_points": 64,
        "grid": {"bounds": [-1.8, 1.8, -1.8, 1.8], "nx": 101, "ny": 101},
        "filter": None,
    },
}
PRESETS["figure5"] = copy.deepcopy(PRESETS["figure4"])
PRESETS["figure5"]["bayes"]["support"] = {
    "type": "rectangle",
    "corner_min": [-0.265, -0.265],
    "corner_max": [0.265, 0.265],
}


# ---------------------------------------------------------------------------
# Config parsing / validation


def _require_keys(d, allowed, context, required=()):
    """d must be an object with keys from `allowed` that has every `required` key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ConfigError(f"{context} needs key(s) {missing}")


def _cast(value, cast, context):
    """cast(value); a value it rejects is a ConfigError naming `context`."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") from None


def _complex_of(v, context):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(_cast(v[0], float, context), _cast(v[1], float, context))
    raise ConfigError(f"{context}: expected number or [re, im], got {v!r}")


def _point_of(v, context):
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{context}: expected a point [x, y], got {v!r}")
    return (_cast(v[0], float, context), _cast(v[1], float, context))


SHAPE_KEYS = {
    "disk": ("center", "radius"),
    "ellipse": ("center", "a", "b"),
    "rectangle": ("corner_min", "corner_max"),
}


def _shape_of(d, context):
    t = d.get("type") if isinstance(d, dict) else None
    if not isinstance(t, str) or t not in SHAPE_KEYS:
        raise ConfigError(
            f"{context}: shape must be an object with a 'type' in {sorted(SHAPE_KEYS)}"
        )
    _require_keys(d, {"type", *SHAPE_KEYS[t]}, context, SHAPE_KEYS[t])
    if t == "disk":
        return Disk(center=_point_of(d["center"], f"{context}.center"),
                    radius=_cast(d["radius"], float, f"{context}.radius"))
    if t == "ellipse":
        return Ellipse(center=_point_of(d["center"], f"{context}.center"),
                       a=_cast(d["a"], float, f"{context}.a"),
                       b=_cast(d["b"], float, f"{context}.b"))
    return Rectangle(corner_min=_point_of(d["corner_min"], f"{context}.corner_min"),
                     corner_max=_point_of(d["corner_max"], f"{context}.corner_max"))


INDEX_KEYS = {"constant": ("value",), "poly_x1": ("coeffs",)}


def _index_of(d, context):
    context = f"{context}.index"
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in INDEX_KEYS:
        raise ConfigError(
            f"{context}: index must be an object with a 'kind' in {sorted(INDEX_KEYS)}"
        )
    _require_keys(d, {"kind", "value", "coeffs"}, context, INDEX_KEYS[kind])
    if kind == "constant":
        return constant_index(_complex_of(d["value"], f"{context}.value"))
    if not isinstance(d["coeffs"], list):
        raise ConfigError(f"{context}.coeffs: expected a list, got {d['coeffs']!r}")
    coeffs = [_cast(c, float, f"{context}.coeffs") for c in d["coeffs"]]

    def fn(x1, x2):
        out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
        for p, c in enumerate(coeffs):
            out += c * np.asarray(x1) ** p
        return out

    return fn


def _scatterers_of(cfg):
    if not isinstance(cfg["scatterers"], list):
        raise ConfigError("scatterers must be a list")
    specs = []
    for i, s in enumerate(cfg["scatterers"]):
        ctx = f"scatterers[{i}]"
        _require_keys(s, {"shape", "index", "epsilon_scale"}, ctx, ("shape", "index"))
        specs.append(
            ScattererSpec(
                shape=_shape_of(s["shape"], ctx),
                index_fn=_index_of(s["index"], ctx),
                epsilon_scale=_cast(s.get("epsilon_scale", 1.0), float, f"{ctx}.epsilon_scale"),
            )
        )
    return specs


def _noise_of(cfg, default_delta):
    """(delta, seed) of the noise settings; the seed is required when delta > 0."""
    noise = cfg.get("noise", {"delta": default_delta, "seed": 0})
    _require_keys(noise, {"delta", "seed"}, "noise")
    delta = _cast(noise.get("delta", default_delta), float, "noise.delta")
    if delta > 0.0 and "seed" not in noise:
        raise ConfigError("noise.seed is required when noise.delta > 0")
    seed = _cast(noise.get("seed", 0), int, "noise.seed")
    if seed < 0:
        raise ConfigError(f"noise.seed must be nonnegative, got {seed}")
    return delta, seed


# Keys each runner reads without a default; a dot steps into a nested object.
_GRID_KEYS = ("grid.bounds", "grid.nx", "grid.ny")
_SENSOR_KEYS = ("sensors.count", "sensors.radius")
_DISK_KEYS = ("disk_medium.a", "disk_medium.n", *_GRID_KEYS)
REQUIRED_KEYS = {
    "born-music": (*_SENSOR_KEYS, "scatterers", *_GRID_KEYS),
    "disk-fm": _DISK_KEYS,
    "disk-mlsm": _DISK_KEYS,
    "bayes": (*_SENSOR_KEYS, "scatterers", "bayes.support"),
}

TOP_KEYS = {
    "mode",
    "k",
    "sensors",
    "scatterers",
    "rule_order",
    "grid",
    "noise",
    "rank_override",
    "disk_medium",
    "regime",
    "truncation",
    "quad_points",
    "filter",
    "bayes",
    "output_dir",
}


def _has_key(cfg, dotted):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, TOP_KEYS, "config")
    mode = cfg.get("mode")
    if not isinstance(mode, str) or mode not in REQUIRED_KEYS:
        raise ConfigError(f"unknown mode {mode!r}")
    missing = [key for key in REQUIRED_KEYS[mode] if not _has_key(cfg, key)]
    if missing:
        raise ConfigError(f"mode {mode!r} needs key(s) {missing}")
    if mode in ("disk-fm", "disk-mlsm"):
        _disk_sizes(cfg)
    return cfg


def _disk_sizes(cfg):
    """(truncation, quad_points) of a disk config, checked against each other."""
    m = _cast(cfg.get("truncation", 20), int, "truncation")
    q = _cast(cfg.get("quad_points", 64), int, "quad_points")
    if m < 0:
        raise ConfigError(f"truncation must be nonnegative, got {m}")
    if q < 2 * m + 2:
        raise ConfigError(
            f"quad_points = {q} cannot resolve truncation {m}; need >= {2 * m + 2}"
        )
    return m, q


# ---------------------------------------------------------------------------
# Runners


def _grid_of(cfg):
    g = cfg["grid"]
    _require_keys(g, {"bounds", "nx", "ny"}, "grid")
    if not (isinstance(g["bounds"], list) and len(g["bounds"]) == 4):
        raise ConfigError(
            f"grid.bounds: expected [xmin, xmax, ymin, ymax], got {g['bounds']!r}"
        )
    bounds = tuple(_cast(b, float, "grid.bounds") for b in g["bounds"])
    nx, ny = _cast(g["nx"], int, "grid.nx"), _cast(g["ny"], int, "grid.ny")
    try:
        return make_grid(bounds, nx, ny)
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from None


def export_field(fld, out_dir, stem="field"):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field_csv(fld, out_dir / f"{stem}.csv")
    write_field_pgm(fld, out_dir / f"{stem}.pgm")


def _write_manifest(out_dir, cfg, t0):
    manifest = {
        "config": cfg,
        "git_describe": None,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _sensors_of(cfg):
    s = cfg["sensors"]
    count = _cast(s["count"], int, "sensors.count")
    radius = _cast(s["radius"], float, "sensors.radius")
    try:
        return make_sensor_array(count, radius)
    except DomainError as exc:
        raise ConfigError(f"sensors: {exc}") from None


def _wavenumber_of(cfg):
    k = _cast(cfg.get("k", 1.0), float, "k")
    if not k > 0.0:
        raise ConfigError(f"k must be positive, got {k}")
    return k


def _filter_of(cfg):
    """The MLSM filter of a disk config; None selects the rank cutoff."""
    fdict = cfg.get("filter")
    if not fdict:
        return None
    _require_keys(fdict, {"kind", "eps", "a"}, "filter", ("kind",))
    try:
        return FilterSpec(
            kind=fdict["kind"], eps=_cast(fdict.get("eps"), float, "filter.eps"),
            a=_cast(fdict["a"], float, "filter.a") if fdict.get("a") is not None else None,
        )
    except DomainError as exc:
        raise ConfigError(f"filter: {exc}") from None


def _run_born_music(cfg, out_dir):
    sensors = _sensors_of(cfg)
    k = _wavenumber_of(cfg)
    grid = _grid_of(cfg)
    specs = _scatterers_of(cfg)
    rule_order = _cast(cfg.get("rule_order", 16), int, "rule_order")
    matrix = assemble_multistatic(specs, sensors, k, rule_order)
    delta, seed = _noise_of(cfg, 0.0)
    if delta > 0.0:
        matrix = add_noise(matrix, delta, seed)
    rank = cfg.get("rank_override")
    model = build_music(
        matrix, rank_override=None if rank is None else _cast(rank, int, "rank_override")
    )
    fld = music_field(model, sensors, k, grid)
    export_field(fld, out_dir)
    return {"rank": model.rank}


def _run_disk(cfg, out_dir):
    dm = cfg["disk_medium"]
    _require_keys(dm, {"a", "n"}, "disk_medium")
    medium = disk_mod.DiskMedium(
        a=_complex_of(dm["a"], "disk_medium.a"),
        n=_complex_of(dm["n"], "disk_medium.n"),
        k=_wavenumber_of(cfg),
    )
    m, q = _disk_sizes(cfg)
    regime = cfg.get("regime", "nonabsorbing")
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {list(REGIMES)}, got {regime!r}")
    grid = _grid_of(cfg)
    filt = _filter_of(cfg)
    matrix = disk_mod.assemble_nearfield_matrix(medium, m, q)
    data = make_picard_data(
        nsharp(matrix, regime), weight=2.0 * np.pi * disk_mod.SENSOR_RADIUS / q
    )
    sensors = make_sensor_array(q, disk_mod.SENSOR_RADIUS)
    w_field, p_field = fm_mlsm_fields(data, sensors, medium.k, grid, filt)
    primary, companion, stem = (
        (w_field, p_field, "mlsm") if cfg["mode"] == "disk-fm" else (p_field, w_field, "fm")
    )
    export_field(primary, out_dir)
    export_field(companion, out_dir, stem=stem)
    return {"retained_modes": int(data.size)}


# Numeric settings of the bayes block; an absent or null one takes the
# default of make_bayes_model / BayesModel.
BAYES_SETTINGS = {
    "rule_order": int,
    "h": float,
    "prior_sd": float,
    "proposal_sd_gamma": float,
    "proposal_sd_eta": float,
    "iterations": int,
    "burn_in": int,
    "thinning": int,
    "seed": int,
}


def _run_bayes(cfg, out_dir):
    sensors = _sensors_of(cfg)
    specs = _scatterers_of(cfg)
    k = _wavenumber_of(cfg)
    delta, seed = _noise_of(cfg, 0.15)
    readings = bayes_mod.synthesize_readings(
        specs, sensors, k,
        noise_frac=delta,
        seed=seed,
        rule_order=_cast(cfg.get("rule_order", 16), int, "rule_order"),
    )
    bc = cfg["bayes"]
    _require_keys(bc, {"support", *BAYES_SETTINGS}, "bayes")
    settings = {
        key: _cast(bc[key], cast, f"bayes.{key}")
        for key, cast in BAYES_SETTINGS.items()
        if bc.get(key) is not None
    }
    support = _shape_of(bc["support"], "bayes.support")
    try:
        model = bayes_mod.make_bayes_model(support, k, **settings)
    except DomainError as exc:
        raise ConfigError(f"bayes: {exc}") from None
    if model.kept < 2:
        raise ConfigError(
            f"bayes.thinning {model.thinning} keeps {model.kept} sample after "
            "burn-in; the sd needs 2"
        )
    summary = bayes_mod.run_mh(model, readings)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_chain_csv(summary.chain_gamma, summary.chain_logpost, out_dir / "chain.csv")
    stats = {
        "mean": summary.mean,
        "sd": summary.sd,
        "map": summary.map_estimate,
        "acceptance_rate": summary.acceptance_rate,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    return stats


def _merge_into(base, override):
    """Apply override to base in place: dicts merge key by key, recursively;
    any other value (lists included) replaces the base value."""
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge_into(base[key], val)
        else:
            base[key] = val


def run(config=None, preset=None, out_dir=None, seed=None):
    """Execute one experiment; returns a result dict.  Raises ConfigError /
    NearscatError on invalid input or numerical failure."""
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        cfg = copy.deepcopy(PRESETS[preset])
        if config:
            if not isinstance(config, dict):
                raise ConfigError("config must be a JSON object")
            _merge_into(cfg, copy.deepcopy(config))
    elif config is not None:
        cfg = copy.deepcopy(config)
    else:
        raise ConfigError("either a config or a preset is required")
    if seed is not None:
        cfg.setdefault("noise", {})
        for block in ("noise", "bayes"):
            if isinstance(cfg.get(block), dict):  # anything else fails validation
                cfg[block]["seed"] = int(seed)
    if out_dir is None:
        out_dir = cfg.get("output_dir", "out")
    validate_config(cfg)
    t0 = time.monotonic()
    mode = cfg["mode"]
    if mode == "born-music":
        result = _run_born_music(cfg, out_dir)
    elif mode in ("disk-fm", "disk-mlsm"):
        result = _run_disk(cfg, out_dir)
    else:
        result = _run_bayes(cfg, out_dir)
    _write_manifest(out_dir, cfg, t0)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nearscat")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--config", type=Path, default=None)
    runp.add_argument("--out", type=Path, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--preset", type=str, default=None)
    args = parser.parse_args(argv)

    cfg = None
    if args.config is not None:
        try:
            cfg = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
            return 2
    try:
        result = run(config=cfg, preset=args.preset, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (NearscatError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
