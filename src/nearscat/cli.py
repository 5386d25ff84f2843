"""Configuration-driven experiment runner.

A run is described by a single JSON file, or by a named preset mirroring the
standard experiment configurations; `--config` on top of `--preset` merges
in overrides.  The schema is the per-mode table `MODES` below: every key a
mode reads, its reader (type and the ranges no library object checks) and
its default; unknown keys are rejected.  `validate_config` turns a config
into typed run inputs before any numerics run.

Outputs per run: field.csv + field.pgm + manifest.json (reconstruction
modes; disk-fm writes W there and P as mlsm.csv + mlsm.pgm), or
chain.csv + summary.json + manifest.json (bayes mode).  Exit codes:
0 success, 2 configuration error (an output directory that cannot be
created or written included), 3 numerical error, each error with one JSON
line on stderr.
"""

import argparse
import copy
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import bayes as bayes_mod
from . import disk as disk_mod
from .born import DEFAULT_RULE_ORDER, add_noise, assemble_multistatic, check_sensors_outside
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
    quadrature_order,
    scaled,
)
from .linalg import REGIMES
from .music import music_field
from .sampling import FilterSpec, fm_mlsm_fields
from .specfun import MAX_ORDER

# ---------------------------------------------------------------------------
# Presets: the standard experiment configurations at desk scale.  Each figure
# family varies one thing on a shared setup: the scatterer (figures 1-3), the
# assumed support (figures 4-5) or the medium (figures 6-7).  Every builder
# returns new objects, so no two presets share a nested list or dict.


def _square(half):
    return {"type": "rectangle", "corner_min": [-half, -half], "corner_max": [half, half]}


def _ellipse(value):
    """The ellipse of figures 1-2 with the constant index value = [re, im]."""
    return {
        "shape": {"type": "ellipse", "center": [0.5, -0.5], "a": 0.2, "b": 0.1},
        "index": {"kind": "constant", "value": value},
    }


def _square_x1():
    """Figure 3's square with n = x1^2 + 2, also the data of figures 4-5."""
    return {"shape": _square(0.2), "index": {"kind": "poly_x1", "coeffs": [2.0, 0.0, 1.0]}}


def _born(mode, scatterers):
    """The Born-data setup of figures 1-5."""
    return {
        "mode": mode,
        "k": 1.0,
        "sensors": {"count": 32, "radius": 1.0},
        "scatterers": scatterers,
        "rule_order": 16,
    }


def _music(*scatterers):
    """Figures 1-3: MUSIC on the Born data of these scatterers."""
    return {
        **_born("born-music", list(scatterers)),
        "grid": {"bounds": [-0.9, 0.9, -0.9, 0.9], "nx": 101, "ny": 101},
        "noise": {"delta": 0.0, "seed": 7},
        "rank_override": None,
    }


def _bayes(half):
    """Figures 4-5: gamma on the data of figure 3, assuming the square of this half-width."""
    return {
        **_born("bayes", [_square_x1()]),
        "noise": {"delta": 0.15, "seed": 11},
        "bayes": {
            "support": _square(half),
            "rule_order": 3,
            "h": None,
            "prior_sd": 1e5,
            "iterations": 20000,
            "burn_in": 5000,
            "thinning": 1,
            "seed": 101,
        },
    }


def _disk_fm(a, n, regime):
    """Figures 6-7: FM and MLSM on the exact data of the unit disk with A = a*I and index n."""
    return {
        "mode": "disk-fm",
        "k": 1.0,
        "disk_medium": {"a": a, "n": n},
        "regime": regime,
        "truncation": 20,
        "quad_points": 64,
        "grid": {"bounds": [-1.8, 1.8, -1.8, 1.8], "nx": 101, "ny": 101},
        "filter": None,
    }


PRESETS = {
    "figure1": _music(
        {
            "shape": {"type": "disk", "center": [-0.5, 0.5], "radius": 0.2},
            "index": {"kind": "constant", "value": [5.0, 0.0]},
        },
        _ellipse([5.0, 0.0]),
    ),
    "figure2": _music(_ellipse([2.0, 1.0])),
    "figure3": _music(_square_x1()),
    "figure4": _bayes(0.2),
    "figure6": _disk_fm([0.5, 0.0], [5.0, 0.0], "nonabsorbing"),
    "figure7": _disk_fm([3.0, -1.0], [0.25, 2.0], "absorbing"),
    "figure5": _bayes(0.265),
}


# ---------------------------------------------------------------------------
# Config schema: one table per mode.  A row is key: (reader, default).  The
# reader turns the JSON value at a dotted path into its typed value or
# raises ConfigError.  An absent or null key is read from its default, which
# is written like a config value (a null key outside the table counts as
# absent too); a default of ... marks a required key and
# None passes through.  Ranges that a library object checks (make_grid,
# make_sensor_array, the shapes, FilterSpec, scaled, DiskMedium, BayesModel,
# the quadrature order) are left to it; the readers check only the others.

# Size caps, checked before anything is allocated: 2048² grid points, 1024
# sensors or quadrature points, 16 384 Born quadrature nodes over all
# scatterers (four at rule_order 64), 10⁷ MH steps.
MAX_GRID_POINTS = 2048 * 2048
MAX_BORN_NODES = 16384
MAX_SENSORS = 1024
MAX_ITERATIONS = 10**7
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal positive floats


def _check(ok, path, what, value):
    """value, if ok; otherwise a ConfigError saying what path must be."""
    if not ok:
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return value


def _any(value, path):
    return value


def _text(value, path):
    return _check(isinstance(value, str), path, "a string", value)


def _real(value, path):
    # type(), not isinstance(): JSON true/false are no numbers; NaN fails the bound
    ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    return float(_check(ok, path, "a finite number", value))


def _int(value, path):
    ok = type(value) is int or type(value) is float and value.is_integer()
    return int(_check(ok, path, "an integer", value))


def _where(reader, ok, what):
    """The reader, then the range check ok(typed value)."""

    def read(value, path):
        typed = reader(value, path)
        return _check(ok(typed), path, what, typed)

    return read


def _reals(length, what):
    """Reader of a list of finite numbers, of the given length unless None."""

    def read(value, path):
        _check(isinstance(value, list) and length in (None, len(value)), path, what, value)
        return tuple(_real(x, path) for x in value)

    return read


_point = _reals(2, "a point [x, y]")
_re_im = _reals(2, "a number or [re, im]")


def _complex(value, path):
    return complex(*_re_im(value, path)) if isinstance(value, list) else complex(_real(value, path))


def _read(obj, table, path):
    """The typed values of an object's keys, in table order."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {obj!r}")
    unknown = {key for key, val in obj.items() if val is not None} - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path or 'config'}")
    out = {}
    for key, (reader, default) in table.items():
        where = f"{path}.{key}" if path else key
        value = default if obj.get(key) is None else obj[key]
        if value is ...:
            raise ConfigError(f"{where} is required")
        out[key] = None if value is None else reader(value, where)
    return out


def _build(path, build, *args, **kwargs):
    """build(*args, **kwargs) for the setting at path; a DomainError from the
    library object is a ConfigError naming that path."""
    try:
        return build(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _object(table, build=None):
    """Reader of an object: build(*values in table order), or the values by key."""

    def read(value, path):
        fields = _read(value, table, path)
        return fields if build is None else _build(path, build, *fields.values())

    return read


def _variant(tag, variants):
    """Reader of an object whose `tag` key picks its (table, build) in variants."""

    def read(value, path):
        kind = value.get(tag) if isinstance(value, dict) else None
        ok = isinstance(kind, str) and kind in variants
        _check(ok, f"{path}.{tag}", f"one of {sorted(variants)}", kind)
        rest = {key: val for key, val in value.items() if key != tag}
        return _object(*variants[kind])(rest, path)

    return read


def _list_of(reader):
    def read(value, path):
        _check(isinstance(value, list) and value, path, "a nonempty list", value)
        return [reader(item, f"{path}.{i}") for i, item in enumerate(value)]

    return read


def _poly_x1(coeffs):
    """Index function n(x) = sum_p coeffs[p] x1^p."""

    def fn(x1, x2):
        out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
        for p, c in enumerate(coeffs):
            out += c * np.asarray(x1) ** p
        return out

    return fn


def _grid(bounds, nx, ny):
    _check(nx * ny <= MAX_GRID_POINTS, "grid.nx * grid.ny", f"at most {MAX_GRID_POINTS}", nx * ny)
    return make_grid(bounds, nx, ny)


_sensor_count = _where(_int, lambda n: n <= MAX_SENSORS, f"at most {MAX_SENSORS}")
_shape = _variant("type", {
    "disk": ({"center": (_point, ...), "radius": (_real, ...)}, Disk),
    "ellipse": ({"center": (_point, ...), "a": (_real, ...), "b": (_real, ...)}, Ellipse),
    "rectangle": ({"corner_min": (_point, ...), "corner_max": (_point, ...)}, Rectangle),
})
_index = _variant("kind", {
    "constant": ({"value": (_complex, ...)}, constant_index),
    "poly_x1": ({"coeffs": (_reals(None, "a list of numbers"), ...)}, _poly_x1),
})
_scatterers = _list_of(_object(
    {"shape": (_shape, ...), "index": (_index, ...), "epsilon_scale": (_real, 1.0)},
    lambda shape, index_fn, eps: ScattererSpec(scaled(shape, eps), index_fn),
))
_sensors = _object({"count": (_sensor_count, ...), "radius": (_real, ...)}, make_sensor_array)
_sampling_grid = _object({
    "bounds": (_reals(4, "[xmin, xmax, ymin, ymax]"), ...), "nx": (_int, ...), "ny": (_int, ...),
}, _grid)
_nonnegative_int = _where(_int, lambda n: n >= 0, "nonnegative")


def _noise(default_delta):
    """Reader of a noise block as (delta, seed); the seed is required when delta > 0."""
    table = {
        "delta": (_where(_real, lambda d: d >= 0.0, "nonnegative"), default_delta),
        "seed": (_nonnegative_int, None),
    }

    def read(value, path):
        delta, seed = _read(value, table, path).values()
        _check(seed is not None or delta == 0.0, f"{path}.seed", "given when delta > 0", seed)
        return delta, seed or 0

    return read


_COMMON = {
    "mode": (_any, ...),
    # the Born data and the posterior take k^2, which must neither underflow nor overflow
    "k": (_where(_real, lambda k: k > 0.0 and _TINY <= k * k <= _HUGE,
                 f"positive with a square in [{_TINY:.3g}, {_HUGE:.3g}]"), 1.0),
    "output_dir": (_text, "out"),
}
_SCATTERING = {
    **_COMMON,
    "sensors": (_sensors, ...),
    "scatterers": (_scatterers, ...),
    "rule_order": (lambda value, path: _build(path, quadrature_order, _int(value, path)),
                   DEFAULT_RULE_ORDER),
}
_DISK = {
    **_COMMON,
    "disk_medium": (_object({"a": (_complex, ...), "n": (_complex, ...)}), ...),
    "regime": (_where(_any, lambda r: r in REGIMES, f"one of {list(REGIMES)}"), "nonabsorbing"),
    # the series takes derivatives by recurrence, so order truncation + 1 is evaluated
    "truncation": (_where(_nonnegative_int, lambda m: m < MAX_ORDER, f"at most {MAX_ORDER - 1}"),
                   20),
    "quad_points": (_sensor_count, 64),
    "grid": (_sampling_grid, ...),
    "filter": (_object({"kind": (_any, ...), "eps": (_real, ...), "a": (_real, None)},
                       FilterSpec), None),
}
MODES = {
    "born-music": {
        **_SCATTERING,
        "grid": (_sampling_grid, ...),
        "noise": (_noise(0.0), {"seed": 0}),
        "rank_override": (_int, None),
    },
    "disk-fm": _DISK,
    "bayes": {
        **_SCATTERING,
        "noise": (_noise(0.15), {"seed": 0}),
        # None leaves a setting to make_bayes_model / BayesModel
        "bayes": (_object({
            "support": (_shape, ...),
            "rule_order": (_int, None),
            "h": (_real, None),
            "prior_sd": (_real, None),
            "iterations": (_where(_int, lambda n: n <= MAX_ITERATIONS,
                                  f"at most {MAX_ITERATIONS}"), None),
            "burn_in": (_int, None),
            "thinning": (_int, None),
            "seed": (_int, None),
        }), ...),
    },
}


def _mode_of(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    mode = cfg.get("mode")
    return _check(isinstance(mode, str) and mode in MODES, "mode", f"one of {sorted(MODES)}", mode)


def validate_config(cfg):
    """The typed run inputs of a config, keyed like its settings: the
    sensors, grid, scatterers, filter, disk medium and Bayes model are built,
    noise is (delta, seed), and every range is checked, before any numerics.
    Raises ConfigError."""
    mode = _mode_of(cfg)
    try:
        s = _read(cfg, MODES[mode], "")
        if "scatterers" in s:
            nodes = len(s["scatterers"]) * s["rule_order"] ** 2
            _check(nodes <= MAX_BORN_NODES, "len(scatterers) * rule_order²",
                   f"at most {MAX_BORN_NODES}", nodes)
            check_sensors_outside(s["scatterers"], s["sensors"])
        if mode == "born-music":
            rank, count = s["rank_override"], s["sensors"].count
            _check(rank is None or 0 <= rank <= count, "rank_override",
                   f"in [0, sensors.count = {count}]", rank)
        elif mode == "bayes":
            delta = s["noise"][0]
            _check(delta > 0.0, "noise.delta", "positive: the likelihood needs noise", delta)
            settings = {key: val for key, val in s["bayes"].items() if val is not None}
            support = settings.pop("support")
            if support.contains(s["sensors"].points).any():  # Phi is singular at a sensor
                raise ConfigError("bayes.support: a sensor lies inside the assumed support")
            s["bayes"] = _build("bayes", bayes_mod.make_bayes_model, support, s["k"], **settings)
        else:
            m, q = s["truncation"], s["quad_points"]
            _check(q >= 2 * m + 2, "quad_points", f">= 2 * truncation + 2 = {2 * m + 2}", q)
            s["disk_medium"] = _build("disk_medium", disk_mod.DiskMedium, **s["disk_medium"],
                                      k=s["k"])
    except DomainError as exc:  # check_sensors_outside names the scatterer
        raise ConfigError(str(exc)) from None
    return s


# ---------------------------------------------------------------------------
# Runners: numerics and export of validated inputs


def export_field(grid, values, out_dir, stem="field"):
    write_field_csv(grid, values, out_dir / f"{stem}.csv")
    write_field_pgm(grid, values, out_dir / f"{stem}.pgm")


def _write_manifest(out_dir, cfg, t0):
    manifest = {"config": cfg, "wall_time_s": time.monotonic() - t0}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _check_grid_off_sensors(grid, sensors):
    """Phi is singular at a sensor; near misses pass, as in fundamental_solution_many."""
    on = np.isin(sensors.points[:, 0], grid.xs) & np.isin(sensors.points[:, 1], grid.ys)
    if on.any():
        x, y = sensors.points[np.argmax(on)]
        raise ConfigError(f"grid: lattice point ({x:g}, {y:g}) is a sensor, where Phi is singular")


def _run_born_music(s, out_dir):
    matrix = add_noise(
        assemble_multistatic(s["scatterers"], s["sensors"], s["k"], s["rule_order"]),
        *s["noise"],
    )
    _check_grid_off_sensors(s["grid"], matrix.sensors)
    rank, values = music_field(matrix, s["grid"], s["rank_override"])
    export_field(s["grid"], values, out_dir)
    return {"rank": rank}


def _run_disk(s, out_dir):
    matrix = disk_mod.assemble_nearfield_matrix(s["disk_medium"], s["truncation"], s["quad_points"])
    _check_grid_off_sensors(s["grid"], matrix.sensors)
    modes, rows = fm_mlsm_fields(matrix, s["regime"], s["grid"], s["filter"])
    export_field(s["grid"], rows[0], out_dir)
    if len(rows) == 1:  # `filter: null`: P is W, so its files are W's
        for ext in ("csv", "pgm"):
            shutil.copyfile(out_dir / f"field.{ext}", out_dir / f"mlsm.{ext}")
    else:
        export_field(s["grid"], rows[1], out_dir, stem="mlsm")
    return {"retained_modes": modes}


def _run_bayes(s, out_dir):
    delta, seed = s["noise"]
    readings = bayes_mod.synthesize_readings(
        s["scatterers"], s["sensors"], s["k"],
        noise_frac=delta, seed=seed, rule_order=s["rule_order"],
    )
    summary = bayes_mod.run_mh(s["bayes"], readings)
    write_chain_csv(*summary.runs, s["bayes"].iterations, out_dir / "chain.csv")
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


_RUNNERS = {"born-music": _run_born_music, "disk-fm": _run_disk, "bayes": _run_bayes}


def _merge_into(base, override):
    """Apply override to base in place: dicts merge key by key, recursively,
    unless their `type`s differ (a shape of another kind); any other value
    (lists included) replaces the base value."""
    for key, val in override.items():
        old = base.get(key)
        if (isinstance(val, dict) and isinstance(old, dict)
                and val.get("type", old.get("type")) == old.get("type")):
            _merge_into(old, val)
        else:
            base[key] = val


def _copy(config):
    """A deep copy of a config; one nested too deeply to copy is a ConfigError."""
    try:
        return copy.deepcopy(config)
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None


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
            _merge_into(cfg, _copy(config))
    elif config is not None:
        cfg = _copy(config)
    else:
        raise ConfigError("either a config or a preset is required")
    if seed is not None:
        table = MODES[_mode_of(cfg)]
        if "noise" in table and cfg.get("noise") is None:
            cfg["noise"] = {}
        for block in ("noise", "bayes"):
            if block in table and isinstance(cfg.get(block), dict):  # else validation fails
                cfg[block]["seed"] = int(seed)
    s = validate_config(cfg)
    out_dir = Path(s["output_dir"] if out_dir is None else out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir cannot be created: {exc}") from None
    t0 = time.monotonic()
    result = _RUNNERS[s["mode"]](s, out_dir)
    _write_manifest(out_dir, cfg, t0)
    return result


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (one JSON line, exit 2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(prog="nearscat")
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--config", type=Path, default=None)
    runp.add_argument("--out", type=Path, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--preset", type=str, default=None)
    try:
        args = parser.parse_args(argv)
        try:
            cfg = None if args.config is None else json.loads(args.config.read_text())
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, text or nesting
            raise ConfigError(str(exc)) from None
        # overflow and invalid values raise, so they exit 3 without printing warnings
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = run(config=cfg, preset=args.preset, out_dir=args.out, seed=args.seed)
    except (ConfigError, OSError) as exc:  # OSError: writing the outputs
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (NearscatError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
