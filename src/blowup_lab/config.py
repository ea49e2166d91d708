"""Experiment configuration: INI schema, validation, overrides, hashing.

A run is described by a flat two-level INI file.  Every key has a typed
default; unknown sections or keys are rejected so typos fail loudly rather
than silently falling back.  The effective configuration (defaults merged
with the file and any command line overrides) can be hashed canonically,
which is what makes result manifests reproducible byte for byte.

Every kind reads the data (d0, d1) prepared at s0, the window end s_end
and the step ds from [trajectory]; the [physical] keys and defaults are
fields of `PhysicalConfig`.  Range checks belong to the objects a run
builds from each section; validation builds them and reports their errors
under the section's name.  [grid] sets only dy: `run_grid` derives the
half-width from K0 and s_end.  Validation caps the nodes of the grids a
run would build so that its largest arrays fit in MEMORY_BUDGET, then
checks the grid a run builds for its cutoff support and edge collar.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import fields
from pathlib import Path

from .grids import Grid, default_y_max, make_grid
from .hermite import check_cutoff_support
from .model import make_params
from .physical import PROBE_REL_EPS, PhysicalConfig
from .semigroup import band_layout, interior_mask
from .shooting import InitialDataParams
from .solver import SolverConfig, window_steps
from .trapset import TrapParams

__all__ = [
    "ConfigError",
    "SCHEMA",
    "EXPERIMENT_KINDS",
    "default_config",
    "load_config",
    "apply_overrides",
    "validate_config",
    "config_hash",
    "config_text",
    "run_grid",
    "physical_config",
    "MEMORY_BUDGET",
]


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


EXPERIMENT_KINDS = (
    "spectral-checks",
    "semigroup-checks",
    "trajectory",
    "shoot",
    "physical",
    "stability",
    "full-pipeline",
)


# section -> key -> (type, default).  A float must be finite.
SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "model": {
        "p": (float, 2.0),
        "alpha": (float, 0.0),
        "alpha_bar": (float, 0.0),
        "mu": (float, 0.0),
        "mu_bar": (float, 0.0),
        "mu0": (float, 0.0),
    },
    "grid": {
        "dy": (float, 0.05),
    },
    "trap": {
        "A": (float, 8.0),
        "K0": (float, 4.0),
    },
    "trajectory": {
        "d0": (float, 0.0),
        "d1": (float, 0.0),
        "s0": (float, 20.0),
        "s_end": (float, 26.0),
        "ds": (float, 0.02),
    },
    "physical": {
        f.name: (type(f.default), f.default)
        for f in fields(PhysicalConfig)
        if f.name in ("z_max", "n_x")
    },
    "experiment": {
        "kind": (str, "trajectory"),
    },
}

# experiment kinds that check the kernel on the grid's interior
_KERNEL_CHECKS = ("semigroup-checks", "full-pipeline")

# The memory a run may plan for, in bytes.  The runs of the examples and
# the tests stay below 200 MiB.
MEMORY_BUDGET = 2 * 2**30

# What the largest arrays of a run cost, as tracemalloc measured them: a
# kernel keeps 4 bytes per node per entry of `semigroup.band_layout`'s
# width (float64 values of the n_half + 1 rows y >= 0; 4.002 on the
# 12315-node grid at theta = 0.02, 0.07 and 5); its build adds about 34
# bytes per node (32.3-34.1 on that grid at theta = 0.01, 0.02, 0.07 and 5:
# the padded node positions and weights, the grid's own, and one chunk of
# 2**13 window entries, about 0.15 MiB at any width).  On the 2465-node
# grid, a lone row takes about 164 bytes per node through a step and an
# observation, and each further row of the (K, n) stack about 58 (the
# kernel product lays out at most four rows and their mirrors at once);
# one observation of one row is 14 float64 columns.
# On 100001 and 200001 nodes, a lone physical run takes 72 bytes per node
# before its snapshots (8 bytes each, five by default),
# and the 7-row stack of the stability probe takes 408 (58.3 per row): each
# further row adds about 56, its field, its initial field and its four RK4
# work rows.  A physical run with its profile check
# (`experiments.run_physical_experiment`, also the last part of
# full-pipeline) peaks at 5.48 MB on 19201 nodes and 10.40 MB on 38401,
# with z_max = 60 and 120 so that both take the same 13292 steps: 256 bytes
# per node, reached while `similarity.profile_error` splines a snapshot
# through five Python float lists of n_x entries.  The rest, about 0.6 MB
# here, is the kept (t, umax) record, 16 bytes per step, and the table of
# fewer than 4000 samples.  The record is two array('d') per row, and with
# its copy into numpy arrays at the end it peaks at 33 bytes per step
# (32.7 over 20000 to 60000 steps on 401 nodes), at most 7 MB at
# PhysicalConfig.max_steps.  So 300 bytes per node bound the peak of any
# run the cap admits: 256 x 7.2e6 + 7 MB is 1.85 GB.
# On 1601 and 4801 nodes, where the record weighs more, the peaks are 0.67
# and 2.06 MB, 419 and 429 bytes per node.
_KERNEL_KEPT_BYTES = 4
_KERNEL_BUILD_BYTES = 34
_ROW_NODE_BYTES = 180
_OBSERVATION_BYTES = 14 * 8
_PHYSICAL_RUN_BYTES = 170
_STACK_ROW_BYTES = 60
_PROFILED_RUN_BYTES = 300
# the semigroup checks keep nine kernels, of theta 0.01, 1/32, 0.1, 0.3,
# 0.5, 0.7, 1, 2 and 5, each sized as theta = inf, whose stored band is
# within 2.5 % of the widest of any theta
_CHECK_KERNELS = 9

# experiment kind -> the bytes per physical.n_x node it takes: the stability
# probe steps its baseline and its bumped fields as one (K, n_x) stack and
# reads no snapshot
_PHYSICAL_NODE_BYTES = {
    "physical": _PROFILED_RUN_BYTES,
    "full-pipeline": _PROFILED_RUN_BYTES,
    "stability": _PHYSICAL_RUN_BYTES + _STACK_ROW_BYTES * 2 * len(PROBE_REL_EPS),
}


def default_config() -> dict:
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}


def _parse_value(section: str, key: str, raw: str):
    typ, _ = SCHEMA[section][key]
    raw = raw.strip()
    if typ is str:
        return raw
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {typ.__name__}, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def load_config(path: str | Path) -> dict:
    """Parse an INI file onto the schema defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as err:
        raise ConfigError(f"could not parse {path}: {err}") from None
    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; known sections: {', '.join(SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; known keys: "
                    f"{', '.join(SCHEMA[section])}"
                )
            cfg[section][key] = _parse_value(section, key, raw)
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply command line `section.key=value` assignments in order."""
    for item in overrides:
        head, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot or section not in SCHEMA or key not in SCHEMA.get(section, {}):
            raise ConfigError(f"override target {head.strip()!r} is not a known key")
        cfg[section][key] = _parse_value(section, key, raw)
    return cfg


def run_grid(cfg: dict) -> Grid:
    """The grid a run builds: a half-width that holds the cutoff support up
    to [trajectory] s_end, at spacing [grid] dy."""
    y_max = default_y_max(cfg["trap"]["K0"], cfg["trajectory"]["s_end"])
    return make_grid(y_max, cfg["grid"]["dy"])


def physical_config(cfg: dict, d0: float, d1: float) -> PhysicalConfig:
    """The physical run from the data (d0, d1) prepared at [trajectory] s0."""
    return PhysicalConfig(s0=cfg["trajectory"]["s0"], d0=d0, d1=d1, **cfg["physical"])


def _grid_demand(cfg: dict, kind: str):
    """What an experiment kind asks of its grid, which holds [trajectory]
    s_end, or None if it builds none: the thetas of the kernels it keeps,
    the rows it steps together and the observations of each row."""
    tj = cfg["trajectory"]
    n_obs = window_steps(tj["s0"], tj["s_end"], tj["ds"]) + 1
    checks = (math.inf,) * _CHECK_KERNELS
    return {
        "spectral-checks": ((), 1, 0),
        "semigroup-checks": (checks, 1, 0),
        "trajectory": ((tj["ds"],), 1, n_obs),
        # a level runs the five points of its plus-pattern together
        "shoot": ((tj["ds"],), 5, n_obs),
        "full-pipeline": (checks + (tj["ds"],), 5, n_obs),
    }.get(kind)


def _check_memory(cfg: dict, kind: str) -> None:
    """Cap the nodes of the grids the run would build by MEMORY_BUDGET."""
    budget = f"the memory budget of {MEMORY_BUDGET / 2**30:g} GiB"
    demand = _grid_demand(cfg, kind)
    if demand is not None:
        thetas, rows, n_obs = demand
        # a derived half-width can overflow to inf on finite inputs
        grid = _build("grid", run_grid, cfg=cfg)
        widths = [band_layout(theta, grid)[2] for theta in thetas]
        per_node = (
            _KERNEL_KEPT_BYTES * sum(widths)
            + (_KERNEL_BUILD_BYTES if thetas else 0)
            + _ROW_NODE_BYTES * rows
        )
        cap = (MEMORY_BUDGET - _OBSERVATION_BYTES * rows * n_obs) // per_node
        if grid.n > cap:
            raise ConfigError(
                f"[grid] a {kind} run on {grid.n} nodes (dy={grid.dy!r}, "
                f"y_max={grid.y_max!r}) does not fit in {budget}, which "
                f"holds at most {max(cap, 0)} nodes"
            )
    n_x = cfg["physical"]["n_x"]
    if kind in _PHYSICAL_NODE_BYTES:
        per_node = _PHYSICAL_NODE_BYTES[kind]
        if n_x > MEMORY_BUDGET // per_node:
            raise ConfigError(
                f"[physical] n_x: a {kind} run on {n_x} nodes does not fit in "
                f"{budget}, which holds at most {MEMORY_BUDGET // per_node} nodes"
            )


def _build(section: str, make, **kwargs):
    """Call a validating constructor; its ValueError names the section."""
    try:
        return make(**kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def validate_config(cfg: dict) -> None:
    """Range and choice checks beyond plain typing.

    Each check states the accepted range, so a NaN or an infinity that
    reaches it unparsed fails it too.
    """

    def bad(section: str, key: str, why: str):
        raise ConfigError(f"[{section}] {key}: {why} (got {cfg[section][key]!r})")

    _build("model", make_params, **cfg["model"])
    if not (0.0 < cfg["grid"]["dy"] < math.inf):
        bad("grid", "dy", "must be > 0 and finite")
    _build("trap", TrapParams, **cfg["trap"])
    tj = cfg["trajectory"]
    _build("trajectory", SolverConfig, ds=tj["ds"])
    if not (tj["s0"] < tj["s_end"]):
        bad("trajectory", "s_end", "must exceed [trajectory] s0")
    try:
        window_steps(tj["s0"], tj["s_end"], tj["ds"])
    except ValueError as err:
        bad("trajectory", "s_end", str(err))
    _build("trajectory", InitialDataParams, d0=tj["d0"], d1=tj["d1"], s0=tj["s0"])
    _build("physical", physical_config, cfg=cfg, d0=tj["d0"], d1=tj["d1"])
    kind = cfg["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        bad("experiment", "kind", f"must be one of {EXPERIMENT_KINDS}")
    _check_memory(cfg, kind)
    if _grid_demand(cfg, kind) is not None:
        # a grid derived from s_end holds every earlier time, unless dy
        # rounds its half-width down
        grid = run_grid(cfg)
        try:
            check_cutoff_support(grid.y_max, cfg["trap"]["K0"], tj["s_end"])
            if kind in _KERNEL_CHECKS:
                interior_mask(grid)
        except ValueError as err:
            bad("grid", "dy", f"on the grid of a {kind} run to [trajectory] s_end, {err}")


def _canon(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: dict) -> str:
    """Canonical flat rendering, one sorted `section.key=value` per line."""
    lines = [
        f"{section}.{key}={_canon(cfg[section][key])}"
        for section in sorted(cfg)
        for key in sorted(cfg[section])
    ]
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()
