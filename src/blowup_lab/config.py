"""Experiment configuration: INI schema, validation, overrides, hashing.

A run is described by a flat two-level INI file.  Every key has a typed
default; unknown sections or keys are rejected so typos fail loudly rather
than silently falling back.  The effective configuration (defaults merged
with the file and any command line overrides) can be hashed canonically,
which is what makes result manifests reproducible byte for byte.

The [solver] and [physical] keys and their defaults are the fields of
`SolverConfig` and `PhysicalConfig`.  Range checks belong to the objects a
run builds from each section; validation builds them and reports their
errors under the section's name.  Validation also caps the nodes of the
grids a run would build so that its largest arrays fit in MEMORY_BUDGET.
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


def _fields_schema(cls, skip: tuple[str, ...]) -> dict[str, tuple[type, object]]:
    """Schema entries of a config dataclass: one per field, its default."""
    return {
        f.name: (type(f.default), f.default) for f in fields(cls) if f.name not in skip
    }


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
        "y_max": (float, 0.0),  # 0 means: derive from K0 and the final time
    },
    "trap": {
        "A": (float, 8.0),
        "K0": (float, 4.0),
    },
    "solver": _fields_schema(SolverConfig, skip=("overflow",)),
    "trajectory": {
        "d0": (float, 0.0),
        "d1": (float, 0.0),
        "s0": (float, 20.0),
        "s_end": (float, 23.0),
        "record_stride": (int, 1),
    },
    "shooting": {
        "s0": (float, 20.0),
        "s_end": (float, 26.0),
        "ds": (float, 0.02),
        "max_levels": (int, 64),
    },
    "physical": {
        **_fields_schema(PhysicalConfig, skip=("snapshot_factors", "max_steps")),
        "t_rel_tol": (float, 0.0),  # 0 disables the blow-up-time check
    },
    "experiment": {
        "kind": (str, "trajectory"),
    },
}

# experiment kind -> the (section, key) times at which it decomposes a field
# on the grid, each needing y_max >= 2 K0 sqrt(s)
_DECOMPOSE_AT = {
    "spectral-checks": (("trajectory", "s0"),),
    "trajectory": (("trajectory", "s_end"),),
    "shoot": (("shooting", "s_end"),),
    "full-pipeline": (("trajectory", "s0"), ("shooting", "s_end")),
}

# experiment kinds that check the kernel on the grid's interior
_KERNEL_CHECKS = ("semigroup-checks", "full-pipeline")

# experiment kind -> the rows of the (K, n_x) stack it steps on the
# physical.n_x nodes: the stability probe steps its baseline and its bumped
# fields together
_PHYSICAL_ROWS = {
    "physical": 1,
    "full-pipeline": 1,
    "stability": 1 + 2 * len(PROBE_REL_EPS),
}

# The memory a run may plan for, in bytes.  The runs of the examples and
# the tests stay below 200 MiB.
MEMORY_BUDGET = 2 * 2**30

# What the largest arrays of a run cost, as tracemalloc measured them: a
# kernel keeps 8 bytes per stored band entry (`semigroup.band_layout`'s
# width per node, float64 values); its build adds about 34 bytes per node
# (32.3-34.1 on the 12315-node grid at theta = 0.01, 0.02, 0.07 and 5: the
# padded node positions and weights, the grid's own, and one chunk of 2**13
# window entries, about 0.15 MiB at any width).  On the 2465-node grid, one
# row of the (K, n) stack takes about 175 bytes per node through a step
# and an observation; one observation of one row is 15 float64 columns and
# an inside flag.  On 100001 and 200001 nodes, a lone physical run takes
# 72 bytes per node before its snapshots (8 bytes each, five by default),
# and the 7-row stack of the stability probe takes 408 (58.3 per row): each
# further row adds about 56, its field, its initial field and its four RK4
# work rows.
_KERNEL_KEPT_BYTES = 8
_KERNEL_BUILD_BYTES = 34
_ROW_NODE_BYTES = 180
_OBSERVATION_BYTES = 15 * 8 + 1
_PHYSICAL_NODE_BYTES = 170
_STACK_ROW_BYTES = 60
# the semigroup checks keep nine kernels, of theta 0.01, 1/32, 0.1, 0.3,
# 0.5, 0.7, 1, 2 and 5, each sized as theta = inf, whose stored band is
# within 2.5 % of the widest of any theta
_CHECK_KERNELS = 9


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


def run_grid(cfg: dict, s_max: float) -> Grid:
    """The grid a run builds: [grid] y_max, or when that is 0 a half-width
    that holds the cutoff support up to s_max, at spacing [grid] dy."""
    y_max = cfg["grid"]["y_max"]
    if y_max <= 0.0:
        y_max = default_y_max(cfg["trap"]["K0"], s_max)
    return make_grid(y_max, cfg["grid"]["dy"])


def _grid_demand(cfg: dict, kind: str):
    """What an experiment kind asks of its grid, or None if it builds none:
    the latest time the grid must hold, the thetas of the kernels it keeps,
    the rows it steps together and the observations of each row."""
    tj, sh = cfg["trajectory"], cfg["shooting"]
    traj_obs = window_steps(tj["s0"], tj["s_end"], cfg["solver"]["ds"]) + 1
    shoot_obs = window_steps(sh["s0"], sh["s_end"], sh["ds"]) + 1
    checks = (math.inf,) * _CHECK_KERNELS
    if kind == "spectral-checks":
        return max(tj["s0"], tj["s_end"]), (), 1, 0
    if kind == "semigroup-checks":
        return tj["s_end"], checks, 1, 0
    if kind == "trajectory":
        return tj["s_end"], (cfg["solver"]["ds"],), 1, traj_obs
    if kind == "shoot":
        # a level runs the five points of its plus-pattern together
        return sh["s_end"], (sh["ds"],), 5, shoot_obs
    if kind == "full-pipeline":
        return max(tj["s0"], tj["s_end"], sh["s_end"]), checks + (sh["ds"],), 5, shoot_obs
    return None


def _check_memory(cfg: dict, kind: str) -> None:
    """Cap the nodes of the grids the run would build by MEMORY_BUDGET."""
    budget = f"the memory budget of {MEMORY_BUDGET / 2**30:g} GiB"
    demand = _grid_demand(cfg, kind)
    if demand is not None:
        s_max, thetas, rows, n_obs = demand
        # a derived half-width can overflow to inf on finite inputs
        grid = _build("grid", run_grid, cfg=cfg, s_max=s_max)
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
    if kind in _PHYSICAL_ROWS:
        per_node = _PHYSICAL_NODE_BYTES + _STACK_ROW_BYTES * (_PHYSICAL_ROWS[kind] - 1)
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
    if not (0.0 <= cfg["grid"]["y_max"] < math.inf):
        bad("grid", "y_max", "must be >= 0 and finite (0 derives it from the trap)")
    _build("trap", TrapParams, **cfg["trap"])
    _build("solver", SolverConfig, **cfg["solver"])
    _build("shooting", SolverConfig, **(cfg["solver"] | {"ds": cfg["shooting"]["ds"]}))
    for sec, ds in (("trajectory", cfg["solver"]["ds"]), ("shooting", cfg["shooting"]["ds"])):
        d = cfg[sec]
        s0, s_end = d["s0"], d["s_end"]
        if not (s0 < s_end):
            bad(sec, "s_end", f"must exceed [{sec}] s0")
        try:
            window_steps(s0, s_end, ds)
        except ValueError as err:
            bad(sec, "s_end", str(err))
        _build(sec, InitialDataParams, d0=d.get("d0", 0.0), d1=d.get("d1", 0.0), s0=s0)
    if not (1 <= cfg["trajectory"]["record_stride"]):
        bad("trajectory", "record_stride", "must be >= 1")
    if not (1 <= cfg["shooting"]["max_levels"]):
        bad("shooting", "max_levels", "must be >= 1")
    ph = dict(cfg["physical"])
    if not (0.0 <= ph.pop("t_rel_tol") < math.inf):
        bad("physical", "t_rel_tol", "must be >= 0 and finite")
    _build("physical", PhysicalConfig, **ph)
    kind = cfg["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        bad("experiment", "kind", f"must be one of {EXPERIMENT_KINDS}")
    _check_memory(cfg, kind)
    if cfg["grid"]["y_max"] > 0:  # 0 derives a wide enough grid
        grid = _build("grid", make_grid, y_max=cfg["grid"]["y_max"], dy=cfg["grid"]["dy"])
        for sec, key in _DECOMPOSE_AT.get(kind, ()):
            try:
                check_cutoff_support(grid.y_max, cfg["trap"]["K0"], cfg[sec][key])
            except ValueError as err:
                bad("grid", "y_max", f"{kind} decomposes at [{sec}] {key}; {err}")
        if kind in _KERNEL_CHECKS:
            try:
                interior_mask(grid)
            except ValueError as err:
                bad("grid", "y_max", f"{kind} checks the kernel inside the edge; {err}")


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
