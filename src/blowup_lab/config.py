"""Experiment configuration: INI schema, validation, overrides, hashing.

A run is described by a flat two-level INI file.  Every key has a typed
default; unknown sections or keys are rejected so typos fail loudly rather
than silently falling back.  The effective configuration (defaults merged
with the file and any command line overrides) can be hashed canonically,
which is what makes result manifests reproducible byte for byte.

Every kind reads the data (d0, d1) prepared at s0, the window end s_end
and the step ds from [trajectory]; the [physical] keys and defaults are
fields of `PhysicalConfig`.  Range checks belong to the objects a run
builds from each section; validation builds them, reports their errors
under the section's name and returns them, the `Run` the runners take.
[grid] sets only dy: the half-width is derived from K0 and s_end.  Each
experiment kind states once what a run of it holds (`_demand`);
full-pipeline runs the PIPELINE kinds in order and holds the most that
any of them holds.  Validation builds a run's grid once, caps its nodes
and [physical] n_x so that the largest arrays fit in MEMORY_BUDGET, then
checks that grid for its cutoff support and for a dy fine enough for the
narrowest kernel the kind applies (`kernel_mass_error`).
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .grids import Grid, default_y_max, make_grid
from .hermite import check_cutoff_support
from .model import ModelParams, make_params
from .physical import PROBE_REL_EPS, PhysicalConfig
from .semigroup import band_layout
from .shooting import InitialDataParams
from .solver import SolverConfig, window_steps
from .trapset import TrapParams

__all__ = [
    "ConfigError",
    "Run",
    "SCHEMA",
    "EXPERIMENT_KINDS",
    "PIPELINE",
    "CHECK_DS",
    "WITNESS_SIDE",
    "default_config",
    "load_config",
    "apply_overrides",
    "validate_config",
    "config_hash",
    "config_text",
    "MEMORY_BUDGET",
    "kernel_mass_error",
]


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class Run:
    """A validated run: its kind, the objects built from each section, the
    window end s_end, and the grid the kind builds (None if it builds none)."""

    kind: str
    params: ModelParams
    trap: TrapParams
    solver: SolverConfig
    init: InitialDataParams
    s_end: float
    physical: PhysicalConfig
    grid: Grid | None


EXPERIMENT_KINDS = (
    "spectral-checks",
    "semigroup-checks",
    "trajectory",
    "shoot",
    "physical",
    "stability",
    "full-pipeline",
)

# the kinds full-pipeline runs, in order; its physical run starts from the
# data the shoot certifies
PIPELINE = ("spectral-checks", "semigroup-checks", "shoot", "physical")

# the fixed step of the checks a shoot runs on its certified data (the
# Duhamel split and the mode-0 defect) and of the similarity-variable march
# of full-pipeline's physical part; and the side of the shoot's square of
# reduction witness data
CHECK_DS = 0.01
WITNESS_SIDE = 7


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

# The memory a run may plan for, in bytes.  The runs of the examples and
# the tests stay below 200 MiB.
MEMORY_BUDGET = 2 * 2**30

# What the largest arrays of a run cost, as tracemalloc measured them: a
# kernel keeps 4 bytes per node per entry of `semigroup.band_layout`'s
# width (float64 values of the n_half + 1 rows y >= 0; 4.002 on the
# 12315-node grid at theta = 0.02, 0.07 and 5); its build adds about 34
# bytes per node (32.3-34.1 on that grid at theta = 0.01, 0.02, 0.07 and 5:
# the padded node positions and weights, the grid's own, and one chunk of
# 2**13 window entries, about 0.15 MiB at any width).  A shoot keeps the
# kernels of its step and of CHECK_DS only: the Duhamel split carries its
# sum with the latter and keeps no kernel of its own.  Over 10 steps and
# their observations of `solver.run_trajectories`, with the initial fields
# it is handed, a lone row peaks at 123 bytes per node (pure) and 131
# (perturbed) on the 2465-node grid, 5 rows at 422 and 430, 25 at 1554 and
# 1816 and 49 at 2912 and 3559 (2887 and 3534 on 12315 nodes): a further
# row of the (K, n) stack takes 56-65 (pure) and 65-73 (perturbed), so 180
# for the lone row and 72 for each further one bound them all (the kernel
# product lays out at most four rows and their mirrors at once).  One
# observation of one row is 14 float64 columns.
# On 100001 and 200001 nodes, a lone physical run takes 72 bytes per node
# before its snapshots (8 bytes each, five by default),
# and the 7-row stack of the stability probe takes 408 (58.3 per row): each
# further row adds about 56, its field, its initial field and its four RK4
# work rows.  A physical run with its profile check
# (`experiments.run_physical_experiment`) peaks at 2.13 MB on 19201 nodes
# and 4.06 MB on 38401, with z_max = 60 and 120 so that both take the same
# 3090 steps: 101 bytes per node between the two, the integration's own
# (`integrate_u` alone peaks at 2.06 and 4.06 MB).  As the last part of
# full-pipeline, whose round trip marches on the similarity grid, it peaks
# at 2.52 and 4.06 MB.  `similarity.profile_error` splines only the nodes
# within `similarity.MARGIN` of the window it compares, a few hundred here;
# only for z_max below about 0.7 does that window hold every node, and then
# the check peaks at 151 bytes per node with the run's kept grid, end field
# and five snapshots (150.6-151.1 on 51201 to 204801 nodes of the initial
# data at z_max = 0.5).  The rest, about 0.7 MB at 3090 steps, holds the
# kept (t, umax) record, 16 bytes per step, and the table of fewer than
# 4000 samples.  The record is two array('d') per row, and with its copy
# into numpy arrays at the end it peaks at 33 bytes per step (32.7 over
# 20000 to 60000 steps on 401 nodes), at most 7 MB at
# PhysicalConfig.max_steps.  So 170 bytes per node bound the peak of any
# physical run the cap admits: 151 x 1.26e7 + 7 MB is 1.91 GB.
# On 1601 and 4801 nodes, where the record weighs more, the peaks are 0.38
# and 0.72 MB, 236 and 149 bytes per node.
_KERNEL_KEPT_BYTES = 4
_KERNEL_BUILD_BYTES = 34
_ROW_NODE_BYTES = 180
_FURTHER_ROW_BYTES = 72
_OBSERVATION_BYTES = 14 * 8
_PHYSICAL_RUN_BYTES = 170
_PHYSICAL_ROW_BYTES = 60
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
    # no header can name the section "\n", so [DEFAULT] is a section like
    # any other (and unknown); keys keep their case, as [trap] A and K0 do
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        # utf-8-sig drops a leading byte order mark
        parser.read_string(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"could not read {path}: {err}") from None
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


def _demand(cfg: dict, kind: str):
    """What a run of an experiment kind holds: the grid it builds, which
    holds [trajectory] s_end, as the thetas of the kernels it keeps, the
    rows it steps together and the observations of each row, or None if it
    builds none; and the bytes per [physical] n_x node, or 0 if it makes no
    physical run.  A full-pipeline run holds the most any part holds, and
    the kernel of its physical part's march, whose steps are at most
    CHECK_DS."""
    if kind == "full-pipeline":
        grids, node_bytes = zip(*(_demand(cfg, part) for part in PIPELINE))
        grids += (((CHECK_DS,), 1, 0),)
        thetas, rows, n_obs = zip(*(grid for grid in grids if grid is not None))
        return (sum(thetas, ()), max(rows), max(n_obs)), max(node_bytes)
    tj = cfg["trajectory"]
    n_obs = window_steps(tj["s0"], tj["s_end"], tj["ds"]) + 1
    return {
        "spectral-checks": (((), 1, 0), 0),
        "semigroup-checks": (((math.inf,) * _CHECK_KERNELS, 1, 0), 0),
        "trajectory": (((tj["ds"],), 1, n_obs), 0),
        # a level runs the five points of its plus-pattern together, and the
        # witness all its rows; the checks step by CHECK_DS, and the Duhamel
        # split carries its sum with that step's kernel
        "shoot": (((tj["ds"], CHECK_DS), WITNESS_SIDE**2, n_obs), 0),
        "physical": (None, _PHYSICAL_RUN_BYTES),
        # the probe steps its baseline and its bumped fields as one (K, n_x)
        # stack and reads no snapshot
        "stability": (None, _PHYSICAL_RUN_BYTES + _PHYSICAL_ROW_BYTES * 2 * len(PROBE_REL_EPS)),
    }[kind]


def kernel_mass_error(theta: float, dy: float) -> float:
    """Relative error in the row mass of the kernel of `semigroup` for a
    step theta, sampled at spacing dy.

    By Poisson summation, the trapezoid sum of a Gaussian of variance
    v = 2 (1 - e^-theta) over nodes dy apart exceeds its integral by the
    aliased terms, the first of them 2 exp(-2 pi^2 v / dy^2).  It matches
    the row sums of `semigroup.kernel_matrix` within 1e-4 of itself from
    1e-12 to 0.1 (above, the next term shows: 0.9 % at 0.42), and it is
    2.5e-2 at theta = 0.01 on dy = 0.3.
    """
    return 2.0 * math.exp(-4.0 * math.pi**2 * -math.expm1(-theta) / dy**2)


def _build(section: str, make, **kwargs):
    """Call a validating constructor; its ValueError names the section."""
    try:
        return make(**kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def validate_config(cfg: dict) -> Run:
    """Range and choice checks beyond plain typing; returns the run.

    Each check states the accepted range, so a NaN or an infinity that
    reaches it unparsed fails it too.
    """

    def bad(section: str, key: str, why: str):
        raise ConfigError(f"[{section}] {key}: {why} (got {cfg[section][key]!r})")

    params = _build("model", make_params, **cfg["model"])
    if not (0.0 < cfg["grid"]["dy"] < math.inf):
        bad("grid", "dy", "must be > 0 and finite")
    trap = _build("trap", TrapParams, **cfg["trap"])
    tj = cfg["trajectory"]
    solver = _build("trajectory", SolverConfig, ds=tj["ds"])
    if not (tj["s0"] < tj["s_end"]):
        bad("trajectory", "s_end", "must exceed [trajectory] s0")
    try:
        window_steps(tj["s0"], tj["s_end"], tj["ds"])
    except ValueError as err:
        bad("trajectory", "s_end", str(err))
    init = _build("trajectory", InitialDataParams, d0=tj["d0"], d1=tj["d1"], s0=tj["s0"])
    # from the [trajectory] data; called directly, so that the scans of
    # what calls pass in tests/test_imports.py see this call
    physical = _build(
        "physical", lambda: PhysicalConfig(s0=init.s0, d0=init.d0, d1=init.d1, **cfg["physical"])
    )
    kind = cfg["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        bad("experiment", "kind", f"must be one of {EXPERIMENT_KINDS}")
    budget = f"the memory budget of {MEMORY_BUDGET / 2**30:g} GiB"
    demand, node_bytes = _demand(cfg, kind)
    grid = None
    if demand is not None:
        thetas, rows, n_obs = demand
        # the half-width that holds the cutoff support up to s_end, which
        # can overflow to inf on finite inputs
        y_max = default_y_max(trap.K0, tj["s_end"])
        grid = _build("grid", make_grid, y_max=y_max, dy=cfg["grid"]["dy"])
        widths = [band_layout(theta, grid)[2] for theta in thetas]
        per_node = (
            _KERNEL_KEPT_BYTES * sum(widths)
            + (_KERNEL_BUILD_BYTES if thetas else 0)
            + _ROW_NODE_BYTES
            + _FURTHER_ROW_BYTES * (rows - 1)
        )
        cap = (MEMORY_BUDGET - _OBSERVATION_BYTES * rows * n_obs) // per_node
        if grid.n > cap:
            raise ConfigError(
                f"[grid] a {kind} run on {grid.n} nodes (dy={grid.dy!r}, "
                f"y_max={grid.y_max!r}) does not fit in {budget}, which "
                f"holds at most {max(cap, 0)} nodes"
            )
    n_x = cfg["physical"]["n_x"]
    if node_bytes and n_x > MEMORY_BUDGET // node_bytes:
        raise ConfigError(
            f"[physical] n_x: a {kind} run on {n_x} nodes does not fit in "
            f"{budget}, which holds at most {MEMORY_BUDGET // node_bytes} nodes"
        )
    if grid is not None:
        # a grid derived from s_end holds every earlier time, unless dy
        # rounds its half-width down
        try:
            check_cutoff_support(grid.y_max, cfg["trap"]["K0"], tj["s_end"])
        except ValueError as err:
            bad("grid", "dy", f"on the grid of a {kind} run to [trajectory] s_end, {err}")
        # a kernel loses or gains mass on a grid that under-resolves it, and
        # a run of its steps drifts or diverges.  The narrowest kernel of a
        # kind: the semigroup checks' 0.01, the step ds, the checks'
        # CHECK_DS, and the march of full-pipeline's physical part, whose
        # equal steps over more than CHECK_DS are each longer than
        # CHECK_DS / 2.  A dy that keeps its error at roundoff (at most
        # 0.0834, 0.1178, 0.1661 and 0.2607 for theta = 0.005, 0.01, 0.02
        # and 0.05) also leaves the semigroup checks an interior beyond the
        # kernels' edge collar, as y_max >= 20
        theta = {
            "semigroup-checks": 0.01,
            "trajectory": solver.ds,
            "shoot": min(solver.ds, CHECK_DS),
            "full-pipeline": min(solver.ds, CHECK_DS / 2),
        }.get(kind)
        if theta is not None and kernel_mass_error(theta, grid.dy) > 1e-12:
            bad(
                "grid", "dy",
                f"too coarse for the kernel of theta={theta!r} that a {kind} run applies, "
                f"whose row mass is off by {kernel_mass_error(theta, grid.dy):.2g}",
            )
    return Run(kind, params, trap, solver, init, tj["s_end"], physical, grid)


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
