"""INI schema, overrides, validation messages, canonical hashing."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab import experiments, semigroup
from blowup_lab.config import (
    _CHECK_KERNELS,
    EXPERIMENT_KINDS,
    PIPELINE,
    SCHEMA,
    ConfigError,
    Run,
    _demand,
    apply_overrides,
    config_hash,
    config_text,
    default_config,
    kernel_mass_error,
    load_config,
    validate_config,
)
from blowup_lab.experiments import run_semigroup_checks
from blowup_lab.grids import default_y_max, make_grid
from blowup_lab.hermite import check_cutoff_support
from blowup_lab.semigroup import interior_mask


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_defaults_cover_every_schema_key():
    cfg = default_config()
    assert set(cfg) == set(SCHEMA)
    for sec, keys in SCHEMA.items():
        assert set(cfg[sec]) == set(keys)
    assert cfg["experiment"]["kind"] == "trajectory"
    assert cfg["model"]["p"] == 2.0
    validate_config(cfg)  # defaults must be self-consistent


def test_schema_holds_only_keys_a_run_sets():
    assert sum(len(keys) for keys in SCHEMA.values()) == 17
    assert len(SCHEMA) == 6
    # each run parameter has one home: every kind reads its data, window
    # and step from [trajectory], and derives its grid's half-width
    assert list(SCHEMA["trajectory"]) == ["d0", "d1", "s0", "s_end", "ds"]
    assert list(SCHEMA["grid"]) == ["dy"]
    assert list(SCHEMA["physical"]) == ["z_max", "n_x"]


def test_load_merges_onto_defaults(tmp_path):
    path = _write(tmp_path, "[model]\np = 3.0\n\n[trajectory]\nds = 0.01\n")
    cfg = load_config(path)
    assert cfg["model"]["p"] == 3.0
    assert cfg["trajectory"]["ds"] == 0.01
    assert cfg["model"]["alpha"] == 0.0  # untouched default


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "absent.ini")


def test_load_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "[modell]\np = 2.0\n")
    with pytest.raises(ConfigError, match=r"unknown section \[modell\]"):
        load_config(path)


def test_load_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "[model]\nq = 2.0\n")
    with pytest.raises(ConfigError, match="unknown key 'q'"):
        load_config(path)


def test_load_keeps_the_case_of_keys(tmp_path):
    path = _write(tmp_path, "[trap]\nA = 4.0\nK0 = 3.0\n")
    assert load_config(path)["trap"] == {"A": 4.0, "K0": 3.0}
    path = _write(tmp_path, "[trap]\nk0 = 3.0\n")
    with pytest.raises(ConfigError, match=r"unknown key 'k0' in \[trap\]"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\np = 3.0\n",
    "[trajectory]\nds = 0.01\n\n[DEFAULT]\np = 3.0\n",
    "[DEFAULT]\n",
], ids=["alone", "after-a-known-section", "empty"])
def test_load_rejects_the_default_section(tmp_path, text):
    # configparser would hand its keys to every section, or drop them
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(_write(tmp_path, text))


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xff\xfe[model]\np = 2.0\n")
    with pytest.raises(ConfigError, match="could not read"):
        load_config(path)


def test_load_takes_a_utf8_file_with_a_byte_order_mark(tmp_path):
    # some editors save UTF-8 with ef bb bf in front
    text = "[model]\np = 3.0\n[trajectory]\ns_end = 23.0\n"
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_config(path) == load_config(_write(tmp_path, text))
    assert load_config(path)["model"]["p"] == 3.0


def test_load_rejects_bad_number(tmp_path):
    path = _write(tmp_path, "[model]\np = two\n")
    with pytest.raises(ConfigError, match="expected float, got 'two'"):
        load_config(path)


def test_load_rejects_garbage(tmp_path):
    path = _write(tmp_path, "p = 2.0\nnot ini at all [[[")
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_load_rejects_non_finite_floats(tmp_path, raw):
    path = _write(tmp_path, f"[trajectory]\ns_end = {raw}\n")
    with pytest.raises(ConfigError, match=r"\[trajectory\] s_end: expected a finite number"):
        load_config(path)


def test_load_rejects_removed_keys(tmp_path):
    # [solver] is gone with its step (now [trajectory] ds), the per-term
    # switches, the scheme and boundary choices and the overflow cap, and
    # [shooting] with its copies of the [trajectory] window and step and
    # its level budget (now shooting.MAX_LEVELS)
    for section, key in (
        ("solver", "ds"),
        ("solver", "include_residual"),
        ("solver", "scheme"),
        ("solver", "bc"),
        ("solver", "overflow"),
        ("shooting", "s0"),
        ("shooting", "s_end"),
        ("shooting", "ds"),
        ("shooting", "max_levels"),
    ):
        path = _write(tmp_path, f"[{section}]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            load_config(path)
    # the given grid half-width (now always derived), the physical run's
    # copies of the [trajectory] data, the physical dt0/t_budget knobs,
    # step law, stop level, fit window and time tolerance, and the
    # trajectory record stride are gone
    for section, key in (
        ("grid", "y_max"),
        ("physical", "s0"),
        ("physical", "d0"),
        ("physical", "d1"),
        ("physical", "t_budget"),
        ("physical", "cfl"),
        ("physical", "lam"),
        ("physical", "stop_factor"),
        ("physical", "fit_lo"),
        ("physical", "fit_hi"),
        ("physical", "t_rel_tol"),
        ("trajectory", "record_stride"),
    ):
        path = _write(tmp_path, f"[{section}]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)


def test_overrides_apply_in_order():
    cfg = default_config()
    apply_overrides(cfg, ["trajectory.ds=0.02", "trajectory.ds=0.04", "trap.A=9"])
    assert cfg["trajectory"]["ds"] == 0.04
    assert cfg["trap"]["A"] == 9.0


def test_override_syntax_errors():
    cfg = default_config()
    with pytest.raises(ConfigError, match="not of the form"):
        apply_overrides(cfg, ["trajectory.ds"])
    with pytest.raises(ConfigError, match="not a known key"):
        apply_overrides(cfg, ["trajectory.dt=0.01"])
    with pytest.raises(ConfigError, match="not a known key"):
        apply_overrides(cfg, ["ds=0.01"])


@pytest.mark.parametrize("section,key,value,msg", [
    ("model", "p", 1.0, "must be > 1"),
    ("grid", "dy", 0.0, "must be > 0"),
    ("trap", "A", 0.5, "must be >= 1"),
    ("trap", "K0", 0.0, "must be > 0"),
    ("trajectory", "ds", 0.9, r"must be in \(0, 0.5\]"),
    ("trajectory", "s_end", 19.0, "must exceed"),
    ("trajectory", "s0", 2.0, "must be >= e"),
    ("physical", "n_x", 1600, "odd integer"),
    ("physical", "z_max", -1.0, r"\[physical\] z_max must be > 0"),
    ("experiment", "kind", "warp", "must be one of"),
])
def test_validation_messages(section, key, value, msg):
    cfg = default_config()
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=msg):
        validate_config(cfg)


@pytest.mark.parametrize("section,key,value", [
    ("trajectory", "s_end", math.inf),
    ("trajectory", "s_end", math.nan),
    ("grid", "dy", math.nan),
    ("trap", "K0", math.nan),
    ("trap", "A", math.nan),
    ("trajectory", "d0", math.nan),
    ("model", "alpha", math.nan),
    ("model", "mu", math.inf),
    ("trajectory", "ds", math.nan),
    ("trajectory", "s0", math.nan),
    ("physical", "z_max", math.nan),
])
def test_validation_rejects_unparsed_non_finite_values(section, key, value):
    # a dict that skipped the parser still fails every range check
    cfg = default_config()
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=rf"\[{section}\]"):
        validate_config(cfg)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_validation_returns_the_run_it_built(kind):
    cfg = default_config()
    cfg["experiment"]["kind"] = kind
    run = validate_config(cfg)
    assert isinstance(run, Run) and run.kind == kind
    assert (run.params.p, run.trap.A, run.trap.K0, run.solver.ds) == (2.0, 8.0, 4.0, 0.02)
    assert (run.init.d0, run.init.d1, run.init.s0, run.s_end) == (0.0, 0.0, 20.0, 26.0)
    assert (run.physical.s0, run.physical.n_x) == (20.0, 1601)
    # only the kinds that step or decompose on the y grid build it, with a
    # half-width that holds the cutoff support up to s_end
    grid = None if kind in ("physical", "stability") else make_grid(default_y_max(4.0, 26.0), 0.05)
    assert run.grid == grid
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.kind = "shoot"


def test_validation_defers_model_coupling_to_params():
    # cross-parameter conditions come from the model constructor verbatim
    cfg = default_config()
    cfg["model"]["alpha"] = 2.0
    cfg["model"]["mu"] = 1.0
    with pytest.raises(ConfigError, match=r"\[model\] supercritical alpha"):
        validate_config(cfg)


def test_s0_between_e_and_2_8_validates():
    # the starting-time rule is s0 >= e, as InitialDataParams states it
    cfg = default_config()
    cfg["trajectory"]["s0"] = 2.75
    cfg["trajectory"]["ds"] = 0.01  # the window [2.75, 26] holds 2325 steps
    validate_config(cfg)


@pytest.mark.parametrize("overrides,kind,field", [
    # 8.7e8 nodes on the grid derived at s_end = 23; this run was killed for
    # lack of memory
    (
        {"grid": {"dy": 1e-7}, "trajectory": {"s_end": 23.0}},
        "trajectory",
        r"\[grid\] a trajectory run on 867333045 nodes",
    ),
    # without kernels a node costs 180 bytes: the cap is 11930464 nodes, and
    # dy = 1e-6 lays 91.6e6 on the derived grid
    ({"grid": {"dy": 1e-6}}, "spectral-checks", r"\[grid\] a spectral-checks run"),
    # the derived grid at s_end = 26 has 183171 nodes, and a dy = 0.0005
    # kernel of ds = 0.02 reaches 3555 of them on each side of a row's
    # centre: the kernel and five rows alone cap the run at 65011 nodes,
    # and with the checks of the certificate the cap is 11432
    ({"grid": {"dy": 0.0005}}, "shoot", r"\[grid\] a shoot run on 183171 nodes"),
    # 5e7 steps of ds = 0.02 to record leave no room for any node
    ({"trajectory": {"s_end": 1e6}}, "trajectory", r"\[grid\] .* holds at most 0 nodes"),
    ({"physical": {"n_x": 400000001}}, "physical", r"\[physical\] n_x: a physical run"),
    ({"physical": {"n_x": 400000001}}, "full-pipeline", r"\[physical\] n_x"),
    # a physical run may take 5e6 nodes, but the stability probe steps seven
    # rows of them together
    ({"physical": {"n_x": 5_000_001}}, "stability", r"\[physical\] n_x: a stability run"),
    # with its profile check, a physical run on 12e6 nodes peaks near 3 GB
    ({"physical": {"n_x": 12_000_001}}, "physical", r"holds at most 7158278 nodes"),
])
def test_node_counts_are_capped_by_the_memory_budget(overrides, kind, field):
    # checked by validation alone: none of these runs may be started
    cfg = default_config()
    for section, values in overrides.items():
        cfg[section].update(values)
    cfg["experiment"]["kind"] = kind
    with pytest.raises(ConfigError, match=field) as err:
        validate_config(cfg)
    assert "does not fit in the memory budget of 2 GiB" in str(err.value)


@pytest.mark.parametrize("overrides,kind", [
    # without kernels the dy = 0.001 grid takes about 16 MiB
    ({"grid": {"dy": 0.001}}, "spectral-checks"),
    # only the physical kinds build the n_x grid
    ({"physical": {"n_x": 400000001}}, "shoot"),
    # 300 bytes per node bound a physical run: the cap is 7158278 nodes
    ({"physical": {"n_x": 7_000_001}}, "physical"),
])
def test_node_caps_follow_what_the_kind_builds(overrides, kind):
    cfg = default_config()
    for section, values in overrides.items():
        cfg[section].update(values)
    cfg["experiment"]["kind"] = kind
    validate_config(cfg)


@pytest.mark.parametrize("overrides,kind", [
    # the derived half-width 2 K0 sqrt(s_end) + 5 overflows to inf
    ({"trap": {"K0": 1e300}, "trajectory": {"s_end": 1e300}}, "spectral-checks"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grids_whose_node_count_overflows_are_config_errors(overrides, kind):
    cfg = default_config()
    for section, values in overrides.items():
        cfg[section].update(values)
    cfg["experiment"]["kind"] = kind
    with pytest.raises(ConfigError, match=r"\[grid\] need finite y_max"):
        validate_config(cfg)


@pytest.mark.parametrize("dy,field", [
    # 9e301 nodes on the derived grid: the node cap rejects it
    (1e-300, r"\[grid\] a semigroup-checks run on \d+ nodes .* memory budget"),
    # the derived half-width over a subnormal dy is not finite
    (5e-324, r"\[grid\] need finite y_max .* finite ratio"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_subnormal_dy_is_a_config_error(dy, field):
    # checked by validation alone, never run
    cfg = default_config()
    cfg["experiment"]["kind"] = "semigroup-checks"
    cfg["grid"]["dy"] = dy
    with pytest.raises(ConfigError, match=field):
        validate_config(cfg)


@pytest.mark.parametrize("dy, clear", [(11.3, False), (11.37, True), (10.0, False), (9.0, True)])
def test_semigroup_checks_need_an_interior_beyond_the_edge_collar(dy, clear):
    # the kernel checks keep nodes 8 sqrt(2) ~ 11.314 inside the edge and
    # need y = 0 and its two neighbours among them; at K0 = 0.5 the derived
    # half-width 20 rounds up to 2 dy for dy in [10, 20), which needs
    # dy >= 11.314, and to 3 dy = 27 at dy = 9.  Validation rejects all
    # four, cleared or not, for the checks' narrowest kernel (theta = 0.01
    # needs dy <= 0.1178); a grid that fine holds y_max >= 20 > 8 sqrt(2) + dy,
    # so the edge collar needs no check of its own
    cfg = default_config()
    cfg["experiment"]["kind"] = "semigroup-checks"
    cfg["trap"]["K0"] = 0.5
    cfg["grid"]["dy"] = dy
    grid = make_grid(default_y_max(0.5, cfg["trajectory"]["s_end"]), dy)
    if clear:
        interior_mask(grid)
    else:
        with pytest.raises(ValueError, match="edge collar"):
            interior_mask(grid)
    with pytest.raises(ConfigError, match=r"\[grid\] dy: too coarse .* theta=0.01 "):
        validate_config(cfg)
    # the coarsest dy it admits: |y| <= 171 dy - 8 sqrt(2) = 8.69 holds 149 nodes
    cfg["grid"]["dy"] = 0.117
    assert np.count_nonzero(interior_mask(validate_config(cfg).grid)) == 149


# the narrowest kernel of each kind at [trajectory] ds = 0.02 and 0.05, and
# the coarsest dy to 3 digits that keeps its row mass error at most 1e-12
# (0.0834, 0.1178, 0.1661 and 0.2607 for theta = 0.005, 0.01, 0.02, 0.05)
@pytest.mark.parametrize("kind, ds, theta, dy_max", [
    ("semigroup-checks", 0.02, 0.01, 0.117),
    ("trajectory", 0.02, 0.02, 0.166),
    ("trajectory", 0.05, 0.05, 0.26),
    ("shoot", 0.05, 0.01, 0.117),
    ("full-pipeline", 0.02, 0.005, 0.083),
])
def test_grid_must_resolve_the_narrowest_kernel(kind, ds, theta, dy_max):
    # validation alone; K0 = 1 keeps the grids small
    cfg = apply_overrides(default_config(), ["trap.K0=1", f"trajectory.ds={ds}"])
    cfg["experiment"]["kind"] = kind
    assert kernel_mass_error(theta, dy_max) <= 1e-12 < kernel_mass_error(theta, dy_max + 1e-3)
    cfg["grid"]["dy"] = dy_max
    validate_config(cfg)
    cfg["grid"]["dy"] = dy_max + 1e-3
    with pytest.raises(ConfigError, match=rf"\[grid\] dy: too coarse .* theta={theta!r} "):
        validate_config(cfg)


def test_spectral_checks_apply_no_kernel_and_take_any_grid():
    cfg = apply_overrides(default_config(), ["trap.K0=0.5", "grid.dy=5"])
    cfg["experiment"]["kind"] = "spectral-checks"
    assert validate_config(cfg).grid.n == 9


def test_semigroup_checks_keep_the_kernels_the_memory_cap_counts(monkeypatch):
    # a semigroup-checks run keeps as many kernels as `_demand`'s
    # semigroup-checks row plans for
    monkeypatch.setattr(semigroup, "_MATRIX_CACHE", {})
    cfg = apply_overrides(
        default_config(), ["trap.K0=0.5", "grid.dy=0.1", "experiment.kind=semigroup-checks"]
    )
    run_semigroup_checks(validate_config(cfg))
    assert len(semigroup._MATRIX_CACHE) == _CHECK_KERNELS


@pytest.mark.parametrize("s_end,ds", [
    (20.029, 0.02),
    (23.005, 0.01),
    (26.01, 0.02),
    (26.0, 0.035),
])
def test_window_must_be_a_whole_number_of_steps(s_end, ds):
    cfg = default_config()
    tj = cfg["trajectory"]
    tj["s_end"], tj["ds"] = s_end, ds
    with pytest.raises(ConfigError, match=r"\[trajectory\] s_end: .*not a whole number of steps"):
        validate_config(cfg)
    # one step more or less fits again
    tj["s_end"] = tj["s0"] + ds * round((s_end - tj["s0"]) / ds)
    validate_config(cfg)


def test_shoot_checks_the_trajectory_window():
    # the shoot tunes the [trajectory] data over the [trajectory] window
    cfg = default_config()
    cfg["experiment"]["kind"] = "shoot"
    cfg["trajectory"]["s_end"] = 5.0
    cfg["trajectory"]["s0"] = 10.0
    with pytest.raises(ConfigError, match=r"\[trajectory\] s_end"):
        validate_config(cfg)


def test_known_kinds_are_frozen():
    assert EXPERIMENT_KINDS == (
        "spectral-checks",
        "semigroup-checks",
        "trajectory",
        "shoot",
        "physical",
        "stability",
        "full-pipeline",
    )


def test_each_kind_has_a_runner_and_a_demand_row():
    assert set(experiments._RUNNERS) == set(EXPERIMENT_KINDS)
    cfg = default_config()
    rows = {kind: _demand(cfg, kind) for kind in EXPERIMENT_KINDS}
    assert set(PIPELINE) < set(EXPERIMENT_KINDS) and "full-pipeline" not in PIPELINE
    # full-pipeline keeps the nine check kernels, the shoot's, the CHECK_DS
    # kernel and the Duhamel split's gap kernels of 6 and 7 steps, and the
    # kernel of the last step of its physical part's march; it steps the
    # witness's 49 rows over the shoot's 301 observations and profiles its
    # physical run
    kernels = (math.inf,) * _CHECK_KERNELS + (0.02, 0.01, 0.06, 0.07, 0.01)
    assert rows["full-pipeline"] == ((kernels, 49, 301), 300)


def test_shoot_demand_counts_the_checks_of_its_certificate():
    # the witness steps 49 rows together, and the Duhamel split keeps the
    # kernels of 0.06 and 0.07 next to those of 0.02 and 0.01.  On the
    # 45795-node grid of dy = 0.002 each alone fits (caps of 590162 nodes
    # for the rows, a lone one and 48 further, and 47890 for the kernels
    # and a build), and both together cap the run at 44264 nodes
    cfg = default_config()
    cfg["experiment"]["kind"] = "shoot"
    cfg["grid"]["dy"] = 0.002
    with pytest.raises(ConfigError, match=r"a shoot run on 45795 nodes .* at most 44264 nodes"):
        validate_config(cfg)
    cfg["grid"]["dy"] = 0.003
    validate_config(cfg)


def test_shoot_demand_counts_further_rows_at_their_own_cost():
    # 43613 nodes at dy = 0.0021: counting each of the 49 rows as a lone
    # one (180 bytes per node) capped the run at 41652 nodes; a lone row
    # and 48 further ones of 72 fit
    cfg = apply_overrides(default_config(), ["experiment.kind=shoot", "grid.dy=0.0021"])
    assert validate_config(cfg).grid.n == 43613


def test_config_text_is_sorted_and_canonical():
    text = config_text(default_config())
    lines = text.splitlines()
    pairs = [tuple(line.split("=", 1)[0].split(".")) for line in lines]
    assert pairs == sorted(pairs)
    assert text.endswith("\n")
    assert "trajectory.ds=0.02" in lines


def test_hash_stability_and_sensitivity(tmp_path):
    cfg = default_config()
    h = config_hash(cfg)
    assert len(h) == 64 and int(h, 16) >= 0
    # an empty file is all defaults: identical canonical text, identical hash
    empty = _write(tmp_path, "")
    assert config_hash(load_config(empty)) == h
    # spelled-out default too
    spelled = _write(tmp_path, "[trajectory]\nds = 0.02\n")
    assert config_hash(load_config(spelled)) == h
    cfg["trajectory"]["ds"] = 0.01
    assert config_hash(cfg) != h


# every int and float key of the schema, with its type
_NUMERIC_KEYS = [
    (section, key, typ)
    for section, keys in SCHEMA.items()
    for key, (typ, _) in keys.items()
    if typ in (int, float)
]
_FLOAT_DRAWS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 5e-324]
_INT_DRAWS = [0, -1, 10**18]


@st.composite
def _overrides(draw):
    """One to three keys set to a bad, extreme or valid (default) value,
    and an experiment kind."""
    chosen = draw(st.lists(st.sampled_from(_NUMERIC_KEYS), min_size=1, max_size=3, unique=True))
    pool = {float: _FLOAT_DRAWS, int: _INT_DRAWS}
    values = {
        (section, key): draw(st.sampled_from(pool[typ] + [SCHEMA[section][key][1]]))
        for section, key, typ in chosen
    }
    return values, draw(st.sampled_from(EXPERIMENT_KINDS))


def _assert_in_range(cfg, run):
    for section, key, typ in _NUMERIC_KEYS:
        if typ is float:
            assert math.isfinite(cfg[section][key]), (section, key)
    m = cfg["model"]
    assert m["p"] > 1.0
    assert 0.0 <= m["alpha"] < 2.0 * m["p"] / (m["p"] + 1.0)
    assert 0.0 <= m["alpha_bar"] < m["p"]
    assert cfg["grid"]["dy"] > 0.0
    assert cfg["trap"]["A"] >= 1.0 and cfg["trap"]["K0"] > 0.0
    assert 0.0 < cfg["trajectory"]["ds"] <= 0.5
    assert math.e <= cfg["trajectory"]["s0"] < cfg["trajectory"]["s_end"]
    ph = cfg["physical"]
    assert ph["n_x"] >= 17 and ph["n_x"] % 2 == 1
    assert ph["z_max"] > 0.0
    # the grid a run builds holds the cutoff support up to s_end, its dy
    # resolves the narrowest kernel, and the kernel checks keep an interior
    # beyond the edge collar
    kind = cfg["experiment"]["kind"]
    if kind in ("spectral-checks", "semigroup-checks", "trajectory", "shoot", "full-pipeline"):
        grid = run.grid
        check_cutoff_support(grid.y_max, cfg["trap"]["K0"], cfg["trajectory"]["s_end"])
        ds = cfg["trajectory"]["ds"]
        narrowest = {"semigroup-checks": 0.01, "trajectory": ds, "shoot": min(ds, 0.01),
                     "full-pipeline": min(ds, 0.005)}
        if kind in narrowest:
            assert kernel_mass_error(narrowest[kind], grid.dy) <= 1e-12
        if kind in ("semigroup-checks", "full-pipeline"):
            interior_mask(grid)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_overrides())
# dy rounds the derived half-width down to a one-node grid
@example(({("grid", "dy"): 1e300}, "shoot"))
def test_validation_either_rejects_or_keeps_every_range(drawn):
    # validation alone: no run is started, so the memory-cap cases are safe
    values, kind = drawn
    cfg = default_config()
    for (section, key), value in values.items():
        cfg[section][key] = value
    cfg["experiment"]["kind"] = kind
    try:
        run = validate_config(cfg)
    except ConfigError:
        return
    _assert_in_range(cfg, run)
