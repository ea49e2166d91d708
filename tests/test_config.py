"""INI schema, overrides, validation messages, canonical hashing."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_lab import semigroup
from blowup_lab.config import (
    _CHECK_KERNELS,
    EXPERIMENT_KINDS,
    SCHEMA,
    ConfigError,
    apply_overrides,
    config_hash,
    config_text,
    default_config,
    load_config,
    run_grid,
    validate_config,
)
from blowup_lab.experiments import run_semigroup_checks
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
    # centre: the cap is 65011 nodes (dy = 0.001 fits, 91587 nodes against
    # a cap of 126337)
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


@pytest.mark.parametrize("dy, ok", [(11.3, False), (11.37, True), (10.0, False), (9.0, True)])
def test_semigroup_checks_need_an_interior_beyond_the_edge_collar(dy, ok):
    # the kernel checks keep nodes 8 sqrt(2) ~ 11.314 inside the edge and
    # need y = 0 and its two neighbours among them; at K0 = 0.5 the derived
    # half-width 20 rounds up to 2 dy for dy in [10, 20), which needs
    # dy >= 11.314, and to 3 dy = 27 at dy = 9
    cfg = default_config()
    cfg["experiment"]["kind"] = "semigroup-checks"
    cfg["trap"]["K0"] = 0.5
    cfg["grid"]["dy"] = dy
    if ok:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=r"\[grid\] dy: .*edge collar"):
            validate_config(cfg)


def test_semigroup_checks_keep_the_kernels_the_memory_cap_counts(monkeypatch):
    # a semigroup-checks run keeps as many kernels as `_check_memory` plans for
    monkeypatch.setattr(semigroup, "_MATRIX_CACHE", {})
    cfg = apply_overrides(default_config(), ["trap.K0=0.5", "grid.dy=0.1"])
    run_semigroup_checks(cfg)
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


def _assert_in_range(cfg):
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
    # the grid a run builds holds the cutoff support up to s_end, and the
    # kernel checks keep an interior beyond the edge collar
    kind = cfg["experiment"]["kind"]
    if kind in ("spectral-checks", "semigroup-checks", "trajectory", "shoot", "full-pipeline"):
        grid = run_grid(cfg)
        check_cutoff_support(grid.y_max, cfg["trap"]["K0"], cfg["trajectory"]["s_end"])
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
        validate_config(cfg)
    except ConfigError:
        return
    _assert_in_range(cfg)
