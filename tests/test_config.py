"""INI schema, overrides, validation messages, canonical hashing."""

import math

import pytest
from hypothesis import given, settings
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
    validate_config,
)
from blowup_lab.experiments import run_semigroup_checks


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


def test_load_merges_onto_defaults(tmp_path):
    path = _write(tmp_path, "[model]\np = 3.0\n\n[solver]\nds = 0.02\n")
    cfg = load_config(path)
    assert cfg["model"]["p"] == 3.0
    assert cfg["solver"]["ds"] == 0.02
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
    # the per-term switches, the scheme and boundary choices and the
    # physical dt0/t_budget knobs are gone
    for section, key in (
        ("solver", "include_residual"),
        ("solver", "scheme"),
        ("solver", "bc"),
        ("physical", "t_budget"),
    ):
        path = _write(tmp_path, f"[{section}]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)


def test_overrides_apply_in_order():
    cfg = default_config()
    apply_overrides(cfg, ["solver.ds=0.02", "solver.ds=0.04", "trap.A=9"])
    assert cfg["solver"]["ds"] == 0.04
    assert cfg["trap"]["A"] == 9.0


def test_override_syntax_errors():
    cfg = default_config()
    with pytest.raises(ConfigError, match="not of the form"):
        apply_overrides(cfg, ["solver.ds"])
    with pytest.raises(ConfigError, match="not a known key"):
        apply_overrides(cfg, ["solver.dt=0.01"])
    with pytest.raises(ConfigError, match="not a known key"):
        apply_overrides(cfg, ["ds=0.01"])


@pytest.mark.parametrize("section,key,value,msg", [
    ("model", "p", 1.0, "must be > 1"),
    ("grid", "dy", 0.0, "must be > 0"),
    ("grid", "y_max", -1.0, "must be >= 0"),
    ("trap", "A", 0.5, "must be >= 1"),
    ("trap", "K0", 0.0, "must be > 0"),
    ("solver", "ds", 0.9, r"must be in \(0, 0.5\]"),
    ("trajectory", "s_end", 19.0, "must exceed"),
    ("trajectory", "s0", 2.0, "must be >= e"),
    ("trajectory", "record_stride", 0, "must be >= 1"),
    ("shooting", "max_levels", 0, "must be >= 1"),
    ("physical", "n_x", 1600, "odd integer"),
    ("physical", "fit_hi", 1e6, "fit_lo < fit_hi < stop_factor"),
    ("physical", "t_rel_tol", -1.0, "must be >= 0"),
    ("physical", "cfl", 0.0, r"\[physical\] cfl must be > 0"),
    ("physical", "lam", 0.0, r"\[physical\] lam must be > 0"),
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
    ("grid", "y_max", math.nan),
    ("trap", "K0", math.nan),
    ("trap", "A", math.nan),
    ("trajectory", "d0", math.nan),
    ("model", "alpha", math.nan),
    ("model", "mu", math.inf),
    ("solver", "ds", math.nan),
    ("physical", "d0", math.nan),
    ("physical", "t_rel_tol", math.nan),
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
    validate_config(cfg)


@pytest.mark.parametrize("y_max,ok", [(39.98, True), (39.9, False)])
def test_y_max_checked_on_the_grid_the_run_builds(y_max, ok):
    # trajectory decomposes at s_end = 25, needing 2*K0*sqrt(25) = 40; the
    # run rounds y_max up to a multiple of dy, so 39.98 gives a 40.0 grid
    cfg = default_config()
    cfg["trajectory"]["s_end"] = 25.0
    cfg["grid"]["y_max"] = y_max
    if ok:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=r"\[grid\] y_max: .*grid too narrow"):
            validate_config(cfg)


@pytest.mark.parametrize("overrides,kind,field", [
    # 8.7e8 nodes on the derived grid; this run was killed for lack of memory
    ({"grid": {"dy": 1e-7}}, "trajectory", r"\[grid\] a trajectory run on 867333045 nodes"),
    ({"grid": {"y_max": 1e6}}, "spectral-checks", r"\[grid\] a spectral-checks run"),
    # the derived grid at s_end = 26 has 91587 nodes, and a dy = 0.001
    # kernel of ds = 0.02 spans 3555 of them per row
    ({"grid": {"dy": 0.001}}, "shoot", r"\[grid\] a shoot run on 91587 nodes"),
    # 1e8 steps of ds = 0.01 to record leave no room for any node
    ({"trajectory": {"s_end": 1e6}}, "trajectory", r"\[grid\] .* holds at most 0 nodes"),
    ({"physical": {"n_x": 400000001}}, "physical", r"\[physical\] n_x: a physical run"),
    ({"physical": {"n_x": 400000001}}, "full-pipeline", r"\[physical\] n_x"),
    # a physical run may take 5e6 nodes, but the stability probe steps seven
    # rows of them together
    ({"physical": {"n_x": 5_000_001}}, "stability", r"\[physical\] n_x: a stability run"),
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
    ({"physical": {"n_x": 12_000_001}}, "physical"),
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
    # a kind without a grid demand still builds the given grid
    ({"grid": {"y_max": 1e300, "dy": 1e-300}}, "physical"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grids_whose_node_count_overflows_are_config_errors(overrides, kind):
    cfg = default_config()
    for section, values in overrides.items():
        cfg[section].update(values)
    cfg["experiment"]["kind"] = kind
    with pytest.raises(ConfigError, match=r"\[grid\] need finite y_max"):
        validate_config(cfg)


@pytest.mark.parametrize("y_max,field", [
    # 4e23 nodes: the node cap rejects the grid
    (1e-300, r"\[grid\] a semigroup-checks run on \d+ nodes .* memory budget"),
    # 41 nodes, within the cap: the edge collar rejects the grid
    (1e-322, r"\[grid\] y_max: .*edge collar"),
])
def test_subnormal_dy_is_a_config_error(y_max, field):
    # y_max / dy is finite but half a kernel's width / dy is not; checked
    # by validation alone, never run
    cfg = default_config()
    cfg["experiment"]["kind"] = "semigroup-checks"
    cfg["grid"].update({"dy": 5e-324, "y_max": y_max})
    with pytest.raises(ConfigError, match=field):
        validate_config(cfg)


@pytest.mark.parametrize("y_max, ok", [(11.3, False), (11.35, False), (11.37, True)])
def test_semigroup_checks_need_an_interior_beyond_the_edge_collar(y_max, ok):
    # the kernel checks keep nodes 8 sqrt(2) ~ 11.314 inside the edge and
    # need y = 0 and its two neighbours among them: y_max >= 11.364 at
    # dy = 0.05, on the grid the run builds (11.37 rounds up to 11.4)
    cfg = default_config()
    cfg["experiment"]["kind"] = "semigroup-checks"
    cfg["grid"]["y_max"] = y_max
    if ok:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=r"\[grid\] y_max: .*edge collar"):
            validate_config(cfg)


def test_semigroup_checks_keep_the_kernels_the_memory_cap_counts(monkeypatch):
    # a semigroup-checks run keeps as many kernels as `_check_memory` plans for
    monkeypatch.setattr(semigroup, "_MATRIX_CACHE", {})
    cfg = apply_overrides(default_config(), ["grid.y_max=12", "grid.dy=0.1"])
    run_semigroup_checks(cfg)
    assert len(semigroup._MATRIX_CACHE) == _CHECK_KERNELS


@pytest.mark.parametrize("section,s_end,ds_key,ds", [
    ("trajectory", 20.029, ("solver", "ds"), 0.02),
    ("trajectory", 23.005, ("solver", "ds"), 0.01),
    ("shooting", 26.01, ("shooting", "ds"), 0.02),
    ("shooting", 26.0, ("shooting", "ds"), 0.035),
])
def test_window_must_be_a_whole_number_of_steps(section, s_end, ds_key, ds):
    cfg = default_config()
    cfg[section]["s_end"] = s_end
    cfg[ds_key[0]][ds_key[1]] = ds
    with pytest.raises(ConfigError, match=rf"\[{section}\] s_end: .*not a whole number of steps"):
        validate_config(cfg)
    # one step more or less fits again
    cfg[section]["s_end"] = cfg[section]["s0"] + ds * round((s_end - cfg[section]["s0"]) / ds)
    validate_config(cfg)


def test_trajectory_shoot_s0_checked_separately():
    cfg = default_config()
    cfg["shooting"]["s_end"] = 5.0
    cfg["shooting"]["s0"] = 10.0
    with pytest.raises(ConfigError, match=r"\[shooting\] s_end"):
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
    assert "solver.ds=0.01" in lines


def test_hash_stability_and_sensitivity(tmp_path):
    cfg = default_config()
    h = config_hash(cfg)
    assert len(h) == 64 and int(h, 16) >= 0
    # an empty file is all defaults: identical canonical text, identical hash
    empty = _write(tmp_path, "")
    assert config_hash(load_config(empty)) == h
    # spelled-out default too
    spelled = _write(tmp_path, "[solver]\nds = 0.01\n")
    assert config_hash(load_config(spelled)) == h
    cfg["solver"]["ds"] = 0.02
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
    assert cfg["grid"]["dy"] > 0.0 and cfg["grid"]["y_max"] >= 0.0
    assert cfg["trap"]["A"] >= 1.0 and cfg["trap"]["K0"] > 0.0
    assert 0.0 < cfg["solver"]["ds"] <= 0.5 and 0.0 < cfg["shooting"]["ds"] <= 0.5
    for section in ("trajectory", "shooting"):
        assert math.e <= cfg[section]["s0"] < cfg[section]["s_end"]
    assert cfg["trajectory"]["record_stride"] >= 1
    assert cfg["shooting"]["max_levels"] >= 1
    ph = cfg["physical"]
    assert ph["n_x"] >= 17 and ph["n_x"] % 2 == 1
    assert 1.0 < ph["fit_lo"] < ph["fit_hi"] < ph["stop_factor"]
    assert min(ph["s0"], ph["z_max"], ph["cfl"], ph["lam"]) > 0.0
    assert ph["t_rel_tol"] >= 0.0


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_overrides())
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
