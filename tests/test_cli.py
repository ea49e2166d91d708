"""End-to-end command line runs: exit codes, artifacts, reproducibility."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from blowup_lab import physical, shooting
from blowup_lab.cli import main
from blowup_lab.config import load_config, validate_config

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_configs"

BASE = """\
[model]
p = 2.0

[trajectory]
d0 = 0.0
d1 = 0.0
s0 = 20.0
s_end = 20.5
ds = 0.02

[experiment]
kind = trajectory
"""


@pytest.fixture
def base_ini(tmp_path):
    path = tmp_path / "base.ini"
    path.write_text(BASE)
    return path


def test_short_trajectory_run_passes(base_ini, tmp_path, capsys):
    out = tmp_path / "res"
    rc = main(["run", str(base_ini), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "running trajectory" in captured.out
    assert "PASS" in captured.out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["MANIFEST.txt", "config.txt", "report.json", "trajectory.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["initially_inside"] is True
    # the untuned baseline leaves through the even expanding mode just before
    # the window closes; a clean transverse mode exit still counts as a pass
    assert report["survived"] is False
    assert report["exit"]["component"] == "q0"
    assert report["exit"]["transverse"] is True


def test_report_is_sorted_json(base_ini, tmp_path):
    out = tmp_path / "res"
    main(["run", str(base_ini), "--out", str(out)])
    text = (out / "report.json").read_text()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_manifest_digests_match_files(base_ini, tmp_path):
    out = tmp_path / "res"
    main(["run", str(base_ini), "--out", str(out)])
    lines = (out / "MANIFEST.txt").read_text().splitlines()
    assert lines[0].startswith("config ")
    assert len(lines[0].split()[1]) == 64
    listed = {}
    for line in lines[1:]:
        digest, name = line.split()
        listed[name] = digest
    assert sorted(listed) == ["config.txt", "report.json", "trajectory.csv"]
    for name, digest in listed.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_reruns_are_byte_identical(base_ini, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", str(base_ini), "--out", str(out1)])
    main(["run", str(base_ini), "--out", str(out2)])
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("kind, overrides, tables", [
    ("trajectory", [], ["trajectory.csv"]),
    ("spectral-checks", [], ["gram.csv"]),
    ("physical", ["physical.n_x=801"], ["peak_history.csv"]),
], ids=["trajectory", "spectral-checks", "physical"])
def test_csv_data_cells_are_numbers(base_ini, tmp_path, kind, overrides, tables):
    # numpy 2 writes repr() of its scalars as np.float64(...), which no
    # CSV reader takes for a number
    out = tmp_path / "res"
    args = ["run", str(base_ini), "--out", str(out), "--kind", kind]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == tables
    for name in tables:
        header, *rows = (out / name).read_text().splitlines()
        assert rows, name
        for row in rows:
            for cell in row.split(","):
                float(cell)


def test_kind_flag_beats_config_and_override(base_ini, tmp_path, capsys):
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out),
        "--override", "experiment.kind=trajectory",
        "--kind", "spectral-checks",
    ])
    assert rc == 0
    assert "running spectral-checks" in capsys.readouterr().out
    assert (out / "gram.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["orthogonality"] is True
    assert report["profile_residual_over_eps"] < 10.0


def test_override_lands_in_config_txt(base_ini, tmp_path):
    # 0.05 differs from the file's ds = 0.02, so a dropped override fails:
    # at 0.05 the run records 11 rows up to s_end; at 0.02 it records 24
    # rows, up to its trap exit at s = 20.46
    out = tmp_path / "res"
    main([
        "run", str(base_ini), "--out", str(out),
        "--override", "trajectory.ds=0.05",
    ])
    lines = (out / "config.txt").read_text().splitlines()
    assert "trajectory.ds=0.05" in lines
    assert "trajectory.s_end=20.5" in lines  # file value survives
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) - 1 == 11  # data rows below the header


def test_failed_check_returns_one_but_writes_artifacts(
    base_ini, tmp_path, capsys, monkeypatch
):
    # one level of search cannot tune (d0, d1) to s_end = 26, so the shoot
    # ends on its budget, fails its check and still writes its artifacts
    monkeypatch.setattr(shooting, "MAX_LEVELS", 1)
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "shoot",
        "--override", "trajectory.s_end=26",
    ])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False
    assert report["certificate"]["status"] == "max-levels"
    assert {"MANIFEST.txt", "config.txt", "report.json"} <= {p.name for p in out.iterdir()}


def test_config_errors_return_two(base_ini, tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2
    assert "config file not found" in capsys.readouterr().err

    rc = main(["run", str(base_ini), "--override", "model.alpha=2.0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: [model] supercritical alpha" in err
    assert "need alpha < 2p/(p+1) = 1.3333333333333333" in err

    assert main(["run", str(base_ini), "--override", "trajectory.ds"]) == 2
    assert "not of the form" in capsys.readouterr().err

    assert main(["run", str(base_ini), "--kind", "warp"]) == 2
    assert "must be one of" in capsys.readouterr().err


def test_unreadable_config_returns_two(tmp_path, capsys):
    # the bytes ff fe decode as no UTF-8
    ini = tmp_path / "utf16.ini"
    ini.write_bytes(b"\xff\xfe[model]\np = 2.0\n")
    out = tmp_path / "res"
    assert main(["run", str(ini), "--out", str(out)]) == 2
    assert "config error: could not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", ["", "sub", "report.json", "trajectory.csv", "MANIFEST.txt"])
def test_output_path_through_a_file_returns_two(base_ini, tmp_path, capsys, under):
    # checked before the run: a file where a directory must go, or a
    # directory where an artifact must go
    taken = tmp_path / "taken"
    if "." in under:
        (taken / under).mkdir(parents=True)
        out, msg = taken, f"holds {under}, which is not a file"
    else:
        taken.write_text("kept\n")
        out, msg = taken / under, "is, or lies under, a file"
    assert main(["run", str(base_ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert msg in captured.err
    assert "running" not in captured.out
    if taken.is_file():
        assert taken.read_text() == "kept\n"
    else:
        assert [p.name for p in taken.rglob("*")] == [under]


@pytest.mark.parametrize("item,msg", [
    ("trajectory.s_end=inf", "[trajectory] s_end: expected a finite number"),
    ("trajectory.s_end=nan", "[trajectory] s_end: expected a finite number"),
    ("trap.A=nan", "[trap] A: expected a finite number"),
    ("model.alpha=nan", "[model] alpha: expected a finite number"),
    ("trajectory.s_end=20.029", "[trajectory] s_end: window [20.0, 20.029] is not a whole"),
    ("trajectory.ds=0.035", "[trajectory] s_end: window [20.0, 20.5] is not a whole"),
    ("solver.scheme=imex-cn", "override target 'solver.scheme' is not a known key"),
    ("physical.t_rel_tol=0", "override target 'physical.t_rel_tol' is not a known key"),
])
def test_value_outside_the_schema_returns_two(base_ini, tmp_path, capsys, item, msg):
    out = tmp_path / "res"
    rc = main(["run", str(base_ini), "--out", str(out), "--override", item])
    assert rc == 2
    assert f"config error: {msg}" in capsys.readouterr().err
    assert not out.exists()


# the copies of the [trajectory] data, window and step that the solver, the
# shoot and the physical run kept, the given grid half-width and the shoot's
# level budget
_REMOVED_NAMES = [
    ("solver", "ds", "unknown section [solver]"),
    ("shooting", "s0", "unknown section [shooting]"),
    ("shooting", "s_end", "unknown section [shooting]"),
    ("shooting", "ds", "unknown section [shooting]"),
    ("shooting", "max_levels", "unknown section [shooting]"),
    ("grid", "y_max", "unknown key 'y_max' in [grid]"),
    ("physical", "s0", "unknown key 's0' in [physical]"),
    ("physical", "d0", "unknown key 'd0' in [physical]"),
    ("physical", "d1", "unknown key 'd1' in [physical]"),
]


@pytest.mark.parametrize("section,key,msg", _REMOVED_NAMES)
def test_removed_names_return_two(base_ini, tmp_path, capsys, section, key, msg):
    out = tmp_path / "res"
    ini = tmp_path / "old.ini"
    ini.write_text(f"{BASE}\n[{section}]\n{key} = 20.0\n")
    assert main(["run", str(ini), "--out", str(out)]) == 2
    assert f"config error: {msg}" in capsys.readouterr().err
    rc = main(["run", str(base_ini), "--out", str(out), "--override", f"{section}.{key}=20.0"])
    assert rc == 2
    assert f"override target '{section}.{key}' is not a known key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["physical", "stability"])
def test_physical_kinds_reject_s0_below_e(base_ini, tmp_path, capsys, kind):
    # the physical run starts from the [trajectory] data, whose s0 >= e
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", kind,
        "--override", "trajectory.s0=2.5",
    ])
    assert rc == 2
    assert "config error: [trajectory] starting time must be >= e" in capsys.readouterr().err
    assert not out.exists()


def test_full_pipeline_follows_the_certificate(base_ini, tmp_path):
    # the shoot certifies (d0*, d1*) from [trajectory] s0 to s_end, and the
    # physical run starts from that data at the same s0
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "full-pipeline",
        "--override", "trajectory.s_end=26",
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["shoot"]["certificate"]["status"] == "survived"
    phys = report["physical"]
    assert phys["T"] == math.exp(-20.0)
    # measured 3.97e-6 (n_x = 1601, certificate at level 2)
    assert phys["rel_T_err"] < 1e-5
    # all 49 witness rows leave through an expanding mode (by s = 23.1),
    # and the mode-0 defect at 2 s0 needs a window to 2 s0 + 1.5 = 41.5
    shoot = report["shoot"]
    assert (shoot["witness"]["n_runs"], shoot["witness"]["fraction_q0q1"]) == (49, 1.0)
    figures = [shoot["record_checks"][k] for k in ("slope_q", "slope_gradq", "grad_bound_ratio")]
    figures += [shoot["duhamel"]["residual_over_q_sup"], phys["transform_diff"]]
    assert all(math.isfinite(x) for x in figures)
    assert "mode_ode_doubling" not in shoot


def test_full_pipeline_stops_after_a_failed_shoot(base_ini, tmp_path, monkeypatch):
    # one level of search cannot tune (d0, d1) to s_end = 26: no certificate,
    # so no physical run
    monkeypatch.setattr(shooting, "MAX_LEVELS", 1)
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "full-pipeline",
        "--override", "trajectory.s_end=26",
    ])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"spectral", "semigroup", "shoot", "ok"}
    assert report["ok"] is False
    assert not list(out.glob("physical_*"))


def test_numerical_failure_returns_three(base_ini, tmp_path, capsys, monkeypatch):
    # an absurd step law makes the first steps leap past the entire
    # blow-up window; the estimator cannot fit and the run aborts
    monkeypatch.setattr(physical, "CFL", 1e9)
    monkeypatch.setattr(physical, "LAM", 1e9)
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "physical",
        "--override", "physical.n_x=801",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "too few samples in the extrapolation window" in err
    assert not out.exists()  # nothing half-written


@pytest.mark.parametrize(
    "kind", ["trajectory", "spectral-checks", "shoot", "semigroup-checks"]
)
def test_grid_too_narrow_for_decomposition_returns_two(
    base_ini, tmp_path, capsys, kind
):
    # dy rounds the derived half-width 41.2 down to a one-node grid
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", kind,
        "--override", "grid.dy=1e15",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: [grid] dy: " in err and "grid too narrow" in err
    assert not out.exists()


def test_grid_without_interior_returns_two(base_ini, tmp_path, capsys):
    # at K0 = 0.5 the derived half-width is 20, and dy = 10 keeps only y = 0
    # clear of the kernel checks' edge collar; validation rejects it for
    # the checks' narrowest kernel, which no grid without an interior
    # resolves
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "semigroup-checks",
        "--override", "trap.K0=0.5", "--override", "grid.dy=10",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: [grid] dy: too coarse for the kernel of theta=0.01 " in err
    assert not out.exists()


def test_grid_too_coarse_for_its_kernels_returns_two(base_ini, tmp_path, capsys):
    # the shoot's kernels lose 9e-4 of their mass per step at ds = 0.05 on
    # dy = 0.5 and 0.42 at CHECK_DS = 0.01; this run used to certify and
    # exit 0 while its Duhamel split diverged at s = 20.35
    out = tmp_path / "res"
    overrides = ["trap.K0=0.5", "grid.dy=0.5", "trajectory.ds=0.05", "trajectory.s_end=25",
                 "model.p=1.5"]
    rc = main(["run", str(base_ini), "--out", str(out), "--kind", "shoot",
               *(arg for o in overrides for arg in ("--override", o))])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[grid] dy: too coarse for the kernel of theta=0.01 that a shoot run applies" in err
    assert "off by 0.42" in err
    assert not out.exists()


def test_value_error_during_run_returns_three(base_ini, tmp_path, capsys, monkeypatch):
    # a ValueError that survives validation is a numerical failure, and
    # the run writes nothing
    def fail(run):
        raise ValueError("zero-size array")

    monkeypatch.setattr("blowup_lab.experiments.run_experiment", fail)
    out = tmp_path / "res"
    rc = main(["run", str(base_ini), "--out", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_zero_z_max_returns_two(base_ini, tmp_path, capsys):
    out = tmp_path / "res"
    rc = main([
        "run", str(base_ini), "--out", str(out), "--kind", "physical",
        "--override", "physical.z_max=0",
    ])
    assert rc == 2
    assert "config error: [physical] z_max must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.ini")), ids=lambda p: p.name)
def test_example_config_loads_and_validates(path):
    validate_config(load_config(path))


def test_base_example_runs_to_exit_zero(tmp_path):
    rc = main(["run", str(EXAMPLES / "base.ini"), "--out", str(tmp_path / "res")])
    assert rc == 0
