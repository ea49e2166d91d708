"""End-to-end acceptance checks, one summary line per criterion.

Nine checks cover the whole laboratory: Hermite/operator identities, the
semigroup action, profile and source identities, the tuned trapped
trajectory in the plain model, the finite-dimensional reduction witness,
the gradient-perturbed rerun with its source-size chain, physical-variable
blow-up with profile and stability probes, and byte-level reproducibility
of the command-line artifacts.

Each check builds its runs as `blowup-lab run` does, from
`examples_configs/base.ini` and overrides through `config.validate_config`,
runs them in process with `experiments.run_experiment` and reads its
figures from their reports (README, "Install and test", gives the command
line of each).  Only the homogeneous oracle of criterion 7 is called
directly: no experiment kind runs it.  The checks themselves only combine
reports and compare them with bounds.  Each prints exactly one line

    acceptance <k> <name>: PASS|FAIL | <measured numbers vs pinned bounds>

directly to the terminal (outside capture, so the line is visible in a
plain pytest run) and then asserts.  The two tuned parameter searches to
s_end = 50, with the checks of their certificates, dominate the runtime
at 2.9-3.9 s each (7.1-7.6 s for the whole file, one BLAS thread on a
2-vCPU VM).  All tolerances are pinned
from measurements recorded next to the assertions.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blowup_lab.cli import main as cli_main
from blowup_lab.config import apply_overrides, load_config, validate_config
from blowup_lab.experiments import run_experiment
from blowup_lab.physical import homogeneous_oracle

BASE_INI = Path(__file__).resolve().parents[1] / "examples_configs" / "base.ini"
PERTURBED = [f"model.{k}=1.0" for k in ("alpha", "alpha_bar", "mu", "mu_bar", "mu0")]


def _run(kind: str, *overrides: str, snapshot_factors: tuple = ()):
    """The validated run of base.ini with the overrides, and its report;
    snapshot_factors, not a config key, replaces the physical run's."""
    cfg = apply_overrides(load_config(BASE_INI), [f"experiment.kind={kind}", *overrides])
    run = validate_config(cfg)
    if snapshot_factors:
        run = replace(run, physical=replace(run.physical, snapshot_factors=snapshot_factors))
    return run, run_experiment(run)[0]


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def spectral():
    # at K0 = 1 the derived grid is [-20, 20] at dy = 0.05
    return {p: _run("spectral-checks", "trap.K0=1", f"model.p={p}")[1] for p in (1.5, 2, 3, 5)}


@pytest.fixture(scope="module")
def pipeline():
    # the pure shoot to s_end = 50 and its physical run on 3201 nodes
    return _run("full-pipeline", "trajectory.s_end=50", "physical.n_x=3201",
                snapshot_factors=(3.0, 10.0, 30.0, 100.0))


@pytest.fixture(scope="module")
def pert_shoot():
    return _run("shoot", "trajectory.s_end=50", *PERTURBED)[1]


def _tuned_trajectory_checks(shoot):
    """Survival plus decay-rate facts of a tuned shoot's certified record.

    Returns (ok, detail): the record must survive the full window with
    positive trap margins; the fitted log-log slope of ||q||_inf over
    s >= 22 must lie in -0.5 +/- 0.15; the core-region gradient sup must
    decay at least that fast (measured slope is steeper, about -0.8, from
    the self-similar contraction of the profile variable) and its
    sqrt(s)-scaled series must stay bounded (peak/start <= 1.10, measured
    1.046).
    """
    cert, rc = shoot["certificate"], shoot["record_checks"]
    if cert["status"] != "survived":
        return False, f"status={cert['status']}"
    ok = (cert["min_margin"] > 0.0 and -0.65 <= rc["slope_q"] <= -0.35
          and rc["slope_gradq"] <= -0.35 and rc["grad_bound_ratio"] <= 1.10)
    return ok, (
        f"d0*={cert['d0']:.9e} level={cert['levels']} evals={cert['n_evals']} "
        f"final_s={cert['final_s']:.1f} min_margin={cert['min_margin']:.2e} "
        f"slope_q={rc['slope_q']:.3f} (in [-0.65,-0.35]) "
        f"slope_gradq={rc['slope_gradq']:.3f} (<=-0.35) "
        f"grad_bound_ratio={rc['grad_bound_ratio']:.3f} (<=1.10)"
    )


def _witness_ok(wit) -> bool:
    return wit["n_exits"] > 0 and wit["fraction_q0q1"] == 1.0 and wit["all_transverse"]


def test_criterion_1_spectral_identities(capsys, spectral):
    rep = spectral[2.0]
    gram_err, min_order = rep["gram_max_rel_err"], rep["operator_defect_order_min"]
    # the kind gates its off-diagonal entries at 1e-12, near the 8.9e-16 it
    # measures; this line keeps the bound the contract pinned on the
    # relative gram error
    ok = gram_err <= 1e-8 and min_order >= 1.9
    _verdict(capsys, 1, "hermite-orthogonality-and-operator-defect", ok,
             f"gram_err={gram_err:.2e} (<=1e-8) defect_order_min={min_order:.3f} (>=1.9)")


def test_criterion_2_semigroup_action(capsys):
    rep = _run("semigroup-checks", "trap.K0=1")[1]
    eig_err, comp = rep["eigen_max_rel_err"], rep["composition_err"]
    c1, c2 = rep["C_case1"], rep["C_case2"]
    # the kind gates composition at 1e-8, near the 2.2e-15 it measures;
    # this line keeps the bound the contract pinned
    ok = eig_err <= 1e-6 and comp <= 1e-6 and c1 <= 1.1 and c2 <= 0.6
    _verdict(capsys, 2, "semigroup-eigen-composition-smoothing", ok,
             f"eigen_rel_err={eig_err:.2e} (<=1e-6) composition={comp:.2e} (<=1e-6) "
             f"C1={c1:.4f} (<=1.1) C2={c2:.4f} (<=0.6)")


def test_criterion_3_profile_identities(capsys, spectral):
    worst_eps = max(rep["profile_residual_scaled_over_eps"] for rep in spectral.values())
    slope = spectral[2.0]["source_sup_slope"]
    ok = worst_eps <= 10.0 and -1.1 <= slope <= -0.9
    _verdict(capsys, 3, "profile-ode-and-source-decay", ok,
             f"residual={worst_eps:.2f}*eps (<=10*eps) source_sup_slope={slope:.4f} "
             f"(in [-1.1,-0.9])")


def test_criterion_4_tuned_trapped_trajectory(capsys, pipeline):
    shoot = pipeline[1]["shoot"]
    ok_traj, detail = _tuned_trajectory_checks(shoot)
    doubling = shoot["mode_ode_doubling"]
    (d20, d40), ratio = doubling["sup_scaled_defect"], doubling["ratio"]
    _verdict(capsys, 4, "trapped-tuned-trajectory", ok_traj and 0.5 <= ratio <= 2.0,
             detail + f" mode_ode_defects(s0=20/40)={d20:.4f}/{d40:.4f} ratio={ratio:.3f} "
             f"(in [0.5,2])")


def test_criterion_5_reduction_witness(capsys, pipeline):
    wit = pipeline[1]["shoot"]["witness"]
    by = wit["by_component"]
    _verdict(capsys, 5, "finite-dimensional-reduction-witness", _witness_ok(wit),
             f"exits={wit['n_exits']}/{wit['n_runs']} (survivors={wit['n_survivors']}) "
             f"fraction_expanding={wit['fraction_q0q1']:.3f} (==1.0) "
             f"q0/q1={by['q0']}/{by['q1']} all_transverse={wit['all_transverse']}")


def test_criterion_6_gradient_perturbed_lane(capsys, pert_shoot, pipeline):
    ok_traj, detail = _tuned_trajectory_checks(pert_shoot)
    rc, wit, du = pert_shoot["record_checks"], pert_shoot["witness"], pert_shoot["duhamel"]
    d0_gap = abs(pert_shoot["certificate"]["d0"] - pipeline[1]["shoot"]["certificate"]["d0"])
    ok_gap = d0_gap <= 1e-5  # measured 4.1e-7: the new term barely moves d0*
    ratio = pert_shoot["mode_ode_doubling"]["ratio"]
    ok_du = (du["C_delta2"] <= 1e-2 and du["C_delta_minus"] <= 1e-2
             and du["C_delta_e"] <= 5e-2 and du["residual_over_q_sup"] <= 0.25)
    ok = ok_traj and ok_gap and rc["N_le_R_all_steps"] and rc["max_s4_N"] <= 1.0
    ok = ok and ok_du and _witness_ok(wit) and 0.5 <= ratio <= 2.0
    _verdict(capsys, 6, "gradient-perturbed-lane", ok,
             detail + f" |d0*-d0*_plain|={d0_gap:.2e} (<=1e-5) "
             f"N<=R_all_steps={rc['N_le_R_all_steps']} max_s^4N={rc['max_s4_N']:.3f} (<=1) "
             f"witness={wit['fraction_q0q1']:.3f}/transverse={wit['all_transverse']} "
             f"mode_ode_ratio={ratio:.3f} "
             f"C_delta2={du['C_delta2']:.2e} (<=1e-2) "
             f"C_delta_minus={du['C_delta_minus']:.2e} (<=1e-2) "
             f"C_delta_e={du['C_delta_e']:.2e} (<=5e-2) "
             f"duhamel_resid/q={du['residual_over_q_sup']:.3f} (<=0.25)")


def test_criterion_7_physical_blowup_and_profile(capsys, pipeline):
    run, report = pipeline
    oracle = homogeneous_oracle(run.params, c=1.0)
    phys = report["physical"]
    dx, a_est, gap = phys["dx"], abs(phys["a_est"]), phys["kappa_rel_gap_end"]
    scaled = np.array(phys["scaled_profile_errors"])
    no_growth = scaled[-1] <= 1.05 * scaled[0] and np.max(scaled) <= 1.10 * scaled[0]
    # the round trip is coarser than the module-level matched check because
    # the physical grid interpolates through the spline
    sup_diff = phys["transform_diff"]
    ok = (oracle["T_exact"] == 1.0 and oracle["rel_err"] <= 1e-4
          and phys["outcome"] == "blowup" and phys["rel_T_err"] <= 1e-4 and a_est <= 2.0 * dx
          and gap <= 0.10 and no_growth and sup_diff <= 1e-2)
    _verdict(capsys, 7, "physical-blowup-and-profile", ok,
             f"oracle_rel_err={oracle['rel_err']:.2e} (<=1e-4) "
             f"rel_T={phys['rel_T_err']:.2e} (<=1e-4) |a|={a_est:.2e} (<=2dx={2 * dx:.2e}) "
             f"w(0,end)={phys['w_center_end']:.4f} (gap {gap:.3f}<=0.10) "
             f"scaled_err={np.array2string(scaled, precision=4)} "
             f"(last/first={scaled[-1] / scaled[0]:.3f}<=1.05) "
             f"transform_diff={sup_diff:.2e} (<=1e-2)")


def test_criterion_8_stability_probe(capsys, pipeline):
    cert = pipeline[1]["shoot"]["certificate"]
    rep = _run("stability", *(f"trajectory.{k}={float(cert[k])!r}" for k in ("d0", "d1")))[1]
    eps_order, t_hat = ("0.01", "0.001", "0.0001"), rep["baseline"]["T_est"]
    worst_dt = [rep["worst_dT_by_eps"][e] / t_hat for e in eps_order]
    worst_da = [rep["worst_da_by_eps"][e] for e in eps_order]
    deterministic = rep["checks"]["deterministic"]
    ok = (deterministic and worst_dt[0] > worst_dt[1] > worst_dt[2]
          and worst_da[0] >= worst_da[1] >= worst_da[2] and worst_dt[-1] <= 1e-3)
    _verdict(capsys, 8, "blowup-data-stability", ok,
             f"deterministic={deterministic} "
             f"|dT|/T={worst_dt[0]:.2e}>{worst_dt[1]:.2e}>{worst_dt[2]:.2e} "
             f"(last<=1e-3) |da|={worst_da[0]:.2e}>={worst_da[1]:.2e}>={worst_da[2]:.2e}")


def test_criterion_9_reproducible_artifacts(capsys, tmp_path):
    cfg = tmp_path / "repro.ini"
    cfg.write_text(
        "[model]\np = 2.0\nalpha = 1.0\nalpha_bar = 1.0\n"
        "mu = 1.0\nmu_bar = 1.0\nmu0 = 1.0\n"
        "[trajectory]\nd0 = 0.0\nd1 = 0.0\ns0 = 20.0\ns_end = 20.3\nds = 0.02\n"
        "[experiment]\nkind = trajectory\n"
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["run", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["run", str(cfg), "--out", str(out2)])
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    same_names = files1 == files2 and len(files1) > 0
    n_diff = sum(1 for rel in files1 if (out1 / rel).read_bytes() != (out2 / rel).read_bytes())
    ok = rc1 == 0 and rc2 == 0 and same_names and n_diff == 0
    _verdict(capsys, 9, "byte-identical-reruns", ok,
             f"rc={rc1}/{rc2} files={len(files1)} differing={n_diff} (==0)")
