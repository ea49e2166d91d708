"""End-to-end acceptance checks, one summary line per criterion.

Nine checks cover the whole laboratory: Hermite/operator identities, the
semigroup action, profile and source identities, the tuned trapped
trajectory in the plain model, the finite-dimensional reduction witness,
the gradient-perturbed rerun with its source-size chain, physical-variable
blow-up with profile and stability probes, and byte-level reproducibility
of the command-line artifacts.

Each check prints exactly one line

    acceptance <k> <name>: PASS|FAIL | <measured numbers vs pinned bounds>

directly to the terminal (outside capture, so the line is visible in a
plain pytest run) and then asserts.  The two tuned parameter searches
dominate the runtime at roughly four to five minutes each; everything else
is seconds.  All tolerances are pinned from measurements recorded next to
the assertions.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from blowup_lab.cli import main as cli_main
from blowup_lab.grids import Field, default_y_max, make_grid
from blowup_lab.hermite import apply_L_discrete, hermite_h, hermite_norm_sq, inner_rho
from blowup_lab.model import make_params, profile_f, profile_residual, remainder_R
from blowup_lab.physical import (
    PhysicalConfig,
    homogeneous_oracle,
    integrate_u,
    profile_error,
    stability_probe,
)
from blowup_lab.semigroup import apply_semigroup, verify_smoothing
from blowup_lab.shooting import (
    InitialDataParams,
    initial_mode_map,
    initial_q,
    initial_rectangle,
    shoot,
)
from blowup_lab.solver import (
    SolverConfig,
    duhamel_split_check,
    mode_ode_check,
    run_trajectories,
    run_trajectory,
    step_w,
)
from blowup_lab.trapset import TrapParams, reduction_witness

PURE = make_params(2.0)
PERT = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
TRAP = TrapParams(A=8.0, K0=4.0)
S0 = 20.0
S_END = 50.0
DS = 0.02


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def grid50():
    return make_grid(default_y_max(TRAP.K0, S_END), 0.05)


@pytest.fixture(scope="module")
def pure_shoot(grid50):
    return shoot(PURE, grid50, TRAP, SolverConfig(ds=DS), S0, S_END)


@pytest.fixture(scope="module")
def pert_shoot(grid50):
    return shoot(PERT, grid50, TRAP, SolverConfig(ds=DS), S0, S_END)


def _tuned_trajectory_checks(res, s_end):
    """Survival plus decay-rate facts of a tuned shoot's central record.

    Returns (ok, detail): the record must survive the full window with
    positive trap margins; the fitted log-log slope of ||q||_inf over
    s >= 22 must lie in -0.5 +/- 0.15; the core-region gradient sup must
    decay at least that fast (measured slope is steeper, about -0.8, from
    the self-similar contraction of the profile variable) and its
    sqrt(s)-scaled series must stay bounded (peak/start <= 1.10, measured
    1.046).
    """
    rec = res.record
    survived = res.status == "survived" and rec is not None and rec.survived(s_end)
    if not survived:
        return False, f"status={res.status}"
    margin_min = float(np.min(rec.margins))
    m = rec.s >= 22.0
    slope_q = float(np.polyfit(np.log(rec.s[m]), np.log(rec.q_sup[m]), 1)[0])
    slope_g = float(np.polyfit(np.log(rec.s[m]), np.log(rec.gradq_sup[m]), 1)[0])
    scaled_g = rec.gradq_sup[m] * np.sqrt(rec.s[m])
    bound_ratio = float(np.max(scaled_g) / scaled_g[0])
    ok = (
        margin_min > 0.0
        and -0.65 <= slope_q <= -0.35
        and slope_g <= -0.35
        and bound_ratio <= 1.10
    )
    detail = (
        f"d0*={res.d0:.9e} level={res.levels} evals={res.n_evals} "
        f"final_s={rec.final_s:.1f} min_margin={margin_min:.2e} "
        f"slope_q={slope_q:.3f} (in [-0.65,-0.35]) "
        f"slope_gradq={slope_g:.3f} (<=-0.35) grad_bound_ratio={bound_ratio:.3f} (<=1.10)"
    )
    return ok, detail


def _doubling_ratio(params):
    """Scaled mode-0 ODE defect at s0 = 20 vs s0 = 40 (rectangle centers)."""
    defects = {}
    for s0 in (20.0, 40.0):
        g = make_grid(default_y_max(TRAP.K0, s0 + 1.5), 0.05)
        rect = initial_rectangle(initial_mode_map(params, g, s0, TRAP.K0), TRAP)
        center = float(np.mean(rect[0]))
        q = initial_q(params, g, InitialDataParams(d0=center, d1=0.0, s0=s0))
        rec = run_trajectory(q, params, TRAP, SolverConfig(ds=0.01), s0 + 1.5)
        defects[s0] = mode_ode_check(rec, 0)["sup_scaled_defect"]
    return defects[40.0] / defects[20.0], defects[20.0], defects[40.0]


def _witness(params, grid):
    """7x7 exit statistics over the mapped initial-data rectangle."""
    rect = initial_rectangle(initial_mode_map(params, grid, S0, TRAP.K0), TRAP)
    inits = [
        initial_q(params, grid, InitialDataParams(d0=float(d0v), d1=float(d1v), s0=S0))
        for d0v in np.linspace(rect[0, 0], rect[0, 1], 7)
        for d1v in np.linspace(rect[1, 0], rect[1, 1], 7)
    ]
    records = run_trajectories(inits, params, TRAP, SolverConfig(ds=DS), 26.0)
    return reduction_witness(records, TRAP)


def test_criterion_1_spectral_identities(capsys):
    g = make_grid(20.0, 0.05)
    gram_err = 0.0
    for m in range(6):
        hm = hermite_h(m, g.y)
        for n in range(6):
            val = inner_rho(g, hm, hermite_h(n, g.y))
            target = hermite_norm_sq(m) if m == n else 0.0
            gram_err = max(gram_err, abs(val - target) / hermite_norm_sq(m))

    def defect(grid, mode):
        hm = hermite_h(mode, grid.y)
        resid = apply_L_discrete(grid, hm) - (1.0 - 0.5 * mode) * hm
        return float(np.sqrt(inner_rho(grid, resid, resid)))

    orders = []
    for mode in (3, 4, 5):
        errs = [defect(make_grid(20.0, dy), mode) for dy in (0.2, 0.1, 0.05)]
        orders += [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    min_order = float(min(orders))
    ok = gram_err <= 1e-8 and min_order >= 1.9
    _verdict(
        capsys,
        1,
        "hermite-orthogonality-and-operator-defect",
        ok,
        f"gram_err={gram_err:.2e} (<=1e-8) defect_order_min={min_order:.3f} (>=1.9)",
    )


def test_criterion_2_semigroup_action(capsys):
    g = make_grid(20.0, 0.05)
    mask = np.abs(g.y) <= g.y_max - 8.0 * np.sqrt(2.0)
    eig_err = 0.0
    for m in range(5):
        h = Field(grid=g, values=hermite_h(m, g.y), s=0.0)
        for theta in (0.25, 0.5, 1.0, 2.0):
            got = apply_semigroup(theta, h).values
            want = np.exp((1.0 - 0.5 * m) * theta) * h.values
            scale = float(np.max(np.abs(want[mask])))
            eig_err = max(
                eig_err, float(np.max(np.abs(got[mask] - want[mask]))) / scale
            )
    probe = Field(grid=g, values=np.exp(-(g.y**2) / 5.0) * (1.0 + 0.2 * g.y), s=0.0)
    comp = float(
        np.max(
            np.abs(
                apply_semigroup(0.7, apply_semigroup(0.3, probe)).values[mask]
                - apply_semigroup(1.0, probe).values[mask]
            )
        )
    )
    sm = verify_smoothing(g, thetas=(0.01, 0.1, 0.5, 1.0, 2.0, 5.0))
    c1, c2 = sm["C_case1"], sm["C_case2"]
    ok = eig_err <= 1e-6 and comp <= 1e-6 and c1 <= 1.1 and c2 <= 0.6
    _verdict(
        capsys,
        2,
        "semigroup-eigen-composition-smoothing",
        ok,
        f"eigen_rel_err={eig_err:.2e} (<=1e-6) composition={comp:.2e} (<=1e-6) "
        f"C1={c1:.4f} (<=1.1) C2={c2:.4f} (<=0.6)",
    )


def test_criterion_3_profile_identities(capsys):
    zs = np.linspace(-3.0, 3.0, 1001)
    worst = 0.0
    for pv in (1.5, 2.0, 3.0, 5.0):
        pp = make_params(pv)
        scale = profile_f(pp, zs) ** pv
        worst = max(worst, float(np.max(np.abs(profile_residual(pp, zs) / scale))))
    worst_eps = worst / np.finfo(float).eps

    svals = np.array([20.0, 40.0, 80.0, 160.0])
    zs2 = np.linspace(-10.0, 10.0, 4001)
    sups = [float(np.max(np.abs(remainder_R(PURE, zs2 * np.sqrt(s), s)))) for s in svals]
    slope = float(np.polyfit(np.log(svals), np.log(sups), 1)[0])
    ok = worst_eps <= 10.0 and -1.1 <= slope <= -0.9
    _verdict(
        capsys,
        3,
        "profile-ode-and-source-decay",
        ok,
        f"residual={worst_eps:.2f}*eps (<=10*eps) source_sup_slope={slope:.4f} "
        f"(in [-1.1,-0.9])",
    )


def test_criterion_4_tuned_trapped_trajectory(capsys, pure_shoot):
    ok_traj, detail = _tuned_trajectory_checks(pure_shoot, S_END)
    ratio, d20, d40 = _doubling_ratio(PURE)
    ok = ok_traj and 0.5 <= ratio <= 2.0
    _verdict(
        capsys,
        4,
        "trapped-tuned-trajectory",
        ok,
        detail
        + f" mode_ode_defects(s0=20/40)={d20:.4f}/{d40:.4f} ratio={ratio:.3f} (in [0.5,2])",
    )


def test_criterion_5_reduction_witness(capsys, grid50):
    wit = _witness(PURE, grid50)
    ok = (
        wit["n_exits"] > 0
        and wit["fraction_q0q1"] == 1.0
        and wit["all_transverse"]
    )
    by = wit["by_component"]
    _verdict(
        capsys,
        5,
        "finite-dimensional-reduction-witness",
        ok,
        f"exits={wit['n_exits']}/{wit['n_runs']} (survivors={wit['n_survivors']}) "
        f"fraction_expanding={wit['fraction_q0q1']:.3f} (==1.0) "
        f"q0/q1={by['q0']}/{by['q1']} all_transverse={wit['all_transverse']}",
    )


def test_criterion_6_gradient_perturbed_lane(capsys, pert_shoot, pure_shoot, grid50):
    ok_traj, detail = _tuned_trajectory_checks(pert_shoot, S_END)
    rec = pert_shoot.record

    d0_gap = abs(pert_shoot.d0 - pure_shoot.d0)
    ok_gap = d0_gap <= 1e-5  # measured 4.1e-7: the new term barely moves d0*

    n_le_r = bool(np.all(rec.N_sup <= rec.R_sup))
    max_n_s4 = float(np.max(rec.s**4 * rec.N_sup))

    ratio, d20, d40 = _doubling_ratio(PERT)
    wit = _witness(PERT, grid50)
    ok_wit = (
        wit["n_exits"] > 0 and wit["fraction_q0q1"] == 1.0 and wit["all_transverse"]
    )

    q_tau = initial_q(
        PERT, grid50, InitialDataParams(d0=pert_shoot.d0, d1=pert_shoot.d1, s0=S0)
    )
    du = duhamel_split_check(q_tau, PERT, TRAP, SolverConfig(ds=0.01), S0 + 1.0)
    ok_du = (
        du["C_delta2"] <= 1e-2
        and du["C_delta_minus"] <= 1e-2
        and du["C_delta_e"] <= 5e-2
        and du["reconstruction_residual"] <= 0.25 * du["q_sup"]
    )

    ok = ok_traj and ok_gap and n_le_r and max_n_s4 <= 1.0 and ok_du and ok_wit
    ok = ok and 0.5 <= ratio <= 2.0
    _verdict(
        capsys,
        6,
        "gradient-perturbed-lane",
        ok,
        detail + f" |d0*-d0*_plain|={d0_gap:.2e} (<=1e-5) "
        f"N<=R_all_steps={n_le_r} max_s^4N={max_n_s4:.3f} (<=1) "
        f"witness={wit['fraction_q0q1']:.3f}/transverse={wit['all_transverse']} "
        f"mode_ode_ratio={ratio:.3f} "
        f"C_delta2={du['C_delta2']:.2e} (<=1e-2) "
        f"C_delta_minus={du['C_delta_minus']:.2e} (<=1e-2) "
        f"C_delta_e={du['C_delta_e']:.2e} (<=5e-2) "
        f"duhamel_resid/q={du['reconstruction_residual'] / du['q_sup']:.3f} (<=0.25)",
    )


def test_criterion_7_physical_blowup_and_profile(capsys, pure_shoot):
    oracle = homogeneous_oracle(PURE, c=1.0)
    ok_oracle = oracle["T_exact"] == 1.0 and oracle["rel_err"] <= 1e-4

    pcfg = PhysicalConfig(
        s0=S0,
        d0=pure_shoot.d0,
        d1=pure_shoot.d1,
        z_max=30.0,
        n_x=3201,
        snapshot_factors=(3.0, 10.0, 30.0, 100.0),
    )
    est = integrate_u(PURE, pcfg)
    dx = est.x[1] - est.x[0]
    rel_t = abs(est.T_est - pcfg.T) / pcfg.T
    w_center_end = float((est.T_est - est.t_end) * est.u_end[pcfg.n_x // 2])
    kappa_gap_end = abs(w_center_end - PURE.kappa) / PURE.kappa

    profs = [profile_error(est.x, u, t, est, PURE) for t, u in est.snapshots]
    scaled = np.array([p["e_sup_f"] * np.sqrt(p["s"]) for p in profs])
    no_growth = scaled[-1] <= 1.05 * scaled[0] and np.max(scaled) <= 1.10 * scaled[0]

    # round trip: the same data marched in similarity variables must overlay
    # the rescaled physical snapshot (coarser than the module-level matched
    # check because the physical grid interpolates through the spline)
    t_snap, u_snap = est.snapshots[0]
    tau = pcfg.T - t_snap
    s_snap = -np.log(tau)
    gts = make_grid(default_y_max(TRAP.K0, s_snap + 0.5), 0.05)
    f0 = profile_f(PURE, gts.y / np.sqrt(S0))
    w = Field(grid=gts, values=f0 + pure_shoot.d0 * f0**2, s=S0)
    for _ in range(int((s_snap - S0) / 0.01)):
        w = step_w(w, PURE, SolverConfig(ds=0.01))
    if s_snap - w.s > 1e-12:
        w = step_w(w, PURE, SolverConfig(ds=s_snap - w.s))
    spline = CubicSpline(est.x / np.sqrt(tau), tau * u_snap)
    mask = np.abs(gts.y) <= 10.0
    sup_diff = float(np.max(np.abs(w.values[mask] - spline(gts.y[mask]))))

    ok = (
        ok_oracle
        and est.blew_up
        and rel_t <= 1e-4
        and abs(est.a_est) <= 2.0 * dx
        and kappa_gap_end <= 0.10
        and no_growth
        and sup_diff <= 1e-2
    )
    _verdict(
        capsys,
        7,
        "physical-blowup-and-profile",
        ok,
        f"oracle_rel_err={oracle['rel_err']:.2e} (<=1e-4) rel_T={rel_t:.2e} (<=1e-4) "
        f"|a|={abs(est.a_est):.2e} (<=2dx={2 * dx:.2e}) "
        f"w(0,end)={w_center_end:.4f} (gap {kappa_gap_end:.3f}<=0.10) "
        f"scaled_err={np.array2string(scaled, precision=4)} "
        f"(last/first={scaled[-1] / scaled[0]:.3f}<=1.05) "
        f"transform_diff={sup_diff:.2e} (<=1e-2)",
    )


def test_criterion_8_stability_probe(capsys, pure_shoot):
    pcfg = PhysicalConfig(
        s0=S0, d0=pure_shoot.d0, d1=pure_shoot.d1, z_max=30.0, n_x=1601
    )
    probe = stability_probe(PURE, pcfg, rel_eps=(1e-2, 1e-3, 1e-4))
    t_hat = probe["baseline"]["T_est"]
    eps_order = (1e-2, 1e-3, 1e-4)
    worst_dt = [
        max(abs(r["dT"]) for r in probe["rows"] if r["eps"] == e) / t_hat
        for e in eps_order
    ]
    worst_da = [
        max(abs(r["da"]) for r in probe["rows"] if r["eps"] == e) for e in eps_order
    ]
    dt_monotone = worst_dt[0] > worst_dt[1] > worst_dt[2]
    da_monotone = worst_da[0] >= worst_da[1] >= worst_da[2]
    ok = (
        probe["deterministic"]
        and dt_monotone
        and da_monotone
        and worst_dt[-1] <= 1e-3
    )
    _verdict(
        capsys,
        8,
        "blowup-data-stability",
        ok,
        f"deterministic={probe['deterministic']} "
        f"|dT|/T={worst_dt[0]:.2e}>{worst_dt[1]:.2e}>{worst_dt[2]:.2e} "
        f"(last<=1e-3) |da|={worst_da[0]:.2e}>={worst_da[1]:.2e}>={worst_da[2]:.2e}",
    )


def test_criterion_9_reproducible_artifacts(capsys, tmp_path):
    cfg = tmp_path / "repro.ini"
    cfg.write_text(
        "[model]\np = 2.0\nalpha = 1.0\nalpha_bar = 1.0\n"
        "mu = 1.0\nmu_bar = 1.0\nmu0 = 1.0\n"
        "[trajectory]\nd0 = 0.0\nd1 = 0.0\ns0 = 20.0\ns_end = 20.3\n"
        "[solver]\nds = 0.02\n"
        "[experiment]\nkind = trajectory\n"
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["run", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["run", str(cfg), "--out", str(out2)])
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    same_names = files1 == files2 and len(files1) > 0
    n_diff = sum(
        1
        for rel in files1
        if (out1 / rel).read_bytes() != (out2 / rel).read_bytes()
    )
    ok = rc1 == 0 and rc2 == 0 and same_names and n_diff == 0
    _verdict(
        capsys,
        9,
        "byte-identical-reruns",
        ok,
        f"rc={rc1}/{rc2} files={len(files1)} differing={n_diff} (==0)",
    )
