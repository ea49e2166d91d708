"""Time stepping in both forms, trajectory bookkeeping, and integral checks.

Numbers asserted to a few relative digits were measured once with this code
on the stated grids and frozen; they guard against silent regression of the
splitting, not against schema or tolerance drift elsewhere.
"""

import numpy as np
import pytest

from blowup_lab import solver
from blowup_lab.grids import Field, default_y_max, gradient, make_grid
from blowup_lab.hermite import hermite_h
from blowup_lab.model import (
    make_params,
    nonlinear_B,
    perturbation_N,
    phi,
    phi_dy,
    potential_V,
    remainder_R,
)
from blowup_lab.semigroup import _MATRIX_CACHE, kernel_matrix
from blowup_lab.shooting import (
    InitialDataParams,
    initial_mode_map,
    initial_q,
    initial_rectangle,
)
from blowup_lab.solver import (
    DivergenceError,
    SolverConfig,
    SourceTerms,
    TrajectoryRecord,
    _cn_apply,
    _linear_substep,
    duhamel_split_check,
    forms_consistency_check,
    mode_ode_check,
    run_trajectories,
    run_trajectory,
    step_q,
    step_w,
)
from blowup_lab.trapset import TrapParams


def _traj_grid(s_max=22.0):
    return make_grid(default_y_max(4.0, s_max), 0.05)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    SolverConfig(ds=0.5)
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=0.0)
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=0.6)
    with pytest.raises(ValueError, match="unknown scheme"):
        SolverConfig(scheme="spectral")
    with pytest.raises(ValueError, match="unknown boundary"):
        SolverConfig(bc="periodic")
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=float("nan"))
    with pytest.raises(ValueError, match="overflow cap"):
        SolverConfig(overflow=float("nan"))


# ---------------------------------------------------------------------------
# source terms


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
def test_source_terms_rhs_matches_model_functions(lane, request):
    pr = request.getfixturevalue(lane)
    g = _traj_grid()
    s = 20.5
    qv = initial_q(pr, g, InitialDataParams(d0=0.01, d1=-0.003, s0=s)).values
    rhs = SourceTerms(pr, g, s).rhs(qv)
    phi_val = phi(pr, g.y, s)
    by_hand = (
        potential_V(pr, g.y, s) * qv
        + nonlinear_B(pr, phi_val, qv)
        + remainder_R(pr, g.y, s)
    )
    if lane == "pure_p2":
        np.testing.assert_array_equal(rhs, by_hand)
    else:
        w_y = phi_dy(pr, g.y, s) + gradient(g, qv)
        by_hand = by_hand + perturbation_N(pr, w_y, phi_val + qv, s)
        assert np.max(np.abs(rhs - by_hand)) <= 1e-15 * np.max(np.abs(by_hand))


# ---------------------------------------------------------------------------
# linear regime: the linear substep of either scheme is the bare semigroup


def test_zero_field_stays_zero():
    g = make_grid(20.0, 0.05)
    for scheme in ("semigroup-split", "imex-cn"):
        cfg = SolverConfig(ds=0.01, scheme=scheme)
        v = np.zeros(g.n)
        for _ in range(20):
            v = _linear_substep(g, v, cfg.ds, cfg)
        assert not np.any(v), scheme


@pytest.mark.parametrize(
    "scheme,tol_h0",
    [("semigroup-split", 1e-12), ("imex-cn", 2e-5)],  # CN pays O(ds^2)/step
)
def test_linear_growth_of_h0(scheme, tol_h0):
    # eigenvalue 1: after s - s0 = 1 the amplitude is e
    g = make_grid(20.0, 0.05)
    cfg = SolverConfig(ds=0.01, scheme=scheme)
    v = 1e-6 * np.ones(g.n)
    for _ in range(100):
        v = _linear_substep(g, v, cfg.ds, cfg)
    mask = np.abs(g.y) <= 10.0
    rel = np.max(np.abs(v[mask] / (1e-6 * np.e) - 1.0))
    assert rel < tol_h0


@pytest.mark.parametrize("scheme", ["semigroup-split", "imex-cn"])
def test_neutral_mode_h2_is_invariant(scheme):
    g = make_grid(20.0, 0.05)
    cfg = SolverConfig(ds=0.01, scheme=scheme)
    h2 = 1e-6 * hermite_h(2, g.y)
    v = h2.copy()
    for _ in range(100):
        v = _linear_substep(g, v, cfg.ds, cfg)
    mask = np.abs(g.y) <= 10.0
    assert np.max(np.abs(v[mask] - h2[mask])) / 1e-6 < 1e-10


# ---------------------------------------------------------------------------
# Crank-Nicolson substep in isolation


def test_cn_substep_on_eigenfunctions():
    g = make_grid(20.0, 0.05)
    mask = np.abs(g.y) <= 15.0
    out0 = _cn_apply(g, np.ones(g.n), 0.01)
    assert np.max(np.abs(out0[mask] - np.exp(0.01))) < 2e-7  # meas. 8.4e-8
    h1 = g.y.copy()
    out1 = _cn_apply(g, h1, 0.01)
    assert np.max(np.abs(out1[mask] - np.exp(0.005) * h1[mask])) < 5e-7
    h2 = hermite_h(2, g.y)
    out2 = _cn_apply(g, h2, 0.01)
    # centered differences are exact on quadratics: no interior error at all
    assert np.max(np.abs(out2[mask] - h2[mask])) < 1e-12


def test_cn_substep_shift_is_exponential_factor():
    g = make_grid(20.0, 0.05)
    mask = np.abs(g.y) <= 15.0
    plain = _cn_apply(g, np.ones(g.n), 0.01, shift=0.0)
    shifted = _cn_apply(g, np.ones(g.n), 0.01, shift=2.0)
    # constants are the lambda = 1 eigenvector; the one-step amplification is
    # the Pade factor (1 + a(lambda - c))/(1 - a(lambda - c)) with a = ds/2,
    # so the shift shows up as the exact ratio of the two rational factors
    ratio = shifted[mask] / plain[mask]
    a = 0.005
    expect = ((1 + a * (1 - 2.0)) / (1 - a * (1 - 2.0))) / ((1 + a) / (1 - a))
    assert np.allclose(ratio, expect, rtol=1e-10)


# ---------------------------------------------------------------------------
# w form: exact fixed point and ODE order


@pytest.mark.parametrize(
    "scheme,cap",
    [("semigroup-split", 5e-9), ("imex-cn", 1e-12)],
)
def test_kappa_fixed_point(scheme, cap):
    """w = kappa solves the rescaled flow exactly; drift is splitting noise.

    Interior nodes only: within ~6 nodes of the boundary the truncated
    kernel loses Gaussian mass and the constant decays there (measured, and
    irrelevant to the trap region).
    """
    pr = make_params(2.0)
    g = make_grid(20.0, 0.025)
    cfg = SolverConfig(ds=1e-3, scheme=scheme, bc="extrapolation")
    w = Field(grid=g, values=np.full(g.n, pr.kappa), s=20.0)
    for _ in range(10):
        w = step_w(w, pr, cfg)
    mask = np.abs(g.y) <= 15.0
    assert np.max(np.abs(w.values[mask] - pr.kappa)) < cap


def test_bernoulli_ode_second_order():
    """Constant-in-y data reduces step_w to the scalar flow w' = -w + w^2.

    Exact solution via 1/w; halving ds twice shows clean order two with the
    frozen error levels.
    """
    pr = make_params(2.0)
    g = make_grid(8.0, 0.05)
    u0 = 1.0 / 0.8
    w_exact = 1.0 / ((u0 - 1.0) * np.exp(0.2) + 1.0)
    errs = []
    for ds in (0.02, 0.01, 0.005):
        cfg = SolverConfig(ds=ds, bc="extrapolation")
        w = Field(grid=g, values=np.full(g.n, 0.8), s=20.0)
        for _ in range(int(round(0.2 / ds))):
            w = step_w(w, pr, cfg)
        errs.append(abs(w.values[g.n_half] - w_exact))
    assert errs[0] == pytest.approx(4.3312e-6, rel=1e-3)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9), orders


def test_power_flow_divergence_inside_step():
    # data above the Bernoulli equilibrium at huge amplitude blows the exact
    # power sub-flow up inside a single long step
    pr = make_params(2.0)
    g = make_grid(8.0, 0.1)
    w = Field(grid=g, values=np.full(g.n, 100.0), s=20.0)
    with pytest.raises(DivergenceError, match="blow-up time inside a step"):
        step_w(w, pr, SolverConfig(ds=0.5, bc="extrapolation"))


# ---------------------------------------------------------------------------
# q form against the ansatz


def test_one_step_from_zero_matches_remainder_size():
    """One step from q = 0 deposits ~ ds * R; sup/(ds/s) is 0.27-0.28."""
    pr = make_params(2.0)
    for ds in (0.01, 0.005):
        for s0 in (20.0, 40.0):
            g = make_grid(default_y_max(4.0, s0 + 1.0), 0.05)
            q = Field(grid=g, values=np.zeros(g.n), s=s0)
            q1 = step_q(q, pr, SolverConfig(ds=ds))
            mask = np.abs(g.y) <= g.y_max - 1.0
            ratio = np.max(np.abs(q1.values[mask])) / (ds / s0)
            assert 0.2 < ratio < 0.3, (ds, s0, ratio)


def test_scheme_cross_check_on_prepared_data():
    """Kernel and Crank-Nicolson paths agree in the interior over 100 steps."""
    pr = make_params(2.0)
    g = _traj_grid()
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    ends = {}
    for scheme in ("semigroup-split", "imex-cn"):
        cfg = SolverConfig(ds=0.01, scheme=scheme)
        q = init.copy()
        for _ in range(100):
            q = step_q(q, pr, cfg)
        ends[scheme] = q.values
    mask = np.abs(g.y) <= g.y_max - 2.0
    diff = np.max(np.abs(ends["semigroup-split"][mask] - ends["imex-cn"][mask]))
    assert diff < 1e-6  # measured 1.05e-7


def test_forms_consistency():
    pr = make_params(2.0)
    g = _traj_grid()
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    out = forms_consistency_check(pr, g, 20.0, init.values, 50, SolverConfig(ds=0.01))
    assert out["sup_diff"] < 1e-5  # measured 5.55e-6
    assert out["s_end"] == pytest.approx(20.5)
    # at the ends w is O(1) while q is O(1/s): the two pinning rules differ
    # by design and only the interior comparison is meaningful
    assert out["sup_diff"] < out["sup_diff_global"]


def test_guard_raises_on_overflow():
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    q = Field(grid=g, values=np.full(g.n, 50.0), s=20.0)
    cfg = SolverConfig(ds=0.1, overflow=1e4)
    with pytest.raises(DivergenceError):
        for _ in range(10):
            q = step_q(q, pr, cfg)


# ---------------------------------------------------------------------------
# trajectories


def test_run_trajectory_argument_checks():
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    trap = TrapParams(A=8.0, K0=1.0)
    q = Field(grid=g, values=np.zeros(g.n), s=20.0)
    with pytest.raises(ValueError, match="record_stride"):
        run_trajectory(q, pr, trap, SolverConfig(), 21.0, record_stride=0)
    with pytest.raises(ValueError, match="empty integration window"):
        run_trajectory(q, pr, trap, SolverConfig(), 20.0)
    for s_end in (20.029, 20.0 + 0.5 * 0.01, np.inf, np.nan):
        # s_end = 20.029 at ds = 0.01 used to stop at 20.03, past s_end
        with pytest.raises(ValueError, match="not a whole number of steps"):
            run_trajectory(q, pr, trap, SolverConfig(ds=0.01), s_end)


def test_baseline_trajectory_exits_through_q0():
    """(d0, d1) = (0, 0) is untuned: the even expanding mode drifts negative
    and crosses its face at s* = 20.46, transversally."""
    pr = make_params(2.0)
    g = _traj_grid(23.0)
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0, d1=0.0, s0=20.0))
    rec = run_trajectory(init, pr, trap, SolverConfig(ds=0.01), 23.0)
    assert rec.exit is not None
    assert rec.exit.reason == "trap-exit"
    assert rec.exit.component == "q0"
    assert rec.exit.s_star == pytest.approx(20.46, abs=0.02)
    assert rec.exit.omega == -1.0
    assert rec.exit.transverse is True
    assert not rec.survived(23.0)
    # record integrity
    assert rec.s.size == rec.q0.size == rec.margins.shape[0]
    assert rec.margins.shape[1] == 5
    assert bool(rec.inside[0]) and not bool(rec.inside[-1])


def test_mode_ode_defects_along_baseline():
    pr = make_params(2.0)
    g = _traj_grid(23.0)
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0, d1=0.0, s0=20.0))
    rec = run_trajectory(init, pr, trap, SolverConfig(ds=0.01), 23.0)
    m0 = mode_ode_check(rec, 0)
    m1 = mode_ode_check(rec, 1)
    m2 = mode_ode_check(rec, 2)
    # the q0 defect is the projected source ~ 0.45/s^2 (frozen); q1 vanishes
    # by parity; q2 rides the neutral direction with a smaller source
    assert m0["sup_scaled_defect"] == pytest.approx(0.4451, rel=0.05)
    assert m1["sup_scaled_defect"] < 1e-10
    assert m2["sup_scaled_defect"] == pytest.approx(0.0784, rel=0.10)
    assert m0["s_lo"] > 20.0 and m0["s_hi"] < rec.final_s  # ends trimmed


def test_mode_ode_check_argument_errors():
    pr = make_params(2.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    rec = run_trajectory(init, pr, trap, SolverConfig(ds=0.01), 20.03)
    with pytest.raises(ValueError, match="too short"):
        mode_ode_check(rec, 0)
    rec2 = run_trajectory(init, pr, trap, SolverConfig(ds=0.01), 21.0)
    with pytest.raises(ValueError, match="mode index"):
        mode_ode_check(rec2, 3)


def test_trajectory_divergence_is_reported():
    # at A = 1e6 the row is still inside when it passes the overflow cap;
    # with the default cap of 1e8 it would leave through q0 first
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    big = Field(grid=g, values=np.full(g.n, 50.0), s=20.0)
    rec = run_trajectory(
        big, pr, TrapParams(A=1e6, K0=1.0), SolverConfig(ds=0.1, overflow=1e4), 22.0
    )
    assert rec.exit is not None
    assert rec.exit.reason == "divergence"
    assert rec.exit.component is None
    assert rec.exit.s_star == pytest.approx(20.1)
    assert bool(np.all(rec.inside)) and not rec.survived(22.0)


def test_record_stride():
    pr = make_params(2.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    rec = run_trajectory(init, pr, trap, SolverConfig(ds=0.01), 20.4, record_stride=5)
    # stride 5 at ds 0.01 over 0.4: observations at 0, 5, ..., 40 -> 9 rows
    assert rec.s.size == 9
    np.testing.assert_allclose(rec.s, 20.0 + 0.05 * np.arange(9), rtol=0, atol=1e-12)


def _assert_records_equal(a: TrajectoryRecord, b: TrajectoryRecord) -> None:
    for name in (
        "s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup", "gradq_sup",
        "R_sup", "N_sup", "margins", "inside",
    ):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name  # bitwise, NaN-safe
    assert repr(a.exit) == repr(b.exit)


@pytest.mark.parametrize(
    "lane,scheme,bc",
    [
        ("pure_p2", "semigroup-split", "dirichlet-profile"),
        ("perturbed_p2", "semigroup-split", "extrapolation"),
        ("pure_p2", "imex-cn", "extrapolation"),
        ("perturbed_p2", "imex-cn", "dirichlet-profile"),
    ],
)
@pytest.mark.parametrize("narrow_trap", [True, False])
def test_batched_rows_match_single_runs(lane, scheme, bc, narrow_trap, request):
    """Row k of a K = 5 ensemble is bit for bit the trajectory run alone.

    In the narrow trap (A = 8) the far row leaves at once and the edge row
    at its next record; in the wide one (A = 1e6) the far row is still
    inside when it passes the overflow cap, so it diverges while the
    others go on.
    """
    pr = request.getfixturevalue(lane)
    g = _traj_grid(21.0)
    trap8 = TrapParams(A=8.0, K0=4.0)
    trap = trap8 if narrow_trap else TrapParams(A=1e6, K0=4.0)
    s0, ds, s_end = 20.0, 0.02, 20.6
    rect = initial_rectangle(initial_mode_map(pr, g, s0, trap8.K0), trap8)
    mid = rect.mean(axis=1)
    half = 0.5 * (rect[:, 1] - rect[:, 0])
    points = [
        mid,
        (rect[0, 1], mid[1]),  # on the q0 face of the narrow trap
        mid + 0.2 * half,
        None,  # a flat field of height 50
        mid - 0.2 * half,
    ]
    inits = [
        Field(grid=g, values=np.full(g.n, 50.0), s=s0) if pt is None
        else initial_q(pr, g, InitialDataParams(d0=pt[0], d1=pt[1], s0=s0))
        for pt in points
    ]
    cfg = SolverConfig(ds=ds, scheme=scheme, bc=bc, overflow=1e3)
    batched = run_trajectories(inits, pr, trap, cfg, s_end, record_stride=3)
    assert len(batched) == len(inits)
    for q, rec in zip(inits, batched):
        (alone,) = run_trajectories([q], pr, trap, cfg, s_end, record_stride=3)
        _assert_records_equal(rec, alone)

    edge, far = batched[1], batched[3]
    for rec in (batched[0], batched[2], batched[4]) + (() if narrow_trap else (edge,)):
        assert rec.exit is None and rec.survived(s_end)
    if narrow_trap:
        assert edge.s.size == 2 and edge.s[1] == pytest.approx(s0 + 3 * ds)
        assert not edge.inside[1]
        assert edge.exit.component == "q0" and edge.exit.s_star == edge.s[1]
        assert far.exit.reason == "trap-exit" and far.s.size == 1
    else:
        assert far.exit.reason == "divergence" and bool(np.all(far.inside))
        assert s0 < far.exit.s_star < s_end and far.s.size < edge.s.size


def test_R_sup_table_keys_on_params_grid_and_time(pure_p2, perturbed_p2, monkeypatch):
    """Each R_sup entry is max|R| at its own time: a pure run, a perturbed
    one on the same grid and s-lattice, then the pure one again."""
    monkeypatch.setattr(solver, "_R_SUP_TABLE", {})
    g = _traj_grid(21.0)
    trap = TrapParams(A=8.0, K0=4.0)
    n_obs = 0
    for pr in (pure_p2, perturbed_p2, pure_p2):
        init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
        rec = run_trajectory(init, pr, trap, SolverConfig(ds=0.02), 20.4)
        assert rec.survived(20.4)
        n_obs = rec.s.size
        for s, r_sup in zip(rec.s, rec.R_sup):
            assert r_sup.tobytes() == np.max(np.abs(remainder_R(pr, g.y, s))).tobytes()
    # one entry per parameter set and time: the second pure run added none
    assert len(solver._R_SUP_TABLE) == 2 * n_obs


def test_run_trajectories_argument_checks():
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    trap = TrapParams(A=8.0, K0=1.0)
    q = Field(grid=g, values=np.zeros(g.n), s=20.0)
    with pytest.raises(ValueError, match="at least one"):
        run_trajectories([], pr, trap, SolverConfig(), 21.0)
    later = Field(grid=g, values=np.zeros(g.n), s=20.5)
    with pytest.raises(ValueError, match="one grid and one initial time"):
        run_trajectories([q, later], pr, trap, SolverConfig(), 21.0)


# ---------------------------------------------------------------------------
# integral form


def test_duhamel_window_too_short():
    pr = make_params(2.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    with pytest.raises(ValueError, match="too short"):
        duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 20.005)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 20.029)


def test_duhamel_split_pure_case():
    """Pure case: delta vanishes identically and the pieces add back up."""
    pr = make_params(2.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    out = duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 21.0, n_quad=17)
    assert out["delta_sup"] == 0.0
    assert out["C_delta2"] == out["C_delta_minus"] == out["C_delta_e"] == 0.0
    # frozen piece sizes for this window (tau=20 -> s=21)
    assert out["alpha_sup"] == pytest.approx(3.2658e-2, rel=1e-3)
    assert out["gamma_sup"] == pytest.approx(2.2931e-2, rel=1e-3)
    assert out["v_sup"] == pytest.approx(4.0140e-2, rel=1e-3)
    # reconstruction closes up to source-quadrature error, well below the
    # field itself
    assert out["reconstruction_residual"] < 0.25 * out["q_sup"]
    assert out["n_quad"] == 17


def test_duhamel_split_perturbed_case():
    pr = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    out = duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 21.0, n_quad=17)
    # the perturbation piece is exponentially small but nonzero
    assert 0.0 < out["delta_sup"] < 1e-5  # measured 3.25e-6
    # empirical envelope constants (value * s^3 / window) stay moderate
    assert out["C_delta2"] < 1e-2  # measured 1.02e-3
    assert out["C_delta_minus"] < 1e-2  # measured 6.68e-4
    assert out["C_delta_e"] < 5e-2  # measured 7.63e-3
    assert out["reconstruction_residual"] < 0.25 * out["q_sup"]


def test_duhamel_kernels_stay_out_of_the_cache(perturbed_p2):
    """The one-shot quadrature kernels are not cached, and one stacked
    product per quadrature time gives the four separate products bit for bit."""
    pr = perturbed_p2
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    cfg = SolverConfig(ds=0.01)
    kernel_matrix(cfg.ds, g)  # the stepping kernel, cached before the check
    before = list(_MATRIX_CACHE)
    out = duhamel_split_check(init, pr, trap, cfg, 20.2, n_quad=5)
    assert list(_MATRIX_CACHE) == before

    # the same sums with one product per source and quadrature time
    samples, q = [], init.copy()
    for k in range(21):
        if k:
            q = step_q(q, pr, cfg)
            q.s = 20.0 + k * cfg.ds
        if k % 5 == 0:  # the quadrature marks of n_quad = 5 over 20 steps
            src = SourceTerms(pr, g, q.s)
            samples.append(
                (q.s, [src.B(q.values), src.R, src.N(q.values), src.V * q.values])
            )
    sigma = np.array([s for s, _ in samples])
    weights = np.zeros_like(sigma)
    weights[:-1] += 0.5 * np.diff(sigma)
    weights[1:] += 0.5 * np.diff(sigma)
    pieces = [np.zeros(g.n) for _ in range(4)]
    for wgt, (s, rows) in zip(weights, samples):
        for acc, row in zip(pieces, rows):
            theta = q.s - s
            acc += wgt * (row.copy() if theta <= 1e-12 else kernel_matrix(theta, g) @ row)
    beta, gamma, delta, vpart = pieces
    alpha = kernel_matrix(q.s - 20.0, g) @ init.values
    assert out["n_quad"] == 5
    assert out["alpha_sup"] == np.max(np.abs(alpha))
    assert out["beta_sup"] == np.max(np.abs(beta))
    assert out["gamma_sup"] == np.max(np.abs(gamma))
    assert out["delta_sup"] == np.max(np.abs(delta))
    assert out["v_sup"] == np.max(np.abs(vpart))
    resid = np.max(np.abs(alpha + beta + gamma + delta + vpart - q.values))
    assert out["reconstruction_residual"] == resid
