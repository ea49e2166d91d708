"""Time stepping of the deviation, trajectory bookkeeping, and integral checks.

Numbers asserted to a few relative digits were measured once with this code
on the stated grids and frozen; they guard against silent regression of the
splitting, not against schema or tolerance drift elsewhere.
"""

import numpy as np
import pytest

from blowup_lab import semigroup, solver
from blowup_lab.grids import Field, default_y_max, gradient, make_grid
from blowup_lab.hermite import decompose, hermite_h, seminorm_minus
from blowup_lab.model import (
    make_params,
    nonlinear_B,
    perturbation_N,
    phi,
    phi_dy,
    potential_V,
    remainder_R,
)
from blowup_lab.semigroup import (
    _banded_kernel,
    apply_semigroup_values,
    interior_mask,
    kernel_matrix,
)
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
    _duhamel_pieces,
    duhamel_split_check,
    mode_ode_check,
    run_trajectories,
    run_trajectory,
    step_q,
)
from blowup_lab.trapset import TrapParams, check_membership, inside


def _traj_grid(s_max=22.0):
    return make_grid(default_y_max(4.0, s_max), 0.05)


def _bits(x):
    """The bit patterns of a float array, so that equality counts the sign
    of zero."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    SolverConfig(ds=0.5)
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=0.0)
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=0.6)
    with pytest.raises(ValueError, match="step size"):
        SolverConfig(ds=float("nan"))


# ---------------------------------------------------------------------------
# source terms


@pytest.mark.parametrize(
    "perturbed, p",
    [
        pytest.param(pert, p, id=f"{'perturbed' if pert else 'pure'}_p{p:g}")
        for p in (1.5, 2.0, 3.0)
        for pert in (False, True)
    ],
)
def test_source_terms_rhs_matches_model_functions(perturbed, p):
    """The one-pass sources are bit for bit the model's own functions, on
    one field and on each row of a (3, n) stack."""
    kw = dict(alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0) if perturbed else {}
    pr = make_params(p, **kw)
    g = _traj_grid()
    s = 20.5
    stack = np.array([
        initial_q(pr, g, InitialDataParams(d0=d0, d1=d1, s0=s)).values
        for d0, d1 in ((0.01, -0.003), (-0.0121, 0.0), (0.0119, 0.003))
    ])
    src = SourceTerms(pr, g, s)
    phi_val = phi(pr, g.y, s)
    np.testing.assert_array_equal(src.phi_val, phi_val)
    np.testing.assert_array_equal(src.V, potential_V(pr, g.y, s))
    np.testing.assert_array_equal(src.R, remainder_R(pr, g.y, s))
    # phi_y is mirrored only where N's gradient term reads it
    if perturbed:
        np.testing.assert_array_equal(src.phi_y, phi_dy(pr, g.y, s))
    else:
        assert src.phi_y is None
    out, w, tmp = (np.full_like(stack, np.nan) for _ in range(3))
    src.rhs(stack, out, w, tmp)
    for qv, row in zip(stack, out):
        by_hand = (
            potential_V(pr, g.y, s) * qv
            + nonlinear_B(pr, phi_val, qv)
            + remainder_R(pr, g.y, s)
        )
        if perturbed:
            w_y = phi_dy(pr, g.y, s) + gradient(g, qv)
            by_hand = by_hand + perturbation_N(pr, w_y, phi_val + qv, s)
        lone = src.rhs(qv, *(np.empty_like(qv) for _ in range(3)))
        np.testing.assert_array_equal(_bits(lone), _bits(by_hand))
        np.testing.assert_array_equal(_bits(row), _bits(by_hand))


# ---------------------------------------------------------------------------
# linear regime: the linear substep is the bare semigroup


def test_zero_field_stays_zero():
    g = make_grid(20.0, 0.05)
    v = np.zeros(g.n)
    for _ in range(20):
        v = apply_semigroup_values(0.01, g, v)
    assert not np.any(v)


def test_linear_growth_of_h0():
    # eigenvalue 1: after s - s0 = 1 the amplitude is e
    g = make_grid(20.0, 0.05)
    v = 1e-6 * np.ones(g.n)
    for _ in range(100):
        v = apply_semigroup_values(0.01, g, v)
    mask = np.abs(g.y) <= 10.0
    rel = np.max(np.abs(v[mask] / (1e-6 * np.e) - 1.0))
    assert rel < 1e-12


def test_neutral_mode_h2_is_invariant():
    g = make_grid(20.0, 0.05)
    h2 = 1e-6 * hermite_h(2, g.y)
    v = h2.copy()
    for _ in range(100):
        v = apply_semigroup_values(0.01, g, v)
    mask = np.abs(g.y) <= 10.0
    assert np.max(np.abs(v[mask] - h2[mask])) / 1e-6 < 1e-10


# ---------------------------------------------------------------------------
# time order


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
def test_step_q_second_order_in_ds(lane, request):
    """q advanced 0.4 time units from the s0 = 20 initial data at ds =
    0.04, 0.02, 0.01, 0.005 on the 1703-node grid: successive sup
    differences over |y| <= 10 fall by 4 per halving, as a second-order
    scheme's do.

    Measured in both lanes: 2.034e-7, 5.086e-8, 1.272e-8; ratios 3.9988
    and 3.9995; 0.03 s a lane.
    """
    pr = request.getfixturevalue(lane)
    g = _traj_grid()
    assert g.n == 1703
    q0 = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    ends = []
    for ds in (0.04, 0.02, 0.01, 0.005):
        q = q0
        for _ in range(round(0.4 / ds)):
            q = step_q(q, pr, SolverConfig(ds=ds))
        ends.append(q.values)
    mask = np.abs(g.y) <= 10.0
    diffs = np.array([np.max(np.abs(a[mask] - b[mask])) for a, b in zip(ends, ends[1:])])
    assert diffs[0] == pytest.approx(2.034e-7, rel=1e-3)
    np.testing.assert_allclose(diffs[:-1] / diffs[1:], [3.9988, 3.9995], atol=1e-3)


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


def test_guard_raises_on_overflow(monkeypatch):
    monkeypatch.setattr(solver, "OVERFLOW", 1e4)
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    q = Field(grid=g, values=np.full(g.n, 50.0), s=20.0)
    cfg = SolverConfig(ds=0.1)
    with pytest.raises(DivergenceError):
        for _ in range(10):
            q = step_q(q, pr, cfg)
    # the row that overflows is named, the row that does not is not
    q = Field(grid=g, values=np.array([np.zeros(g.n), np.full(g.n, 50.0)]), s=20.0)
    with pytest.raises(DivergenceError) as err:
        for _ in range(10):
            q = step_q(q, pr, cfg)
    assert err.value.rows.tolist() == [1]


# ---------------------------------------------------------------------------
# trajectories


def test_run_trajectory_argument_checks():
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    trap = TrapParams(A=8.0, K0=1.0)
    q = Field(grid=g, values=np.zeros(g.n), s=20.0)
    with pytest.raises(ValueError, match="empty integration window"):
        run_trajectory(q, pr, trap, SolverConfig(ds=0.01), 20.0)
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
    kept = inside(rec.margins)
    assert kept[0] and not kept[-1]


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


def test_trajectory_divergence_is_reported(monkeypatch):
    # at A = 1e6 the row is still inside when it passes a cap of 1e4;
    # with the cap of 1e8 it would leave through q0 first
    monkeypatch.setattr(solver, "OVERFLOW", 1e4)
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    big = Field(grid=g, values=np.full(g.n, 50.0), s=20.0)
    rec = run_trajectory(big, pr, TrapParams(A=1e6, K0=1.0), SolverConfig(ds=0.1), 22.0)
    assert rec.exit is not None
    assert rec.exit.reason == "divergence"
    assert rec.exit.component is None
    assert rec.exit.s_star == pytest.approx(20.1)
    assert bool(inside(rec.margins).all()) and not rec.survived(22.0)


def _assert_records_equal(a: TrajectoryRecord, b: TrajectoryRecord) -> None:
    for name in (
        "s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup", "gradq_sup",
        "N_sup", "margins",
    ):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name  # bitwise, NaN-safe
    assert repr(a.exit) == repr(b.exit)


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
@pytest.mark.parametrize("narrow_trap", [True, False])
def test_batched_rows_match_single_runs(lane, narrow_trap, request, monkeypatch):
    """Row k of a K = 5 ensemble is bit for bit the trajectory run alone.

    In the narrow trap (A = 8) the far row leaves at once and the edge row
    at its first step; in the wide one (A = 1e6) the far row is still
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
    monkeypatch.setattr(solver, "OVERFLOW", 1e3)
    cfg = SolverConfig(ds=ds)
    batched = run_trajectories(inits, pr, trap, cfg, s_end)
    assert len(batched) == len(inits)
    for q, rec in zip(inits, batched):
        (alone,) = run_trajectories([q], pr, trap, cfg, s_end)
        _assert_records_equal(rec, alone)

    edge, far = batched[1], batched[3]
    for rec in (batched[0], batched[2], batched[4]) + (() if narrow_trap else (edge,)):
        assert rec.exit is None and rec.survived(s_end)
    if narrow_trap:
        assert edge.s.size == 2 and edge.s[1] == pytest.approx(s0 + ds)
        assert not inside(edge.margins[1])
        assert edge.exit.component == "q0" and edge.exit.s_star == edge.s[1]
        assert far.exit.reason == "trap-exit" and far.s.size == 1
    else:
        assert far.exit.reason == "divergence" and bool(inside(far.margins).all())
        assert s0 < far.exit.s_star < s_end and far.s.size < edge.s.size


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
def test_observe_rows_match_lone_fields(lane, request):
    """Each row of a (3, n) observation is, byte for byte, the decomposition,
    membership, sups and N of that field alone, each by its own function."""
    pr = request.getfixturevalue(lane)
    g = _traj_grid(21.0)
    trap = TrapParams(A=8.0, K0=4.0)
    s = 20.5
    fields = [
        initial_q(pr, g, InitialDataParams(d0=d0, d1=d1, s0=s)).values
        for d0, d1 in ((0.012, 0.0), (0.0121, -0.002), (0.0119, 0.003))
    ]
    # a steep bump outside the support |y| <= 36.2, where the gradient sup
    # is not taken
    fields[1] = fields[1] + 0.05 * np.exp(-((g.y - 39.0) ** 2))
    table, kept = solver._observe(Field(g, np.array(fields), s), pr, trap)
    core = np.abs(g.y) <= 2.0 * trap.K0 * np.sqrt(s)
    for row, ins, qv in zip(table, kept, fields):
        d = decompose(Field(g, qv, s), trap.K0)
        margins = check_membership(d, trap)
        qy = gradient(g, qv)
        n_sup = 0.0
        if pr.perturbed:
            n = perturbation_N(pr, phi_dy(pr, g.y, s) + qy, phi(pr, g.y, s) + qv, s)
            n_sup = np.max(np.abs(n))
        alone = np.array(
            [s, d.q0, d.q1, d.q2, seminorm_minus(d), d.q_e.sup(), np.max(np.abs(qv)),
             np.max(np.abs(qy[core])), n_sup, *margins]
        )
        assert row.tobytes() == alone.tobytes()
        assert ins == inside(margins)
    assert np.max(np.abs(gradient(g, fields[1]))) > 10.0 * table[1, 7]


def test_run_trajectories_argument_checks():
    pr = make_params(2.0)
    g = make_grid(10.0, 0.1)
    trap = TrapParams(A=8.0, K0=1.0)
    q = Field(grid=g, values=np.zeros(g.n), s=20.0)
    with pytest.raises(ValueError, match="at least one"):
        run_trajectories([], pr, trap, SolverConfig(ds=0.01), 21.0)
    later = Field(grid=g, values=np.zeros(g.n), s=20.5)
    with pytest.raises(ValueError, match="one grid and one initial time"):
        run_trajectories([q, later], pr, trap, SolverConfig(ds=0.01), 21.0)


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
    out = duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 21.0)
    assert out["delta_sup"] == 0.0
    assert out["C_delta2"] == out["C_delta_minus"] == out["C_delta_e"] == 0.0
    # frozen piece sizes for this window (tau=20 -> s=21) on the nodes of
    # interior_mask; over the whole grid the edge collar's clipped kernels
    # read 3.2618e-2, 2.2931e-2 and 4.0105e-2
    assert out["alpha_sup"] == pytest.approx(3.0609e-2, rel=1e-3)
    assert out["gamma_sup"] == pytest.approx(2.2383e-2, rel=1e-3)
    assert out["v_sup"] == pytest.approx(3.6320e-2, rel=1e-3)
    # reconstruction closes up to source-quadrature error, well below the
    # field itself
    assert out["reconstruction_residual"] < 0.25 * out["q_sup"]
    assert out["n_quad"] == 17


def test_duhamel_split_perturbed_case():
    pr = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    out = duhamel_split_check(init, pr, trap, SolverConfig(ds=0.01), 21.0)
    # the perturbation piece is exponentially small but nonzero
    assert 0.0 < out["delta_sup"] < 1e-5  # measured 3.25e-6
    # empirical envelope constants (value * s^3 / window) stay moderate
    assert out["C_delta2"] < 1e-2  # measured 1.02e-3
    assert out["C_delta_minus"] < 1e-2  # measured 6.68e-4
    assert out["C_delta_e"] < 5e-2  # measured 7.63e-3
    assert out["reconstruction_residual"] < 0.25 * out["q_sup"]


def _quadrature_samples(init, pr, cfg, s_target):
    """q at s_target and the 17 trapezoid times, weights and source rows
    [B, R, N, Vq] of the integral form, stepped as the check steps."""
    n_steps = round((s_target - init.s) / cfg.ds)
    marks = sorted({int(round(x)) for x in np.linspace(0.0, n_steps, 17)})
    samples, q = [], init.copy()
    for k in range(n_steps + 1):
        if k:
            q = step_q(q, pr, cfg)
            q.s = init.s + k * cfg.ds
        if k in marks:
            qv, g = q.values, q.grid
            b = nonlinear_B(pr, phi(pr, g.y, q.s), qv)
            n = np.zeros(g.n)
            if pr.perturbed:
                w_y = phi_dy(pr, g.y, q.s) + gradient(g, qv)
                n = perturbation_N(pr, w_y, phi(pr, g.y, q.s) + qv, q.s)
            v = potential_V(pr, g.y, q.s) * qv
            samples.append((q.s, [b, remainder_R(pr, g.y, q.s), n, v]))
    sigma = np.array([s for s, _ in samples])
    weights = np.zeros_like(sigma)
    weights[:-1] += 0.5 * np.diff(sigma)
    weights[1:] += 0.5 * np.diff(sigma)
    return q, sigma, weights, [rows for _, rows in samples]


def _direct_duhamel_pieces(init, pr, cfg, s_target):
    """The reference sum: one kernel per quadrature time, of theta = s - sigma_k,
    applied to that time's sources (the first also carries q(tau))."""
    q, sigma, weights, rows = _quadrature_samples(init, pr, cfg, s_target)
    g = q.grid
    alpha = _banded_kernel(q.s - init.s, g).apply(init.values)
    pieces = np.zeros((4, g.n))
    for wgt, s, srcs in zip(weights, sigma, rows):
        theta = q.s - s
        srcs = np.stack(srcs)
        pieces += wgt * (srcs if theta <= 1e-12 else _banded_kernel(theta, g).apply(srcs))
    return q, np.vstack([alpha, pieces])


def _stepped_duhamel_pieces(init, pr, cfg, s_target):
    """The check's sum, one row at a time: alpha = K^n q(tau) and, for each
    source row, sum_k w_k K^(n - m_k) S_k, with K the stepping kernel of
    cfg.ds and m_k the step of the k-th quadrature time."""
    q, sigma, weights, rows = _quadrature_samples(init, pr, cfg, s_target)
    marks = dict(zip(np.rint((sigma - init.s) / cfg.ds).astype(int).tolist(), zip(weights, rows)))
    kernel = kernel_matrix(cfg.ds, q.grid)
    pieces = [init.values] + [weights[0] * row for row in rows[0]]
    for k in range(1, round((q.s - init.s) / cfg.ds) + 1):
        pieces = [kernel.apply(acc) for acc in pieces]
        if k in marks:
            wgt, srcs = marks[k]
            pieces[1:] = [acc + wgt * row for acc, row in zip(pieces[1:], srcs)]
    return q, np.array(pieces)


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
def test_duhamel_horner_sum_matches_the_direct_sum(lane, request):
    """The stepped Horner sum against one kernel per time: equal to
    roundoff inside the edge collar, where the step kernels compose
    exactly (1.7e-14 relative), and on every node bitwise the sum that
    carries each row alone by the stepping kernel; at the edge, where
    clipping compounds over the 100 steps, the two move apart by up to
    7.6e-2 of a piece's sup."""
    pr = request.getfixturevalue(lane)
    g = _traj_grid()
    assert g.n == 1703
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    cfg = SolverConfig(ds=0.01)
    q_ref, ref = _direct_duhamel_pieces(init, pr, cfg, 21.0)
    q, pieces, n_times = _duhamel_pieces(init, pr, cfg, 21.0)
    assert n_times == 17
    assert np.array_equal(q.values, q_ref.values)
    inner = interior_mask(g)
    for name, got, want in zip(("alpha", "beta", "gamma", "delta", "v"), pieces, ref):
        sup = np.max(np.abs(want))
        assert np.max(np.abs(got - want)[inner]) <= 1e-13 * sup, name
    np.testing.assert_array_equal(
        _bits(pieces), _bits(_stepped_duhamel_pieces(init, pr, cfg, 21.0)[1])
    )

    out = duhamel_split_check(init, pr, trap, cfg, 21.0)
    # the reported sups are those of the direct sum's pieces
    for name, want in zip(("alpha", "beta", "gamma", "delta", "v"), ref):
        assert out[f"{name}_sup"] == pytest.approx(np.max(np.abs(want[inner])), rel=1e-12)
    d = decompose(Field(grid=g, values=ref[3], s=21.0), trap.K0)
    scale = 21.0**3 / 1.0
    assert out["C_delta2"] == pytest.approx(abs(d.q2) * scale, rel=1e-12)
    assert out["C_delta_minus"] == pytest.approx(seminorm_minus(d) * scale, rel=1e-12)
    assert out["C_delta_e"] == pytest.approx(d.q_e.sup() * scale, rel=1e-12)


@pytest.mark.parametrize("lane", ["pure_p2", "perturbed_p2"])
def test_duhamel_reconstruction_closes_inside_the_edge_collar(lane, request):
    """The global residual peaks at the pinned end nodes (2.1e-3 at
    y = +-42.55 here); inside the kernel's edge collar the integral form
    closes to 7.0e-4 q_sup in both lanes."""
    pr = request.getfixturevalue(lane)
    g = _traj_grid()
    assert g.n == 1703
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    q, (alpha, beta, gamma, delta, vpart), _ = _duhamel_pieces(
        init, pr, SolverConfig(ds=0.01), 21.0
    )
    gap = np.abs(alpha + beta + gamma + delta + vpart - q.values)
    assert np.max(gap[interior_mask(g)]) <= 2e-3 * q.sup()


def test_duhamel_builds_no_kernel_beyond_the_stepping_kernel(perturbed_p2, monkeypatch):
    """The Horner sum is carried by the stepping kernel, which the steps
    hold already: from an empty cache, the check leaves that one kernel."""
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(perturbed_p2, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    cfg = SolverConfig(ds=0.01)
    monkeypatch.setattr(semigroup, "_MATRIX_CACHE", {})
    duhamel_split_check(init, perturbed_p2, trap, cfg, 21.0)
    assert list(semigroup._MATRIX_CACHE) == [(cfg.ds, g)]


def test_duhamel_sum_is_the_stepped_sum_of_each_row(perturbed_p2):
    """The figures of the check are those of sum_k w_k K^(n - m_k) S_k,
    each row carried alone by the stepping kernel K, bit for bit: the
    stacked product of each step gives each row's own product."""
    pr = perturbed_p2
    g = _traj_grid()
    trap = TrapParams(A=8.0, K0=4.0)
    init = initial_q(pr, g, InitialDataParams(d0=0.0128, d1=0.0, s0=20.0))
    cfg = SolverConfig(ds=0.01)
    out = duhamel_split_check(init, pr, trap, cfg, 20.2)
    q, (alpha, beta, gamma, delta, vpart) = _stepped_duhamel_pieces(init, pr, cfg, 20.2)
    assert out["n_quad"] == 17
    # the piece sups are taken away from the kernel's edge collar
    inner = interior_mask(g)
    assert out["alpha_sup"] == np.max(np.abs(alpha[inner]))
    assert out["beta_sup"] == np.max(np.abs(beta[inner]))
    assert out["gamma_sup"] == np.max(np.abs(gamma[inner]))
    assert out["delta_sup"] == np.max(np.abs(delta[inner]))
    assert out["v_sup"] == np.max(np.abs(vpart[inner]))
    resid = np.max(np.abs(alpha + beta + gamma + delta + vpart - q.values))
    assert out["reconstruction_residual"] == resid
