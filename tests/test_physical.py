"""Original-variables integration, blow-up extrapolation, profile comparison.

The tuned shooting parameter d0* below was produced by the quadrisection
search (six units of rescaled time at A = 8); with it the physical run's
extrapolated blow-up time lands within a few 1e-6 of exp(-s0).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from blowup_lab import experiments
from blowup_lab.config import apply_overrides, default_config, validate_config
from blowup_lab.model import make_params, phi, phi_dy, profile_f
from blowup_lab.physical import (
    STOP_FACTOR,
    BlowupEstimate,
    PhysicalConfig,
    _fit_blowup_time,
    _probe_fields,
    _refine_peak,
    homogeneous_oracle,
    initial_u,
    integrate_u,
    integrate_us,
    profile_error,
    stability_probe,
)
from blowup_lab.similarity import _not_a_knot_spline

D0_STAR = 0.012083243220314307


@pytest.fixture(scope="module")
def pure():
    return make_params(2.0)


@pytest.fixture(scope="module")
def tuned_run(pure):
    cfg = PhysicalConfig(
        s0=20.0, d0=D0_STAR, d1=0.0, z_max=30.0, n_x=1601,
        snapshot_factors=(np.e, np.e**2),
    )
    return cfg, integrate_u(pure, cfg)


# ---------------------------------------------------------------------------
# configuration and initial data


def test_config_validation():
    data = dict(s0=20.0, d0=0.0, d1=0.0)
    with pytest.raises(ValueError, match="odd integer"):
        PhysicalConfig(**data, n_x=1600)
    with pytest.raises(ValueError, match="odd integer"):
        PhysicalConfig(**data, n_x=15)
    with pytest.raises(ValueError, match="z_max must be > 0"):
        PhysicalConfig(**data, z_max=0.0)
    for bad in (
        dict(n_x=float("nan")), dict(z_max=np.inf), dict(s0=np.nan),
        dict(d0=np.nan), dict(d1=np.inf),
    ):
        with pytest.raises(ValueError):
            PhysicalConfig(**{**data, **bad})


def test_nominal_blowup_time():
    cfg = PhysicalConfig(s0=20.0, d0=0.0, d1=0.0)
    assert cfg.T == pytest.approx(np.exp(-20.0), rel=1e-15)


def test_initial_data_closed_form(pure):
    cfg = PhysicalConfig(s0=20.0, d0=0.03, d1=0.0, z_max=30.0, n_x=801)
    x, u0 = initial_u(pure, cfg)
    T = cfg.T
    assert x.size == 801
    assert x[0] == -x[-1]
    assert x[-1] == pytest.approx(30.0 * np.sqrt(T * 20.0), rel=1e-15)
    # p = 2: f(0) = 1, so the center value is (1 + d0)/T
    assert u0[cfg.n_x // 2] == pytest.approx((1.0 + 0.03) / T, rel=1e-14)
    # undoing the rescaling at t = 0 recovers f + d0 f^p on the nose
    z = x / np.sqrt(T * 20.0)
    f = profile_f(pure, z)
    w0 = T * u0
    assert np.max(np.abs(w0 - (f + 0.03 * f**2))) < 1e-14 * np.max(w0)


def test_override_shape_guard(pure):
    # a field run in place of the prepared one must lie on the grid of cfg
    cfg = PhysicalConfig(s0=20.0, d0=0.0, d1=0.0, n_x=801, max_steps=1)
    with pytest.raises(ValueError, match="wrong shape"):
        integrate_us(pure, cfg, np.zeros((1, 17)))


# ---------------------------------------------------------------------------
# estimator internals


def test_refine_peak_recovers_parabola_vertex():
    x = np.linspace(-1.0, 1.0, 11)
    u = 1.0 - (x - 0.123) ** 2
    assert _refine_peak(x, u) == pytest.approx(0.123, abs=1e-12)


def test_refine_peak_boundary_and_flat_fallbacks():
    x = np.linspace(0.0, 1.0, 5)
    assert _refine_peak(x, np.array([5.0, 1.0, 0.0, 0.0, 0.0])) == 0.0
    assert _refine_peak(x, np.ones(5)) == 0.0  # flat data: first argmax wins


def test_fit_window_needs_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(RuntimeError, match="too few samples"):
        _fit_blowup_time(t, np.linspace(1.0, 2.0, 5), 2.0, 30.0, 300.0)


def test_fit_rejects_non_growing_peak():
    t = np.linspace(0.0, 1.0, 20)
    umax = np.linspace(100.0, 50.0, 20)
    with pytest.raises(RuntimeError, match="not growing"):
        _fit_blowup_time(t, umax, 2.0, 30.0, 300.0)


# ---------------------------------------------------------------------------
# the scalar oracle: same stepper, same fit, exact answer


def test_homogeneous_oracle_pure(pure):
    out = homogeneous_oracle(pure)
    assert out["T_exact"] == 1.0  # c^{1-p}/(p-1) at c = 1, p = 2
    assert out["rel_err"] < 1e-8  # measured 4.25e-10
    assert out["fit_quality"] > 1.0 - 1e-12
    assert out["max_rel_dev_closed_form"] < 1e-6  # measured 4.23e-7


def test_homogeneous_oracle_perturbed(pure):
    prp = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
    out = homogeneous_oracle(prp)
    # extra forcing only hastens the blow-up
    assert out["T_exact"] < 1.0
    assert out["T_exact"] == pytest.approx(0.6045998, rel=1e-5)
    assert out["rel_err"] < 1e-3  # quadrature target, measured 1.5e-4
    assert out["max_rel_dev_closed_form"] is None


def test_homogeneous_oracle_keeps_the_gradient_term_at_alpha_zero():
    # mu |u_x|^0 = mu on a constant field, so u' = u^2 + 1 blows up at
    # T = pi/2 - arctan(1) = pi/4, not at the pure 1.0
    out = homogeneous_oracle(make_params(2.0, alpha=0.0, mu=1.0))
    assert out["T_exact"] == pytest.approx(np.pi / 4.0, rel=1e-10)
    assert out["rel_err"] < 1e-5  # measured 2.9e-6
    assert out["max_rel_dev_closed_form"] is None


def test_oracle_rejects_nonpositive_start(pure):
    with pytest.raises(ValueError, match="must be positive"):
        homogeneous_oracle(pure, c=-1.0)


# ---------------------------------------------------------------------------
# the tuned run


def test_tuned_run_hits_nominal_time(pure, tuned_run):
    cfg, est = tuned_run
    assert est.blew_up
    assert abs(est.T_est - cfg.T) / cfg.T < 1e-5  # measured 4.14e-6
    assert est.a_est == 0.0  # symmetric data, symmetric scheme
    assert est.fit_quality > 0.9999
    assert est.T_est > est.t_end  # extrapolation, never interpolation
    assert 1000 < est.n_steps < 1100  # measured 1054
    assert est.umax_end >= STOP_FACTOR * est.sample_umax[0]


def test_tuned_run_snapshots_approach_profile(pure, tuned_run):
    cfg, est = tuned_run
    assert len(est.snapshots) == 2
    sups = []
    for t_snap, u_snap in est.snapshots:
        pe = profile_error(est.x, u_snap, t_snap, est, pure)
        # the distance to the uncorrected profile is the log correction,
        # kappa/(2 p s) up to a few percent
        predicted = 1.0 / (4.0 * pe["s"])
        assert pe["e_sup_f"] == pytest.approx(predicted, rel=0.08)
        # the corrected ansatz does strictly better
        assert pe["e_sup_phi"] < pe["e_sup_f"]
        # the sup against f is attained at the center, so it equals the
        # kappa gap there
        assert pe["kappa_gap"] <= pe["e_sup_f"] + 1e-15
        assert pe["e_grad_f"] < 2e-3
        sups.append(pe["e_sup_f"])
    assert sups[0] == pytest.approx(1.153612e-2, rel=1e-3)
    assert sups[1] == pytest.approx(1.104793e-2, rel=1e-3)
    assert sups[1] < sups[0]


@pytest.fixture(scope="module")
def criterion7_run(pure):
    """The physical run of acceptance criterion 7, from the tuned d0."""
    cfg = PhysicalConfig(
        s0=20.0, d0=D0_STAR, d1=0.0, z_max=30.0, n_x=3201,
        snapshot_factors=(3.0, 10.0, 30.0, 100.0),
    )
    return integrate_u(pure, cfg)


def _assert_matches_cubic_spline(x, y, t):
    ref = CubicSpline(x, y)
    value, deriv = _not_a_knot_spline(x, y, t)
    assert np.max(np.abs(value - ref(t))) <= 1e-12 * np.max(np.abs(ref(t)))
    assert np.max(np.abs(deriv - ref(t, 1))) <= 1e-12 * np.max(np.abs(ref(t, 1)))


def test_spline_matches_cubic_spline_on_a_criterion7_snapshot(criterion7_run):
    est = criterion7_run
    t_snap, u_snap = est.snapshots[-1]
    tau = est.T_est - t_snap
    x = (est.x - est.a_est) / np.sqrt(tau)
    # the window of profile_error, both nodes, and points beyond the ends
    window = np.linspace(-0.98 * x[-1], 0.98 * x[-1], 801)
    t = np.concatenate((window, x[:3], [x[0] - 1.0, x[-1] + 1.0]))
    _assert_matches_cubic_spline(x, tau * u_snap, t)


def test_spline_matches_cubic_spline_on_non_uniform_nodes():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-3.0, 5.0, 40))
    _assert_matches_cubic_spline(x, np.sin(2.0 * x) + x**2, np.linspace(-4.0, 6.0, 999))
    # four nodes are the fewest the not-a-knot system takes: one cubic
    x4 = np.array([0.0, 0.3, 1.1, 2.0])
    value, deriv = _not_a_knot_spline(x4, x4**3 - x4, np.array([0.5, 1.5]))
    assert np.allclose(value, [0.5**3 - 0.5, 1.5**3 - 1.5], rtol=1e-13)
    assert np.allclose(deriv, [3 * 0.25 - 1, 3 * 2.25 - 1], rtol=1e-13)


def test_spline_rejects_bad_nodes():
    with pytest.raises(ValueError, match="strictly increasing"):
        _not_a_knot_spline(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4), np.zeros(1))
    with pytest.raises(ValueError, match="at least 4"):
        _not_a_knot_spline(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(1))


def test_profile_error_matches_the_cubic_spline_figures(pure, criterion7_run):
    # the criterion-7 figures as a CubicSpline of the same data gives them
    est = criterion7_run
    assert len(est.snapshots) == 4
    for t_snap, u_snap in est.snapshots:
        pe = profile_error(est.x, u_snap, t_snap, est, pure)
        tau = est.T_est - t_snap
        s = -np.log(tau)
        spline = CubicSpline((est.x - est.a_est) / np.sqrt(tau), tau * u_snap)
        y = np.linspace(-pe["y_window"], pe["y_window"], 801)
        w_center = float(spline(0.0))
        ref = {
            "e_sup_f": np.max(np.abs(spline(y) - profile_f(pure, y / np.sqrt(s)))),
            "e_sup_phi": np.max(np.abs(spline(y) - phi(pure, y, s))),
            "e_grad_f": np.max(np.abs(spline(y, 1) - phi_dy(pure, y, s))),
            "w_center": w_center,
            "kappa_gap": abs(w_center - pure.kappa),
        }
        for key, value in ref.items():
            assert pe[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_profile_error_rejects_snapshot_past_estimate(pure, tuned_run):
    cfg, est = tuned_run
    t_snap, u_snap = est.snapshots[0]
    with pytest.raises(ValueError, match="past the estimated blow-up"):
        profile_error(est.x, u_snap, 2.0 * est.T_est, est, pure)


def test_physical_matches_similarity_solver(tuned_run):
    """Transform the first snapshot to (y, w) with the exact T and compare
    against the rescaled solver run from the matched initial data: the
    round trip of full-pipeline's physical part, on its grid."""
    cfg, est = tuned_run
    run = validate_config(apply_overrides(default_config(), ["experiment.kind=full-pipeline"]))
    diff = experiments._round_trip(replace(run, physical=cfg), est)
    assert diff < 5e-5  # measured 1.05e-5


# ---------------------------------------------------------------------------
# non-blow-up and stability


def test_small_negative_data_does_not_blow_up(pure):
    # 2000 diffusive steps of 0.01125 T each cover 22.5 T
    cfg = PhysicalConfig(s0=20.0, d0=0.0, d1=0.0, n_x=801, max_steps=2000)
    x, u0 = initial_u(pure, cfg)
    est = integrate_us(pure, cfg, np.full((1, u0.size), -0.01))[0]
    assert est.blew_up is False
    assert est.T_est == np.inf
    assert est.fit_quality == 0.0
    assert est.n_steps == cfg.max_steps
    assert est.t_end == pytest.approx(22.5 * cfg.T, rel=1e-9)
    # the scalar blow-up time for |u0| = 0.01 is ~1e2, nine orders beyond the
    # run, so the peak is still where it started
    assert est.umax_end == pytest.approx(0.01, abs=1e-9)


def test_record_holds_about_two_doubles_per_step(pure):
    """The (t, ||u||_inf) record of a run peaks at about 16 bytes a step:
    its two array('d') buffers, handed out as the sample arrays without a
    copy.  A copy at the end of the run read 32.7 B/step."""
    cfg = PhysicalConfig(s0=20.0, d0=0.0, d1=0.0, n_x=401)
    u0 = np.full((1, 401), -0.01)
    peaks = []
    for n in (1000, 5000):
        tracemalloc.start()
        est = integrate_us(pure, replace(cfg, max_steps=n), u0)[0]
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert est.n_steps == n and est.sample_t.size == n + 1
        assert est.sample_t.flags.writeable and est.sample_umax.flags.writeable
    per_step = (peaks[1] - peaks[0]) / 4000
    assert 15.0 < per_step < 20.0  # measured 16.3; 32.1 with the copy


def test_run_that_stops_on_its_last_allowed_step_blew_up(pure):
    # the free run reaches STOP_FACTOR on step 924; a cap of exactly that
    # many steps must report the same blow-up, not a subcritical outcome
    cfg = PhysicalConfig(s0=20.0, d0=D0_STAR, d1=0.0, n_x=401)
    free = integrate_u(pure, cfg)
    capped = integrate_u(pure, replace(cfg, max_steps=free.n_steps))
    assert free.blew_up and free.n_steps == 924
    assert capped.blew_up is True
    assert capped.n_steps == free.n_steps
    assert capped.T_est == free.T_est
    assert capped.fit_quality == free.fit_quality


def _assert_same_run(stacked, lone):
    for name in ("T_est", "a_est", "fit_quality", "t_end", "umax_end", "n_steps", "blew_up"):
        assert getattr(stacked, name) == getattr(lone, name), name
    for name in ("u_end", "sample_t", "sample_umax"):
        assert np.array_equal(getattr(stacked, name), getattr(lone, name)), name
    assert len(stacked.snapshots) == len(lone.snapshots)
    for (t_s, u_s), (t_l, u_l) in zip(stacked.snapshots, lone.snapshots):
        assert t_s == t_l
        assert np.array_equal(u_s, u_l)


def _assert_rows_match_lone_runs(params, cfg, u0s):
    ests = integrate_us(params, cfg, u0s)
    assert len(ests) == len(u0s)
    for u0, est in zip(u0s, ests):
        _assert_same_run(est, integrate_us(params, cfg, u0[np.newaxis])[0])
    return ests


def test_stacked_probe_rows_are_their_lone_runs(pure):
    # the default snapshot factors, so the snapshots are compared too
    cfg = PhysicalConfig(s0=20.0, d0=D0_STAR, d1=0.0, n_x=401)
    labels, u0s = _probe_fields(pure, cfg, (1e-2, 1e-3, 1e-4), 17)
    assert len(labels) == 6 and u0s.shape == (7, 401)
    ests = _assert_rows_match_lone_runs(pure, cfg, u0s)
    assert all(est.blew_up and len(est.snapshots) == 5 for est in ests)


def test_stacked_rows_of_a_perturbed_model_are_their_lone_runs():
    # the gradient stencil of N also crosses the seams between rows
    prp = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
    cfg = PhysicalConfig(s0=20.0, d0=D0_STAR, d1=0.0, n_x=401)
    _, u0s = _probe_fields(prp, cfg, (1e-2,), 17)
    ests = _assert_rows_match_lone_runs(prp, cfg, u0s)
    assert all(est.blew_up for est in ests)


def test_rows_that_blow_up_leave_a_row_that_does_not(pure):
    # the data of test_small_negative_data_does_not_blow_up between two
    # blow-up rows, which leave on steps 924 and 923; it runs to max_steps
    cfg = PhysicalConfig(s0=20.0, d0=D0_STAR, d1=0.0, n_x=401, max_steps=1500)
    _, u0 = initial_u(pure, cfg)
    _, u0_steep = initial_u(pure, replace(cfg, d0=0.2))
    u0s = np.array([u0, np.full_like(u0, -0.01), u0_steep])
    ests = _assert_rows_match_lone_runs(pure, cfg, u0s)
    assert [est.blew_up for est in ests] == [True, False, True]
    assert [est.n_steps for est in ests] == [924, cfg.max_steps, 923]


def test_stack_shape_guard(pure):
    cfg = PhysicalConfig(s0=20.0, d0=0.0, d1=0.0, n_x=401, max_steps=1)
    with pytest.raises(ValueError, match="wrong shape"):
        integrate_us(pure, cfg, np.zeros(401))
    with pytest.raises(ValueError, match="wrong shape"):
        integrate_us(pure, cfg, np.zeros((2, 17)))


def test_stability_probe_shifts_scale_with_amplitude(pure):
    cfg = PhysicalConfig(s0=20.0, d0=D0_STAR, d1=0.0, z_max=30.0, n_x=801)
    probe = stability_probe(pure, cfg, rel_eps=(1e-2, 1e-3))
    assert probe["deterministic"] is True
    assert probe["baseline"]["a_est"] == 0.0
    assert probe["baseline"]["fit_quality"] > 0.9999
    T = cfg.T
    worst = {}
    for r in probe["rows"]:
        worst[r["eps"]] = max(worst.get(r["eps"], 0.0), abs(r["dT"]) / T)
        assert abs(r["da"]) < 1e-6  # peak barely moves (domain ~ 6e-3)
        assert r["fit_quality"] > 0.9999
    # the time shift tracks the bump amplitude linearly
    assert 0.2e-2 < worst[1e-2] < 2e-2  # measured 1.01e-2
    assert 0.2e-3 < worst[1e-3] < 2e-3  # measured 1.02e-3
