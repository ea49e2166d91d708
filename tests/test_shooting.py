"""Prepared data, the affine mode map, and the shooting search."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from blowup_lab import shooting
from blowup_lab.config import WITNESS_SIDE, apply_overrides, default_config, validate_config
from blowup_lab.experiments import run_experiment
from blowup_lab.grids import default_y_max, make_grid
from blowup_lab.hermite import decompose
from blowup_lab.model import make_params
from blowup_lab.shooting import (
    InitialDataParams,
    certificate_dict,
    initial_mode_map,
    initial_q,
    initial_rectangle,
    predict_critical,
    shoot,
)
from blowup_lab.solver import SolverConfig, TrajectoryRecord, run_trajectories
from blowup_lab.trapset import ExitInfo, TrapParams, check_membership, inside


@pytest.fixture(scope="module")
def shoot_grid():
    return make_grid(default_y_max(4.0, 23.0), 0.05)


@pytest.fixture(scope="module")
def trap8():
    return TrapParams(A=8.0, K0=4.0)


# ---------------------------------------------------------------------------
# prepared data


def test_initial_time_floor():
    with pytest.raises(ValueError, match="s0 >= e"):
        InitialDataParams(d0=0.0, d1=0.0, s0=2.0)
    with pytest.raises(ValueError, match="s0 >= e"):
        InitialDataParams(d0=0.0, d1=0.0, s0=np.nan)
    with pytest.raises(ValueError, match="must be finite"):
        InitialDataParams(d0=np.nan, d1=0.0, s0=20.0)


def test_initial_q_closed_form_at_center(shoot_grid):
    # z = 0 there: f(0)^p = 1 at p = 2, so q(0) = d0 - kappa/(2 p s0)
    pr = make_params(2.0)
    q = initial_q(pr, shoot_grid, InitialDataParams(d0=0.03, d1=0.7, s0=20.0))
    i = shoot_grid.n_half
    assert q.values[i] == pytest.approx(0.03 - 1.0 / 80.0, abs=1e-15)
    assert q.s == 20.0


def test_initial_q_is_affine_in_parameters(shoot_grid):
    pr = make_params(2.0)

    def data(d0, d1):
        return initial_q(pr, shoot_grid, InitialDataParams(d0=d0, d1=d1, s0=20.0)).values

    base = data(0.0, 0.0)
    combo = data(0.3, -0.2)
    rebuilt = base + 0.3 * (data(1.0, 0.0) - base) - 0.2 * (data(0.0, 1.0) - base)
    assert np.max(np.abs(combo - rebuilt)) < 1e-15


def test_initial_q_parity(shoot_grid):
    pr = make_params(2.0)
    even = initial_q(pr, shoot_grid, InitialDataParams(d0=0.4, d1=0.0, s0=20.0)).values
    assert np.max(np.abs(even - even[::-1])) == 0.0
    base = initial_q(pr, shoot_grid, InitialDataParams(d0=0.0, d1=0.0, s0=20.0)).values
    odd = initial_q(pr, shoot_grid, InitialDataParams(d0=0.0, d1=1.0, s0=20.0)).values - base
    # cancellation against the log-correction constant leaves ~eps * 0.0125
    assert np.max(np.abs(odd + odd[::-1])) < 1e-16


# ---------------------------------------------------------------------------
# mode map and rectangle


def test_mode_map_is_diagonal_affine(shoot_grid):
    pr = make_params(2.0)
    mm = initial_mode_map(pr, shoot_grid, 20.0, 4.0)
    # diagonal entries frozen; off-diagonal is parity-forbidden
    assert mm.M[0, 0] == pytest.approx(0.9763003844, rel=1e-9)
    assert mm.M[1, 1] == pytest.approx(0.2082473010, rel=1e-9)
    assert abs(mm.M[0, 1]) < 1e-10 and abs(mm.M[1, 0]) < 1e-10
    # the offset is the log-correction constant, exactly -kappa/(2 p s0)
    assert mm.b[0] == pytest.approx(-1.0 / 80.0, abs=1e-14)
    assert abs(mm.b[1]) < 1e-14


def test_mode_map_roundtrip(shoot_grid):
    pr = make_params(2.0)
    mm = initial_mode_map(pr, shoot_grid, 20.0, 4.0)
    d = mm.preimage(0.003, -0.004)
    back = mm.M @ d + mm.b
    assert np.max(np.abs(back - np.array([0.003, -0.004]))) < 1e-15


def test_mode_map_preimage_is_lapack_solve_bit_for_bit(pure_p2, perturbed_p2):
    # the written-out elimination against np.linalg.solve on 2000 targets
    # of the mode box for each map a shoot measures on the grids of
    # (dy, s0) = (0.05, 20), (0.1, 20) and (0.05, 40), in both lanes,
    # which give the same map: 12000 targets, no bit apart
    rng = np.random.default_rng(0)
    for dy, s0 in ((0.05, 20.0), (0.1, 20.0), (0.05, 40.0)):
        grid = make_grid(default_y_max(4.0, 50.0), dy)
        maps = [initial_mode_map(pr, grid, s0, 4.0) for pr in (pure_p2, perturbed_p2)]
        assert maps[0].M.tobytes() == maps[1].M.tobytes()
        box = 8.0 / s0**2
        for mm in maps:
            for q0, q1 in rng.uniform(-box, box, (2000, 2)).tolist():
                want = np.linalg.solve(mm.M, np.array([q0, q1]) - mm.b)
                assert mm.preimage(q0, q1).tobytes() == want.tobytes()


def test_mode_map_tightens_with_s0():
    pr = make_params(2.0)
    g40 = make_grid(default_y_max(4.0, 41.0), 0.05)
    mm = initial_mode_map(pr, g40, 40.0, 4.0)
    assert mm.M[0, 0] == pytest.approx(0.9878376650, rel=1e-9)
    assert mm.M[1, 1] == pytest.approx(0.1524473881, rel=1e-9)
    assert mm.b[0] == pytest.approx(-1.0 / 160.0, abs=1e-14)


def test_initial_rectangle_frozen_values(shoot_grid, trap8):
    pr = make_params(2.0)
    mm = initial_mode_map(pr, shoot_grid, 20.0, 4.0)
    rect = initial_rectangle(mm, trap8)
    assert rect[0, 0] == pytest.approx(-7.682061893958e-3, rel=1e-9)
    assert rect[0, 1] == pytest.approx(3.328893494210e-2, rel=1e-9)
    assert rect[1, 0] == pytest.approx(-9.603965999267e-2, rel=1e-9)
    assert rect[1, 1] == pytest.approx(-rect[1, 0], abs=1e-15)
    # d0 interval is centered on the preimage of q0 = 0, which is positive
    # because the offset b0 < 0 must be cancelled
    assert np.mean(rect[0]) == pytest.approx((1.0 / 80.0) / mm.M[0, 0], rel=1e-9)


def test_rectangle_shrinks_like_one_over_s0_squared(shoot_grid, trap8):
    pr = make_params(2.0)
    mm20 = initial_mode_map(pr, shoot_grid, 20.0, 4.0)
    g40 = make_grid(default_y_max(4.0, 41.0), 0.05)
    mm40 = initial_mode_map(pr, g40, 40.0, 4.0)
    w20 = np.diff(initial_rectangle(mm20, trap8)[0])[0]
    w40 = np.diff(initial_rectangle(mm40, trap8)[0])[0]
    # widths scale as A/s0^2 divided by the diagonal map entry
    predicted = (20.0 / 40.0) ** 2 * mm20.M[0, 0] / mm40.M[0, 0]
    assert w40 / w20 == pytest.approx(predicted, rel=1e-12)
    assert w40 / w20 == pytest.approx(0.247080, abs=1e-6)


def test_initial_components_check_saturates_mode_faces():
    """The shoot kind's initial check is the witness square's observation
    at s0, whose corners are those of rect0."""
    cfg = apply_overrides(default_config(), ["experiment.kind=shoot", "trajectory.s_end=21"])
    run = validate_config(cfg)
    report, _, ok = run_experiment(run)
    out = report["initial_check"]
    assert ok and out["all_inside"] is True
    worst = np.array(out["worst_margins"])
    # corners sit on the pulled-in mode faces: margin = shrink * A/s0^2
    assert worst[0] == pytest.approx(2.0e-11, rel=1e-3)
    assert worst[1] == pytest.approx(2.0e-11, rel=1e-3)
    # the other three components have real room
    assert np.all(worst[2:] > 1e-2)
    # the worst of the four lone corners; the face points between them
    # differ from it by roundoff
    (d0_lo, d0_hi), (d1_lo, d1_hi) = report["rect0"]
    corners = [
        initial_q(run.params, run.grid, replace(run.init, d0=d0, d1=d1))
        for d0 in (d0_lo, d0_hi)
        for d1 in (d1_lo, d1_hi)
    ]
    margins = [check_membership(decompose(q, run.trap.K0), run.trap) for q in corners]
    assert np.max(np.abs(np.min(margins, axis=0) - worst)) <= 1e-17


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_stacked_set_up_is_bitwise_the_per_field_loop(shoot_grid, trap8, p):
    """The mode map, and the s0 margins of the witness square at its
    corners, measured on one stack, are bit for bit those of one
    decomposition per prepared field."""
    pr = make_params(p)
    s0 = 20.0

    def lone(d0, d1):
        q = initial_q(pr, shoot_grid, InitialDataParams(d0=d0, d1=d1, s0=s0))
        return decompose(q, trap8.K0)

    def modes_of(d0, d1):
        d = lone(d0, d1)
        return np.array([d.q0, d.q1])

    b = modes_of(0.0, 0.0)
    M = np.column_stack([modes_of(1.0, 0.0) - b, modes_of(0.0, 1.0) - b])
    mm = initial_mode_map(pr, shoot_grid, s0, trap8.K0)
    assert mm.M.shape == (2, 2) and mm.M.tobytes() == M.tobytes()
    assert mm.b.shape == (2,) and mm.b.tobytes() == b.tobytes()

    rect = initial_rectangle(mm, trap8)
    # the s0 margins of the witness square over the rectangle, and over one
    # three times as wide whose corners are outside: each corner's row is
    # its lone field's
    for r, all_inside in ((rect, True), (3.0 * rect, False)):
        square = [
            initial_q(pr, shoot_grid, InitialDataParams(d0=float(d0), d1=float(d1), s0=s0))
            for d0 in np.linspace(*r[0], WITNESS_SIDE)
            for d1 in np.linspace(*r[1], WITNESS_SIDE)
        ]
        records = run_trajectories(square, pr, trap8, SolverConfig(ds=0.02), s0 + 0.02)
        initial = np.array([rec.margins[0] for rec in records])
        assert bool(inside(initial).all()) is all_inside
        last = WITNESS_SIDE - 1
        for i, (d0, d1) in ((0, r[:, 0]), (last, (r[0, 0], r[1, 1])),
                            (last * WITNESS_SIDE, (r[0, 1], r[1, 0])), (-1, r[:, 1])):
            assert initial[i].tobytes() == check_membership(lone(d0, d1), trap8).tobytes()


# ---------------------------------------------------------------------------
# the predicted critical point

# the s_end = 50 certificates of acceptance criteria 4 (pure) and 6 (perturbed)
_D0_PURE_50, _D0_PERT_50 = 1.208300169e-2, 1.208259494e-2


@pytest.fixture(scope="module")
def grid50():
    return make_grid(default_y_max(4.0, 50.0), 0.05)


def test_laguerre_rule_is_exact_to_degree_15():
    # int x^n e^(-x) dx over [0, inf) is n!, and 8 nodes integrate every
    # degree up to 2 * 8 - 1 exactly
    x, w = shooting._LAGUERRE_X, shooting._LAGUERRE_W
    for n in range(16):
        assert w @ x**n == pytest.approx(math.factorial(n), rel=1e-13)


def test_prediction_lands_near_the_certified_d0(grid50):
    d0, d1 = predict_critical(make_params(2.0), grid50, 20.0, 4.0)
    # measured 1.044e-3 relative (1.26e-5 absolute): the sources V q and
    # B(q), which the leading-order law leaves out
    assert (d0 - _D0_PURE_50) / _D0_PURE_50 == pytest.approx(1.044e-3, abs=1e-6)
    assert abs(d1) < 1e-15


def test_prediction_of_the_perturbed_shift(grid50, perturbed_p2):
    pure = predict_critical(make_params(2.0), grid50, 20.0, 4.0)
    pert = predict_critical(perturbed_p2, grid50, 20.0, 4.0)
    # N on phi alone: measured -4.0542e-7, against the certificates'
    # -4.0675e-7 (ratio 0.9967)
    shift = pert[0] - pure[0]
    assert shift == pytest.approx(-4.0542e-7, rel=1e-4)
    assert shift / (_D0_PERT_50 - _D0_PURE_50) == pytest.approx(0.9967, abs=1e-4)
    assert pert[1] == pure[1]


# ---------------------------------------------------------------------------
# the search


def test_shoot_short_window_survives_at_center(shoot_grid, trap8):
    pr = make_params(2.0)
    res = shoot(pr, shoot_grid, trap8, SolverConfig(ds=0.02), 20.0, 22.0)
    assert res.status == "survived"
    assert res.levels == 0 and res.n_evals == 5
    # the surviving point is the center of level 0, the predicted point
    assert [res.level_stats[0][f"d{m}_step"] for m in range(2)] == ["predict"] * 2
    assert (res.d0, res.d1) == (res.d0_predicted, res.d1_predicted)
    assert abs(res.d1) < 1e-15
    assert res.d0 == pytest.approx(0.0120956114, abs=1e-9)
    assert res.record is not None and res.record.survived(22.0)


def _assert_search_invariants(res):
    """Nested brackets that narrow strictly on every level, opposite end
    signs on every level that ran the ends."""
    rows = res.level_stats
    assert all(row["d0_end_signs"] is not None for row in rows)
    assert rows[0]["d1_end_signs"] is not None
    for m in range(2):
        brackets = [row[f"d{m}_bracket"] for row in rows]
        assert all(a[0] <= b[0] and b[1] <= a[1] for a, b in zip(brackets, brackets[1:]))
        widths = [hi - lo for lo, hi in brackets]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        signs = [row[f"d{m}_end_signs"] for row in rows]
        assert all(lo * hi < 0 for lo, hi in (s for s in signs if s is not None))


def test_shoot_longer_window_refines(shoot_grid, trap8):
    pr = make_params(2.0)
    res = shoot(pr, shoot_grid, trap8, SolverConfig(ds=0.02), 20.0, 28.0)
    assert res.status == "survived"
    assert res.levels == 1
    # level 1 reuses the center of level 0 as a d0 end and skips the d1 ends
    assert res.n_evals == 6
    assert res.level_stats[1]["d1_end_signs"] is None
    assert res.d0 == pytest.approx(0.0120836798160, abs=1e-9)
    # any point of the s_end = 28 basin certifies; the s_end = 50 shoot
    # certified d0 = 0.01208300169, inside every shorter window's basin
    m00 = initial_mode_map(pr, shoot_grid, 20.0, 4.0).M[0, 0]
    basin = 2.0 * trap8.A * np.exp(-8.0) / (28.0**2 * abs(m00))
    assert abs(res.d0 - 0.01208300169) <= basin
    cert = certificate_dict(res)
    assert cert["final_s"] == 28.0
    assert (cert["d0_predicted"], cert["d1_predicted"]) == (res.d0_predicted, res.d1_predicted)
    assert cert["min_margin"] > 0.0
    assert len(cert["level_stats"]) == res.levels + 1
    # refining toward the tuned point postpones the earliest exit
    assert cert["min_exit_monotone"] is True
    _assert_search_invariants(res)


def test_shoot_small_amplitude_trap(shoot_grid):
    # A = 1 leaves little room yet the funnel still catches a short window
    pr = make_params(2.0)
    res = shoot(pr, shoot_grid, TrapParams(A=1.0, K0=4.0), SolverConfig(ds=0.02), 20.0, 23.0)
    assert res.status == "survived"
    # measured: the predicted point survives
    assert res.levels == 0 and res.n_evals == 5
    assert certificate_dict(res)["min_margin"] > 0.0
    _assert_search_invariants(res)


def test_shoot_reports_max_levels(trap8, monkeypatch):
    # the s_end = 30 window needs three levels; the cut level 1 would take
    # exits at s = 29.56.  shoot_grid holds the cutoff support only to s = 29.4
    pr = make_params(2.0)
    grid = make_grid(default_y_max(4.0, 30.0), 0.05)
    monkeypatch.setattr(shooting, "MAX_LEVELS", 1)
    res = shoot(pr, grid, trap8, SolverConfig(ds=0.02), 20.0, 30.0)
    assert res.status == "max-levels"
    assert res.levels == 1 and res.n_evals == 6
    assert res.note == "refinement budget exhausted"
    assert res.d0 == pytest.approx(0.0120836798160, abs=1e-9)
    assert not res.record.survived(30.0)
    assert res.record.final_s == pytest.approx(29.56, abs=1e-9)
    assert len(res.level_stats) == 1


def test_shoot_budget_exit_evaluates_the_next_cut(shoot_grid, trap8, monkeypatch):
    # the s_end = 28 window needs two levels, and the cut of level 1
    # survives; the predicted point exits through q0 at s = 26.84
    pr = make_params(2.0)
    cfg = SolverConfig(ds=0.02)
    full = shoot(pr, shoot_grid, trap8, cfg, 20.0, 28.0)
    assert full.level_stats[0]["max_exit_s"] == pytest.approx(26.84, abs=1e-9)
    monkeypatch.setattr(shooting, "MAX_LEVELS", 1)
    res = shoot(pr, shoot_grid, trap8, cfg, 20.0, 28.0)
    assert res.status == "survived"
    assert res.levels == 1 and res.n_evals == 6
    assert (res.d0, res.d1) == (full.d0, full.d1)
    assert res.record.survived(28.0)


def _linear_trajectories(a0, a1=lambda d1: d1, component=None, batches=None):
    """Stand-in for run_trajectories on the InitialDataParams themselves.

    q_m(s) = a_m e^((1 - m/2)(s - s0)) exactly, with a0 = a0(d0) and
    a1 = a1(d1), and a point exits through q_m (or through `component`)
    when |q_m| first reaches 1, so the back-projected exit amplitude is a_m.
    Each record holds the start and the end: the mode margins are 1 - |q_m|,
    the other margins 1 and the other series 0.  The (d0, d1) of each batch
    are appended to `batches` when given.
    """

    def run(inits, params, trap, cfg, s_end):
        if batches is not None:
            batches.append([(init.d0, init.d1) for init in inits])
        records = []
        for init in inits:
            amp = np.array([a0(init.d0), a1(init.d1)])
            rates = np.array([1.0, 0.5])
            with np.errstate(divide="ignore"):
                reach = -np.log(np.abs(amp)) / rates
            m = int(np.argmin(reach))
            s_star = min(init.s0 + reach[m], s_end)
            q = amp * np.exp(rates * (s_star - init.s0))
            exit = None
            if s_star < s_end:
                exit = ExitInfo(s_star=s_star, reason="trap-exit",
                                component=component or f"q{m}")
            margins = np.ones((2, 5))
            margins[:, :2] = 1.0 - np.abs([amp, q])
            zeros = np.zeros(2)
            records.append(TrajectoryRecord(
                s=np.array([init.s0, s_star]),
                q0=np.array([amp[0], q[0]]), q1=np.array([amp[1], q[1]]),
                q2=zeros, sem_minus=zeros, qe_sup=zeros, q_sup=zeros, gradq_sup=zeros,
                N_sup=zeros, margins=margins, exit=exit,
            ))
        return records

    return run


def _linear_shoot(monkeypatch, trap8, s_end, predicted=(2.0, 2.0), **kwargs):
    monkeypatch.setattr(shooting, "initial_q", lambda params, grid, init: init)
    monkeypatch.setattr(shooting, "run_trajectories", _linear_trajectories(**kwargs))
    # by default a prediction outside rect0, so that each first cut is the
    # midpoint
    monkeypatch.setattr(shooting, "predict_critical", lambda *args: np.array(predicted))
    rect0 = np.array([[0.0, 1.0], [-1.0, 1.0]])
    return shoot(None, None, trap8, None, 20.0, s_end, rect0=rect0)


def test_shoot_cuts_first_at_a_prediction_inside_the_bracket(monkeypatch, trap8):
    # level 0 opens d0 at the prediction, which its bracket holds, and d1 at
    # the midpoint, since the prediction sits on the bracket's end; from
    # level 1 on the secant cuts
    res = _linear_shoot(
        monkeypatch, trap8, 40.0, predicted=(0.35, 1.0), a0=lambda d: d - 0.3,
        a1=lambda d: d - 0.2,
    )
    rows = res.level_stats
    assert (rows[0]["d0_step"], rows[0]["d1_step"]) == ("predict", "bisect")
    assert {row[f"d{m}_step"] for row in rows[1:] for m in range(2)} == {"interp"}
    assert (res.d0_predicted, res.d1_predicted) == (0.35, 1.0)
    # a linear a0: the secant through the prediction and an end is exact
    assert res.status == "survived" and res.levels == 1
    assert res.d0 == pytest.approx(0.3, abs=1e-15)


def _kinked_a0(d):
    return 0.5 + 0.2 * (d - 0.5) if d >= 0.25 else 0.45 + 41.8 * (d - 0.25)


def test_shoot_rejects_a_secant_root_outside_the_bracket(monkeypatch, trap8):
    # a0 is flat (slope 0.2) right of d0 = 0.25 and steep left of it, with
    # its root at 0.25 - 0.45/41.8; after level 0 keeps [0, 0.5], the two
    # points of smallest |a0| (0.5 and 1) put the secant root at -2
    res = _linear_shoot(monkeypatch, trap8, 40.0, a0=_kinked_a0)
    assert res.status == "survived"
    steps = [row["d0_step"] for row in res.level_stats]
    assert steps == ["bisect"] * 6 + ["interp"]
    assert res.level_stats[1]["d0_bracket"] == [0.0, 0.5]
    # two points on the steep side make the secant exact
    assert res.d0 == pytest.approx(0.25 - 0.45 / 41.8, abs=1e-12)
    # the d1 center has a1 = 0 exactly: a zero exit sign, so a shrink
    assert {row["d1_step"] for row in res.level_stats[:-1]} == {"shrink"}
    _assert_search_invariants(res)


# each a0 with its root, the half-width e^-20 / |a0'(root)| of its s_end = 40
# basin, and its measured level count
@pytest.mark.parametrize(
    ("a0", "root", "basin", "max_levels"),
    [
        (lambda d: np.expm1(6.0 * (d - 0.3)), 0.3, 4e-10, 7),
        (lambda d: np.expm1(20.0 * (d - 0.3)), 0.3, 1.1e-10, 10),
        (lambda d: (d - 0.3) ** 3 + 1e-3 * (d - 0.3), 0.3, 2.1e-6, 10),
        (_kinked_a0, 0.25 - 0.45 / 41.8, 5e-11, 6),
    ],
    ids=["expm1-6", "expm1-20", "cubic", "kinked"],
)
def test_shoot_bisects_only_without_a_secant_root_inside_the_bracket(
    monkeypatch, trap8, a0, root, basin, max_levels
):
    roots = []
    secant_root = shooting._secant_root

    def recorded(amplitudes):
        roots.append(secant_root(amplitudes))
        return roots[-1]

    monkeypatch.setattr(shooting, "_secant_root", recorded)
    res = _linear_shoot(monkeypatch, trap8, 40.0, a0=a0)
    assert res.status == "survived"
    assert abs(res.d0 - root) <= basin
    assert res.levels <= max_levels
    # cut(0) and cut(1) ask for a root once each per level, in that order
    for row, guess in zip(res.level_stats, roots[::2]):
        lo, hi = row["d0_bracket"]
        assert (row["d0_step"] == "bisect") == (guess is None or not lo < guess < hi)
    _assert_search_invariants(res)


# a0 with its root at 0.3, convex enough that the centers exit later level
# by level; the noise floor 1e-9 A / s*^2 hides a q1 amplitude of 1e-11
# until a point exits after s* = 21.16
_SLOW_A0 = dict(a0=lambda d: np.expm1(6.0 * (d - 0.3)))
_HIDDEN_A1 = 1e-11


def test_shoot_runs_the_d1_ends_once_the_center_q1_shows(monkeypatch, trap8):
    batches = []
    res = _linear_shoot(
        monkeypatch, trap8, 40.0, a1=lambda d: d - _HIDDEN_A1, batches=batches, **_SLOW_A0
    )
    assert res.status == "survived"
    assert res.d0 == pytest.approx(0.3, abs=1e-9)
    # the secant through the center and a d1 end certifies d1* = 1e-11
    assert res.d1 == pytest.approx(_HIDDEN_A1, rel=1e-6)
    rows = res.level_stats
    k = next(k for k in range(1, len(rows)) if rows[k]["d1_end_signs"] is not None)
    # level k - 1 shrank around a center of zero q1 sign, so level k
    # skipped the d1 ends until its own center showed a sign
    assert rows[k - 1]["d1_end_signs"] is None and rows[k - 1]["d1_step"] == "shrink"
    assert rows[k]["d1_step"] != "shrink"
    # they ran as a batch of their own, right after the batch of the center
    lo, hi = rows[k]["d1_bracket"]
    j = next(j for j, b in enumerate(batches) if [d1 for _, d1 in b] == [lo, hi])
    (c0,) = {d0 for d0, _ in batches[j]}
    assert (c0, 0.0) in batches[j - 1]
    assert sum(len(b) for b in batches) == res.n_evals
    _assert_search_invariants(res)


def test_shoot_reports_d1_enclosure_lost_after_a_skipped_level(monkeypatch, trap8):
    # a1 keeps its sign on (-0.4, 0.4), which only the ends of a shrunk d1
    # bracket see, once the center's q1 shows
    def a1(d):
        return d if abs(d) > 0.4 else _HIDDEN_A1 + d * d

    res = _linear_shoot(monkeypatch, trap8, 40.0, a1=a1, **_SLOW_A0)
    assert res.status == "enclosure-lost"
    assert res.note == "q1 exit sign +1 at both d1 ends"
    rows = res.level_stats
    assert rows[-1]["d1_end_signs"] == [1.0, 1.0]
    assert rows[-2]["d1_end_signs"] is None


def test_shoot_keeps_the_side_that_ends_at_a_zero_end_sign(monkeypatch, trap8):
    # a0's root at 1e-12 puts the low d0 end below the noise floor (sign 0)
    # and the high end on the center's side; the cut must keep [0, 0.5]
    res = _linear_shoot(
        monkeypatch, trap8, 40.0, a0=lambda d: d - 1e-12, a1=lambda d: d - 0.5
    )
    rows = res.level_stats
    assert rows[0]["d0_end_signs"] == [0.0, 1.0]
    assert rows[1]["d0_bracket"] == [0.0, 0.5]
    assert res.status == "survived"
    assert res.d0 == pytest.approx(0.0, abs=1e-9)
    assert res.d1 == pytest.approx(0.5, abs=1e-9)


def test_shoot_reports_degenerate_exit(monkeypatch, trap8):
    res = _linear_shoot(monkeypatch, trap8, 40.0, a0=lambda d: d - 0.3, component="q2")
    assert res.status == "degenerate-exit"
    assert res.levels == 0 and res.n_evals == 5
    assert res.record.exit.component == "q2"
    assert res.note.startswith("exit through q2 at (d0=0, d1=0)")


def test_shoot_reports_lost_enclosure(shoot_grid, trap8):
    # a rectangle strictly right of the tuned d0 exits with the same sign at
    # both ends
    pr = make_params(2.0)
    res = shoot(
        pr, shoot_grid, trap8, SolverConfig(ds=0.02), 20.0, 23.0,
        rect0=np.array([[0.02, 0.03], [-0.05, 0.05]]),
    )
    assert res.status == "enclosure-lost"
    assert res.n_evals == 5
    assert "q0 exit sign +1 at both d0 ends" in res.note


def test_shoot_reports_granularity(shoot_grid, trap8):
    pr = make_params(2.0)
    res = shoot(
        pr, shoot_grid, trap8, SolverConfig(ds=0.02), 20.0, 23.0,
        rect0=np.array([[0.02, 0.02 + 1e-18], [0.01, 0.01 + 1e-18]]),
    )
    assert res.status == "granularity"
    assert res.levels == 0 and res.n_evals == 1
    assert "floating point granularity" in res.note


def test_shoot_reports_granularity_on_one_axis(trap8):
    # past the float64 wall the d0 bracket closes to 1 ulp while the d1
    # bracket is still wide around d1* = 0.  Measured: the shoot ends here
    # at level 8 after 13 evals; when both brackets had to be granular it
    # ran on to "max-levels" after 64 levels
    pr = make_params(2.0)
    grid = make_grid(default_y_max(4.0, 58.0), 0.2)
    res = shoot(pr, grid, trap8, SolverConfig(ds=0.1), 20.0, 58.0)
    assert res.status == "granularity"
    assert (res.levels, res.n_evals) == (8, 13)
    assert res.note == "the d0 bracket reached floating point granularity"
    assert res.rect[0, 1] - res.rect[0, 0] < 4.0 * np.spacing(res.d0)
    assert res.rect[1, 1] - res.rect[1, 0] > 1e-4


def test_certificate_is_json_serializable(shoot_grid, trap8):
    pr = make_params(2.0)
    res = shoot(
        pr, shoot_grid, trap8, SolverConfig(ds=0.02), 20.0, 23.0,
        rect0=np.array([[0.02, 0.03], [-0.05, 0.05]]),
    )
    cert = certificate_dict(res)
    text = json.dumps(cert, sort_keys=True)
    loaded = json.loads(text)
    assert loaded["status"] == "enclosure-lost"
    assert loaded["exit_component"] == "q0"
    assert loaded["exit_reason"] == "trap-exit"
    assert loaded["rect0"] == [[0.02, 0.03], [-0.05, 0.05]]
