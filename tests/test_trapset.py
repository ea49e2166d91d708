from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab import solver
from blowup_lab.grids import Field, make_grid
from blowup_lab.hermite import SpectralDecomp, decompose, hermite_h
from blowup_lab.solver import SolverConfig, run_trajectory
from blowup_lab.trapset import (
    COMPONENTS,
    ExitInfo,
    TrapParams,
    check_derived_bounds,
    check_membership,
    component_bounds,
    exit_classify,
    measured_components,
    reduction_witness,
)


def test_trap_params_validation():
    TrapParams(A=1.0, K0=0.5)
    with pytest.raises(ValueError, match="amplitude must be >= 1"):
        TrapParams(A=0.5, K0=1.0)
    with pytest.raises(ValueError, match="radius must be > 0"):
        TrapParams(A=2.0, K0=0.0)
    for A, K0 in ((np.nan, 4.0), (np.inf, 4.0), (8.0, np.nan), (8.0, np.inf)):
        with pytest.raises(ValueError, match="and finite"):
            TrapParams(A=A, K0=K0)


def test_component_bounds_arithmetic():
    trap = TrapParams(A=8.0, K0=4.0)
    b = component_bounds(trap, 20.0)
    assert b[0] == b[1] == pytest.approx(8.0 / 400.0)
    assert b[2] == pytest.approx(64.0 * np.log(20.0) / 400.0)
    assert b[3] == pytest.approx(8.0 / 400.0)
    assert b[4] == pytest.approx(64.0 / np.sqrt(20.0))
    assert b.shape == (5,)


def test_component_bounds_require_s_at_least_e():
    trap = TrapParams(A=2.0, K0=1.0)
    with pytest.raises(ValueError, match="s >= e"):
        component_bounds(trap, 2.0)
    component_bounds(trap, np.e)  # boundary is allowed


def test_bounds_shrink_in_s():
    trap = TrapParams(A=8.0, K0=4.0)
    s = np.linspace(20.0, 200.0, 50)
    stacked = np.array([component_bounds(trap, si) for si in s])
    assert np.all(np.diff(stacked, axis=0) < 0.0)


def test_bounds_grow_with_A():
    lo = component_bounds(TrapParams(A=2.0, K0=4.0), 30.0)
    hi = component_bounds(TrapParams(A=4.0, K0=4.0), 30.0)
    assert np.all(hi > lo)
    # q0/q1/q_minus scale linearly, q2/q_e quadratically, in A
    assert hi[0] == pytest.approx(2.0 * lo[0])
    assert hi[2] == pytest.approx(4.0 * lo[2])
    assert hi[4] == pytest.approx(4.0 * lo[4])


def _decomp(grid, q0=0.0, q1=0.0, q2=0.0, minus=None, outer=None, s=20.0, K0=2.0):
    """Assemble a SpectralDecomp directly from prescribed components."""
    z = np.zeros(grid.n)
    return SpectralDecomp(
        q0=q0,
        q1=q1,
        q2=q2,
        q_minus=Field(grid=grid, values=z if minus is None else minus, s=s),
        q_e=Field(grid=grid, values=z if outer is None else outer, s=s),
        K0=K0,
        s=s,
    )


def test_measured_components_mapping(grid20):
    y = grid20.y
    minus = 1e-4 * np.where(np.abs(y) <= 8.0, np.sin(y), 0.0)
    outer = 5e-3 * np.where(np.abs(y) >= 18.0, 1.0, 0.0)
    d = _decomp(grid20, q0=-0.01, q1=0.002, q2=-0.0005, minus=minus, outer=outer, s=16.0)
    m = measured_components(d)
    assert m[0] == 0.01 and m[1] == 0.002 and m[2] == 0.0005
    assert m[3] > 0.0 and m[4] == 5e-3
    assert len(COMPONENTS) == len(m) == 5


def test_membership_inside(grid20):
    trap = TrapParams(A=8.0, K0=2.0)
    d = _decomp(grid20, q0=1e-3, q1=-1e-3, s=20.0)
    st_ = check_membership(d, trap)
    assert st_.inside is True
    assert np.all(st_.margins >= 0.0)


def test_membership_identifies_worst_component(grid20):
    trap = TrapParams(A=8.0, K0=2.0)
    # bound at s=20 is 0.02 for q0/q1; violate q1 harder than q0
    d = _decomp(grid20, q0=0.021, q1=-0.05, s=20.0)
    st_ = check_membership(d, trap)
    assert not st_.inside
    assert COMPONENTS[int(np.argmin(st_.margins))] == "q1"


def test_derived_bound_constants_are_order_one(grid20):
    # a field saturating the component bounds should have derived constants
    # of order one, not orders of magnitude off
    trap = TrapParams(A=8.0, K0=2.0)
    s = 20.0
    y = grid20.y
    supp = np.abs(y) <= 2.0 * trap.K0 * np.sqrt(s)
    minus = (trap.A / s**2) * np.where(supp, (1.0 + np.abs(y) ** 3) * 0.5, 0.0)
    outer = (trap.A**2 / np.sqrt(s)) * np.where(~supp, 1.0, 0.0)
    d = _decomp(
        grid20,
        q0=trap.A / s**2,
        q1=trap.A / s**2,
        q2=trap.A**2 * np.log(s) / s**2,
        minus=minus,
        outer=outer,
        s=s,
    )
    out = check_derived_bounds(d, trap)
    assert 0.01 < out["C_cutoff_part"] < 10.0
    # the q2 h2 term contributes ~ log(s) (1 + y^3)-free growth at the
    # support edge, so the saturated constant is ~15, still order one
    assert 0.01 < out["C_sup"] < 50.0


def test_derived_bounds_and_reconstruction_act_row_wise(grid20):
    # K == 3 rows against n nodes, and K == n, where a missing row axis
    # would broadcast the amplitudes along y without an error
    trap = TrapParams(A=8.0, K0=2.0)
    y = grid20.y
    rows = np.array([f * np.exp(-(y**2) / 8.0) * (1.0 + c * y) for f, c in
                     ((1e-3, 0.0), (-2e-3, 0.3), (5e-4, -1.0))])
    for K in (3, grid20.n):
        stack = np.resize(rows, (K, grid20.n))
        d = decompose(Field(grid20, stack, 20.0), trap.K0)
        derived = check_derived_bounds(d, trap)
        recon = d.reconstruct()
        assert recon.shape == stack.shape
        for k in (0, 1, 2, K - 1):
            lone = decompose(Field(grid20, stack[k], 20.0), trap.K0)
            assert recon[k].tobytes() == lone.reconstruct().tobytes()
            for key, value in check_derived_bounds(lone, trap).items():
                assert derived[key][k] == value and isinstance(value, float)


@settings(max_examples=100, derandomize=True)
@given(
    scale=st.floats(0.1, 4.0),
    s=st.floats(10.0, 200.0),
)
def test_membership_threshold_scaling(scale, s):
    """Mode amplitudes at scale * bound are inside iff scale <= 1."""
    g = make_grid(10.0, 0.5)
    trap = TrapParams(A=3.0, K0=1.0)
    q0 = scale * trap.A / s**2
    d = _decomp(g, q0=q0, s=s, K0=1.0)
    st_ = check_membership(d, trap)
    assert st_.inside == (scale <= 1.0)


# ---------------------------------------------------------------------------
# exit classification on synthetic records


class _FakeRecord:
    """Minimal duck-typed trajectory record for exit_classify, with the
    exit a run would have recorded for it."""

    def __init__(self, s, q0, q1, margins_rows):
        self.s = np.asarray(s, dtype=float)
        self.q0 = np.asarray(q0, dtype=float)
        self.q1 = np.asarray(q1, dtype=float)
        self.margins = np.asarray(margins_rows, dtype=float)
        self.exit = exit_classify(self)


def _margins_for(q0_excess=0.0, q1_excess=0.0):
    # margins (bound - measured); positive entries for untouched components
    return [0.0 - q0_excess, 0.0 - q1_excess, 1.0, 1.0, 1.0]


def test_exit_classify_none_when_always_inside():
    rec = _FakeRecord(
        s=[20.0, 20.1, 20.2],
        q0=[0.0, 0.0, 0.0],
        q1=[0.0, 0.0, 0.0],
        margins_rows=[[1.0] * 5] * 3,
    )
    assert exit_classify(rec) is None


def test_exit_classify_transverse_q0_exit():
    # q0 grows through the face with positive slope: transverse, omega = +1
    s = [20.0, 20.1, 20.2, 20.3]
    q0 = [0.010, 0.015, 0.020, 0.030]
    rows = [_margins_for(), _margins_for(), _margins_for(), _margins_for(q0_excess=0.01)]
    rec = _FakeRecord(s, q0, [0.0] * 4, rows)
    info = exit_classify(rec)
    assert info is not None
    assert info.component == "q0" and info.mode == 0
    assert info.s_star == pytest.approx(20.3)
    assert info.omega == 1.0
    # 3-point backward difference: (3*0.030 - 4*0.020 + 0.015)/(2*0.1) = 0.125
    assert info.dqm_ds == pytest.approx(0.125, rel=1e-12)
    assert info.transverse is True
    assert info.reason == "trap-exit"


def test_exit_classify_negative_mode_sign():
    s = [20.0, 20.1, 20.2, 20.3]
    q1 = [-0.010, -0.015, -0.020, -0.030]
    rows = [_margins_for(), _margins_for(), _margins_for(), _margins_for(q1_excess=0.01)]
    rec = _FakeRecord(s, [0.0] * 4, q1, rows)
    info = exit_classify(rec)
    assert info.component == "q1" and info.omega == -1.0
    assert info.dqm_ds < 0.0
    assert info.transverse is True


def test_exit_classify_non_transverse_when_retreating():
    # the mode is outside but moving back in: omega * dq/ds < 0
    s = [20.0, 20.1, 20.2, 20.3]
    q0 = [0.05, 0.04, 0.035, 0.030]
    rows = [_margins_for(q0_excess=0.01)] * 4
    rec = _FakeRecord(s, q0, [0.0] * 4, rows)
    info = exit_classify(rec)
    assert info.s_star == pytest.approx(20.0)
    assert info.dqm_ds == 0.0  # first sample: no backward stencil available
    assert info.transverse is False


def test_exit_classify_short_stencil():
    # exit at the second sample: falls back to a one-sided difference
    s = [20.0, 20.1, 20.2]
    q0 = [0.01, 0.03, 0.05]
    rows = [_margins_for(), _margins_for(q0_excess=0.01), _margins_for(q0_excess=0.03)]
    rec = _FakeRecord(s, q0, [0.0] * 3, rows)
    info = exit_classify(rec)
    assert info.s_star == pytest.approx(20.1)
    assert info.dqm_ds == pytest.approx(0.2, rel=1e-12)


def test_membership_tie_resolves_to_lowest_index():
    # q0 and q1 leave by the same margin on the same step: exit_classify
    # names the lowest index, q0
    rows = [_margins_for(), _margins_for(q0_excess=0.01, q1_excess=0.01)]
    info = _FakeRecord([20.0, 20.1], [0.01, 0.02], [0.01, 0.02], rows).exit
    assert info.component == "q0" and info.mode == 0


def test_exit_classify_reads_membership_from_the_margins():
    """A step is inside when all its margins are >= 0, -0.0 included, and
    the first step with a negative or NaN margin is the exit, wherever it
    sits in the record; the record needs no inside flags."""
    s = np.array([20.0, 20.1, 20.2, 20.3, 20.4])
    q1 = np.array([0.0, 0.01, 0.02, 0.01, 0.0])
    rows = np.array([
        [0.0, -0.0, 1.0, 1.0, 1.0],
        _margins_for(),
        _margins_for(q1_excess=0.01),
        _margins_for(),
        _margins_for(q0_excess=0.5),
    ])
    rec = SimpleNamespace(s=s, q0=np.zeros(5), q1=q1, margins=rows)
    info = exit_classify(rec)
    assert not hasattr(rec, "inside")
    assert info.s_star == 20.2 and info.component == "q1" and info.mode == 1
    # (3*0.02 - 4*0.01 + 0.0)/(2*0.1) = 0.1
    assert info.dqm_ds == pytest.approx(0.1, rel=1e-12)
    rows[1, 3] = np.nan
    info = exit_classify(rec)
    assert info.s_star == 20.1 and info.component == "q_minus"


def test_exit_classify_non_mode_component():
    rows = [[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, -0.1]]
    rec = _FakeRecord([20.0, 20.1], [0.0, 0.0], [0.0, 0.0], rows)
    info = exit_classify(rec)
    assert info.component == "q_e"
    assert info.mode is None and info.transverse is None


def test_reduction_witness_counts():
    trap = TrapParams(A=8.0, K0=4.0)
    s = [20.0, 20.1, 20.2, 20.3]
    mk = lambda q0, q1, rows: _FakeRecord(s, q0, q1, rows)
    recs = [
        mk([0.01, 0.02, 0.03, 0.04], [0.0] * 4,
           [_margins_for()] * 3 + [_margins_for(q0_excess=0.01)]),
        mk([0.0] * 4, [-0.01, -0.02, -0.03, -0.04],
           [_margins_for()] * 3 + [_margins_for(q1_excess=0.01)]),
        mk([0.0] * 4, [0.0] * 4, [[1.0] * 5] * 4),  # survivor
    ]
    out = reduction_witness(recs, trap)
    assert out["n_runs"] == 3
    assert out["n_exits"] == 2
    assert out["n_survivors"] == 1
    assert out["fraction_q0q1"] == 1.0
    assert out["all_transverse"] is True
    assert out["by_component"]["q0"] == 1 and out["by_component"]["q1"] == 1
    assert all(isinstance(e, ExitInfo) for e in out["exits"])


def test_reduction_witness_counts_a_divergence(pure_p2, monkeypatch):
    # at A = 1e6 the flat field of height 50 is still inside when it passes
    # a cap of 1e4, so the run ends with a divergence, not a trap exit
    monkeypatch.setattr(solver, "OVERFLOW", 1e4)
    trap = TrapParams(A=1e6, K0=1.0)
    g = make_grid(10.0, 0.1)
    big = Field(grid=g, values=np.full(g.n, 50.0), s=20.0)
    rec = run_trajectory(big, pure_p2, trap, SolverConfig(ds=0.1), 22.0)
    assert rec.exit.reason == "divergence" and bool(np.all(rec.margins >= 0.0))
    out = reduction_witness([rec], trap)
    assert out["by_component"]["divergence"] == 1
    assert out["n_exits"] == 1 and out["n_survivors"] == 0
    assert out["fraction_q0q1"] == 0.0
    assert out["exits"] == [rec.exit]


def test_reduction_witness_empty():
    out = reduction_witness([], TrapParams(A=8.0, K0=4.0))
    assert out["n_runs"] == 0 and np.isnan(out["fraction_q0q1"])
    assert out["all_transverse"] is True
