"""Shrinking trap set for the deviation and exit bookkeeping.

A deviation field with decomposition (q0, q1, q2, q_minus, q_e) at rescaled
time s is inside the trap of amplitude A >= 1 when

    |q0|, |q1|         <= A      / s^2
    |q2|               <= A^2 log(s) / s^2
    sup |q_minus|/(1+|y|^3)  <= A / s^2     (over the cutoff support)
    ||q_e||_inf        <= A^2 / sqrt(s).

The bounds shrink in s, so membership is a statement about tracking the
blow-up profile at a quantified rate.  Only the q0 and q1 directions are
linearly expanding; the reduction tested here is that trajectories leave
the trap through those two faces, transversally (the outward velocity has
the sign of the violated mode), which is what makes two-parameter shooting
on the initial data sufficient.

Membership is kept as margins only: the signed gaps (bound - measured)
of the five components, one row per field or per recorded step, and
`inside` is the one rule that reads them (every margin >= 0).  A
trajectory record (`solver.TrajectoryRecord`) is read here twice: for its
first exit (`exit_classify`), and for the defect of its recorded modes
against their linearized law (`mode_ode_check`).

Membership implies two derived envelopes that are checked separately: the
cutoff part q_b = q0 h0 + q1 h1 + q2 h2 + q_minus obeys
|q_b| <= C A^2 (log s / s^2)(1 + |y|^3) and the full field obeys
||q||_inf <= C A^2 / sqrt(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import per_row
from .hermite import SpectralDecomp, seminorm_minus

__all__ = [
    "COMPONENTS",
    "TrapParams",
    "ExitInfo",
    "component_bounds",
    "check_membership",
    "membership",
    "inside",
    "check_derived_bounds",
    "exit_classify",
    "mode_ode_check",
    "reduction_witness",
]

COMPONENTS = ("q0", "q1", "q2", "q_minus", "q_e")


@dataclass(frozen=True)
class TrapParams:
    """Trap amplitude A >= 1 and cutoff radius multiplier K0 > 0."""

    A: float
    K0: float

    def __post_init__(self) -> None:
        if not (1.0 <= self.A < np.inf):
            raise ValueError(f"trap amplitude must be >= 1 and finite, got A={self.A!r}")
        if not (0.0 < self.K0 < np.inf):
            raise ValueError(f"cutoff radius must be > 0 and finite, got K0={self.K0!r}")


@dataclass
class ExitInfo:
    """How and when a trajectory left the trap (or failed)."""

    s_star: float
    reason: str  # "trap-exit" or "divergence"
    component: str | None
    mode: int | None = None
    omega: float | None = None
    dqm_ds: float | None = None
    transverse: bool | None = None


def component_bounds(trap: TrapParams, s: float) -> np.ndarray:
    """The five shrinking bounds at rescaled time s (requires s >= e)."""
    if s < np.e:
        raise ValueError(f"trap bounds need s >= e, got s={s!r}")
    A = trap.A
    return np.array(
        [
            A / s**2,
            A / s**2,
            A**2 * np.log(s) / s**2,
            A / s**2,
            A**2 / np.sqrt(s),
        ]
    )


def check_membership(d: SpectralDecomp, trap: TrapParams) -> np.ndarray:
    """The margins of a decomposition against the bounds at its own time,
    one row per field of a stack."""
    measured = np.stack(
        [np.abs(d.q0), np.abs(d.q1), np.abs(d.q2), seminorm_minus(d), d.q_e.sup()], axis=-1
    )
    return membership(measured, trap, d.s)


def membership(measured: np.ndarray, trap: TrapParams, s: float) -> np.ndarray:
    """The margins (bound - measured) of the measured components at time s."""
    return component_bounds(trap, s) - measured


def inside(margins: np.ndarray) -> np.ndarray | np.bool_:
    """Whether each row of margins lies in the trap: all five are >= 0
    (a NaN margin is outside)."""
    return (margins >= 0.0).all(axis=-1)


def check_derived_bounds(d: SpectralDecomp, trap: TrapParams) -> dict:
    """Empirical constants of the two envelopes implied by membership; one
    of each per field of a stack."""
    qb = d.cutoff_part()
    A, s = trap.A, d.s
    envelope_b = A**2 * (np.log(s) / s**2) * (1.0 + np.abs(d.q_minus.grid.y) ** 3)
    C_cutoff = np.max(np.abs(qb[..., d.support]) / envelope_b[d.support], axis=-1)
    C_sup = np.max(np.abs(qb + d.q_e.values), axis=-1) * np.sqrt(s) / A**2
    return {"C_cutoff_part": per_row(C_cutoff), "C_sup": per_row(C_sup)}


def exit_classify(record) -> ExitInfo | None:
    """Locate and classify the first trap exit in a trajectory record.

    A step is inside by the `inside` rule on its stored margins.  For an
    expanding-mode exit (q0 or q1) the outward velocity dq_m/ds is
    estimated by a 3-point backward difference at the exit step and the
    crossing is transverse when omega * dq_m/ds > 0 with omega the sign of
    the violated mode.  The exit component is the one of
    least margin, the lowest index on a tie.  Returns None if the record
    never leaves the trap.
    """
    steps_inside = inside(record.margins)
    if bool(np.all(steps_inside)):
        return None
    i = int(np.argmin(steps_inside))  # first False
    comp = COMPONENTS[int(np.argmin(record.margins[i]))]
    info = ExitInfo(s_star=float(record.s[i]), reason="trap-exit", component=comp)
    if comp in ("q0", "q1"):
        m = 0 if comp == "q0" else 1
        series = record.q0 if m == 0 else record.q1
        info.mode = m
        info.omega = float(np.sign(series[i])) or 1.0
        if i >= 2:
            h = record.s[i] - record.s[i - 1]
            dq = (3.0 * series[i] - 4.0 * series[i - 1] + series[i - 2]) / (2.0 * h)
        elif i == 1:
            dq = (series[1] - series[0]) / (record.s[1] - record.s[0])
        else:
            dq = 0.0
        info.dqm_ds = float(dq)
        info.transverse = bool(info.omega * dq > 0.0)
    return info


def mode_ode_check(record, m: int) -> dict:
    """Defect of a recorded mode against its linearized law q_m' = (1 - m/2) q_m.

    The derivative is a centered difference on the recorded series, so the
    two end records, which have none, are left out of the window.  The
    defect collects the projected nonlinear, residual and perturbation
    sources, so along a trapped trajectory s^2 |defect| should stay of
    order one.  Returns the window sups of |defect| and s^2 |defect|.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"mode index must be 0, 1 or 2, got {m!r}")
    series = (record.q0, record.q1, record.q2)[m]
    s = record.s
    if s.size < 5:
        raise ValueError("record too short for a mode derivative estimate")
    h = np.diff(s)
    if not np.allclose(h, h[0], rtol=1e-8, atol=0.0):
        raise ValueError("mode check needs a uniformly recorded trajectory")
    dq = (series[2:] - series[:-2]) / (s[2:] - s[:-2])
    defect = dq - (1.0 - 0.5 * m) * series[1:-1]
    s_win = s[1:-1]
    return {
        "mode": m,
        "s_lo": float(s_win[0]),
        "s_hi": float(s_win[-1]),
        "sup_defect": float(np.max(np.abs(defect))),
        "sup_scaled_defect": float(np.max(s_win**2 * np.abs(defect))),
    }


def reduction_witness(records, trap: TrapParams) -> dict:
    """Batch exit statistics over a family of trajectory records.

    Tallies each record's own `exit`, as its run classified it, so a row
    that diverged counts under "divergence" and not as a survivor.  Reports
    the fraction of exits that occur through the expanding pair (q0, q1)
    and whether every expanding exit was transverse; trajectories that
    never exit are excluded from the fraction.
    """
    exits = [rec.exit for rec in records if rec.exit is not None]
    by_component: dict[str, int] = {c: 0 for c in COMPONENTS}
    by_component["divergence"] = 0
    for e in exits:
        key = e.component if e.component is not None else "divergence"
        by_component[key] += 1
    n_exp = by_component["q0"] + by_component["q1"]
    expanding = [e for e in exits if e.mode is not None]
    return {
        "n_runs": len(records),
        "n_exits": len(exits),
        "n_survivors": len(records) - len(exits),
        "fraction_q0q1": (n_exp / len(exits)) if exits else float("nan"),
        "all_transverse": all(e.transverse for e in expanding) if expanding else True,
        "by_component": by_component,
        "exits": exits,
    }
