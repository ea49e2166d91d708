"""Two-parameter shooting on the expanding directions.

The prepared initial data at time s0 is the two-parameter family

    q(y, s0) = (d0 + d1 z) f(z)^p - kappa/(2 p s0),      z = y / sqrt(s0),

which in the w form is f(z) (1 + (d0 + d1 z)/(p - 1 + b z^2)) plus the
log-correction of the ansatz.  The map (d0, d1) -> (q0(s0), q1(s0)) is
affine; its preimage of the mode box [-A/s0^2, A/s0^2]^2 is the shooting
rectangle.  Because the q0 and q1 directions are the only linearly
expanding ones, a trajectory that starts anywhere in the rectangle and is
not exactly tuned leaves the trap through a mode face with a definite
sign, so each parameter interval brackets the critical value between ends
of opposite exit sign.

Each level evaluates a plus-pattern of trajectories: the two ends of the
d0 bracket at the center's d1, the two ends of the d1 bracket at the
center's d0, and the center.  Linearly q_m grows like
e^((1 - m/2)(s - s0)), so the back-projected exit amplitude
a_m = q_m(s*) e^(-(1 - m/2)(s* - s0)) is close to affine in d_m - d_m*.
The center's d_m is the root of the secant through the two points of
smallest |a_m| among those evaluated so far on axis m's arm of the
pattern (its ends and the center): they lie nearest the root, where a_m
is most nearly affine, while regula falsi would keep a far bracket end in
every estimate.  Before axis m has any point, at level 0, the center's
d_m is instead `predict_critical`'s: the slaved law of q0 on a trapped
trajectory, taken back through the mode map, which lands about 1e-3
relative from d0*.  Either guess is kept only strictly inside the
bracket; otherwise (fewer than two points, equal amplitudes, or a guess
on or outside an end) the center is the midpoint, so each level narrows
the bracket, though no level need halve it.  The bracket then keeps the
part between the center and the end of opposite exit sign; a center
whose sign is below the noise floor instead shrinks it to half its width
around the center.  The points of a level that are not cached from
earlier levels run as one ensemble (`solver.run_trajectories`), all of
them before any survival check.

The d1 ends run at level 0 and on any level whose previous center had a
q1 exit sign above the noise floor.  The equation is even in y (|u_x|^alpha,
|u|^alpha_bar and mu0 are even) and so is the d1 = 0 member of the family,
so d1* = 0 and the center's q1 normally stays below the floor: the d1
bracket then only shrinks around the center, and re-running its ends
would re-check an enclosure that a center of zero q1 sign cannot move.
A level that skips them rests on that sub-floor q1 and on parity.  If the
center's q1 sign turns non-zero on such a level, the d1 ends run as a
second batch before the cut, and d1 enclosure is checked whenever they run.

The search stops as soon as any evaluated trajectory survives to the
requested time (the certificate), and reports failure honestly: exits
through a non-expanding component mean the trap does not funnel at this
amplitude ("degenerate-exit"), equal exit signs at both ends mean lost
enclosure, and either bracket shrunk to floating point granularity means
the window is numerically out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid
from .hermite import decompose, inner_rho
from .model import ModelParams, ansatz_fields, perturbation_N, profile_f
# run_trajectory and check_membership stay names of this module for
# perfbench/tracing.py, which wraps them here
from .solver import SolverConfig, TrajectoryRecord, run_trajectories, run_trajectory
from .trapset import TrapParams, check_membership

__all__ = [
    "InitialDataParams",
    "ModeMap",
    "ShootResult",
    "initial_q",
    "initial_mode_map",
    "predict_critical",
    "initial_rectangle",
    "shoot",
    "certificate_dict",
]


@dataclass(frozen=True)
class InitialDataParams:
    """Shooting parameters (d0, d1) and the starting rescaled time s0."""

    d0: float
    d1: float
    s0: float

    def __post_init__(self) -> None:
        if not (np.e <= self.s0 < np.inf):
            raise ValueError(
                f"starting time must be >= e and finite (s0 >= e), got s0={self.s0!r}"
            )
        if not (-np.inf < self.d0 < np.inf and -np.inf < self.d1 < np.inf):
            raise ValueError(f"d0 and d1 must be finite, got {self.d0!r}, {self.d1!r}")


def initial_q(params: ModelParams, grid: Grid, init: InitialDataParams) -> Field:
    """Prepared deviation at s0 for one parameter pair."""
    z = grid.y / np.sqrt(init.s0)
    fp = profile_f(params, z) ** params.p
    values = (init.d0 + init.d1 * z) * fp - params.kappa / (2.0 * params.p * init.s0)
    return Field(grid=grid, values=values, s=init.s0)


@dataclass(frozen=True)
class ModeMap:
    """Affine map (d0, d1) -> (q0, q1) at the initial time s0.

    (q0, q1) = M @ (d0, d1) + b, with M the 2x2 matrix and b the offset
    that the log-correction of the ansatz deposits on the even mode.
    """

    M: np.ndarray
    b: np.ndarray
    s0: float

    def preimage(self, q0: float, q1: float) -> np.ndarray:
        """(d0, d1) with M @ (d0, d1) + b = (q0, q1), by Gaussian
        elimination with partial pivoting in Python floats, which spares a
        process the resident memory of a first LAPACK call.  It is
        np.linalg.solve bit for bit on targets of the mode box; a d1 of
        roundoff size can differ by an ulp where LAPACK fuses a
        multiply-add."""
        (a00, a01), (a10, a11) = self.M.tolist()
        r0, r1 = q0 - float(self.b[0]), q1 - float(self.b[1])
        if abs(a10) > abs(a00):
            a00, a01, r0, a10, a11, r1 = a10, a11, r1, a00, a01, r0
        m = a10 / a00
        x1 = (r1 - m * r0) / (a11 - m * a01)
        return np.array([(r0 - a01 * x1) / a00, x1])


def initial_mode_map(
    params: ModelParams, grid: Grid, s0: float, K0: float
) -> ModeMap:
    """Measure the affine mode map by decomposing three prepared fields,
    of (d0, d1) = (0, 0), (1, 0) and (0, 1), as one stack."""
    points = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    rows = [initial_q(params, grid, InitialDataParams(d0, d1, s0)).values for d0, d1 in points]
    d = decompose(Field(grid, np.array(rows), s0), K0)
    b, e0, e1 = np.column_stack((d.q0, d.q1))
    M = np.column_stack([e0 - b, e1 - b])
    if abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) < 1e-12:
        raise RuntimeError("mode map is numerically singular on this grid")
    return ModeMap(M=M, b=b, s0=s0)


# the 8-node Gauss-Laguerre rule for the weight e^(-x) on [0, inf), written
# out: numpy's laggauss takes them from a LAPACK eigen-solver, whose first
# call raised a shoot's peak RSS by about 0.7 MiB.  6 nodes move the
# predicted d0 by 3e-14, far below the law's own 1e-3 relative gap
_LAGUERRE_X = np.array([
    0.17027963230510093, 0.90370177679938, 2.251086629866131, 4.266700170287659,
    7.0459054023934655, 10.758516010180996, 15.740678641278004, 22.863131736889265,
])
_LAGUERRE_W = np.array([
    0.36918858934163495, 0.4187867808143447, 0.17579498663717255, 0.033343492261215794,
    0.0027945362352256834, 9.076508773358139e-05, 8.48574671627257e-07, 1.0480011748715153e-09,
])


def predict_critical(params: ModelParams, grid: Grid, s0: float, K0: float) -> np.ndarray:
    """The (d0, d1) whose prepared q0 is that of a trapped trajectory.

    While trapped, q0' = q0 + F0(s) with F0 the h0 projection of the
    sources, and its one bounded solution has q0(s0) = -int e^(-x) F0(s0 + x)
    dx over x >= 0.  To leading order F0 projects R, plus N on phi in a
    perturbed lane, uncut, so the grid need not hold the cutoff's support at
    s0 + x; the mode map takes (q0, 0) back to (d0, d1).
    """

    def F0(s: float) -> float:
        # one node at a time: the eight at once raised a shoot's peak RSS
        # by 0.9 MiB
        phi_val, phi_y, *_, F = ansatz_fields(params, grid.y, s)
        if params.perturbed:
            F += perturbation_N(params, phi_y, phi_val, s)
        return inner_rho(grid, F, 1.0)

    q0 = -float(_LAGUERRE_W @ [F0(s0 + x) for x in _LAGUERRE_X])
    return initial_mode_map(params, grid, s0, K0).preimage(q0, 0.0)


def initial_rectangle(
    mode_map: ModeMap, trap: TrapParams, shrink: float = 1e-9
) -> np.ndarray:
    """Parameter rectangle mapping onto the mode box [-A/s0^2, A/s0^2]^2.

    Returned as [[d0_lo, d0_hi], [d1_lo, d1_hi]].  The map is affine and, by
    parity of the family, numerically diagonal, so the preimage of the box
    is itself an axis-aligned rectangle; corners are computed from the four
    box corners and the envelope is taken for robustness against the tiny
    off-diagonal entries.  The box is pulled in by the relative amount
    `shrink` so that roundoff cannot park a corner a few ulp outside the
    trap it is meant to saturate.
    """
    eps0 = (1.0 - shrink) * trap.A / mode_map.s0**2
    corners = [
        mode_map.preimage(sx * eps0, sy * eps0)
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    ]
    corners = np.array(corners)
    return np.array(
        [
            [corners[:, 0].min(), corners[:, 0].max()],
            [corners[:, 1].min(), corners[:, 1].max()],
        ]
    )


_MODE_COMPONENTS = ("q0", "q1")


@dataclass
class _PointOutcome:
    d0: float
    d1: float
    survived: bool
    s_star: float
    component: str | None
    # exit sign of q_m, 0 below the noise floor, for m = 0, 1
    sign: tuple[float, float]
    # back-projected exit amplitude q_m(s*) e^(-(1 - m/2)(s* - s0)), m = 0, 1
    amplitude: tuple[float, float]
    record: TrajectoryRecord


@dataclass
class ShootResult:
    """Outcome of the shooting search."""

    # survived, degenerate-exit, enclosure-lost, granularity (of either
    # bracket) or max-levels
    status: str
    d0: float
    d1: float
    s0: float
    s_end: float
    levels: int
    n_evals: int
    rect0: np.ndarray
    # `predict_critical`'s point, where each axis made its first cut if
    # the bracket held it
    d0_predicted: float
    d1_predicted: float
    rect: np.ndarray
    # the trajectory of the point (d0, d1) the search ended on
    record: TrajectoryRecord
    note: str
    # one row per refinement level: level, min and max exit s* over the
    # points evaluated at that level, and per axis m the bracket [lo, hi] the
    # level started from (dm_bracket), the exit signs of q_m at its two ends
    # (dm_end_signs, None on a level that did not run them) and the step
    # taken (dm_step): "predict" for the predicted point, "interp" for the
    # secant root, "bisect" for the midpoint where that guess was undefined
    # or outside the open bracket, "shrink" for a center below the noise
    # floor
    level_stats: list


def _sign_with_floor(x: float, floor: float) -> float:
    if abs(x) <= floor:
        return 0.0
    return 1.0 if x > 0 else -1.0


def _secant_root(amplitudes: dict[float, float]) -> float | None:
    """Root of the line through the two points of smallest |amplitude|."""
    if len(amplitudes) < 2:
        return None
    (x1, a1), (x2, a2) = sorted(amplitudes.items(), key=lambda xa: abs(xa[1]))[:2]
    if a1 == a2:
        return None
    return x1 - a1 * (x1 - x2) / (a1 - a2)


def shoot(
    params: ModelParams,
    grid: Grid,
    trap: TrapParams,
    cfg: SolverConfig,
    s0: float,
    s_end: float,
    rect0: np.ndarray | None = None,
) -> ShootResult:
    """Enclose the critical (d0, d1) by bracketed secant steps until survival.

    Level 0 is centred on `predict_critical`'s point, axis by axis where
    the bracket holds it strictly inside, and on the midpoint otherwise.
    Returns with status "survived" and the surviving trajectory record as
    soon as any evaluated point stays in the trap up to s_end.  Every other
    status ends on an evaluated point too (the exit that was not through a
    mode, the center of a lost enclosure, or the cut evaluated last) and
    carries that point's record.  A zero exit sign at the center (the
    classified mode is below the noise floor) triggers a half-width shrink
    around the center, clipped to the bracket, instead of a cut, which
    preserves containment unconditionally.

    The two d1 ends run only at level 0 and after a center whose q1 sign
    was non-zero; a level that skips them rests on its center's sub-floor
    q1 and on the parity of the equation, which puts d1* at 0.  A center
    whose q1 sign turns non-zero on such a level has its d1 ends run as a
    second batch before the cut.  When the MAX_LEVELS levels run out, the
    point evaluated last is the cut the next level would take, and the
    search ends "max-levels" unless that point survives.
    """
    if rect0 is None:
        mode_map = initial_mode_map(params, grid, s0, trap.K0)
        rect0 = initial_rectangle(mode_map, trap)
    predicted = predict_critical(params, grid, s0, trap.K0)
    rect = np.array(rect0, dtype=float).copy()
    cache: dict[tuple[float, float], _PointOutcome] = {}
    n_evals = 0
    level_stats: list[dict] = []
    # per axis m: coordinate d_m -> back-projected amplitude a_m of every
    # point evaluated on that axis's arm of the plus-pattern
    amplitudes: tuple[dict[float, float], dict[float, float]] = ({}, {})

    def evaluate(*points: tuple[float, float]) -> list[_PointOutcome]:
        """Outcomes of the (d0, d1) points; the uncached ones run together."""
        nonlocal n_evals
        new = [key for key in dict.fromkeys(points) if key not in cache]
        if new:
            inits = [
                initial_q(params, grid, InitialDataParams(d0=d0, d1=d1, s0=s0))
                for d0, d1 in new
            ]
            records = run_trajectories(inits, params, trap, cfg, s_end)
            n_evals += len(new)
            for (d0, d1), rec in zip(new, records):
                floor = 1e-9 * trap.A / rec.final_s**2
                q_exit = (float(rec.q0[-1]), float(rec.q1[-1]))
                sign = tuple(_sign_with_floor(q, floor) for q in q_exit)
                cache[(d0, d1)] = _PointOutcome(
                    d0=d0,
                    d1=d1,
                    survived=rec.survived(s_end),
                    s_star=rec.final_s,
                    component=None if rec.exit is None else rec.exit.component,
                    sign=sign,
                    # below the noise floor the point counts as a root
                    amplitude=tuple(
                        sign[m] and q * np.exp(-(1.0 - 0.5 * m) * (rec.final_s - s0))
                        for m, q in enumerate(q_exit)
                    ),
                    record=rec,
                )
        return [cache[key] for key in points]

    def finish(status: str, point: _PointOutcome, level: int, note: str = "") -> ShootResult:
        return ShootResult(
            status=status,
            d0=point.d0,
            d1=point.d1,
            s0=s0,
            s_end=s_end,
            levels=level,
            n_evals=n_evals,
            rect0=np.array(rect0, dtype=float),
            d0_predicted=float(predicted[0]),
            d1_predicted=float(predicted[1]),
            rect=rect.copy(),
            record=point.record,
            note=note,
            level_stats=list(level_stats),
        )

    def finish_on(point: tuple[float, float], level: int, status: str, note: str) -> ShootResult:
        """Evaluate one more point and finish on it: "survived" if it does."""
        (last,) = evaluate(point)
        if last.survived:
            return finish("survived", last, level)
        return finish(status, last, level, note)

    def cut(m: int) -> tuple[float, str]:
        """Axis m's cut of the current bracket and how it was placed."""
        lo, hi = rect[m]
        guess, step = _secant_root(amplitudes[m]), "interp"
        if guess is None and not amplitudes[m]:
            guess, step = predicted[m], "predict"
        if guess is not None and lo < guess < hi:
            return guess, step
        return 0.5 * (lo + hi), "bisect"

    # level 0 and a level after a center with a non-zero q1 sign re-run the
    # d1 ends; otherwise they wait for this level's center to need them
    d1_ends_due = True
    for level in range(MAX_LEVELS):
        width = rect[:, 1] - rect[:, 0]
        cuts, steps = zip(cut(0), cut(1))
        c0, c1 = cuts
        granular = width < 4.0 * np.spacing(np.abs(cuts) + 1e-30)
        if granular.any():
            # at floating point resolution the sign test of that bracket
            # would compare a point against itself
            axes = " and ".join(f"d{m}" for m in np.flatnonzero(granular))
            return finish_on(
                cuts, level, "granularity", f"the {axes} bracket reached floating point granularity"
            )
        d0_ends = ((rect[0, 0], c1), (rect[0, 1], c1))
        d1_ends = ((c0, rect[1, 0]), (c0, rect[1, 1]))
        if d1_ends_due:
            left, right, center, down, up = evaluate(*d0_ends, (c0, c1), *d1_ends)
        else:
            left, right, center = evaluate(*d0_ends, (c0, c1))
            down = up = None
            if center.sign[1] != 0 and not any(pt.survived for pt in (left, right, center)):
                down, up = evaluate(*d1_ends)
        plus = [pt for pt in (left, right, center, down, up) if pt is not None]
        arms = ((left, right), (down, up))
        exits = [pt.s_star for pt in plus if not pt.survived]
        row = {
            "level": level,
            "min_exit_s": float(min(exits)) if exits else None,
            "max_exit_s": float(max(exits)) if exits else None,
        }
        for m, (low, high) in enumerate(arms):
            row[f"d{m}_bracket"] = rect[m].tolist()
            row[f"d{m}_end_signs"] = None if low is None else [low.sign[m], high.sign[m]]
            row[f"d{m}_step"] = steps[m]
        level_stats.append(row)
        for pt in plus:
            if pt.survived:
                return finish("survived", pt, level)
        for pt in plus:
            if pt.component is not None and pt.component not in _MODE_COMPONENTS:
                return finish(
                    "degenerate-exit",
                    pt,
                    level,
                    note=f"exit through {pt.component} at (d0={pt.d0:.6g}, d1={pt.d1:.6g})",
                )
        for m, (low, high) in enumerate(arms):
            arm = (center,) if low is None else (low, high, center)
            amplitudes[m].update({(pt.d0, pt.d1)[m]: pt.amplitude[m] for pt in arm})
            if low is not None:
                s_low, s_high = low.sign[m], high.sign[m]
                if s_low * s_high >= 0 and not (s_low == 0 or s_high == 0):
                    return finish(
                        "enclosure-lost",
                        center,
                        level,
                        note=f"q{m} exit sign {s_low:+.0f} at both d{m} ends",
                    )
            # a skipped arm has a center below the noise floor, so it shrinks
            lo, hi = rect[m]
            if center.sign[m] == 0:
                w = 0.25 * (hi - lo)
                rect[m] = [max(lo, cuts[m] - w), min(hi, cuts[m] + w)]
                row[f"d{m}_step"] = "shrink"
            elif low.sign[m] * center.sign[m] < 0:
                rect[m] = [lo, cuts[m]]
            elif high.sign[m] * center.sign[m] < 0:
                rect[m] = [cuts[m], hi]
            # neither end has the opposite sign, so one lies below the
            # noise floor: keep the side that ends at it
            elif low.sign[m] == 0:
                rect[m] = [lo, cuts[m]]
            else:
                rect[m] = [cuts[m], hi]
        d1_ends_due = center.sign[1] != 0

    # the budget is spent: evaluate the cut the next level would take
    return finish_on(
        (cut(0)[0], cut(1)[0]), MAX_LEVELS, "max-levels", "refinement budget exhausted"
    )


def certificate_dict(result: ShootResult) -> dict:
    """JSON-friendly summary of a shooting run."""
    rec = result.record
    out = {
        "status": result.status,
        "d0": result.d0,
        "d1": result.d1,
        "s0": result.s0,
        "s_end": result.s_end,
        "levels": result.levels,
        "n_evals": result.n_evals,
        "rect0": result.rect0.tolist(),
        "d0_predicted": result.d0_predicted,
        "d1_predicted": result.d1_predicted,
        "rect": result.rect.tolist(),
        "note": result.note,
    }
    if result.level_stats:
        out["level_stats"] = result.level_stats
        mins = [row["min_exit_s"] for row in result.level_stats if row["min_exit_s"] is not None]
        # refinement should never push the earliest exit backwards; monitored
        # as data, asserted only as a soft regression elsewhere
        out["min_exit_s_series"] = mins
        out["min_exit_monotone"] = bool(
            all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))
        )
    out["final_s"] = rec.final_s
    out["min_margin"] = float(np.min(rec.margins))
    if rec.exit is not None:
        out["exit_component"] = rec.exit.component
        out["exit_s"] = rec.exit.s_star
        out["exit_reason"] = rec.exit.reason
    return out


# the refinement levels a shoot may take before it ends "max-levels"
MAX_LEVELS = 64
