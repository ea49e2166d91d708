"""Time integration in similarity variables.

Two equivalent forms are advanced on a fixed grid in y:

* the rescaled solution w, obeying
      w_s = w_yy - (y/2) w_y - w/(p-1) + |w|^{p-1} w + (perturbations),
* the deviation q = w - phi, obeying
      q_s = (L + V) q + B(q) + R + N,
  with L = d^2/dy^2 - (y/2) d/dy + 1.

Both use Strang splitting: an explicit half step of the local-in-y terms,
an exact application of the linear semigroup via the Gaussian kernel, and
a second explicit half step.  The local sources Vq, B, R and N of the q
form come from one `SourceTerms` object, whose coefficient fields (profile,
potential, residual, profile gradient) are frozen at one time: the step
midpoint s + ds/2 for both halves, which keeps the composition
time-symmetric and the scheme second order.  The per-step source sups of a
trajectory record and the integral-form check read the same object.  The
w form adds the same perturbation N (`model.perturbation_N`) and integrates
the power nonlinearity w' = |w|^{p-1} w in closed form, so the constant
steady state kappa is preserved to O(ds^3) per step.

A trajectory run records the spectral decomposition of the deviation at
every step, checks trap membership, and stops at the first exit or at any
divergence of the field.  The q form advances K trajectories of one grid
and one starting time together, as the rows of a C-contiguous (K, n)
array: each step evaluates one `SourceTerms` for every row and applies
the cached kernel to every row in one call, and each observation takes
one cutoff for every row, while the boundary condition, the overflow guard, trap membership,
the source sups and the exit classification stay per row.  A row that
exits or diverges leaves the ensemble and the others go on.  Every
reduction runs along a row in the order of a lone field, so each row is
bitwise the trajectory run alone; a single trajectory is the case K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Field, Grid, gradient
from .hermite import decompose, seminorm_minus
from .model import (
    ModelParams,
    nonlinear_B,
    perturbation_N,
    phi,
    phi_dy,
    phi_powers,
    potential_V,
    profile_f,
    remainder_R,
)
# kernel_matrix stays a name of this module for perfbench/tracing.py,
# which wraps it here
from .semigroup import apply_semigroup_values, banded_kernel, kernel_matrix
from .trapset import COMPONENTS, ExitInfo, TrapParams, check_membership, exit_classify

__all__ = [
    "SolverConfig",
    "SourceTerms",
    "DivergenceError",
    "TrajectoryRecord",
    "step_q",
    "step_w",
    "window_steps",
    "run_trajectories",
    "run_trajectory",
    "mode_ode_check",
    "duhamel_split_check",
    "forms_consistency_check",
]

_BC_CHOICES = ("dirichlet-profile", "extrapolation")
_SCHEME_CHOICES = ("semigroup-split", "imex-cn")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, scheme, boundary handling and overflow cap.

    Every term of the equation is always on: the q form adds Vq, B and R,
    plus N in a perturbed model.

    scheme:
        "semigroup-split" applies the linear part through the exact
        Gaussian kernel (default); "imex-cn" replaces the kernel with a
        Crank-Nicolson solve of the finite-difference linear operator,
        keeping the rest of the splitting identical.  The two paths agree
        to O(ds^2 + dy^2) and serve as mutual cross-checks.
    bc:
        "dirichlet-profile" pins the ends onto the profile ansatz (the
        deviation is pinned to its ansatz value -kappa/(2ps)) and
        "extrapolation" continues the field linearly.
    overflow:
        a field that exceeds it in sup norm, or stops being finite, has
        diverged.
    """

    ds: float = 0.01
    scheme: str = "semigroup-split"
    bc: str = "dirichlet-profile"
    overflow: float = 1e8

    def __post_init__(self) -> None:
        if not (0.0 < self.ds <= 0.5):
            raise ValueError(f"step size must be in (0, 0.5], got ds={self.ds!r}")
        if not (0.0 < self.overflow):
            raise ValueError(f"overflow cap must be > 0, got overflow={self.overflow!r}")
        if self.scheme not in _SCHEME_CHOICES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; must be one of {_SCHEME_CHOICES}"
            )
        if self.bc not in _BC_CHOICES:
            raise ValueError(
                f"unknown boundary condition {self.bc!r}; must be one of {_BC_CHOICES}"
            )


class DivergenceError(RuntimeError):
    """Raised when a field stops being finite or exceeds the overflow cap.

    `rows` holds the indices of the rows of a stack that did so (None for
    a single field).
    """

    def __init__(self, s: float, message: str, rows: np.ndarray | None = None):
        super().__init__(f"s={s:.6f}: {message}")
        self.s = s
        self.rows = rows


class SourceTerms:
    """Local sources Vq, B(q), R and N of the deviation equation at time s.

    The coefficient fields are evaluated on first use and then kept, so a
    caller pays only for the fields it reads: phi and phi_y are evaluated
    once for V, R, B and N, and the powers of phi once for V and B.  qv may
    be one field or a stack of rows; the coefficient fields are shared by
    every row.
    """

    def __init__(self, params: ModelParams, grid: Grid, s: float):
        self.params = params
        self.grid = grid
        self.s = s

    @cached_property
    def phi_val(self) -> np.ndarray:
        return phi(self.params, self.grid.y, self.s)

    @cached_property
    def phi_y(self) -> np.ndarray:
        return phi_dy(self.params, self.grid.y, self.s)

    @cached_property
    def powers(self) -> tuple[np.ndarray, np.ndarray]:
        """phi^p and p phi^(p-1), shared by B and V."""
        return phi_powers(self.params, self.phi_val)

    @cached_property
    def V(self) -> np.ndarray:
        return potential_V(self.params, self.grid.y, self.s, dphi_p=self.powers[1])

    @cached_property
    def R(self) -> np.ndarray:
        return remainder_R(self.params, self.grid.y, self.s, self.phi_val, self.phi_y)

    def B(self, qv: np.ndarray) -> np.ndarray:
        return nonlinear_B(self.params, self.phi_val, qv, self.powers)

    def N(self, qv: np.ndarray, qy: np.ndarray | None = None) -> np.ndarray:
        """Perturbation source; qy is the gradient of qv when already known."""
        w_grad = 0.0  # read by the gradient term only, which needs mu != 0
        if self.params.mu != 0.0:
            w_grad = self.phi_y + (gradient(self.grid, qv) if qy is None else qy)
        return perturbation_N(self.params, w_grad, self.phi_val + qv, self.s)

    def rhs(self, qv: np.ndarray) -> np.ndarray:
        """Vq + B(q) + R, plus N in a perturbed model."""
        out = self.V * qv
        out += self.B(qv)
        out += self.R
        if self.params.perturbed:
            out += self.N(qv)
        return out


def _midpoint_half(rhs, v: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(v)
    k2 = rhs(v + 0.5 * h * k1)
    return v + h * k2


def _apply_bc_q(values: np.ndarray, params: ModelParams, grid: Grid, s: float, bc: str) -> None:
    if bc == "dirichlet-profile":
        pin = -params.kappa / (2.0 * params.p * s)
        values[..., 0] = pin
        values[..., -1] = pin
    else:  # extrapolation
        values[..., 0] = 2.0 * values[..., 1] - values[..., 2]
        values[..., -1] = 2.0 * values[..., -2] - values[..., -3]


def _apply_bc_w(values: np.ndarray, params: ModelParams, grid: Grid, s: float, bc: str) -> None:
    if bc == "dirichlet-profile":
        values[0] = profile_f(params, grid.y[0] / np.sqrt(s)) + params.kappa / (
            2.0 * params.p * s
        )
        values[-1] = profile_f(params, grid.y[-1] / np.sqrt(s)) + params.kappa / (
            2.0 * params.p * s
        )
    else:  # extrapolation
        values[0] = 2.0 * values[1] - values[2]
        values[-1] = 2.0 * values[-2] - values[-3]


def _guard(values: np.ndarray, s: float, overflow: float) -> None:
    amax = np.max(np.abs(values), axis=-1)
    bad = ~(amax <= overflow)  # NaN and inf fail the comparison too
    if not np.any(bad):
        return
    worst = float(np.max(amax))
    message = (
        f"field magnitude {worst:.3e} exceeds overflow cap"
        if np.isfinite(worst)
        else "field is no longer finite"
    )
    rows = np.flatnonzero(bad) if values.ndim == 2 else None
    raise DivergenceError(s, message, rows)


def _cn_apply(grid: Grid, values: np.ndarray, ds: float, shift: float = 0.0) -> np.ndarray:
    """One Crank-Nicolson step of v' = (L - shift) v on the grid, per row.

    L = d^2/dy^2 - (y/2) d/dy + 1 discretized with centered differences.
    The boundary rows use a linearly extrapolated ghost node, which zeroes
    the second derivative there and keeps the system tridiagonal; constants
    then decay at the exact rate at every node (the caller re-imposes its
    own boundary condition right after anyway).  The rows of a stack are
    the right-hand sides of one banded solve.
    """
    from scipy.linalg import solve_banded

    y, dy, n = grid.y, grid.dy, grid.n
    inv2 = 1.0 / dy**2
    diag = np.full(n, -2.0 * inv2 + 1.0 - shift)
    upper = np.full(n - 1, inv2) - y[:-1] / (4.0 * dy)
    lower = np.full(n - 1, inv2) + y[1:] / (4.0 * dy)
    c0 = y[0] / (2.0 * dy)
    cn = y[-1] / (2.0 * dy)
    diag[0] = c0 + 1.0 - shift
    upper[0] = -c0
    diag[-1] = -cn + 1.0 - shift
    lower[-1] = cn

    h = 0.5 * ds
    rhs = np.empty_like(values)
    rhs[..., 1:-1] = (
        values[..., 1:-1] * (1.0 + h * diag[1:-1])
        + h * upper[1:] * values[..., 2:]
        + h * lower[:-1] * values[..., :-2]
    )
    rhs[..., 0] = values[..., 0] * (1.0 + h * diag[0]) + h * upper[0] * values[..., 1]
    rhs[..., -1] = values[..., -1] * (1.0 + h * diag[-1]) + h * lower[-1] * values[..., -2]
    ab = np.zeros((3, n))
    ab[0, 1:] = -h * upper
    ab[1, :] = 1.0 - h * diag
    ab[2, :-1] = -h * lower
    return np.ascontiguousarray(solve_banded((1, 1), ab, rhs.T).T)


def _linear_substep(grid: Grid, values: np.ndarray, ds: float, cfg: SolverConfig,
                    shift: float = 0.0) -> np.ndarray:
    if cfg.scheme == "imex-cn":
        return _cn_apply(grid, values, ds, shift)
    out = apply_semigroup_values(ds, grid, values)
    if shift != 0.0:
        out = np.exp(-ds * shift) * out
    return out


def step_q(q: Field, params: ModelParams, cfg: SolverConfig) -> Field:
    """Advance the deviation (one field or a stack of rows) by one step of
    size cfg.ds.

    Raises DivergenceError, naming the offending rows of a stack, when a
    row stops being finite or exceeds cfg.overflow.
    """
    ds = cfg.ds
    s_new = q.s + ds
    rhs = SourceTerms(params, q.grid, q.s + 0.5 * ds).rhs
    v = _midpoint_half(rhs, q.values, 0.5 * ds)
    v = _linear_substep(q.grid, v, ds, cfg)
    v = _midpoint_half(rhs, v, 0.5 * ds)
    _apply_bc_q(v, params, q.grid, s_new, cfg.bc)
    _guard(v, s_new, cfg.overflow)
    return Field(grid=q.grid, values=v, s=s_new)


def _power_flow(params: ModelParams, wv: np.ndarray, t: float, s: float) -> np.ndarray:
    """Exact flow of w' = |w|^{p-1} w over time t (elementwise)."""
    pm1 = params.p - 1.0
    base = 1.0 - pm1 * t * np.abs(wv) ** pm1
    if np.any(base <= 0.0):
        raise DivergenceError(s, "power sub-flow reached its blow-up time inside a step")
    return wv * base ** (-1.0 / pm1)


def step_w(w: Field, params: ModelParams, cfg: SolverConfig) -> Field:
    """Advance the rescaled solution by one step of size cfg.ds.

    The power nonlinearity is integrated exactly; lower-order perturbations
    (when present) are sandwiched symmetrically between two quarter-step
    power flows inside each half step.
    """
    ds = cfg.ds
    s_new = w.s + ds
    sm = w.s + 0.5 * ds
    grid = w.grid
    p = params

    def pert(wv: np.ndarray) -> np.ndarray:
        w_grad = gradient(grid, wv) if params.mu != 0.0 else 0.0
        return perturbation_N(params, w_grad, wv, sm)

    def half(wv: np.ndarray, h: float) -> np.ndarray:
        if not params.perturbed:
            return _power_flow(params, wv, h, sm)
        v = _power_flow(params, wv, 0.5 * h, sm)
        v = _midpoint_half(pert, v, h)
        return _power_flow(params, v, 0.5 * h, sm)

    v = half(w.values, 0.5 * ds)
    v = _linear_substep(grid, v, ds, cfg, shift=p.p / (p.p - 1.0))
    v = half(v, 0.5 * ds)
    _apply_bc_w(v, params, grid, s_new, cfg.bc)
    _guard(v, s_new, cfg.overflow)
    return Field(grid=grid, values=v, s=s_new)


@dataclass
class TrajectoryRecord:
    """Per-step scalar diagnostics of one deviation trajectory."""

    s: np.ndarray = field(default_factory=lambda: np.empty(0))
    q0: np.ndarray = field(default_factory=lambda: np.empty(0))
    q1: np.ndarray = field(default_factory=lambda: np.empty(0))
    q2: np.ndarray = field(default_factory=lambda: np.empty(0))
    sem_minus: np.ndarray = field(default_factory=lambda: np.empty(0))
    qe_sup: np.ndarray = field(default_factory=lambda: np.empty(0))
    q_sup: np.ndarray = field(default_factory=lambda: np.empty(0))
    gradq_sup: np.ndarray = field(default_factory=lambda: np.empty(0))
    R_sup: np.ndarray = field(default_factory=lambda: np.empty(0))
    N_sup: np.ndarray = field(default_factory=lambda: np.empty(0))
    margins: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))
    inside: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    exit: ExitInfo | None = None

    @property
    def final_s(self) -> float:
        return float(self.s[-1]) if self.s.size else float("nan")

    def survived(self, s_end: float, tol: float = 1e-9) -> bool:
        return self.exit is None and self.final_s >= s_end - tol


# per-step series of a TrajectoryRecord, in the column order of an
# observation row; the five trap margins follow them
_SERIES = (
    "s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup", "gradq_sup", "R_sup", "N_sup",
)


# (params, grid key, s) -> max|R|, which depends on nothing else; a run's
# observations fall on the lattice s0 + k ds, so the levels of a shoot
# share their entries.  Cleared when full, like the kernel cache.
_R_SUP_TABLE: dict[tuple, float] = {}
_R_SUP_TABLE_LIMIT = 10_000


def _R_sup(src: SourceTerms) -> float:
    key = (src.params, src.grid.key(), src.s)
    r_sup = _R_SUP_TABLE.get(key)
    if r_sup is None:
        if len(_R_SUP_TABLE) >= _R_SUP_TABLE_LIMIT:
            _R_SUP_TABLE.clear()
        r_sup = _R_SUP_TABLE[key] = float(np.max(np.abs(src.R)))
    return r_sup


def _observe(q: Field, params: ModelParams, trap: TrapParams) -> tuple[np.ndarray, np.ndarray]:
    """One observation row per row of the stack q, and which rows are inside."""
    grid, s = q.grid, q.s
    d = decompose(q, trap.K0)
    status = check_membership(d, trap)
    src = SourceTerms(params, grid, s)
    qy = gradient(grid, q.values)
    n_sup = np.max(np.abs(src.N(q.values, qy)), axis=-1) if params.perturbed else 0.0
    # The gradient sup is a decay diagnostic, so it is restricted to the
    # cutoff support |y| <= 2 K0 sqrt(s) (same region as the seminorm):
    # outside it the deviation is pinned by the boundary condition and the
    # collar gradient reflects domain truncation, not the solution.
    core = np.abs(grid.y) <= 2.0 * trap.K0 * np.sqrt(s)
    columns = (
        s,
        d.q0,
        d.q1,
        d.q2,
        status.measured[:, 3],  # seminorm of q_minus
        status.measured[:, 4],  # sup of q_e
        q.sup(),
        np.max(np.abs(qy[:, core]), axis=-1),
        _R_sup(src),
        n_sup,
    )
    table = np.empty((q.values.shape[0], len(_SERIES) + len(COMPONENTS)))
    for j, col in enumerate(columns):
        table[:, j] = col
    table[:, len(_SERIES):] = status.margins
    return table, status.inside


def window_steps(s0: float, s_end: float, ds: float) -> int:
    """Number of steps of size ds from s0 to s_end.

    Raises ValueError unless the window holds a whole number of steps (to
    within 1e-9 of a step) and at least one.
    """
    n = (s_end - s0) / ds
    if not (np.isfinite(n) and abs(n - np.rint(n)) <= 1e-9):
        raise ValueError(
            f"window [{s0}, {s_end}] is not a whole number of steps of ds={ds}"
        )
    if n < 0.5:
        raise ValueError(f"empty integration window [{s0}, {s_end}] at ds={ds}")
    return int(np.rint(n))


def run_trajectories(
    q_inits: list[Field],
    params: ModelParams,
    trap: TrapParams,
    cfg: SolverConfig,
    s_end: float,
    record_stride: int = 1,
) -> list[TrajectoryRecord]:
    """Integrate K deviations of one grid and one initial time to s_end.

    The fields advance together as the rows of one (K, n) array, and the
    records equal those of K separate runs bit for bit.  s_end - s0 must be
    a whole number of steps of cfg.ds.  Diagnostics (mode amplitudes,
    seminorms, trap margins, source sups) are recorded every
    `record_stride` steps plus at the initial and final times.  A row stops
    at its first trap exit or divergence, and its record's `exit` carries
    the classification; `exit` is None only for a row that stayed inside
    up to s_end.
    """
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if not q_inits:
        raise ValueError("need at least one initial field")
    grid, s0 = q_inits[0].grid, q_inits[0].s
    if any(qi.grid != grid or qi.s != s0 for qi in q_inits):
        raise ValueError("initial fields must share one grid and one initial time")
    n_steps = window_steps(s0, s_end, cfg.ds)

    def observed(k: int) -> bool:
        return k % record_stride == 0 or k == n_steps

    n_rows = len(q_inits)
    n_obs = sum(1 for k in range(n_steps + 1) if observed(k))
    table = np.empty((n_obs, n_rows, len(_SERIES) + len(COMPONENTS)))
    inside_table = np.zeros((n_obs, n_rows), dtype=bool)
    n_rec = np.zeros(n_rows, dtype=int)
    diverged_at: dict[int, float] = {}

    rows = np.arange(n_rows)  # the original index of each active row
    q = Field(grid, np.array([qi.values for qi in q_inits]), s0)

    def keep_rows(keep: np.ndarray) -> None:
        nonlocal rows, q
        if not np.all(keep):
            rows, q = rows[keep], Field(grid, q.values[keep], q.s)

    def observe(k: int) -> None:
        j = n_rec[rows[0]]  # every active row has been observed equally often
        obs, inside = _observe(q, params, trap)
        table[j, rows] = obs
        inside_table[j, rows] = inside
        n_rec[rows] = j + 1
        keep_rows(inside)

    observe(0)
    for k in range(1, n_steps + 1):
        while rows.size:
            try:
                q = step_q(q, params, cfg)
                break
            except DivergenceError as err:
                # the other rows are stepped again, as they would be alone
                keep = np.ones(rows.size, dtype=bool)
                keep[err.rows] = False
                diverged_at.update((int(r), err.s) for r in rows[~keep])
                keep_rows(keep)
        if not rows.size:
            break
        q.s = s0 + k * cfg.ds  # avoid accumulated float drift
        if observed(k):
            observe(k)

    records = []
    for r in range(n_rows):
        obs = table[: n_rec[r], r]
        rec = TrajectoryRecord()
        for j, name in enumerate(_SERIES):
            setattr(rec, name, obs[:, j].copy())
        rec.margins = obs[:, len(_SERIES):].copy()
        rec.inside = inside_table[: n_rec[r], r].copy()
        if r in diverged_at:
            rec.exit = ExitInfo(
                s_star=diverged_at[r], reason="divergence", component=None, margins=None
            )
        else:
            rec.exit = exit_classify(rec)
        records.append(rec)
    return records


def run_trajectory(
    q_init: Field,
    params: ModelParams,
    trap: TrapParams,
    cfg: SolverConfig,
    s_end: float,
    record_stride: int = 1,
) -> TrajectoryRecord:
    """Integrate one deviation from its initial time to s_end: the case
    K = 1 of `run_trajectories`, with the same arguments and record."""
    return run_trajectories([q_init], params, trap, cfg, s_end, record_stride)[0]


def mode_ode_check(record: TrajectoryRecord, m: int) -> dict:
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


def duhamel_split_check(
    q_tau: Field,
    params: ModelParams,
    trap: TrapParams,
    cfg: SolverConfig,
    s_target: float,
    n_quad: int = 17,
) -> dict:
    """Reconstruct q(s) from its integral form and size up the source pieces.

    Starting from a snapshot q(tau), the trajectory is re-integrated to
    s_target (a whole number of steps of cfg.ds away) while the potential,
    nonlinear, residual and perturbation source fields are sampled at
    n_quad times.  The reconstruction

        q(s) ~= e^{(s-tau)L} q(tau)
                + int_tau^s e^{(s-sigma)L} [Vq + B + R + N](sigma) dsigma

    is assembled with trapezoid quadrature and compared against the
    directly advanced field.  The free propagator stands in for the full
    one, so the potential enters as a source (piece `v`); the four pieces
    of the source split are alpha (initial data), beta (B), gamma (R) and
    delta (N).  The perturbation contribution is also pushed through the
    spectral decomposition to expose the empirical constants of its
    components: each of |delta_2|, the cubic-weighted seminorm of
    delta_minus, and ||delta_e||_inf is reported as C = value * s^3/(s-tau).

    Each quadrature time's kernel is built once, outside the kernel cache,
    and applied to its four stacked sources in one product (the first
    time's kernel, of theta = s - tau, also carries q(tau)).
    """
    tau = q_tau.s
    if s_target <= tau + cfg.ds:
        raise ValueError("integration window too short for the split check")
    n_steps = window_steps(tau, s_target, cfg.ds)
    grid = q_tau.grid
    quad_marks = sorted({int(round(x)) for x in np.linspace(0.0, n_steps, n_quad)})

    def sources(q: Field) -> tuple[float, np.ndarray]:
        """q.s and the rows B, R, N, Vq at that time."""
        src = SourceTerms(params, grid, q.s)
        n = src.N(q.values) if params.perturbed else np.zeros_like(q.values)
        return q.s, np.stack([src.B(q.values), src.R, n, src.V * q.values])

    samples = []
    q = q_tau.copy()
    if 0 in quad_marks:
        samples.append(sources(q))
    for k in range(1, n_steps + 1):
        q = step_q(q, params, cfg)
        q.s = tau + k * cfg.ds
        if k in quad_marks:
            samples.append(sources(q))
    s_end = q.s

    sigma = np.array([s for s, _ in samples])
    weights = np.zeros_like(sigma)
    weights[:-1] += 0.5 * np.diff(sigma)
    weights[1:] += 0.5 * np.diff(sigma)

    def propagate(rows: np.ndarray, theta: float) -> np.ndarray:
        if theta <= 1e-12:
            return rows.copy()
        return (banded_kernel(theta, grid) @ rows.T).T

    # quad_marks starts at 0: the first sample is at tau, so its kernel, of
    # theta = s - tau, also propagates q(tau)
    s_first, rows_first = samples[0]
    samples[0] = (s_first, np.vstack([rows_first, q_tau.values]))
    outs = [propagate(rows, s_end - s_smp) for s_smp, rows in samples]
    alpha = outs[0][4]
    pieces = np.zeros((4, grid.n))  # beta, gamma, delta, vpart
    for wgt, out in zip(weights, outs):
        pieces += wgt * out[:4]
    beta, gamma, delta, vpart = pieces

    reconstruction = alpha + beta + gamma + delta + vpart
    resid = float(np.max(np.abs(reconstruction - q.values)))

    d = decompose(Field(grid=grid, values=delta, s=s_end), trap.K0)
    window = s_end - tau
    scale = s_end**3 / window
    out = {
        "tau": tau,
        "s": s_end,
        "n_quad": len(samples),
        "alpha_sup": float(np.max(np.abs(alpha))),
        "beta_sup": float(np.max(np.abs(beta))),
        "gamma_sup": float(np.max(np.abs(gamma))),
        "delta_sup": float(np.max(np.abs(delta))),
        "v_sup": float(np.max(np.abs(vpart))),
        "reconstruction_residual": resid,
        "q_sup": q.sup(),
        "delta2": abs(d.q2),
        "delta_minus": seminorm_minus(d),
        "delta_e": d.q_e.sup(),
        "C_delta2": abs(d.q2) * scale,
        "C_delta_minus": seminorm_minus(d) * scale,
        "C_delta_e": d.q_e.sup() * scale,
    }
    return out


def forms_consistency_check(
    params: ModelParams,
    grid: Grid,
    s0: float,
    q0_values: np.ndarray,
    n_steps: int,
    cfg: SolverConfig,
) -> dict:
    """Advance w and q = w - phi side by side and report their disagreement.

    Both forms discretize the same dynamics with the same splitting, so away
    from the boundary the difference w - (phi + q) after n_steps is pure
    discretization error.  Within 2 of the ends the two forms see
    different kernel-truncation and pinning errors (w is O(1) there, q is
    O(1/s)), so the interior sup is the meaningful figure; the global sup is
    reported alongside for scale.
    """
    q = Field(grid=grid, values=q0_values.copy(), s=s0)
    w = Field(grid=grid, values=phi(params, grid.y, s0) + q0_values, s=s0)
    inner = np.abs(grid.y) <= grid.y_max - 2.0
    sup_diff = 0.0
    sup_global = 0.0
    for k in range(1, n_steps + 1):
        q = step_q(q, params, cfg)
        w = step_w(w, params, cfg)
        q.s = w.s = s0 + k * cfg.ds
        diff = np.abs(w.values - (phi(params, grid.y, w.s) + q.values))
        sup_diff = max(sup_diff, float(np.max(diff[inner])))
        sup_global = max(sup_global, float(np.max(diff)))
    return {
        "n_steps": n_steps,
        "s_end": w.s,
        "sup_diff": sup_diff,
        "sup_diff_global": sup_global,
    }
