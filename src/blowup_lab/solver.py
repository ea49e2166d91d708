"""Time integration in similarity variables.

Two equivalent forms are advanced on a fixed grid in y:

* the rescaled solution w, obeying
      w_s = w_yy - (y/2) w_y - w/(p-1) + |w|^{p-1} w + (perturbations),
* the deviation q = w - phi, obeying
      q_s = (L + V) q + B(q) + R + N,
  with L = d^2/dy^2 - (y/2) d/dy + 1.

Both use one scheme, Strang splitting: an explicit half step of the
local-in-y terms, an exact application of the linear semigroup via the
Gaussian kernel, and a second explicit half step.  After each step the two
end nodes are pinned onto the profile ansatz: q to -kappa/(2ps) and w to
phi, so w - (phi + q) is kappa/(2ps) there.  The local sources Vq, B, R
and N of the q form come from one `SourceTerms` object, whose coefficient
fields (profile, potential, residual, profile gradient) are frozen at one
time: the step midpoint s + ds/2 for both halves, which keeps the
composition time-symmetric and the scheme second order.  The per-step
N sup of a trajectory record and the integral-form check read the same
object.  The w form adds the same perturbation N
(`model.perturbation_N`) and integrates the power nonlinearity
w' = |w|^{p-1} w in closed form, so the constant steady state kappa is
preserved to O(ds^3) per step.

A trajectory run records the spectral decomposition of the deviation at
every step, checks trap membership, and stops at the first exit or at any
divergence of the field.  The q form advances K trajectories of one grid
and one starting time together, as the rows of a C-contiguous (K, n)
array: each step evaluates one `SourceTerms` for every row and applies
the cached kernel to every row in one call, and each observation takes
one cutoff for every row, while the boundary condition, the overflow guard,
trap membership, the N sup and the exit classification stay per row.  A
row that exits or diverges leaves the ensemble and the others go on.
Every reduction runs along a row in the order of a lone field, so each row
is bitwise the trajectory run alone; a single trajectory is the case K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Field, Grid, gradient
from .hermite import cutoff_support, decompose, seminorm_minus
from .model import (
    ModelParams,
    nonlinear_B,
    perturbation_N,
    phi,
    phi_dy,
    phi_powers,
    potential_V,
    remainder_R,
)
# kernel_matrix stays a name of this module for perfbench/tracing.py,
# which wraps it here
from .semigroup import apply_semigroup_values, kernel_matrix
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

# a field that exceeds this in sup norm, or stops being finite, has diverged
OVERFLOW = 1e8


@dataclass(frozen=True)
class SolverConfig:
    """Step size of the one scheme: exact-kernel Strang splitting with the
    ends pinned to -kappa/(2ps) (q form) and phi (w form).

    Every term of the equation is always on: the q form adds Vq, B and R,
    plus N in a perturbed model.
    """

    ds: float

    def __post_init__(self) -> None:
        if not (0.0 < self.ds <= 0.5):
            raise ValueError(f"step size must be in (0, 0.5], got ds={self.ds!r}")


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


def _apply_bc_q(values: np.ndarray, params: ModelParams, s: float) -> None:
    values[..., [0, -1]] = -params.kappa / (2.0 * params.p * s)


def _apply_bc_w(values: np.ndarray, params: ModelParams, grid: Grid, s: float) -> None:
    values[[0, -1]] = phi(params, grid.y[[0, -1]], s)


def _guard(values: np.ndarray, s: float) -> None:
    amax = np.max(np.abs(values), axis=-1)
    bad = ~(amax <= OVERFLOW)  # NaN and inf fail the comparison too
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


def step_q(q: Field, params: ModelParams, cfg: SolverConfig) -> Field:
    """Advance the deviation (one field or a stack of rows) by one step of
    size cfg.ds.

    Raises DivergenceError, naming the offending rows of a stack, when a
    row stops being finite or exceeds OVERFLOW.
    """
    ds = cfg.ds
    s_new = q.s + ds
    rhs = SourceTerms(params, q.grid, q.s + 0.5 * ds).rhs
    v = _midpoint_half(rhs, q.values, 0.5 * ds)
    v = apply_semigroup_values(ds, q.grid, v)
    v = _midpoint_half(rhs, v, 0.5 * ds)
    _apply_bc_q(v, params, s_new)
    _guard(v, s_new)
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
    v = np.exp(-ds * (p.p / (p.p - 1.0))) * apply_semigroup_values(ds, grid, v)
    v = half(v, 0.5 * ds)
    _apply_bc_w(v, params, grid, s_new)
    _guard(v, s_new)
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
    "s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup", "gradq_sup", "N_sup",
)


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
    core = cutoff_support(grid, trap.K0, s)
    columns = (
        s,
        d.q0,
        d.q1,
        d.q2,
        status.measured[:, 3],  # seminorm of q_minus
        status.measured[:, 4],  # sup of q_e
        q.sup(),
        np.max(np.abs(qy[:, core]), axis=-1),
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
) -> list[TrajectoryRecord]:
    """Integrate K deviations of one grid and one initial time to s_end.

    The fields advance together as the rows of one (K, n) array, and the
    records equal those of K separate runs bit for bit.  s_end - s0 must be
    a whole number of steps of cfg.ds.  Diagnostics (mode amplitudes,
    seminorms, trap margins, N sup) are recorded at the initial time
    and after every step.  A row stops at its first trap exit or
    divergence, and its record's `exit` carries the classification; `exit`
    is None only for a row that stayed inside up to s_end.
    """
    if not q_inits:
        raise ValueError("need at least one initial field")
    grid, s0 = q_inits[0].grid, q_inits[0].s
    if any(qi.grid != grid or qi.s != s0 for qi in q_inits):
        raise ValueError("initial fields must share one grid and one initial time")
    n_steps = window_steps(s0, s_end, cfg.ds)
    n_rows = len(q_inits)
    table = np.empty((n_steps + 1, n_rows, len(_SERIES) + len(COMPONENTS)))
    inside_table = np.zeros((n_steps + 1, n_rows), dtype=bool)
    n_rec = np.zeros(n_rows, dtype=int)
    diverged_at: dict[int, float] = {}

    rows = np.arange(n_rows)  # the original index of each active row
    q = Field(grid, np.array([qi.values for qi in q_inits]), s0)

    def keep_rows(keep: np.ndarray) -> None:
        nonlocal rows, q
        if not np.all(keep):
            rows, q = rows[keep], Field(grid, q.values[keep], q.s)

    def observe() -> None:
        j = n_rec[rows[0]]  # every active row has been observed equally often
        obs, inside = _observe(q, params, trap)
        table[j, rows] = obs
        inside_table[j, rows] = inside
        n_rec[rows] = j + 1
        keep_rows(inside)

    observe()
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
        observe()

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
) -> TrajectoryRecord:
    """Integrate one deviation from its initial time to s_end: the case
    K = 1 of `run_trajectories`, with the same arguments and record."""
    return run_trajectories([q_init], params, trap, cfg, s_end)[0]


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


# trapezoid times of the integral-form check, spread evenly over its window
_N_QUAD = 17


def _duhamel_pieces(
    q_tau: Field,
    params: ModelParams,
    cfg: SolverConfig,
    s_target: float,
) -> tuple[Field, np.ndarray, int]:
    """q advanced from q_tau to s_target, the rows alpha, beta, gamma,
    delta, vpart of its integral form at s_target, and the number of
    quadrature times; see `duhamel_split_check`."""
    tau = q_tau.s
    if s_target <= tau + cfg.ds:
        raise ValueError("integration window too short for the split check")
    n_steps = window_steps(tau, s_target, cfg.ds)
    grid = q_tau.grid
    marks = sorted({int(round(x)) for x in np.linspace(0.0, n_steps, _N_QUAD)})
    sigma = np.array([tau + k * cfg.ds for k in marks])
    weights = np.zeros_like(sigma)
    weights[:-1] += 0.5 * np.diff(sigma)
    weights[1:] += 0.5 * np.diff(sigma)

    def sources(q: Field) -> np.ndarray:
        """The rows B, R, N, Vq at q.s."""
        src = SourceTerms(params, grid, q.s)
        n = src.N(q.values) if params.perturbed else np.zeros_like(q.values)
        return np.stack([src.B(q.values), src.R, n, src.V * q.values])

    # one row per piece: alpha, beta, gamma, delta, vpart
    acc = np.empty((5, grid.n))
    acc[0] = q_tau.values
    acc[1:] = weights[0] * sources(q_tau)
    q = q_tau.copy()
    j = 1  # the next mark
    for k in range(1, n_steps + 1):
        q = step_q(q, params, cfg)
        q.s = tau + k * cfg.ds
        if k == marks[j]:
            acc = apply_semigroup_values((k - marks[j - 1]) * cfg.ds, grid, acc)
            acc[1:] += weights[j] * sources(q)
            j += 1
    return q, acc, len(marks)


def duhamel_split_check(
    q_tau: Field,
    params: ModelParams,
    trap: TrapParams,
    cfg: SolverConfig,
    s_target: float,
) -> dict:
    """Reconstruct q(s) from its integral form and size up the source pieces.

    Starting from a snapshot q(tau), the trajectory is re-integrated to
    s_target (a whole number of steps of cfg.ds away) while the potential,
    nonlinear, residual and perturbation source fields are sampled at
    17 times.  The reconstruction

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

    The trapezoid sum is taken by Horner's rule in time: an accumulator of
    five rows (q(tau), then the weighted sums of B, R, N and Vq) is carried
    from one quadrature time to the next by the kernel of the gap between
    them, and each time adds its weighted sources S_k,

        acc <- e^{(sigma_k - sigma_{k-1}) L} acc,   acc[1:] += w_k S_k,

    so that at s it holds e^{(s-tau)L} q(tau) and sum_k w_k e^{(s-sigma_k)L} S_k.
    The times are evenly spread whole steps, so their gaps take at most two
    values; each gap's kernel comes from the kernel cache, so a one-step
    gap reuses the stepping kernel.  On a finite grid the gap kernels
    compose to e^{(s-sigma)L} only up to the clipping at the grid edge, so
    near the edge the sum differs from one with a kernel per time.

    The global `reconstruction_residual` peaks at the pinned end nodes,
    where the stepped field is set to its ansatz value and the integral
    form is not; on the nodes of `semigroup.interior_mask` the
    reconstruction closes far more tightly.
    """
    tau = q_tau.s
    q, pieces, n_times = _duhamel_pieces(q_tau, params, cfg, s_target)
    alpha, beta, gamma, delta, vpart = pieces
    s_end = q.s
    grid = q.grid

    reconstruction = alpha + beta + gamma + delta + vpart
    resid = float(np.max(np.abs(reconstruction - q.values)))

    d = decompose(Field(grid=grid, values=delta, s=s_end), trap.K0)
    window = s_end - tau
    scale = s_end**3 / window
    out = {
        "tau": tau,
        "s": s_end,
        "n_quad": n_times,
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
    different kernel-truncation and pinning errors: w is O(1) there, q is
    O(1/s), and at the end nodes the pins -kappa/(2ps) of q and phi of w
    leave a difference of kappa/(2ps).  So the interior sup is the
    meaningful figure; the global sup is reported alongside for scale.
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
