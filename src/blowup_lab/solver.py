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
fields (profile, its gradient and powers, potential, residual) are built
in one pass over the nodes y >= 0 and mirrored, at one time: the step
midpoint s + ds/2 for both halves, which keeps the composition
time-symmetric and the scheme second order.  Its B and N write into
scratch arrays that the step and the integral-form check pass in; N sums
through `model.perturbation_sum`, the one formula of N, which the
observation's N sup runs too.  The w form adds the same perturbation N
and integrates the power nonlinearity w' = |w|^{p-1} w in closed form, so
the constant steady state kappa is preserved to O(ds^3) per step.

A trajectory run records the spectral decomposition of the deviation at
every step, checks trap membership, and stops at the first exit or at any
divergence of the field.  Each observation is one row of a table, its
columns in the field order of `TrajectoryRecord`, and each record is
built in one call from its rows: the series are the rows of one copied
block.  The q form advances K trajectories of one grid and one starting
time together, as the rows of a C-contiguous (K, n) array: each step
evaluates one `SourceTerms` for every row and applies the cached kernel
to every row in one call, and each observation takes one cutoff and one
support slice for every row, while the boundary condition, the overflow
guard, trap membership, the N sup and the exit classification stay per
row.  The observation runs the split of `hermite.decompose_values` on the
bare rows and takes its sups directly, without building a decomposition
object.  A row that exits or diverges leaves the ensemble and the others
go on.  Every reduction runs along a row in the order of a lone field, so
each row is bitwise the trajectory run alone; a single trajectory is the
case K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grids import Field, Grid, gradient, ipow, mirror
from .hermite import (
    cubic_weighted_sup,
    cutoff_support,
    decompose,
    decompose_values,
    seminorm_minus,
)
# check_membership, kernel_matrix, nonlinear_B, potential_V and
# remainder_R are not called here; they stay names of this module for
# perfbench/tracing.py, which wraps them here.  mode_ode_check lives in
# trapset, with the other readers of a trajectory record, and stays
# importable from here.
from .model import (
    ModelParams,
    ansatz_fields,
    nonlinear_B,
    perturbation_N,
    perturbation_decay,
    perturbation_sum,
    phi,
    phi_dy,
    potential_V,
    remainder_R,
)
from .semigroup import apply_semigroup_values, interior_mask, kernel_matrix
from .trapset import (
    COMPONENTS,
    ExitInfo,
    TrapParams,
    check_membership,
    exit_classify,
    inside,
    membership,
    mode_ode_check,
)

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

    def __init__(self, s: float, message: str, rows: np.ndarray | None):
        super().__init__(f"s={s:.6f}: {message}")
        self.s = s
        self.rows = rows


class SourceTerms:
    """Local sources Vq, B(q), R and N of the deviation equation at time s.

    The coefficient fields come from one `model.ansatz_fields` pass over
    the nodes y >= 0: phi, phi^p, p phi^(p-1), V and R are even in y and
    are mirrored as one block, and phi_y is odd and mirrored only where
    N's gradient term reads it (mu != 0; else it is None).  N's three
    decay factors are taken once too.  qv may be one field or a stack of
    rows that share them; w is phi + qv, and out and tmp are arrays of
    qv's shape that B, N and rhs write into.
    """

    def __init__(self, params: ModelParams, grid: Grid, s: float):
        self.params, self.grid, self.s = params, grid, s
        phi_val, phi_y, *even = ansatz_fields(params, grid.y[grid.n_half:], s)
        self.phi_val, self.phi_p, self.dphi_p, self.V, self.R = mirror(np.array([phi_val, *even]))
        self.phi_y = mirror(phi_y, odd=True) if params.mu != 0.0 else None
        self.decay = perturbation_decay(params, s)

    def B(self, qv, w, out, tmp):
        """B(q) into out, in the order of `model.nonlinear_B`."""
        ipow(np.abs(w, out=out), self.params.p - 1.0)
        out *= w
        out -= self.phi_p
        out -= np.multiply(self.dphi_p, qv, out=tmp)
        return out

    def N(self, qv, w, out, tmp):
        """N into out; tmp may be w, which it then overwrites."""
        w_grad = 0.0  # read by the gradient term only, which needs mu != 0
        if self.params.mu != 0.0:
            w_grad = gradient(self.grid, qv, out)
            w_grad += self.phi_y
        return perturbation_sum(self.params, self.decay, w_grad, w, out, tmp)

    def rhs(self, qv, out, w, tmp):
        """Vq + B(q) + R, plus N in a perturbed model, into out, on one
        w = phi + q; w and tmp are scratch."""
        np.add(self.phi_val, qv, out=w)
        self.B(qv, w, tmp, out)  # out is B's scratch until Vq goes in
        np.multiply(self.V, qv, out=out)
        out += tmp
        out += self.R
        if self.params.perturbed:
            out += self.N(qv, w, tmp, w)
        return out


def _midpoint_half(rhs, v, h, work):
    """v + h rhs(v + (h/2) rhs(v)) in the four scratch arrays of work;
    the result is work[1]."""
    k1, k2, w, tmp = work
    rhs(v, k1, w, tmp)
    k1 *= 0.5 * h
    k1 += v
    rhs(k1, k2, w, tmp)
    k2 *= h
    k2 += v
    return k2


def _apply_bc_q(values: np.ndarray, params: ModelParams, s: float) -> None:
    values[..., 0] = values[..., -1] = -params.kappa / (2.0 * params.p * s)


def _guard(values: np.ndarray, s: float) -> None:
    if np.abs(values).max() <= OVERFLOW:  # NaN and inf fail the comparison too
        return
    amax = np.max(np.abs(values), axis=-1)
    worst = float(np.max(amax))
    message = (
        f"field magnitude {worst:.3e} exceeds overflow cap"
        if np.isfinite(worst)
        else "field is no longer finite"
    )
    rows = np.flatnonzero(~(amax <= OVERFLOW)) if values.ndim == 2 else None
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
    work = [np.empty_like(q.values) for _ in range(4)]
    v = _midpoint_half(rhs, q.values, 0.5 * ds, work)
    v = apply_semigroup_values(ds, q.grid, v)
    v = _midpoint_half(rhs, v, 0.5 * ds, work)
    _apply_bc_q(v, params, s_new)
    _guard(v, s_new)
    return Field(grid=q.grid, values=v, s=s_new)


def _power_flow(params: ModelParams, wv: np.ndarray, t: float, s: float) -> np.ndarray:
    """Exact flow of w' = |w|^{p-1} w over time t (elementwise)."""
    pm1 = params.p - 1.0
    base = 1.0 - pm1 * t * np.abs(wv) ** pm1
    bad = np.any(base <= 0.0, axis=-1)
    if np.any(bad):
        rows = np.flatnonzero(bad) if wv.ndim == 2 else None
        raise DivergenceError(s, "power sub-flow reached its blow-up time inside a step", rows)
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
    decay = perturbation_decay(params, sm)
    work = [np.empty_like(w.values) for _ in range(4)]

    def pert(wv, out, _, tmp):
        w_grad = gradient(grid, wv, out) if params.mu != 0.0 else 0.0
        return perturbation_sum(params, decay, w_grad, wv, out, tmp)

    def half(wv: np.ndarray, h: float) -> np.ndarray:
        if not params.perturbed:
            return _power_flow(params, wv, h, sm)
        v = _power_flow(params, wv, 0.5 * h, sm)
        v = _midpoint_half(pert, v, h, work)
        return _power_flow(params, v, 0.5 * h, sm)

    v = half(w.values, 0.5 * ds)
    v = np.exp(-ds * (p.p / (p.p - 1.0))) * apply_semigroup_values(ds, grid, v)
    v = half(v, 0.5 * ds)
    v[..., 0], v[..., -1] = phi(params, grid.y[[0, -1]], s_new)
    _guard(v, s_new)
    return Field(grid=grid, values=v, s=s_new)


@dataclass
class TrajectoryRecord:
    """Per-step scalar diagnostics of one deviation trajectory and its five
    trap margins per step, the one record of its membership
    (`trapset.inside`)."""

    s: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    sem_minus: np.ndarray
    qe_sup: np.ndarray
    q_sup: np.ndarray
    gradq_sup: np.ndarray
    N_sup: np.ndarray
    margins: np.ndarray
    exit: ExitInfo | None = None

    @property
    def final_s(self) -> float:
        return float(self.s[-1])

    def survived(self, s_end: float) -> bool:
        return self.exit is None and self.final_s >= s_end - 1e-9


# per-step series of a TrajectoryRecord, in the column order of an
# observation row; the five trap margins follow them
_SERIES = tuple(f.name for f in fields(TrajectoryRecord)[:-2])


def _observe(q: Field, params: ModelParams, trap: TrapParams) -> tuple[np.ndarray, np.ndarray]:
    """One observation row per row of the stack q, and which rows are inside."""
    grid, s, qv = q.grid, q.s, q.values
    amps, q_minus, q_e = decompose_values(grid, qv, s, trap.K0)
    support = cutoff_support(grid, trap.K0, s)
    qy = gradient(grid, qv)
    n_sup = 0.0
    if params.perturbed:
        y = grid.y[grid.n_half:]
        w_grad = mirror(phi_dy(params, y, s), odd=True) + qy if params.mu != 0.0 else 0.0
        n = perturbation_N(params, w_grad, mirror(phi(params, y, s)) + qv, s)
        n_sup = np.abs(n).max(axis=-1)
    table = np.empty((len(qv), len(_SERIES) + len(COMPONENTS)))
    table[:, 0] = s
    table[:, 1:4] = amps
    # The gradient sup is a decay diagnostic, so it is restricted to the
    # cutoff support |y| <= 2 K0 sqrt(s) (same region as the seminorm):
    # outside it the deviation is pinned by the boundary condition and the
    # collar gradient reflects domain truncation, not the solution.
    sups = (
        cubic_weighted_sup(grid, q_minus, support),  # seminorm of q_minus
        np.abs(q_e).max(axis=-1),
        np.abs(qv).max(axis=-1),
        np.abs(qy[:, support]).max(axis=-1),
        n_sup,
    )
    for j, col in enumerate(sups, 4):
        table[:, j] = col
    margins = membership(np.concatenate((np.abs(amps), table[:, 4:6]), axis=-1), trap, s)
    table[:, len(_SERIES):] = margins
    return table, inside(margins)


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
        rec = TrajectoryRecord(*obs[:, : len(_SERIES)].T.copy(), obs[:, len(_SERIES) :].copy())
        if r in diverged_at:
            rec.exit = ExitInfo(s_star=diverged_at[r], reason="divergence", component=None)
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
        src, qv = SourceTerms(params, grid, q.s), q.values
        rows = np.zeros((4, grid.n))  # N stays 0 in an unperturbed model
        w = src.phi_val + qv
        src.B(qv, w, rows[0], rows[3])
        rows[1] = src.R
        if params.perturbed:
            src.N(qv, w, rows[2], w)
        np.multiply(src.V, qv, out=rows[3])
        return rows

    # one row per piece: alpha, beta, gamma, delta, vpart
    acc = np.empty((5, grid.n))
    acc[0] = q_tau.values
    acc[1:] = weights[0] * sources(q_tau)
    q = q_tau.copy()
    j = 1  # the next mark
    for k in range(1, n_steps + 1):
        q = step_q(q, params, cfg)
        q.s = tau + k * cfg.ds
        acc = apply_semigroup_values(cfg.ds, grid, acc)
        if k == marks[j]:
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
    along with the field by the stepping kernel of cfg.ds, and each
    quadrature time, a whole step, adds its weighted sources S_k,

        acc <- e^{ds L} acc  (every step),   acc[1:] += w_k S_k  (at sigma_k),

    so that at s it holds e^{(s-tau)L} q(tau) and sum_k w_k e^{(s-sigma_k)L} S_k.
    The check builds no kernel: it applies the one the steps hold.  On a
    finite grid the step kernels compose to e^{(s-sigma)L} only up to the
    clipping at the grid edge, which compounds step by step, so near the
    edge the sum differs from one with a kernel per time.

    The piece sups are taken on the nodes of `semigroup.interior_mask`:
    in the edge collar the pieces read clipped kernels.  The global
    `reconstruction_residual` peaks at the pinned end nodes, where the
    stepped field is set to its ansatz value and the integral form is
    not; on the interior nodes the reconstruction closes far more tightly.
    """
    tau = q_tau.s
    q, pieces, n_times = _duhamel_pieces(q_tau, params, cfg, s_target)
    alpha, beta, gamma, delta, vpart = pieces
    s_end = q.s
    grid = q.grid
    inside = interior_mask(grid)

    reconstruction = alpha + beta + gamma + delta + vpart
    resid = float(np.max(np.abs(reconstruction - q.values)))

    d = decompose(Field(grid=grid, values=delta, s=s_end), trap.K0)
    scale = s_end**3 / (s_end - tau)
    delta_parts = {"delta2": abs(d.q2), "delta_minus": seminorm_minus(d), "delta_e": d.q_e.sup()}
    names = ("alpha", "beta", "gamma", "delta", "v")
    return {
        "tau": tau,
        "s": s_end,
        "n_quad": n_times,
        **{f"{name}_sup": float(np.max(np.abs(x[inside]))) for name, x in zip(names, pieces)},
        "reconstruction_residual": resid,
        "q_sup": q.sup(),
        **delta_parts,
        **{f"C_{name}": x * scale for name, x in delta_parts.items()},
    }

