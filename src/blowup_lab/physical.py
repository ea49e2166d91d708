"""Direct integration in the original variables.

The rescaled picture predicts that the prepared initial condition

    u(x, 0) = T^{-1/(p-1)} [ f(z) + (d0 + d1 z) f(z)^p ],   z = x / sqrt(T s0),

with T = exp(-s0), blows up at a time close to T at a point close to the
origin, approaching the profile f after rescaling.  This module checks
that claim head on: method-of-lines integration of

    u_t = u_xx + |u|^{p-1} u + mu |u_x|^alpha + mu_bar |u|^alpha_bar + mu0

with Runge-Kutta 4 in time, centered differences in space, and the step
min(CFL dx^2/2, LAM ||u||^{1-p}), which tracks both the diffusive limit and
the shrinking reaction time scale.  The spatial domain covers |z| <= Z_max;
note T ~ 1e-9 for s0 = 20, so the physically meaningful window is
microscopic and the domain is derived from (T, s0), never hard-coded.

A run stops when its peak has grown STOP_FACTOR-fold.  The blow-up time
is estimated by extrapolating ||u(t)||_inf^{-(p-1)}, which the
leading-order dynamics make an affine function of t, over the growth
window [FIT_LO, FIT_HI]: late enough to be in the asymptotic regime but
early enough that the peak is still resolved by several grid cells.  These
five constants are the one estimator the acceptance criteria pin.  The
blow-up point comes from a parabolic refinement of the final peak.  Snapshots taken on the way
feed the profile comparison in self-similar variables (`similarity.py`).

`integrate_us` marches K initial fields on one grid together, as the rows
of a (K, n_x) stack: one numpy call per stencil covers every row, and each
row keeps its own step, time, record and stop level, so it gets the
arithmetic of a lone run bit for bit.  `integrate_u` is its K = 1 case, and
`stability_probe` runs its baseline and its bumped fields as one stack.

Boundary values are frozen at their initial values: the fixed-x solution
at |z| = Z_max drifts only logarithmically in T - t and the induced error
penetrates a diffusion length sqrt(T) ~ domain/ (Z_max sqrt(s0)), a few
cells, leaving the peak region untouched.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .model import ModelParams, perturbation_N, profile_f

# profile_error stays a name of this module for perfbench/tracing.py,
# which wraps it here
from .similarity import profile_error

__all__ = [
    "PhysicalConfig",
    "BlowupEstimate",
    "initial_u",
    "integrate_u",
    "integrate_us",
    "homogeneous_oracle",
    "profile_error",
    "stability_probe",
    "PROBE_REL_EPS",
]

# the relative bump amplitudes of the stability probe: with the baseline,
# its stack holds 1 + 2 len(PROBE_REL_EPS) rows
PROBE_REL_EPS = (1e-2, 1e-3, 1e-4)

# the step law, stop level and fit window (growth factors) of every run
CFL, LAM = 0.2, 0.01
STOP_FACTOR = 1e4
FIT_LO, FIT_HI = 30.0, 300.0


@dataclass(frozen=True)
class PhysicalConfig:
    """Controls for the physical-variables run."""

    s0: float
    d0: float
    d1: float
    z_max: float = 30.0
    n_x: int = 1601
    snapshot_factors: tuple = (10.0, 30.0, 100.0, 300.0, 1000.0)
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        # each check states the accepted range, so NaN fails it
        if not (self.n_x >= 17 and self.n_x % 2 == 1):
            raise ValueError("n_x must be an odd integer >= 17 (peak at a node)")
        for name in ("s0", "z_max"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)!r}")
        for name in ("d0", "d1"):
            if not (-np.inf < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def T(self) -> float:
        return float(np.exp(-self.s0))


def initial_u(params: ModelParams, cfg: PhysicalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Physical grid and prepared initial condition."""
    T = cfg.T
    x_sc = np.sqrt(T * cfg.s0)
    x = np.linspace(-cfg.z_max * x_sc, cfg.z_max * x_sc, cfg.n_x)
    z = x / x_sc
    f = profile_f(params, z)
    u0 = T ** (-1.0 / (params.p - 1.0)) * (f + (cfg.d0 + cfg.d1 * z) * f**params.p)
    return x, u0


@dataclass
class BlowupEstimate:
    """Result of one physical run.

    blew_up is False when the peak never reached STOP_FACTOR growth within
    max_steps steps; that is a valid outcome (subcritical data), not a
    failure, and T_est is +inf in that case.
    """

    T_est: float
    a_est: float
    fit_quality: float
    t_end: float
    umax_end: float
    n_steps: int
    x: np.ndarray
    u_end: np.ndarray
    sample_t: np.ndarray
    sample_umax: np.ndarray
    snapshots: list = field(default_factory=list)  # (t, u array) pairs
    blew_up: bool = True


def _rhs(
    u: np.ndarray, dx: float, params: ModelParams, du: np.ndarray, tmp: np.ndarray
) -> None:
    """Write u_t of every row of the (K, n_x) stack u into du.

    The stencils run over the flat buffer, so at each row's two end nodes
    they mix neighbouring rows; zeroing those nodes afterwards freezes the
    Dirichlet data and leaves every interior node the arithmetic of a lone
    row.  tmp is scratch of u's shape.
    """
    flat, d, r = u.reshape(-1), du.reshape(-1)[1:-1], tmp.reshape(-1)[1:-1]
    mid = flat[1:-1]
    np.multiply(mid, 2.0, out=d)
    np.subtract(flat[2:], d, out=d)
    np.add(d, flat[:-2], out=d)
    np.divide(d, dx**2, out=d)
    np.abs(mid, out=r)
    np.power(r, params.p - 1.0, out=r)
    np.multiply(r, mid, out=r)
    np.add(d, r, out=d)
    if params.perturbed:
        ux = (flat[2:] - flat[:-2]) / (2.0 * dx) if params.mu != 0.0 else 0.0
        d += perturbation_N(params, ux, mid, 0.0)
    du[:, 0] = 0.0
    du[:, -1] = 0.0


def _rk4_step(
    u: np.ndarray, dt: np.ndarray, dx: float, params: ModelParams, work: list
) -> None:
    """Advance the (K, n_x) stack u by one RK4 step in place.

    dt is a (K, 1) column of steps, work four scratch arrays of u's shape.
    """
    stage, acc, k, tmp = work
    # u + (dt/6) (k1 + 2 k2 + 2 k3 + k4), the sum accumulated left to
    # right in acc as the stages come
    _rhs(u, dx, params, acc, tmp)
    np.add(u, np.multiply(0.5 * dt, acc, out=stage), out=stage)
    _rhs(stage, dx, params, k, tmp)
    np.add(u, np.multiply(0.5 * dt, k, out=stage), out=stage)
    np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    _rhs(stage, dx, params, k, tmp)
    np.add(u, np.multiply(dt, k, out=stage), out=stage)
    np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    _rhs(stage, dx, params, k, tmp)
    np.add(acc, k, out=acc)
    np.add(u, np.multiply(dt / 6.0, acc, out=acc), out=u)


def _refine_peak(x: np.ndarray, u: np.ndarray) -> float:
    """Sub-grid argmax via a parabola through the discrete peak."""
    i = int(np.argmax(u))
    if i == 0 or i == len(u) - 1:
        return float(x[i])
    denom = u[i - 1] - 2.0 * u[i] + u[i + 1]
    if denom >= 0.0:
        return float(x[i])
    return float(x[i] + 0.5 * (x[i] - x[i - 1]) * (u[i - 1] - u[i + 1]) / denom)


def _fit_blowup_time(
    sample_t: np.ndarray,
    sample_umax: np.ndarray,
    p: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Linear extrapolation of ||u||^{-(p-1)} over the growth window [lo, hi].

    lo and hi are absolute peak heights.  Returns (T_est, r_squared).
    """
    window = (sample_umax >= lo) & (sample_umax <= hi)
    if np.count_nonzero(window) < 8:
        raise RuntimeError("too few samples in the extrapolation window")
    tw = sample_t[window]
    vw = sample_umax[window] ** (-(p - 1.0))
    slope, intercept = np.polyfit(tw, vw, 1)
    if slope >= 0.0:
        raise RuntimeError("peak is not growing through the extrapolation window")
    resid = vw - (slope * tw + intercept)
    ss_tot = float(np.sum((vw - vw.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return float(-intercept / slope), r2


def integrate_us(
    params: ModelParams, cfg: PhysicalConfig, u0s: np.ndarray
) -> list[BlowupEstimate]:
    """March K initial fields on the grid of cfg until each peak grows by
    STOP_FACTOR; one estimate per row of the (K, n_x) array u0s.

    The fields step together as the rows of one stack, and each row keeps
    the arithmetic of a lone run bit for bit: its own step, time,
    (t, ||u||_inf) record and snapshots at the configured growth factors.
    A row leaves the stack on the step its peak reaches STOP_FACTOR times
    its initial height, and its blow-up time is fitted over the growth
    window.  A row still in the stack after cfg.max_steps steps is
    reported as a non-blow-up outcome.
    """
    x, _ = initial_u(params, cfg)
    u = np.array(u0s, dtype=float)
    if u.ndim != 2 or u.shape[1] != x.size:
        raise ValueError("initial data has the wrong shape")
    n_rows = u.shape[0]
    dx = x[1] - x[0]
    dt_diff = CFL * dx**2 / 2.0
    factors = sorted(cfg.snapshot_factors)
    work = [np.empty_like(u) for _ in range(4)]

    umax0 = np.max(np.abs(u), axis=1).tolist()
    t = [0.0] * n_rows
    ts = [array("d", [0.0]) for _ in range(n_rows)]
    umaxs = [array("d", [m]) for m in umax0]
    snapshots = [[] for _ in range(n_rows)]
    next_snap = [0] * n_rows
    ends = [None] * n_rows  # (u_end, n_steps, blew_up) once the row leaves
    live = list(range(n_rows))  # row live[j] is held in u[j]

    n = 0
    while True:
        # a row at its stop level swaps with the last live row and leaves
        # the stack, keeping its final field in place behind it
        for j in reversed(range(len(live))):
            i = live[j]
            if umaxs[i][-1] >= STOP_FACTOR * umax0[i]:
                tail = len(live) - 1
                if j < tail:
                    u[[j, tail]] = u[[tail, j]]
                    live[j] = live[tail]
                live.pop()
                ends[i] = (u[tail], n, True)
        if not live or n >= cfg.max_steps:
            break
        rows = len(live)
        dts = [min(dt_diff, LAM * umaxs[i][-1] ** (1.0 - params.p)) for i in live]
        _rk4_step(u[:rows], np.array(dts)[:, None], dx, params, [w[:rows] for w in work])
        n += 1
        # a non-finite value makes its row's max non-finite
        umax = np.max(np.abs(u[:rows], out=work[0][:rows]), axis=1).tolist()
        for j, i in enumerate(live):
            t[i] += dts[j]
            if not math.isfinite(umax[j]):
                raise FloatingPointError(f"physical field lost finiteness at t={t[i]:.3e}")
            ts[i].append(t[i])
            umaxs[i].append(umax[j])
            while next_snap[i] < len(factors) and umax[j] >= factors[next_snap[i]] * umax0[i]:
                snapshots[i].append((t[i], u[j].copy()))
                next_snap[i] += 1
    for j, i in enumerate(live):
        ends[i] = (u[j], n, False)

    estimates = []
    for i, (u_end, n_steps, blew_up) in enumerate(ends):
        # the records no longer grow: share their buffers (writable views)
        sample_t = np.frombuffer(ts[i])
        sample_umax = np.frombuffer(umaxs[i])
        if blew_up:
            T_est, r2 = _fit_blowup_time(
                sample_t, sample_umax, params.p, FIT_LO * umax0[i], FIT_HI * umax0[i]
            )
            a_est = _refine_peak(x, u_end)
        else:
            T_est, r2, a_est = float("inf"), 0.0, _refine_peak(x, np.abs(u_end))
        estimates.append(
            BlowupEstimate(
                T_est=T_est,
                a_est=a_est,
                fit_quality=r2,
                t_end=t[i],
                umax_end=umaxs[i][-1],
                n_steps=n_steps,
                x=x,
                u_end=u_end,
                sample_t=sample_t,
                sample_umax=sample_umax,
                snapshots=snapshots[i],
                blew_up=blew_up,
            )
        )
    return estimates


def integrate_u(params: ModelParams, cfg: PhysicalConfig) -> BlowupEstimate:
    """`integrate_us` of the prepared initial condition alone."""
    return integrate_us(params, cfg, initial_u(params, cfg)[1][np.newaxis])[0]


def homogeneous_oracle(params: ModelParams, c: float = 1.0) -> dict:
    """Blow-up time estimator exercised on the space-homogeneous reduction.

    For u0 = c constant in space the equation collapses to the scalar ODE
    u' = u^p + N(0, u, 0), with N from `perturbation_N` at u_x = 0: its
    gradient term is mu |0|^alpha, which is mu at alpha = 0 and 0 otherwise.
    The blow-up time is the convergent integral of du / rhs(u) from c; when
    N vanishes it is c^{1-p}/(p-1) in closed form.  The reaction step
    LAM u^{1-p}, the stop at STOP_FACTOR and the fit over [FIT_LO, FIT_HI]
    of `integrate_us` are applied, with the default max_steps as the step
    cap, so any bias of the estimator shows up against an exact target.
    """
    if c <= 0.0:
        raise ValueError("oracle initial value must be positive")
    p = params.p

    def rhs(v: float) -> float:
        out = v**p
        if params.perturbed:
            out += float(perturbation_N(params, 0.0, v, 0.0))
        return out

    closed_form = (
        params.mu_bar == 0.0
        and params.mu0 == 0.0
        and (params.mu == 0.0 or params.alpha > 0.0)
    )
    if closed_form:
        T_exact = c ** (1.0 - p) / (p - 1.0)
    else:
        from scipy.integrate import quad

        T_exact, _ = quad(lambda v: 1.0 / rhs(v), c, np.inf)

    t, u = 0.0, c
    ts = [t]
    us = [u]
    max_rel_dev = 0.0
    n = 0
    while u < STOP_FACTOR * c and n < PhysicalConfig.max_steps:
        dt = LAM * u ** (1.0 - p)
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        n += 1
        ts.append(t)
        us.append(u)
        if closed_form and u <= 1e3 * c:
            exact = ((p - 1.0) * (T_exact - t)) ** (-1.0 / (p - 1.0))
            max_rel_dev = max(max_rel_dev, abs(u - exact) / exact)
    if u < STOP_FACTOR * c:
        raise RuntimeError("homogeneous oracle did not reach the stop factor")

    T_est, r2 = _fit_blowup_time(np.array(ts), np.array(us), p, FIT_LO * c, FIT_HI * c)
    return {
        "T_est": T_est,
        "T_exact": float(T_exact),
        "rel_err": abs(T_est - T_exact) / T_exact,
        "fit_quality": r2,
        "n_steps": n,
        "max_rel_dev_closed_form": max_rel_dev if closed_form else None,
    }


def _bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    out = np.zeros_like(x)
    t = (x - center) / width
    mask = np.abs(t) < 1.0
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - t[mask] ** 2))
    return out


def _probe_fields(
    params: ModelParams, cfg: PhysicalConfig, rel_eps: tuple, offset_cells: int
) -> tuple[list, np.ndarray]:
    """The initial fields of `stability_probe` as one stack: the prepared
    state, then for each relative amplitude a centered and an offset bump
    on it.  Returns the (eps, shape) label of each bumped row and the
    (1 + 2 len(rel_eps), n_x) stack.
    """
    x, u0 = initial_u(params, cfg)
    width = 0.15 * (x[-1] - x[0])
    dx = x[1] - x[0]
    bumps = [
        (eps, shape, center)
        for eps in rel_eps
        for shape, center in (("centered", 0.0), ("offset", offset_cells * dx))
    ]
    stack = np.empty((1 + len(bumps), x.size))
    stack[0] = u0
    amp = float(np.max(np.abs(u0)))
    for row, (eps, _, center) in zip(stack[1:], bumps):
        row[:] = u0 + eps * amp * _bump(x, center, width)
    return [(eps, shape) for eps, shape, _ in bumps], stack


def stability_probe(
    params: ModelParams,
    cfg: PhysicalConfig,
    rel_eps: tuple = PROBE_REL_EPS,
    offset_cells: int = 40,
) -> dict:
    """Blow-up data under small perturbations of the prepared state.

    For each relative amplitude a compactly supported bump (centered, and
    offset by `offset_cells` grid cells) is added to the initial condition.
    The baseline and the 2 len(rel_eps) bumped fields run as one
    `integrate_us` stack, and shifts of (T_est, a_est) against the baseline
    are reported.  `deterministic` holds when a lone `integrate_u` of the
    prepared state gives the stacked baseline's T_est, a_est and u_end bit
    for bit, so it checks both the re-run and the stacking.
    """
    cfg = replace(cfg, snapshot_factors=())  # the probe reads no snapshot
    labels, stack = _probe_fields(params, cfg, rel_eps, offset_cells)
    base, *ests = integrate_us(params, cfg, stack)
    rerun = integrate_u(params, cfg)
    rows = [
        {
            "eps": eps,
            "shape": shape,
            "T_est": est.T_est,
            "a_est": est.a_est,
            "dT": est.T_est - base.T_est,
            "da": est.a_est - base.a_est,
            "fit_quality": est.fit_quality,
        }
        for (eps, shape), est in zip(labels, ests)
    ]
    return {
        "baseline": {
            "T_est": base.T_est,
            "a_est": base.a_est,
            "fit_quality": base.fit_quality,
            "n_steps": base.n_steps,
        },
        "deterministic": bool(
            base.T_est == rerun.T_est
            and base.a_est == rerun.a_est
            and np.array_equal(base.u_end, rerun.u_end)
        ),
        "rows": rows,
    }
