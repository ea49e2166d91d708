"""Direct integration in the original variables.

The rescaled picture predicts that the prepared initial condition

    u(x, 0) = T^{-1/(p-1)} [ f(z) + (d0 + d1 z) f(z)^p ],   z = x / sqrt(T s0),

with T = exp(-s0), blows up at a time close to T at a point close to the
origin, approaching the profile f after rescaling.  This module checks
that claim head on: method-of-lines integration of

    u_t = u_xx + |u|^{p-1} u + mu |u_x|^alpha + mu_bar |u|^alpha_bar + mu0

with Runge-Kutta 4 in time, centered differences in space, and a step size
that tracks both the diffusive limit and the shrinking reaction time scale
lam * ||u||^{1-p}.  The spatial domain covers |z| <= Z_max; note T ~ 1e-9
for s0 = 20, so the physically meaningful window is microscopic and the
domain is derived from (T, s0), never hard-coded.

The blow-up time is estimated by extrapolating ||u(t)||_inf^{-(p-1)},
which the leading-order dynamics make an affine function of t, over a
window late enough to be in the asymptotic regime but early enough that
the peak is still resolved by several grid cells.  The blow-up point comes
from a parabolic refinement of the final peak.  Snapshots taken on the way
feed the profile comparison in self-similar variables.

Boundary values are frozen at their initial values: the fixed-x solution
at |z| = Z_max drifts only logarithmically in T - t and the induced error
penetrates a diffusion length sqrt(T) ~ domain/ (Z_max sqrt(s0)), a few
cells, leaving the peak region untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, perturbation_N, phi, phi_dy, profile_f

__all__ = [
    "PhysicalConfig",
    "BlowupEstimate",
    "initial_u",
    "integrate_u",
    "homogeneous_oracle",
    "profile_error",
    "stability_probe",
]


@dataclass(frozen=True)
class PhysicalConfig:
    """Controls for the physical-variables run."""

    s0: float = 20.0
    d0: float = 0.0
    d1: float = 0.0
    z_max: float = 30.0
    n_x: int = 1601
    cfl: float = 0.2
    lam: float = 0.01
    stop_factor: float = 1e4
    fit_lo: float = 30.0
    fit_hi: float = 300.0
    snapshot_factors: tuple = (10.0, 30.0, 100.0, 300.0, 1000.0)
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        # each check states the accepted range, so NaN fails it
        if not (self.n_x >= 17 and self.n_x % 2 == 1):
            raise ValueError("n_x must be an odd integer >= 17 (peak at a node)")
        if not (1.0 < self.fit_lo < self.fit_hi < self.stop_factor < np.inf):
            raise ValueError("need 1 < fit_lo < fit_hi < stop_factor, all finite")
        for name in ("s0", "z_max", "cfl", "lam"):
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

    blew_up is False when the peak never reached stop_factor growth within
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


def _rhs(u: np.ndarray, dx: float, params: ModelParams) -> np.ndarray:
    du = np.zeros_like(u)
    du[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    du[1:-1] += np.abs(u[1:-1]) ** (params.p - 1.0) * u[1:-1]
    if params.perturbed:
        ux = (u[2:] - u[:-2]) / (2.0 * dx) if params.mu != 0.0 else 0.0
        du[1:-1] += perturbation_N(params, ux, u[1:-1], 0.0)
    return du  # ends stay zero: frozen Dirichlet data


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


def integrate_u(
    params: ModelParams,
    cfg: PhysicalConfig,
    u0_override: np.ndarray | None = None,
) -> BlowupEstimate:
    """March the physical equation until the peak grows by stop_factor.

    Records (t, ||u||_inf) every step, keeps field snapshots at the
    configured growth factors, then fits ||u||^{-(p-1)} against t over the
    growth window [fit_lo, fit_hi] to extrapolate the blow-up time.  If
    cfg.max_steps steps run out first the run is reported as a non-blow-up
    outcome instead.
    """
    x, u = initial_u(params, cfg)
    if u0_override is not None:
        if u0_override.shape != u.shape:
            raise ValueError("override initial data has the wrong shape")
        u = u0_override.copy()
    dx = x[1] - x[0]
    umax0 = float(np.max(np.abs(u)))
    stop_at = cfg.stop_factor * umax0
    dt_diff = cfg.cfl * dx**2 / 2.0

    t = 0.0
    ts = [t]
    umaxs = [umax0]
    snapshots = []
    next_snap = 0
    factors = sorted(cfg.snapshot_factors)

    n = 0
    blew_up = False
    while n < cfg.max_steps:
        umax = umaxs[-1]
        if umax >= stop_at:
            blew_up = True
            break
        dt = min(dt_diff, cfg.lam * umax ** (1.0 - params.p))
        k1 = _rhs(u, dx, params)
        k2 = _rhs(u + 0.5 * dt * k1, dx, params)
        k3 = _rhs(u + 0.5 * dt * k2, dx, params)
        k4 = _rhs(u + dt * k3, dx, params)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        n += 1
        if not np.all(np.isfinite(u)):
            raise FloatingPointError(f"physical field lost finiteness at t={t:.3e}")
        umax = float(np.max(np.abs(u)))
        ts.append(t)
        umaxs.append(umax)
        while next_snap < len(factors) and umax >= factors[next_snap] * umax0:
            snapshots.append((t, u.copy()))
            next_snap += 1

    sample_t = np.array(ts)
    sample_umax = np.array(umaxs)
    if not blew_up:
        return BlowupEstimate(
            T_est=float("inf"),
            a_est=_refine_peak(x, np.abs(u)),
            fit_quality=0.0,
            t_end=t,
            umax_end=float(np.max(np.abs(u))),
            n_steps=n,
            x=x,
            u_end=u,
            sample_t=sample_t,
            sample_umax=sample_umax,
            snapshots=snapshots,
            blew_up=False,
        )

    T_est, r2 = _fit_blowup_time(
        sample_t, sample_umax, params.p, cfg.fit_lo * umax0, cfg.fit_hi * umax0
    )

    return BlowupEstimate(
        T_est=T_est,
        a_est=_refine_peak(x, u),
        fit_quality=r2,
        t_end=t,
        umax_end=float(np.max(np.abs(u))),
        n_steps=n,
        x=x,
        u_end=u,
        sample_t=sample_t,
        sample_umax=sample_umax,
        snapshots=snapshots,
    )


def homogeneous_oracle(params: ModelParams, c: float = 1.0) -> dict:
    """Blow-up time estimator exercised on the space-homogeneous reduction.

    For u0 = c constant in space the equation collapses to the scalar ODE
    u' = u^p + N(0, u, 0), with N from `perturbation_N` at u_x = 0: its
    gradient term is mu |0|^alpha, which is mu at alpha = 0 and 0 otherwise.
    The blow-up time is the convergent integral of du / rhs(u) from c; when
    N vanishes it is c^{1-p}/(p-1) in closed form.  The same RK4 step-size
    law and the same window fit as integrate_u are applied, with the
    reaction step factor, stop factor, fit window and step cap of the
    default `PhysicalConfig`, so any bias of the estimator shows up against
    an exact target.
    """
    if c <= 0.0:
        raise ValueError("oracle initial value must be positive")
    p = params.p
    cfg = PhysicalConfig()

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
    while u < cfg.stop_factor * c and n < cfg.max_steps:
        dt = cfg.lam * u ** (1.0 - p)
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
    if u < cfg.stop_factor * c:
        raise RuntimeError("homogeneous oracle did not reach the stop factor")

    T_est, r2 = _fit_blowup_time(
        np.array(ts), np.array(us), p, cfg.fit_lo * c, cfg.fit_hi * c
    )
    return {
        "T_est": T_est,
        "T_exact": float(T_exact),
        "rel_err": abs(T_est - T_exact) / T_exact,
        "fit_quality": r2,
        "n_steps": n,
        "max_rel_dev_closed_form": max_rel_dev if closed_form else None,
    }


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray, t: np.ndarray):
    """Values and first derivatives at t of the not-a-knot cubic spline
    through (x, y), for strictly increasing x with at least 4 nodes.

    The slopes solve the tridiagonal system of `scipy.interpolate.CubicSpline`
    with not-a-knot ends (the third derivative is continuous across x[1]
    and x[-2]) by a Thomas sweep; each interval is then the cubic Hermite
    segment through its end values and slopes, extended beyond the ends.
    """
    dx = np.diff(x)
    if len(x) < 4 or not np.all(dx > 0.0):
        raise ValueError("the spline needs at least 4 strictly increasing nodes")
    slope = np.diff(y) / dx
    # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
    d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
    sub = np.concatenate(([0.0], dx[1:], [d_hi]))
    diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
    sup = np.concatenate(([d_lo], dx[:-1], [0.0]))
    rhs = np.concatenate((
        [((dx[0] + 2.0 * d_lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d_lo],
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2.0 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi],
    ))
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    n = len(diag)
    for i in range(1, n):
        r = sub[i] / diag[i - 1]
        diag[i] -= r * sup[i - 1]
        rhs[i] -= r * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - sup[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    # the Hermite segment on interval k in powers of h = t - x[k]
    c1 = (slope - s[:-1]) / dx
    c2 = (s[:-1] + s[1:] - 2.0 * slope) / dx
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    h = t - x[k]
    a3 = c2[k] / dx[k]
    a2 = c1[k] - c2[k]
    value = ((a3 * h + a2) * h + s[k]) * h + y[k]
    deriv = (3.0 * a3 * h + 2.0 * a2) * h + s[k]
    return value, deriv


def profile_error(
    x: np.ndarray,
    u: np.ndarray,
    t_snap: float,
    est: BlowupEstimate,
    params: ModelParams,
) -> dict:
    """Distance of a snapshot from the profile in self-similar variables.

    The snapshot is rescaled with the *estimated* blow-up data, splined,
    and compared on |y| <= 2 sqrt(s) against both the pure profile
    f(y/sqrt s) (error of order 1/s from the log correction) and the
    corrected ansatz phi (error of order of the deviation itself).
    """
    tau = est.T_est - t_snap
    if tau <= 0.0:
        raise ValueError("snapshot lies at or past the estimated blow-up time")
    s = -np.log(tau)
    y_data = (x - est.a_est) / np.sqrt(tau)
    w_data = tau ** (1.0 / (params.p - 1.0)) * u
    y_hi = min(2.0 * np.sqrt(s), 0.98 * y_data[-1])
    y_grid = np.linspace(-y_hi, y_hi, 801)
    w_num, dw_num = _not_a_knot_spline(y_data, w_data, np.append(y_grid, 0.0))
    w_center = float(w_num[-1])
    w_num, dw_num = w_num[:-1], dw_num[:-1]
    f_ref = profile_f(params, y_grid / np.sqrt(s))
    phi_ref = phi(params, y_grid, s)
    df_ref = phi_dy(params, y_grid, s)
    return {
        "s": float(s),
        "y_window": float(y_hi),
        "e_sup_f": float(np.max(np.abs(w_num - f_ref))),
        "e_sup_phi": float(np.max(np.abs(w_num - phi_ref))),
        "e_grad_f": float(np.max(np.abs(dw_num - df_ref))),
        "w_center": w_center,
        "kappa_gap": float(abs(w_center - params.kappa)),
    }


def _bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    out = np.zeros_like(x)
    t = (x - center) / width
    mask = np.abs(t) < 1.0
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - t[mask] ** 2))
    return out


def stability_probe(
    params: ModelParams,
    cfg: PhysicalConfig,
    rel_eps: tuple = (1e-2, 1e-3, 1e-4),
    offset_cells: int = 40,
) -> dict:
    """Blow-up data under small perturbations of the prepared state.

    For each relative amplitude a compactly supported bump (centered, and
    offset by `offset_cells` grid cells) is added to the initial condition
    and the run is repeated.  Shifts of (T_est, a_est) against the baseline
    are reported; an exact re-run with eps = 0 checks determinism.
    """
    x, u0 = initial_u(params, cfg)
    base = integrate_u(params, cfg)
    rerun = integrate_u(params, cfg)
    width = 0.15 * (x[-1] - x[0])
    dx = x[1] - x[0]
    rows = []
    for eps in rel_eps:
        for shape, center in (("centered", 0.0), ("offset", offset_cells * dx)):
            bump = _bump(x, center, width)
            pert = u0 + eps * float(np.max(np.abs(u0))) * bump
            est = integrate_u(params, cfg, u0_override=pert)
            rows.append(
                {
                    "eps": eps,
                    "shape": shape,
                    "T_est": est.T_est,
                    "a_est": est.a_est,
                    "dT": est.T_est - base.T_est,
                    "da": est.a_est - base.a_est,
                    "fit_quality": est.fit_quality,
                }
            )
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
