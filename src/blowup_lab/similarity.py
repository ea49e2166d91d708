"""Physical snapshots compared with the blow-up profile in similarity variables.

A snapshot u(x, t) of `physical.integrate_us` is rescaled with the
estimated blow-up time and point, w(y) = (T - t)^{1/(p-1)} u(a + y
sqrt(T - t)), and compared with the profile near the origin.  The rescaled
data are splined by a not-a-knot cubic, solved here with numpy so that no
scipy module is loaded.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, phi, phi_dy, profile_f

__all__ = ["profile_error"]


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
    est,
    params: ModelParams,
) -> dict:
    """Distance of a snapshot from the profile in self-similar variables.

    The snapshot is rescaled with the *estimated* blow-up data (est, the
    run's `physical.BlowupEstimate`, gives T_est and a_est), splined,
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
