"""Model parameters and closed-form ingredients of the rescaled blow-up problem.

The physical equation is a one-dimensional semilinear heat equation with a
lower-order perturbation built from the solution and its gradient,

    u_t = u_xx + |u|^(p-1) u + mu*|u_x|^alpha + mu_bar*|u|^alpha_bar + mu0,

with p > 1 and subcritical perturbation exponents

    0 <= alpha < 2p/(p+1),      0 <= alpha_bar < p.

Solutions that blow up at time T and point a are studied in similarity
variables

    y = (x - a)/sqrt(T-t),   s = -log(T-t),   w(y,s) = (T-t)^(1/(p-1)) u(x,t),

in which the equation becomes

    w_s = w_yy - y/2 w_y - w/(p-1) + |w|^(p-1) w
          + mu*|w_y|^alpha * exp(-beta*s)
          + mu_bar*|w|^alpha_bar * exp(-beta_bar*s)
          + mu0 * exp(-p*s/(p-1)),

    beta     = (2p - alpha*(p+1)) / (2(p-1)),
    beta_bar = (p - alpha_bar) / (p-1).

Subcriticality is exactly the statement beta > 0 and beta_bar > 0: the
perturbation decays exponentially in s and the constant-in-y blow-up scale
kappa = (p-1)^(-1/(p-1)) survives.

The expected asymptotic shape is the algebraic profile

    f(z) = (p-1 + b*z^2)^(-1/(p-1)),    b = (p-1)^2/(4p),    z = y/sqrt(s),

which satisfies the transport-reaction balance

    0 = -z/2 f'(z) - f(z)/(p-1) + f(z)^p        for all z,

with f'(z) = -((p-1)/(2p)) z f(z)^p.  The solver works with the deviation
q = w - ansatz, where

    ansatz(y,s) = f(y/sqrt(s)) + kappa/(2 p s),

whose evolution is driven by the linearization potential, a quadratic
nonlinear remainder, the ansatz residual, and the exponentially small
perturbation term; all four are provided here in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ipow

__all__ = [
    "ModelParams",
    "ParameterError",
    "make_params",
    "profile_f",
    "profile_fprime",
    "profile_fsecond",
    "profile_residual",
    "phi",
    "phi_dy",
    "phi_laplacian",
    "phi_ds",
    "ansatz_fields",
    "potential_V",
    "nonlinear_B",
    "remainder_R",
    "perturbation_decay",
    "perturbation_N",
    "perturbation_sum",
]


class ParameterError(ValueError):
    """Raised when equation parameters violate the admissible range."""


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters together with derived constants.

    Attributes
    ----------
    p : float
        Nonlinearity exponent, p > 1.
    alpha, alpha_bar : float
        Exponents of the gradient and zero-order perturbations.
    mu, mu_bar, mu0 : float
        Perturbation amplitudes (any sign; zero disables a term).
    beta, beta_bar : float
        Exponential decay rates of the rescaled perturbation terms;
        positive iff the exponents are subcritical.
    kappa : float
        Constant blow-up scale (p-1)^(-1/(p-1)); equals profile_f at 0.
    """

    p: float
    alpha: float
    alpha_bar: float
    mu: float
    mu_bar: float
    mu0: float
    beta: float
    beta_bar: float
    kappa: float

    @property
    def perturbed(self) -> bool:
        """True when any perturbation amplitude is non-zero."""
        return self.mu != 0.0 or self.mu_bar != 0.0 or self.mu0 != 0.0


def make_params(
    p: float,
    alpha: float = 0.0,
    alpha_bar: float = 0.0,
    mu: float = 0.0,
    mu_bar: float = 0.0,
    mu0: float = 0.0,
) -> ModelParams:
    """Validate equation parameters and attach derived constants.

    Raises
    ------
    ParameterError
        If p <= 1, an exponent is negative, an exponent reaches its
        critical value (alpha >= 2p/(p+1), alpha_bar >= p), or any value
        is not finite.
    """
    # each check states the accepted range, so NaN fails it
    if not (1.0 < p < np.inf):
        raise ParameterError(f"p must be > 1 and finite, got p={p!r}")
    alpha_crit = 2.0 * p / (p + 1.0)
    if not (0.0 <= alpha):
        raise ParameterError(f"alpha must be >= 0, got alpha={alpha!r}")
    if not (alpha < alpha_crit):
        raise ParameterError(
            f"supercritical alpha: need alpha < 2p/(p+1) = {alpha_crit!r}, "
            f"got alpha={alpha!r}"
        )
    if not (0.0 <= alpha_bar):
        raise ParameterError(f"alpha_bar must be >= 0, got alpha_bar={alpha_bar!r}")
    if not (alpha_bar < p):
        raise ParameterError(
            f"supercritical alpha_bar: need alpha_bar < p = {p!r}, "
            f"got alpha_bar={alpha_bar!r}"
        )
    for name, amplitude in (("mu", mu), ("mu_bar", mu_bar), ("mu0", mu0)):
        if not (-np.inf < amplitude < np.inf):
            raise ParameterError(f"{name} must be finite, got {name}={amplitude!r}")
    beta = (2.0 * p - alpha * (p + 1.0)) / (2.0 * (p - 1.0))
    beta_bar = (p - alpha_bar) / (p - 1.0)
    return ModelParams(
        p=float(p),
        alpha=float(alpha),
        alpha_bar=float(alpha_bar),
        mu=float(mu),
        mu_bar=float(mu_bar),
        mu0=float(mu0),
        beta=beta,
        beta_bar=beta_bar,
        kappa=(p - 1.0) ** (-1.0 / (p - 1.0)),
    )


# ---------------------------------------------------------------------------
# profile


def _bcoef(p: float) -> float:
    return (p - 1.0) ** 2 / (4.0 * p)


def profile_f(params: ModelParams, z):
    """Algebraic blow-up profile f(z) = (p-1 + b z^2)^(-1/(p-1))."""
    p = params.p
    g = (p - 1.0) + _bcoef(p) * np.asarray(z, dtype=float) ** 2
    return g ** (-1.0 / (p - 1.0))


def profile_fprime(params: ModelParams, z):
    """Analytic derivative f'(z) = -((p-1)/(2p)) z f(z)^p."""
    p = params.p
    z = np.asarray(z, dtype=float)
    g = (p - 1.0) + _bcoef(p) * z**2
    fp = g ** (-p / (p - 1.0))  # = f(z)^p
    return -((p - 1.0) / (2.0 * p)) * z * fp


def profile_fsecond(params: ModelParams, z):
    """Second derivative of the profile, f''(z), in closed form."""
    p = params.p
    z = np.asarray(z, dtype=float)
    g = (p - 1.0) + _bcoef(p) * z**2
    fp = g ** (-p / (p - 1.0))
    f2pm1 = g ** (-(2.0 * p - 1.0) / (p - 1.0))  # = f(z)^(2p-1)
    c = (p - 1.0) / (2.0 * p)
    return -c * fp + c**2 * p * z**2 * f2pm1


def profile_residual(params: ModelParams, z):
    """Residual of the profile balance -z/2 f' - f/(p-1) + f^p.

    Identically zero in exact arithmetic; evaluated term by term from the
    closed forms so floating-point cancellation is all that remains.
    """
    p = params.p
    z = np.asarray(z, dtype=float)
    g = (p - 1.0) + _bcoef(p) * z**2
    f = g ** (-1.0 / (p - 1.0))
    fp = g ** (-p / (p - 1.0))
    fprime = -((p - 1.0) / (2.0 * p)) * z * fp
    return -0.5 * z * fprime - f / (p - 1.0) + fp


# ---------------------------------------------------------------------------
# ansatz (profile in similarity variables plus its 1/s correction)


def phi(params: ModelParams, y, s: float):
    """Ansatz phi(y,s) = f(y/sqrt(s)) + kappa/(2 p s)."""
    z = np.asarray(y, dtype=float) / np.sqrt(s)
    return profile_f(params, z) + params.kappa / (2.0 * params.p * s)


def phi_dy(params: ModelParams, y, s: float):
    """d(phi)/dy = f'(y/sqrt(s)) / sqrt(s)."""
    rs = np.sqrt(s)
    return profile_fprime(params, np.asarray(y, dtype=float) / rs) / rs


def phi_laplacian(params: ModelParams, y, s: float):
    """d2(phi)/dy2 = f''(y/sqrt(s)) / s."""
    return profile_fsecond(params, np.asarray(y, dtype=float) / np.sqrt(s)) / s


def phi_ds(params: ModelParams, y, s: float):
    """d(phi)/ds = -(z/(2s)) f'(z) - kappa/(2 p s^2), with z = y/sqrt(s)."""
    z = np.asarray(y, dtype=float) / np.sqrt(s)
    return -(z / (2.0 * s)) * profile_fprime(params, z) - params.kappa / (
        2.0 * params.p * s**2
    )


# ---------------------------------------------------------------------------
# linearization ingredients


def ansatz_fields(params: ModelParams, y, s: float) -> tuple:
    """(phi, phi_y, phi^p, p phi^(p-1), V, R) at (y, s) from one z, one
    g = p-1 + b z^2 and one each of its powers f, f^p and f^(2p-1).  Each
    field is the expression of its own function above, in the same order,
    so they agree bit for bit."""
    p = params.p
    y = np.asarray(y, dtype=float)
    rs = np.sqrt(s)
    z = y / rs
    z2 = z**2
    g = (p - 1.0) + _bcoef(p) * z2
    fp = g ** (-p / (p - 1.0))  # = f(z)^p
    c = (p - 1.0) / (2.0 * p)
    fprime = -c * z * fp
    phi_val = g ** (-1.0 / (p - 1.0)) + params.kappa / (2.0 * p * s)
    phi_y = fprime / rs
    phi_yy = (-c * fp + c**2 * p * z2 * g ** (-(2.0 * p - 1.0) / (p - 1.0))) / s
    phi_s = -(z / (2.0 * s)) * fprime - params.kappa / (2.0 * p * s**2)
    phi_p = phi_val**p
    dphi_p = p * phi_val ** (p - 1.0)
    R = phi_yy - 0.5 * y * phi_y - phi_val / (p - 1.0) + phi_p - phi_s
    return phi_val, phi_y, phi_p, dphi_p, dphi_p - p / (p - 1.0), R


def potential_V(params: ModelParams, y, s: float):
    """Linearization potential V(y,s) = p phi^(p-1) - p/(p-1).

    Vanishes like 1/s near y = 0 and tends to -p/(p-1) along |y|/sqrt(s)
    -> infinity; both limits are exercised by the tests.
    """
    p = params.p
    return p * phi(params, y, s) ** (p - 1.0) - p / (p - 1.0)


def nonlinear_B(params: ModelParams, phi_val, q_val):
    """Quadratic remainder of the nonlinearity around the ansatz.

    B(q) = |phi+q|^(p-1)(phi+q) - phi^p - p phi^(p-1) q.  Bounded by
    C |q|^min(p,2) uniformly over the relevant phi range.
    """
    p = params.p
    phi_val, q_val = np.asarray(phi_val, dtype=float), np.asarray(q_val, dtype=float)
    tot = phi_val + q_val
    return np.abs(tot) ** (p - 1.0) * tot - phi_val**p - p * phi_val ** (p - 1.0) * q_val


def remainder_R(params: ModelParams, y, s: float):
    """Residual of the ansatz in the rescaled equation.

    R = phi_yy - y/2 phi_y - phi/(p-1) + phi^p - phi_s, all terms from the
    closed-form derivatives above.  Its sup norm decays like 1/s.
    """
    return ansatz_fields(params, y, s)[5]


def perturbation_decay(params: ModelParams, s: float) -> tuple:
    """The factors mu e^(-beta s), mu_bar e^(-beta_bar s) and
    mu0 e^(-p s/(p-1)) of N at time s; 0.0 for a zero amplitude."""
    p = params
    return (
        p.mu * np.exp(-p.beta * s) if p.mu != 0.0 else 0.0,
        p.mu_bar * np.exp(-p.beta_bar * s) if p.mu_bar != 0.0 else 0.0,
        p.mu0 * np.exp(-p.p * s / (p.p - 1.0)) if p.mu0 != 0.0 else 0.0,
    )


def perturbation_N(params: ModelParams, w_grad, w_val, s: float):
    """Rescaled perturbation term, evaluated on the full field w = phi + q.

    N = mu |w_y|^alpha e^(-beta s)
        + mu_bar |w|^alpha_bar e^(-beta_bar s)
        + mu0 e^(-p s/(p-1)).

    All three pieces decay exponentially in s by subcriticality.  At s = 0
    (T - t = 1) the similarity variables are the physical ones up to a
    shift in x, so N(u_x, u, 0) is the perturbation of the physical equation.
    w_grad is read only when mu != 0, so a caller may pass 0.0 otherwise.
    """
    return perturbation_sum(params, perturbation_decay(params, s), w_grad, w_val)


def perturbation_sum(params: ModelParams, decay: tuple, w_grad, w_val, out=None, tmp=None):
    """N from the decay factors of its time, `perturbation_decay(params, s)`,
    summed as e3 + e1 |w_grad|^alpha + e2 |w|^alpha_bar into out (which may
    be w_grad) with tmp as scratch (which may be w_val), each allocated if
    not given."""
    e1, e2, e3 = decay
    if out is None:
        out = np.empty(np.broadcast(np.asarray(w_grad), np.asarray(w_val)).shape)
    if e1 != 0.0:
        out = ipow(np.abs(w_grad, out=out), params.alpha)
        out *= e1
        out += e3
    else:
        out[...] = e3
    if e2 != 0.0:
        tmp = ipow(np.abs(w_val, out=tmp), params.alpha_bar)
        tmp *= e2
        out += tmp
    return out
