"""Exact Gaussian semigroup of the drift-diffusion operator.

The operator L = d2/dy2 - y/2 d/dy + 1 generates a semigroup with the
explicit Mehler-type kernel

    e^(theta L)(y, x) = e^theta / sqrt(4 pi (1 - e^-theta))
                        * exp( -(y e^(-theta/2) - x)^2 / (4 (1 - e^-theta)) ),

i.e. a dilation of the argument by e^(-theta/2), a Gaussian convolution of
variance 2(1 - e^-theta), and a factor e^theta.  On the eigenfunctions,
e^(theta L) h_m = e^((1 - m/2) theta) h_m.  Two smoothing estimates follow
directly from the convolution structure and are checked numerically here:

    ||d/dy e^(theta L) r||_inf <= e^(theta/2) ||dr/dy||_inf            (case 1)
    ||d/dy e^(theta L) r||_inf <= C e^(theta/2)/sqrt(1-e^-theta) ||r||_inf
                                                                       (case 2)

Discrete application is plain trapezoid quadrature of the kernel, so the
quadrature exactness of the Gaussian integrands on these grids is kept.
The matrix is stored banded as one CSR matrix with int32 indices: row i
is a Gaussian centred at y_i e^(-theta/2), and only its entries at or
above KERNEL_FLOOR = 1e-17 of the row's max are built and kept.  The
dropped mass is below 1e-16 of the row sum, a truncation below roundoff,
and every kept entry is bitwise the dense one.  `kernel_matrix` caches one
matrix per (theta, grid) for the step sizes used again and again;
`banded_kernel` builds one for a theta used once, which is then let go.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from .grids import Field, Grid, gradient

__all__ = [
    "kernel_eval",
    "banded_kernel",
    "kernel_matrix",
    "apply_semigroup",
    "apply_semigroup_values",
    "interior_mask",
    "verify_smoothing",
    "kernel_comparison_check",
]

# entries below this fraction of their row's max are not stored
KERNEL_FLOOR = 1e-17

# Nodes within 8 standard deviations of the widest kernel (variance
# 2(1 - e^-theta) < 2) of the grid edge see it clipped by the finite domain.
_EDGE_COLLAR = 8.0 * np.sqrt(2.0)

# (theta, grid) -> banded quadrature matrix
_MATRIX_CACHE: dict[tuple, csr_array] = {}
_MATRIX_CACHE_LIMIT = 40


def kernel_eval(theta: float, y, x):
    """Pointwise kernel e^(theta L)(y, x); diverges like theta^(-1/2) as theta -> 0+."""
    if theta <= 0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    v = 1.0 - np.exp(-theta)
    pref = np.exp(theta) / np.sqrt(4.0 * np.pi * v)
    arg = (y * np.exp(-0.5 * theta) - x) ** 2 / (4.0 * v)
    return pref * np.exp(-arg)


def _cache_key(theta: float, grid: Grid) -> tuple:
    return (round(float(theta), 14), grid.key())


def banded_kernel(theta: float, grid: Grid) -> csr_array:
    """A[i, j] = w_j * kernel(theta, y_i, x_j) where >= KERNEL_FLOOR * max_j A[i, j].

    Built afresh on every call; `kernel_matrix` is the cached form.

    Each row is evaluated on a window of columns of one width, clipped into
    the grid, around the node nearest its centre y_i e^(-theta/2).  The
    window reaches sqrt(4 (1 - e^-theta) ln(2 / KERNEL_FLOOR)) + 2 dy past
    that node, which holds every entry at or above the floor: the row max
    is at least the entry of that node, which is within dy/2 of the centre
    and may be a half-weight end node, hence the ln 2.  The indices are
    int32 whenever the n * width window entries fit, as on every grid here.
    """
    if theta <= 0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    y, n = grid.y, grid.n
    half = np.sqrt(4.0 * (1.0 - np.exp(-theta)) * np.log(2.0 / KERNEL_FLOOR))
    reach = int(np.ceil(half / grid.dy)) + 2
    width = min(n, 2 * reach + 1)
    index = np.int32 if n * width <= np.iinfo(np.int32).max else np.int64
    centre = np.rint(y * np.exp(-0.5 * theta) / grid.dy).astype(index) + grid.n_half
    first = np.clip(centre - reach, 0, n - width)
    cols = first[:, None] + np.arange(width, dtype=index)
    vals = kernel_eval(theta, y[:, None], y[cols]) * grid.weights[cols]
    keep = vals >= KERNEL_FLOOR * vals.max(axis=1, keepdims=True)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return csr_array((vals[keep], cols[keep], indptr), shape=(n, n))


def kernel_matrix(theta: float, grid: Grid) -> csr_array:
    """Banded quadrature matrix A[i, j] = w_j * kernel(theta, y_i, x_j), cached."""
    key = _cache_key(theta, grid)
    mat = _MATRIX_CACHE.get(key)
    if mat is None:
        mat = banded_kernel(theta, grid)
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        _MATRIX_CACHE[key] = mat
    return mat


def apply_semigroup_values(theta: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """e^(theta L) on grid values: one field, or a (K, n) stack of rows,
    each propagated as it would be alone."""
    mat = kernel_matrix(theta, grid)
    if values.ndim == 2:
        return np.stack([mat @ row for row in values])
    return mat @ values


def apply_semigroup(theta: float, f: Field) -> Field:
    """Propagate a field by e^(theta L); rescaled time label is unchanged."""
    return Field(f.grid, apply_semigroup_values(theta, f.grid, f.values), f.s)


def interior_mask(grid: Grid) -> np.ndarray:
    """Nodes far enough inside the grid edge to check the kernel against
    its whole-line identities.

    Raises ValueError unless y = 0 and both its neighbours are among them.
    """
    margin = grid.y_max - _EDGE_COLLAR
    if margin < grid.dy:
        raise ValueError(
            f"grid half-width {grid.y_max!r} leaves no interior beyond the "
            f"kernel's edge collar of 8 sqrt(2) = {_EDGE_COLLAR:.4f}"
        )
    return np.abs(grid.y) <= margin


def _smoothing_sample(grid: Grid) -> list[np.ndarray]:
    """Ten fixed fields with O(1) values and gradients for the sweep."""
    y = grid.y
    fields = [
        np.exp(-(y**2) / 8.0),
        y * np.exp(-(y**2) / 8.0),
        np.exp(-((y - 2.0) ** 2) / 4.0),
        np.exp(-((y + 3.0) ** 2) / 6.0),
        np.tanh(y / 2.0),
        np.sin(y) * np.exp(-(y**2) / 10.0),
        np.cos(2.0 * y) * np.exp(-(y**2) / 6.0),
        1.0 / (1.0 + y**2),
        y / (1.0 + 0.25 * y**2),
        np.exp(-np.abs(y) / 2.0),
    ]
    return fields


def verify_smoothing(grid: Grid, thetas) -> dict:
    """Empirical constants of the two gradient smoothing estimates.

    For each theta and each field r of a fixed 10-field sample, form

        ratio1 = ||d/dy E r||_inf / (e^(theta/2) ||dr/dy||_inf)
        ratio2 = ||d/dy E r||_inf * sqrt(1-e^-theta) / (e^(theta/2) ||r||_inf)

    and return the per-theta maxima plus the overall constants.
    """
    rows = []
    for theta in thetas:
        th = float(theta)
        # Rows whose kernel mass is clipped by the finite grid would show
        # spurious boundary gradients; keep rows with an 8-sigma margin.
        sig = np.sqrt(2.0 * (1.0 - np.exp(-th)))
        valid = np.abs(grid.y * np.exp(-0.5 * th)) <= grid.y_max - 8.0 * sig
        r1 = r2 = 0.0
        for vals in _smoothing_sample(grid):
            out = apply_semigroup_values(th, grid, vals)
            gout = np.max(np.abs(gradient(grid, out))[valid])
            gin = np.max(np.abs(gradient(grid, vals)))
            sup = np.max(np.abs(vals))
            r1 = max(r1, gout / (np.exp(0.5 * th) * gin))
            r2 = max(
                r2, gout * np.sqrt(1.0 - np.exp(-th)) / (np.exp(0.5 * th) * sup)
            )
        rows.append({"theta": th, "ratio_grad_in": r1, "ratio_sup_in": r2})
    return {
        "rows": rows,
        "C_case1": max(r["ratio_grad_in"] for r in rows),
        "C_case2": max(r["ratio_sup_in"] for r in rows),
    }


def kernel_comparison_check(
    s: float,
    sigma: float,
    n_field: Field,
    envelope_scale: float | None = None,
    n_time: int = 33,
) -> dict:
    """Bound a source-term increment propagated over [sigma, s].

    Computes sup_y of integral_sigma^s e^((s-tau) L) |n_field| dtau by
    trapezoid in tau (the integrand at tau = s needs no kernel) and
    compares against envelope_scale * (s - sigma) * e^(s - sigma); with the
    default envelope_scale = sup|n_field| this is the crude mass bound, so
    the reported ratio must be <= 1 up to quadrature error.  Each of the
    n_time - 1 kernels is used once, so none is cached.
    """
    if not s > sigma:
        raise ValueError(f"need s > sigma, got s={s!r}, sigma={sigma!r}")
    grid = n_field.grid
    av = np.abs(n_field.values)
    taus = np.linspace(sigma, s, n_time)
    acc = np.zeros(grid.n)
    wts = np.full(n_time, (s - sigma) / (n_time - 1))
    wts[0] *= 0.5
    wts[-1] *= 0.5
    for tau, wt in zip(taus, wts):
        theta = s - tau
        vals = av if theta <= 0 else banded_kernel(theta, grid) @ av
        acc = acc + wt * vals
    bound_sup = float(np.max(acc))
    scale = float(np.max(av)) if envelope_scale is None else float(envelope_scale)
    envelope = scale * (s - sigma) * np.exp(s - sigma)
    return {
        "increment_sup": bound_sup,
        "envelope": envelope,
        "ratio": bound_sup / envelope if envelope > 0 else np.inf,
    }
