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

Discrete application is plain trapezoid quadrature of the kernel, one dense
matrix per (theta, grid), cached; exactness of the Gaussian quadrature on
these grids matters more than speed, so no FFT shortcut is taken.  For a
short step the kernel underflows to exact zeros a few widths off the
diagonal, so the product skips those entries: each block of rows is
multiplied over the columns that hold its nonzero entries only.  The sum
has the same terms, in a different order, so it agrees with the full
product to roundoff.
"""

from __future__ import annotations

import numpy as np

from .grids import Field, Grid, gradient

__all__ = [
    "kernel_eval",
    "kernel_matrix",
    "apply_semigroup",
    "apply_semigroup_values",
    "verify_smoothing",
    "kernel_comparison_check",
]

# (theta, grid) -> (matrix, its row blocks as (row start, row end, column
# start, column end), each column span holding that block's nonzero entries)
_MATRIX_CACHE: dict[tuple, tuple[np.ndarray, list[tuple[int, int, int, int]]]] = {}
_MATRIX_CACHE_LIMIT = 40
_BLOCK_ROWS = 64


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


def _row_blocks(mat: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Blocks of _BLOCK_ROWS rows, each with the column span of its nonzeros."""
    n_rows, n_cols = mat.shape
    nonzero = mat != 0.0
    first = np.argmax(nonzero, axis=1)  # an all-zero row spans every column
    stop = n_cols - np.argmax(nonzero[:, ::-1], axis=1)
    blocks = []
    for r0 in range(0, n_rows, _BLOCK_ROWS):
        r1 = min(n_rows, r0 + _BLOCK_ROWS)
        blocks.append((r0, r1, int(first[r0:r1].min()), int(stop[r0:r1].max())))
    return blocks


def kernel_matrix(theta: float, grid: Grid) -> np.ndarray:
    """Dense quadrature matrix A[i, j] = w_j * kernel(theta, y_i, x_j), cached."""
    key = _cache_key(theta, grid)
    entry = _MATRIX_CACHE.get(key)
    if entry is None:
        y = grid.y
        mat = kernel_eval(theta, y[:, None], y[None, :]) * grid.weights[None, :]
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        entry = _MATRIX_CACHE[key] = (mat, _row_blocks(mat))
    return entry[0]


def apply_semigroup_values(theta: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """kernel_matrix(theta, grid) @ values, skipping the kernel's zero entries."""
    mat = kernel_matrix(theta, grid)
    out = np.empty(np.shape(values))
    for r0, r1, c0, c1 in _MATRIX_CACHE[_cache_key(theta, grid)][1]:
        out[r0:r1] = mat[r0:r1, c0:c1] @ values[c0:c1]
    return out


def apply_semigroup(theta: float, f: Field) -> Field:
    """Propagate a field by e^(theta L); rescaled time label is unchanged."""
    return Field(f.grid, apply_semigroup_values(theta, f.grid, f.values), f.s)


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
    the reported ratio must be <= 1 up to quadrature error.
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
        vals = av if theta <= 0 else apply_semigroup_values(theta, grid, av)
        acc = acc + wt * vals
    bound_sup = float(np.max(acc))
    scale = float(np.max(av)) if envelope_scale is None else float(envelope_scale)
    envelope = scale * (s - sigma) * np.exp(s - sigma)
    return {
        "increment_sup": bound_sup,
        "envelope": envelope,
        "ratio": bound_sup / envelope if envelope > 0 else np.inf,
    }
