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
The grid is symmetric and the weights even, so the matrix is exactly
centrosymmetric, A[n-1-i, n-1-j] = A[i, j], and only the n_half + 1 rows
with y_i >= 0 are stored; a row i < n_half is row n-1-i applied to the
mirrored field.  Row i is a Gaussian centred at y_i e^(-theta/2), and it is
stored as a band: the W values of the columns from i + shift_b on, where
the shift is shared by a block b of consecutive rows.  The centre drifts by
1 - e^(-theta/2) columns per row against the diagonal, so W is the window
each row needs plus the drift across one block, and the blocks are sized to
keep that padding near a quarter of the window.  Entries below
KERNEL_FLOOR = 1e-17 of the row's max, and the columns past the grid edge,
are stored as 0.0.  The dropped mass is below 1e-16 of the row sum, a
truncation below roundoff, and every kept entry is bitwise the dense one.
Applying the band to a (K, n) stack is one product per block over a
strided, copy-free (2k, rows, W) window view of a zero-padded buffer that
holds k <= 4 of the fields and their mirrors, so each row of a stack is
bitwise its lone product, and an even (odd) field goes to an exactly even
(odd) one.  `kernel_matrix` is the one way to a kernel: it caches one band per
exact (theta, grid), for the step sizes (which also carry the Horner sum
of the integral-form check) and for the spacing of the kernel comparison's
quadrature alike, and `apply_semigroup_values` is the one way to apply it.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field, Grid, gradient

__all__ = [
    "kernel_eval",
    "band_layout",
    "BandKernel",
    "kernel_matrix",
    "apply_semigroup",
    "apply_semigroup_values",
    "interior_mask",
    "verify_smoothing",
    "kernel_comparison_check",
]

# entries below this fraction of their row's max are not stored
KERNEL_FLOOR = 1e-17

# window entries a build evaluates at once
_BUILD_ENTRIES = 2**13

# fields a product lays out at once, with their mirrors: the buffer of a
# much larger group pushes the band out of cache (2465 nodes, theta = 0.02,
# best of 10: 16 fields took 1.20 ms in groups of 4, 1.37 ms one by one and
# 1.60 ms in one group; 49 fields 3.62, 3.97 and 5.14 ms)
_STACKED = 4

# Nodes within 8 standard deviations of the widest kernel (variance
# 2(1 - e^-theta) < 2) of the grid edge see it clipped by the finite domain.
_EDGE_COLLAR = 8.0 * np.sqrt(2.0)

# (theta, grid) -> banded quadrature matrix
_MATRIX_CACHE: dict[tuple, BandKernel] = {}
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


def _band_reach(theta: float, dy: float) -> int:
    """Columns on each side of a row's centre node that hold every entry at
    or above the floor; theta = inf gives the widest band of any theta."""
    half = np.sqrt(4.0 * (1.0 - np.exp(-theta)) * np.log(2.0 / KERNEL_FLOOR))
    # half / dy overflows when dy is subnormal: a reach past any grid is
    # cut to 2**53, which stays a finite int, and the callers clip it to n
    return int(np.ceil(min(half, 2.0**53 * dy) / dy)) + 2


def band_layout(theta: float, grid: Grid) -> tuple[int, int, int]:
    """(reach, rows per block, stored width W) of the half band of e^(theta L).

    Row i needs the columns within `reach` of its centre node
    rint(y_i e^(-theta/2) / dy) + n_half; the window reaches
    sqrt(4 (1 - e^-theta) ln(2 / KERNEL_FLOOR)) + 2 dy past that node,
    which holds every entry at or above the floor: the row max is at least
    the entry of that node, which is within dy/2 of the centre and may be a
    half-weight end node, hence the ln 2.  Against the row index the centre
    falls behind by d = 1 - e^(-theta/2) per row, so over a block of R rows
    the window start moves by at most ceil((R - 1) d) + 1 columns less than
    the row: that is the padding a shared shift needs.  The n_half + 1
    stored rows y >= 0 are cut into blocks of about window / (4 d) rows,
    which keeps the padding near a quarter of the window.  Closed form, so
    that it sizes grids too large to build.
    """
    reach = min(_band_reach(theta, grid.dy), grid.n)
    window = 2 * reach + 1
    drift = float(1.0 - np.exp(-0.5 * theta))
    stored = grid.n_half + 1
    rows = -(-stored // max(1, math.ceil(4.0 * stored * drift / window)))
    return reach, rows, window + math.ceil((rows - 1) * drift) + 1


def _windows(buf: np.ndarray, shape: tuple, first: int, steps: tuple):
    """A copy-free view of the flat data of buf: entry (a, ..., z) is the
    one at first + a * steps[0] + ... + z * steps[-1]."""
    item = buf.itemsize
    return np.ndarray(
        shape, buffer=buf, offset=first * item, strides=[step * item for step in steps]
    )


class BandKernel:
    """The (n, n) quadrature matrix of e^(theta L), stored as the sheared
    band of its rows y >= 0.

    `data` is (n_half + 1, W): its row r is matrix row n_half + r and holds
    the columns from start_r on, where start_r = r + n_half + shift_b on
    the rows of block b.  A product lays k fields and then their mirrors
    out as the rows of a zero-padded (2k, length) buffer, with `left`
    zeros in front and zeros behind, so every window lies inside it.  `blocks` lists (stored rows, their values, index in a padded row
    of the first row's window).
    """

    def __init__(self, data: np.ndarray, blocks: list, left: int, length: int):
        self.data = data
        n = 2 * data.shape[0] - 1
        self.shape = (n, n)
        self._blocks = blocks
        self._left = left
        self._length = length

    @property
    def nnz(self) -> int:
        """Stored entries, zeros included."""
        return self.data.size

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The product with one field, or with each row of a (K, n) stack
        as it would be alone.

        Matrix row n_half + r is stored row r against the field, and row
        n_half - r is stored row r against the mirrored field; row n_half
        is the mean of the two, so an odd field goes to exactly 0 there.
        A stack is laid out _STACKED fields at a time."""
        stored, width = self.data.shape
        n, length, left = self.shape[0], self._length, self._left
        rows = values.reshape(-1, n)
        out = np.empty(values.shape)
        flat = out.reshape(-1, n)
        group = min(len(rows), _STACKED)
        padded = np.zeros((2 * group, length))
        half = np.empty((2 * group, stored))
        for lo in range(0, len(rows), _STACKED):
            fields = rows[lo:lo + _STACKED]
            k = len(fields)
            padded[:k, left:left + n] = fields
            padded[k:2 * k, left:left + n] = fields[:, ::-1]
            for block, vals, first in self._blocks:
                win = _windows(padded, (2 * k, len(vals), width), first, (length, 1, 1))
                np.einsum("ij,bij->bi", vals, win, out=half[:2 * k, block])
            dest = flat[lo:lo + k]
            dest[:, stored - 1:] = half[:k]
            dest[:, :stored - 1] = half[k:2 * k, :0:-1]
            dest[:, stored - 1] = (half[:k, 0] + half[k:2 * k, 0]) * 0.5
        return out

    def toarray(self) -> np.ndarray:
        """The dense (n, n) matrix."""
        stored = self.data.shape[0]
        n, length = self.shape[0], self._length
        wide = np.zeros((stored, length))
        for block, vals, first in self._blocks:
            start = block.start * length + first
            _windows(wide, vals.shape, start, (length + 1, 1))[...] = vals
        dense = np.empty((n, n))
        dense[stored - 1:] = wide[:, self._left:self._left + n]
        dense[:stored - 1] = dense[:stored - 1:-1, ::-1]
        return dense


def _banded_kernel(theta: float, grid: Grid) -> BandKernel:
    """A[i, j] = w_j * kernel(theta, y_i, x_j) where >= KERNEL_FLOOR * max_j A[i, j],
    on the rows i >= n_half.

    Built afresh on every call; `kernel_matrix` caches it.  The band is
    evaluated in chunks of rows, each of them by `kernel_eval` against a
    window view of the padded node positions, so the build holds little
    beyond the band it returns.
    """
    if theta <= 0:
        raise ValueError(f"theta must be > 0, got {theta!r}")
    n, n_half = grid.n, grid.n_half
    reach, rows, width = band_layout(theta, grid)
    firsts = np.arange(n_half, n, rows)
    lasts = np.minimum(firsts + rows, n) - 1
    centre = np.rint(grid.y[lasts] * np.exp(-0.5 * theta) / grid.dy).astype(np.int64)
    # the window of row i starts at column i + shift of its block; the
    # centre falls behind the row, so the block's last row sets the shift
    shifts = centre + n_half - reach - lasts
    left = max(0, -int(np.min(firsts + shifts)))
    length = left + max(n, int(np.max(lasts + shifts)) + width)
    # node positions and weights on the padded columns, zero weight off the
    # grid; the grid part is bitwise grid.y
    ys = (np.arange(-left, length - left) - n_half) * grid.dy
    ws = np.zeros(length)
    ws[left:left + n] = grid.weights
    data = np.empty((n - n_half, width))
    chunk = max(1, _BUILD_ENTRIES // width)
    blocks = []
    for first, last, shift in zip(firsts.tolist(), lasts.tolist(), shifts.tolist()):
        start = left + first + shift
        for r0 in range(first, last + 1, chunk):
            r1 = min(r0 + chunk, last + 1)
            at, shape = start + r0 - first, (r1 - r0, width)
            vals = data[r0 - n_half:r1 - n_half]
            np.multiply(
                kernel_eval(theta, grid.y[r0:r1, None], _windows(ys, shape, at, (1, 1))),
                _windows(ws, shape, at, (1, 1)),
                out=vals,
            )
            vals[vals < KERNEL_FLOOR * vals.max(axis=1, keepdims=True)] = 0.0
        block = slice(first - n_half, last + 1 - n_half)
        blocks.append((block, data[block], start))
    return BandKernel(data, blocks, left, length)


def kernel_matrix(theta: float, grid: Grid) -> BandKernel:
    """Banded quadrature matrix A[i, j] = w_j * kernel(theta, y_i, x_j), cached."""
    key = (float(theta), grid)
    mat = _MATRIX_CACHE.get(key)
    if mat is None:
        mat = _banded_kernel(theta, grid)
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        _MATRIX_CACHE[key] = mat
    return mat


def apply_semigroup_values(theta: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """e^(theta L) on grid values: one field, or a (K, n) stack of rows,
    each propagated as it would be alone."""
    return kernel_matrix(theta, grid).apply(values)


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
) -> dict:
    """Bound a source-term increment propagated over [sigma, s].

    Computes sup_y of integral_sigma^s e^((s-tau) L) |n_field| dtau by
    trapezoid in tau over 33 evenly spaced times and compares against the
    crude mass bound sup|n_field| * (s - sigma) * e^(s - sigma), so the
    reported ratio must be <= 1 up to quadrature error.  The integrand does
    not depend on tau, so the sum is taken by Horner's rule in time: the
    cached kernel of the spacing h = (s - sigma)/32 carries the
    accumulator from each time to the next,
    acc <- e^(h L) acc + w |n_field|.  The clipped kernels compose exactly
    only inside the edge collar, so the sup is the one of a kernel per time
    as long as it lies there; a field that is O(1) near the grid edge loses
    mass past the edge at every step and reads low.
    """
    if not s > sigma:
        raise ValueError(f"need s > sigma, got s={s!r}, sigma={sigma!r}")
    grid = n_field.grid
    av = np.abs(n_field.values)
    n_gaps = 32
    h = (s - sigma) / n_gaps
    acc = 0.5 * h * av
    for k in range(1, n_gaps + 1):
        acc = apply_semigroup_values(h, grid, acc) + (0.5 * h if k == n_gaps else h) * av
    bound_sup = float(np.max(acc))
    envelope = float(np.max(av)) * (s - sigma) * np.exp(s - sigma)
    return {
        "increment_sup": bound_sup,
        "envelope": envelope,
        "ratio": bound_sup / envelope if envelope > 0 else np.inf,
    }
