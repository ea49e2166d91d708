"""Uniform symmetric grids and gridded fields.

Every spatial object in the package lives on a uniform grid over
[-y_max, y_max] with an odd number of nodes, so y = 0 is always a node and
reflection symmetry is exactly representable.  Quadrature against the grid
is composite trapezoid (interior weight dy, endpoint weight dy/2), which is
spectrally accurate for the Gaussian-decaying integrands used here.

A field holds one set of grid values, shape (n,), or a stack of K fields
at the same time as the rows of a C-contiguous (K, n) array; row-wise
operations (sup, gradient) act along the last axis.  The grid is exactly
symmetric, y[n_half - k] = -y[n_half + k], so an expression that is even
(odd) in y, evaluated on the n_half + 1 nodes y >= 0 and then `mirror`ed,
is bitwise that expression on the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "Field", "make_grid", "default_y_max", "gradient", "ipow", "mirror", "per_row"]


@dataclass(frozen=True, eq=True)
class Grid:
    """Uniform symmetric 1-d grid; n = 2*n_half + 1 nodes, spacing dy.
    Frozen, so a grid is its own cache key."""

    n_half: int
    dy: float

    @property
    def n(self) -> int:
        return 2 * self.n_half + 1

    @property
    def y_max(self) -> float:
        return self.n_half * self.dy

    @cached_property
    def y(self) -> np.ndarray:
        y = (np.arange(self.n) - self.n_half) * self.dy
        y.flags.writeable = False
        return y

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-trapezoid quadrature weights."""
        w = np.full(self.n, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        w.flags.writeable = False
        return w


def make_grid(y_max: float, dy: float) -> Grid:
    """Grid covering [-y_max, y_max]; y_max is rounded up to a multiple of dy."""
    if not (0.0 < y_max < np.inf and 0.0 < dy < np.inf and y_max / dy < np.inf):
        raise ValueError(
            f"need finite y_max > 0 and dy > 0 with a finite ratio, got {y_max!r}, {dy!r}"
        )
    n_half = int(np.ceil(y_max / dy - 1e-12))
    return Grid(n_half=n_half, dy=float(dy))


def default_y_max(K0: float, s_max: float) -> float:
    """Domain half-width wide enough to contain the cutoff support at s_max:
    the support's half-width 2 K0 sqrt(s_max) plus 5, and at least 20."""
    return max(20.0, 2.0 * K0 * np.sqrt(s_max) + 5.0)


@dataclass
class Field:
    """Values sampled on a grid at rescaled time s, one field or K rows."""

    grid: Grid
    values: np.ndarray
    s: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.grid.n:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.s)

    def sup(self):
        """Sup norm: a float for one field, one per row for a stack."""
        return per_row(np.max(np.abs(self.values), axis=-1))


def per_row(x):
    """A row-wise reduction as a float for one field, as is for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def gradient(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Centered first differences, one-sided at the two boundary nodes (per
    row), into out if given; the same arithmetic as
    `np.gradient(values, grid.dy, axis=-1)`."""
    n, dy = values.shape[-1], grid.dy
    out = np.empty_like(values, dtype=float) if out is None else out
    inner = np.subtract(values[..., 2:], values[..., :-2], out=out[..., 1:-1])
    inner /= 2.0 * dy
    # the two ends at once: nodes (1, n-1) minus nodes (0, n-2)
    ends = np.subtract(values[..., 1::n - 2], values[..., : n - 1 : n - 2], out=out[..., :: n - 1])
    ends /= dy
    return out


def mirror(half: np.ndarray, odd: bool = False) -> np.ndarray:
    """Rows on the full grid from their values on the nodes y >= 0 (the
    last axis), extended as even functions of y, or as odd ones: each node
    y < 0 gets its mirror node's value, negated if odd."""
    left = half[..., :0:-1]
    return np.concatenate((-left if odd else left, half), axis=-1)


def ipow(x, e: float):
    """x ** e, in place where x is an array; x ** 1 is x itself, bit for
    bit, so that power is skipped."""
    if e != 1.0:
        x **= e
    return x
