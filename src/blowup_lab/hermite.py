"""Gaussian-weighted spectral toolbox for the rescaled linear operator.

The drift-diffusion operator

    L = d2/dy2 - y/2 d/dy + 1

is self-adjoint in L^2(rho) with Gaussian weight

    rho(y) = exp(-y^2/4) / sqrt(4 pi),

and is diagonalized by the polynomial family

    h_0 = 1,  h_1 = y,  h_2 = y^2 - 2,  h_3 = y^3 - 6y, ...
    h_{m+1} = y h_m - 2 m h_{m-1},          L h_m = (1 - m/2) h_m,

with squared norms ||h_m||^2 = integral(h_m^2 rho) = 2^m m!.  Only the
modes m = 0, 1 are expanding and m = 2 is neutral; everything above decays,
which is what the trap-set argument exploits.

A solution-sized field q is split into five tracked components.  With the
radial cutoff chi(y, s) (identically one inside |y| <= K0 sqrt(s), zero
outside twice that radius) set q_b = q*chi and q_e = q*(1-chi); then

    q = q0 h0 + q1 h1 + q2 h2 + q_minus + q_e,

where q_m are the rho-projections of q_b onto h_m and q_minus is the
projection residue q_b - sum(q_m h_m), rho-orthogonal to h_0, h_1, h_2.
The reconstruction above is exact at every node by construction.

The decomposition and the seminorm act row-wise on a stack of fields
(see `grids`), as do `SpectralDecomp.reconstruct` and the derived
bounds of `trapset`: one cutoff chi (evaluated on the nodes y >= 0 and
mirrored, since it is even) and one support slice serve every row, and
rho, h_0..h_2 and the cubic weight 1 + |y|^3 are built once per grid, as
one cached table.  Each row's amplitudes are the same trapezoid sums, in
the same order, as for that field alone.
`decompose_values` is the split itself, on bare arrays; `decompose` and
the trajectory observation both run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

from .grids import Field, Grid, gradient, mirror, per_row

__all__ = [
    "weight_rho",
    "hermite_h",
    "hermite_h_explicit",
    "hermite_norm_sq",
    "inner_rho",
    "cutoff_chi",
    "cutoff_support",
    "SpectralDecomp",
    "check_cutoff_support",
    "decompose_values",
    "decompose",
    "seminorm_minus",
    "cubic_weighted_sup",
    "apply_L_discrete",
]


def weight_rho(y):
    """Gaussian weight rho(y) = exp(-y^2/4)/sqrt(4 pi); unit total mass."""
    y = np.asarray(y, dtype=float)
    return np.exp(-0.25 * y**2) / np.sqrt(4.0 * np.pi)


def hermite_h(m: int, y):
    """Eigenfunction h_m via the stable three-term recurrence."""
    if m < 0:
        raise ValueError(f"mode index must be >= 0, got {m}")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if m == 0:
        return h_prev
    h_cur = y.copy()
    for k in range(1, m):
        h_prev, h_cur = h_cur, y * h_cur - 2.0 * k * h_prev
    return h_cur


def hermite_h_explicit(m: int, y):
    """Reference evaluation from the explicit finite sum.

    h_m(y) = sum_{n=0}^{floor(m/2)} m!/(n! (m-2n)!) (-1)^n y^(m-2n);
    used only to cross-check the recurrence in tests.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for n in range(m // 2 + 1):
        coef = factorial(m) / (factorial(n) * factorial(m - 2 * n)) * (-1.0) ** n
        out = out + coef * y ** (m - 2 * n)
    return out


def hermite_norm_sq(m: int) -> float:
    """Exact squared weighted norm integral(h_m^2 rho) = 2^m m!."""
    return float(2**m * factorial(m))


@lru_cache(maxsize=8)
def _grid_rows(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho, the (3, n) rows h_0, h_1, h_2 and the cubic weight 1 + |y|^3 on
    the nodes of a grid, built once per grid."""
    rho, modes = weight_rho(grid.y), np.array([hermite_h(m, grid.y) for m in range(3)])
    cubic = 1.0 + np.abs(grid.y) ** 3
    rho.flags.writeable = modes.flags.writeable = cubic.flags.writeable = False
    return rho, modes, cubic


def inner_rho(grid: Grid, fvals: np.ndarray, gvals: np.ndarray):
    """Trapezoid quadrature of f*g against the Gaussian weight; per row for
    a stack, summed along the row so that a stacked row matches its lone
    field."""
    rho, _, _ = _grid_rows(grid)
    return per_row(np.sum(grid.weights * fvals * gvals * rho, axis=-1))


def cutoff_chi(y, s: float, K0: float):
    """Radial cutoff chi = chi0(|y|/(K0 sqrt(s))).

    chi0 is 1 on [0,1], 0 on [2,inf) and bridges (1,2) with the smooth
    monotone ramp exp(1 - 1/(1 - (r-1)^2)).
    """
    if K0 <= 0 or s <= 0:
        raise ValueError(f"need K0 > 0 and s > 0, got K0={K0!r}, s={s!r}")
    r = np.abs(np.asarray(y, dtype=float)) / (K0 * np.sqrt(s))
    out = np.ones_like(r)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    t = r[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - t**2))
    return out


@dataclass
class SpectralDecomp:
    """Five-component split of a field at rescaled time s.

    q0, q1, q2 are the expanding/neutral mode amplitudes of the cutoff part;
    q_minus is the projection residue (rho-orthogonal to h_0, h_1, h_2) and
    q_e the outer part supported where the cutoff has died.  For a stack
    of fields the amplitudes are arrays with one entry per row.  `support`
    is `cutoff_support` at s, taken once with the split.
    """

    q0: float | np.ndarray
    q1: float | np.ndarray
    q2: float | np.ndarray
    q_minus: Field
    q_e: Field
    K0: float
    s: float
    support: slice = field(init=False)

    def __post_init__(self) -> None:
        self.support = cutoff_support(self.q_minus.grid, self.K0, self.s)

    def cutoff_part(self) -> np.ndarray:
        """q_b = q0 h0 + q1 h1 + q2 h2 + q_minus, row by row for a stack."""
        _, (h0, h1, h2), _ = _grid_rows(self.q_minus.grid)
        q0, q1, q2 = (np.asarray(a)[..., None] for a in (self.q0, self.q1, self.q2))
        return q0 * h0 + q1 * h1 + q2 * h2 + self.q_minus.values

    def reconstruct(self) -> np.ndarray:
        """q_b + q_e: the decomposed field, row by row for a stack."""
        return self.cutoff_part() + self.q_e.values


def cutoff_support(grid: Grid, K0: float, s: float) -> slice:
    """The nodes of the cutoff's support at time s, |y| <= 2*K0*sqrt(s): one
    run around y = 0 on the sorted symmetric grid, so a slice (a view)."""
    k = int(np.searchsorted(grid.y[grid.n_half:], 2.0 * K0 * np.sqrt(s), "right"))
    return slice(grid.n_half + 1 - k, grid.n_half + k)


def check_cutoff_support(y_max: float, K0: float, s: float) -> None:
    """Raise ValueError unless a grid of half-width y_max holds the cutoff
    support at time s, 2*K0*sqrt(s) <= y_max."""
    if 2.0 * K0 * np.sqrt(s) > y_max + 1e-9:
        raise ValueError(
            f"grid too narrow: need y_max >= 2*K0*sqrt(s) = "
            f"{2.0 * K0 * np.sqrt(s):.2f}, have y_max = {y_max:.2f}"
        )


_NORMS = np.array([hermite_norm_sq(m) for m in range(3)])


def decompose_values(grid: Grid, values: np.ndarray, s: float, K0: float) -> tuple:
    """(q0, q1, q2 along the last axis, q_minus, q_e) of one field or a
    stack of values at time s; see `decompose`."""
    check_cutoff_support(grid.y_max, K0, s)
    chi = mirror(cutoff_chi(grid.y[grid.n_half:], s, K0))
    qb = values * chi
    rho, modes, _ = _grid_rows(grid)
    wqb = grid.weights * qb
    amps = np.empty(qb.shape[:-1] + (3,))
    recon, tmp = np.zeros_like(qb), np.empty_like(qb)
    # one mode at a time, so that no array is larger than the field
    for m, hm in enumerate(modes):
        # ((w qb) h_m) rho summed along each row: the product order of inner_rho
        np.multiply(wqb, hm, out=tmp)
        tmp *= rho
        amps[..., m] = tmp.sum(axis=-1) / _NORMS[m]
        recon += np.multiply(amps[..., m, None], hm, out=tmp)
    qb -= recon  # the projection residue
    return amps, qb, values * np.subtract(1.0, chi, out=chi)


def decompose(q: Field, K0: float) -> SpectralDecomp:
    """Split q (one field or a stack) into mode amplitudes, projection
    residue, and outer part.

    Requires the grid to contain the full cutoff support (see
    `check_cutoff_support`); the projections use the analytic norms 2^m m!.
    """
    amps, q_minus, q_e = decompose_values(q.grid, q.values, q.s, K0)
    amps = amps.T if amps.ndim == 2 else amps.tolist()
    return SpectralDecomp(*amps, Field(q.grid, q_minus, q.s), Field(q.grid, q_e, q.s), K0, q.s)


def cubic_weighted_sup(grid: Grid, values: np.ndarray, mask=None):
    """sup over nodes of |values| / (1 + |y|^3), optionally restricted to
    the nodes a mask or slice selects; per row for a stack."""
    _, _, weight = _grid_rows(grid)
    if mask is not None:
        values, weight = values[..., mask], weight[mask]
        if weight.size == 0:
            return per_row(np.zeros(values.shape[:-1]))
    return per_row((np.abs(values) / weight).max(axis=-1))


def seminorm_minus(d: SpectralDecomp):
    """Cubic-weighted sup of the projection residue.

    Restricted to the cutoff support |y| <= 2*K0*sqrt(s), the region where
    the residue carries actual field content; outside it the residue is the
    analytic continuation of the subtracted polynomial.
    """
    return cubic_weighted_sup(d.q_minus.grid, d.q_minus.values, d.support)


def apply_L_discrete(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centered-difference discretization of L = d2/dy2 - y/2 d/dy + 1.

    One-sided first differences at the two boundary nodes; second
    differences there reuse the adjacent interior stencil, which is enough
    because every test weights the result by the Gaussian.
    """
    dy = grid.dy
    y = grid.y
    lap = np.empty_like(values)
    lap[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dy**2
    lap[0] = (values[2] - 2.0 * values[1] + values[0]) / dy**2
    lap[-1] = (values[-1] - 2.0 * values[-2] + values[-3]) / dy**2
    grad = gradient(grid, values)
    return lap - 0.5 * y * grad + values
