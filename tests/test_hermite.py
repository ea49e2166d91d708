"""Weighted Hermite family, cutoff decomposition, and the discrete operator.

The continuous facts (recurrence/explicit-sum agreement, norms 2^m m!,
orthogonality) are grid-quadrature statements here, so the tolerances say as
much about the trapezoid rule on Gaussian tails as about the algebra; all
are far below anything the dynamics tests rely on.
"""

import numpy as np
import pytest

from blowup_lab.grids import Field, make_grid
from blowup_lab.hermite import (
    SpectralDecomp,
    apply_L_discrete,
    cubic_weighted_sup,
    cutoff_chi,
    decompose,
    hermite_h,
    hermite_h_explicit,
    hermite_norm_sq,
    inner_rho,
    seminorm_minus,
    weight_rho,
)

# ---------------------------------------------------------------------------
# eigenfunctions and weight


def test_first_four_polynomials_by_hand():
    y = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(hermite_h(0, y), 1.0)
    assert np.allclose(hermite_h(1, y), y)
    assert np.allclose(hermite_h(2, y), y**2 - 2.0)
    assert np.allclose(hermite_h(3, y), y**3 - 6.0 * y)
    assert hermite_h(2, 0.0) == -2.0
    assert hermite_h(3, 2.0) == pytest.approx(-4.0)


@pytest.mark.parametrize("m", range(9))
def test_recurrence_matches_explicit_sum(m):
    y = np.linspace(-8.0, 8.0, 201)
    a = hermite_h(m, y)
    b = hermite_h_explicit(m, y)
    scale = np.max(np.abs(b)) or 1.0
    assert np.max(np.abs(a - b)) / scale < 1e-13


def test_negative_mode_rejected():
    with pytest.raises(ValueError, match="mode index"):
        hermite_h(-1, np.zeros(3))


def test_weight_rho_values():
    assert weight_rho(0.0) == pytest.approx(1.0 / np.sqrt(4.0 * np.pi), rel=1e-15)
    assert weight_rho(0.0) == pytest.approx(0.2820948, abs=1e-7)
    y = np.linspace(-1.0, 1.0, 5)
    assert np.allclose(weight_rho(y), weight_rho(-y))


def test_weight_rho_unit_mass(grid20):
    mass = float(np.sum(grid20.weights * weight_rho(grid20.y)))
    assert abs(mass - 1.0) <= 1e-12


def test_norms_small_m():
    assert [hermite_norm_sq(m) for m in range(4)] == [1.0, 2.0, 8.0, 48.0]


def test_gram_matrix_matches_analytic_norms(grid20):
    n_modes = 6
    for m in range(n_modes):
        hm = hermite_h(m, grid20.y)
        for n in range(n_modes):
            val = inner_rho(grid20, hm, hermite_h(n, grid20.y))
            expected = hermite_norm_sq(m) if m == n else 0.0
            # relative to the larger norm in play
            scale = hermite_norm_sq(max(m, n))
            assert abs(val - expected) / scale < 1e-8, (m, n, val)


def test_inner_rho_is_symmetric_bilinear(grid20):
    f = np.sin(grid20.y) * np.exp(-grid20.y**2 / 10.0)
    g = hermite_h(2, grid20.y)
    assert inner_rho(grid20, f, g) == pytest.approx(inner_rho(grid20, g, f), rel=1e-15)
    assert inner_rho(grid20, 2.0 * f, g) == pytest.approx(
        2.0 * inner_rho(grid20, f, g), rel=1e-14
    )


# ---------------------------------------------------------------------------
# cutoff


def test_cutoff_plateau_and_support():
    s, K0 = 25.0, 2.0  # radius K0 sqrt(s) = 10
    y = np.array([0.0, 5.0, 9.999, 10.001, 15.0, 19.0, 20.001, 30.0])
    chi = cutoff_chi(y, s, K0)
    assert np.all(chi[:3] == 1.0)
    assert 0.0 < chi[3] < 1.0 and 0.0 < chi[5] < 1.0
    assert np.all(chi[6:] == 0.0)
    assert chi[4] == pytest.approx(np.exp(1.0 - 1.0 / (1.0 - 0.25)), rel=1e-12)


def test_cutoff_monotone_on_bridge():
    y = np.linspace(10.0, 20.0, 2001)
    chi = cutoff_chi(y, 25.0, 2.0)
    assert np.all(np.diff(chi) <= 0.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))


def test_cutoff_even():
    y = np.linspace(0.0, 25.0, 101)
    assert np.allclose(cutoff_chi(y, 25.0, 2.0), cutoff_chi(-y, 25.0, 2.0))


def test_cutoff_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cutoff_chi(np.zeros(3), -1.0, 2.0)
    with pytest.raises(ValueError):
        cutoff_chi(np.zeros(3), 25.0, 0.0)


# ---------------------------------------------------------------------------
# decomposition


def _field(grid, values, s=20.0):
    return Field(grid=grid, values=values, s=s)


def test_decompose_narrow_grid_rejected():
    g = make_grid(20.0, 0.05)
    with pytest.raises(ValueError, match="grid too narrow"):
        decompose(_field(g, np.zeros(g.n), s=20.0), K0=4.0)  # needs 2*4*sqrt(20) ~ 35.8


def test_decompose_zero_field(grid20):
    d = decompose(_field(grid20, np.zeros(grid20.n)), K0=2.0)
    assert (d.q0, d.q1, d.q2) == (0.0, 0.0, 0.0)
    assert d.q_minus.sup() == 0.0 and d.q_e.sup() == 0.0
    assert seminorm_minus(d) == 0.0


def test_decompose_reconstruction_is_exact(grid20):
    y = grid20.y
    vals = 1e-3 * np.exp(-(y**2) / 6.0) * (1.0 + 0.3 * y) + 2e-4 * np.tanh(y / 3.0)
    d = decompose(_field(grid20, vals), K0=2.0)
    assert np.max(np.abs(d.reconstruct() - vals)) < 1e-16


def test_decompose_pure_modes(grid20):
    # a field that is already a combination of h0, h1, h2 inside the cutoff
    # support comes back with those amplitudes (up to the cutoff bite, which
    # only removes Gaussian-tail mass)
    y = grid20.y
    vals = 0.25 * hermite_h(0, y) - 0.5 * hermite_h(1, y) + 0.125 * hermite_h(2, y)
    d = decompose(_field(grid20, vals, s=16.0), K0=2.0)  # support radius 8..16
    assert d.q0 == pytest.approx(0.25, abs=5e-8)
    assert d.q1 == pytest.approx(-0.5, abs=5e-8)
    assert d.q2 == pytest.approx(0.125, abs=5e-8)


def test_decompose_parity_routes_odd_to_q1(grid20):
    y = grid20.y
    d = decompose(_field(grid20, 0.1 * y * np.exp(-(y**2) / 12.0), s=16.0), K0=2.0)
    assert d.q0 == pytest.approx(0.0, abs=1e-15)
    assert d.q2 == pytest.approx(0.0, abs=1e-15)
    assert abs(d.q1) > 1e-3


def test_decompose_linearity(grid20):
    y = grid20.y
    a = np.exp(-(y**2) / 5.0)
    b = np.tanh(y / 4.0) * np.exp(-(y**2) / 30.0)
    da = decompose(_field(grid20, a, s=16.0), K0=2.0)
    db = decompose(_field(grid20, b, s=16.0), K0=2.0)
    dab = decompose(_field(grid20, a + 2.0 * b, s=16.0), K0=2.0)
    assert dab.q0 == pytest.approx(da.q0 + 2.0 * db.q0, rel=1e-12)
    assert dab.q1 == pytest.approx(da.q1 + 2.0 * db.q1, rel=1e-12, abs=1e-15)
    assert np.allclose(
        dab.q_minus.values, da.q_minus.values + 2.0 * db.q_minus.values, atol=1e-14
    )


def test_decompose_outer_part(grid20):
    # content supported entirely beyond 2 K0 sqrt(s) lands in q_e untouched
    y = grid20.y
    far = np.where(np.abs(y) >= 17.0, 0.3, 0.0)
    d = decompose(_field(grid20, far, s=16.0), K0=2.0)  # cutoff dies at 16
    assert d.q0 == d.q1 == d.q2 == 0.0
    assert d.q_minus.sup() == 0.0
    assert np.array_equal(d.q_e.values, far)


def test_residue_is_weighted_orthogonal(grid20):
    y = grid20.y
    vals = np.exp(-(y**2) / 7.0) * (1.0 + 0.5 * y - 0.2 * y**2)
    d = decompose(_field(grid20, vals, s=16.0), K0=2.0)
    for m in range(3):
        proj = inner_rho(grid20, d.q_minus.values, hermite_h(m, y))
        assert abs(proj) < 1e-13, m


# ---------------------------------------------------------------------------
# seminorm


def test_cubic_weighted_sup_basics(grid20):
    vals = np.zeros(grid20.n)
    assert cubic_weighted_sup(grid20, vals) == 0.0
    vals[grid20.n_half] = 2.0  # at y = 0 the weight is 1
    assert cubic_weighted_sup(grid20, vals) == 2.0
    # homogeneity
    y = grid20.y
    w = np.cos(y) * np.exp(-np.abs(y))
    assert cubic_weighted_sup(grid20, 3.0 * w) == pytest.approx(
        3.0 * cubic_weighted_sup(grid20, w), rel=1e-15
    )


def test_cubic_weighted_sup_empty_mask(grid20):
    assert cubic_weighted_sup(grid20, np.ones(grid20.n), mask=np.zeros(grid20.n, bool)) == 0.0


def test_h3_cubic_weighted_sup():
    # fine scan of |y^3 - 6y| / (1 + |y|^3): the max is 2.87404 near |y| = 0.72,
    # where the numerator is dominated by the -6y term
    g = make_grid(12.0, 0.0001)
    val = cubic_weighted_sup(g, hermite_h(3, g.y))
    assert val == pytest.approx(2.8740406, abs=1e-5)


def test_seminorm_minus_support_restriction(grid20):
    # build a decomposition whose residue has a large far-field polynomial
    # tail; the seminorm is taken on the support only and must not see it
    y = grid20.y
    vals = np.exp(-(y**2) / 4.0) * (1.0 - 0.3 * y**2)
    d = decompose(_field(grid20, vals, s=16.0), K0=1.0)  # support: |y| <= 8
    mask = np.abs(y) <= 8.0
    assert seminorm_minus(d) == pytest.approx(
        cubic_weighted_sup(grid20, d.q_minus.values, mask), rel=1e-15
    )
    assert seminorm_minus(d) <= cubic_weighted_sup(grid20, d.q_minus.values)


# ---------------------------------------------------------------------------
# discrete operator


@pytest.mark.parametrize("m", [0, 1, 2])
def test_discrete_L_exact_on_low_modes(m):
    # centered differences reproduce polynomials of degree <= 2 exactly
    g = make_grid(20.0, 0.05)
    hm = hermite_h(m, g.y)
    resid = apply_L_discrete(g, hm) - (1.0 - 0.5 * m) * hm
    nrm = np.sqrt(inner_rho(g, resid, resid))
    assert nrm < 1e-11


@pytest.mark.parametrize(
    "m,e_coarse",
    [(3, 1.767767e-3), (4, 1.500000e-2), (5, 9.354311e-2)],
)
def test_discrete_L_second_order(m, e_coarse):
    """Weighted defect of L_h h_m halves its dy twice: order two, pinned level."""
    errs = []
    for dy in (0.05, 0.025, 0.0125):
        g = make_grid(20.0, dy)
        hm = hermite_h(m, g.y)
        resid = apply_L_discrete(g, hm) - (1.0 - 0.5 * m) * hm
        errs.append(np.sqrt(inner_rho(g, resid, resid)))
    assert errs[0] == pytest.approx(e_coarse, rel=1e-4)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


def test_spectral_decomp_keeps_K0_and_s(grid20):
    d = decompose(_field(grid20, np.exp(-grid20.y**2), s=16.0), K0=2.0)
    assert isinstance(d, SpectralDecomp)
    assert d.K0 == 2.0 and d.s == 16.0
