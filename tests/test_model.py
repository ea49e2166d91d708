"""Closed-form layer: parameter validation, profile identities, source terms.

Everything in this file is either an algebraic identity (checked to a few
eps), a hand-computable value, or a decay property measured once and frozen
as a regression pin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_lab.grids import default_y_max, make_grid, mirror
from blowup_lab.hermite import cutoff_chi
from blowup_lab.model import (
    ParameterError,
    ansatz_fields,
    make_params,
    nonlinear_B,
    perturbation_N,
    phi,
    phi_dy,
    phi_ds,
    phi_laplacian,
    potential_V,
    profile_f,
    profile_fprime,
    profile_fsecond,
    profile_residual,
    remainder_R,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# parameter validation


def test_rejects_p_at_or_below_one():
    with pytest.raises(ParameterError, match="p must be > 1"):
        make_params(1.0)
    with pytest.raises(ParameterError):
        make_params(0.5)


def test_rejects_supercritical_alpha():
    # critical value at p = 2 is 2p/(p+1) = 4/3; the boundary itself is out
    with pytest.raises(ParameterError, match="supercritical alpha"):
        make_params(2.0, alpha=4.0 / 3.0, mu=1.0)
    with pytest.raises(ParameterError, match="supercritical alpha"):
        make_params(2.0, alpha=2.0, mu=1.0)
    make_params(2.0, alpha=4.0 / 3.0 - 1e-12, mu=1.0)  # just inside is fine


def test_rejects_supercritical_alpha_bar():
    with pytest.raises(ParameterError, match="supercritical alpha_bar"):
        make_params(2.0, alpha_bar=2.0, mu_bar=1.0)
    make_params(2.0, alpha_bar=2.0 - 1e-12, mu_bar=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(p=np.nan), dict(p=np.inf), dict(p=2.0, alpha=np.nan),
    dict(p=2.0, alpha_bar=np.nan), dict(p=2.0, mu=np.nan), dict(p=2.0, mu0=-np.inf),
])
def test_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ParameterError):
        make_params(**kwargs)


def test_rejects_negative_exponents():
    with pytest.raises(ParameterError, match="alpha must be >= 0"):
        make_params(2.0, alpha=-0.1)
    with pytest.raises(ParameterError, match="alpha_bar must be >= 0"):
        make_params(2.0, alpha_bar=-0.1)


def test_derived_constants_p2():
    pr = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
    # beta = (2p - alpha(p+1)) / (2(p-1)) = (4 - 3)/2 = 1/2
    assert pr.beta == pytest.approx(0.5, abs=1e-15)
    # beta_bar = (p - alpha_bar)/(p-1) = 1
    assert pr.beta_bar == pytest.approx(1.0, abs=1e-15)
    assert pr.kappa == pytest.approx(1.0, abs=1e-15)  # (p-1)^{-1/(p-1)} at p=2


def test_derived_constants_other_p():
    pr = make_params(3.0)
    assert pr.kappa == pytest.approx(2.0 ** (-0.5), rel=1e-15)
    pr = make_params(1.5)
    assert pr.kappa == pytest.approx(0.5 ** (-2.0), rel=1e-15)  # = 4
    # pure case: beta = beta_bar = p/(p-1) from alpha = alpha_bar = 0
    assert pr.beta == pytest.approx(3.0, rel=1e-15)
    assert pr.beta_bar == pytest.approx(3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# profile


def test_profile_values_p2():
    pr = make_params(2.0)
    # f(z) = (1 + z^2/8)^{-1} at p = 2
    assert profile_f(pr, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert profile_f(pr, 2.0) == pytest.approx(1.0 / 1.5, rel=1e-15)
    assert profile_f(pr, np.array([-2.0, 2.0]))[0] == profile_f(pr, 2.0)


def test_profile_is_even_and_decreasing():
    pr = make_params(3.0)
    z = np.linspace(0.0, 10.0, 200)
    f = profile_f(pr, z)
    assert np.all(np.diff(f) < 0.0)
    assert np.allclose(profile_f(pr, -z), f, rtol=0, atol=0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_profile_identity_to_roundoff(p):
    """-z/2 f' - f/(p-1) + f^p vanishes identically; only cancellation is left."""
    pr = make_params(p)
    z = np.linspace(-3.0, 3.0, 1001)
    resid = profile_residual(pr, z)
    scale = profile_f(pr, z) ** p  # the size of the cancelling terms
    assert np.max(np.abs(resid) / scale) <= 10.0 * EPS


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_profile_derivatives_match_finite_differences(p):
    pr = make_params(p)
    z = np.linspace(-4.0, 4.0, 41)
    h1 = 1e-6  # first derivative: noise ~ eps/h1
    fd1 = (profile_f(pr, z + h1) - profile_f(pr, z - h1)) / (2.0 * h1)
    h2 = 1e-4  # second derivative: noise ~ eps/h2^2, truncation ~ h2^2
    fd2 = (
        profile_f(pr, z + h2) - 2.0 * profile_f(pr, z) + profile_f(pr, z - h2)
    ) / h2**2
    assert np.max(np.abs(profile_fprime(pr, z) - fd1)) < 2e-9
    assert np.max(np.abs(profile_fsecond(pr, z) - fd2)) < 1e-6


# ---------------------------------------------------------------------------
# ansatz


def test_phi_center_value():
    pr = make_params(2.0)
    # phi(0,s) = kappa + kappa/(2ps) = 1 + 1/(4s)
    assert phi(pr, 0.0, 10.0) == pytest.approx(1.025, abs=1e-15)
    assert phi(pr, 0.0, 20.0) == pytest.approx(1.0 + 1.0 / 80.0, abs=1e-15)


def test_phi_derivatives_match_finite_differences():
    pr = make_params(2.0)
    y = np.linspace(-10.0, 10.0, 21)
    s = 20.0
    h = 1e-5
    fd_y = (phi(pr, y + h, s) - phi(pr, y - h, s)) / (2.0 * h)
    fd_yy = (phi(pr, y + h, s) - 2.0 * phi(pr, y, s) + phi(pr, y - h, s)) / h**2
    fd_s = (phi(pr, y, s + h) - phi(pr, y, s - h)) / (2.0 * h)
    assert np.max(np.abs(phi_dy(pr, y, s) - fd_y)) < 1e-10
    assert np.max(np.abs(phi_laplacian(pr, y, s) - fd_yy)) < 1e-5
    assert np.max(np.abs(phi_ds(pr, y, s) - fd_s)) < 1e-10


# ---------------------------------------------------------------------------
# potential V


def test_potential_center_value():
    pr = make_params(2.0)
    # V(0,s) = 2 phi(0,s) - 2 = 1/(2s) at p = 2
    assert potential_V(pr, 0.0, 10.0) == pytest.approx(0.05, abs=1e-15)


def test_potential_far_field_gap():
    pr = make_params(2.0)
    # along |y|/sqrt(s) -> inf, V -> -p/(p-1) = -2; at y=60, s=100 (z=6) the
    # gap is 2 f(6) + 1/(2s) = 2/5.5 + 0.005
    v = potential_V(pr, 60.0, 100.0)
    assert abs(v + 2.0) == pytest.approx(0.368636, abs=1e-6)


def test_potential_uniform_far_field_bound():
    """|V + p/(p-1)| <= 0.15 uniformly on |y| >= 10.5 sqrt(s), s >= 100."""
    pr = make_params(2.0)
    worst = 0.0
    for s in (100.0, 200.0, 400.0, 1000.0):
        y = np.linspace(10.5 * np.sqrt(s), 40.0 * np.sqrt(s), 400)
        gap = np.abs(potential_V(pr, y, s) + 2.0)
        worst = max(worst, float(np.max(gap)))
    assert worst <= 0.15


def test_potential_weighted_norm_decreases():
    from blowup_lab.grids import make_grid
    from blowup_lab.hermite import inner_rho

    pr = make_params(2.0)
    g = make_grid(20.0, 0.05)
    norms = []
    for s in (10.0, 40.0, 160.0):
        v = potential_V(pr, g.y, s)
        norms.append(np.sqrt(inner_rho(g, v, v)))
    assert norms[0] > norms[1] > norms[2]
    # frozen values (p=2, grid [-20,20] @ 0.05)
    assert norms[0] == pytest.approx(0.06197783, rel=1e-5)
    assert norms[1] == pytest.approx(0.01704924, rel=1e-5)
    assert norms[2] == pytest.approx(0.00437855, rel=1e-5)


# ---------------------------------------------------------------------------
# nonlinear remainder B


def test_nonlinear_B_is_exactly_quadratic_at_p2():
    pr = make_params(2.0)
    phi_val = np.array([0.2, 0.7, 1.0])
    q = np.array([0.3, -0.1, 0.05])
    # |w|w - phi^2 - 2 phi q = q^2 for w = phi + q > 0
    assert np.allclose(nonlinear_B(pr, phi_val, q), q**2, rtol=0, atol=1e-16)


def test_nonlinear_B_vanishes_to_second_order():
    pr = make_params(3.0)
    phi_val = 0.8
    for q in (1e-3, -1e-3, 1e-5):
        b = float(nonlinear_B(pr, phi_val, q))
        assert abs(b) <= 10.0 * q**2  # p >= 2: quadratic smallness


@pytest.mark.parametrize(
    "p,c_env",
    [
        # sup over the sampled (phi, q) box of |B| / |q|^min(p,2), frozen
        (1.5, 0.647725),
        (2.0, 1.000000),
        (3.0, 3.500000),
    ],
)
def test_nonlinear_B_envelope_constant(p, c_env):
    pr = make_params(p)
    phi_vals = np.linspace(0.05, 1.0, 40)
    q_vals = np.concatenate([np.linspace(-0.5, 0.5, 81)])
    q_vals = q_vals[np.abs(q_vals) > 1e-12]
    ratio = 0.0
    for pv in phi_vals:
        b = nonlinear_B(pr, pv, q_vals)
        ratio = max(ratio, float(np.max(np.abs(b) / np.abs(q_vals) ** min(p, 2.0))))
    assert ratio == pytest.approx(c_env, rel=1e-4)


@settings(max_examples=200, derandomize=True)
@given(
    p=st.floats(1.2, 4.0),
    pv=st.floats(0.05, 1.2),
    q=st.floats(-0.6, 0.6).filter(lambda x: abs(x) > 1e-8),
)
def test_nonlinear_B_envelope_property(p, pv, q):
    """|B(q)| <= C |q|^min(p,2) with one uniform C over the sampled box."""
    pr = make_params(p)
    b = float(nonlinear_B(pr, pv, q))
    assert abs(b) <= 12.0 * abs(q) ** min(p, 2.0)


# ---------------------------------------------------------------------------
# ansatz remainder R


def test_remainder_R_is_even():
    pr = make_params(2.0)
    y = np.linspace(0.0, 15.0, 301)
    assert np.allclose(remainder_R(pr, -y, 40.0), remainder_R(pr, y, 40.0), atol=0)


def test_remainder_R_sup_decay():
    """sup_y |R(y, s)| decays like 1/s; frozen values and log-log slope.

    The sup sits near |y|/sqrt(s) ~ 6.3, so the scan is done in the profile
    variable z = y/sqrt(s) to chase it at every s.
    """
    pr = make_params(2.0)
    z = np.linspace(-10.0, 10.0, 4001)
    svals = np.array([20.0, 40.0, 80.0, 160.0])
    sups = np.array(
        [float(np.max(np.abs(remainder_R(pr, z * np.sqrt(s), s)))) for s in svals]
    )
    expected = [1.368634e-2, 7.038484e-3, 3.568070e-3, 1.796242e-3]
    assert np.allclose(sups, expected, rtol=1e-4)
    slope = np.polyfit(np.log(svals), np.log(sups), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)  # measured -0.9769


# ---------------------------------------------------------------------------
# perturbation N


def test_perturbation_N_zero_in_pure_case():
    pr = make_params(2.0)
    y = np.linspace(-5.0, 5.0, 11)
    n = perturbation_N(pr, phi_dy(pr, y, 20.0), phi(pr, y, 20.0), 20.0)
    assert np.all(n == 0.0)


def test_perturbation_N_constant_term_only():
    pr = make_params(2.0, mu0=3.0)
    # N = mu0 e^{-ps/(p-1)} = 3 e^{-2s}
    n = perturbation_N(pr, 0.0, 1.0, 5.0)
    assert float(n) == pytest.approx(3.0 * np.exp(-10.0), rel=1e-14)


def test_perturbation_N_gradient_term():
    pr = make_params(2.0, alpha=1.0, mu=2.0)
    # N = 2 |w_y| e^{-beta s} with w_y = phi_y + q_y = 0.3 + 0.1, beta = 1/2 here
    n = perturbation_N(pr, 0.3 + 0.1, 1.0, 10.0)
    assert float(n) == pytest.approx(2.0 * 0.4 * np.exp(-5.0), rel=1e-14)


def test_perturbation_N_all_terms_and_broadcast(perturbed_p2):
    y = np.linspace(-2.0, 2.0, 5)
    s = 20.0
    n = perturbation_N(
        perturbed_p2, phi_dy(perturbed_p2, y, s), phi(perturbed_p2, y, s), s
    )
    assert n.shape == y.shape
    by_hand = (
        np.abs(phi_dy(perturbed_p2, y, s)) * np.exp(-0.5 * s)
        + np.abs(phi(perturbed_p2, y, s)) * np.exp(-s)
        + np.exp(-2.0 * s)
    )
    assert np.allclose(n, by_hand, rtol=1e-14)
    # exponential smallness at the starting time already
    assert float(np.max(n)) < 1e-4


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("s", [4.0, 20.01, 49.99])
def test_half_grid_fields_mirror_to_the_full_grid_bitwise(p, s):
    """The even fields (and the odd phi_y) evaluated on the nodes y >= 0 and
    mirrored are, bit for bit and sign of zero included, the full-grid
    evaluation: the grid is exactly symmetric and each expression exactly
    even or odd in y."""
    pr = make_params(p)
    g = make_grid(default_y_max(4.0, 50.0), 0.05)
    y = g.y[g.n_half:]

    def same(a, b):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    full = ansatz_fields(pr, g.y, s)
    for k, (f, h) in enumerate(zip(full, ansatz_fields(pr, y, s))):
        same(mirror(h, odd=k == 1), f)
    assert np.signbit(full[1][g.n_half])  # phi_y is -0.0 at y = 0
    same(mirror(cutoff_chi(y, s, 4.0)), cutoff_chi(g.y, s, 4.0))
    same(mirror(phi(pr, y, s)), phi(pr, g.y, s))
    same(mirror(phi_dy(pr, y, s), odd=True), phi_dy(pr, g.y, s))
