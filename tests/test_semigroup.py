"""Exact-kernel propagator: eigen action, composition, smoothing constants.

All statements here live on a finite grid, so "exact" means up to trapezoid
quadrature of Gaussian integrands (spectrally small) plus kernel truncation
at the domain edge; assertions are masked away from the edge accordingly.
"""

import numpy as np
import pytest

from blowup_lab.grids import Field, default_y_max, make_grid
from blowup_lab.hermite import hermite_h
from blowup_lab.semigroup import (
    apply_semigroup,
    apply_semigroup_values,
    kernel_comparison_check,
    kernel_eval,
    kernel_matrix,
    verify_smoothing,
)


def _interior(grid, margin=8.0 * np.sqrt(2.0)):
    return np.abs(grid.y) <= grid.y_max - margin


def test_kernel_rejects_nonpositive_theta():
    with pytest.raises(ValueError, match="theta must be > 0"):
        kernel_eval(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(-1.0, 0.0, 0.0)


def test_kernel_positive_and_peaked():
    y = np.linspace(-5.0, 5.0, 101)
    k = kernel_eval(0.5, 0.0, y)
    assert np.all(k > 0.0)
    assert np.argmax(k) == 50  # peak at x = y e^{-theta/2} = 0


def test_kernel_value_by_hand():
    # e^theta / sqrt(4 pi v) * exp(-(y e^{-theta/2} - x)^2/(4v)), v = 1 - e^-theta
    theta, y, x = 1.0, 1.5, 0.3
    v = 1.0 - np.exp(-1.0)
    expected = (
        np.exp(1.0)
        / np.sqrt(4.0 * np.pi * v)
        * np.exp(-((1.5 * np.exp(-0.5) - 0.3) ** 2) / (4.0 * v))
    )
    assert kernel_eval(theta, y, x) == pytest.approx(expected, rel=1e-15)


def test_kernel_mass_is_exp_theta(grid20):
    # integral over x of the kernel is e^theta (h_0 eigenvalue 1); trapezoid
    # error is spectrally small for dy = 0.05
    for theta in (0.25, 1.0, 2.0):
        mass = kernel_matrix(theta, grid20) @ np.ones(grid20.n)
        rows = _interior(grid20)
        rel = np.abs(mass[rows] / np.exp(theta) - 1.0)
        assert np.max(rel) < 1e-8, theta


def test_kernel_mass_small_theta_aliasing():
    # at theta = 1e-3 the kernel width ~ 0.045 is near dy = 0.05 and the
    # quadrature aliases at the 3e-7 level; halving dy kills it completely
    g1 = make_grid(20.0, 0.05)
    g2 = make_grid(20.0, 0.025)
    e = []
    for g in (g1, g2):
        mass = kernel_matrix(1e-3, g) @ np.ones(g.n)
        rows = np.abs(g.y) <= 10.0
        e.append(float(np.max(np.abs(mass[rows] / np.exp(1e-3) - 1.0))))
    assert 1e-8 < e[0] < 1e-6
    assert e[1] < 1e-12


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_eigen_action(grid20, m, theta):
    h = hermite_h(m, grid20.y)
    out = apply_semigroup_values(theta, grid20, h)
    expected = np.exp((1.0 - 0.5 * m) * theta) * h
    mask = _interior(grid20)
    scale = float(np.max(np.abs(expected[mask])))
    assert np.max(np.abs(out[mask] - expected[mask])) / scale < 1e-6


def test_composition(grid20):
    y = grid20.y
    probe = Field(grid=grid20, values=np.exp(-(y**2) / 5.0) * (1.0 + 0.2 * y), s=0.0)
    one = apply_semigroup(0.7, apply_semigroup(0.3, probe))
    two = apply_semigroup(1.0, probe)
    mask = _interior(grid20)
    assert np.max(np.abs(one.values[mask] - two.values[mask])) < 1e-8


def test_apply_semigroup_keeps_time_label(grid20):
    f = Field(grid=grid20, values=np.exp(-grid20.y**2), s=23.5)
    assert apply_semigroup(0.5, f).s == 23.5


def _dense_kernel(theta, grid):
    return kernel_eval(theta, grid.y[:, None], grid.y[None, :]) * grid.weights


@pytest.mark.parametrize("theta", [1e-3, 0.02, 0.37, 1.0, 5.0])
def test_apply_matches_full_kernel_product(theta):
    # the banded kernel drops entries below 1e-17 of their row's max and
    # sums the rest in another order; the dense product is the oracle
    for dy in (0.05, 0.025):
        grid = make_grid(40.0, dy)
        vals = np.random.default_rng(7).standard_normal((grid.n, 2))
        full = _dense_kernel(theta, grid) @ vals
        for v, ref in ((vals.T, full.T), (vals[:, 1], full[:, 1])):
            out = apply_semigroup_values(theta, grid, v)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_stacked_apply_matches_lone_rows():
    grid = make_grid(default_y_max(4.0, 50.0), 0.05)
    vals = np.random.default_rng(3).standard_normal((3, grid.n))
    out = apply_semigroup_values(0.02, grid, vals)
    assert out.shape == (3, grid.n)
    for k in range(3):
        assert out[k].tobytes() == apply_semigroup_values(0.02, grid, vals[k]).tobytes()


@pytest.mark.parametrize("theta", [1e-3, 0.02, 1.0, 5.0])
def test_kernel_stores_exactly_the_entries_above_the_floor(theta):
    grid = make_grid(default_y_max(4.0, 50.0), 0.05)
    dense = _dense_kernel(theta, grid)
    keep = dense >= 1e-17 * dense.max(axis=1, keepdims=True)
    banded = kernel_matrix(theta, grid)
    stored = banded.toarray()
    assert np.array_equal(stored != 0.0, keep)
    assert np.array_equal(stored[keep], dense[keep])  # bitwise
    if theta == 0.02:  # the solver's step on the acceptance grid
        assert banded.nnz < 0.05 * grid.n**2
    assert kernel_matrix(0.02, grid).indices.dtype == np.int32
    assert banded.indptr.dtype == np.int32


def test_matrix_cache_consistency(grid20):
    a = kernel_matrix(0.37, grid20)
    b = kernel_matrix(0.37, grid20)
    assert a is b  # cached object
    c = kernel_matrix(0.37, make_grid(20.0, 0.05))
    assert a.shape == c.shape and (a != c).nnz == 0


def test_smoothing_constants_bounded(grid20):
    out = verify_smoothing(grid20, thetas=(0.01, 0.1, 0.5, 1.0, 2.0, 5.0))
    assert len(out["rows"]) == 6
    # gradient-in bound: contraction up to the e^{theta/2} factor
    assert 0.3 < out["C_case1"] < 1.1
    # sup-in bound: the 1/sqrt(1 - e^-theta) smoothing constant
    assert 0.1 < out["C_case2"] < 0.6
    for row in out["rows"]:
        assert row["ratio_grad_in"] <= out["C_case1"] + 1e-15
        assert row["ratio_sup_in"] <= out["C_case2"] + 1e-15


def test_comparison_check_constant_field(grid20):
    # for n == 1 the increment is int_0^1 e^theta dtheta = e - 1 at every
    # interior node, and the crude envelope is 1 * 1 * e, so the ratio is
    # (e-1)/e = 1 - 1/e up to quadrature wiggle
    src = Field(grid=grid20, values=np.ones(grid20.n), s=20.0)
    out = kernel_comparison_check(s=21.0, sigma=20.0, n_field=src)
    assert out["envelope"] == pytest.approx(np.e, rel=1e-15)
    assert out["ratio"] == pytest.approx(1.0 - 1.0 / np.e, abs=2e-4)
    assert out["ratio"] <= 1.0


def test_comparison_check_gaussian_field(grid20):
    src = Field(grid=grid20, values=np.exp(-grid20.y**2 / 8.0), s=20.0)
    out = kernel_comparison_check(s=21.0, sigma=20.0, n_field=src)
    assert out["ratio"] == pytest.approx(0.576065, abs=2e-4)  # frozen
    assert out["increment_sup"] < out["envelope"]


def test_comparison_check_rejects_bad_window(grid20):
    src = Field(grid=grid20, values=np.ones(grid20.n), s=20.0)
    with pytest.raises(ValueError, match="need s > sigma"):
        kernel_comparison_check(s=20.0, sigma=20.0, n_field=src)


def test_comparison_check_custom_envelope(grid20):
    src = Field(grid=grid20, values=0.5 * np.ones(grid20.n), s=20.0)
    out = kernel_comparison_check(s=20.5, sigma=20.0, n_field=src, envelope_scale=2.0)
    assert out["envelope"] == pytest.approx(2.0 * 0.5 * np.exp(0.5), rel=1e-15)
