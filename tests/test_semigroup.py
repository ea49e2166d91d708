"""Exact-kernel propagator: eigen action, composition, smoothing constants.

All statements here live on a finite grid, so "exact" means up to trapezoid
quadrature of Gaussian integrands (spectrally small) plus kernel truncation
at the domain edge; assertions are masked away from the edge accordingly.
"""

import tracemalloc

import numpy as np
import pytest

from blowup_lab import semigroup
from blowup_lab.grids import Field, default_y_max, make_grid
from blowup_lab.hermite import hermite_h
from blowup_lab.semigroup import (
    _banded_kernel,
    apply_semigroup,
    apply_semigroup_values,
    band_layout,
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
        mass = kernel_matrix(theta, grid20).apply(np.ones(grid20.n))
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
        mass = kernel_matrix(1e-3, g).apply(np.ones(g.n))
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
    for theta in (0.02, 0.07):
        for rows in (3, 5):
            vals = np.random.default_rng(3).standard_normal((rows, grid.n))
            out = apply_semigroup_values(theta, grid, vals)
            assert out.shape == (rows, grid.n)
            for k in range(rows):
                lone = apply_semigroup_values(theta, grid, vals[k])
                assert out[k].tobytes() == lone.tobytes()


@pytest.mark.parametrize("theta", [1e-3, 0.02, 0.07, 1.0])
@pytest.mark.parametrize("dy", [0.05, 0.025])
def test_apply_keeps_parity_exactly(theta, dy):
    # row n_half - r is row n_half + r against the mirrored field, so the
    # two halves of an even (odd) output are bitwise equal (negatives)
    grid = make_grid(40.0, dy)
    c = grid.n_half
    vals = np.random.default_rng(5).standard_normal((2, grid.n))
    even = vals + vals[:, ::-1]
    odd = vals - vals[:, ::-1]
    out_even = apply_semigroup_values(theta, grid, even)
    out_odd = apply_semigroup_values(theta, grid, odd)
    assert np.array_equal(out_even.view(np.uint64), out_even[:, ::-1].view(np.uint64))
    assert np.array_equal(
        out_odd[:, c + 1:].view(np.uint64), (-out_odd[:, c - 1::-1]).view(np.uint64)
    )
    assert not np.any(out_odd[:, c])  # odd: the centre is 0


@pytest.mark.parametrize("theta", [1e-3, 0.02, 1.0, 5.0])
def test_kernel_stores_exactly_the_entries_above_the_floor(theta):
    grid = make_grid(default_y_max(4.0, 50.0), 0.05)
    dense = _dense_kernel(theta, grid)
    keep = dense >= 1e-17 * dense.max(axis=1, keepdims=True)
    banded = kernel_matrix(theta, grid)
    stored = banded.toarray()
    assert np.array_equal(stored != 0.0, keep)
    assert np.array_equal(stored[keep], dense[keep])  # bitwise
    assert banded.shape == (grid.n, grid.n)
    # the band stores W entries of each row y >= 0, zeros included
    assert banded.data.shape == (grid.n_half + 1, band_layout(theta, grid)[2])
    assert banded.nnz == banded.data.size
    if theta == 0.02:  # the solver's step on the acceptance grid
        assert banded.nnz < 0.025 * grid.n**2  # 1.85 % measured


def test_matrix_cache_consistency(grid20):
    a = kernel_matrix(0.37, grid20)
    b = kernel_matrix(0.37, grid20)
    assert a is b  # cached object
    c = kernel_matrix(0.37, make_grid(20.0, 0.05))
    assert a.shape == c.shape and np.array_equal(a.toarray(), c.toarray())


@pytest.mark.parametrize("thetas", [(1e-15, 4e-15), (2.1e-14, 2.4e-14)])
def test_matrix_cache_keys_on_the_exact_theta(grid20, thetas):
    # thetas this close once shared a key rounded to 14 decimal places
    a, b = (kernel_matrix(theta, grid20) for theta in thetas)
    assert a is not b
    assert not np.array_equal(a.toarray(), b.toarray())
    for theta, cached in zip(thetas, (a, b)):
        fresh = _banded_kernel(theta, grid20)
        assert cached.data.tobytes() == fresh.data.tobytes()
        assert cached.toarray().tobytes() == fresh.toarray().tobytes()


def test_kernel_build_holds_little_beyond_the_band():
    # the build evaluates the half band in chunks of rows; 1.18 measured
    # (1.09 when the band held every row)
    grid = make_grid(default_y_max(4.0, 50.0), 0.05)
    assert grid.n == 2465
    tracemalloc.start()
    try:
        kernel = _banded_kernel(0.07, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kernel.data.nbytes


def test_band_layout_of_a_step_below_roundoff(grid20):
    # 1 - e^(-theta/2) rounds to 0 at theta = 2**-60, a step size that
    # validation accepts on a window of 2**-50 from s0 = 4: one block of
    # the stored rows y >= 0
    assert band_layout(2.0**-60, grid20)[1] == grid20.n_half + 1


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


def _direct_increment(s, sigma, n_field):
    """The reference sum: trapezoid over 33 times with one kernel each."""
    av = np.abs(n_field.values)
    taus = np.linspace(sigma, s, 33)
    wts = np.full(33, (s - sigma) / 32)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    acc = np.zeros(av.size)
    for tau, wt in zip(taus, wts):
        theta = s - tau
        acc = acc + wt * (av if theta <= 0 else _banded_kernel(theta, n_field.grid).apply(av))
    return float(np.max(acc))


@pytest.mark.parametrize("profile", ["constant", "gaussian"])
def test_comparison_check_matches_the_direct_sum(grid20, profile, monkeypatch):
    """Horner's rule with one kernel of the time spacing against a kernel
    per time; the integrand does not depend on time.  Both sups lie inside
    the edge collar, where the clipped kernels compose exactly."""
    y = grid20.y
    values = np.ones(grid20.n) if profile == "constant" else np.exp(-y**2 / 8.0)
    src = Field(grid=grid20, values=values, s=20.0)
    want = _direct_increment(21.0, 20.0, src)
    monkeypatch.setattr(semigroup, "_MATRIX_CACHE", {})
    out = kernel_comparison_check(s=21.0, sigma=20.0, n_field=src)
    assert [theta for theta, _ in semigroup._MATRIX_CACHE] == [1.0 / 32]
    assert out["increment_sup"] == pytest.approx(want, rel=1e-14)


def test_comparison_check_rejects_bad_window(grid20):
    src = Field(grid=grid20, values=np.ones(grid20.n), s=20.0)
    with pytest.raises(ValueError, match="need s > sigma"):
        kernel_comparison_check(s=20.0, sigma=20.0, n_field=src)




def test_apply_reuses_its_buffer_without_carrying_anything_over(grid20):
    """Applies in a row with different inputs (a field, a stack, zeros)
    equal, bit for bit, the applies of freshly built kernels."""
    rng = np.random.default_rng(11)
    inputs = [
        rng.standard_normal(grid20.n),
        rng.standard_normal((3, grid20.n)) * 1e3,
        np.zeros(grid20.n),
        rng.standard_normal(grid20.n),
    ]
    kept = _banded_kernel(0.07, grid20)
    for x in inputs:
        fresh = _banded_kernel(0.07, grid20).apply(x)
        assert kept.apply(x).tobytes() == fresh.tobytes()
    assert not np.any(kept.apply(np.zeros(grid20.n)))
