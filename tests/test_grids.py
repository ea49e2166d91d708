import numpy as np
import pytest

from blowup_lab.grids import Field, Grid, default_y_max, gradient, make_grid, mirror


def test_make_grid_symmetric_odd():
    g = make_grid(20.0, 0.05)
    assert g.n % 2 == 1
    assert g.y[0] == -g.y[-1] == -20.0
    assert g.y[g.n_half] == 0.0
    assert np.allclose(np.diff(g.y), 0.05)


def test_make_grid_rounds_up():
    g = make_grid(1.02, 0.05)
    assert g.y_max == pytest.approx(1.05)
    # an exact multiple is not inflated
    assert make_grid(1.0, 0.05).y_max == pytest.approx(1.0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0.0, 0.05)
    with pytest.raises(ValueError):
        make_grid(10.0, -0.1)
    bad = [(np.nan, 0.05), (10.0, np.nan), (np.inf, 0.05), (10.0, np.inf), (1e300, 1e-300)]
    for y_max, dy in bad:
        with pytest.raises(ValueError, match="finite y_max > 0 and dy > 0"):
            make_grid(y_max, dy)


def test_weights_integrate_gaussian():
    g = make_grid(20.0, 0.05)
    total = float(np.sum(g.weights * np.exp(-0.25 * g.y**2)))
    assert total == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-13)


def test_default_y_max():
    # 2 K0 sqrt(s) + margin, floored at 20
    assert default_y_max(4.0, 50.0) == pytest.approx(8.0 * np.sqrt(50.0) + 5.0)
    assert default_y_max(1.0, 4.0) == 20.0  # floor engages


def test_field_shape_check():
    g = make_grid(5.0, 0.5)
    with pytest.raises(ValueError, match="does not match grid"):
        Field(grid=g, values=np.zeros(g.n + 1), s=20.0)


def test_field_copy_is_deep():
    g = make_grid(5.0, 0.5)
    f = Field(grid=g, values=np.ones(g.n), s=20.0)
    c = f.copy()
    c.values[0] = 7.0
    assert f.values[0] == 1.0
    assert f.sup() == 1.0 and c.sup() == 7.0


def test_gradient_exact_on_quadratics():
    # centered differences are exact for y^2 in the interior, and the
    # one-sided ends are exact for affine functions
    g = make_grid(10.0, 0.1)
    grad = gradient(g, g.y**2)
    assert np.allclose(grad[1:-1], 2.0 * g.y[1:-1], atol=1e-11)
    grad_affine = gradient(g, 3.0 * g.y + 1.0)
    assert np.allclose(grad_affine, 3.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(41,), (1, 41), (5, 41)])
def test_gradient_is_bitwise_np_gradient(shape):
    g = make_grid(2.0, 0.1)
    rng = np.random.default_rng(7)
    # values spread over many binades so that any reordering of the
    # arithmetic would show in the last bits
    v = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    ours = gradient(g, v)
    assert ours.shape == v.shape
    assert ours.tobytes() == np.gradient(v, g.dy, axis=-1).tobytes()


def test_grid_is_hashable_key():
    a = make_grid(20.0, 0.05)
    b = make_grid(20.0, 0.05)
    assert a.key() == b.key()
    assert a == b and isinstance(hash(a), int)
    assert Grid(n_half=3, dy=0.5).key() == (3, 0.5)


@pytest.mark.parametrize("n_half", [1, 2, 20])
def test_gradient_into_out_is_bitwise_np_gradient(n_half):
    g = Grid(n_half=n_half, dy=0.1)
    v = np.random.default_rng(3).standard_normal((3, g.n))
    out = np.full_like(v, np.nan)
    assert gradient(g, v, out) is out
    assert out.tobytes() == np.gradient(v, g.dy, axis=-1).tobytes()


def test_mirror_fills_the_negative_half():
    half = np.array([[0.0, 1.5, -2.0], [-0.0, 3.0, 4.0]])
    even, odd = mirror(half), mirror(half, odd=True)
    np.testing.assert_array_equal(even, [[-2.0, 1.5, 0.0, 1.5, -2.0], [4.0, 3.0, -0.0, 3.0, 4.0]])
    np.testing.assert_array_equal(odd, [[2.0, -1.5, 0.0, 1.5, -2.0], [-4.0, -3.0, -0.0, 3.0, 4.0]])
    # the node y = 0 keeps its own bits, the sign of zero included
    assert np.signbit(odd[1, 2]) and not np.signbit(odd[0, 2])
    g = make_grid(3.0, 0.25)
    np.testing.assert_array_equal(mirror(g.y[g.n_half:], odd=True), g.y)
