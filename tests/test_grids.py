import numpy as np
import pytest

from blowup_lab.grids import Field, Grid, default_y_max, gradient, make_grid


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


def test_grid_is_hashable_key():
    a = make_grid(20.0, 0.05)
    b = make_grid(20.0, 0.05)
    assert a.key() == b.key()
    assert a == b and isinstance(hash(a), int)
    assert Grid(n_half=3, dy=0.5).key() == (3, 0.5)
