"""Geometry tests: sensor arrays, grids, shapes, quadrature exactness."""

import numpy as np
import pytest

from nearscat.errors import DomainError
from nearscat.geometry import (
    Disk,
    Ellipse,
    Rectangle,
    constant_index,
    gauss_quadrature,
    make_grid,
    make_sensor_array,
    scaled,
)

from reference import grid_points

# ---------------------------------------------------------------------------
# sensors


def test_four_sensors_quarter_turns():
    arr = make_sensor_array(4, 1.0)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(arr.points, expect, atol=1e-15)


def test_first_sensor_on_positive_axis():
    arr = make_sensor_array(32, 1.0)
    assert np.allclose(arr.points[0], [1.0, 0.0])
    assert arr.count == 32


def test_sensor_symmetry_sum_zero():
    for n in (2, 5, 32, 64):
        arr = make_sensor_array(n, 2.0)
        assert np.linalg.norm(arr.points.sum(axis=0)) <= 1e-12


def test_sensor_validation():
    with pytest.raises(DomainError):
        make_sensor_array(0, 1.0)
    with pytest.raises(DomainError):
        make_sensor_array(4, 0.0)


# ---------------------------------------------------------------------------
# grids


def test_grid_three_by_three():
    g = make_grid((-1, 1, -1, 1), 3, 3)
    assert (g.nx, g.ny) == (3, 3)
    assert np.allclose(grid_points(g)[4], [0.0, 0.0])


def test_grid_row_major_y_outer():
    g = make_grid((0, 1, 0, 2), 3, 2)
    assert (g.nx, g.ny) == (3, 2)
    points = grid_points(g)
    # first row sweeps x at y = 0, second row at y = 2
    assert np.allclose(points[:3, 1], 0.0)
    assert np.allclose(points[3:, 1], 2.0)
    assert np.allclose(points[:3, 0], [0.0, 0.5, 1.0])


def test_grid_spacing():
    g = make_grid((-0.9, 0.9, -0.9, 0.9), 101, 101)
    assert g.xs[1] - g.xs[0] == pytest.approx(1.8 / 100)


def test_grid_validation():
    with pytest.raises(DomainError):
        make_grid((0, 1, 0, 1), 1, 3)
    with pytest.raises(DomainError):
        make_grid((1, 0, 0, 1), 3, 3)


# ---------------------------------------------------------------------------
# shapes


def test_shape_containment():
    d = Disk(center=(-0.5, 0.5), radius=0.2)
    assert d == Ellipse(center=(-0.5, 0.5), a=0.2, b=0.2)  # a disk is an ellipse
    assert d.contains((-0.5, 0.5))
    assert not d.contains((0.0, 0.0))
    e = Ellipse(center=(0.5, -0.5), a=0.2, b=0.1)
    assert e.contains((0.6, -0.5))
    assert not e.contains((0.5, -0.35))
    r = Rectangle(corner_min=(0, 0), corner_max=(1, 1))
    assert r.contains((0.5, 0.5))
    assert not r.contains((1.5, 0.5))


# ---------------------------------------------------------------------------
# quadrature


def test_rectangle_weights_sum_to_area():
    sq = Rectangle(corner_min=(-0.2, -0.2), corner_max=(0.2, 0.2))
    for order in (2, 4, 16):
        rule = gauss_quadrature(sq, order)
        assert rule.weights.sum() == pytest.approx(0.16, rel=1e-12)


def test_disk_weights_sum_to_area():
    rule = gauss_quadrature(Disk(center=(0.3, -0.1), radius=0.2), 16)
    assert rule.weights.sum() == pytest.approx(np.pi * 0.04, rel=1e-12)


def test_ellipse_weights_sum_to_area():
    rule = gauss_quadrature(Ellipse(center=(0, 0), a=0.2, b=0.1), 8)
    assert rule.weights.sum() == pytest.approx(np.pi * 0.02, rel=1e-12)


def test_all_nodes_inside_shape():
    # every node lies inside the shape and its half-size copy, and no two
    # nodes lie farther apart than the shape's diameter
    for shape in (
        Disk(center=(0.3, -0.1), radius=0.2),
        Ellipse(center=(-0.2, 0.4), a=0.3, b=0.15),
        Rectangle(corner_min=(0, 0), corner_max=(1, 2)),
    ):
        for s in (shape, scaled(shape, 0.5)):
            nodes = s.quadrature(8).nodes
            assert np.all(s.contains(nodes))
            spread = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)
            assert spread.max() < s.diameter()


def test_rectangle_polynomial_exactness():
    # order-4 tensor Gauss is exact through degree 7 per variable
    sq = Rectangle(corner_min=(-1, -1), corner_max=(1, 1))
    rule = gauss_quadrature(sq, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        cx = rng.uniform(-1, 1, 8)
        cy = rng.uniform(-1, 1, 8)
        vals = np.polyval(cx[::-1], rule.nodes[:, 0]) * np.polyval(
            cy[::-1], rule.nodes[:, 1]
        )
        approx = np.sum(rule.weights * vals)
        # exact product integral: odd monomials vanish on [-1, 1]
        ix = sum(c * 2.0 / (p + 1) for p, c in enumerate(cx) if p % 2 == 0)
        iy = sum(c * 2.0 / (p + 1) for p, c in enumerate(cy) if p % 2 == 0)
        assert approx == pytest.approx(ix * iy, abs=1e-12)


def test_disk_integral_of_polynomial():
    # integral over disk radius r of (x1^2 + 2) centered at origin:
    # pi r^2 (r^2/4 + 2)
    r = 0.2
    rule = gauss_quadrature(Disk(center=(0, 0), radius=r), 16)
    approx = np.sum(rule.weights * (rule.nodes[:, 0] ** 2 + 2.0))
    assert approx == pytest.approx(np.pi * r**2 * (r**2 / 4.0 + 2.0), rel=1e-12)


def test_quadrature_order_validation():
    sq = Rectangle(corner_min=(0, 0), corner_max=(1, 1))
    with pytest.raises(DomainError):
        gauss_quadrature(sq, 1)
    with pytest.raises(DomainError):
        gauss_quadrature(sq, 65)


# ---------------------------------------------------------------------------
# index functions / epsilon scaling


def test_constant_index_broadcasts():
    fn = constant_index(5.0)
    out = fn(np.zeros(3), np.ones(3))
    assert out.shape == (3,)
    assert np.all(out == 5.0 + 0.0j)


def test_epsilon_scale_shrinks_support():
    shape = scaled(Disk(center=(0.5, 0.5), radius=0.2), 0.5)
    assert shape.contains((0.55, 0.5))
    assert not shape.contains((0.65, 0.5))  # inside unscaled, outside scaled
    rule = gauss_quadrature(shape, 8)
    assert rule.weights.sum() == pytest.approx(np.pi * 0.1**2, rel=1e-12)


def test_epsilon_scale_identity():
    disk = Disk(center=(0, 0), radius=0.2)
    assert scaled(disk, 1.0) is disk


def test_epsilon_scale_about_the_center():
    assert scaled(Ellipse(center=(0.5, -0.5), a=0.2, b=0.1), 0.5) == Ellipse(
        center=(0.5, -0.5), a=0.1, b=0.05
    )
    assert scaled(Disk(center=(0.5, -0.5), radius=0.2), 0.5) == Disk(center=(0.5, -0.5), radius=0.1)
    square = scaled(Rectangle(corner_min=(0.0, -0.5), corner_max=(1.0, 0.5)), 0.5)
    assert square == Rectangle(corner_min=(0.25, -0.25), corner_max=(0.75, 0.25))
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            scaled(square, eps)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda bad: Disk(center=(0.0, 0.0), radius=bad), "radius"),
        (lambda bad: Ellipse(center=(0.0, 0.0), a=bad, b=0.1), "a"),
        (lambda bad: Ellipse(center=(0.0, 0.0), a=0.2, b=bad), "b"),
    ],
    ids=["disk-radius", "ellipse-a", "ellipse-b"],
)
@pytest.mark.parametrize("bad", [-0.2, 0.0, -0.0, float("nan"), float("inf")])
def test_shapes_reject_sizes_that_are_not_positive_and_finite(build, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got"):
        build(bad)


@pytest.mark.parametrize(
    "corner_min, corner_max",
    [((0.2, 0.2), (-0.2, -0.2)), ((0.2, -0.2), (-0.2, 0.2)), ((-0.2, 0.2), (0.2, -0.2)),
     ((0.0, -0.2), (0.0, 0.2)), ((float("nan"), -0.2), (0.2, 0.2))],
    ids=["both-swapped", "x-swapped", "y-swapped", "zero-width", "nan"],
)
def test_rectangle_rejects_corners_not_below_on_both_axes(corner_min, corner_max):
    with pytest.raises(DomainError):
        Rectangle(corner_min=corner_min, corner_max=corner_max)


@pytest.mark.parametrize(
    "shape",
    [Rectangle(corner_min=(-0.2, -0.3), corner_max=(0.4, 0.1)),
     Disk(center=(0.1, -0.2), radius=0.3),
     Ellipse(center=(0.1, -0.2), a=0.3, b=0.2)],
    ids=["rectangle", "disk", "ellipse"],
)
def test_mutating_a_rule_leaves_the_next_unchanged(shape):
    first = gauss_quadrature(shape, 5)
    nodes, weights = first.nodes.copy(), first.weights.copy()
    first.nodes[:] = 7.0
    first.weights[:] = -1.0
    again = gauss_quadrature(shape, 5)
    assert np.array_equal(again.nodes, nodes)
    assert np.array_equal(again.weights, weights)
