"""Tests for repro.apps.delaunay.geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.delaunay.geometry import (
    circumcenter,
    in_circle,
    min_angle_deg,
    orient2d,
    point_in_triangle,
    triangle_angles,
)
from repro.errors import GeometryError

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


class TestOrient2d:
    def test_ccw_positive(self):
        assert orient2d((0, 0), (1, 0), (0, 1)) > 0

    def test_cw_negative(self):
        assert orient2d((0, 0), (0, 1), (1, 0)) < 0

    def test_collinear_zero(self):
        assert orient2d((0, 0), (1, 1), (2, 2)) == 0.0

    def test_twice_area(self):
        assert orient2d((0, 0), (2, 0), (0, 2)) == pytest.approx(4.0)

    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        assert orient2d(a, b, c) == pytest.approx(-orient2d(a, c, b), abs=1e-6)


class TestInCircle:
    def test_center_inside_unit_circle(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)  # ccw on the unit circle
        assert in_circle(a, b, c, (0.0, 0.0))

    def test_far_point_outside(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert not in_circle(a, b, c, (10.0, 10.0))

    def test_on_circle_not_inside(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert not in_circle(a, b, c, (0.0, -1.0))

    def test_translation_invariance(self):
        a, b, c, p = (1, 0), (0, 1), (-1, 0), (0.3, 0.2)
        shift = lambda q: (q[0] + 55.0, q[1] - 17.0)
        assert in_circle(a, b, c, p) == in_circle(shift(a), shift(b), shift(c), shift(p))

    @settings(max_examples=60)
    @given(points, points, points, points)
    def test_consistent_with_circumradius(self, a, b, c, p):
        if abs(orient2d(a, b, c)) < 1e-3:
            return  # skip near-degenerate triangles
        if orient2d(a, b, c) < 0:
            b, c = c, b
        try:
            center = circumcenter(a, b, c)
            radius = math.hypot(a[0] - center[0], a[1] - center[1])
        except GeometryError:
            return
        dist = math.hypot(p[0] - center[0], p[1] - center[1])
        if abs(dist - radius) < 1e-6 * max(radius, 1.0):
            return  # too close to the boundary for float predicates
        assert in_circle(a, b, c, p) == (dist < radius)


class TestCircumcenter:
    def test_right_triangle(self):
        # circumcenter of a right triangle is the hypotenuse midpoint
        cc = circumcenter((0, 0), (2, 0), (0, 2))
        assert cc == (pytest.approx(1.0), pytest.approx(1.0))

    def test_equilateral(self):
        cc = circumcenter((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
        assert cc[0] == pytest.approx(0.5)
        assert cc[1] == pytest.approx(math.sqrt(3) / 6)

    def test_equidistant_property(self):
        a, b, c = (0.1, 0.3), (2.5, -0.2), (1.0, 1.7)
        cc = circumcenter(a, b, c)
        d = [math.hypot(p[0] - cc[0], p[1] - cc[1]) for p in (a, b, c)]
        assert d[0] == pytest.approx(d[1]) == pytest.approx(d[2])

    def test_collinear_raises(self):
        with pytest.raises(GeometryError):
            circumcenter((0, 0), (1, 1), (2, 2))


class TestAngles:
    def test_equilateral_angles(self):
        angles = triangle_angles((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
        for a in angles:
            assert a == pytest.approx(math.pi / 3)

    def test_angles_sum_to_pi(self):
        angles = triangle_angles((0, 0), (3, 0.2), (1, 2))
        assert sum(angles) == pytest.approx(math.pi)

    def test_min_angle_right_isoceles(self):
        assert min_angle_deg((0, 0), (1, 0), (0, 1)) == pytest.approx(45.0)

    def test_skinny_triangle_small_angle(self):
        assert min_angle_deg((0, 0), (1, 0), (0.5, 0.01)) < 5.0

    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            triangle_angles((0, 0), (0, 0), (1, 1))


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle((0, 0), (4, 0), (0, 4), (1, 1))

    def test_outside(self):
        assert not point_in_triangle((0, 0), (4, 0), (0, 4), (3, 3))

    def test_vertex_counts_as_inside(self):
        assert point_in_triangle((0, 0), (4, 0), (0, 4), (0, 0))

    def test_edge_counts_as_inside(self):
        assert point_in_triangle((0, 0), (4, 0), (0, 4), (2, 0))
