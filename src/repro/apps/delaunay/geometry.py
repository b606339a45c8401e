"""2-D geometric predicates for Delaunay triangulation.

Float predicates with an explicit tolerance: adequate for the randomly
perturbed inputs our workload generator produces (we jitter grid inputs
rather than implement exact arithmetic — the goal is a realistic irregular
*workload*, not a computational-geometry library).  Degeneracies that
survive the tolerance raise :class:`GeometryError` instead of corrupting
the triangulation.
"""

from __future__ import annotations

import math

from repro.errors import GeometryError

__all__ = [
    "orient2d",
    "in_circle",
    "circumcenter",
    "triangle_angles",
    "min_angle_deg",
    "point_in_triangle",
    "EPS",
]

Point = tuple[float, float]

#: Relative tolerance of the predicates.
EPS = 1e-12


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle *abc* (> 0 ⇔ counter-clockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def in_circle(a: Point, b: Point, c: Point, p: Point) -> bool:
    """True iff *p* lies strictly inside the circumcircle of ccw *abc*.

    Standard 3×3 lifted determinant; *abc* must be counter-clockwise
    (callers normalise orientation once at triangle creation).
    """
    adx, ady = a[0] - p[0], a[1] - p[1]
    bdx, bdy = b[0] - p[0], b[1] - p[1]
    cdx, cdy = c[0] - p[0], c[1] - p[1]
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd - bd * cdy)
        - ady * (bdx * cd - bd * cdx)
        + ad * (bdx * cdy - bdy * cdx)
    )
    # scale-aware tolerance: determinant entries are O(L²), det is O(L⁴)
    scale = max(abs(ad), abs(bd), abs(cd), 1e-300)
    return det > EPS * scale * scale


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Circumcenter of triangle *abc*; raises on (near-)collinear input."""
    d = 2.0 * orient2d(a, b, c)
    span = max(
        abs(a[0] - c[0]), abs(a[1] - c[1]), abs(b[0] - c[0]), abs(b[1] - c[1]), 1e-300
    )
    if abs(d) <= EPS * span * span:
        raise GeometryError(f"collinear points {a}, {b}, {c} have no circumcenter")
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy)


def _side_lengths(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    return (
        math.hypot(b[0] - c[0], b[1] - c[1]),  # opposite a
        math.hypot(a[0] - c[0], a[1] - c[1]),  # opposite b
        math.hypot(a[0] - b[0], a[1] - b[1]),  # opposite c
    )


def triangle_angles(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    """Interior angles (radians) at *a*, *b*, *c* via the law of cosines."""
    la, lb, lc = _side_lengths(a, b, c)
    if min(la, lb, lc) <= 0.0:
        raise GeometryError(f"degenerate triangle {a}, {b}, {c}")

    def angle(opp: float, s1: float, s2: float) -> float:
        cos_val = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
        return math.acos(max(-1.0, min(1.0, cos_val)))

    return (angle(la, lb, lc), angle(lb, la, lc), angle(lc, la, lb))


def min_angle_deg(a: Point, b: Point, c: Point) -> float:
    """Smallest interior angle in degrees (the refinement quality measure)."""
    return math.degrees(min(triangle_angles(a, b, c)))


def point_in_triangle(a: Point, b: Point, c: Point, p: Point) -> bool:
    """True iff *p* is inside or on the boundary of ccw triangle *abc*."""
    span = max(abs(b[0] - a[0]), abs(b[1] - a[1]), abs(c[0] - a[0]), abs(c[1] - a[1]), 1e-300)
    tol = -EPS * span * span
    return (
        orient2d(a, b, p) >= tol
        and orient2d(b, c, p) >= tol
        and orient2d(c, a, p) >= tol
    )
