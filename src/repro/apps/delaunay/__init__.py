"""Delaunay triangulation and mesh refinement (the paper's running example)."""

from repro.apps.delaunay.geometry import (
    circumcenter,
    in_circle,
    min_angle_deg,
    orient2d,
    point_in_triangle,
    triangle_angles,
)
from repro.apps.delaunay.refinement import (
    RefinementWorkload,
    mesh_quality,
    random_input_mesh,
)
from repro.apps.delaunay.triangulation import Triangulation

__all__ = [
    "circumcenter",
    "in_circle",
    "min_angle_deg",
    "orient2d",
    "point_in_triangle",
    "triangle_angles",
    "RefinementWorkload",
    "mesh_quality",
    "random_input_mesh",
    "Triangulation",
]
