"""Incremental (Bowyer–Watson) Delaunay triangulation.

Built from scratch on the predicates in :mod:`repro.apps.delaunay.geometry`:

* a *super-triangle* enclosing the working area provides ghost vertices so
  every insertion point is interior;
* point location walks across edges toward the query (O(√n) expected on
  random inputs) with a linear-scan fallback;
* insertion digs the *cavity* — the connected set of triangles whose
  circumcircle contains the point — removes it, and fans new triangles
  from the point to the cavity rim (Bowyer–Watson).

The cavity is exactly the paper's conflict neighbourhood for mesh
refinement: two insertions conflict iff their cavities (plus rim) overlap,
which is what the refinement workload feeds to the runtime's lock-based
conflict detection.

Triangle ids are stable ints (never reused), so they double as lockable
data items.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import count

from repro.apps.delaunay.geometry import (
    Point,
    circumcenter,
    in_circle,
    orient2d,
    point_in_triangle,
)
from repro.errors import GeometryError

__all__ = ["Triangulation"]


class Triangulation:
    """Mutable 2-D Delaunay triangulation with ghost super-triangle."""

    def __init__(self, bbox: tuple[float, float, float, float]):
        """Create an empty triangulation covering *bbox* = (xmin, ymin, xmax, ymax)."""
        xmin, ymin, xmax, ymax = bbox
        if not (xmin < xmax and ymin < ymax):
            raise GeometryError(f"degenerate bounding box {bbox}")
        self._verts: list[Point] = []
        self._tri_ids = count()
        # tri id -> (a, b, c) vertex indices, counter-clockwise
        self._tris: dict[int, tuple[int, int, int]] = {}
        # sorted vertex pair -> tri ids sharing that edge (1 on the hull, else 2)
        self._edge_tris: dict[tuple[int, int], set[int]] = {}
        self._last_tri: int | None = None
        # ghost super-triangle, comfortably containing the bbox circumcircle
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        r = 3.0 * max(xmax - xmin, ymax - ymin)
        self._ghosts = (
            self._add_vertex((cx - 2.0 * r, cy - r)),
            self._add_vertex((cx + 2.0 * r, cy - r)),
            self._add_vertex((cx, cy + 2.0 * r)),
        )
        self._make_triangle(*self._ghosts)

    # ------------------------------------------------------------------
    # low-level structure
    # ------------------------------------------------------------------
    def _add_vertex(self, p: Point) -> int:
        self._verts.append((float(p[0]), float(p[1])))
        return len(self._verts) - 1

    @staticmethod
    def _edge_key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def _make_triangle(self, a: int, b: int, c: int) -> int:
        pa, pb, pc = self._verts[a], self._verts[b], self._verts[c]
        if orient2d(pa, pb, pc) < 0:
            b, c = c, b
        elif orient2d(pa, pb, pc) == 0:
            raise GeometryError(f"degenerate triangle on vertices {a}, {b}, {c}")
        tid = next(self._tri_ids)
        self._tris[tid] = (a, b, c)
        for u, v in ((a, b), (b, c), (c, a)):
            self._edge_tris.setdefault(self._edge_key(u, v), set()).add(tid)
        self._last_tri = tid
        return tid

    def _remove_triangle(self, tid: int) -> None:
        a, b, c = self._tris.pop(tid)
        for u, v in ((a, b), (b, c), (c, a)):
            key = self._edge_key(u, v)
            owners = self._edge_tris[key]
            owners.discard(tid)
            if not owners:
                del self._edge_tris[key]
        if self._last_tri == tid:
            self._last_tri = next(iter(self._tris), None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count, ghosts included."""
        return len(self._verts)

    def vertex(self, i: int) -> Point:
        return self._verts[i]

    def is_ghost_vertex(self, i: int) -> bool:
        return i in self._ghosts

    def has_triangle(self, tid: int) -> bool:
        return tid in self._tris

    def triangle_vertices(self, tid: int) -> tuple[int, int, int]:
        tri = self._tris.get(tid)
        if tri is None:
            raise GeometryError(f"triangle {tid} no longer exists")
        return tri

    def triangle_points(self, tid: int) -> tuple[Point, Point, Point]:
        a, b, c = self.triangle_vertices(tid)
        return (self._verts[a], self._verts[b], self._verts[c])

    def is_ghost_triangle(self, tid: int) -> bool:
        """True when the triangle touches a super-triangle vertex."""
        return any(v in self._ghosts for v in self.triangle_vertices(tid))

    def triangle_ids(self, include_ghost: bool = False) -> list[int]:
        """Ids of live triangles (by default only fully real ones)."""
        if include_ghost:
            return list(self._tris)
        return [t for t in self._tris if not self.is_ghost_triangle(t)]

    def neighbors(self, tid: int) -> set[int]:
        """Triangles sharing an edge with *tid*."""
        a, b, c = self.triangle_vertices(tid)
        out: set[int] = set()
        for u, v in ((a, b), (b, c), (c, a)):
            out |= self._edge_tris[self._edge_key(u, v)]
        out.discard(tid)
        return out

    def circumcenter_of(self, tid: int) -> Point:
        return circumcenter(*self.triangle_points(tid))

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------
    def locate(self, p: Point, hint: int | None = None) -> int:
        """Find a triangle containing *p* by walking; O(√n) expected.

        Raises :class:`GeometryError` when *p* is outside the ghost hull.
        """
        start = hint if hint is not None and hint in self._tris else self._last_tri
        if start is None:
            raise GeometryError("triangulation has no triangles")
        tid = start
        visited = 0
        limit = 4 * len(self._tris) + 16
        while visited < limit:
            visited += 1
            a, b, c = self._tris[tid]
            pa, pb, pc = self._verts[a], self._verts[b], self._verts[c]
            moved = False
            for u, v, pu, pv in ((a, b, pa, pb), (b, c, pb, pc), (c, a, pc, pa)):
                if orient2d(pu, pv, p) < 0:  # p strictly outside this edge
                    owners = self._edge_tris[self._edge_key(u, v)]
                    nxt = next((t for t in owners if t != tid), None)
                    if nxt is None:
                        raise GeometryError(f"point {p} lies outside the triangulation")
                    tid = nxt
                    moved = True
                    break
            if not moved:
                return tid
        # extremely rare: numerical cycling — fall back to a full scan
        for t, (a, b, c) in self._tris.items():
            if point_in_triangle(self._verts[a], self._verts[b], self._verts[c], p):
                return t
        raise GeometryError(f"point {p} could not be located")

    # ------------------------------------------------------------------
    # cavity and insertion
    # ------------------------------------------------------------------
    def cavity(self, p: Point, hint: int | None = None) -> set[int]:
        """Triangle ids whose circumcircle contains *p* (connected BFS).

        Read-only: this is the conflict neighbourhood of inserting *p*.
        """
        start = self.locate(p, hint)
        cav = {start}
        frontier = [start]
        while frontier:
            tid = frontier.pop()
            for nxt in self.neighbors(tid):
                if nxt in cav:
                    continue
                pa, pb, pc = self.triangle_points(nxt)
                if in_circle(pa, pb, pc, p):
                    cav.add(nxt)
                    frontier.append(nxt)
        return cav

    def insert(self, p: Point, hint: int | None = None) -> list[int]:
        """Insert point *p*, returning the ids of the new triangles.

        Rejects (near-)duplicates of existing vertices: retriangulating a
        cavity around a coincident point would create degenerate
        triangles.
        """
        cav = self.cavity(p, hint)
        for tid in cav:
            for q in self.triangle_points(tid):
                if abs(p[0] - q[0]) < 1e-12 and abs(p[1] - q[1]) < 1e-12:
                    raise GeometryError(
                        f"point {p} duplicates an existing vertex {q}"
                    )
        return self._retriangulate(p, cav)

    def insert_with_cavity(self, p: Point, cav: set[int]) -> list[int]:
        """Insert *p* into a precomputed (still valid) cavity."""
        for tid in cav:
            if tid not in self._tris:
                raise GeometryError(f"cavity triangle {tid} no longer exists")
        return self._retriangulate(p, cav)

    def _retriangulate(self, p: Point, cav: set[int]) -> list[int]:
        # rim = edges of cavity triangles owned by exactly one cavity triangle
        rim: dict[tuple[int, int], int] = {}
        for tid in cav:
            a, b, c = self._tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                key = self._edge_key(u, v)
                owners = self._edge_tris[key]
                if sum(1 for t in owners if t in cav) == 1:
                    rim[key] = tid
        for tid in list(cav):
            self._remove_triangle(tid)
        pi = self._add_vertex(p)
        new_ids = [self._make_triangle(pi, u, v) for (u, v) in rim]
        return new_ids

    # ------------------------------------------------------------------
    # bulk construction and validation
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point], margin: float = 0.1) -> "Triangulation":
        """Triangulate *points* (at least one required)."""
        pts = [(float(x), float(y)) for x, y in points]
        if not pts:
            raise GeometryError("need at least one point")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        dx = max(max(xs) - min(xs), 1.0)
        dy = max(max(ys) - min(ys), 1.0)
        tri = cls(
            (
                min(xs) - margin * dx,
                min(ys) - margin * dy,
                max(xs) + margin * dx,
                max(ys) + margin * dy,
            )
        )
        for p in pts:
            tri.insert(p)
        return tri

    def check_delaunay(self) -> bool:
        """Empty-circumcircle property over all real triangles (O(n·t))."""
        real_vertices = [
            i for i in range(len(self._verts)) if i not in self._ghosts
        ]
        for tid in self.triangle_ids(include_ghost=False):
            a, b, c = self._tris[tid]
            pa, pb, pc = self._verts[a], self._verts[b], self._verts[c]
            for i in real_vertices:
                if i in (a, b, c):
                    continue
                if in_circle(pa, pb, pc, self._verts[i]):
                    return False
        return True

    def check_consistency(self) -> bool:
        """Structural invariants: edge map symmetric, ≤2 owners per edge."""
        edge_count: dict[tuple[int, int], set[int]] = {}
        for tid, (a, b, c) in self._tris.items():
            if orient2d(self._verts[a], self._verts[b], self._verts[c]) <= 0:
                return False
            for u, v in ((a, b), (b, c), (c, a)):
                edge_count.setdefault(self._edge_key(u, v), set()).add(tid)
        if edge_count != self._edge_tris:
            return False
        return all(len(owners) <= 2 for owners in edge_count.values())

    def total_area(self, include_ghost: bool = False) -> float:
        """Sum of (real) triangle areas."""
        total = 0.0
        for tid in self.triangle_ids(include_ghost=include_ghost):
            pa, pb, pc = self.triangle_points(tid)
            total += abs(orient2d(pa, pb, pc)) / 2.0
        return total

    def __repr__(self) -> str:
        return (
            f"Triangulation(vertices={len(self._verts)}, "
            f"triangles={len(self._tris)})"
        )

    def to_svg(
        self,
        path,
        width: int = 600,
        highlight: "set[int] | None" = None,
        include_ghost: bool = False,
    ) -> None:
        """Render the (real) mesh as an SVG file.

        *highlight* triangle ids are filled (e.g. the current bad set or a
        cavity); everything else is drawn as wireframe.  The viewBox fits
        the real vertices, so ghost geometry never distorts the image.
        """
        tids = self.triangle_ids(include_ghost=include_ghost)
        real_pts = [
            self._verts[i]
            for i in range(len(self._verts))
            if include_ghost or i not in self._ghosts
        ]
        if not real_pts:
            raise GeometryError("nothing to draw: no real vertices")
        xs = [p[0] for p in real_pts]
        ys = [p[1] for p in real_pts]
        span_x = max(xs) - min(xs) or 1.0
        span_y = max(ys) - min(ys) or 1.0
        height = int(width * span_y / span_x)
        pad = 0.03 * max(span_x, span_y)

        def sx(x: float) -> float:
            return (x - min(xs) + pad) / (span_x + 2 * pad) * width

        def sy(y: float) -> float:
            return height - (y - min(ys) + pad) / (span_y + 2 * pad) * height

        highlight = highlight or set()
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        for tid in tids:
            pa, pb, pc = self.triangle_points(tid)
            pts = f"{sx(pa[0]):.1f},{sy(pa[1]):.1f} {sx(pb[0]):.1f},{sy(pb[1]):.1f} {sx(pc[0]):.1f},{sy(pc[1]):.1f}"
            fill = "#D55E00" if tid in highlight else "none"
            opacity = ' fill-opacity="0.5"' if tid in highlight else ""
            parts.append(
                f'<polygon points="{pts}" fill="{fill}"{opacity} '
                f'stroke="#456" stroke-width="0.6"/>'
            )
        parts.append("</svg>")
        from pathlib import Path

        Path(path).write_text("\n".join(parts), encoding="utf-8")

    # convenience used by refinement
    def shortest_edge_of(self, tid: int) -> float:
        pa, pb, pc = self.triangle_points(tid)
        return min(
            math.hypot(pa[0] - pb[0], pa[1] - pb[1]),
            math.hypot(pb[0] - pc[0], pb[1] - pc[1]),
            math.hypot(pc[0] - pa[0], pc[1] - pa[1]),
        )
