"""Delaunay mesh refinement as an amorphous data-parallel workload (§2).

The paper's running example: a triangulation contains *bad* triangles
(quality below a minimum-angle threshold); each bad triangle is fixed by
inserting its circumcenter, which retriangulates the *cavity* of triangles
whose circumcircle contains the new point, possibly creating new bad
triangles.  Two bad triangles can be processed in parallel iff their
cavities do not overlap — the conflict structure our runtime detects by
locking triangle ids (cavity plus rim).

Implementation notes:

* **Quality test** — minimum interior angle below ``min_angle`` degrees
  (Ruppert's measure), restricted to triangles whose vertices all lie in
  the refinement *domain* (the input bounding box).  Without the domain
  restriction, refining slivers along the convex hull pushes circumcenters
  outward into the ghost region forever.
* **Termination guards** — (i) insertion points falling outside the
  domain are replaced by the triangle centroid (which stays inside);
  (ii) a triangle whose shortest edge is below ``min_edge`` is accepted
  as-is; (iii) an insertion point closer than ``min_edge/4`` to an
  existing cavity vertex is abandoned (the triangle is recorded in
  :attr:`given_up`).  Guards (ii)+(iii) enforce a minimum point
  separation, so the number of insertions is bounded by a packing
  argument and the work-set provably drains.
* **Speculative fidelity** — the conflict neighbourhood is computed from
  the state at batch start (cavity ∪ rim).  Commits are applied
  sequentially; each commit revalidates (triangle still alive and still
  bad) and recomputes its cavity, so the mesh stays Delaunay even in the
  rare case where a committed task's true cavity drifted from the locked
  approximation.  Stale tasks (triangle destroyed by an earlier step)
  commit as no-ops, exactly like a Galois iteration that finds its work
  item gone.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppWorkload
from repro.apps.delaunay.geometry import min_angle_deg
from repro.apps.delaunay.triangulation import Triangulation
from repro.errors import ApplicationError, GeometryError
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.task import Operator, Task
from repro.utils.rng import ensure_rng

__all__ = ["RefinementWorkload", "random_input_mesh", "mesh_quality"]


def random_input_mesh(num_points: int, seed=None, jitter: float = 1e-6) -> Triangulation:
    """A triangulation of uniformly random points on the unit square.

    A tiny deterministic jitter avoids the measure-zero degeneracies
    (cocircular quadruples) the float predicates cannot break.
    """
    if num_points < 3:
        raise ApplicationError(f"need at least 3 points, got {num_points}")
    rng = ensure_rng(seed)
    pts = rng.random((num_points, 2)) + rng.normal(scale=jitter, size=(num_points, 2))
    return Triangulation.from_points(pts.tolist())


def mesh_quality(tri: Triangulation) -> dict[str, float]:
    """Quality summary of the real triangles: min/mean angle, count."""
    angles = [min_angle_deg(*tri.triangle_points(tid)) for tid in tri.triangle_ids()]
    if not angles:
        return {"triangles": 0.0, "min_angle": 0.0, "mean_min_angle": 0.0}
    arr = np.asarray(angles)
    return {
        "triangles": float(arr.shape[0]),
        "min_angle": float(arr.min()),
        "mean_min_angle": float(arr.mean()),
    }


class RefinementWorkload(AppWorkload, Operator):
    """Work-set formulation of Delaunay refinement.

    Also the :class:`~repro.runtime.task.Operator` for its own tasks (task
    payloads are triangle ids).  Wire it to a controller with
    :func:`repro.runtime.engine.make_engine`.

    Parameters
    ----------
    mesh:
        The triangulation to refine, in place.
    min_angle:
        Quality threshold in degrees; triangles below it are *bad*.
    min_edge:
        Size floor: triangles already finer than this are accepted, and
        new points keep at least ``min_edge/4`` separation (termination).
    domain:
        ``(xmin, ymin, xmax, ymax)`` region to refine; defaults to the
        bounding box of the mesh's current real vertices.
    """

    def __init__(
        self,
        mesh: Triangulation,
        min_angle: float = 25.0,
        min_edge: float = 0.02,
        domain: tuple[float, float, float, float] | None = None,
        *,
        workset=None,
    ) -> None:
        if not 0.0 < min_angle < 60.0:
            raise ApplicationError(
                f"minimum-angle threshold must be in (0, 60)°, got {min_angle}"
            )
        if min_edge <= 0.0:
            raise ApplicationError(f"size floor must be positive, got {min_edge}")
        self.mesh = mesh
        self.min_angle = float(min_angle)
        self.min_edge = float(min_edge)
        if domain is None:
            real = [
                mesh.vertex(i)
                for i in range(mesh.num_vertices)
                if not mesh.is_ghost_vertex(i)
            ]
            if not real:
                raise ApplicationError("mesh has no real vertices to bound the domain")
            xs = [p[0] for p in real]
            ys = [p[1] for p in real]
            domain = (min(xs), min(ys), max(xs), max(ys))
        self.domain = domain
        self.policy = ItemLockPolicy()
        self._init_workset(workset)
        self.stale_commits = 0
        self.insertions = 0
        self.given_up: set[int] = set()
        for tid in mesh.triangle_ids():
            if self.is_bad(tid):
                self._seed_task(Task(payload=tid))

    # ------------------------------------------------------------------
    def _in_domain(self, p: tuple[float, float]) -> bool:
        xmin, ymin, xmax, ymax = self.domain
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax

    def is_bad(self, tid: int) -> bool:
        """Bad = alive, real, inside the domain, skinny, above the floor."""
        if not self.mesh.has_triangle(tid) or self.mesh.is_ghost_triangle(tid):
            return False
        if tid in self.given_up:
            return False
        pts = self.mesh.triangle_points(tid)
        if not all(self._in_domain(p) for p in pts):
            return False
        if self.mesh.shortest_edge_of(tid) < self.min_edge:
            return False
        return min_angle_deg(*pts) < self.min_angle

    def _insertion_point(self, tid: int) -> tuple[float, float]:
        """Circumcenter when usable, else the centroid (always in-domain)."""
        try:
            p = self.mesh.circumcenter_of(tid)
            if self._in_domain(p):
                self.mesh.locate(p, hint=tid)  # raises if outside the hull
                return p
        except GeometryError:
            pass
        (ax, ay), (bx, by), (cx, cy) = self.mesh.triangle_points(tid)
        return ((ax + bx + cx) / 3.0, (ay + by + cy) / 3.0)

    def _too_close(self, p: tuple[float, float], cav: set[int]) -> bool:
        """Would *p* violate the minimum point separation?"""
        limit = self.min_edge / 4.0
        for tid in cav:
            for q in self.mesh.triangle_points(tid):
                if math.hypot(p[0] - q[0], p[1] - q[1]) < limit:
                    return True
        return False

    # ------------------------------------------------------------------
    # Operator interface
    # ------------------------------------------------------------------
    def neighborhood(self, task: Task):
        tid = task.payload
        if not self.is_bad(tid):
            return ()  # stale or already-good: conflicts with nothing
        p = self._insertion_point(tid)
        cav = self.mesh.cavity(p, hint=tid)
        rim: set[int] = set()
        for t in cav:
            rim |= self.mesh.neighbors(t)
        return cav | rim

    def apply(self, task: Task) -> list[Task]:
        tid = task.payload
        if not self.is_bad(tid):
            self.stale_commits += 1
            return []
        p = self._insertion_point(tid)
        cav = self.mesh.cavity(p, hint=tid)
        if self._too_close(p, cav):
            self.given_up.add(tid)
            return []
        new_tris = self.mesh.insert_with_cavity(p, cav)
        self.insertions += 1
        return [Task(payload=t) for t in new_tris if self.is_bad(t)]

    # ------------------------------------------------------------------
    def remaining_bad(self) -> int:
        """Count of currently bad (and refinable) triangles."""
        return sum(1 for tid in self.mesh.triangle_ids() if self.is_bad(tid))

    def check_refined(self) -> bool:
        """No refinable bad triangle remains (guards may leave exceptions)."""
        return self.remaining_bad() == 0
