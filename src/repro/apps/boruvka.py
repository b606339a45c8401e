"""Borůvka's minimum-spanning-tree algorithm as a work-set application.

One of the Galois workloads the paper cites [6]: each task takes a
component, finds its lightest outgoing edge, and contracts it.  Two tasks
conflict when they touch the same component — the classic irregular
conflict pattern whose density *shrinks* as components merge (few big
components ⇒ little parallelism), giving the controller a workload whose
available parallelism decays over time.

Implementation: union–find for components plus a per-component map of the
lightest edge to each neighbouring node (merged small-into-large on
contraction, so total maintenance cost is O(E log V)).  A component's
lightest outgoing edge is memoised and recomputed only after the component
is itself a party to a union, so one table scan serves every launch, retry
and commit in between.  Conflict neighbourhood of a task = its component
root and the partner component's root, the two items the contraction
mutates.

Correctness oracle: with distinct edge weights the MST is unique, so the
test suite checks the total weight against an independent Kruskal
implementation (:func:`kruskal_weight`).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.apps.base import AppWorkload
from repro.errors import ApplicationError
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.task import Operator, Task
from repro.utils.rng import ensure_rng

__all__ = ["WeightedGraph", "random_weighted_graph", "BoruvkaMST", "kruskal_weight"]

Edge = tuple[int, int, float]


class WeightedGraph:
    """Minimal undirected weighted graph (adjacency dict of dicts)."""

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise ApplicationError(f"negative node count {num_nodes}")
        self.num_nodes = num_nodes
        self._adj: list[dict[int, float]] = [dict() for _ in range(num_nodes)]
        self.num_edges = 0

    def add_edge(self, u: int, v: int, w: float) -> None:
        if u == v:
            raise ApplicationError(f"self-loop on {u}")
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ApplicationError(f"edge ({u}, {v}) outside node range")
        if v not in self._adj[u]:
            self.num_edges += 1
        self._adj[u][v] = w
        self._adj[v][u] = w

    def edges(self) -> list[Edge]:
        return [
            (u, v, w)
            for u in range(self.num_nodes)
            for v, w in self._adj[u].items()
            if u < v
        ]

    def neighbors(self, u: int) -> dict[int, float]:
        return self._adj[u]


def random_weighted_graph(n: int, avg_degree: float, seed=None) -> WeightedGraph:
    """Connected-ish G(n, M) with distinct uniform edge weights.

    A random spanning tree is laid first so Borůvka always runs to a single
    component; remaining edges are uniform pairs.  Weights are distinct
    with probability one, making the MST unique.
    """
    rng = ensure_rng(seed)
    if n < 1:
        raise ApplicationError(f"need n >= 1, got {n}")
    g = WeightedGraph(n)
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[int(rng.integers(0, i))])
        g.add_edge(u, v, float(rng.random()))
    target_edges = int(round(n * avg_degree / 2.0))
    attempts = 0
    while g.num_edges < target_edges and attempts < 50 * target_edges:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and v not in g.neighbors(u):
            g.add_edge(u, v, float(rng.random()))
    return g


def kruskal_weight(graph: WeightedGraph) -> float:
    """Total MST (forest) weight by Kruskal's algorithm — the test oracle."""
    parent = list(range(graph.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for u, v, w in sorted(graph.edges(), key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


class BoruvkaMST(AppWorkload, Operator):
    """Borůvka contraction as engine tasks (payload = component root)."""

    def __init__(self, graph: WeightedGraph, *, workset=None):
        self.graph = graph
        n = graph.num_nodes
        self._parent = list(range(n))
        self._rank = [0] * n
        # lightest edge from each component to each outside node, keyed by
        # the node's original id: root -> {v: (u, v, w)}.  Every entry has
        # key == e[1] and e[0] inside the owning component; an entry whose
        # key has since joined the owner is dead until _scan drops it.
        self._comp_edges: list[dict[int, Edge]] = [
            {v: (u, v, w) for v, w in graph.neighbors(u).items()} for u in range(n)
        ]
        # root -> its lightest live edge (None: none left); _union drops the
        # entries of both parties, the only event that can change it
        self._best: dict[int, Edge | None] = {}
        self.mst_edges: list[Edge] = []
        self.policy = ItemLockPolicy()
        self._init_workset(workset)
        self.stale_commits = 0
        for u in range(n):
            if self._comp_edges[u]:
                self._seed_task(Task(payload=u))

    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Union–find root with path halving."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _lightest(self, root: int) -> Edge | None:
        """Lightest live outgoing edge of component *root*, memoised."""
        try:
            return self._best[root]
        except KeyError:
            best = self._best[root] = self._scan(root)
            return best

    def _scan(self, root: int) -> Edge | None:
        """Scan *root*'s table for its lightest live edge (lazy cleanup)."""
        edges = self._comp_edges[root]
        parent = self._parent
        best: Edge | None = None
        dead: list[int] = []
        for other, e in edges.items():
            # find(other), spelled out: one method call per entry otherwise
            x = other
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            if x == root:
                dead.append(other)  # edge became internal after past merges
                continue
            if best is None or e[2] < best[2]:
                best = e
        for other in dead:
            del edges[other]
        return best

    # ------------------------------------------------------------------
    # Operator interface
    # ------------------------------------------------------------------
    # A live edge e of `root` has e[0] inside it and its key e[1] outside,
    # so the partner component is find(e[1]), never `root` itself.
    def neighborhood(self, task: Task):
        root = task.payload
        if self._parent[root] != root:
            return ()  # stale: this component was absorbed already
        e = self._lightest(root)
        if e is None:
            return ()
        return (root, self.find(e[1]))

    def apply(self, task: Task) -> list[Task]:
        root = task.payload
        if self._parent[root] != root:
            self.stale_commits += 1
            return []
        e = self._lightest(root)
        if e is None:
            return []  # spanning complete for this component
        self.mst_edges.append(e)
        merged = self._union(root, self.find(e[1]))
        return [Task(payload=merged)] if self._comp_edges[merged] else []

    def _union(self, a: int, b: int) -> int:
        """Merge components *a*, *b*; returns the surviving root."""
        if self._rank[a] < self._rank[b]:
            a, b = b, a
        parent = self._parent
        parent[b] = a
        if self._rank[a] == self._rank[b]:
            self._rank[a] += 1
        self._best.pop(a, None)
        self._best.pop(b, None)
        # fold b's lightest-edge table into a's, keeping minima
        ea, eb = self._comp_edges[a], self._comp_edges[b]
        if len(eb) > len(ea):  # merge the smaller table
            ea, eb = eb, ea
            self._comp_edges[a] = ea
        for other, edge in eb.items():
            x = other  # find(other), spelled out as in _scan
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            if x == a:
                continue
            cur = ea.get(other)
            if cur is None or edge[2] < cur[2]:
                ea[other] = edge
        self._comp_edges[b] = dict()
        ea.pop(a, None)
        ea.pop(b, None)
        return a

    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.mst_edges))

    def num_components(self) -> int:
        return sum(1 for x in range(self.graph.num_nodes) if self.find(x) == x)
