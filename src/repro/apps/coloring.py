"""Greedy graph colouring / maximal-independent-set as a work-set app.

The simplest amorphous-data-parallel kernel: each task colours one node
with the smallest colour unused by its neighbours.  Two adjacent nodes
must not commit in the same batch (they would race on the shared edge),
so the conflict neighbourhood is the closed neighbourhood of the node —
making the *application's* conflict graph literally equal to the input
graph, the cleanest instantiation of the paper's CC-graph model on a real
computation.

A by-product of the first batch is a maximal independent set (every
committed node of round one is independent by construction), which the
tests cross-check against :func:`repro.model.committed_set` semantics.
"""

from __future__ import annotations

from repro.apps.base import AppWorkload
from repro.graph.ccgraph import CCGraph
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.task import Operator, Task

__all__ = ["GreedyColoring"]


class GreedyColoring(AppWorkload, Operator):
    """Colour *graph* greedily under optimistic parallelism.

    Task payloads are node ids; :attr:`colors` maps node → colour once the
    run drains.  The colouring is proper by construction: a node reads its
    neighbours' colours only in a batch where no neighbour commits.
    """

    def __init__(self, graph: CCGraph, *, workset=None):
        self.graph = graph
        self.colors: dict[int, int] = {}
        self.policy = ItemLockPolicy()
        self._init_workset(workset)
        self.recolor_attempts = 0
        for node in graph.nodes():
            self._seed_task(Task(payload=node))

    # ------------------------------------------------------------------
    # Operator interface
    # ------------------------------------------------------------------
    def neighborhood(self, task: Task):
        node = task.payload
        if node in self.colors:
            return ()
        return {node} | set(self.graph.neighbors(node))

    def apply(self, task: Task) -> list[Task]:
        node = task.payload
        if node in self.colors:
            self.recolor_attempts += 1
            return []
        used = {
            self.colors[v] for v in self.graph.neighbors(node) if v in self.colors
        }
        color = 0
        while color in used:
            color += 1
        self.colors[node] = color
        return []

    # ------------------------------------------------------------------
    def is_proper(self) -> bool:
        """Every edge bicoloured; every node coloured."""
        if set(self.colors) != set(self.graph.nodes()):
            return False
        return all(self.colors[u] != self.colors[v] for u, v in self.graph.edges())

    def num_colors(self) -> int:
        if not self.colors:
            return 0
        return max(self.colors.values()) + 1

    def check_brooks_bound(self) -> bool:
        """Greedy never exceeds Δ + 1 colours."""
        if not self.colors:
            return True
        max_deg = max((self.graph.degree(u) for u in self.graph), default=0)
        return self.num_colors() <= max_deg + 1
