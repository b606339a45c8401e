"""Ready-made CC-graph workloads for the engine.

Three ways of turning a :class:`~repro.graph.CCGraph` into an engine
workload, matching the evaluation setups of §4:

* :class:`ReplayGraphWorkload` — **stationary**: tasks are drawn from the
  full graph every step and always returned, so the environment's
  ``r̄(m)`` never changes.  This is the §4.1 validation setup ("a random CC
  graph of fixed average degree is taken and the controller runs on it"):
  the controller faces a fixed unknown curve and must converge to ``μ``.
* :class:`ConsumingGraphWorkload` — committed nodes leave the graph, so
  parallelism grows as conflicts disappear (the draining end-game of a real
  run).
* :class:`RegeneratingGraphWorkload` — committed nodes are replaced by
  fresh nodes wired to ``d`` random survivors; ``n`` and ``d`` stay roughly
  constant, giving a *dynamic but statistically stationary* environment —
  the closest synthetic analogue of a long-running irregular application
  in steady state.

Each workload exposes ``workset``, ``operator`` and ``policy``; wire one
into an engine with :func:`repro.runtime.engine.make_engine`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import lt

import numpy as np

from repro.errors import RuntimeEngineError
from repro.graph.ccgraph import CCGraph
from repro.runtime.active_set import ActiveSet
from repro.runtime.conflict import ConflictPolicy, ExplicitGraphPolicy
from repro.runtime.kernels import sample_choice_rows
from repro.runtime.task import Operator, Task
from repro.runtime.workset import Workset
from repro.utils.rng import ensure_rng

__all__ = [
    "GraphWorkloadBase",
    "ReplayGraphWorkload",
    "ConsumingGraphWorkload",
    "RegeneratingGraphWorkload",
]


class _GraphOperator(Operator):
    """Operator whose commit effect is delegated to the owning workload."""

    def __init__(self, workload: "GraphWorkloadBase"):
        self._workload = workload

    def neighborhood(self, task: Task):
        return self._workload.graph.neighbors(task.payload)

    def apply(self, task: Task) -> list[Task]:
        return self._workload.on_commit(task)

    def apply_batch(self, tasks: "list[Task]") -> list[Task]:
        return self._workload.on_commit_batch(tasks)


class GraphWorkloadBase:
    """Common plumbing: graph, work-set, explicit-graph conflict policy.

    The work-set is a dense :class:`~repro.runtime.active_set.ActiveSet`
    unless a ready-made instance arrives via ``workset=`` — how
    ``repro.api.run`` hands over the work-set matching ``config.order``,
    and how tests inject the bit-identical reference
    :class:`~repro.runtime.workset.RandomWorkset`.
    """

    def __init__(self, graph: CCGraph, *, workset: "Workset | None" = None):
        if workset is None:
            workset = ActiveSet()
        self.graph = graph
        self.operator: Operator = _GraphOperator(self)
        self.policy: ConflictPolicy = ExplicitGraphPolicy(graph)
        self.workset: Workset = workset
        tasks = [Task(payload=node) for node in graph.nodes()]
        if hasattr(workset, "take_earliest"):
            # priority work-set (ordered/relaxed commit orders): the node
            # id is the canonical graph priority — smaller id = earlier
            for task in tasks:
                workset.add(task, float(task.payload))
        else:
            workset.add_all(tasks)

    def on_commit(self, task: Task) -> list[Task]:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def on_commit_batch(self, tasks: "list[Task]") -> list[Task]:
        """Commit *tasks* in order; return all new tasks in creation order.

        Default loops :meth:`on_commit`; subclasses whose commit effect
        is uniform may override it, preserving exact equivalence (the
        batched path must stay bit-identical to the per-task walk).
        """
        new_tasks: list[Task] = []
        for task in tasks:
            created = self.on_commit(task)
            if created:
                new_tasks.extend(created)
        return new_tasks


class ReplayGraphWorkload(GraphWorkloadBase):
    """Stationary workload: committed tasks are re-enqueued, graph untouched.

    The engine never drains; cap runs with ``max_steps``.
    """

    def on_commit(self, task: Task) -> list[Task]:
        return [task]  # straight back into the work-set

    def on_commit_batch(self, tasks: "list[Task]") -> list[Task]:
        return list(tasks)  # all straight back, in commit order


class ConsumingGraphWorkload(GraphWorkloadBase):
    """Draining workload: a committed node is removed from the CC graph."""

    def on_commit(self, task: Task) -> list[Task]:
        self.graph.remove_node(task.payload)
        return []


class RegeneratingGraphWorkload(GraphWorkloadBase):
    """Steady-state workload: each commit is replaced by a fresh task.

    The committed node is removed and a new node inserted with edges to
    ``target_degree`` uniformly random survivors, so both ``n`` and the
    average degree stay approximately constant while the topology churns.

    **Cost per commit.**  The survivors a fresh node may attach to are
    ``graph.nodes()`` minus the node itself, indexed by the row
    ``rng.choice(len(survivors), size=k, replace=False)`` would draw.  The
    workload keeps that list itself instead of asking the graph for it:
    a commit deletes the committed id (``bisect`` + ``del``: O(log n)
    comparisons and a C ``memmove`` of the tail) and appends the fresh
    one, so its Python-level work is O(log n + target_degree) where a
    ``graph.nodes()`` scan is O(n).  Each commit removes one id and adds
    one, so every commit of a batch draws from the same number of
    survivors: :meth:`on_commit_batch` takes all its rows from one
    :func:`~repro.runtime.kernels.sample_choice_rows` call, the values
    and generator state of one ``choice`` call per commit, and
    :meth:`on_commit` is a batch of one.  A batch whose task ``i`` has a
    dead or repeated payload commits ``tasks[:i]`` and raises from
    task ``i``'s ``remove_node`` before drawing for it, as the per-task
    loop does.

    **Order contract.**  This relies on :meth:`CCGraph.nodes` returning
    insertion order, on removal keeping the order of the rest, and on
    ``add_node`` appending an id larger than every id before it.  The
    list is trusted only while ``graph.version`` is the value this
    workload left it at; any other writer (a step hook, a test, a second
    workload on the same graph) makes the next commit rebuild it from
    ``graph.nodes()``.  ``bisect`` is used only when the rebuild found
    the ids ascending — true for every generator and ``add_node``-built
    graph, not for :meth:`CCGraph.induced_subgraph`, whose order is a
    set's — otherwise the committed id is located by an exact scan.
    Either way the picks, the graph and the generator state after every
    batch are those of the ``graph.nodes()`` scan, one commit at a time.
    """

    def __init__(
        self,
        graph: CCGraph,
        target_degree: int,
        seed=None,
        *,
        workset: "Workset | None" = None,
    ):
        if target_degree < 0:
            raise RuntimeEngineError(f"target degree must be >= 0, got {target_degree}")
        super().__init__(graph, workset=workset)
        self.target_degree = target_degree
        self._rng: np.random.Generator = ensure_rng(seed)
        # graph.nodes() as of graph version _live_version (built on the
        # first commit; no version is negative)
        self._live: list[int] = []
        self._live_ascending = False
        self._live_version = -1

    def _live_nodes(self) -> list[int]:
        """``graph.nodes()``, rebuilt only when another writer moved the graph."""
        g = self.graph
        if self._live_version != g.version:
            self._live = live = g.nodes()
            self._live_ascending = all(map(lt, live, islice(live, 1, None)))
            self._live_version = g.version
        return self._live

    def _committable(self, tasks: "list[Task]") -> int:
        """How many leading *tasks* commit before one would raise: the
        first dead or repeated payload stops the count."""
        g = self.graph
        seen = set()
        for i, task in enumerate(tasks):
            payload = task.payload
            if payload in seen or payload not in g:
                return i
            seen.add(payload)
        return len(tasks)

    def on_commit(self, task: Task) -> list[Task]:
        return self.on_commit_batch([task])

    def on_commit_batch(self, tasks: "list[Task]") -> list[Task]:
        g = self.graph
        new_tasks: list[Task] = []
        while tasks:
            count = self._committable(tasks)
            if count == 0:
                g.remove_node(tasks[0].payload)  # raises, as the loop's commit would
            live = self._live_nodes()
            # every commit removes one id and appends one, so each draws
            # from the same len(live) - 1 survivors
            pool = len(live) - 1
            if pool:
                k = min(self.target_degree, pool)
                rows = sample_choice_rows(pool, k, count, self._rng).tolist()
            else:
                rows = [()] * count
            ascending = self._live_ascending
            for task, row in zip(tasks, rows):
                old = task.payload
                g.remove_node(old)
                at = bisect_left(live, old) if ascending else live.index(old)
                del live[at]
                new = g.add_node()
                for i in row:
                    g.add_edge(new, live[i])
                live.append(new)
                new_tasks.append(Task(payload=new))
            self._live_version = g.version
            tasks = tasks[count:]
        return new_tasks
