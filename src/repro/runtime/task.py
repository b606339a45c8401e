"""Task and operator abstractions of the optimistic runtime.

A *task* is one unit of speculative work (one work-set iteration in the
amorphous-data-parallelism formulation).  An *operator* gives tasks their
semantics:

* :meth:`Operator.neighborhood` — the set of abstract *data items* the task
  will touch.  Two concurrently launched tasks conflict iff their
  neighbourhoods intersect; this is how Galois-style runtimes detect
  conflicts without knowing the CC graph up front.
* :meth:`Operator.apply` — executed once the task commits; returns newly
  created tasks (graph morphs may create more work, e.g. new bad
  triangles).

Tasks carry opaque payloads owned by the application; the runtime never
inspects them.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from itertools import count

__all__ = ["Task", "Operator", "CallbackOperator"]

_task_ids = count()


@dataclass(frozen=True, slots=True)
class Task:
    """One speculative unit of work.

    ``uid`` is process-unique and assigned automatically; ``payload`` is the
    application's task state (a graph node id, a triangle, a component, …).
    Slotted: every per-batch pass reads ``uid`` or ``payload`` of thousands
    of tasks, and without a ``__dict__`` both sit in the task's own cache
    line.
    """

    payload: object
    uid: int = field(default_factory=lambda: next(_task_ids))

    def __repr__(self) -> str:
        return f"Task(uid={self.uid}, payload={self.payload!r})"


class Operator(abc.ABC):
    """Application semantics for tasks (see module docstring)."""

    @abc.abstractmethod
    def neighborhood(self, task: Task) -> Iterable[Hashable]:
        """Data items *task* will read or write.

        Must be computable **before** :meth:`apply` — the runtime acquires
        the items speculatively, in commit order, to detect conflicts.
        Returning an empty iterable means the task conflicts with nothing.
        """

    @abc.abstractmethod
    def apply(self, task: Task) -> list[Task]:
        """Commit *task*, mutating application state; return new tasks.

        Only called for tasks that won their conflicts, so the application
        state is consistent at entry.  Must be deterministic given the
        state (the runtime may replay aborted tasks at later steps).
        """

    def apply_batch(self, tasks: "list[Task]") -> list[Task]:
        """Commit *tasks* in order; return every new task, in creation order.

        The default loops :meth:`apply` and flattens the results, so it
        is exactly equivalent to the engine's per-task commit walk.
        Operators with a cheaper bulk formulation (e.g. a workload whose
        commit effect is uniform across the batch) may override it, but
        must preserve that equivalence bit for bit — the incremental
        selection backend routes commits through here and the
        differential suite compares its traces against the per-task
        path.
        """
        new_tasks: list[Task] = []
        for task in tasks:
            created = self.apply(task)
            if created:
                new_tasks.extend(created)
        return new_tasks

    def on_abort(self, task: Task) -> None:
        """Hook invoked when *task* aborts (for rollback accounting).

        Speculative state is discarded by construction (``apply`` never ran),
        so the default is a no-op; applications override it to count
        rollback cost.
        """


class CallbackOperator(Operator):
    """Adapter building an :class:`Operator` from two callables.

    Convenient for synthetic workloads and tests::

        op = CallbackOperator(
            neighborhood=lambda t: {t.payload},
            apply=lambda t: [],
        )
    """

    def __init__(self, neighborhood, apply, on_abort=None):
        self._neighborhood = neighborhood
        self._apply = apply
        self._on_abort = on_abort

    def neighborhood(self, task: Task) -> Iterable[Hashable]:
        return self._neighborhood(task)

    def apply(self, task: Task) -> list[Task]:
        return self._apply(task)

    def on_abort(self, task: Task) -> None:
        if self._on_abort is not None:
            self._on_abort(task)
