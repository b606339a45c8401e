"""Shared workload plumbing for the application layer.

:class:`AppWorkload` puts every app on the workload protocol the core
stack speaks (``workset`` / ``operator`` / ``policy``), the same shape
as :class:`~repro.runtime.workloads.GraphWorkloadBase`, so
:func:`repro.runtime.engine.make_engine` wires either into an engine.
Two conventions ride along:

* apps accept an injected ``workset=`` (how ``repro.api.run`` hands them
  the work-set matching ``config.order``, and how tests inject the
  reference :class:`~repro.runtime.workset.RandomWorkset`), defaulting
  to the bit-identical :class:`~repro.runtime.active_set.ActiveSet`;
* ordered-only apps set :attr:`requires_order` and override
  :meth:`priority_of`; the config/registry layer rejects unordered runs
  of such apps with an actionable error.

Apps describe workloads and never wire engines at import time: the
apps layer sits below the point where engines are wired together, and
``tools/check_layers.py`` forbids module-level ``runtime.engine``
imports from ``repro.apps``.
"""

from __future__ import annotations

from repro.runtime.active_set import ActiveSet
from repro.runtime.task import Task

__all__ = ["AppWorkload"]


class AppWorkload:
    """Mixin giving an application the core-stack workload protocol.

    Subclasses call :meth:`_init_workset` early in ``__init__`` (before
    seeding tasks), then seed via :meth:`_seed_task`, and expose
    ``self.policy``.  The ``operator`` property and :meth:`priority_of`
    are inherited.
    """

    #: ordered-only apps (commits must respect priorities) set this True;
    #: the registry/config layer then rejects unordered commit orders.
    requires_order: bool = False

    # ------------------------------------------------------------------
    # work-set plumbing
    # ------------------------------------------------------------------
    def _init_workset(self, workset=None) -> None:
        """Adopt the injected work-set, or the default: an unordered
        :class:`ActiveSet` (``requires_order`` apps override
        :meth:`_default_workset` with a priority work-set)."""
        self.workset = workset if workset is not None else self._default_workset()
        # priority work-sets take (task, priority); plain ones take (task)
        self._priority_seeding = hasattr(self.workset, "take_earliest")

    def _default_workset(self):
        return ActiveSet()

    def _seed_task(self, task: Task) -> None:
        """Add *task* to the work-set, priority-aware when needed."""
        if self._priority_seeding:
            self.workset.add(task, self.priority_of(task))
        else:
            self.workset.add(task)

    # ------------------------------------------------------------------
    # workload protocol
    # ------------------------------------------------------------------
    @property
    def operator(self):
        """Apps are their own :class:`~repro.runtime.task.Operator`."""
        return self

    def priority_of(self, task: Task) -> float:
        """Commit priority of *task* under ordered/relaxed policies.

        The default ranks by payload (node/clause/cluster id — the
        canonical graph priority); apps with semantic order (DES event
        times) override it.
        """
        return float(task.payload)
