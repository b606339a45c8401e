"""Ordered optimistic execution (the paper's §5 future work).

The paper restricts itself to *unordered* algorithms; it names ordered
ones (discrete-event simulation: "events must commit chronologically") as
the open problem.  This module implements the natural extension of the §2
model to ordered work so the controller can be evaluated on it:

* tasks carry **priorities** (virtual time); the scheduler speculates on
  the ``m`` *earliest* pending tasks instead of random ones;
* the batch is resolved in priority order with the same
  greedy-independent-set conflict rule;
* a committed task may **create new work in the past** of later committed
  tasks of the same batch.  Those later commits would violate the order,
  so they are rolled back too (*order violations*, Time-Warp style
  cascades) — a second abort source that does not exist in the unordered
  model.

The observed conflict ratio therefore decomposes as
``r = (conflict aborts + order aborts) / launched``; the ρ-targeting
controllers need no change — they just see a steeper ``r̄(m)``, and the
ordered experiment shows how much exploitable parallelism the ordering
constraint destroys.

The step pipeline lives in :mod:`repro.runtime.core` and the
barrier/horizon commit rules in
:class:`~repro.runtime.policies.OrderedCommitOrder`;
:class:`OrderedEngine` binds the two with its historical constructor
signature.  :class:`~repro.runtime.policies.PriorityWorkset` and
:class:`~repro.runtime.policies.OrderedBatchOutcome` are re-exported here
for backwards compatibility.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.runtime.core import Engine
from repro.runtime.policies import (
    OrderedBatchOutcome,
    OrderedCommitOrder,
    PriorityWorkset,
)
from repro.runtime.task import Operator, Task

if TYPE_CHECKING:  # avoid runtime<->control import cycle
    from repro.control.base import Controller

__all__ = ["PriorityWorkset", "OrderedBatchOutcome", "OrderedEngine"]


class OrderedEngine(Engine):
    """Speculative engine for priority-ordered work.

    Parameters mirror :class:`~repro.runtime.engine.OptimisticEngine`;
    the operator's ``apply`` must return new tasks whose priorities the
    *priority_of* callable reports: new tasks are enqueued at
    ``priority_of(new_task)``.

    The commit rules (conflict phase, barrier, horizon) and the per-step
    RNG substream scheme are documented on
    :class:`~repro.runtime.policies.OrderedCommitOrder`, which this class
    plugs into the shared step-pipeline core.
    """

    def __init__(
        self,
        workset: PriorityWorkset,
        operator: Operator,
        controller: "Controller",
        priority_of: Callable[[Task], float],
        seed=None,
        recorder=None,
        metrics=None,
        profiler=None,
        step_hook=None,
        cost_model=None,
    ) -> None:
        self.priority_of = priority_of
        self._order_policy = OrderedCommitOrder(priority_of)
        super().__init__(
            workset,
            operator,
            controller,
            self._order_policy,
            seed=seed,
            step_hook=step_hook,
            cost_model=cost_model,
            recorder=recorder,
            metrics=metrics,
            profiler=profiler,
        )

    # ------------------------------------------------------------------
    def _resolve(self, batch: "list[tuple[float, Task]]") -> OrderedBatchOutcome:
        """Resolve one ordered batch (swap point for tests/subclasses)."""
        return self._order_policy.resolve(batch)

    @property
    def conflict_aborts_total(self) -> int:
        """Cumulative conflict-aborted tasks across the whole run."""
        return self._order_policy.conflict_aborts_total

    @property
    def order_aborts_total(self) -> int:
        """Cumulative order-aborted (barrier/horizon) tasks across the run."""
        return self._order_policy.order_aborts_total
