"""Wire a workload into the engine.

There is one engine, :class:`~repro.runtime.core.Engine`; a run varies
only in its commit order.  :func:`make_engine` is the one path from a
workload to an engine.  Unless the caller passes an explicit ``order=``
it picks the order the workload needs over the workload's conflict
policy — :class:`~repro.runtime.policies.OrderedCommitOrder` over its
priorities when it sets ``requires_order``, the paper's §2
:class:`~repro.runtime.policies.UnorderedCommitOrder` otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.core import Engine
from repro.runtime.policies import OrderedCommitOrder, UnorderedCommitOrder

if TYPE_CHECKING:  # avoid runtime<->control import cycle; engine only types it
    from repro.control.base import Controller

__all__ = ["make_engine"]


def make_engine(
    workload,
    controller: "Controller",
    *,
    order=None,
    seed=None,
    step_hook=None,
    cost_model=None,
    recorder=None,
    metrics=None,
) -> Engine:
    """Wire *workload* and *controller* into an engine.

    *workload* speaks the workload protocol: ``workset`` / ``operator``
    / ``policy``, plus ``priority_of`` when it sets ``requires_order``
    (then the run commits in priority order over its priority
    work-set).  *order* is an explicit commit-order policy; ``None``
    picks the workload's default as above.
    """
    if order is None:
        if getattr(workload, "requires_order", False):
            order = OrderedCommitOrder(
                workload.priority_of, conflict_policy=workload.policy
            )
        else:
            order = UnorderedCommitOrder(workload.policy)
    return Engine(
        workload.workset,
        workload.operator,
        controller,
        order,
        seed=seed,
        step_hook=step_hook,
        cost_model=cost_model,
        recorder=recorder,
        metrics=metrics,
    )
