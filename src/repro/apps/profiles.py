"""Synthetic parallelism profiles and scheduled replay workloads (§4.1).

The paper argues controllers must track *abrupt* changes in available
parallelism (Delaunay refinement: no parallelism → ~1000 parallel tasks in
~30 temporal steps, per LonESTAR [15]).  To exercise exactly that, a
:class:`ScheduledReplayWorkload` runs a sequence of *phases*; each phase
is a stationary CC graph held for a fixed number of steps, and at phase
boundaries the graph (hence ``r̄(m)`` and the optimum ``μ``) switches
instantly under the controller's feet.

A phase graph is ``p`` disjoint cliques (:func:`clique_sizes`): every
maximal independent set has ``p`` nodes, so ``p`` *is* the available
parallelism — the worst-case family of Thm. 2 doubling as a parallelism
dial.  A phase carries only the clique sizes, never the edges: two tasks
conflict iff they lock the same clique label, and ``μ`` follows from
Thm. 3 (:func:`~repro.model.turan.mu_disjoint_cliques`).

Profile builders return phase lists: :func:`step_profile`,
:func:`spike_profile` and :func:`delaunay_burst_profile` (the 0 → peak
in ~30 steps shape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ApplicationError
from repro.runtime.active_set import ActiveSet
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.task import CallbackOperator, Task

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # layering: apps sit below the engine wiring
    from repro.runtime.core import Engine

__all__ = [
    "Phase",
    "clique_sizes",
    "step_profile",
    "spike_profile",
    "delaunay_burst_profile",
    "ScheduledReplayWorkload",
]


@dataclass(frozen=True)
class Phase:
    """One stationary stretch of a scheduled workload: cliques of *sizes*."""

    duration: int
    sizes: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ApplicationError(f"phase duration must be >= 1, got {self.duration}")
        if not self.sizes or min(self.sizes) < 1:
            raise ApplicationError(f"phase needs cliques of size >= 1, got {self.sizes}")


def clique_sizes(parallelism: int, total_tasks: int) -> tuple[int, ...]:
    """Balanced sizes of ``p`` disjoint cliques over ``total_tasks`` nodes.

    Every maximal independent set has exactly one node per clique, so
    available parallelism is exactly ``p`` regardless of the scheduler.
    The first ``total_tasks % p`` cliques hold one node more.
    """
    if parallelism < 1:
        raise ApplicationError(f"parallelism must be >= 1, got {parallelism}")
    if total_tasks < parallelism:
        raise ApplicationError(
            f"need at least {parallelism} tasks for parallelism {parallelism}, "
            f"got {total_tasks}"
        )
    base, extra = divmod(total_tasks, parallelism)
    return (base + 1,) * extra + (base,) * (parallelism - extra)


def step_profile(
    low: int, high: int, total_tasks: int, steps_per_phase: int = 60
) -> list[Phase]:
    """low → high → low parallelism, abrupt switches."""
    return [
        Phase(steps_per_phase, clique_sizes(low, total_tasks), "low"),
        Phase(steps_per_phase, clique_sizes(high, total_tasks), "high"),
        Phase(steps_per_phase, clique_sizes(low, total_tasks), "low"),
    ]


def spike_profile(
    base: int, peak: int, total_tasks: int, base_steps: int = 50, peak_steps: int = 12
) -> list[Phase]:
    """Short burst of parallelism in an otherwise serial workload."""
    return [
        Phase(base_steps, clique_sizes(base, total_tasks), "base"),
        Phase(peak_steps, clique_sizes(peak, total_tasks), "spike"),
        Phase(base_steps, clique_sizes(base, total_tasks), "base"),
    ]


def delaunay_burst_profile(
    peak: int = 1000, total_tasks: int = 4000, rise_steps: int = 30, hold_steps: int = 60
) -> list[Phase]:
    """The [15] Delaunay shape: ~no parallelism to *peak* in *rise_steps*.

    The rise is piecewise-stationary in ~6 sub-stages (phases cannot morph
    continuously under replay), reaching *peak* after *rise_steps* steps.
    """
    stages = 6
    per = max(rise_steps // stages, 1)
    levels = np.unique(np.geomspace(2, peak, stages).astype(int))
    phases = [
        Phase(per, clique_sizes(int(p), total_tasks), f"rise p={int(p)}")
        for p in levels
    ]
    phases.append(Phase(hold_steps, clique_sizes(peak, total_tasks), "hold"))
    return phases


class ScheduledReplayWorkload:
    """Piecewise-stationary replay over a phase schedule.

    Each phase seeds one task per node, its payload the clique label;
    item locks on the labels abort exactly what the greedy walk over the
    phase's CC graph would.  Wire with
    ``make_engine(wl, controller, step_hook=wl.advance)``: the phase
    clock advances through the engine's ``step_hook``.  After the last
    phase the schedule holds the final phase indefinitely (cap the run
    with ``max_steps``).
    """

    def __init__(self, phases: list[Phase]):
        if not phases:
            raise ApplicationError("schedule needs at least one phase")
        self.phases = list(phases)
        self._phase_idx = 0
        self._steps_left = self.phases[0].duration
        # commits re-enqueue the task: stationary within a phase
        self.operator = CallbackOperator(lambda t: (t.payload,), lambda t: [t])
        self.policy = ItemLockPolicy()
        self.transitions: list[int] = []  # engine steps where phases switched
        self._fill_workset()

    def _fill_workset(self) -> None:
        self.workset = ActiveSet()
        for label, size in enumerate(self.current_phase.sizes):
            for _ in range(size):
                self.workset.add(Task(payload=label))

    @property
    def current_phase(self) -> Phase:
        return self.phases[self._phase_idx]

    def total_steps(self) -> int:
        """Length of the full schedule in engine steps."""
        return sum(p.duration for p in self.phases)

    def advance(self, engine: "Engine", stats) -> None:
        """Step hook: count the phase down and switch phases when it ends."""
        self._steps_left -= 1
        if self._steps_left > 0 or self._phase_idx + 1 >= len(self.phases):
            return
        self._phase_idx += 1
        self._steps_left = self.current_phase.duration
        self._fill_workset()
        engine.workset = self.workset
        self.transitions.append(stats.step + 1)
