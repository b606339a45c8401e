"""The step-pipeline core: one loop, pluggable commit order.

The paper's model is one discrete-time loop — the controller proposes an
allocation ``m_t``, a batch is drawn from the work-set, conflicts are
resolved, survivors commit, and the controller observes the realised
conflict ratio ``r_t``.  :class:`Engine` is that loop; *what order the
batch is drawn and committed in* is the one thing a run varies, behind
the :class:`OrderPolicy` seam (concrete policies:
:mod:`repro.runtime.policies`).  One ``step()``::

    controller.propose -> order.select -> order.execute -> order.apply
        -> cost / stats bookkeeping -> controller.observe

``order.execute`` only *resolves* the batch into an outcome;
``order.apply`` mutates the work-set (commits applied, aborts rolled
back).

**Two step bodies, one test per step.**  Draining runs spend most of
their steps at tiny ``m`` (Algorithm 1 shrinks the allocation as the
work-set thins), where per-step set-up, not the work, is the budget.
:meth:`Engine.step` asks once whether a profiler, recorder or metrics
registry is attached.  If none is, the *bare* body runs the calls above
and nothing else.  Otherwise the *observed* body runs the same calls in
the same order inside the phase spans (``controller.decide``,
``select``, the policy's resolve spans, the
:meth:`OrderPolicy.commit_span_name` span around ``apply`` and the
bookkeeping, ``controller.update``), emits the ``step`` event and
updates the metrics.  Both yield identical stats, costs, controller
traces and RNG trajectories (``tests/runtime/test_step_bodies.py``),
and because the test is per step an observer attached mid-run sees
every later step.  The bookkeeping both bodies share
(:meth:`Engine._account`) walks no task: the model counts commits and
aborts, so no per-task record rides the loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import RuntimeEngineError
from repro.runtime.stats import RunResult, StepStats

if TYPE_CHECKING:  # avoid runtime<->control import cycle; core only types it
    from repro.control.base import Controller
    from repro.runtime.task import Task

__all__ = ["Engine", "OrderPolicy"]


class OrderPolicy(ABC):
    """Commit-order plugin: everything one run varies in the loop.

    A policy is bound to exactly one :class:`Engine` (:meth:`bind`) and
    from then on reaches the work-set, operator, RNG and profiler
    through ``self.engine``.  The core calls the hooks in a
    fixed sequence per step::

        begin_step -> select -> execute -> apply
                   -> (committed|aborted)_tasks
                   -> step_event_fields -> step_metrics

    :meth:`execute` only *resolves* the batch into an outcome;
    :meth:`apply` must be *transactional*: when it returns, committed
    operators have been applied (new work enqueued) and aborted tasks
    have been rolled back into the work-set, so the core's
    ``workset_after`` stat is exact.  The core wraps :meth:`apply` and
    all downstream bookkeeping in a span named by
    :meth:`commit_span_name`.
    """

    engine: "Engine"

    def bind(self, engine: "Engine") -> None:
        """Attach the policy to its engine (called once, from ``__init__``)."""
        self.engine = engine

    @abstractmethod
    def label(self) -> str:
        """Value of the ``policy`` field in the ``run_start`` trace event."""

    @abstractmethod
    def init_rng(self, seed) -> None:
        """Install ``engine.rng`` from the constructor *seed*."""

    def begin_step(self) -> None:
        """Hook at the top of every step (e.g. per-step RNG substreams)."""

    @abstractmethod
    def select(self, requested: int) -> list:
        """Draw ``min(requested, |workset|)`` entries in commit order."""

    @abstractmethod
    def execute(self, batch: list):
        """Resolve *batch* into an outcome (no work-set mutation of aborts).

        Opens its own resolution phase spans (``self.engine.phase_span``,
        or nothing at all when ``engine.profiler`` is ``None``).  Work-set
        mutation that belongs to the commit/record phase happens in
        :meth:`apply`.
        """

    @abstractmethod
    def apply(self, outcome) -> None:
        """Apply the outcome to the work-set: commits applied, aborts
        rolled back (plus any policy-local abort accounting).  The core
        calls this inside the :meth:`commit_span_name` span."""

    def commit_span_name(self) -> str:
        """Name of the core-opened span wrapping :meth:`apply` and the
        step bookkeeping (``"commit"`` for the unordered order,
        ``"record"`` for the ordered one)."""
        return "commit"

    @abstractmethod
    def committed_tasks(self, outcome) -> "list[Task]":
        """The outcome's committed tasks (bare, without priorities)."""

    @abstractmethod
    def aborted_tasks(self, outcome) -> "list[Task]":
        """Every aborted task of the outcome, regardless of abort kind."""

    @abstractmethod
    def step_event_fields(self, batch: list, outcome) -> dict:
        """Policy-specific fields of the ``step`` trace event, as a fresh
        dict (the core adds the step's stats to it)."""

    def step_metrics(self, metrics, outcome) -> None:
        """Extra per-step counters (emitted between ``aborts`` and
        ``launched`` to preserve the historical registry ordering)."""

    def run_end_fields(self) -> dict:
        """Policy-specific fields of the ``run_end`` trace event."""
        return {}


class Engine:
    """The step-pipeline core: one loop, pluggable commit order.

    Parameters
    ----------
    workset, operator:
        The workload: pending tasks and their semantics.  The work-set
        type must match the policy (:class:`~repro.runtime.workset.Workset`
        for unordered, :class:`~repro.runtime.policies.PriorityWorkset`
        for ordered).
    controller:
        Decides ``m_t`` each step from past observations (any
        :class:`~repro.control.base.Controller`).
    order:
        The :class:`OrderPolicy` implementing batch draw and commit
        order.
    seed:
        RNG seed / generator; interpretation is policy-specific (the
        ordered policy derives per-step substreams from it).
    step_hook:
        Optional callable invoked as ``step_hook(engine, stats)`` after
        every step.
    cost_model:
        Optional :class:`~repro.runtime.costs.CostModel` pricing commits
        and aborts; totals accumulate in :attr:`costs`.  Defaults to the
        paper's unit costs.
    recorder, metrics, profiler:
        Optional :class:`~repro.obs.TraceRecorder` /
        :class:`~repro.obs.MetricsRegistry` /
        :class:`~repro.obs.SpanProfiler`.  When omitted, the engine
        attaches to the process-wide active ones if set (see
        :func:`repro.obs.recording`, :func:`repro.obs.profiling`), else
        records nothing.
    """

    def __init__(
        self,
        workset,
        operator,
        controller: "Controller",
        order: OrderPolicy,
        *,
        seed=None,
        step_hook=None,
        cost_model=None,
        recorder=None,
        metrics=None,
        profiler=None,
    ) -> None:
        from repro.obs.metrics import active_metrics
        from repro.obs.recorder import active_recorder, describe_seed
        from repro.obs.spans import NULL_SPAN, active_profiler
        from repro.runtime.costs import CostTotals, UnitCostModel

        if not isinstance(order, OrderPolicy):
            raise RuntimeEngineError(
                f"order must be an OrderPolicy, got {type(order).__name__}"
            )
        self.workset = workset
        self.operator = operator
        self.controller = controller
        self.order = order
        self.step_hook = step_hook
        self.cost_model = cost_model or UnitCostModel()
        self.costs = CostTotals()
        self.result = RunResult()
        self._step = 0
        self.recorder = recorder if recorder is not None else active_recorder()
        registry = metrics if metrics is not None else active_metrics()
        self.metrics = None if registry is None else registry.scope("engine")
        self.profiler = profiler if profiler is not None else active_profiler()
        # stashed no-op span for observed steps without a profiler (a
        # recorder or metrics alone) and for policies' phase_span calls
        self._null_span = NULL_SPAN
        #: ``(registry scope, *handles)`` of the per-step metrics, resolved
        #: on the first observed step (see :meth:`_count_step`)
        self._metric_handles = None
        order.bind(self)
        order.init_rng(seed)
        if self.recorder is not None or self.metrics is not None:
            controller.bind_observability(
                self.recorder,
                None if registry is None else registry.scope("controller"),
            )
        if self.recorder is not None:
            self.recorder.emit(
                "run_start",
                step=self._step,
                policy=order.label(),
                seed=describe_seed(seed),
                workset_size=len(workset),
                controller=controller.describe(),
            )

    # ------------------------------------------------------------------
    def phase_span(self, name: str):
        """A profiler span for one pipeline phase (no-op when disabled)."""
        prof = self.profiler
        return prof.span(name) if prof is not None else self._null_span

    def step(self) -> StepStats:
        """Execute one temporal step; raises if the work-set is empty."""
        if self.profiler is None and self.recorder is None and self.metrics is None:
            return self._bare_step()
        return self._observed_step()

    def _bare_step(self) -> StepStats:
        """The pipeline contract and nothing else (nobody is watching)."""
        before = len(self.workset)
        if before == 0:
            raise RuntimeEngineError("cannot step: work-set is empty")
        order = self.order
        order.begin_step()
        requested = int(self.controller.propose())
        if requested < 1:
            raise RuntimeEngineError(
                f"controller proposed m={requested}; allocations must be >= 1"
            )
        outcome = order.execute(order.select(requested))
        order.apply(outcome)
        stats = self._account(order, outcome, requested, before)
        self._step += 1
        self.controller.observe(stats.conflict_ratio, stats.launched)
        self.result.steps.append(stats)
        if self.step_hook is not None:
            self.step_hook(self, stats)
        return stats

    def _account(self, order, outcome, requested: int, before: int) -> StepStats:
        """Cost accounting and the step's stats record."""
        committed = order.committed_tasks(outcome)
        aborted = order.aborted_tasks(outcome)
        self.cost_model.charge(self.costs, committed, aborted)
        return StepStats(
            step=self._step,
            requested=requested,
            launched=outcome.launched,
            committed=len(committed),
            aborted=len(aborted),
            workset_before=before,
            workset_after=len(self.workset),
        )

    def _observed_step(self) -> StepStats:
        """The same calls in the same order, inside spans, with the
        ``step`` event and the per-step metrics."""
        before = len(self.workset)
        if before == 0:
            raise RuntimeEngineError("cannot step: work-set is empty")
        prof = self.profiler
        recorder = self.recorder
        metrics = self.metrics
        null = self._null_span
        order = self.order
        with prof.step_span(self._step) if prof is not None else null:
            order.begin_step()
            with prof.span("controller.decide") if prof is not None else null:
                requested = int(self.controller.propose())
            if requested < 1:
                raise RuntimeEngineError(
                    f"controller proposed m={requested}; allocations must be >= 1"
                )
            with prof.span("select") if prof is not None else null:
                batch = order.select(requested)
            outcome = order.execute(batch)  # opens the policy's resolve spans
            with prof.span(order.commit_span_name()) if prof is not None else null:
                order.apply(outcome)
                stats = self._account(order, outcome, requested, before)
                if recorder is not None:
                    data = order.step_event_fields(batch, outcome)
                    data.update(stats.as_dict())  # one dict, "step" included
                    recorder.emit("step", **data)
                if metrics is not None:
                    self._count_step(metrics, order, outcome, stats)
            self._step += 1
            with prof.span("controller.update") if prof is not None else null:
                self.controller.observe(stats.conflict_ratio, stats.launched)
        self.result.steps.append(stats)
        if self.step_hook is not None:
            self.step_hook(self, stats)
        return stats

    def _count_step(self, metrics, order, outcome, stats: StepStats) -> None:
        """Update the per-step metrics through handles resolved once."""
        bound = self._metric_handles
        if bound is None or bound[0] is not metrics:
            # first step under this registry: resolve the handles in the
            # historical registration order — the policy's own counters
            # sit between ``aborts`` and ``launched``
            head = [metrics.counter(name) for name in ("steps", "commits", "aborts")]
            order.step_metrics(metrics, outcome)
            tail = [metrics.counter("launched"), metrics.histogram("conflict_ratio")]
            tail += [metrics.gauge("workset"), metrics.gauge("m")]
            bound = self._metric_handles = (metrics, *head, *tail)
        else:
            order.step_metrics(metrics, outcome)
        _, steps, commits, aborts, launched, ratio, workset, m = bound
        steps.inc()
        commits.inc(stats.committed)
        aborts.inc(stats.aborted)
        launched.inc(stats.launched)
        ratio.observe(stats.conflict_ratio)
        workset.set(stats.workset_after)
        m.set(stats.requested)

    def run(self, max_steps: int | None = None) -> RunResult:
        """Step until the work-set drains (or *max_steps* is reached)."""
        if max_steps is not None and max_steps < 0:
            raise RuntimeEngineError(f"max_steps must be >= 0, got {max_steps}")
        while len(self.workset) > 0:
            if max_steps is not None and self._step >= max_steps:
                break
            self.step()
        if self.recorder is not None:
            self.recorder.emit(
                "run_end",
                step=self._step,
                steps=len(self.result),
                committed=self.result.total_committed,
                aborted=self.result.total_aborted,
                **self.order.run_end_fields(),
                workset=len(self.workset),
            )
        return self.result

    @property
    def steps_executed(self) -> int:
        return self._step
