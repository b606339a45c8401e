"""Commit-order policies: what one run varies in the core engine.

:class:`UnorderedCommitOrder` is the paper's §2 model — the batch is a
uniform draw from the work-set and the draw order *is* the commit order
``π_m``; a pluggable :class:`~repro.runtime.conflict.ConflictPolicy`
partitions it into committed/aborted tasks.

:class:`OrderedCommitOrder` is the §5 extension — tasks carry priorities
(virtual time), the batch is the ``m`` *earliest* pending tasks, and two
extra abort rules (*barrier* and *horizon*) guarantee the committed
sequence is globally chronological, hence equal to the sequential
execution.

Two *relaxed* policies interpolate between those extremes (Alistarh
et al.'s relaxed schedulers; Atos-style async GPU scheduling):

* :class:`RelaxedCommitOrder` — k-of-top priority relaxation: each batch
  entry is drawn uniformly from the ``k`` earliest pending tasks.
  ``k=1`` *is* the strict ordered policy (bit-identical, RNG
  trajectory included); ``k >= n`` recovers the §2 uniform-draw model in
  distribution — the theory bridge the relaxed conformance suite
  quantifies.
* :class:`AsyncCommitOrder` — fully asynchronous: tasks commit in
  arrival order subject to a bounded-staleness window, over an
  :class:`~repro.runtime.workset.ArrivalWorkset`.

Both policies plug into :class:`repro.runtime.core.Engine`; conflicts
always resolve through ``ConflictPolicy.resolve_fast``, which falls back
to the ``resolve`` walk on its own.  The ordered policies' work-set and
outcome types, :class:`PriorityWorkset` and :class:`OrderedBatchOutcome`,
live here too.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RuntimeEngineError, WorksetEmptyError
from repro.graph.partition import partition_graph, two_phase_commit_mask
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.core import OrderPolicy
from repro.runtime.kernels import csr_two_phase_commit_mask, sample_window_draws
from repro.runtime.task import Operator
from repro.utils.rng import ensure_rng, substream

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.runtime.conflict import ConflictPolicy
    from repro.runtime.task import Task

__all__ = [
    "PriorityWorkset",
    "OrderedBatchOutcome",
    "UnorderedCommitOrder",
    "OrderedCommitOrder",
    "RelaxedCommitOrder",
    "AsyncCommitOrder",
    "ShardedCommitOrder",
    "ASYNC_DEFAULT_WINDOW",
]

#: staleness window used when ``order="async"`` carries no explicit size
ASYNC_DEFAULT_WINDOW = 16


class PriorityWorkset:
    """Min-heap of ``(priority, tie, task)`` — earliest work first."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, "Task"]] = []
        self._ties = count()

    def add(self, task: "Task", priority: float) -> None:
        """Insert *task* at *priority* (smaller = earlier = more urgent)."""
        heapq.heappush(self._heap, (float(priority), next(self._ties), task))

    def take_earliest(self, m: int) -> "list[tuple[float, Task]]":
        """Remove the ``min(m, len)`` earliest tasks, in priority order."""
        if not self._heap:
            raise WorksetEmptyError("take from empty priority work-set")
        if m < 0:
            raise ValueError(f"cannot take {m} tasks")
        out = []
        for _ in range(min(m, len(self._heap))):
            prio, _, task = heapq.heappop(self._heap)
            out.append((prio, task))
        return out

    def take_window(
        self, m: int, window: int, rng
    ) -> "tuple[list[tuple[float, Task]], list[int]]":
        """Remove up to *m* tasks, each drawn from the ``window`` earliest.

        The k-of-top relaxed draw: every round picks uniformly among the
        ``min(window, pending)`` earliest remaining tasks, so a task can
        be overtaken by at most ``window - 1`` later-priority ones.
        Returns ``(batch, draws)`` where ``draws[i]`` is the in-window
        rank (0 = earliest) chosen at round ``i`` — the scheduling
        decision the relaxed policy records in its trace.

        ``window=1`` delegates to :meth:`take_earliest` and never touches
        *rng*, which is what makes depth-1 relaxation bit-identical to
        the strict ordered policy.  Draws are vectorised through
        :func:`~repro.runtime.kernels.sample_window_draws`; only the
        ``min(pending, m + window - 1)`` earliest heap entries are popped
        into a staging buffer, and unused ones are pushed back with their
        original tie-breakers, so the heap's FIFO-within-priority order
        is preserved.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if window == 1:
            batch = self.take_earliest(m)
            return batch, [0] * len(batch)
        if not self._heap:
            raise WorksetEmptyError("take from empty priority work-set")
        if m < 0:
            raise ValueError(f"cannot take {m} tasks")
        heap = self._heap
        pending = len(heap)
        k = min(m, pending)
        draws = sample_window_draws(pending, k, window, rng)
        # stage just enough of the heap head: after i removals the
        # window never reaches past entry m + window - 2 of the original
        # priority order, so depth entries always cover every draw
        depth = min(pending, k + window - 1)
        heappop = heapq.heappop
        buffer = [heappop(heap) for _ in range(depth)]
        # the draws only ever index the `window` earliest remaining
        # entries, so slide a window-sized head slice over the sorted
        # buffer instead of popping from its front: O(m * window)
        # element moves, not O(m * depth).  The staging cursor always
        # drains the whole buffer (depth <= k + window - 1), so the
        # only push-backs are the final window leftovers.
        draws_list: "list[int]" = draws.tolist()
        win = buffer[:window]
        nxt = len(win)
        pop = win.pop
        refill = win.append
        taken: "list[tuple[float, int, Task]]" = []
        take = taken.append
        for j in draws_list:
            take(pop(j))
            if nxt < depth:
                refill(buffer[nxt])
                nxt += 1
        for entry in win:  # at most window - 1 leftovers
            heapq.heappush(heap, entry)
        return [(prio, task) for prio, _, task in taken], draws_list

    def peek_priority(self) -> float:
        """Priority of the earliest pending task."""
        if not self._heap:
            raise WorksetEmptyError("peek into empty priority work-set")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class OrderedBatchOutcome:
    """Resolution of one ordered speculative batch.

    ``barrier`` is the priority of the earliest conflict-aborted task
    (``inf`` when none aborted); ``horizon`` is the final earliest-possible-
    future-work priority after all commits applied (it starts at the
    barrier and shrinks as committed tasks create new work).  Both are
    recorded for rollback-accounting diagnostics.
    """

    __slots__ = ("committed", "conflict_aborted", "order_aborted", "barrier", "horizon")

    def __init__(
        self,
        committed: "list[tuple[float, Task]]",
        conflict_aborted: "list[tuple[float, Task]]",
        order_aborted: "list[tuple[float, Task]]",
        barrier: float = float("inf"),
        horizon: float = float("inf"),
    ):
        self.committed = committed
        self.conflict_aborted = conflict_aborted
        self.order_aborted = order_aborted
        self.barrier = barrier
        self.horizon = horizon

    @property
    def launched(self) -> int:
        return len(self.committed) + len(self.conflict_aborted) + len(self.order_aborted)

    @property
    def conflict_ratio(self) -> float:
        """Total abort fraction (conflicts + order violations)."""
        n = self.launched
        if not n:
            return 0.0
        return (len(self.conflict_aborted) + len(self.order_aborted)) / n


class UnorderedCommitOrder(OrderPolicy):
    """Random commit order over a uniform-draw work-set (§2 model).

    Wraps a :class:`~repro.runtime.conflict.ConflictPolicy`; the trace's
    ``policy`` field names the conflict policy class.
    """

    def __init__(self, conflict_policy: "ConflictPolicy") -> None:
        self.conflict_policy = conflict_policy

    def label(self) -> str:
        return type(self.conflict_policy).__name__

    def init_rng(self, seed) -> None:
        self.engine.rng = ensure_rng(seed)

    def select(self, requested: int) -> "list[Task]":
        eng = self.engine
        return eng.workset.take(requested, eng.rng)

    def execute(self, batch: "list[Task]"):
        eng = self.engine
        prof = eng.profiler
        if prof is None:
            return self.conflict_policy.resolve_fast(batch, eng.operator)
        with prof.span("resolve"):
            return self.conflict_policy.resolve_fast(batch, eng.operator)

    def bind(self, engine) -> None:
        """Attach to *engine*; the operator is fixed for its lifetime, so
        what :meth:`apply` needs to know about it is looked up here once,
        not on each of a run's thousands of steps."""
        super().bind(engine)
        operator = engine.operator
        #: ``None`` for duck-typed operators (for_each accepts any object
        #: with neighborhood/apply)
        self._apply_batch = getattr(operator, "apply_batch", None)
        # getattr, not attribute access: duck-typed operators without
        # on_abort fail at the call in apply() (like the reference walk
        # would), not at this skip-the-default-no-op check
        self._calls_on_abort = (
            getattr(type(operator), "on_abort", None) is not Operator.on_abort
        )

    def apply(self, outcome) -> None:
        # runs inside the core's "commit" span (commit_span_name default)
        eng = self.engine
        workset = eng.workset
        operator = eng.operator
        # per step, not at bind(): phase schedules swap engine.workset
        add_batch = getattr(workset, "add_batch", None)
        if add_batch is None:
            # reference work-sets: the historical per-task walk, verbatim
            for task in outcome.committed:
                new_tasks = operator.apply(task)
                if new_tasks:
                    workset.add_all(new_tasks)
            for task in outcome.aborted:
                operator.on_abort(task)
                workset.add(task)  # rolled back, retried later
            return
        # incremental work-sets: identical semantics, O(delta) inserts.
        # New tasks are created in the same order (apply_batch defaults
        # to the apply loop) and nothing reads the work-set mid-apply,
        # so one extend lands them in the exact slots the per-task walk
        # would have — the differential suite holds this to the bit.
        committed = outcome.committed
        if committed:
            if self._apply_batch is not None:
                new_tasks = self._apply_batch(committed)
            else:
                # same concatenation order as the default apply_batch,
                # so slots stay bit-identical
                new_tasks = []
                for task in committed:
                    created = operator.apply(task)
                    if created:
                        new_tasks.extend(created)
            if new_tasks:
                add_batch(new_tasks)
        aborted = outcome.aborted
        if aborted:
            if self._calls_on_abort:
                for task in aborted:
                    operator.on_abort(task)
            add_batch(aborted)  # rolled back, retried later

    def committed_tasks(self, outcome) -> "list[Task]":
        return outcome.committed

    def aborted_tasks(self, outcome) -> "list[Task]":
        return outcome.aborted

    def step_event_fields(self, batch: "list[Task]", outcome) -> dict:
        # commit order recorded as positions within the drawn batch:
        # deterministic under the seed, unlike process-global task uids.
        # Policies that resolve by slot hand the positions over directly;
        # otherwise fall back to a uid->position map.
        if outcome.commit_slots is not None:
            return {
                "commit_positions": outcome.commit_slots,
                "abort_positions": outcome.abort_slots,
            }
        position = {t.uid: i for i, t in enumerate(batch)}
        return {
            "commit_positions": [position[t.uid] for t in outcome.committed],
            "abort_positions": [position[t.uid] for t in outcome.aborted],
        }


class OrderedCommitOrder(OrderPolicy):
    """Priority commit order with barrier/horizon abort rules (§5).

    Commit rule per step, with the batch sorted by priority:

    1. walk the batch earliest-first; a task *conflict-aborts* if its
       neighbourhood intersects an earlier committed task's neighbourhood;
    2. the **barrier**: no survivor later than the earliest
       conflict-aborted task may commit — that aborted task will re-execute
       in a future step and may create work in their past (order-abort
       instead of implementing Time-Warp anti-message cascades);
    3. apply surviving tasks earliest-first; after each apply, any later
       not-yet-applied survivor whose priority exceeds the earliest
       priority just *created* is also **order-aborted**.

    Rules 2+3 together give the strong invariant the tests rely on:
    the global committed sequence is chronologically sorted, and equals
    the sequential execution of the same workload.

    **Per-step RNG substreams.**  Aborted tasks roll back into the
    work-set and retry in later steps, so how much randomness one step's
    operators consume depends on the whole retry history.  A single
    shared stream would therefore make per-step draws irreproducible from
    the recorded seed alone.  Instead ``engine.rng`` is re-derived at the
    top of every step as a pure function of ``(seed, step)`` — replaying
    any step in isolation sees exactly the draws of the original run,
    regardless of what earlier (re)executions consumed.
    """

    def __init__(
        self,
        priority_of: "Callable[[Task], float]",
        conflict_policy: "ConflictPolicy | None" = None,
    ) -> None:
        self.priority_of = priority_of
        #: the :class:`~repro.runtime.conflict.ConflictPolicy` deciding the
        #: conflict phase; ``None`` means item locks over operator
        #: neighbourhoods.  Graph runs pass their ``ExplicitGraphPolicy``
        #: here so ordered and unordered engines detect the *same*
        #: conflicts — the precondition for the relaxed theory bridge.
        self.conflict_policy = (
            conflict_policy if conflict_policy is not None else ItemLockPolicy()
        )
        self.conflict_aborts_total = 0
        self.order_aborts_total = 0
        self._seed: "int | None" = None

    def label(self) -> str:
        return "ordered"

    def init_rng(self, seed) -> None:
        # Seeds (ints / SeedSequence / None) get per-step substream
        # derivation; a caller-owned Generator cannot be re-derived, so it
        # is used as-is (draws then depend on prior consumption — pass a
        # seed when step-level reproducibility matters).
        if isinstance(seed, np.random.Generator):
            self._seed = None
            self.engine.rng = seed
        else:
            self._seed = seed if seed is not None else int(
                np.random.SeedSequence().generate_state(1)[0]
            )
            self.engine.rng = substream(self._seed, "ordered-step", 0)

    def begin_step(self) -> None:
        if self._seed is not None:
            # one substream per step: draws are a pure function of
            # (seed, step), never of earlier steps' retry history
            self.engine.rng = substream(self._seed, "ordered-step", self.engine._step)

    def select(self, requested: int) -> "list[tuple[float, Task]]":
        return self.engine.workset.take_earliest(requested)

    def execute(self, batch: "list[tuple[float, Task]]"):
        return self.resolve(batch)  # opens resolve/commit spans

    def commit_span_name(self) -> str:
        return "record"

    def apply(self, outcome) -> None:
        # runs inside the core's "record" span: committed operators were
        # already applied during the horizon walk; only aborts roll back
        eng = self.engine
        for prio, task in outcome.conflict_aborted:
            eng.operator.on_abort(task)
            eng.workset.add(task, prio)
        for prio, task in outcome.order_aborted:
            eng.operator.on_abort(task)
            eng.workset.add(task, prio)
        self.conflict_aborts_total += len(outcome.conflict_aborted)
        self.order_aborts_total += len(outcome.order_aborted)

    # -- resolution ---------------------------------------------------
    def _conflict_phase(
        self, batch: "list[tuple[float, Task]]"
    ) -> "tuple[list[tuple[float, Task]], list[tuple[float, Task]]]":
        """Partition *batch* into (survivors, aborted) through the conflict policy."""
        # positions map straight back because resolve slots are ascending
        # within the walked order
        tasks = [task for _, task in batch]
        outcome = self.conflict_policy.resolve_fast(tasks, self.engine.operator)
        if outcome.commit_slots is not None:
            survivors = [batch[i] for i in outcome.commit_slots]
            aborted = [batch[i] for i in outcome.abort_slots]
            return survivors, aborted
        committed_uids = {task.uid for task in outcome.committed}
        survivors = [entry for entry in batch if entry[1].uid in committed_uids]
        aborted = [entry for entry in batch if entry[1].uid not in committed_uids]
        return survivors, aborted

    def resolve(self, batch: "list[tuple[float, Task]]") -> OrderedBatchOutcome:
        """Conflict phase + barrier/horizon commit walk over *batch*."""
        eng = self.engine
        with eng.phase_span("resolve"):
            survivors, conflict_aborted = self._conflict_phase(batch)
        committed: "list[tuple[float, Task]]" = []
        order_aborted: "list[tuple[float, Task]]" = []
        # barrier: an aborted task re-executes later and creates work no
        # earlier than its own priority — nothing beyond it may commit now
        barrier = min((p for p, _ in conflict_aborted), default=float("inf"))
        horizon = barrier  # earliest possible future work
        with eng.phase_span("commit"):
            for prio, task in survivors:
                if prio > horizon:
                    order_aborted.append((prio, task))
                    continue
                new_work = eng.operator.apply(task)
                for new_task in new_work:
                    new_prio = float(self.priority_of(new_task))
                    if new_prio < prio:
                        raise RuntimeEngineError(
                            f"operator created work at priority {new_prio} before "
                            f"its own task at {prio} (causality violation)"
                        )
                    eng.workset.add(new_task, new_prio)
                    horizon = min(horizon, new_prio)
                committed.append((prio, task))
        return OrderedBatchOutcome(
            committed, conflict_aborted, order_aborted, barrier=barrier, horizon=horizon
        )

    def committed_tasks(self, outcome) -> "list[Task]":
        return [task for _, task in outcome.committed]

    def aborted_tasks(self, outcome) -> "list[Task]":
        return [
            task for _, task in outcome.conflict_aborted + outcome.order_aborted
        ]

    def step_event_fields(self, batch, outcome) -> dict:
        position = {t.uid: i for i, (_, t) in enumerate(batch)}
        finite = lambda x: None if x == float("inf") else float(x)  # noqa: E731
        return {
            "commit_positions": [position[t.uid] for _, t in outcome.committed],
            "abort_positions": sorted(
                position[t.uid]
                for _, t in outcome.conflict_aborted + outcome.order_aborted
            ),
            "conflict_aborted": len(outcome.conflict_aborted),
            "order_aborted": len(outcome.order_aborted),
            "barrier": finite(outcome.barrier),
            "horizon": finite(outcome.horizon),
        }

    def step_metrics(self, metrics, outcome) -> None:
        metrics.counter("conflict_aborts").inc(len(outcome.conflict_aborted))
        metrics.counter("order_aborts").inc(len(outcome.order_aborted))

    def run_end_fields(self) -> dict:
        return {
            "conflict_aborts": self.conflict_aborts_total,
            "order_aborts": self.order_aborts_total,
        }


class RelaxedCommitOrder(OrderedCommitOrder):
    """k-of-top priority relaxation of the ordered policy.

    Each batch entry is drawn uniformly from the ``k`` *earliest* pending
    tasks (via :meth:`PriorityWorkset.take_window`), so a task may be
    overtaken by at most ``k - 1`` later-priority tasks — the bounded
    rank error of Alistarh et al.'s relaxed priority schedulers.  The
    draw order is the commit order; conflicts resolve greedily along it
    exactly as in the strict policy.

    The two endpoints anchor the theory bridge the relaxed conformance
    suite (``tests/model/test_relaxed_conformance.py``) verifies:

    * ``k = 1`` — the window holds only the head, no randomness is
      consumed, and the policy **is** :class:`OrderedCommitOrder`:
      byte-identical traces, RNG trajectory included (``label()``
      reports ``"ordered"`` accordingly).
    * ``k >= n`` — the window always covers the whole work-set, the draw
      degenerates to the uniform ordered sample without replacement, and
      (with the same conflict policy) the commit distribution equals the
      paper's §2 ``π_m`` model.

    For ``k > 1`` the strict policy's barrier/horizon *order-abort* rules
    are deliberately dropped: bounded out-of-order commits are the point
    of relaxation, and re-executed or newly created earlier-priority work
    simply commits in a later round (staleness stays bounded by the
    window).  Conflict aborts and the barrier/horizon diagnostics are
    still reported, so the step-event schema matches the ordered engine's.

    Each windowed draw is emitted as an ``order_decision`` trace event
    (window size plus per-round in-window ranks), keeping relaxed traces
    replayable decision by decision.
    """

    def __init__(
        self,
        priority_of: "Callable[[Task], float]",
        k: int,
        conflict_policy: "ConflictPolicy | None" = None,
    ) -> None:
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise RuntimeEngineError(
                f"relaxation depth k must be an int >= 1, got {k!r}"
            )
        super().__init__(priority_of, conflict_policy=conflict_policy)
        self.k = k
        #: in-window ranks of the most recent batch draw (diagnostics)
        self.last_draws: "list[int]" = []

    def label(self) -> str:
        # depth 1 IS the strict ordered policy — label it as such so
        # run_start events (and the byte-identity acceptance gate) agree
        return "ordered" if self.k == 1 else f"relaxed:{self.k}"

    def select(self, requested: int) -> "list[tuple[float, Task]]":
        if self.k == 1:
            return super().select(requested)  # no RNG: strict head take
        eng = self.engine
        take_window = getattr(eng.workset, "take_window", None)
        if take_window is None:
            raise RuntimeEngineError(
                f"relaxed commit order needs a work-set with take_window(), "
                f"got {type(eng.workset).__name__}"
            )
        batch, draws = take_window(requested, self.k, eng.rng)
        self.last_draws = draws
        if eng.recorder is not None:
            eng.recorder.emit(
                "order_decision",
                step=eng.steps_executed,
                policy=self.label(),
                window=self.k,
                draws=draws,
            )
        return batch

    def resolve(self, batch: "list[tuple[float, Task]]") -> OrderedBatchOutcome:
        """Conflict phase + unconditional commit walk (no order aborts)."""
        if self.k == 1:
            return super().resolve(batch)
        eng = self.engine
        with eng.phase_span("resolve"):
            survivors, conflict_aborted = self._conflict_phase(batch)
        committed: "list[tuple[float, Task]]" = []
        # barrier/horizon are reported as diagnostics only: relaxation
        # tolerates bounded out-of-order commits instead of aborting them
        barrier = min((p for p, _ in conflict_aborted), default=float("inf"))
        horizon = barrier
        with eng.phase_span("commit"):
            for prio, task in survivors:
                for new_task in eng.operator.apply(task):
                    new_prio = float(self.priority_of(new_task))
                    eng.workset.add(new_task, new_prio)
                    horizon = min(horizon, new_prio)
                committed.append((prio, task))
        return OrderedBatchOutcome(
            committed, conflict_aborted, [], barrier=barrier, horizon=horizon
        )


class AsyncCommitOrder(UnorderedCommitOrder):
    """Fully asynchronous commit order with a bounded-staleness window.

    Models Atos-style asynchronous task scheduling: tasks commit in
    *arrival* order, except that each batch entry may be drawn from the
    oldest ``window`` pending tasks (an
    :class:`~repro.runtime.workset.ArrivalWorkset`), so stale work is
    overtaken by at most ``window - 1`` younger tasks.  Conflict
    resolution and roll-back semantics are inherited unchanged from
    :class:`UnorderedCommitOrder` — aborted tasks re-enter at the queue
    tail (asynchronous resubmission) — and the step-event schema is
    identical to the unordered engine's, so every trace consumer works
    on async runs unmodified.  Windowed draws with ``window > 1`` are
    additionally emitted as ``order_decision`` events.
    """

    def __init__(
        self,
        conflict_policy: "ConflictPolicy",
        window: int = ASYNC_DEFAULT_WINDOW,
    ) -> None:
        if isinstance(window, bool) or not isinstance(window, int) or window < 1:
            raise RuntimeEngineError(
                f"staleness window must be an int >= 1, got {window!r}"
            )
        super().__init__(conflict_policy)
        self.window = window
        #: in-window indices of the most recent batch draw (diagnostics)
        self.last_draws: "list[int]" = []

    def label(self) -> str:
        return f"async:{self.window}"

    def select(self, requested: int) -> "list[Task]":
        eng = self.engine
        take_window = getattr(eng.workset, "take_window", None)
        if take_window is None:
            raise RuntimeEngineError(
                f"async commit order needs a work-set with take_window(), "
                f"got {type(eng.workset).__name__}"
            )
        batch, draws = take_window(requested, self.window, eng.rng)
        self.last_draws = draws
        if eng.recorder is not None and self.window > 1:
            eng.recorder.emit(
                "order_decision",
                step=eng.steps_executed,
                policy=self.label(),
                window=self.window,
                draws=draws,
            )
        return batch


class ShardedCommitOrder(UnorderedCommitOrder):
    """Partitioned commit order with two-phase halo-exchange resolution.

    The batch is still one uniform draw from the *global* work-set — the
    paper's §2 commit order ``π_m`` and the RNG trajectory are untouched
    — but conflict resolution is partitioned: a deterministic edge-cut
    :class:`~repro.graph.partition.GraphPartition` splits the CC graph
    into ``shards`` shards, each shard resolves its slice of the batch
    greedily over intra-shard edges (phase 1), and locally committed
    boundary tasks then survive a single halo exchange over the cut
    edges (phase 2).  No two committed tasks of one round are adjacent —
    conflict-serializability is preserved — while a shard may abort
    boundary work the global greedy walk would have committed; those
    surplus ``halo_aborts`` are the price of bounded cross-shard
    staleness and are reported per step and per run.

    ``shards=1`` *is* the unordered policy: every edge is intra-shard,
    phase 1 is the plain greedy walk, phase 2 is a no-op — execution is
    delegated verbatim (label, RNG, events and all), keeping traces
    byte-identical to the unordered policy's.  Multi-shard rounds emit an
    ``order_decision`` event (per-shard launch/commit counts) and a
    ``halo_exchange`` event (committed nodes with their shards, halo
    aborts) so a trace alone certifies the serializability claim.
    """

    def __init__(self, conflict_policy: "ConflictPolicy", shards: int = 1) -> None:
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise RuntimeEngineError(
                f"shard count must be an int >= 1, got {shards!r}"
            )
        super().__init__(conflict_policy)
        self.shards = shards
        self._partition = None
        self.halo_aborts_total = 0
        #: per-shard launched/committed counts of the most recent round
        self.last_shard_stats: "dict | None" = None

    def label(self) -> str:
        # one shard IS the unordered policy — label it as such so
        # run_start events (and the byte-identity gate) agree
        if self.shards == 1:
            return super().label()
        return f"sharded:{self.shards}"

    @property
    def partition(self):
        """The lazily built edge-cut partition (multi-shard only)."""
        if self._partition is None:
            graph = getattr(self.conflict_policy, "graph", None)
            if graph is None:
                raise RuntimeEngineError(
                    "sharded commit order needs a graph-backed conflict "
                    f"policy, got {type(self.conflict_policy).__name__}"
                )
            self._partition = partition_graph(graph, self.shards)
        return self._partition

    def execute(self, batch: "list[Task]"):
        """Resolve *batch* in two phases: one CSR gather where the conflict
        policy's gate allows it, the reference walk on every other batch."""
        if self.shards == 1:
            return super().execute(batch)
        eng = self.engine
        with eng.phase_span("resolve"):
            part = self.partition
            policy = self.conflict_policy
            masks = None
            rows = policy._gather_rows(batch)
            if rows is not None:
                snapshot, idx = rows
                payloads = snapshot.node_ids[idx]
                shard_by_pos = part.shard_of_array(payloads)
                masks = csr_two_phase_commit_mask(
                    snapshot.indptr, snapshot.indices, idx, policy._pos, shard_by_pos
                )
            if masks is None:  # small, morphing or degenerate batch: the walk rules
                nodes = [task.payload for task in batch]
                masks = two_phase_commit_mask(policy.graph, part, nodes)
                payloads = np.asarray(nodes, dtype=np.int64)
                shard_by_pos = part.shard_of_array(payloads)
            final, local = masks
            outcome = policy._split_by_mask(batch, final)
        self._note_round(payloads, shard_by_pos, final, local)
        return outcome

    def _note_round(self, payloads, shard_by_pos, final, local) -> None:
        """Account one multi-shard round and emit its trace events."""
        eng = self.engine
        launched = np.bincount(shard_by_pos, minlength=self.shards)
        committed = np.bincount(shard_by_pos[final], minlength=self.shards)
        halo_aborts = int(np.count_nonzero(local & ~final))
        self.halo_aborts_total += halo_aborts
        self.last_shard_stats = {
            "launched": [int(x) for x in launched],
            "committed": [int(x) for x in committed],
            "halo_aborts": halo_aborts,
        }
        if eng.recorder is not None:
            step = eng.steps_executed
            eng.recorder.emit(
                "order_decision",
                step=step,
                policy=self.label(),
                shards=self.shards,
                launched=self.last_shard_stats["launched"],
                committed=self.last_shard_stats["committed"],
            )
            eng.recorder.emit(
                "halo_exchange",
                step=step,
                policy=self.label(),
                local_commits=int(np.count_nonzero(local)),
                halo_aborts=halo_aborts,
                committed_nodes=[int(p) for p in payloads[final]],
                committed_shards=[int(s) for s in shard_by_pos[final]],
            )

    def step_metrics(self, metrics, outcome) -> None:
        if self.shards > 1 and self.last_shard_stats is not None:
            metrics.counter("halo_aborts").inc(
                self.last_shard_stats["halo_aborts"]
            )

    def run_end_fields(self) -> dict:
        if self.shards == 1:
            return super().run_end_fields()
        return {"halo_aborts": self.halo_aborts_total}
