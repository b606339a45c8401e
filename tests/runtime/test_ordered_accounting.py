"""Rollback accounting for the ordered commit order: barrier/horizon invariants.

These pin down the bookkeeping of :class:`OrderedBatchOutcome` — where the
barrier sits, how the horizon shrinks as commits create new work, and that
the engine's running abort totals stay consistent with the per-run stats.
"""

import math

from repro.control.fixed import FixedController
from repro.runtime.core import Engine
from repro.runtime.policies import (
    OrderedBatchOutcome,
    OrderedCommitOrder,
    PriorityWorkset,
)
from repro.runtime.task import CallbackOperator, Task

from tests.runtime.test_ordered import make_engine


def resolve_one(eng):
    """Take one full batch and resolve it, returning the raw outcome."""
    batch = eng.workset.take_earliest(len(eng.workset))
    return eng.order.resolve(batch)


class TestBarrier:
    def test_clean_batch_has_infinite_barrier_and_horizon(self):
        eng = make_engine([("a", 1), ("b", 2)], {"a": {1}, "b": {2}})
        out = resolve_one(eng)
        assert math.isinf(out.barrier) and math.isinf(out.horizon)
        assert len(out.committed) == 2

    def test_barrier_is_earliest_conflict_abort_priority(self):
        eng = make_engine(
            [("a", 1), ("b", 2), ("c", 3), ("d", 4)],
            {"a": {"x"}, "b": {"y"}, "c": {"x"}, "d": {"y"}},
        )
        out = resolve_one(eng)
        # c (prio 3) is the earliest conflict abort; d conflicts too but the
        # barrier reports the earliest, and nothing later than 3 commits.
        assert out.barrier == 3.0
        assert [p for p, _ in out.committed] == [1.0, 2.0]
        assert all(p >= out.barrier for p, _ in out.order_aborted)

    def test_survivor_beyond_barrier_is_order_aborted(self):
        eng = make_engine(
            [("a", 1), ("b", 2), ("c", 3)],
            {"a": {"x"}, "b": {"x"}, "c": {"y"}},
        )
        out = resolve_one(eng)
        assert out.barrier == 2.0
        assert [p for p, _ in out.conflict_aborted] == [2.0]
        assert [p for p, _ in out.order_aborted] == [3.0]
        assert [p for p, _ in out.committed] == [1.0]


class TestHorizon:
    def test_horizon_shrinks_to_created_priority(self):
        eng = make_engine(
            [("a", 1), ("c", 3)],
            {"a": {"x"}, "c": {"y"}},
            children={"a": [("child", 1.5)]},
        )
        out = resolve_one(eng)
        assert math.isinf(out.barrier)  # no conflicts at all
        assert out.horizon == 1.5
        assert [p for p, _ in out.order_aborted] == [3.0]

    def test_horizon_chains_across_commits(self):
        """Each commit can pull the horizon further in; later survivors see
        the tightest value produced so far."""
        eng = make_engine(
            [("a", 1), ("b", 2), ("d", 2.4), ("c", 3)],
            {"a": {"w"}, "b": {"x"}, "d": {"y"}, "c": {"z"}},
            children={"a": [("p", 5.0)], "b": [("q", 2.5)]},
        )
        out = resolve_one(eng)
        # a commits (horizon 5.0), b commits (horizon 2.5), d at 2.4 still
        # fits, c at 3 > 2.5 is order-aborted.
        assert [p for p, _ in out.committed] == [1.0, 2.0, 2.4]
        assert [p for p, _ in out.order_aborted] == [3.0]
        assert out.horizon == 2.5

    def test_horizon_starts_at_barrier(self):
        eng = make_engine(
            [("a", 1), ("b", 2), ("c", 2.2), ("d", 2.8)],
            {"a": {"x"}, "b": {"x"}, "c": {"y"}, "d": {"z"}},
            children={"c": [("late", 9.0)]},
        )
        out = resolve_one(eng)
        # barrier at b's priority 2; created work at 9 never widens it.
        assert out.barrier == 2.0
        assert out.horizon == 2.0
        assert [p for p, _ in out.committed] == [1.0]
        assert sorted(p for p, _ in out.order_aborted) == [2.2, 2.8]


class TestRollbackAccounting:
    def test_abort_totals_match_run_result(self):
        neigh = {i: {i % 4} for i in range(40)}
        eng = make_engine(
            [(i, float(i % 5) + i / 100.0) for i in range(40)], neigh, m=12
        )
        res = eng.run(max_steps=500)
        assert eng.order.conflict_aborts_total + eng.order.order_aborts_total == res.total_aborted
        assert res.total_committed == 40

    def test_aborted_tasks_reenqueued_at_same_priority(self):
        eng = make_engine(
            [("a", 1), ("b", 2), ("c", 3)],
            {"a": {"x"}, "b": {"x"}, "c": {"y"}},
        )
        eng.step()
        # b (conflict) and c (order) both go back at their own priorities.
        assert len(eng.workset) == 2
        assert eng.workset.peek_priority() == 2.0
        remaining = eng.workset.take_earliest(2)
        assert [(p, t.payload) for p, t in remaining] == [(2.0, "b"), (3.0, "c")]

    def test_every_launch_is_accounted_exactly_once(self):
        eng = make_engine(
            [(i, float(i)) for i in range(12)],
            {i: {i % 3} for i in range(12)},
            m=12,
        )
        out = resolve_one(eng)
        assert (
            len(out.committed) + len(out.conflict_aborted) + len(out.order_aborted)
            == out.launched
            == 12
        )
        seen = {t.uid for _, t in out.committed}
        seen |= {t.uid for _, t in out.conflict_aborted}
        seen |= {t.uid for _, t in out.order_aborted}
        assert len(seen) == 12  # no task lands in two buckets

    def test_outcome_defaults_are_infinite(self):
        out = OrderedBatchOutcome([], [], [])
        assert math.isinf(out.barrier) and math.isinf(out.horizon)
        assert out.launched == 0 and out.conflict_ratio == 0.0

    def test_trace_records_barrier_and_horizon(self):
        from repro.obs import TraceRecorder

        rec = TraceRecorder()
        ws = PriorityWorkset()
        for payload, prio in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            ws.add(Task(payload=payload), prio)
        op = CallbackOperator(
            neighborhood=lambda t: {"x"} if t.payload in ("a", "b") else {"y"},
            apply=lambda t: [],
        )
        eng = Engine(
            workset=ws,
            operator=op,
            controller=FixedController(3),
            order=OrderedCommitOrder(lambda t: 0.0),
            seed=0,
            recorder=rec,
        )
        eng.step()
        steps = [e for e in rec.events if e.kind == "step"]
        assert steps[0].data["barrier"] == 2.0
        assert steps[0].data["horizon"] == 2.0
        assert steps[0].data["conflict_aborted"] == 1
        assert steps[0].data["order_aborted"] == 1
