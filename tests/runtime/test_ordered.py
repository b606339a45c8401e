"""Tests for the ordered commit order — priority-ordered speculation."""

import pytest

from repro.control.fixed import FixedController
from repro.errors import RuntimeEngineError, WorksetEmptyError
from repro.runtime.core import Engine
from repro.runtime.policies import OrderedCommitOrder, PriorityWorkset
from repro.runtime.task import CallbackOperator, Task


class TestPriorityWorkset:
    def test_earliest_first(self):
        ws = PriorityWorkset()
        ws.add(Task(payload="b"), 2.0)
        ws.add(Task(payload="a"), 1.0)
        ws.add(Task(payload="c"), 3.0)
        batch = ws.take_earliest(2)
        assert [t.payload for _, t in batch] == ["a", "b"]
        assert len(ws) == 1

    def test_fifo_tiebreak(self):
        ws = PriorityWorkset()
        ws.add(Task(payload="first"), 1.0)
        ws.add(Task(payload="second"), 1.0)
        batch = ws.take_earliest(2)
        assert [t.payload for _, t in batch] == ["first", "second"]

    def test_peek(self):
        ws = PriorityWorkset()
        ws.add(Task(payload=0), 5.0)
        assert ws.peek_priority() == 5.0
        assert len(ws) == 1  # peek does not remove

    def test_empty_raises(self):
        ws = PriorityWorkset()
        with pytest.raises(WorksetEmptyError):
            ws.take_earliest(1)
        with pytest.raises(WorksetEmptyError):
            ws.peek_priority()

    def test_negative_take_raises(self):
        ws = PriorityWorkset()
        ws.add(Task(payload=0), 1.0)
        with pytest.raises(ValueError):
            ws.take_earliest(-1)


def make_engine(tasks, neighborhoods, children=None, m=4):
    """Engine over explicit (priority, payload) tasks.

    *neighborhoods* maps payload -> item set; *children* maps payload ->
    list of (child_payload, child_priority) created on commit.
    """
    children = children or {}
    ws = PriorityWorkset()
    prio_of = {}
    for payload, prio in tasks:
        prio_of[payload] = prio
        ws.add(Task(payload=payload), prio)

    def apply(task):
        out = []
        for child_payload, child_prio in children.get(task.payload, []):
            prio_of[child_payload] = child_prio
            neighborhoods.setdefault(child_payload, set())
            out.append(Task(payload=child_payload))
        return out

    op = CallbackOperator(
        neighborhood=lambda t: neighborhoods.get(t.payload, set()), apply=apply
    )
    return Engine(
        workset=ws,
        operator=op,
        controller=FixedController(m),
        order=OrderedCommitOrder(lambda t: prio_of[t.payload]),
        seed=0,
    )


class TestOrderedResolution:
    def test_disjoint_batch_commits_in_order(self):
        eng = make_engine([("a", 1), ("b", 2), ("c", 3)], {"a": {1}, "b": {2}, "c": {3}})
        stats = eng.step()
        assert stats.committed == 3 and stats.aborted == 0

    def test_conflict_earliest_wins(self):
        eng = make_engine([("a", 1), ("b", 2)], {"a": {"x"}, "b": {"x"}})
        stats = eng.step()
        assert stats.committed == 1
        # the barrier also blocks nothing here beyond b itself
        assert eng.order.conflict_aborts_total == 1

    def test_barrier_blocks_later_survivors(self):
        """b conflict-aborts at prio 2 -> c (prio 3, no conflict) must wait."""
        eng = make_engine(
            [("a", 1), ("b", 2), ("c", 3)],
            {"a": {"x"}, "b": {"x"}, "c": {"y"}},
        )
        stats = eng.step()
        assert stats.committed == 1  # only a
        assert eng.order.conflict_aborts_total == 1  # b
        assert eng.order.order_aborts_total == 1  # c blocked by the barrier

    def test_created_past_work_order_aborts(self):
        """a creates work at prio 1.5; c at prio 3 must not commit."""
        eng = make_engine(
            [("a", 1), ("c", 3)],
            {"a": {"x"}, "c": {"y"}},
            children={"a": [("child", 1.5)]},
        )
        stats = eng.step()
        assert stats.committed == 1
        assert eng.order.order_aborts_total == 1

    def test_causality_violation_raises(self):
        eng = make_engine(
            [("a", 5)],
            {"a": {"x"}},
            children={"a": [("past", 1.0)]},
        )
        with pytest.raises(RuntimeEngineError):
            eng.step()

    def test_aborted_tasks_retried(self):
        eng = make_engine([("a", 1), ("b", 2)], {"a": {"x"}, "b": {"x"}})
        res = eng.run()
        assert res.total_committed == 2
        assert len(res) == 2  # conflict forces a second step

    def test_commit_order_globally_chronological(self):
        committed_prios = []
        neigh = {i: {i % 3} for i in range(30)}  # heavy contention
        eng = make_engine([(i, float(i % 7) + i / 100.0) for i in range(30)], neigh, m=10)
        orig = eng.order.resolve

        def spy(batch):
            out = orig(batch)
            committed_prios.extend(p for p, _ in out.committed)
            return out

        eng.order.resolve = spy
        res = eng.run(max_steps=500)
        # the spy must have seen every commit, or sortedness proves nothing
        assert len(committed_prios) == res.total_committed == 30
        assert committed_prios == sorted(committed_prios)

    def test_empty_step_raises(self):
        eng = make_engine([("a", 1)], {"a": set()})
        eng.run()
        with pytest.raises(RuntimeEngineError):
            eng.step()

    def test_bad_max_steps(self):
        eng = make_engine([("a", 1)], {"a": set()})
        with pytest.raises(RuntimeEngineError):
            eng.run(max_steps=-1)


class TestPerStepRNGSubstreams:
    """Regression: step-k randomness is a pure function of (seed, k).

    The engine used to hand operators one long-lived generator, so any
    extra draw during an early step (e.g. inside a rollback retry) shifted
    every later step's randomness.  ``engine.rng`` is now re-derived as
    ``substream(seed, "ordered-step", k)`` at the top of each step.
    """

    @staticmethod
    def _engine():
        tasks = [(i, float(i)) for i in range(12)]
        neigh = {i: {i % 4} for i in range(12)}
        return make_engine(tasks, neigh, m=4)

    def test_extra_draws_do_not_shift_later_steps(self):
        noisy, clean = self._engine(), self._engine()
        noisy.rng.random(100)  # e.g. a retry loop consuming extra entropy
        noisy.step()
        clean.step()
        assert noisy.rng.random(8).tolist() == clean.rng.random(8).tolist()

    def test_step_stream_matches_direct_derivation(self):
        from repro.utils.rng import substream

        eng = self._engine()
        eng.step()
        executed = eng._step  # index the next step will derive from
        eng.step()
        expected = substream(0, "ordered-step", executed).random(4)
        assert eng.rng.random(4).tolist() == expected.tolist()

    def test_generator_seed_passthrough(self):
        import numpy as np

        ws = PriorityWorkset()
        ws.add(Task(payload="a"), 1.0)
        gen = np.random.default_rng(3)
        eng = Engine(
            workset=ws,
            operator=CallbackOperator(
                neighborhood=lambda t: set(), apply=lambda t: []
            ),
            controller=FixedController(1),
            order=OrderedCommitOrder(lambda t: 1.0),
            seed=gen,
        )
        assert eng.rng is gen  # caller-owned generators are used as-is
        eng.step()
        assert eng.rng is gen  # and never silently replaced
