"""Tests for the repro.api facade."""

import pytest

from repro.api import for_each, run
from repro.config import RunConfig
from repro.control import FixedController
from repro.errors import ConflictDetectionError, ReproError
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.task import CallbackOperator, Task
from repro.runtime.wktrace import TraceReplayWorkload, WorkloadTrace


class TestForEach:
    def test_basic_loop(self):
        seen = []
        op = CallbackOperator(
            neighborhood=lambda t: {t.payload % 5},
            apply=lambda t: seen.append(t.payload) or [],
        )
        result = for_each(range(50), op, rho=0.25, seed=0)
        assert sorted(seen) == list(range(50))
        assert result.total_committed == 50

    def test_task_payloads_pass_through(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        tasks = [Task(payload="x")]
        result = for_each(tasks, op, seed=1)
        assert result.total_committed == 1

    def test_spawned_work_processed(self):
        op = CallbackOperator(
            neighborhood=lambda t: (),
            apply=lambda t: [Task(payload=t.payload - 1)] if t.payload > 0 else [],
        )
        result = for_each([3], op, seed=2)
        assert result.total_committed == 4  # 3, 2, 1, 0

    def test_explicit_controller(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        result = for_each(range(10), op, controller=FixedController(10), seed=3)
        assert len(result) == 1

    def test_empty_input_raises(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        with pytest.raises(
            ReproError,
            match=r"^run\(initial=\.\.\., operator=\.\.\.\) needs at least one initial task$",
        ):
            for_each([], op)


class TestRunTaskLoopOrders:
    """An unprioritised task loop under the orders that do not rank tasks."""

    OP = CallbackOperator(neighborhood=lambda t: {t.payload % 3}, apply=lambda t: [])

    def test_a_multi_shard_order_is_a_config_error(self):
        from repro.errors import ConfigError
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        with pytest.raises(ConfigError, match=r"'sharded:2'.*item locks.*unordered"):
            run(RunConfig(order="sharded:2"), initial=range(10), operator=self.OP,
                recorder=recorder)
        assert recorder.events == []  # rejected before the engine was built

    @pytest.mark.parametrize("order", ["sharded", "sharded:1"])
    def test_one_shard_is_the_unordered_order(self, order):
        def trace(order):
            from repro.obs import TraceRecorder

            recorder = TraceRecorder()
            run(RunConfig(order=order), initial=range(10), operator=self.OP,
                seed=4, recorder=recorder)
            return recorder.to_jsonl()

        assert trace(order) == trace("unordered")


class TestRunOrderedLoop:
    """``run(initial=(priority, payload) pairs, priority_of=...)``."""

    def test_commits_chronologically(self):
        order = []
        op = CallbackOperator(
            neighborhood=lambda t: {"shared"},  # full mutual conflict
            apply=lambda t: order.append(t.payload) or [],
        )
        result = run(
            RunConfig(workload="consuming"),
            initial=[(3.0, "c"), (1.0, "a"), (2.0, "b")],
            operator=op,
            priority_of=lambda t: 0.0,
            seed=4,
        )
        assert order == ["a", "b", "c"]
        assert result.total_committed == 3

    def test_empty_input_raises(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        with pytest.raises(
            ReproError,
            match=r"^run\(initial=\.\.\., priority_of=\.\.\.\) needs at least one "
            r"\(priority, payload\) pair$",
        ):
            run(
                RunConfig(workload="consuming"),
                initial=[],
                operator=op,
                priority_of=lambda t: 0.0,
            )

    @pytest.mark.parametrize("order", ["ordered", "relaxed:2"])
    def test_a_task_queued_twice_in_one_batch_is_rejected(self, order):
        # the priority orders resolve through the same item-lock policy
        # as the unordered one, so a batch holding one task twice fails
        # instead of applying that task's operator twice
        applied = []
        op = CallbackOperator(
            neighborhood=lambda t: (), apply=lambda t: applied.append(t) or []
        )
        twice = Task(payload="t")
        with pytest.raises(ConflictDetectionError, match=r"appears twice in batch"):
            run(
                RunConfig(controller="fixed", m=4, order=order),
                initial=[(0.0, twice), (1.0, twice), (2.0, 2)],
                operator=op,
                priority_of=lambda t: 0.0,
                seed=0,
            )
        assert applied == []


class TestRunRecordsATaskLoop:
    """``run(initial=..., operator=..., record_workload=path)``."""

    @staticmethod
    def _operator():
        return CallbackOperator(
            neighborhood=lambda t: {t.payload % 6},
            apply=lambda t: [Task(payload=t.payload + 11)] if t.payload < 40 else [],
        )

    @pytest.mark.parametrize("ordered", [False, True])
    def test_recording_replays_to_completion(self, tmp_path, ordered):
        path = tmp_path / "loop.wktrace"
        initial = range(20)
        extra = {}
        if ordered:
            initial = [(float(i), i) for i in initial]
            extra = {"priority_of": lambda t: float(t.payload)}
        recorded = run(
            RunConfig(seed=1),
            initial=initial,
            operator=self._operator(),
            record_workload=str(path),
            **extra,
        )
        trace = WorkloadTrace.load(path)
        assert trace.label == "task-loop"
        assert trace.requires_order is ordered
        assert len(trace.commits) == recorded.total_committed > 20
        assert trace.aborts == recorded.total_aborted > 0

        replayed = run(RunConfig(workload=f"trace:{path}", seed=2))
        assert replayed.total_committed == recorded.total_committed
        workload = TraceReplayWorkload.load(path)
        make_engine(workload, FixedController(4), seed=3).run()
        assert workload.replay_complete()


class TestRunOnAGraph:
    """``run(RunConfig(workload="consuming" | "replay"), graph=...)``."""

    def test_consuming_drains(self):
        g = gnm_random(100, 6, seed=5)
        result = run(RunConfig(workload="consuming", rho=0.25), graph=g, seed=6)
        assert result.total_committed == 100
        assert g.num_nodes == 0

    def test_replay_requires_max_steps(self):
        g = gnm_random(20, 2, seed=7)
        with pytest.raises(ReproError):
            run(RunConfig(workload="replay"), graph=g)

    def test_replay_runs_capped(self):
        g = gnm_random(50, 4, seed=8)
        result = run(RunConfig(workload="replay", max_steps=15), graph=g, seed=9)
        assert len(result) == 15
        assert g.num_nodes == 50


class TestRunSeedReachesTheWorkload:
    """``run(config, seed=s)`` twice is the same run, workload RNGs included."""

    @staticmethod
    def recorded_run(seed, config_seed=None):
        from repro import RunConfig, run
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        result = run(
            RunConfig(workload="regenerating", max_steps=20, seed=config_seed),
            graph=gnm_random(120, 6, seed=4),
            seed=seed,
            recorder=recorder,
        )
        return result, recorder.to_jsonl()

    def test_an_int_seed_reproduces_the_whole_run(self):
        # the rewiring RNG used to come from config.seed alone — None
        # here, so it drew fresh entropy on every run
        first, first_trace = self.recorded_run(seed=5)
        again, again_trace = self.recorded_run(seed=5)
        assert (first.m_trace == again.m_trace).all()
        assert (first.committed_trace == again.committed_trace).all()
        assert first_trace == again_trace

    def test_the_int_seed_wins_over_config_seed(self):
        _, by_keyword = self.recorded_run(seed=5)
        _, over_config = self.recorded_run(seed=5, config_seed=9)
        _, by_config = self.recorded_run(seed=None, config_seed=5)
        assert by_keyword == over_config == by_config

    def test_a_generator_seed_drives_the_engine_only(self):
        import numpy as np

        runs = [
            self.recorded_run(seed=np.random.default_rng(5), config_seed=9)[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]  # workload rewiring stays on config.seed


class TestEntryPointsRecordTheSameTrace:
    """Each default entry point is an explicit commit order, byte for byte."""

    def test_default_order_is_unordered_on_a_graph_run(self):
        from repro import RunConfig, run
        from repro.obs import TraceRecorder

        for workload, max_steps in (("consuming", None), ("replay", 40)):
            traces = []
            for order in (None, "unordered"):
                recorder = TraceRecorder()
                run(
                    RunConfig(workload=workload, order=order, max_steps=max_steps),
                    graph=gnm_random(80, 6, seed=2),
                    seed=3,
                    recorder=recorder,
                )
                traces.append(recorder.to_jsonl())
            assert traces[0] == traces[1], workload

    def test_priority_of_without_order_is_the_ordered_order(self):
        from repro.obs import TraceRecorder

        op = CallbackOperator(
            neighborhood=lambda t: {t.payload % 4},  # contention
            apply=lambda t: [Task(payload=t.payload + 7)] if t.payload < 40 else [],
        )
        initial = [(float(i), i) for i in range(20)]
        priority_of = lambda t: float(t.payload)  # noqa: E731
        traces = []
        for order in (None, "ordered"):
            recorder = TraceRecorder()
            result = run(
                RunConfig(workload="consuming", order=order),
                initial=initial,
                operator=op,
                priority_of=priority_of,
                seed=5,
                recorder=recorder,
            )
            traces.append(recorder.to_jsonl())
        assert traces[0] == traces[1]
        assert result.total_aborted > 0  # the commit rules had work to do


def test_top_level_exports():
    import repro

    assert repro.for_each is for_each
    assert repro.run is run
