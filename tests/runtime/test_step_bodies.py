"""The engine's two step bodies must be the same step.

``Engine.step`` runs a *bare* body when no profiler, recorder or metrics
registry is attached and an *observed* one otherwise.  Observation must
never perturb the simulation: for every commit order, the same
``(workload, seed)`` run bare, with recorder + metrics, and under a
``SpanProfiler`` has to produce equal step records, costs, controller
traces and final generator state — and the hooks and errors both bodies
share must behave identically.  The bookkeeping both bodies share walks
no task: no per-task record rides the bare path.
"""

from __future__ import annotations

import dis
import types

import pytest

from repro.config import RunConfig
from repro.control import HybridController
from repro.control.fixed import FixedController
from repro.errors import RuntimeEngineError
from repro.graph.generators import gnm_random
from repro.obs import MetricsRegistry, SpanProfiler, TraceRecorder
from repro.registry import ORDER_POLICIES, WORKLOADS, order_family, parse_order_spec
from repro.runtime.core import Engine

ORDERS = ["unordered", "ordered", "relaxed:4", "async:8", "sharded:2"]
#: what each leg attaches; the first is the bare body, the others observed
LEGS = {
    "bare": lambda: {},
    "recorded": lambda: {"recorder": TraceRecorder(), "metrics": MetricsRegistry()},
    "profiled": lambda: {"profiler": SpanProfiler()},
}
SEED = 8
MAX_STEPS = 60


def build_engine(order: str, controller=None, workload: str = "consuming", **kwargs) -> Engine:
    """The engine ``api.run`` would build for *order* over a seeded graph."""
    config = RunConfig(workload=workload, order=order, m_max=64, seed=SEED)
    built = WORKLOADS.create(workload, gnm_random(150, 6, seed=2011), config)
    name, order_kwargs = parse_order_spec(order)
    if order_family(name) == "priority":
        order_kwargs["priority_of"] = lambda task: float(task.payload)
    policy = ORDER_POLICIES.create(name, conflict_policy=built.policy, **order_kwargs)
    return Engine(
        built.workset,
        built.operator,
        controller if controller is not None else HybridController(0.25, m_max=64),
        policy,
        seed=SEED,
        **kwargs,
    )


def run_leg(order: str, leg: str, workload: str = "consuming") -> dict:
    engine = build_engine(order, workload=workload, **LEGS[leg]())
    observed = leg != "bare"
    assert (
        engine.profiler is not None
        or engine.recorder is not None
        or engine.metrics is not None
    ) == observed
    result = engine.run(max_steps=MAX_STEPS)
    trace = engine.controller.trace
    return {
        "steps": result.steps,
        "costs": engine.costs,
        "controller": (trace.proposals, trace.observations, trace.launched),
        "rng": engine.rng.bit_generator.state,
        "steps_executed": engine.steps_executed,
    }


class TestBodiesAgree:
    @pytest.mark.parametrize("order", ORDERS)
    def test_observation_never_perturbs_the_run(self, order):
        bare = run_leg(order, "bare")
        assert len(bare["steps"]) > 5
        assert sum(s.aborted for s in bare["steps"]) > 0  # aborts were charged
        for leg in ("recorded", "profiled"):
            assert run_leg(order, leg) == bare, f"{leg} leg diverged under {order}"

    def test_a_morphing_workload_agrees_too(self):
        bare = run_leg("unordered", "bare", workload="regenerating")
        assert run_leg("unordered", "recorded", workload="regenerating") == bare

    def test_recorded_leg_keeps_its_per_step_events_and_metrics(self):
        recorder, metrics = TraceRecorder(), MetricsRegistry()
        engine = build_engine("unordered", recorder=recorder, metrics=metrics)
        result = engine.run(max_steps=MAX_STEPS)
        kinds = [event.kind for event in recorder.events]
        assert kinds.count("step") == len(result)
        snapshot = metrics.snapshot()
        assert snapshot["engine.steps"] == len(result)
        assert snapshot["engine.commits"] == result.total_committed
        assert snapshot["engine.aborts"] == result.total_aborted
        assert snapshot["engine.launched"] == result.total_launched
        assert snapshot["engine.conflict_ratio"]["count"] == len(result)
        assert snapshot["engine.workset"] == result.steps[-1].workset_after
        assert snapshot["engine.m"] == result.steps[-1].requested
        assert snapshot["controller.observations"] == len(result)


class TestTheRunLoop:
    """``Engine.run`` steps through ``Engine.step``, once per step.

    A run loop that inlined the bare body would skip the one method that
    observers outside the engine can wrap: ``benchmarks/e2e/tracer.py``
    attributes its per-layer ``core.*`` figures through ``Engine.step``,
    and a loop that bypassed it would read ``core.steps = 0``.
    """

    @pytest.mark.parametrize("order", ORDERS)
    def test_run_calls_step_once_per_step(self, order, monkeypatch):
        calls = []
        step = Engine.step

        def counting_step(engine):
            calls.append(engine.steps_executed)
            return step(engine)

        monkeypatch.setattr(Engine, "step", counting_step)
        engine = build_engine(order)
        result = engine.run(max_steps=MAX_STEPS)
        assert len(result) > 5
        assert calls == [stats.step for stats in result.steps] == list(range(len(result)))
        assert engine.steps_executed == len(calls)


class TestTheChoiceIsPerStep:
    def test_the_bare_body_references_no_observer(self):
        names = set()
        for body in (Engine._bare_step, Engine._account):
            names.update(body.__code__.co_names)
        assert not names & {"profiler", "recorder", "metrics", "_null_span", "phase_span"}

    def test_the_shared_bookkeeping_walks_no_task(self):
        # a loop or comprehension in ``_account`` would be a per-task
        # walk on every bare step
        code = Engine._account.__code__
        assert not [i for i in dis.get_instructions(code) if i.opname == "FOR_ITER"]
        assert not [c for c in code.co_consts if isinstance(c, types.CodeType)]
        # nor does the engine keep per-task retry counts under any name
        assert not [name for name in dir(build_engine("unordered")) if "retr" in name]

    def test_recorder_attached_mid_run_sees_every_later_step(self):
        engine = build_engine("unordered")
        for _ in range(3):
            engine.step()
        engine.recorder = recorder = TraceRecorder()
        later = [engine.step() for _ in range(4)]
        steps = [event for event in recorder.events if event.kind == "step"]
        assert [event.step for event in steps] == [s.step for s in later] == [3, 4, 5, 6]
        assert [event.data["committed"] for event in steps] == [s.committed for s in later]
        engine.recorder = None
        engine.step()
        assert len(recorder.events) == len(later)  # one step event each, nothing since

    def test_metrics_swapped_mid_run_rebind_their_handles(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        engine = build_engine("ordered", metrics=first)
        engine.step()
        engine.metrics = second.scope("engine")
        engine.step()
        engine.step()
        assert first.snapshot()["engine.steps"] == 1
        assert second.snapshot()["engine.steps"] == 2
        assert "engine.conflict_aborts" in second  # the policy's counters too


@pytest.mark.parametrize("leg", sorted(LEGS))
class TestSharedHooksAndErrors:
    def test_step_hook_fires_after_every_step(self, leg):
        seen = []
        engine = build_engine(
            "unordered", step_hook=lambda eng, stats: seen.append((eng, stats)), **LEGS[leg]()
        )
        result = engine.run(max_steps=5)
        assert [stats for _, stats in seen] == result.steps
        assert all(eng is engine for eng, _ in seen)

    def test_an_allocation_below_one_is_refused(self, leg):
        class Zero(FixedController):
            def propose(self):
                return 0

        engine = build_engine("unordered", controller=Zero(4), **LEGS[leg]())
        with pytest.raises(RuntimeEngineError, match="controller proposed m=0; allocations must be >= 1"):
            engine.step()
        assert engine.steps_executed == 0 and len(engine.result) == 0

    def test_an_empty_workset_is_refused(self, leg):
        engine = build_engine("unordered", **LEGS[leg]())
        engine.run()
        with pytest.raises(RuntimeEngineError, match="work-set is empty"):
            engine.step()
