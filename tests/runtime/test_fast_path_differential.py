"""Differential suite: the default path must equal the reference paths.

The correctness contract of the vectorised kernels
(:mod:`repro.runtime.kernels`) is *bit-identity*: for any seeded workload
and any controller, the default run must produce exactly the commits,
aborts, step stats, and observability trace of the same run pinned to
the reference walks (:func:`repro.testing.oracles.reference_paths`) and,
on the selection side, to ``workset=RandomWorkset()``.
These tests enforce that contract across:

* workload shapes — stationary gnm replay, draining gnm, draining clique
  unions, and morphing (regenerating) graphs;
* every controller in :mod:`repro.control` with a standard constructor;
* both conflict policies (explicit CC graph and item locks) and the
  ordered engine.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.control import (
    AIMDController,
    AStealController,
    BisectionController,
    FixedController,
    HybridController,
    OracleController,
    PIController,
)
from repro.config import RunConfig
from repro.graph.generators import gnm_random, union_of_cliques
from repro.obs import TraceRecorder
from repro.registry import registry
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.active_set import ActiveSet
from repro.runtime.core import Engine
from repro.runtime.engine import make_engine
from repro.runtime.policies import UnorderedCommitOrder
from repro.runtime.task import Operator, Task
from repro.runtime.workloads import (
    ConsumingGraphWorkload,
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
)
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

N = 120
SEED = 2011
MAX_STEPS = 35


@pytest.fixture(autouse=True)
def _gather_at_every_batch_size(monkeypatch):
    """The suite's graphs are far below the size where the explicit-graph
    array path takes over from the walk; drop the cut-over so that the
    default leg really runs the gather kernel here (on the stationary
    workloads — morphing ones still walk, by graph version).
    ``tests/runtime/test_conflict.py`` covers the cut-over itself."""
    monkeypatch.setattr("repro.runtime.conflict.GATHER_MIN_BATCH", 1)

WORKLOADS = {
    "gnm_replay": lambda workset=None: ReplayGraphWorkload(
        gnm_random(N, 8, seed=SEED), workset=workset
    ),
    "gnm_consuming": lambda workset=None: ConsumingGraphWorkload(
        gnm_random(N, 8, seed=SEED), workset=workset
    ),
    "clique_consuming": lambda workset=None: ConsumingGraphWorkload(
        union_of_cliques(20, 6), workset=workset
    ),
    "morphing": lambda workset=None: RegeneratingGraphWorkload(
        gnm_random(N, 6, seed=SEED), target_degree=6, seed=7, workset=workset
    ),
}

#: how each leg resolves conflicts: pinned to the walks, or left to the code
RESOLVE = {"reference": reference_paths, "fast": nullcontext}

CONTROLLERS = {
    "fixed": lambda: FixedController(12),
    "hybrid": lambda: HybridController(0.25, m_max=64),
    "aimd": lambda: AIMDController(0.25, m_max=64),
    "asteal": lambda: AStealController(0.25, m_max=64),
    "bisection": lambda: BisectionController(0.25, m_max=64),
    "pi": lambda: PIController(0.25, m_max=64),
    # the recurrence presets, built the way a RunConfig names them
    "recurrence_a": lambda: registry("controller").create(
        "recurrence-a", RunConfig(rho=0.25, m_max=64)
    ),
    "recurrence_b": lambda: registry("controller").create(
        "recurrence-b", RunConfig(rho=0.25, m_max=64)
    ),
    "oracle": lambda: OracleController(10, m_max=64),
}


def _run(workload_key: str, controller_key: str, mode: str, workset=None):
    """One seeded run; returns (jsonl trace, step-stat dicts)."""
    recorder = TraceRecorder()
    workload = WORKLOADS[workload_key](workset=workset)
    controller = CONTROLLERS[controller_key]()
    engine = make_engine(workload, controller, seed=SEED, recorder=recorder)
    with RESOLVE[mode]():
        engine.run(max_steps=MAX_STEPS)
    return recorder.to_jsonl(), [s.as_dict() for s in engine.result.steps]


class TestUnorderedDifferential:
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("controller_key", sorted(CONTROLLERS))
    def test_fast_equals_reference(self, workload_key, controller_key):
        ref_trace, ref_steps = _run(workload_key, controller_key, "reference")
        fast_trace, fast_steps = _run(workload_key, controller_key, "fast")
        assert fast_steps == ref_steps
        assert fast_trace == ref_trace  # byte-identical obs traces

    def test_reference_run_not_degenerate(self):
        # the suite only means something if conflicts actually happen
        _, steps = _run("gnm_consuming", "fixed", "reference")
        assert sum(s["aborted"] for s in steps) > 0
        assert sum(s["committed"] for s in steps) > 0


class TestIncrementalSelectDifferential:
    """The incremental work-set must be invisible in every trace.

    Workloads default to :class:`ActiveSet`; byte-identical
    observability traces against an injected :class:`RandomWorkset` (the
    oracle, which also puts the commit phase on its per-task branch) are
    the hard gate.
    """

    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_incremental_equals_workset(self, workload_key, mode):
        ref_trace, ref_steps = _run(workload_key, "hybrid", mode, RandomWorkset())
        inc_trace, inc_steps = _run(workload_key, "hybrid", mode)
        assert inc_steps == ref_steps
        assert inc_trace == ref_trace  # byte-identical obs traces

    @pytest.mark.parametrize("controller_key", sorted(CONTROLLERS))
    def test_all_controllers_on_morphing_graph(self, controller_key):
        ref_trace, ref_steps = _run("morphing", controller_key, "fast", RandomWorkset())
        inc_trace, inc_steps = _run("morphing", controller_key, "fast")
        assert inc_steps == ref_steps
        assert inc_trace == ref_trace


class TestSelectBackendSelection:
    def test_workload_builds_active_set_unless_injected(self):
        workload = ReplayGraphWorkload(gnm_random(20, 2, seed=0))
        assert isinstance(workload.workset, ActiveSet)
        oracle = RandomWorkset()
        workload = ReplayGraphWorkload(gnm_random(20, 2, seed=0), workset=oracle)
        assert workload.workset is oracle

    def test_duck_typed_operator_without_apply_batch(self):
        # for_each accepts any object with neighborhood/apply — the
        # batched commit path must fall back to the per-task walk for
        # operators that define neither apply_batch nor on_abort, and
        # land on the steps of the reference work-set's per-task branch
        from repro.api import for_each

        class DuckOp:
            def neighborhood(self, task):
                return [task.payload % 7]  # collisions force aborts

            def apply(self, task):
                return [Task(payload=task.payload + 100)] if task.payload < 50 else []

            def on_abort(self, task):
                pass

        res = for_each(range(50), DuckOp(), max_steps=400, seed=11)
        workset = RandomWorkset()
        workset.add_all([Task(payload=i) for i in range(50)])
        oracle = Engine(
            workset=workset,
            operator=DuckOp(),
            controller=HybridController(0.25, m_max=1024),
            order=UnorderedCommitOrder(ItemLockPolicy()),
            seed=11,
        )
        oracle.run(max_steps=400)
        assert [s.as_dict() for s in res.steps] == [
            s.as_dict() for s in oracle.result.steps
        ]
        assert res.total_aborted > 0

    def test_duck_typed_operator_without_on_abort(self):
        # no on_abort and no aborts (empty neighbourhoods): both the
        # commit fallback and the abort-override check must tolerate it
        from repro.api import for_each

        class MinimalOp:
            def neighborhood(self, task):
                return []

            def apply(self, task):
                return []

        res = for_each(range(30), MinimalOp(), max_steps=100, seed=2)
        assert res.total_committed == 30


class TestItemLockDifferential:
    class _ItemOperator(Operator):
        """Tasks lock overlapping item windows: payload i locks {i..i+3}."""

        def neighborhood(self, task):
            return [task.payload + k for k in range(4)]

        def apply(self, task):
            return []

    def _run(self, workset):
        for i in range(80):
            workset.add(Task(payload=3 * i))  # windows overlap neighbours
        engine = Engine(
            workset=workset,
            operator=self._ItemOperator(),
            controller=FixedController(16),
            order=UnorderedCommitOrder(ItemLockPolicy()),
            seed=5,
        )
        engine.run(max_steps=25)
        return [s.as_dict() for s in engine.result.steps]

    def test_fast_equals_reference(self):
        # item locks always walk; what differs is the work-set and with
        # it the batched vs per-task commit branch
        assert self._run(ActiveSet()) == self._run(RandomWorkset())


class TestOrderedDifferential:
    @pytest.mark.parametrize("controller_key", ["fixed", "hybrid", "aimd"])
    def test_fast_equals_reference(self, controller_key):
        from repro.apps.des import DiscreteEventSimulation, QueueingNetwork

        network = QueueingNetwork(15, avg_degree=3.0, seed=3)

        def run(mode):
            sim = DiscreteEventSimulation(network, num_jobs=25, end_time=12.0, seed=5)
            engine = make_engine(sim, CONTROLLERS[controller_key](), seed=9)
            with RESOLVE[mode]():
                result = engine.run(max_steps=10**5)
            return sim.history, [s.as_dict() for s in result.steps]

        ref_history, ref_steps = run("reference")
        fast_history, fast_steps = run("fast")
        assert fast_steps == ref_steps
        assert fast_history == ref_history


class TestRelaxedDifferential:
    """Relaxed/async commit orders obey the same bit-identity contract."""

    ORDERS = ["ordered", "relaxed:1", "relaxed:4", "async", "async:4"]

    @staticmethod
    def _ordered_run(order: str, mode: str, workload: str = "gnm_consuming"):
        from repro import RunConfig
        from repro.api import run

        graphs = {
            "gnm_replay": lambda: gnm_random(N, 8, seed=SEED),
            "gnm_consuming": lambda: gnm_random(N, 8, seed=SEED),
            "clique_consuming": lambda: union_of_cliques(20, 6),
        }
        recorder = TraceRecorder()
        with RESOLVE[mode]():
            run(
                RunConfig(
                    workload="replay" if workload == "gnm_replay" else "consuming",
                    rho=0.25,
                    order=order,
                    max_steps=MAX_STEPS,
                ),
                graph=graphs[workload](),
                seed=SEED,
                recorder=recorder,
            )
        return recorder.to_jsonl()

    @pytest.mark.parametrize(
        "workload_key", ["gnm_replay", "gnm_consuming", "clique_consuming"]
    )
    @pytest.mark.parametrize("order", ORDERS)
    def test_fast_equals_reference(self, order, workload_key):
        ref = self._ordered_run(order, "reference", workload_key)
        fast = self._ordered_run(order, "fast", workload_key)
        assert fast == ref  # byte-identical obs traces

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_depth_one_equals_strict_ordered(self, mode):
        assert self._ordered_run("relaxed:1", mode) == self._ordered_run(
            "ordered", mode
        )

    def test_async_trace_schema_matches_unordered(self):
        # async runs must be drop-in for every unordered trace consumer:
        # same event kinds and same step/run_end payload fields (plus the
        # policy's own order_decision channel)
        import json

        unordered = [
            json.loads(line)
            for line in self._ordered_run("unordered", "reference").splitlines()
            if not line.startswith('{"dropped"')
        ]
        asynchronous = [
            json.loads(line)
            for line in self._ordered_run("async:4", "reference").splitlines()
            if not line.startswith('{"dropped"')
        ]

        def fields(events, kind):
            return {frozenset(e["data"]) for e in events if e["kind"] == kind}

        for kind in ("run_start", "step", "run_end"):
            assert fields(asynchronous, kind) == fields(unordered, kind)
        extra = {e["kind"] for e in asynchronous} - {e["kind"] for e in unordered}
        assert extra <= {"order_decision"}
