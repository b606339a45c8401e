"""Cross-cutting property-based fuzz tests.

Hammer the controllers, engines and analytic kernels with adversarial
random inputs and check only the *invariants* — the statements that must
hold regardless of what the environment throws at them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    RECURRENCE_A,
    RECURRENCE_B,
    AIMDController,
    BisectionController,
    HybridController,
    PIController,
)
from repro.graph.generators import gnm_random
from repro.runtime.core import Engine
from repro.runtime.policies import OrderedCommitOrder, PriorityWorkset
from repro.runtime.task import CallbackOperator, Task
from repro.testing.oracles import reference_paths
from repro.control.fixed import FixedController


CONTROLLER_FACTORIES = [
    lambda: HybridController(0.2, m_max=64),
    lambda: HybridController(0.2, m_max=64, small_params=None),
    lambda: HybridController(0.2, m_max=64, params=RECURRENCE_A),
    lambda: HybridController(0.2, m_max=64, params=RECURRENCE_B),
    lambda: AIMDController(0.2, m_max=64),
    lambda: PIController(0.2, m_max=64),
    lambda: BisectionController(0.2, m_max=64),
]


class TestControllerInvariantsUnderArbitrarySignals:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, len(CONTROLLER_FACTORIES) - 1),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=120),
    )
    def test_allocations_always_in_range(self, which, signal):
        """No r-sequence, however adversarial, drives m outside [m_min, m_max]."""
        ctrl = CONTROLLER_FACTORIES[which]()
        for r in signal:
            m = ctrl.propose()
            assert 2 <= m <= 64
            ctrl.observe(r, m)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, len(CONTROLLER_FACTORIES) - 1),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    )
    def test_reset_restores_determinism(self, which, signal):
        """reset() returns the controller to a state equivalent to fresh."""
        ctrl = CONTROLLER_FACTORIES[which]()
        fresh = CONTROLLER_FACTORIES[which]()
        for r in signal:
            m = ctrl.propose()
            ctrl.observe(r, m)
        ctrl.reset()
        for r in signal:
            m_reset = ctrl.propose()
            m_fresh = fresh.propose()
            assert m_reset == m_fresh
            ctrl.observe(r, m_reset)
            fresh.observe(r, m_fresh)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=200))
    def test_hybrid_trace_lengths_consistent(self, signal):
        ctrl = HybridController(0.25)
        for r in signal:
            m = ctrl.propose()
            ctrl.observe(r, m)
        assert len(ctrl.trace.proposals) == len(signal)
        assert len(ctrl.trace.observations) == len(signal)


class TestOrderedCommitChronology:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 16),
        st.integers(0, 1000),
    )
    def test_commits_always_chronological(self, spec, m, seed):
        """Arbitrary priorities + overlapping item sets: the committed
        sequence must be globally sorted by priority."""
        committed_order: list[float] = []
        prios: dict[int, float] = {}
        ws = PriorityWorkset()
        for i, (prio, item) in enumerate(spec):
            t = Task(payload=(i, item))
            prios[t.uid] = prio
            ws.add(t, prio)

        def apply(task):
            committed_order.append(prios[task.uid])
            return []

        op = CallbackOperator(neighborhood=lambda t: {t.payload[1]}, apply=apply)
        eng = Engine(
            workset=ws,
            operator=op,
            controller=FixedController(m),
            order=OrderedCommitOrder(lambda t: prios[t.uid]),
            seed=seed,
        )
        eng.run(max_steps=10_000)
        assert committed_order == sorted(committed_order)
        assert len(committed_order) == len(spec)


class TestActiveSetMatchesModel:
    """Incremental active set == from-scratch model under arbitrary op mixes.

    The model is a plain list with linear-search discard implementing the
    documented semantics independently (swap-removal, reference take
    loop); the invariant is *full slot-order equality* after every
    operation, plus uid -> slot map agreement.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_slot_list_equals_model(self, seed, data):
        from repro.runtime.active_set import ActiveSet

        ws = ActiveSet()
        model: list[Task] = []
        rng_ws = np.random.default_rng(seed)
        rng_model = np.random.default_rng(seed)
        payload = 0
        ops = data.draw(
            st.lists(st.sampled_from(["add", "batch", "take", "discard"]),
                     min_size=1, max_size=60)
        )
        for op in ops:
            if op == "add":
                t = Task(payload=payload)
                payload += 1
                ws.add(t)
                model.append(t)
            elif op == "batch":
                count = data.draw(st.integers(0, 5))
                fresh = [Task(payload=payload + i) for i in range(count)]
                payload += count
                ws.add_batch(fresh)
                model.extend(fresh)
            elif op == "take" and model:
                k = data.draw(st.integers(0, len(model) + 2))
                got = ws.take(k, rng_ws)
                want = []
                for _ in range(min(k, len(model))):
                    j = int(rng_model.integers(0, len(model)))
                    model[j], model[-1] = model[-1], model[j]
                    want.append(model.pop())
                assert [t.uid for t in got] == [t.uid for t in want]
            elif op == "discard" and model:
                j = data.draw(st.integers(0, len(model) - 1))
                victim = model[j]
                assert ws.discard(victim) is True
                model[j] = model[-1]
                model.pop()
            # the load-bearing invariant: identical slot lists...
            assert [t.uid for t in ws.tasks()] == [t.uid for t in model]
            # ...and an agreeing uid -> slot map
            for i, t in enumerate(model):
                assert ws.index_of(t) == i
        assert rng_ws.bit_generator.state == rng_model.bit_generator.state


class TestExplicitResolveFastUnderMorphs:
    """Explicit-graph fast resolution == reference resolution under morphs.

    Arbitrary add_node / add_edge / remove_node / remove_edge sequences
    interleaved with conflict resolutions: ``resolve_fast`` must
    partition every batch exactly like the reference walk, whether the
    morph before it sent it to the walk or the graph held still and it
    gathered from the memoised CSR (the cut-over is dropped to 1 so the
    small fuzz graphs reach the gather at all).
    """

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_fast_resolution_equals_reference(self, seed, data):
        from repro.runtime.conflict import ExplicitGraphPolicy

        g = gnm_random(12, 3, seed=seed)
        policy = ExplicitGraphPolicy(g)
        reference = ExplicitGraphPolicy(g)
        rng = np.random.default_rng(seed)
        gathers = 0

        def check(batch):
            nonlocal gathers
            ref = reference.resolve(batch, operator=None)
            # twice: the call after a morph walks, the next one gathers
            for _ in range(2):
                fast = policy.resolve_fast(batch, operator=None)
                gathers += fast.commit_slots is not None
                assert [t.uid for t in fast.committed] == [t.uid for t in ref.committed]
                assert [t.uid for t in fast.aborted] == [t.uid for t in ref.aborted]

        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["add_node", "add_edge", "remove_node", "remove_edge", "resolve"]
                ),
                min_size=1,
                max_size=50,
            )
        )
        with mock.patch("repro.runtime.conflict.GATHER_MIN_BATCH", 1):
            for op in ops:
                nodes = list(g.nodes())
                if op == "add_node":
                    new = g.add_node()
                    if nodes and data.draw(st.booleans()):
                        g.add_edge(new, int(rng.choice(nodes)))
                elif op == "add_edge" and len(nodes) >= 2:
                    u, v = rng.choice(nodes, size=2, replace=False)
                    g.add_edge(int(u), int(v))
                elif op == "remove_node" and len(nodes) > 2:
                    g.remove_node(int(rng.choice(nodes)))
                elif op == "remove_edge":
                    edges = [(u, v) for u in nodes for v in g.neighbors(u) if u < v]
                    if edges:
                        u, v = edges[int(rng.integers(0, len(edges)))]
                        g.remove_edge(u, v)
                elif nodes:  # resolve a random batch of distinct live nodes
                    m = int(rng.integers(1, len(nodes) + 1))
                    picks = rng.choice(nodes, size=m, replace=False)
                    check([Task(payload=int(p)) for p in picks])
            # one final resolution so op mixes ending in morphs are covered too
            check([Task(payload=int(p)) for p in g.nodes()])
        assert gathers  # the array path really ran


class TestWindowedTakeMatchesModel:
    """Windowed draws == a from-scratch model with a cloned RNG.

    The model reimplements the documented k-of-top semantics directly on
    a sorted list (pop the ``draws[i]``-th earliest remaining entry, one
    scalar bounded draw per round); the invariant is full batch-order
    equality plus bit-level RNG state agreement after every take — the
    same pattern that pins the ActiveSet above.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_priority_take_window_equals_model(self, seed, data):
        ws = PriorityWorkset()
        model: list[tuple[float, int, Task]] = []  # sorted (prio, tie, task)
        rng_ws = np.random.default_rng(seed)
        rng_model = np.random.default_rng(seed)
        tie = 0
        payload = 0
        ops = data.draw(
            st.lists(st.sampled_from(["add", "take"]), min_size=1, max_size=50)
        )
        for op in ops:
            if op == "add":
                prio = float(data.draw(st.integers(0, 20)))
                t = Task(payload=payload)
                payload += 1
                ws.add(t, prio)
                model.append((prio, tie, t))
                tie += 1
                model.sort(key=lambda e: (e[0], e[1]))
            elif model:
                m = data.draw(st.integers(0, len(model) + 2))
                window = data.draw(st.integers(1, len(model) + 2))
                batch, draws = ws.take_window(m, window, rng_ws)
                want = []
                want_draws = []
                for round_ in range(min(m, len(model))):
                    high = min(window, len(model))
                    j = 0 if window == 1 else int(
                        rng_model.integers(0, high, dtype=np.int64)
                    )
                    prio, _, t = model.pop(j)
                    want.append((prio, t))
                    want_draws.append(j)
                assert [(p, t.uid) for p, t in batch] == [
                    (p, t.uid) for p, t in want
                ]
                assert draws == want_draws
            assert len(ws) == len(model)
        assert rng_ws.bit_generator.state == rng_model.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_arrival_take_window_equals_model(self, seed, data):
        from repro.runtime.workset import ArrivalWorkset

        ws = ArrivalWorkset()
        model: list[Task] = []  # arrival order
        rng_ws = np.random.default_rng(seed)
        rng_model = np.random.default_rng(seed)
        payload = 0
        ops = data.draw(
            st.lists(st.sampled_from(["add", "take"]), min_size=1, max_size=50)
        )
        for op in ops:
            if op == "add":
                t = Task(payload=payload)
                payload += 1
                ws.add(t)
                model.append(t)
            elif model:
                m = data.draw(st.integers(0, len(model) + 2))
                window = data.draw(st.integers(1, len(model) + 2))
                batch, draws = ws.take_window(m, window, rng_ws)
                want = []
                want_draws = []
                for round_ in range(min(m, len(model))):
                    high = min(window, len(model))
                    j = 0 if window == 1 else int(
                        rng_model.integers(0, high, dtype=np.int64)
                    )
                    want.append(model.pop(j))
                    want_draws.append(j)
                assert [t.uid for t in batch] == [t.uid for t in want]
                assert draws == want_draws
            assert len(ws) == len(model)
        assert rng_ws.bit_generator.state == rng_model.bit_generator.state


class TestRelaxedOrderOnMorphingGraphs:
    """Relaxed/async runs over morphing graphs: fast == reference.

    Random regenerating workloads churn the topology every step; the
    vectorised kernel path must stay byte-identical to the reference
    walk for every commit-order policy, exactly as the unordered
    differential suite demands.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(["relaxed:2", "relaxed:5", "async:3"]),
        st.integers(1, 12),
    )
    def test_fast_equals_reference_under_morphs(self, seed, order, m):
        from repro import RunConfig
        from repro.api import run as api_run
        from repro.obs import TraceRecorder

        def trace():
            recorder = TraceRecorder()
            # seed goes through the config: the regenerating workload
            # draws its replacement edges from config.seed
            api_run(
                RunConfig(
                    workload="regenerating",
                    controller="fixed",
                    m=m,
                    order=order,
                    max_steps=15,
                    seed=seed,
                ),
                graph=gnm_random(30, 4, seed=seed),
                recorder=recorder,
            )
            return recorder.to_jsonl()

        fast = trace()
        with reference_paths():
            assert fast == trace()


class TestRegeneratingCommitMatchesScanUnderMorphs:
    """Morph fuzz for the regenerating workload's live-id list.

    Arbitrary interleavings of commits and outside mutations, on graphs
    with ascending and with set-ordered ids: after every commit the
    graph, the new task and the generator state equal the O(n)
    ``graph.nodes()`` scan's (``tests/runtime/test_workloads.py``).
    """

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(0, 12),
        st.booleans(),
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
    )
    def test_equal_after_every_commit(self, seed, target_degree, unordered, script):
        from tests.runtime.test_workloads import ScanDifferential, unordered_graph

        graph = unordered_graph(seed=seed % 50) if unordered else gnm_random(12, 3, seed=seed)
        diff = ScanDifferential(graph, target_degree, seed=seed)
        rng = np.random.default_rng(seed)
        for mutations in script:
            for _ in range(mutations):
                diff.mutate(rng)
            diff.commit(int(rng.choice(diff.graph.nodes())))


class TestAnalyticKernelStability:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 50), st.floats(0.0, 5.0), st.integers(0, 10**6))
    def test_conflict_curve_bounded(self, n, d, seed):
        from repro.model.conflict_ratio import estimate_conflict_ratio

        g = gnm_random(n, min(d, n - 1), seed=seed)
        ci = estimate_conflict_ratio(g, max(n // 2, 1), reps=30, seed=seed)
        assert 0.0 <= ci.mean <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 30), st.data())
    def test_first_come_probability_in_unit_interval(self, n, degree, data):
        from repro.model.conflict_ratio import first_come_probability

        degree = min(degree, n - 1)
        m = data.draw(st.integers(0, n))
        p = first_come_probability(n, degree, m)
        assert 0.0 <= p <= 1.0
