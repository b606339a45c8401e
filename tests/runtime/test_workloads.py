"""Tests for repro.runtime.workloads."""

import numpy as np
import pytest

from repro import RunConfig
from repro.api import run
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import NodeNotFoundError, RuntimeEngineError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import gnm_random, union_of_cliques
from repro.runtime import kernels
from repro.runtime.engine import make_engine
from repro.runtime.task import Task
from repro.runtime.workloads import (
    ConsumingGraphWorkload,
    GraphWorkloadBase,
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
)


class TestReplayWorkload:
    def test_workset_size_constant(self):
        wl = ReplayGraphWorkload(gnm_random(50, 4, seed=0))
        eng = make_engine(wl, FixedController(8), seed=1)
        for _ in range(10):
            eng.step()
        assert len(wl.workset) == 50

    def test_graph_untouched(self):
        g = gnm_random(40, 4, seed=2)
        edges_before = sorted(g.edges())
        wl = ReplayGraphWorkload(g)
        make_engine(wl, FixedController(8), seed=3).run(max_steps=20)
        assert sorted(g.edges()) == edges_before

    def test_stationary_conflict_ratio(self):
        """Replay keeps r̄(m) constant: halves of a long run agree."""
        wl = ReplayGraphWorkload(union_of_cliques(30, 5))
        eng = make_engine(wl, FixedController(30), seed=4)
        res = eng.run(max_steps=400)
        rs = res.r_trace
        first, second = rs[:200].mean(), rs[200:].mean()
        assert abs(first - second) < 0.05


class TestConsumingWorkload:
    def test_graph_drains_completely(self):
        g = gnm_random(60, 5, seed=5)
        wl = ConsumingGraphWorkload(g)
        res = make_engine(wl, FixedController(10), seed=6).run()
        assert g.num_nodes == 0
        assert res.total_committed == 60

    def test_conflicts_decline_as_graph_empties(self):
        g = union_of_cliques(5, 20)  # dense: lots of early conflicts
        wl = ConsumingGraphWorkload(g)
        res = make_engine(wl, FixedController(50), seed=7).run()
        rs = res.r_trace
        assert rs[0] > rs[-1]


class TestRegeneratingWorkload:
    def test_size_and_degree_stationary(self):
        g = gnm_random(80, 6, seed=8)
        wl = RegeneratingGraphWorkload(g, target_degree=6, seed=9)
        eng = make_engine(wl, FixedController(10), seed=10)
        eng.run(max_steps=100)
        assert g.num_nodes == 80
        assert g.average_degree == pytest.approx(6.0, abs=2.0)

    def test_workset_tracks_graph(self):
        g = gnm_random(30, 4, seed=11)
        wl = RegeneratingGraphWorkload(g, target_degree=4, seed=12)
        eng = make_engine(wl, FixedController(5), seed=13)
        for _ in range(20):
            eng.step()
        # every pending task refers to a live node
        assert len(wl.workset) == g.num_nodes

    def test_negative_degree_rejected(self):
        with pytest.raises(RuntimeEngineError):
            RegeneratingGraphWorkload(gnm_random(10, 2, seed=0), target_degree=-1)


def scan_commit(graph, rng, target_degree, payload):
    """The O(n)-per-commit ``on_commit`` body the live-id list replaced,
    kept verbatim as the oracle: returns the fresh node id."""
    graph.remove_node(payload)
    new = graph.add_node()
    candidates = [u for u in graph.nodes() if u != new]
    if candidates:
        k = min(target_degree, len(candidates))
        picks = rng.choice(len(candidates), size=k, replace=False)
        for i in picks:
            graph.add_edge(new, candidates[int(i)])
    return new


class ScanRegeneratingWorkload(RegeneratingGraphWorkload):
    """The workload as it was before the live-id list: the test oracle.

    A batch is the per-task loop, so every commit makes its own
    ``choice`` call."""

    def on_commit(self, task):
        new = scan_commit(self.graph, self._rng, self.target_degree, task.payload)
        return [Task(payload=new)]

    on_commit_batch = GraphWorkloadBase.on_commit_batch


class ScanDifferential:
    """A ``RegeneratingGraphWorkload`` and the scan oracle on twin graphs.

    :meth:`commit` commits one node on both sides and holds the workload
    to the oracle's graph (node order included), payload and generator
    state; :meth:`mutate` applies one structural mutation to both graphs
    from outside the workload.
    """

    def __init__(self, graph, target_degree, seed):
        twin = graph.copy()  # copy() keeps nodes() order
        assert twin.nodes() == graph.nodes()
        self.workload = RegeneratingGraphWorkload(graph, target_degree, seed=seed)
        self.model = ScanRegeneratingWorkload(twin, target_degree, seed=seed)
        self.graph = graph

    def check_equal(self):
        assert self.graph.nodes() == self.model.graph.nodes()
        assert sorted(self.graph.edges()) == sorted(self.model.graph.edges())
        assert (
            self.workload._rng.bit_generator.state
            == self.model._rng.bit_generator.state
        )

    def commit(self, payload):
        (got,) = self.workload.on_commit(Task(payload=payload))
        (want,) = self.model.on_commit(Task(payload=payload))
        assert got.payload == want.payload
        self.check_equal()
        return got.payload

    def commit_batch(self, payloads):
        """Commit *payloads* as one batch on the workload and as the
        oracle's per-task loop; a batch the loop raises on must raise the
        same error after the same commits."""
        tasks = [Task(payload=p) for p in payloads]
        try:
            want = self.model.on_commit_batch(list(tasks))
        except Exception as exc:  # noqa: BLE001 - the same type must come back
            with pytest.raises(type(exc)):
                self.workload.on_commit_batch(list(tasks))
            self.check_equal()
            return None
        got = self.workload.on_commit_batch(list(tasks))
        assert [t.payload for t in got] == [t.payload for t in want]
        self.check_equal()
        return [t.payload for t in got]

    def batch_of_live(self, rng, high=40):
        """Distinct live payloads in random order; sizes on both sides of
        the vectorised draw's cut-over."""
        nodes = self.graph.nodes()
        size = int(rng.integers(1, min(high, len(nodes)) + 1))
        return rng.choice(nodes, size=size, replace=False).tolist()

    def mutate(self, rng):
        """One random add_node/remove_node/add_edge/remove_edge on both graphs."""
        nodes = self.graph.nodes()
        edges = sorted(self.graph.edges())
        kind = int(rng.integers(4))
        if kind == 1 and len(nodes) > 2:
            op = ("remove_node", int(rng.choice(nodes)))
        elif kind == 2 and len(nodes) > 1:
            u, v = rng.choice(nodes, size=2, replace=False)
            op = ("add_edge", int(u), int(v))
        elif kind == 3 and edges:
            op = ("remove_edge", *edges[int(rng.integers(len(edges)))])
        else:
            op = ("add_node",)
        for g in (self.graph, self.model.graph):
            getattr(g, op[0])(*op[1:])


def unordered_graph(n=40, degree=4, seed=0):
    """A graph whose ``nodes()`` order is not ascending (``induced_subgraph``)."""
    base = gnm_random(n, degree, seed=seed)
    for stride in (3, 5, 7):  # which subset a set lists out of order is CPython's business
        graph = base.induced_subgraph(set(range(0, n, stride)))
        if graph.nodes() != sorted(graph.nodes()):
            return graph
    raise AssertionError("no induced_subgraph came out in non-ascending order")


class TestRegeneratingMatchesScan:
    """The maintained live-id list is bit-identical to the O(n) scan."""

    @pytest.mark.parametrize("seed", range(5))
    def test_plain_commits(self, seed):
        diff = ScanDifferential(gnm_random(50, 4, seed=seed), 4, seed=seed + 100)
        pick = np.random.default_rng(seed)
        for _ in range(200):
            diff.commit(int(pick.choice(diff.graph.nodes())))
        assert diff.workload._live_ascending

    @pytest.mark.parametrize("seed", range(5))
    def test_external_mutations_between_commits(self, seed):
        diff = ScanDifferential(gnm_random(40, 4, seed=seed), 3, seed=seed)
        rng = np.random.default_rng(seed + 7)
        for _ in range(150):
            for _ in range(int(rng.integers(3))):  # 0 keeps the list, 1-2 force a rebuild
                diff.mutate(rng)
            diff.commit(int(rng.choice(diff.graph.nodes())))

    @pytest.mark.parametrize("seed", range(3))
    def test_insertion_order_not_ascending(self, seed):
        diff = ScanDifferential(unordered_graph(seed=seed), 3, seed=seed)
        rng = np.random.default_rng(seed)
        for step in range(60):
            if step % 5 == 4:
                diff.mutate(rng)  # rebuild on an unordered graph too
            diff.commit(int(rng.choice(diff.graph.nodes())))
            if step == 0:
                assert not diff.workload._live_ascending  # the exact-scan branch ran

    @pytest.mark.parametrize("target_degree", [0, 9, 10, 50])
    def test_degree_edge_cases(self, target_degree):
        """0 still draws (an empty choice); >= survivors takes them all."""
        diff = ScanDifferential(gnm_random(10, 2, seed=1), target_degree, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(40):
            new = diff.commit(int(rng.choice(diff.graph.nodes())))
            assert diff.graph.degree(new) == min(target_degree, 9)

    def test_one_node_graph_never_draws(self):
        graph = CCGraph.from_edges(1, [])
        diff = ScanDifferential(graph, 3, seed=4)
        before = diff.workload._rng.bit_generator.state
        node = 0
        for _ in range(5):
            node = diff.commit(node)
        assert diff.workload._rng.bit_generator.state == before
        assert graph.nodes() == [5] and graph.num_edges == 0

    def test_target_degree_changed_by_step_hook(self):
        """TestContinuousDrift's pattern: a hook retunes the workload mid-run."""
        diff = ScanDifferential(gnm_random(300, 4, seed=11), 4, seed=12)

        def engine_for(workload):
            def densify(engine, stats):
                workload.target_degree = 4 + stats.step // 3

            return make_engine(
                workload,
                HybridController(0.2, m_max=64), seed=13, step_hook=densify
            )

        engine, model_engine = engine_for(diff.workload), engine_for(diff.model)
        for _ in range(40):
            got, want = engine.step(), model_engine.step()
            assert (got.launched, got.committed) == (want.launched, want.committed)
            diff.check_equal()
        assert diff.workload.target_degree > 4

    def test_dead_payload_raises_and_leaves_the_list_usable(self):
        diff = ScanDifferential(gnm_random(12, 2, seed=5), 2, seed=6)
        diff.commit(3)
        with pytest.raises(NodeNotFoundError):
            diff.workload.on_commit(Task(payload=3))
        diff.commit(4)


class TestRegeneratingBatchMatchesLoop:
    """One batch, its draws taken at once, is the per-task scan loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_external_mutations_between_batches(self, seed):
        diff = ScanDifferential(gnm_random(60, 4, seed=seed), 4, seed=seed)
        rng = np.random.default_rng(seed + 7)
        for _ in range(40):
            for _ in range(int(rng.integers(3))):  # 0 keeps the list, 1-2 force a rebuild
                diff.mutate(rng)
            diff.commit_batch(diff.batch_of_live(rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_insertion_order_not_ascending(self, seed):
        diff = ScanDifferential(unordered_graph(seed=seed), 3, seed=seed)
        rng = np.random.default_rng(seed)
        for step in range(30):
            if step % 5 == 4:
                diff.mutate(rng)
            diff.commit_batch(diff.batch_of_live(rng, high=12))
            if step == 0:
                assert not diff.workload._live_ascending

    @pytest.mark.parametrize("target_degree", [0, 9, 10, 50])
    def test_degree_edge_cases(self, target_degree):
        diff = ScanDifferential(gnm_random(10, 2, seed=1), target_degree, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(30):
            for new in diff.commit_batch(diff.batch_of_live(rng)):
                assert diff.graph.degree(new) == min(target_degree, 9)

    def test_one_node_graph_never_draws(self):
        graph = CCGraph.from_edges(1, [])
        diff = ScanDifferential(graph, 3, seed=4)
        before = diff.workload._rng.bit_generator.state
        assert diff.commit_batch([0]) == [1]
        assert diff.workload._rng.bit_generator.state == before

    def test_wide_rows_and_large_batches(self):
        """k above the column cap, and batches far past the cut-over."""
        diff = ScanDifferential(gnm_random(300, 40, seed=6), 40, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(6):
            diff.commit_batch(diff.batch_of_live(rng, high=200))
        diff.workload.target_degree = diff.model.target_degree = 8
        for _ in range(6):
            diff.commit_batch(diff.batch_of_live(rng, high=200))

    @pytest.mark.parametrize("at", [0, 1, 9, 20])
    def test_repeated_payload_raises_at_the_loops_task(self, at):
        diff = ScanDifferential(gnm_random(80, 4, seed=9), 4, seed=10)
        rng = np.random.default_rng(11)
        batch = diff.batch_of_live(rng, high=30)
        while len(batch) < 30:
            batch = diff.batch_of_live(rng, high=30)
        batch.insert(at + 1, batch[at])
        assert diff.commit_batch(batch) is None  # raised, after tasks[:at + 1]
        assert batch[at] not in diff.graph
        diff.commit_batch(diff.batch_of_live(rng))  # and the list is still good

    @pytest.mark.parametrize("at", [0, 1, 9, 20])
    def test_dead_payload_raises_at_the_loops_task(self, at):
        diff = ScanDifferential(gnm_random(80, 4, seed=12), 4, seed=13)
        rng = np.random.default_rng(14)
        diff.commit_batch([5])
        batch = [p for p in diff.batch_of_live(rng, high=40) if p != 5][:30]
        batch.insert(at, 5)
        assert diff.commit_batch(batch) is None
        assert all(p in diff.graph for p in batch[at + 1 :])  # nothing after it ran
        diff.commit_batch(diff.batch_of_live(rng))

    def test_payload_born_earlier_in_the_batch_commits(self):
        """The loop commits a payload that an earlier commit of the same
        batch created; so does the batch."""
        diff = ScanDifferential(gnm_random(40, 4, seed=15), 4, seed=16)
        fresh = diff.graph._next_id  # the id the batch's first commit creates
        batch = list(range(10)) + [fresh] + list(range(10, 20))
        assert diff.commit_batch(batch) is not None
        assert fresh not in diff.graph


class TestRegeneratingCommitCost:
    def test_one_integers_call_per_step_and_no_choice(self):
        """By count, not by clock: every step's attachment picks come from
        one ``Generator.integers`` call, none from ``choice``."""
        calls = {"choice": 0, "integers": 0}

        class Counting(np.random.Generator):
            def choice(self, *args, **kwargs):
                calls["choice"] += 1
                return super().choice(*args, **kwargs)

            def integers(self, *args, **kwargs):
                calls["integers"] += 1
                return super().integers(*args, **kwargs)

        graph = gnm_random(2000, 8, seed=17)
        workload = RegeneratingGraphWorkload(graph, target_degree=8, seed=18)
        workload._rng = Counting(np.random.PCG64(18))
        engine = make_engine(workload, FixedController(64), seed=19)
        for _ in range(30):
            before = dict(calls)
            stats = engine.step()
            pool = graph.num_nodes - 1
            assert kernels._choice_rows_vectorised(pool, 8, stats.committed)
            assert calls["integers"] - before["integers"] == 1
        assert calls["choice"] == 0

    def test_nodes_called_a_constant_number_of_times(self, monkeypatch):
        """By count, not by clock: one ``nodes()`` for the initial tasks
        and one to build the live-id list — not one per commit."""
        calls = []
        real = CCGraph.nodes

        def counted(graph):
            calls.append(1)
            return real(graph)

        monkeypatch.setattr(CCGraph, "nodes", counted)
        result = run(
            RunConfig(workload="regenerating", m_max=64, max_steps=30, seed=3),
            graph=gnm_random(400, 6, seed=3),
        )
        assert result.total_committed > 200
        assert len(calls) == 2

    def test_wktrace_capture_records_the_scan_morphs(self, monkeypatch, tmp_path):
        """With the morph hook attached the recorded trace is, byte for
        byte, the one the O(n) scan produces."""

        def record(path, patch_scan):
            with monkeypatch.context() as patch:
                if patch_scan:
                    patch.setattr(
                        RegeneratingGraphWorkload,
                        "on_commit",
                        ScanRegeneratingWorkload.on_commit,
                    )
                run(
                    RunConfig(workload="regenerating", m_max=64, max_steps=12, seed=5),
                    graph=gnm_random(120, 5, seed=5),
                    record_workload=str(path),
                )
            return path.read_bytes()

        got = record(tmp_path / "live.wktrace", patch_scan=False)
        want = record(tmp_path / "scan.wktrace", patch_scan=True)
        assert got == want
        assert got.count(b"add_edge") > 100  # the morph hook was recording
