"""Tests for repro.runtime.conflict — batch conflict resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConflictDetectionError
from repro.graph.generators import gnm_random
from repro.model.permutation import committed_set
from repro.runtime.conflict import BatchOutcome, ExplicitGraphPolicy, ItemLockPolicy
from repro.runtime.kernels import GATHER_MIN_BATCH
from repro.runtime.task import CallbackOperator, Task


def items_operator(neighborhoods: dict[int, set]):
    """Operator whose neighbourhood is looked up by payload."""
    return CallbackOperator(
        neighborhood=lambda t: neighborhoods[t.payload], apply=lambda t: []
    )


class TestBatchOutcome:
    def test_counts_and_ratio(self):
        out = BatchOutcome([Task(payload=1)], [Task(payload=2), Task(payload=3)])
        assert out.launched == 3
        assert out.conflict_ratio == pytest.approx(2 / 3)

    def test_empty_outcome(self):
        out = BatchOutcome([], [])
        assert out.launched == 0 and out.conflict_ratio == 0.0


class TestItemLockPolicy:
    def test_disjoint_all_commit(self):
        op = items_operator({0: {"a"}, 1: {"b"}, 2: {"c"}})
        batch = [Task(payload=i) for i in range(3)]
        out = ItemLockPolicy().resolve(batch, op)
        assert len(out.committed) == 3 and not out.aborted

    def test_overlap_first_wins(self):
        op = items_operator({0: {"x", "y"}, 1: {"y", "z"}})
        t0, t1 = Task(payload=0), Task(payload=1)
        out = ItemLockPolicy().resolve([t0, t1], op)
        assert out.committed == [t0] and out.aborted == [t1]

    def test_aborted_task_releases_items(self):
        # 1 conflicts with 0 and aborts; 2 overlaps only 1's items -> commits
        op = items_operator({0: {"a"}, 1: {"a", "b"}, 2: {"b"}})
        batch = [Task(payload=i) for i in range(3)]
        out = ItemLockPolicy().resolve(batch, op)
        assert [t.payload for t in out.committed] == [0, 2]

    def test_empty_neighborhood_always_commits(self):
        op = items_operator({0: {"a"}, 1: set()})
        batch = [Task(payload=0), Task(payload=1)]
        out = ItemLockPolicy().resolve(batch, op)
        assert len(out.committed) == 2

    def test_duplicate_task_raises(self):
        op = items_operator({0: {"a"}})
        t = Task(payload=0)
        with pytest.raises(ConflictDetectionError):
            ItemLockPolicy().resolve([t, t], op)

    def test_empty_batch(self):
        out = ItemLockPolicy().resolve([], items_operator({}))
        assert out.launched == 0


class TestItemLockNeighbourhoodShapes:
    """The walk copies a neighbourhood only when it is not already a set."""

    ITEMS = {0: ["a", "b"], 1: ["b", "c"], 2: ["c"], 3: [], 4: ["d", "d"], 5: ["a"]}
    SHAPES = {
        "generator": lambda items: (x for x in items),
        "list": list,
        "tuple": tuple,
        "set": set,
        "frozenset": frozenset,
    }

    def resolve_as(self, shape):
        batch = [Task(payload=i) for i in self.ITEMS]
        handed = {}

        def neighborhood(task):
            handed[task.payload] = self.SHAPES[shape](self.ITEMS[task.payload])
            return handed[task.payload]

        op = CallbackOperator(neighborhood=neighborhood, apply=lambda t: [])
        out = ItemLockPolicy().resolve(batch, op)
        partition = (
            [t.payload for t in out.committed],
            [t.payload for t in out.aborted],
        )
        return partition, handed

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_resolves_identically(self, shape):
        partition, _ = self.resolve_as(shape)
        # 1 loses "b" to 0, 5 loses "a" to 0; 2 takes "c" (1 held nothing)
        assert partition == ([0, 2, 3, 4], [1, 5])

    def test_generator_is_consumed_exactly_once(self):
        _, handed = self.resolve_as("generator")
        for gen in handed.values():
            assert next(gen, "spent") == "spent"  # walked to its end, not re-run

    def test_empty_tuple_commits_and_holds_nothing(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        batch = [Task(payload=i) for i in range(3)]
        out = ItemLockPolicy().resolve(batch, op)
        assert out.committed == batch and not out.aborted

    @pytest.mark.parametrize("shape", ["set", "frozenset"])
    def test_operator_sets_are_equal_and_unaliased_afterwards(self, shape):
        _, handed = self.resolve_as(shape)
        for payload, items in handed.items():
            assert items == set(self.ITEMS[payload])  # not grown into `held`
        kept = [handed[p] for p in (0, 2, 3, 4)]
        assert len({id(items) for items in kept}) == len(kept)

    def test_duplicate_uid_names_the_first_duplicate(self):
        op = items_operator({0: {"a"}, 1: {"b"}, 2: {"c"}})
        t0, t1, t2 = (Task(payload=i) for i in range(3))
        with pytest.raises(ConflictDetectionError, match=f"task {t1.uid} appears twice"):
            ItemLockPolicy().resolve([t0, t1, t2, t1, t2], op)

    @pytest.mark.parametrize("shape", ["generator", "list", "tuple"])
    def test_unhashable_item_is_a_type_error(self, shape):
        op = CallbackOperator(
            neighborhood=lambda t: self.SHAPES[shape]([["nested"]]),
            apply=lambda t: [],
        )
        with pytest.raises(TypeError):
            ItemLockPolicy().resolve([Task(payload=0)], op)

    def test_ordered_conflict_phase_runs_the_same_walk(self):
        from repro.control.fixed import FixedController
        from repro.runtime.core import Engine
        from repro.runtime.policies import OrderedCommitOrder, PriorityWorkset

        op = items_operator({i: set(items) for i, items in self.ITEMS.items()})
        order = OrderedCommitOrder(priority_of=lambda t: float(t.payload))
        Engine(PriorityWorkset(), op, FixedController(8), order, seed=0)
        batch = [(float(i), Task(payload=i)) for i in self.ITEMS]
        survivors, aborted = order._conflict_phase(batch)
        assert [t.payload for _, t in survivors] == [0, 2, 3, 4]
        assert [t.payload for _, t in aborted] == [1, 5]
        assert all(entry in batch for entry in survivors + aborted)


class TestExplicitGraphPolicy:
    def test_matches_model_semantics(self, medium_random_graph):
        """Graph policy must equal the paper's committed_set semantics."""
        g = medium_random_graph
        policy = ExplicitGraphPolicy(g)
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        rng = np.random.default_rng(3)
        nodes = g.nodes()
        for _ in range(20):
            order = [nodes[i] for i in rng.permutation(len(nodes))[:50]]
            out = policy.resolve([Task(payload=u) for u in order], op)
            assert [t.payload for t in out.committed] == committed_set(g, order)

    def test_dead_payload_raises(self, small_graph):
        policy = ExplicitGraphPolicy(small_graph)
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        with pytest.raises(ConflictDetectionError):
            policy.resolve([Task(payload=99)], op)

    def test_non_int_payload_raises(self, small_graph):
        policy = ExplicitGraphPolicy(small_graph)
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        with pytest.raises(ConflictDetectionError):
            policy.resolve([Task(payload="zero")], op)

    def test_duplicate_task_raises(self, small_graph):
        policy = ExplicitGraphPolicy(small_graph)
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        t = Task(payload=0)
        with pytest.raises(ConflictDetectionError):
            policy.resolve([t, t], op)


class TestExplicitResolveFast:
    """``resolve_fast`` == ``resolve``, whichever of walk and gather runs.

    The walk returns no slot lists and the gather does, which is how the
    tests tell the two apart.
    """

    N = 300

    @staticmethod
    def _batch(nodes, m, rng):
        return [Task(payload=int(u)) for u in rng.permutation(nodes)[:m]]

    @staticmethod
    def _assert_same(fast, ref, batch):
        assert [t.uid for t in fast.committed] == [t.uid for t in ref.committed]
        assert [t.uid for t in fast.aborted] == [t.uid for t in ref.aborted]
        if fast.commit_slots is not None:
            position = {t.uid: i for i, t in enumerate(batch)}
            assert fast.commit_slots == [position[t.uid] for t in ref.committed]
            assert fast.abort_slots == [position[t.uid] for t in ref.aborted]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        # both sides of the cut-over, the cut-over itself, the full graph
        st.one_of(
            st.integers(1, N),
            st.sampled_from([GATHER_MIN_BATCH - 1, GATHER_MIN_BATCH, N]),
        ),
        st.booleans(),
    )
    def test_equals_reference_across_the_cutover(self, seed, m, holes):
        g = gnm_random(self.N, 6, seed=seed)
        rng = np.random.default_rng(seed)
        if holes:  # non-dense id space: CSR index != node id
            for u in rng.choice(g.nodes(), size=25, replace=False):
                g.remove_node(int(u))
        nodes = g.nodes()
        m = min(m, len(nodes))
        policy = ExplicitGraphPolicy(g)
        for call in range(3):
            batch = self._batch(nodes, m, rng)
            fast = policy.resolve_fast(batch, None)
            self._assert_same(fast, policy.resolve(batch, None), batch)
            # the first big batch meets a graph version not seen before
            gathered = fast.commit_slots is not None
            assert gathered == (call > 0 and m >= GATHER_MIN_BATCH)

    def test_mutation_walks_once_then_gathers_again(self):
        g = gnm_random(self.N, 6, seed=4)
        rng = np.random.default_rng(4)
        policy = ExplicitGraphPolicy(g)
        batch = self._batch(g.nodes(), 200, rng)
        policy.resolve_fast(batch, None)
        before = policy.resolve_fast(batch, None)
        assert before.commit_slots is not None
        # an edge between the first two commits changes the answer
        u, v = (t.payload for t in before.committed[:2])
        g.add_edge(u, v)
        walked = policy.resolve_fast(batch, None)
        gathered = policy.resolve_fast(batch, None)
        assert walked.commit_slots is None and gathered.commit_slots is not None
        ref = policy.resolve(batch, None)
        self._assert_same(walked, ref, batch)
        self._assert_same(gathered, ref, batch)
        assert [t.uid for t in ref.committed] != [t.uid for t in before.committed]
        # a commit that removes its node: the survivors still resolve alike
        g.remove_node(u)
        rest = [t for t in batch if t.payload != u]
        for _ in range(2):
            self._assert_same(
                policy.resolve_fast(rest, None), policy.resolve(rest, None), rest
            )

    @pytest.mark.parametrize("holes", [False, True])
    def test_degenerate_batches_fall_back_with_reference_errors(self, holes):
        g = gnm_random(self.N, 6, seed=9)
        if holes:
            g.remove_node(7)
        rng = np.random.default_rng(9)
        policy = ExplicitGraphPolicy(g)
        good = self._batch(g.nodes(), 150, rng)
        policy.resolve_fast(good, None)
        assert policy.resolve_fast(good, None).commit_slots is not None  # warm

        def outcome(resolve, batch):
            try:
                out = resolve(batch, None)
            except ConflictDetectionError as exc:
                return str(exc)
            return [t.uid for t in out.committed], [t.uid for t in out.aborted]

        for bad in (
            good + [good[3]],  # the same task twice
            good + [Task(payload=good[3].payload)],  # two tasks, one node
            good + [Task(payload=7 if holes else 10**6)],  # removed / never existed
            good + [Task(payload=-1)],
            good + [Task(payload="zero")],
            good + [Task(payload=2.0)],
            good + [Task(payload=True)],
        ):
            assert outcome(policy.resolve_fast, bad) == outcome(policy.resolve, bad)
        # the scratch array survived every fallback: a clean batch gathers
        again = policy.resolve_fast(good, None)
        assert again.commit_slots is not None
        self._assert_same(again, policy.resolve(good, None), good)


class TestEquivalenceOfPolicies:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 25), st.data())
    def test_item_lock_equals_graph_policy_on_edges(self, n, data):
        """Locking closed neighbourhoods == explicit-graph conflicts.

        If each task's item set is {node} ∪ neighbours, two tasks share an
        item iff they are adjacent or share a neighbour; restricted to a
        batch of pairwise non-identical nodes, adjacency conflicts are
        detected identically when the graph is triangle-expanded.  Here we
        test the exact statement that holds in general: item-lock with
        item sets = incident EDGES equals graph adjacency.
        """
        seed = data.draw(st.integers(0, 200))
        g = gnm_random(n, min(3.0, n - 1), seed=seed)
        rng = np.random.default_rng(seed)
        nodes = g.nodes()
        m = data.draw(st.integers(1, n))
        order = [nodes[i] for i in rng.permutation(n)[:m]]

        def incident_edges(t):
            u = t.payload
            return {frozenset((u, v)) for v in g.neighbors(u)}

        op = CallbackOperator(neighborhood=incident_edges, apply=lambda t: [])
        out_items = ItemLockPolicy().resolve([Task(payload=u) for u in order], op)
        expected = committed_set(g, order)
        assert [t.payload for t in out_items.committed] == expected
