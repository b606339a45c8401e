"""Cross-shard equivalence battery for the sharded commit order.

The sharded policy's correctness contract has two halves:

* **Degenerate exactness** — ``shards=1`` is not "approximately" the
  unordered policy, it *is* the unordered policy: byte-identical traces
  (including the engine RNG's final generator state) on the golden
  corpus, on the default and the reference paths, against the
  checked-in golden fixture.
* **Multi-shard conflict-serializability** — with any shard count, the
  set of nodes committed in one round must be pairwise non-adjacent in
  the graph as it stood *at that round*.  A trace validator replays the
  ``halo_exchange`` events against an independently mutated graph copy
  to enforce it; the fast path, the reference path, and
  :func:`repro.runtime.run_sharded` must all agree byte-for-byte.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.control import HybridController
from repro.graph.generators import gnm_random
from repro.obs import HALO_EXCHANGE, TraceRecorder
from repro.runtime.core import Engine
from repro.runtime.kernels import GATHER_MIN_BATCH
from repro.runtime.policies import ShardedCommitOrder, UnorderedCommitOrder
from repro.runtime.sharded import run_sharded
from repro.runtime.workloads import ConsumingGraphWorkload
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

#: how each leg resolves conflicts: pinned to the walks, or left to the code
RESOLVE = {"reference": reference_paths, "fast": nullcontext, None: nullcontext}

# golden-corpus settings (tests/obs/test_golden.py) with a CI-rotatable
# engine seed: the flaky-hunter varies REPRO_TEST_SEED to shake out
# seed-dependent equivalence failures
BASE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
GRAPH_SEED = 2011
ENGINE_SEED = 8 + BASE_SEED
MAX_STEPS = 40

FIXTURE = (
    Path(__file__).parent.parent / "obs" / "fixtures" / "golden_hybrid_gnm200_d8.jsonl"
)


def _graph():
    return gnm_random(200, 8, seed=GRAPH_SEED)


def _api_trace(
    order, *, workload="consuming", mode=None, seed=None, **overrides
):
    """One recorded ``api.run`` over the shared corpus; returns (jsonl, result)."""
    from repro.api import run as api_run

    recorder = TraceRecorder()
    fields = dict(
        workload=workload,
        rho=0.25,
        m_max=64,
        order=order,
        max_steps=MAX_STEPS,
    )
    config = RunConfig(**{**fields, **overrides})
    with RESOLVE[mode]():
        res = api_run(
            config,
            graph=_graph(),
            seed=ENGINE_SEED if seed is None else seed,
            recorder=recorder,
        )
    return recorder, res


def _engine_run(order_cls, mode, **order_kwargs):
    """One manually wired engine run; returns (recorder, engine).

    The reference leg also draws from the oracle work-set."""
    recorder = TraceRecorder()
    workload = ConsumingGraphWorkload(
        _graph(), workset=RandomWorkset() if mode == "reference" else None
    )
    order = order_cls(workload.policy, **order_kwargs)
    engine = Engine(
        workset=workload.workset,
        operator=workload.operator,
        controller=HybridController(0.25, m_max=64),
        order=order,
        seed=ENGINE_SEED,
        recorder=recorder,
    )
    with RESOLVE[mode]():
        engine.run(max_steps=MAX_STEPS)
    return recorder, engine


class TestOneShardByteIdentity:
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    @pytest.mark.parametrize("workload", ["consuming", "replay"])
    def test_trace_identical_to_unordered(self, mode, workload):
        sharded, _ = _api_trace("sharded:1", workload=workload, mode=mode)
        unordered, _ = _api_trace("unordered", workload=workload, mode=mode)
        assert sharded.to_jsonl() == unordered.to_jsonl()

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_rng_generator_state_identical(self, mode):
        # byte-identical traces could still hide divergent RNG consumption
        # (e.g. an extra draw that never changes this run's decisions);
        # identical final generator state rules that out
        _, sharded = _engine_run(ShardedCommitOrder, mode, shards=1)
        _, unordered = _engine_run(UnorderedCommitOrder, mode)
        assert (
            sharded.rng.bit_generator.state == unordered.rng.bit_generator.state
        )

    def test_agrees_with_golden_fixture(self):
        # the one-shard order path must reproduce the checked-in fixture
        # that make_engine's default-order path recorded
        if ENGINE_SEED != 8:
            pytest.skip("golden fixture is pinned to the seed-0 corpus")
        recorder, _ = _engine_run(ShardedCommitOrder, None, shards=1)
        ours = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
        golden = [
            json.loads(line)
            for line in FIXTURE.read_text(encoding="utf-8").splitlines()
        ]
        assert ours[0]["kind"] == "run_start"
        assert ours[0] == golden[0]
        # golden runs 60 steps, ours 40: our body must be a golden prefix
        assert ours[-1]["kind"] == "run_end"
        body = ours[1:-1]
        assert body == golden[1 : 1 + len(body)]


class TestMultiShardEquivalence:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("workload", ["consuming", "replay"])
    def test_fast_equals_reference(self, shards, workload):
        fast, _ = _api_trace(f"sharded:{shards}", workload=workload, mode="fast")
        ref, _ = _api_trace(f"sharded:{shards}", workload=workload, mode="reference")
        assert fast.to_jsonl() == ref.to_jsonl()

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    @pytest.mark.parametrize("workload", ["replay", "consuming", "regenerating"])
    def test_gather_sized_batches_equal_reference(self, shards, workload):
        # m_max=64 above never reaches the gather cut-over; here every
        # replay batch but the first takes the kernel, the morphing
        # workloads' batches are declined by the gate and walk
        big = dict(controller="fixed", m=160, m_max=256, max_steps=12)
        order = f"sharded:{shards}"
        fast, res = _api_trace(order, workload=workload, mode="fast", **big)
        ref, _ = _api_trace(order, workload=workload, mode="reference", **big)
        assert fast.to_jsonl() == ref.to_jsonl()
        assert res.steps[0].launched == 160 >= GATHER_MIN_BATCH
        assert res.total_aborted > 0

    def test_not_degenerate(self):
        recorder, res = _api_trace("sharded:4")
        halo = [ev for ev in recorder.events if ev.kind == HALO_EXCHANGE]
        assert halo, "multi-shard run emitted no halo_exchange events"
        assert res.total_aborted > 0 and res.total_committed > 0
        assert sum(ev.data["halo_aborts"] for ev in halo) > 0, (
            "corpus never exercised a cut-edge abort"
        )


def _validate_serializability(recorder, graph, consuming: bool):
    """Replay halo_exchange rounds against *graph*, asserting independence."""
    rounds = 0
    for ev in recorder.events:
        if ev.kind != HALO_EXCHANGE:
            continue
        committed = ev.data["committed_nodes"]
        assert len(committed) == len(set(committed)), "node committed twice"
        for u, v in combinations(committed, 2):
            assert not graph.has_edge(u, v), (
                f"step {ev.step}: committed neighbours {u}-{v} "
                "(conflict-serializability violated)"
            )
        if consuming:
            for u in committed:
                graph.remove_node(u)
        rounds += 1
    return rounds


class TestConflictSerializability:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_no_committed_neighbours_per_round(self, shards, mode):
        recorder, _ = _api_trace(f"sharded:{shards}", mode=mode)
        rounds = _validate_serializability(recorder, _graph(), consuming=True)
        assert rounds > 0

    def test_replay_rounds_validate_against_static_graph(self):
        recorder, _ = _api_trace("sharded:4", workload="replay")
        rounds = _validate_serializability(recorder, _graph(), consuming=False)
        assert rounds == MAX_STEPS


class TestProcessBackedRuntime:
    """``run_sharded`` — once a worker-process pool — is ``api.run``."""

    def test_run_sharded_runs_morphing_workloads(self):
        # the pool rejected "regenerating" (its morphs add edges that
        # spawn-time worker adjacency could not see)
        config = RunConfig(
            workload="regenerating",
            rho=0.25,
            m_max=64,
            order="sharded:3",
            max_steps=25,
            seed=ENGINE_SEED,  # also seeds the workload's rewiring
        )
        rec = TraceRecorder()
        run_sharded(config, _graph(), recorder=rec)

        from repro.api import run as api_run

        local_rec = TraceRecorder()
        api_run(config, graph=_graph(), recorder=local_rec)
        assert rec.to_jsonl() == local_rec.to_jsonl()

    def test_pool_keywords_are_gone(self, tmp_path):
        config = RunConfig(workload="consuming", order="sharded:2", max_steps=5)
        with pytest.raises(TypeError, match="journal"):
            run_sharded(config, _graph(), journal=tmp_path / "j.jsonl")

    def test_run_sharded_defaults_to_config_seed(self):
        # api.run(config) is seeded by config.seed; so is run_sharded
        config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="sharded:2",
            max_steps=15,
            seed=ENGINE_SEED,
        )

        def signature(**kwargs):
            result = run_sharded(config, _graph(), **kwargs)
            return len(result), result.total_committed, result.total_aborted

        assert signature() == signature()
        assert signature() == signature(seed=ENGINE_SEED)
        assert signature(seed=ENGINE_SEED + 1) != signature()  # explicit seed= wins

    def test_one_shard_run_sharded_matches_unordered(self):
        config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="sharded:1",
            max_steps=25,
        )
        rec = TraceRecorder()
        run_sharded(config, _graph(), seed=ENGINE_SEED, recorder=rec)

        from repro.api import run as api_run

        plain_config = RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="unordered",
            max_steps=25,
        )
        plain = TraceRecorder()
        api_run(plain_config, graph=_graph(), seed=ENGINE_SEED, recorder=plain)
        assert rec.to_jsonl() == plain.to_jsonl()
