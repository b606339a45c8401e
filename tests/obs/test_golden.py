"""Golden-trace regression test.

A checked-in JSONL fixture records a reference run of the paper's
Algorithm 1 (:class:`HybridController`) on a ``gnm_random(200, d=8)``
draining workload.  The test re-runs the identical workload and demands
*byte-identical* canonical JSONL — any change to the engine's step
semantics, the controller's decision rules, the event schema, or the
canonical serialisation shows up as a diff here.  The fixture must also
keep replaying deterministically after reload.

A second fixture pins the same workload under ``order="sharded:2"``
(partition, two-phase masks, ``order_decision``/``halo_exchange``
events).  It was recorded at the last commit that had the
process-backed shard pool and shown there to equal the pool's trace
byte for byte, so it also carries that runtime's behaviour forward.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden import regenerate; regenerate()"
"""

from pathlib import Path

import numpy as np

from repro.api import run
from repro.config import RunConfig
from repro.control import HybridController
from repro.graph.generators import gnm_random
from repro.obs import HALO_EXCHANGE, TraceRecorder, load_jsonl, trajectory, verify_trace
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

FIXTURE = Path(__file__).parent / "fixtures" / "golden_hybrid_gnm200_d8.jsonl"
SHARDED_FIXTURE = Path(__file__).parent / "fixtures" / "golden_sharded2_gnm200_d8.jsonl"

GRAPH_SEED = 2011  # SPAA 2011
ENGINE_SEED = 8
MAX_STEPS = 60


def golden_trace(workset=None) -> TraceRecorder:
    """The reference run: Algorithm 1 on gnm_random(200, d=8)."""
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(
        gnm_random(200, 8, seed=GRAPH_SEED), workset=workset
    )
    controller = HybridController(0.25, m_max=64)
    engine = make_engine(workload, controller, seed=ENGINE_SEED, recorder=rec)
    engine.run(max_steps=MAX_STEPS)
    return rec


def golden_sharded_trace() -> TraceRecorder:
    """The same workload through ``run()`` under the 2-shard commit order."""
    rec = TraceRecorder()
    run(
        RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order="sharded:2",
            max_steps=MAX_STEPS,
        ),
        graph=gnm_random(200, 8, seed=GRAPH_SEED),
        seed=ENGINE_SEED,
        recorder=rec,
    )
    return rec


def regenerate() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    golden_trace().save_jsonl(FIXTURE)
    golden_sharded_trace().save_jsonl(SHARDED_FIXTURE)
    print(f"wrote {FIXTURE} and {SHARDED_FIXTURE}")


class TestGoldenTrace:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), "golden fixture missing; run regenerate()"

    def test_rerun_is_byte_identical(self):
        fresh = golden_trace().to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8"), (
            "golden trace drifted: engine/controller/serialisation semantics "
            "changed; if intentional, regenerate the fixture"
        )

    def test_rerun_on_the_oracle_paths_is_byte_identical(self):
        # reference sampler + per-task commit branch + reference walk
        with reference_paths():
            fresh = golden_trace(RandomWorkset()).to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8")

    def test_fixture_replays_deterministically(self):
        events = load_jsonl(FIXTURE)
        reports = verify_trace(events)
        assert len(reports) == 1
        assert reports[0].controller_type == "HybridController"

    def test_fixture_matches_live_trajectory(self):
        events = load_jsonl(FIXTURE)
        ms_fixture, rs_fixture = trajectory(events)
        ms_live, rs_live = trajectory(golden_trace().events)
        assert np.array_equal(ms_fixture, ms_live)
        assert np.array_equal(rs_fixture, rs_live)

    def test_fixture_shape_sanity(self):
        events = load_jsonl(FIXTURE)
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert 0 < kinds.count("step") <= MAX_STEPS
        assert "decision" in kinds
        assert events[0].data["seed"] == ENGINE_SEED
        steps = [e for e in events if e.kind == "step"]
        total_committed = sum(e.data["committed"] for e in steps)
        assert total_committed == 200  # the whole workload drained


class TestGoldenShardedTrace:
    def test_rerun_is_byte_identical(self):
        assert golden_sharded_trace().to_jsonl() == SHARDED_FIXTURE.read_text(
            encoding="utf-8"
        ), "golden sharded trace drifted: partition/two-phase/event semantics changed"

    def test_rerun_on_the_oracle_paths_is_byte_identical(self):
        # reference two_phase_commit_mask walk instead of the array kernel
        with reference_paths():
            fresh = golden_sharded_trace().to_jsonl()
        assert fresh == SHARDED_FIXTURE.read_text(encoding="utf-8")

    def test_fixture_exercises_the_halo_exchange(self):
        events = load_jsonl(SHARDED_FIXTURE)
        assert events[0].data["policy"] == "sharded:2"
        halo = [e for e in events if e.kind == HALO_EXCHANGE]
        assert len(halo) == sum(e.kind == "step" for e in events)
        assert sum(e.data["halo_aborts"] for e in halo) > 0
        assert len(verify_trace(events)) == 1
