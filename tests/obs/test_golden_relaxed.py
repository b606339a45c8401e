"""Golden-trace regression test for the relaxed commit order.

A checked-in JSONL fixture records a reference ``relaxed:2`` run of the
hybrid controller on a ``gnm_random(200, d=8)`` draining workload — the
same workload as the strict golden trace, with the commit order relaxed
to depth 2.  Beyond the usual step/decision schema, the fixture pins the
``order_decision`` channel: the exact windowed-draw sequence of the
k-of-top policy, RNG trajectory included.  Any change to the relaxation
semantics, the window-draw kernel, or the event serialisation shows up
as a byte diff here.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden_relaxed import regenerate; regenerate()"
"""

from pathlib import Path

import numpy as np

from repro.api import run
from repro.config import RunConfig
from repro.graph.generators import gnm_random
from repro.obs import ORDER_DECISION, TraceRecorder, load_jsonl, trajectory, verify_trace
from repro.testing.oracles import reference_paths

FIXTURE = Path(__file__).parent / "fixtures" / "golden_relaxed2_gnm200_d8.jsonl"

GRAPH_SEED = 2011  # SPAA 2011
ENGINE_SEED = 8
MAX_STEPS = 60
DEPTH = 2


def golden_trace() -> TraceRecorder:
    """The reference run: hybrid control under relaxed:2 commit order."""
    rec = TraceRecorder()
    run(
        RunConfig(
            workload="consuming",
            rho=0.25,
            m_max=64,
            order=f"relaxed:{DEPTH}",
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
    print(f"wrote {FIXTURE}")


class TestGoldenRelaxedTrace:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), "golden fixture missing; run regenerate()"

    def test_rerun_is_byte_identical(self):
        fresh = golden_trace().to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8"), (
            "golden relaxed trace drifted: relaxation/draw/serialisation "
            "semantics changed; if intentional, regenerate the fixture"
        )

    def test_rerun_on_the_reference_walk_is_byte_identical(self):
        with reference_paths():
            fresh = golden_trace().to_jsonl()
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
        assert events[0].data["policy"] == f"relaxed:{DEPTH}"
        steps = [e for e in events if e.kind == "step"]
        total_committed = sum(e.data["committed"] for e in steps)
        assert total_committed == 200  # the whole workload drained

    def test_order_decisions_pin_the_draw_sequence(self):
        # one windowed draw per step, window = DEPTH, every in-window
        # rank strictly below it — the replayable decision channel
        events = load_jsonl(FIXTURE)
        decisions = [e for e in events if e.kind == ORDER_DECISION]
        steps = [e for e in events if e.kind == "step"]
        assert len(decisions) == len(steps)
        for decision, step in zip(decisions, steps):
            assert decision.data["policy"] == f"relaxed:{DEPTH}"
            assert decision.data["window"] == DEPTH
            draws = decision.data["draws"]
            assert len(draws) == step.data["launched"]
            assert all(0 <= d < DEPTH for d in draws)
        # depth 2 with fixed seeds must actually exercise both ranks
        flat = [d for e in decisions for d in e.data["draws"]]
        assert set(flat) == {0, 1}
