"""Golden workload-trace regression test.

A checked-in ``.wktrace`` fixture records a reference Boruvka run
captured through :class:`~repro.runtime.wktrace.WorkloadCapture`.  The
test re-records the identical run and demands *byte-identical* canonical
JSONL — any drift in the capture encoding, the canonical serialisation,
the app's task generation, or the engine's commit schedule shows up as a
diff here — and then replays the fixture to completion, proving the
recorded artefact stays executable.

A second fixture pins preflow-push the same way, on an *oversupplied*
network (extra source arcs, so the surplus is relabelled back to the
source over thousands of tiny steps — the regime ``benchmarks/e2e``'s
``maxflow_tinysteps`` runs): every discharge's pushes, relabels and task
creation order are in those bytes.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden_wktrace import regenerate; regenerate()"
"""

from pathlib import Path

from repro.control import HybridController
from repro.obs import TraceRecorder
from repro.runtime.engine import make_engine
from repro.runtime.wktrace import TraceReplayWorkload, WorkloadCapture, WorkloadTrace
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

FIXTURE = Path(__file__).parent / "fixtures" / "golden_boruvka_n60.wktrace"
MAXFLOW_FIXTURE = Path(__file__).parent / "fixtures" / "golden_maxflow_n40.wktrace"

SCALE = 60
GRAPH_SEED = 2011  # SPAA 2011
ENGINE_SEED = 8


def golden_trace(workset=None) -> WorkloadTrace:
    """Record the reference run: Boruvka MST at scale 60 under Algorithm 1."""
    from repro.apps import build_app_input, workload_from_input

    source = build_app_input("boruvka", SCALE, seed=GRAPH_SEED)
    app = workload_from_input("boruvka", source, seed=GRAPH_SEED, workset=workset)
    capture = WorkloadCapture(app, label="boruvka")
    make_engine(capture, HybridController(0.25, m_max=64), seed=ENGINE_SEED).run()
    return capture.finalize()


def golden_maxflow_trace(workset=None) -> WorkloadTrace:
    """Record preflow-push on a 40-node oversupplied network."""
    from repro.apps import workload_from_input
    from tests.apps.test_maxflow import oversupplied_network

    source = oversupplied_network(40, GRAPH_SEED)
    app = workload_from_input("maxflow", source, seed=GRAPH_SEED, workset=workset)
    capture = WorkloadCapture(app, label="maxflow")
    make_engine(capture, HybridController(0.25, m_max=64), seed=ENGINE_SEED).run()
    return capture.finalize()


def regenerate() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    for fixture, record in ((FIXTURE, golden_trace), (MAXFLOW_FIXTURE, golden_maxflow_trace)):
        fixture.write_text(record().to_jsonl(), encoding="utf-8")
        print(f"wrote {fixture}")


class TestGoldenWorkloadTrace:
    def test_fixture_exists(self):
        assert FIXTURE.exists(), "golden wktrace missing; run regenerate()"

    def test_rerecording_is_byte_identical(self):
        fresh = golden_trace().to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8"), (
            "golden workload trace drifted: capture encoding, app task "
            "generation, or engine schedule changed; if intentional, "
            "regenerate the fixture"
        )

    def test_rerecording_on_the_oracle_paths_is_byte_identical(self):
        with reference_paths():
            fresh = golden_trace(RandomWorkset()).to_jsonl()
        assert fresh == FIXTURE.read_text(encoding="utf-8")

    def test_fixture_loads_and_fingerprint_verifies(self):
        trace = WorkloadTrace.load(FIXTURE)  # load() re-checks the fingerprint
        assert trace.label == "boruvka"
        assert not trace.requires_order
        assert len(trace.commits) > SCALE  # MST contractions spawn children

    def test_fixture_replays_to_completion(self):
        workload = TraceReplayWorkload.load(FIXTURE)
        make_engine(workload, HybridController(0.25, m_max=64), seed=3).run()
        assert workload.replay_complete()
        assert workload.unrecorded_commits == 0

    def test_fixture_replay_is_select_backend_invariant(self):
        from repro import RunConfig
        from repro.api import run

        default = TraceRecorder()
        run(RunConfig(workload=f"trace:{FIXTURE}", seed=5), recorder=default)

        oracle = TraceRecorder()
        workload = TraceReplayWorkload.load(FIXTURE, workset=RandomWorkset())
        engine = make_engine(
            workload,
            HybridController(0.25, m_max=1024), seed=5, recorder=oracle
        )
        with reference_paths():
            engine.run()
        assert oracle.to_jsonl() == default.to_jsonl()


class TestGoldenMaxflowTrace:
    def test_rerecording_is_byte_identical(self):
        fresh = golden_maxflow_trace().to_jsonl()
        assert fresh == MAXFLOW_FIXTURE.read_text(encoding="utf-8"), (
            "golden maxflow trace drifted: the discharge's pushes, relabels "
            "or task creation order changed"
        )

    def test_rerecording_on_the_oracle_paths_is_byte_identical(self):
        with reference_paths():
            fresh = golden_maxflow_trace(RandomWorkset()).to_jsonl()
        assert fresh == MAXFLOW_FIXTURE.read_text(encoding="utf-8")

    def test_fixture_is_the_long_regime_and_replays(self):
        trace = WorkloadTrace.load(MAXFLOW_FIXTURE)
        assert trace.label == "maxflow"
        assert len(trace.commits) > 10 * 40  # relabel-to-source, not ~n commits
        workload = TraceReplayWorkload.load(MAXFLOW_FIXTURE)
        make_engine(workload, HybridController(0.25, m_max=64), seed=3).run()
        assert workload.replay_complete()
        assert workload.unrecorded_commits == 0
