"""Workload-trace record/replay substrate (:mod:`repro.runtime.wktrace`).

Covers the three layers — :class:`WorkloadTrace` serialisation and
integrity checking, :class:`WorkloadCapture` recording through live
engine runs, :class:`TraceReplayWorkload` deterministic re-execution —
plus the two cross-cutting equivalence gates the substrate exists for:
a recorded trace replays *byte-identically* on the default and the oracle paths,
and commits the *same work* under ``sharded:1`` vs ``sharded:2``.
"""

import pytest

from repro import RunConfig
from repro.api import run
from repro.control import HybridController
from repro.control.fixed import FixedController
from repro.errors import ConfigError, ObservabilityError, ReplayMismatchError
from repro.graph.generators import gnm_random
from repro.obs import TraceRecorder, recording
from repro.runtime.engine import make_engine
from repro.runtime.wktrace import (
    TraceReplayWorkload,
    WorkloadCapture,
    WorkloadTrace,
)
from repro.runtime.workloads import ConsumingGraphWorkload
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

SEED = 17


def _record_boruvka(tmp_path, scale=50, seed=SEED):
    path = tmp_path / "boruvka.wktrace"
    res = run(RunConfig(workload=f"boruvka:{scale}", seed=seed), record_workload=str(path))
    return path, res


class TestWorkloadTraceSerialisation:
    def _tiny_trace(self):
        trace = WorkloadTrace(label="tiny", requires_order=False)
        a = trace.add_task(0, priority=0.0, parent=None)
        b = trace.add_task(1, priority=1.0, parent=None)
        c = trace.add_task("payload", priority=None, parent=a)
        trace.set_items(a, ["x", "y"])
        trace.set_items(b, ["y"])
        trace.add_commit(a, items=["x", "y"], children=[c], ops=[("remove_node", 0)])
        trace.add_commit(b, items=["y"], children=[], ops=[])
        trace.aborts = 3
        return trace

    def test_round_trip_is_lossless_and_byte_stable(self):
        trace = self._tiny_trace()
        text = trace.to_jsonl()
        reloaded = WorkloadTrace.from_jsonl(text)
        assert reloaded.to_jsonl() == text
        assert reloaded.label == "tiny"
        assert reloaded.aborts == 3
        assert reloaded.fingerprint() == trace.fingerprint()
        assert [t["items"] for t in reloaded.tasks] == [["x", "y"], ["y"], []]
        assert reloaded.commits[0]["ops"] == [["remove_node", 0]]

    def test_missing_header_rejected(self):
        with pytest.raises(ObservabilityError, match="wkheader"):
            WorkloadTrace.from_jsonl('{"kind":"wkend"}\n')

    def test_unsupported_version_rejected(self):
        text = self._tiny_trace().to_jsonl().replace('"version":1', '"version":99')
        with pytest.raises(ObservabilityError, match="version"):
            WorkloadTrace.from_jsonl(text)

    def test_truncated_trace_rejected(self):
        lines = self._tiny_trace().to_jsonl().splitlines()
        with pytest.raises(ObservabilityError, match="truncated"):
            WorkloadTrace.from_jsonl("\n".join(lines[:-1]) + "\n")

    def test_tampered_commit_fails_fingerprint(self):
        text = self._tiny_trace().to_jsonl().replace('"children":[2]', '"children":[]')
        with pytest.raises(ReplayMismatchError, match="fingerprint"):
            WorkloadTrace.from_jsonl(text)

    def test_non_dense_task_ids_rejected(self):
        trace = self._tiny_trace()
        trace.tasks[1]["id"] = 7
        with pytest.raises(ObservabilityError, match="dense"):
            WorkloadTrace.from_jsonl(trace.to_jsonl())

    def test_commit_referencing_unknown_task_rejected(self):
        trace = self._tiny_trace()
        trace.commits[0]["id"] = 99
        with pytest.raises(ObservabilityError, match="unknown task"):
            WorkloadTrace.from_jsonl(trace.to_jsonl())

    @pytest.mark.parametrize("aborts", ['"many"', "null", "1.5"])
    def test_non_integer_trailer_aborts_rejected(self, aborts):
        text = self._tiny_trace().to_jsonl().replace('"aborts":3', f'"aborts":{aborts}')
        with pytest.raises(ObservabilityError, match="aborts must be an integer"):
            WorkloadTrace.from_jsonl(text)

    def test_load_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read"):
            WorkloadTrace.load(tmp_path / "nope.wktrace")


class TestRecordReplayRoundTrip:
    def test_record_then_replay_commits_identical_work(self, tmp_path):
        path, recorded = _record_boruvka(tmp_path)
        trace = WorkloadTrace.load(path)
        assert len(trace.commits) == recorded.total_committed
        assert trace.aborts == recorded.total_aborted

        replayed = run(RunConfig(workload=f"trace:{path}", seed=SEED))
        assert replayed.total_committed == recorded.total_committed

    def test_replay_complete_flag(self, tmp_path):
        path, _ = _record_boruvka(tmp_path)
        workload = TraceReplayWorkload.load(path)
        make_engine(workload, FixedController(4), seed=1).run()
        assert workload.replay_complete()
        assert workload.unrecorded_commits == 0

    def test_ordered_recording_replays_on_ordered_engine(self, tmp_path):
        path = tmp_path / "des.wktrace"
        recorded = run(RunConfig(workload="des:5", seed=4), record_workload=str(path))
        trace = WorkloadTrace.load(path)
        assert trace.requires_order

        workload = TraceReplayWorkload.load(path)
        assert workload.requires_order
        replayed = make_engine(workload, FixedController(3), seed=2).run()
        assert replayed.total_committed == recorded.total_committed
        assert workload.replay_complete()

    def test_explicit_graph_workload_captures_morphs(self):
        graph = gnm_random(40, 6, seed=3)
        capture = WorkloadCapture(ConsumingGraphWorkload(graph), label="consuming")
        make_engine(capture, FixedController(8), seed=5).run()
        trace = capture.finalize()
        assert len(trace.commits) == 40  # drained
        ops = [op for rec in trace.commits for op in rec["ops"]]
        assert ("remove_node" in {op[0] for op in ops})
        # every commit recorded non-empty conflict items (incident edges)
        # except genuinely isolated end-game nodes
        assert any(rec["items"] for rec in trace.commits)

        replay = TraceReplayWorkload(trace)
        make_engine(replay, FixedController(8), seed=5).run()
        assert replay.replay_complete()

    def test_capture_detaches_morph_hook_on_save(self, tmp_path):
        graph = gnm_random(10, 2, seed=1)
        capture = WorkloadCapture(ConsumingGraphWorkload(graph))
        make_engine(capture, FixedController(2), seed=0).run()
        capture.save(tmp_path / "t.wktrace")
        # hook released: a second capture can install its own
        graph.set_morph_hook(lambda *op: None)
        graph.set_morph_hook(None)


class TestReplayEquivalenceGates:
    """The cross-configuration claims the substrate makes testable."""

    def _trace_path(self, tmp_path):
        path, _ = _record_boruvka(tmp_path)
        return path

    def test_select_backends_replay_byte_identically(self, tmp_path):
        path = self._trace_path(tmp_path)

        default = TraceRecorder()
        run(RunConfig(workload=f"trace:{path}", seed=11), recorder=default)

        oracle = TraceRecorder()
        workload = TraceReplayWorkload.load(path, workset=RandomWorkset())
        engine = make_engine(
            workload,
            HybridController(0.25, m_max=1024), seed=11, recorder=oracle
        )
        with reference_paths():
            engine.run()
        assert oracle.to_jsonl() == default.to_jsonl()

    def test_sharded_replay_commits_the_same_work(self, tmp_path):
        path = self._trace_path(tmp_path)
        r1 = run(RunConfig(workload=f"trace:{path}", seed=11, order="sharded:1"))
        r2 = run(RunConfig(workload=f"trace:{path}", seed=11, order="sharded:2"))
        recorded = WorkloadTrace.load(path)
        assert r1.total_committed == r2.total_committed == len(recorded.commits)

    def test_unordered_vs_relaxed_replay_same_commits(self, tmp_path):
        path = self._trace_path(tmp_path)
        recorded = WorkloadTrace.load(path)
        r1 = run(RunConfig(workload=f"trace:{path}", seed=9, order="unordered"))
        r2 = run(RunConfig(workload=f"trace:{path}", seed=9, order="relaxed:4"))
        assert r1.total_committed == r2.total_committed == len(recorded.commits)


class TestObsIntegration:
    def test_capture_and_replay_emit_provenance_events(self, tmp_path):
        path = tmp_path / "t.wktrace"
        with recording() as rec:
            run(RunConfig(workload="boruvka:30", seed=2), record_workload=str(path))
            run(RunConfig(workload=f"trace:{path}", seed=2))
        kinds = [e.kind for e in rec.events]
        assert "workload_capture" in kinds
        assert "workload_replay" in kinds
        capture_event = next(e for e in rec.events if e.kind == "workload_capture")
        replay_event = next(e for e in rec.events if e.kind == "workload_replay")
        assert capture_event.data["fingerprint"] == replay_event.data["fingerprint"]
        assert capture_event.data["path"] == str(path)

    def test_record_under_sharded_order_rejected(self, tmp_path):
        # one shard: a multi-shard order is rejected for an app before
        # record_workload= is looked at
        with pytest.raises(ConfigError, match="record_workload=.*sharded"):
            run(
                RunConfig(workload="boruvka:20", seed=1, order="sharded:1"),
                record_workload=str(tmp_path / "x.wktrace"),
            )
