"""Tests for repro.obs.recorder — ring buffer, JSONL, active plumbing."""

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TraceRecorder,
    activate,
    active_recorder,
    deactivate,
    describe_seed,
    load_jsonl,
    load_jsonl_meta,
    recording,
)


class TestRingBuffer:
    def test_emit_and_snapshot(self):
        rec = TraceRecorder()
        rec.emit("step", step=0, committed=3)
        rec.emit("decision", step=0, rule="A")
        assert len(rec) == 2
        kinds = [e.kind for e in rec.events]
        assert kinds == ["step", "decision"]

    def test_capacity_drops_oldest(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.emit("step", step=i)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [e.step for e in rec.events] == [2, 3, 4]

    def test_unbounded_capacity(self):
        rec = TraceRecorder(capacity=None)
        for i in range(100):
            rec.emit("step", step=i)
        assert len(rec) == 100 and rec.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ObservabilityError):
            TraceRecorder(capacity=0)

    def test_clear(self):
        rec = TraceRecorder(capacity=1)
        rec.emit("step", step=0)
        rec.emit("step", step=1)
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_record_prebuilt_event(self):
        from repro.obs import TraceEvent

        rec = TraceRecorder()
        rec.record(TraceEvent(step=0, kind="custom", data={}))
        assert rec.events[0].kind == "custom"


class TestJsonlIO:
    def test_save_and_load_round_trip(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("run_start", step=0, seed=7)
        rec.emit("step", step=0, committed=2, aborted=1)
        path = tmp_path / "trace.jsonl"
        rec.save_jsonl(path)
        events = load_jsonl(path)
        assert events == rec.events

    def test_to_jsonl_is_one_line_per_event(self):
        rec = TraceRecorder()
        rec.emit("step", step=0)
        rec.emit("step", step=1)
        text = rec.to_jsonl()
        assert text.count("\n") == 2 and text.endswith("\n")

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"step":0,"kind":"step","data":{}}\n\n\n', encoding="utf-8")
        assert len(load_jsonl(path)) == 1

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"step":0,"kind":"step","data":{}}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(ObservabilityError, match=":2:"):
            load_jsonl(path)


class TestDroppedMetadata:
    def test_complete_trace_has_no_meta_line(self):
        # golden fixtures depend on this: an unwrapped export is pure events
        rec = TraceRecorder(capacity=10)
        rec.emit("step", step=0)
        assert '"meta"' not in rec.to_jsonl()

    def test_wrapped_ring_exports_dropped_meta(self, tmp_path):
        rec = TraceRecorder(capacity=3)
        for i in range(8):
            rec.emit("step", step=i)
        text = rec.to_jsonl()
        first = text.splitlines()[0]
        assert '"meta"' in first and '"dropped":5' in first
        path = tmp_path / "wrapped.jsonl"
        rec.save_jsonl(path)
        events, meta = load_jsonl_meta(path)
        assert meta == {"capacity": 3, "dropped": 5}
        assert [e.step for e in events] == [5, 6, 7]

    def test_load_jsonl_skips_meta_line(self, tmp_path):
        rec = TraceRecorder(capacity=2)
        for i in range(4):
            rec.emit("step", step=i)
        path = tmp_path / "wrapped.jsonl"
        rec.save_jsonl(path)
        assert load_jsonl(path) == rec.events  # meta line is not an event

    def test_complete_trace_meta_is_empty(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("step", step=0)
        path = tmp_path / "full.jsonl"
        rec.save_jsonl(path)
        _events, meta = load_jsonl_meta(path)
        assert meta == {}

    def test_malformed_meta_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"meta":3}\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match="meta"):
            load_jsonl_meta(path)


class TestActivePlumbing:
    def test_activate_deactivate(self):
        assert active_recorder() is None
        rec = TraceRecorder()
        try:
            assert activate(rec) is rec
            assert active_recorder() is rec
        finally:
            deactivate()
        assert active_recorder() is None

    def test_activate_rejects_non_recorder(self):
        with pytest.raises(ObservabilityError):
            activate("not a recorder")

    def test_recording_context_restores_previous(self):
        outer = TraceRecorder()
        activate(outer)
        try:
            with recording() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        finally:
            deactivate()

    def test_recording_saves_on_exit(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with recording(path) as rec:
            rec.emit("step", step=0, committed=1)
        assert load_jsonl(path) == rec.events

    def test_recording_saves_even_on_error(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with recording(path) as rec:
                rec.emit("step", step=0)
                raise RuntimeError("boom")
        assert active_recorder() is None
        assert len(load_jsonl(path)) == 1


class TestDescribeSeed:
    def test_int_passthrough(self):
        assert describe_seed(7) == 7
        assert describe_seed(np.int64(9)) == 9

    def test_none(self):
        assert describe_seed(None) is None

    def test_generator_is_unreplayable(self):
        assert describe_seed(np.random.default_rng(0)) is None
