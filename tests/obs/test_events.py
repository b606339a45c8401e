"""Tests for repro.obs.events — structured trace events."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    CLAMP,
    DECISION,
    RUN_END,
    RUN_START,
    STEP,
    TraceEvent,
    event_from_json,
    event_to_json,
)


class TestTraceEvent:
    def test_basic_construction(self):
        e = TraceEvent(step=3, kind="step", data={"committed": 5})
        assert e.step == 3 and e.kind == "step"
        assert e.get("committed") == 5
        assert e.get("missing", 42) == 42

    def test_negative_step_rejected(self):
        with pytest.raises(ObservabilityError):
            TraceEvent(step=-1, kind="step")

    def test_empty_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            TraceEvent(step=0, kind="")

    def test_known_kinds(self):
        for kind in (RUN_START, STEP, DECISION, CLAMP, RUN_END):
            assert TraceEvent(step=0, kind=kind).known
        assert not TraceEvent(step=0, kind="app_custom").known

    def test_frozen(self):
        e = TraceEvent(step=0, kind="step")
        with pytest.raises(AttributeError):
            e.step = 1


class TestJsonRoundTrip:
    def test_round_trip(self):
        e = TraceEvent(step=7, kind="decision", data={"rule": "A", "m_new": 12})
        back = event_from_json(event_to_json(e))
        assert back == e

    def test_canonical_encoding_is_key_order_independent(self):
        a = TraceEvent(step=0, kind="step", data={"a": 1, "b": 2})
        b = TraceEvent(step=0, kind="step", data={"b": 2, "a": 1})
        assert event_to_json(a) == event_to_json(b)

    def test_canonical_encoding_has_no_whitespace(self):
        line = event_to_json(TraceEvent(step=0, kind="step", data={"x": [1, 2]}))
        assert " " not in line and "\n" not in line

    def test_unserialisable_data_raises(self):
        e = TraceEvent(step=0, kind="step", data={"obj": object()})
        with pytest.raises(ObservabilityError):
            event_to_json(e)

    def test_malformed_line_raises(self):
        with pytest.raises(ObservabilityError):
            event_from_json("{not json")

    def test_non_event_object_raises(self):
        with pytest.raises(ObservabilityError):
            event_from_json('{"foo": 1}')
        with pytest.raises(ObservabilityError):
            event_from_json('[1, 2]')

    def test_non_dict_data_raises(self):
        with pytest.raises(ObservabilityError):
            event_from_json('{"step": 0, "kind": "step", "data": [1]}')

    @pytest.mark.parametrize("step", ['"x"', "null", "1.5", "true"])
    def test_non_integer_step_raises(self, step):
        with pytest.raises(ObservabilityError, match="step must be an integer"):
            event_from_json(f'{{"kind": "step", "step": {step}}}')

    @pytest.mark.parametrize("step", ['"x"', "null"])
    def test_load_jsonl_names_the_line_of_a_non_integer_step(self, tmp_path, step):
        from repro.obs import load_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind":"run_start","step":0}\n' f'{{"kind":"step","step":{step}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ObservabilityError, match=r"bad\.jsonl:2: "):
            load_jsonl(path)

    def test_old_select_events_still_load(self):
        # older traces carry a select event per step: it parses as a
        # non-standard kind, which the replayer and the report skip
        event = event_from_json('{"data":{"requested":2},"kind":"select","step":0}')
        assert event.kind == "select" and not event.known
