"""Tests for repro.runtime.task."""

import copy
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest

from repro.runtime.task import CallbackOperator, Task


class TestTask:
    def test_uids_unique_and_increasing(self):
        a, b = Task(payload=1), Task(payload=1)
        assert a.uid != b.uid
        assert b.uid > a.uid

    def test_payload_opaque(self):
        t = Task(payload={"anything": [1, 2]})
        assert t.payload == {"anything": [1, 2]}

    def test_repr(self):
        t = Task(payload="x")
        assert "x" in repr(t) and str(t.uid) in repr(t)


class TestTaskLayout:
    """A task is two slots and nothing else: no per-instance dict."""

    def test_slotted_without_a_dict(self):
        t = Task(payload=3)
        assert Task.__slots__ == ("payload", "uid")
        assert not hasattr(t, "__dict__")
        # dict-backed it was 56 bytes plus a ~300-byte dict elsewhere on the heap
        assert sys.getsizeof(t) <= 48

    @pytest.mark.parametrize("name", ["payload", "uid"])
    def test_fields_are_frozen(self, name):
        t = Task(payload=3)
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, 4)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)

    def test_no_new_attributes(self):
        with pytest.raises((AttributeError, TypeError)):
            Task(payload=3).extra = 1

    def test_copies_keep_payload_and_uid(self):
        t = Task(payload=("tri", [1, 2]))
        twins = [copy.copy(t), copy.deepcopy(t)] + [
            pickle.loads(pickle.dumps(t, protocol=p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in twins:
            assert (twin.payload, twin.uid) == (t.payload, t.uid)
            assert twin == t and type(twin) is Task

    def test_eq_and_hash_are_by_value(self):
        a = Task(payload=7)
        same = Task(payload=7, uid=a.uid)
        assert a == same and hash(a) == hash(same) == hash((7, a.uid))
        assert a != Task(payload=7)  # fresh uid
        assert a != Task(payload=8, uid=a.uid)
        assert len({a, same}) == 1


class TestCallbackOperator:
    def test_delegation(self):
        calls = []
        op = CallbackOperator(
            neighborhood=lambda t: {t.payload},
            apply=lambda t: [Task(payload=t.payload + 1)],
            on_abort=lambda t: calls.append(t.uid),
        )
        t = Task(payload=5)
        assert set(op.neighborhood(t)) == {5}
        out = op.apply(t)
        assert len(out) == 1 and out[0].payload == 6
        op.on_abort(t)
        assert calls == [t.uid]

    def test_on_abort_default_noop(self):
        op = CallbackOperator(neighborhood=lambda t: (), apply=lambda t: [])
        op.on_abort(Task(payload=None))  # must not raise
