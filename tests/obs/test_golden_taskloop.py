"""Golden-trace regression tests for task loops.

The graph and ``.wktrace`` goldens all start from a workload; these two
fixtures pin ``run(initial=..., operator=...)`` itself — the path a user
takes with their own operator — byte for byte:

* an unordered loop over abstract item locks (``golden_taskloop_itemlock``);
* a ``relaxed:2`` priority loop (``golden_taskloop_relaxed2``), which
  also pins the windowed-draw ``order_decision`` channel.

Both operators create work as they commit, so the work-set evolves and
the item-lock walk sees real contention.

Regenerate (only after an intentional semantic change!) with::

    PYTHONPATH=src python -c "from tests.obs.test_golden_taskloop import regenerate; regenerate()"
"""

from pathlib import Path

from repro.api import run
from repro.config import RunConfig
from repro.obs import ORDER_DECISION, TraceRecorder, load_jsonl, verify_trace
from repro.runtime.task import CallbackOperator, Task

FIXTURES = Path(__file__).parent / "fixtures"
ITEMLOCK_FIXTURE = FIXTURES / "golden_taskloop_itemlock.jsonl"
RELAXED_FIXTURE = FIXTURES / "golden_taskloop_relaxed2.jsonl"

ENGINE_SEED = 11
MAX_STEPS = 80
ITEMS = 50


def _operator() -> CallbackOperator:
    # two items per task out of ITEMS; a commit below 300 spawns one
    # child 97 further on, so every initial task commits up to four times
    return CallbackOperator(
        neighborhood=lambda t: {t.payload % ITEMS, (t.payload * 7 + 1) % ITEMS},
        apply=lambda t: [Task(payload=t.payload + 97)] if t.payload < 300 else [],
    )


def itemlock_trace() -> TraceRecorder:
    """Unordered task loop over item locks, hybrid control."""
    rec = TraceRecorder()
    run(
        RunConfig(rho=0.25, m_max=64, max_steps=MAX_STEPS),
        initial=range(120),
        operator=_operator(),
        seed=ENGINE_SEED,
        recorder=rec,
    )
    return rec


def relaxed_trace() -> TraceRecorder:
    """Priority task loop under the relaxed:2 commit order."""
    rec = TraceRecorder()
    run(
        RunConfig(rho=0.25, m_max=64, order="relaxed:2", max_steps=MAX_STEPS),
        initial=[(float(i), i) for i in range(120)],
        operator=_operator(),
        priority_of=lambda t: float(t.payload),
        seed=ENGINE_SEED,
        recorder=rec,
    )
    return rec


def regenerate() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    itemlock_trace().save_jsonl(ITEMLOCK_FIXTURE)
    relaxed_trace().save_jsonl(RELAXED_FIXTURE)
    print(f"wrote {ITEMLOCK_FIXTURE} and {RELAXED_FIXTURE}")


def _committed(events) -> int:
    return sum(e.data["committed"] for e in events if e.kind == "step")


class TestGoldenItemLockTaskLoop:
    def test_rerun_is_byte_identical(self):
        assert itemlock_trace().to_jsonl() == ITEMLOCK_FIXTURE.read_text(
            encoding="utf-8"
        ), "golden task-loop trace drifted: task-loop wiring or step semantics changed"

    def test_fixture_shape(self):
        events = load_jsonl(ITEMLOCK_FIXTURE)
        assert events[0].data["policy"] == "ItemLockPolicy"
        assert sum(e.data["aborted"] for e in events if e.kind == "step") > 0
        assert _committed(events) > 120  # committed work created work
        assert len(verify_trace(events)) == 1


class TestGoldenRelaxedTaskLoop:
    def test_rerun_is_byte_identical(self):
        assert relaxed_trace().to_jsonl() == RELAXED_FIXTURE.read_text(
            encoding="utf-8"
        ), "golden relaxed task-loop trace drifted: task-loop wiring or relaxation changed"

    def test_fixture_shape(self):
        events = load_jsonl(RELAXED_FIXTURE)
        assert events[0].data["policy"] == "relaxed:2"
        assert any(e.kind == ORDER_DECISION for e in events)
        assert sum(e.data["conflict_aborted"] for e in events if e.kind == "step") > 0
        assert len(verify_trace(events)) == 1
