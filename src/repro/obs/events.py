"""Structured trace events of the observability layer.

One engine run produces a stream of :class:`TraceEvent` records — the
runtime's flight recorder.  Events are deliberately *flat and
JSON-serialisable*: a ``step`` index, a ``kind`` tag, and a payload dict
of plain scalars/lists, so that a trace can be exported as JSONL, diffed
textually, checked into the repository as a golden fixture, and replayed
byte-for-byte across refactors (serialisation is canonical: sorted keys,
no whitespace).

Event kinds emitted by the runtime:

``run_start``
    Engine construction: commit-order ``policy`` label (the conflict
    policy's class name for the unordered order), seed (when
    replayable), initial work-set size, and the controller's full
    configuration
    (:meth:`~repro.control.base.Controller.describe`) — everything a
    replayer needs to reconstruct the decision trajectory.
``step``
    One temporal step: the requested allocation ``m_t``, the work-set
    size before the draw, the ``launched`` tasks actually drawn, their
    commit/abort accounting, and the *positions within the batch* that
    committed (the commit order ``π_m`` without process-dependent task
    uids, so traces stay byte-stable).
    Ordered engines add the conflict/order abort split and the
    barrier/horizon values.
``order_decision``
    A relaxed/async commit-order policy drew its batch through a bounded
    window: the window size and the per-round in-window ranks chosen.
    Strict policies (and depth-1 relaxation) emit nothing, so depth-1
    traces stay byte-identical to strict ones; the replayer treats the
    kind as informational.  The sharded policy reuses it for the
    per-shard launch/commit counts of one partitioned round.
``halo_exchange``
    A multi-shard round's phase-2 boundary resolution: locally committed
    tasks, halo aborts, and the surviving committed nodes with their
    owning shards — the fields the conflict-serializability trace
    validator checks.  Single-shard runs emit nothing (byte-identity
    with the unordered engine); the replayer treats the kind as
    informational.
``decision``
    A controller window closed and a rule fired (or explicitly held):
    windowed ``r``, the branch taken, old and new ``m``.
``clamp``
    A controller update hit the ``[m_min, m_max]`` actuator bound.
``run_end``
    Totals for one ``run()`` invocation.
``workload_capture``
    A :class:`~repro.runtime.wktrace.WorkloadCapture` saved its recorded
    workload trace: destination path, task/commit/abort totals, and the
    trace fingerprint.  Informational — the replayer ignores it.
``workload_replay``
    A :class:`~repro.runtime.wktrace.TraceReplayWorkload` was built from
    a recorded trace: source path, workload label, task/commit totals
    and fingerprint, so a run's provenance names the exact morph
    sequence it executed.  Informational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ObservabilityError

__all__ = [
    "TraceEvent",
    "RUN_START",
    "STEP",
    "ORDER_DECISION",
    "HALO_EXCHANGE",
    "DECISION",
    "CLAMP",
    "RUN_END",
    "WORKLOAD_CAPTURE",
    "WORKLOAD_REPLAY",
    "event_to_json",
    "event_from_json",
]

RUN_START = "run_start"
STEP = "step"
ORDER_DECISION = "order_decision"
HALO_EXCHANGE = "halo_exchange"
DECISION = "decision"
CLAMP = "clamp"
RUN_END = "run_end"
WORKLOAD_CAPTURE = "workload_capture"
WORKLOAD_REPLAY = "workload_replay"

_KNOWN_KINDS = frozenset(
    {RUN_START, STEP, ORDER_DECISION, HALO_EXCHANGE, DECISION, CLAMP, RUN_END,
     WORKLOAD_CAPTURE, WORKLOAD_REPLAY}
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured record in a runtime trace."""

    step: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ObservabilityError(f"event step must be >= 0, got {self.step}")
        if not self.kind:
            raise ObservabilityError("event kind must be a non-empty string")

    @property
    def known(self) -> bool:
        """Whether ``kind`` is one of the runtime's standard kinds.

        Applications may emit custom kinds through a recorder; the replayer
        ignores anything it does not recognise.
        """
        return self.kind in _KNOWN_KINDS

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def event_to_json(event: TraceEvent) -> str:
    """Canonical one-line JSON encoding (sorted keys, no whitespace).

    The canonical form is what makes golden-trace fixtures byte-stable:
    two semantically equal events always serialise identically.
    """
    payload = {"step": event.step, "kind": event.kind, "data": event.data}
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ObservabilityError(
            f"event data for kind {event.kind!r} is not JSON-serialisable"
        ) from exc


def event_from_json(line: str) -> TraceEvent:
    """Parse one JSONL line back into a :class:`TraceEvent`."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"malformed trace line: {line[:80]!r}") from exc
    if not isinstance(payload, dict) or "kind" not in payload or "step" not in payload:
        raise ObservabilityError(f"trace line is not an event object: {line[:80]!r}")
    data = payload.get("data", {})
    if not isinstance(data, dict):
        raise ObservabilityError(f"event data must be an object: {line[:80]!r}")
    step = payload["step"]
    if isinstance(step, bool) or not isinstance(step, int):
        raise ObservabilityError(f"event step must be an integer: {line[:80]!r}")
    return TraceEvent(step=step, kind=str(payload["kind"]), data=data)
