"""Deterministic replay of recorded runs.

A trace (see :mod:`repro.obs.events`) carries everything needed to
reconstruct a controller's decision trajectory *without* re-running the
workload: the ``run_start`` event stores the controller's full
configuration, and each ``step`` event stores the observation
``(r_t, launched_t)`` the controller ingested.  Feeding those recorded
observations into a freshly built controller must reproduce the recorded
``m_t`` sequence exactly — controllers are pure functions of their
observation history.  :func:`verify_trace` checks precisely this, and is
the golden-trace regression primitive of the test suite.

When the trace also records an integer seed, the *entire engine run* can
be reproduced: rebuild the same workload, pass the same seed, and either
the reconstructed controller or a :class:`ReplayController` (which simply
replays the recorded ``m_t``) drives the engine through the identical
``(m_t, r_t)`` trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.base import Controller
from repro.errors import ObservabilityError, ReplayMismatchError
from repro.obs.events import DECISION, RUN_START, STEP, TraceEvent

__all__ = [
    "split_runs",
    "trajectory",
    "controller_from_config",
    "controller_from_trace",
    "ReplayReport",
    "replay_decisions",
    "verify_trace",
    "ReplayController",
]


def split_runs(events: "list[TraceEvent]") -> list[list[TraceEvent]]:
    """Split a trace into per-run segments at each ``run_start``.

    Events before the first ``run_start`` (possible when the recorder's
    ring buffer overflowed and dropped the head) are discarded — a
    truncated run cannot be replayed from its middle.
    """
    segments: list[list[TraceEvent]] = []
    current: "list[TraceEvent] | None" = None
    for event in events:
        if event.kind == RUN_START:
            current = [event]
            segments.append(current)
        elif current is not None:
            current.append(event)
    return segments


def trajectory(events: "list[TraceEvent]") -> tuple[np.ndarray, np.ndarray]:
    """Extract ``(m_t, r_t)`` from the ``step`` events of one segment."""
    ms, rs = [], []
    for event in events:
        if event.kind == STEP:
            ms.append(int(event.data["requested"]))
            rs.append(float(event.data["conflict_ratio"]))
    return np.asarray(ms, dtype=np.int64), np.asarray(rs, dtype=float)


# ----------------------------------------------------------------------
# controller reconstruction
# ----------------------------------------------------------------------
def _controller_class(name: str) -> "type[Controller] | None":
    """The loaded :class:`Controller` subclass called *name*.

    Of two subclasses of one parent sharing a name, the later defined
    wins, as a re-definition would.
    """
    found = None
    pending = [Controller]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__name__ == name:
                found = sub
            pending.append(sub)
    return found


def controller_from_config(config: dict) -> Controller:
    """Rebuild a controller from a :meth:`Controller.describe` dict.

    ``type`` names a loaded :class:`Controller` subclass, whose
    :meth:`~Controller.from_description` rebuilds it from the remaining
    fields.  Controllers defined outside :mod:`repro.control` must be
    imported before their traces replay.
    """
    import repro.control  # noqa: F401 - defines the built-in controllers

    if "type" not in config:
        raise ObservabilityError("controller config has no 'type' field")
    fields = dict(config)
    kind = fields.pop("type")
    cls = _controller_class(kind)
    if cls is None:
        raise ObservabilityError(f"no Controller subclass named {kind!r} is loaded")
    try:
        return cls.from_description(fields)
    except (TypeError, KeyError) as exc:
        raise ObservabilityError(
            f"controller type {kind!r} cannot be rebuilt from its description: {exc}"
        ) from exc


def controller_from_trace(events: "list[TraceEvent]") -> Controller:
    """Rebuild the controller recorded in one segment's ``run_start``."""
    for event in events:
        if event.kind == RUN_START:
            config = event.get("controller")
            if not isinstance(config, dict):
                raise ObservabilityError("run_start has no controller config")
            return controller_from_config(config)
    raise ObservabilityError("trace segment has no run_start event")


# ----------------------------------------------------------------------
# decision replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one run segment's decision trajectory."""

    controller_type: str
    steps: int
    m_recorded: np.ndarray
    m_replayed: np.ndarray
    r_recorded: np.ndarray
    decisions: int

    @property
    def matches(self) -> bool:
        return bool(np.array_equal(self.m_recorded, self.m_replayed))

    def first_divergence(self) -> int:
        """Index of the first mismatching step (-1 when identical)."""
        if self.matches:
            return -1
        limit = min(len(self.m_recorded), len(self.m_replayed))
        diff = np.nonzero(self.m_recorded[:limit] != self.m_replayed[:limit])[0]
        return int(diff[0]) if diff.size else limit


def replay_decisions(
    events: "list[TraceEvent]", controller: "Controller | None" = None
) -> ReplayReport:
    """Re-derive ``m_t`` by feeding recorded observations to a controller.

    With no *controller* given, one is reconstructed from the segment's
    ``run_start`` configuration.  The replayed proposals are compared
    against the recorded ones in the returned report; use
    :func:`verify_trace` to turn a mismatch into an exception.
    """
    if controller is None:
        controller = controller_from_trace(events)
        # controllers that consumed runtime-side state during the live run
        # (e.g. per-shard statistics) re-source it from the segment's own
        # events instead — the trace is the complete observation record
        binder = getattr(controller, "bind_replay_segment", None)
        if binder is not None:
            binder(events)
    config = None
    for event in events:
        if event.kind == RUN_START:
            config = event.get("controller", {})
            break
    m_recorded, r_recorded = trajectory(events)
    launched = [
        int(e.data["launched"]) for e in events if e.kind == STEP
    ]
    decisions = sum(1 for e in events if e.kind == DECISION)
    m_replayed = []
    for r, n in zip(r_recorded, launched):
        m_replayed.append(controller.propose())
        controller.observe(float(r), n)
    kind = (config or {}).get("type", type(controller).__name__)
    return ReplayReport(
        controller_type=str(kind),
        steps=len(m_recorded),
        m_recorded=m_recorded,
        m_replayed=np.asarray(m_replayed, dtype=np.int64),
        r_recorded=r_recorded,
        decisions=decisions,
    )


def verify_trace(events: "list[TraceEvent]") -> list[ReplayReport]:
    """Replay every run segment of a trace; raise on any divergence.

    Returns one :class:`ReplayReport` per segment.  Segments whose
    controller cannot be rebuilt from its description raise
    :class:`~repro.errors.ObservabilityError`; a reproduced-but-different
    trajectory raises :class:`~repro.errors.ReplayMismatchError` naming
    the first diverging step.
    """
    reports = []
    for index, segment in enumerate(split_runs(events)):
        report = replay_decisions(segment)
        if not report.matches:
            t = report.first_divergence()
            rec = report.m_recorded[t] if t < len(report.m_recorded) else "<end>"
            rep = report.m_replayed[t] if t < len(report.m_replayed) else "<end>"
            raise ReplayMismatchError(
                f"run {index} ({report.controller_type}): replay diverged at "
                f"step {t}: recorded m={rec}, replayed m={rep}"
            )
        reports.append(report)
    return reports


class ReplayController(Controller):
    """Drives an engine through a pre-recorded allocation sequence.

    Useful for post-hoc diagnostics: replaying the recorded ``m_t``
    against the rebuilt workload (same seed) reproduces the full
    ``r_t`` trajectory, after which any instrumentation — CC-graph
    snapshots, cost models, alternative metrics — can be attached to a
    run that is *guaranteed* to be the one observed in production.
    """

    def __init__(self, m_sequence) -> None:
        super().__init__()
        self._sequence = [int(m) for m in m_sequence]
        if not self._sequence:
            raise ObservabilityError("replay needs a non-empty m sequence")
        if min(self._sequence) < 1:
            raise ObservabilityError("recorded allocations must all be >= 1")
        self._cursor = 0

    @classmethod
    def from_trace(cls, events: "list[TraceEvent]") -> "ReplayController":
        """Build from the ``step`` events of one segment."""
        return cls(trajectory(events)[0].tolist())

    def _next_m(self) -> int:
        if self._cursor >= len(self._sequence):
            raise ReplayMismatchError(
                f"replay exhausted after {len(self._sequence)} recorded steps"
            )
        m = self._sequence[self._cursor]
        self._cursor += 1
        return m

    def _do_reset(self) -> None:
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._sequence) - self._cursor

    def describe(self) -> dict:
        return {"type": "ReplayController", "steps": len(self._sequence)}
