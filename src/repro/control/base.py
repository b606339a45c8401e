"""Controller interface for the processor-allocation problem (§4).

A controller decides, before each temporal step, how many processors
``m_t`` the runtime should use, and afterwards observes the realised
conflict ratio ``r_t``.  The engine guarantees the call order
``propose() → observe(r, launched) → propose() → …``.

Controllers are deliberately *environment-blind*: they see only the
``(r_t, m_t)`` history, exactly the information available to the paper's
recurrences (Eq. 31).

Observability: the engine may bind an event sink and a metrics scope via
:meth:`Controller.bind_observability`.  The base class then reports the
raw observation stream and clamp hits; subclasses report their *decisions*
(which rule fired on which windowed ``r``) through :meth:`_emit`, and
advertise their full configuration through :meth:`describe` so a recorded
trace can rebuild an identical controller for deterministic replay
(:mod:`repro.obs.replay`).  Unbound controllers skip all of it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ControllerError

__all__ = ["Controller", "ControlTrace", "clamp"]


def clamp(m: float, m_min: int, m_max: int) -> int:
    """Round up and clamp an allocation into ``[m_min, m_max]``.

    The paper's recurrences use ceilings (⌈·⌉) so the controller never
    rounds itself into a fixed point below the target.
    """
    if m_min > m_max:
        raise ControllerError(f"empty allocation range [{m_min}, {m_max}]")
    import math

    return max(m_min, min(m_max, int(math.ceil(m))))


@dataclass
class ControlTrace:
    """Per-step history of a controller: proposals and observations."""

    proposals: list[int]
    observations: list[float]
    launched: list[int]

    @classmethod
    def empty(cls) -> "ControlTrace":
        return cls(proposals=[], observations=[], launched=[])

    @property
    def m_trace(self) -> np.ndarray:
        return np.array(self.proposals, dtype=np.int64)

    @property
    def r_trace(self) -> np.ndarray:
        return np.array(self.observations, dtype=float)

    def __len__(self) -> int:
        return len(self.proposals)


class Controller(abc.ABC):
    """Base class: bookkeeping plus the propose/observe contract."""

    def __init__(self) -> None:
        self.trace = ControlTrace.empty()
        self._awaiting_observation = False
        self._sink = None  # duck-typed: anything with .emit(kind, step, **data)
        self._metrics = None
        #: observe()'s three metrics, looked up on the first observation
        self._observe_handles = None
        self.clamp_hits = 0

    # -- observability ---------------------------------------------------
    def bind_observability(self, sink=None, metrics=None) -> None:
        """Attach an event sink and/or metrics scope (engine-side wiring).

        *sink* needs an ``emit(kind, step, **data)`` method (a
        :class:`repro.obs.TraceRecorder` qualifies); *metrics* a
        counter/gauge/histogram factory (a
        :class:`repro.obs.MetricsScope`).  Either may be ``None``.
        """
        self._sink = sink
        self._metrics = metrics
        self._observe_handles = None

    def describe(self) -> dict:
        """Replay-sufficient configuration of this controller.

        Subclasses extend the dict with their constructor parameters; the
        contract is that :meth:`from_description` — reached through
        ``controller_from_config(describe())`` — builds a controller whose
        decision trajectory is identical on the same observation stream.
        """
        return {"type": type(self).__name__}

    @classmethod
    def from_description(cls, fields: dict) -> "Controller":
        """Inverse of :meth:`describe`: a fresh controller from its fields.

        *fields* is the :meth:`describe` dict without its ``type`` key.
        The default passes them to the constructor as keywords;
        subclasses whose description differs from their constructor
        override this.
        """
        return cls(**fields)

    def _emit(self, kind: str, **data) -> None:
        """Send one event to the bound sink (no-op when unbound).

        The step index is the 0-based engine step whose observation the
        controller just ingested.
        """
        if self._sink is not None:
            self._sink.emit(kind, step=max(len(self.trace.observations) - 1, 0), **data)

    def _note_decision(
        self, rule: str, windowed_r: float, m_old: int, m_new: int, **extra
    ) -> None:
        """Report one windowed update decision (event + rule counter).

        *rule* names the branch taken (``"B"``, ``"A"``, ``"hold"``,
        ``"increase"``, …); *extra* carries controller-specific inputs
        (thresholds, error terms, bracket state) so a trace explains the
        decision, not just its outcome.
        """
        self._emit(
            "decision",
            rule=rule,
            windowed_r=float(windowed_r),
            m_old=int(m_old),
            m_new=int(m_new),
            **extra,
        )
        if self._metrics is not None:
            self._metrics.counter(f"rule_{rule}").inc()

    def _clamped(self, value: float, m_min: int, m_max: int) -> int:
        """:func:`clamp` plus clamp-hit accounting and a ``clamp`` event."""
        m = clamp(value, m_min, m_max)
        if value < m_min or value > m_max:
            self.clamp_hits += 1
            bound = "low" if value < m_min else "high"
            self._emit("clamp", bound=bound, raw=float(value), m=m)
            if self._metrics is not None:
                self._metrics.counter(f"clamp_{bound}").inc()
        return m

    # -- subclass surface ------------------------------------------------
    @abc.abstractmethod
    def _next_m(self) -> int:
        """Current allocation decision (state-dependent, no side effects)."""

    def _ingest(self, r: float, launched: int) -> None:
        """Consume one observation; subclasses update their state here."""

    def _do_reset(self) -> None:
        """Subclass state reset (defaults to nothing extra)."""

    # -- engine-facing API -----------------------------------------------
    def propose(self) -> int:
        """The allocation ``m_t`` for the upcoming step."""
        m = int(self._next_m())
        if m < 1:
            raise ControllerError(f"{type(self).__name__} produced m={m} < 1")
        self.trace.proposals.append(m)
        self._awaiting_observation = True
        return m

    def observe(self, r: float, launched: int) -> None:
        """Report the realised conflict ratio of the step just executed."""
        if not self._awaiting_observation:
            raise ControllerError("observe() without a preceding propose()")
        if not 0.0 <= r <= 1.0:
            raise ControllerError(f"conflict ratio {r} outside [0, 1]")
        if launched < 0:
            raise ControllerError(f"launched count {launched} negative")
        self.trace.observations.append(float(r))
        self.trace.launched.append(int(launched))
        self._awaiting_observation = False
        metrics = self._metrics
        if metrics is not None:
            handles = self._observe_handles
            if handles is None:
                handles = self._observe_handles = (
                    metrics.counter("observations"),
                    metrics.histogram("r"),
                    metrics.gauge("m"),
                )
            observations, ratio, m = handles
            observations.inc()
            ratio.observe(r)
            m.set(self.trace.proposals[-1])
        self._ingest(float(r), int(launched))

    def reset(self) -> None:
        """Forget all history and return to the initial state."""
        self.trace = ControlTrace.empty()
        self._awaiting_observation = False
        self.clamp_hits = 0
        self._do_reset()
