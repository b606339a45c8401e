"""Deterministic fault injection for the sweep execution layer.

A :class:`FaultPlan` is a pure, JSON-serialisable description of the
failures a sweep should suffer — which lets the *same* plan drive a unit
test, cross a process boundary into a sweep worker, or arrive from the
command line via ``--inject-faults``.  Plans are stateless: every spec
matches on ``(experiment, attempt)`` where *attempt* is the config's
cumulative failure count, so firing behaviour is a pure function of the
sweep's history and never of wall-clock or call ordering.

Fault kinds:

``raise``
    Raise :class:`~repro.errors.InjectedFault` inside the worker before
    the experiment runs (a deterministic "transient" failure).
``hang``
    Sleep ``seconds`` inside the worker — long enough to trip the
    sweep's per-attempt timeout.
``exit``
    ``os._exit(exit_code)`` — the worker vanishes without reporting,
    bypassing all ``except``/``finally`` machinery.
``kill``
    ``SIGKILL`` the worker's own process — the hardest crash available;
    indistinguishable from the OOM killer from the parent's side.
``corrupt-cache``
    Parent-side: after the matching config's result is stored, truncate
    its on-disk cache entry, exercising the corrupt-entry recovery path
    on the next sweep.

``hang``, ``exit`` and ``kill`` require process isolation (the sweep
harness refuses to run them inline — they would take the test process
down with them); ``raise`` and ``corrupt-cache`` work everywhere.

The compact spec DSL used by the CLI is ``kind[:experiment[:attempts]]``
with ``;`` between specs, ``*`` as a wildcard, and ``,`` between attempt
indices::

    --inject-faults "exit:fig3:0;raise:*:0,1"

kills the first-ever ``fig3`` attempt and raises on every config's first
two attempts.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import FaultInjectionError, InjectedFault

__all__ = ["FaultSpec", "FaultPlan", "WORKER_KINDS", "PARENT_KINDS"]

#: kinds executed inside a worker attempt
WORKER_KINDS = frozenset({"raise", "hang", "exit", "kill"})
#: kinds executed by the sweep driver itself
PARENT_KINDS = frozenset({"corrupt-cache"})
#: kinds that must not run in the sweep driver's own process
ISOLATION_KINDS = frozenset({"hang", "exit", "kill"})

_ALL_KINDS = WORKER_KINDS | PARENT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One injectable failure, matched on ``(experiment, attempt)``.

    ``experiment=None`` matches every config; ``attempts=None`` matches
    every attempt, otherwise only the listed cumulative-failure indices
    (attempt 0 is the first attempt a config ever makes, across resumes).
    """

    kind: str
    experiment: "str | None" = None
    attempts: "tuple[int, ...] | None" = (0,)
    seconds: float = 3600.0
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(_ALL_KINDS)}"
            )
        if self.attempts is not None and any(a < 0 for a in self.attempts):
            raise FaultInjectionError(f"attempt indices must be >= 0: {self.attempts}")
        if self.seconds <= 0:
            raise FaultInjectionError(f"hang duration must be > 0, got {self.seconds}")

    def matches(self, experiment: str, attempt: int) -> bool:
        if self.experiment is not None and self.experiment != experiment:
            return False
        return self.attempts is None or attempt in self.attempts

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "experiment": self.experiment,
            "attempts": None if self.attempts is None else list(self.attempts),
            "seconds": self.seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        try:
            attempts = payload.get("attempts", (0,))
            return cls(
                kind=str(payload["kind"]),
                experiment=payload.get("experiment"),
                attempts=None if attempts is None else tuple(int(a) for a in attempts),
                seconds=float(payload.get("seconds", 3600.0)),
                exit_code=int(payload.get("exit_code", 13)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultInjectionError(f"malformed fault spec: {payload!r}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` records."""

    specs: "tuple[FaultSpec, ...]" = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultInjectionError(
                    f"FaultPlan takes FaultSpec entries, got {type(spec).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def needs_isolation(self) -> bool:
        """Whether any spec would take the driver process down if inline."""
        return any(spec.kind in ISOLATION_KINDS for spec in self.specs)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def fire(self, experiment: str, attempt: int) -> None:
        """Execute every matching worker-side fault (in spec order).

        Called at the top of a worker attempt.  ``raise`` raises,
        ``hang`` sleeps then *returns* (so an un-timed-out hang still
        completes), ``exit``/``kill`` never return.
        """
        for spec in self.specs:
            if spec.kind not in WORKER_KINDS or not spec.matches(experiment, attempt):
                continue
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault: raise on {experiment} attempt {attempt}"
                )
            if spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "exit":
                os._exit(spec.exit_code)
            elif spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)

    def corrupts_cache(self, experiment: str, attempt: int) -> bool:
        """Whether a ``corrupt-cache`` spec matches this completed attempt."""
        return any(
            spec.kind == "corrupt-cache" and spec.matches(experiment, attempt)
            for spec in self.specs
        )

    @staticmethod
    def corrupt_cache_entry(path: "str | Path") -> None:
        """Truncate a cache entry to half its bytes (a torn write)."""
        p = Path(path)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict) or "specs" not in payload:
            raise FaultInjectionError(f"malformed fault plan: {payload!r}")
        return cls(tuple(FaultSpec.from_dict(s) for s in payload["specs"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(f"fault plan is not valid JSON: {exc}") from exc

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI DSL ``kind[:experiment[:attempts]][;...]``.

        A leading ``{`` switches to JSON (the :meth:`to_json` form), so
        scripted callers can pass full-fidelity plans through the same
        flag.
        """
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            return cls.from_json(text)
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) > 3:
                raise FaultInjectionError(
                    f"fault spec {chunk!r} has too many ':' fields "
                    "(want kind[:experiment[:attempts]])"
                )
            kind = parts[0].strip()
            experiment: "str | None" = None
            attempts: "tuple[int, ...] | None" = (0,)
            if len(parts) >= 2 and parts[1].strip() not in ("", "*"):
                experiment = parts[1].strip()
            if len(parts) == 3:
                raw = parts[2].strip()
                if raw == "*":
                    attempts = None
                else:
                    try:
                        attempts = tuple(int(a) for a in raw.split(",") if a.strip())
                    except ValueError as exc:
                        raise FaultInjectionError(
                            f"bad attempt list in fault spec {chunk!r}"
                        ) from exc
            specs.append(FaultSpec(kind=kind, experiment=experiment, attempts=attempts))
        return cls(tuple(specs))

    def describe(self) -> str:
        """Human-readable one-liner for logs and sweep reports."""
        if not self.specs:
            return "no faults"
        parts = []
        for spec in self.specs:
            exp = spec.experiment or "*"
            att = "*" if spec.attempts is None else ",".join(map(str, spec.attempts))
            parts.append(f"{spec.kind}:{exp}:{att}")
        return ";".join(parts)
