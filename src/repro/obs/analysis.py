"""Analysis over the three observability channels.

Three consumers, one per channel:

* :func:`profile_report` — critical-path and overhead attribution from a
  :class:`~repro.obs.spans.SpanProfiler`: per-phase share of the step
  wall-clock, unattributed self-time, and the phase coverage fraction
  (how much of each step the instrumented phases explain — the
  acceptance gate wants ≥95%).
* :func:`convergence_report` — controller dynamics from a recorded
  trace: settling time into the ``|r̄ − ρ| ≤ ε`` band, steady-state
  tracking error, and decision/clamp counts.  Pure function of the
  events, so golden traces give bit-stable reports.
* :class:`SweepProgress` — a periodic one-line live status for running
  sweeps (done/total, EWMA attempt latency, ETA),
  with injectable clock and sink so tests never sleep.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.events import (
    CLAMP,
    DECISION,
    RUN_START,
    STEP,
    SWEEP_TASK_COMPLETE,
    TraceEvent,
)
from repro.obs.spans import SpanProfiler

__all__ = [
    "PhaseBreakdown",
    "ProfileReport",
    "profile_report",
    "ConvergenceReport",
    "convergence_report",
    "SweepProgress",
]


# ----------------------------------------------------------------------
# span-based profiling report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseBreakdown:
    """One direct child phase of the profiled root span."""

    name: str
    count: int
    total_ns: int
    share: float  # fraction of the root's total


@dataclass(frozen=True)
class ProfileReport:
    """Where the step wall-clock went, per the span profiler."""

    root: str
    steps: int
    wall_ns: int
    phases: tuple[PhaseBreakdown, ...]  # sorted by total desc
    self_ns: int  # root time not inside any direct child

    @property
    def coverage(self) -> float:
        """Fraction of root wall-clock attributed to the phases."""
        if not self.wall_ns:
            return 0.0
        return sum(p.total_ns for p in self.phases) / self.wall_ns

    @property
    def critical_phase(self) -> "str | None":
        """The phase eating the most time — where optimisation pays."""
        return self.phases[0].name if self.phases else None

    def render(self) -> str:
        lines = [
            f"profile: {self.steps}x {self.root}, "
            f"wall={self.wall_ns / 1e6:.3f}ms, "
            f"phase coverage {self.coverage:.1%}"
        ]
        for p in self.phases:
            lines.append(
                f"  {p.name}: {p.count}x total={p.total_ns / 1e6:.3f}ms "
                f"({p.share:.1%})"
            )
        lines.append(f"  (self): total={self.self_ns / 1e6:.3f}ms")
        return "\n".join(lines)


def profile_report(profiler: SpanProfiler, root: str = "step") -> ProfileReport:
    """Attribute the *root* span's wall-clock to its direct children.

    Deeper descendants (e.g. ``step/resolve/kernel.*``) are already
    counted inside their parent phase and are not double-counted here.
    """
    if not isinstance(profiler, SpanProfiler):
        raise ObservabilityError(
            f"profile_report needs a SpanProfiler, got {type(profiler).__name__}"
        )
    root_key = tuple(root.split("/"))
    stats = profiler._stats  # read-only walk over the aggregate table
    root_stat = stats.get(root_key)
    if root_stat is None:
        raise ObservabilityError(
            f"no {root!r} spans recorded — was the profiler active during the run?"
        )
    depth = len(root_key) + 1
    children = [
        (path[-1], stat)
        for path, stat in stats.items()
        if len(path) == depth and path[:-1] == root_key
    ]
    children.sort(key=lambda item: (-item[1].total_ns, item[0]))
    wall = root_stat.total_ns
    phases = tuple(
        PhaseBreakdown(
            name=name,
            count=stat.count,
            total_ns=stat.total_ns,
            share=stat.total_ns / wall if wall else 0.0,
        )
        for name, stat in children
    )
    return ProfileReport(
        root=root,
        steps=root_stat.count,
        wall_ns=wall,
        phases=phases,
        self_ns=wall - sum(p.total_ns for p in phases),
    )


# ----------------------------------------------------------------------
# controller convergence report from trace events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvergenceReport:
    """Controller tracking quality extracted from one recorded run.

    ``settling_step`` is the earliest step from which the windowed
    conflict ratio stays inside the ``|r̄ − ρ| ≤ ε`` band for the rest
    of the run (``None`` if it never settles); ``tracking_error`` is the
    RMS of ``r̄ − ρ`` over the settled suffix (over the final half of
    the run when unsettled, so a diverging controller still reports a
    number instead of nothing).
    """

    rho: float
    epsilon: float
    window: int
    steps: int
    settling_step: "int | None"
    tracking_error: float
    decisions: int
    decisions_by_rule: dict[str, int] = field(default_factory=dict)
    clamps: int = 0

    @property
    def settled(self) -> bool:
        return self.settling_step is not None

    def render(self) -> str:
        settle = (
            f"settled at step {self.settling_step}"
            if self.settled
            else "never settled"
        )
        rules = ", ".join(
            f"{rule}={count}"
            for rule, count in sorted(self.decisions_by_rule.items())
        )
        return (
            f"convergence: rho={self.rho:g} eps={self.epsilon:g} "
            f"window={self.window} steps={self.steps}\n"
            f"  {settle} (|r̄-rho| <= {self.epsilon:g} band)\n"
            f"  steady-state tracking error (RMS): {self.tracking_error:.4f}\n"
            f"  decisions: {self.decisions} ({rules or 'none'}), "
            f"clamps: {self.clamps}"
        )


def convergence_report(
    events: "list[TraceEvent]",
    *,
    rho: "float | None" = None,
    epsilon: float = 0.05,
    window: int = 8,
) -> ConvergenceReport:
    """Build a :class:`ConvergenceReport` from one run's trace events.

    ``r̄_t`` is the launch-weighted conflict ratio over the trailing
    *window* steps (total aborts / total launches), the same windowed
    statistic the paper's controller reasons about.  ``rho`` defaults to
    the target recorded in the run's ``run_start`` controller config.
    """
    if window < 1:
        raise ObservabilityError(f"window must be >= 1, got {window}")
    if epsilon <= 0:
        raise ObservabilityError(f"epsilon must be > 0, got {epsilon}")
    steps: list[TraceEvent] = []
    decisions_by_rule: dict[str, int] = {}
    clamps = 0
    seen_run_start = False
    for event in events:
        if event.kind == RUN_START:
            if seen_run_start:
                break  # report covers the first recorded run only
            seen_run_start = True
            if rho is None:
                controller = event.get("controller") or {}
                rho = controller.get("rho")
        elif event.kind == STEP:
            steps.append(event)
        elif event.kind == DECISION:
            rule = str(event.get("rule", "unknown"))
            decisions_by_rule[rule] = decisions_by_rule.get(rule, 0) + 1
        elif event.kind == CLAMP:
            clamps += 1
    if rho is None:
        raise ObservabilityError(
            "no rho target: trace has no run_start controller config "
            "with a 'rho' field and none was passed explicitly"
        )
    rho = float(rho)
    if not steps:
        raise ObservabilityError("trace contains no step events")

    aborted = [int(e.get("aborted", 0)) for e in steps]
    launched = [int(e.get("launched", 0)) for e in steps]
    n = len(steps)
    r_bar: list[float] = []
    for t in range(n):
        lo = max(0, t - window + 1)
        launches = sum(launched[lo : t + 1])
        r_bar.append(sum(aborted[lo : t + 1]) / launches if launches else 0.0)

    in_band = [abs(r - rho) <= epsilon for r in r_bar]
    settling_step = None
    # earliest suffix start where the trajectory never leaves the band
    for t in range(n - 1, -1, -1):
        if in_band[t]:
            settling_step = t
        else:
            break
    if settling_step is not None:
        settling_step = int(steps[settling_step].step)
        tail = [r for e, r in zip(steps, r_bar) if e.step >= settling_step]
    else:
        tail = r_bar[n // 2 :]
    tracking_error = math.sqrt(
        sum((r - rho) ** 2 for r in tail) / len(tail)
    )
    return ConvergenceReport(
        rho=rho,
        epsilon=epsilon,
        window=window,
        steps=n,
        settling_step=settling_step,
        tracking_error=tracking_error,
        decisions=sum(decisions_by_rule.values()),
        decisions_by_rule=decisions_by_rule,
        clamps=clamps,
    )


# ----------------------------------------------------------------------
# live sweep monitor
# ----------------------------------------------------------------------
class SweepProgress:
    """Periodic one-line status for a running sweep.

    Feed it the sweep's lifecycle events (:meth:`on_event`) and attempt
    latencies (:meth:`note_attempt_seconds`); it rate-limits itself to
    one line per *interval* seconds on *sink*.  Clock and sink are
    injectable so tests drive it deterministically without sleeping.
    """

    #: EWMA smoothing factor for attempt latency
    ALPHA = 0.3

    def __init__(
        self,
        total: int,
        *,
        jobs: int = 1,
        interval: float = 5.0,
        sink=None,
        clock=None,
    ) -> None:
        if total < 0:
            raise ObservabilityError(f"total must be >= 0, got {total}")
        if interval < 0:
            raise ObservabilityError(f"interval must be >= 0, got {interval}")
        self.total = int(total)
        self.jobs = max(1, int(jobs))
        self.interval = float(interval)
        self._sink = sink if sink is not None else _stderr_sink
        self._clock = clock if clock is not None else time.monotonic
        self.completed = 0
        self.ewma_attempt_seconds: "float | None" = None
        self._last_emit: "float | None" = None

    # -- feeding -------------------------------------------------------
    def on_event(self, kind: str, data: "dict | None" = None) -> None:
        """Count one sweep lifecycle event (unknown kinds are ignored)."""
        if kind == SWEEP_TASK_COMPLETE:
            self.completed += 1

    def note_attempt_seconds(self, seconds: float) -> None:
        seconds = float(seconds)
        if self.ewma_attempt_seconds is None:
            self.ewma_attempt_seconds = seconds
        else:
            self.ewma_attempt_seconds = (
                self.ALPHA * seconds + (1.0 - self.ALPHA) * self.ewma_attempt_seconds
            )

    # -- reporting -----------------------------------------------------
    @property
    def remaining(self) -> int:
        return max(0, self.total - self.completed)

    def eta_seconds(self) -> "float | None":
        """Remaining wall-clock estimate: EWMA latency × remaining / jobs."""
        if self.ewma_attempt_seconds is None or self.remaining == 0:
            return None
        return self.ewma_attempt_seconds * self.remaining / self.jobs

    def status_line(self) -> str:
        parts = [f"sweep: {self.completed}/{self.total} done"]
        if self.ewma_attempt_seconds is not None:
            parts.append(f"attempt EWMA {self.ewma_attempt_seconds:.2f}s")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)

    def maybe_emit(self, force: bool = False) -> "str | None":
        """Emit a status line if *interval* elapsed (or *force*)."""
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.interval
        ):
            return None
        self._last_emit = now
        line = self.status_line()
        self._sink(line)
        return line


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)
