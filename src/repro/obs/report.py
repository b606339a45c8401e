"""One report over a recorded run: what the controller did and why.

:func:`run_report` makes one pass over one run segment of a trace (use
:func:`repro.obs.split_runs` on a multi-run trace) and returns a
:class:`RunReport`:

* the controller — type, rule usage with first/last firing step, clamp
  hits, the share of decisions that held ``m``, the final allocation and
  the cold-start step (the last Recurrence-B firing of the initial climb);
* the signal Algorithm 1 steers — per-step ``r`` percentiles, the mean
  windowed ``r`` of the controller's decisions, and against the recorded
  ρ target the settling step into the ``|r̄ − ρ| ≤ ε`` band and the RMS
  tracking error, where ``r̄_t`` is the launch-weighted conflict ratio
  over the trailing *window* steps;
* what the commit order recorded — windowed draws of the relaxed/async
  orders, per-shard launched/committed counts and halo exchanges of the
  sharded one — and the workload capture/replay provenance;
* given a :class:`~repro.obs.spans.SpanProfiler`, the time of each
  direct phase of the ``step`` span and how much of it the phases cover.

The report is a pure function of its inputs, so golden traces give
bit-stable reports.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.events import (
    CLAMP,
    DECISION,
    HALO_EXCHANGE,
    ORDER_DECISION,
    RUN_START,
    STEP,
    WORKLOAD_CAPTURE,
    WORKLOAD_REPLAY,
    TraceEvent,
)
from repro.obs.spans import SpanProfiler

__all__ = ["RunReport", "run_report"]


@dataclass(frozen=True)
class RunReport:
    """Summary of one recorded run segment and/or one span profile.

    ``controller`` is ``None`` for a profile-only report.  ``rules`` maps
    each decision rule to ``(firings, first step, last step)``.
    ``settling_step`` is the earliest step from which ``r̄`` stays in the
    band for the rest of the run (``None`` if it never settles);
    ``tracking_error`` is the RMS of ``r̄ − ρ`` over that suffix, or over
    the final half of the run when unsettled.  Both are ``None`` when the
    controller records no ``rho``.  ``phases`` holds ``(name, count,
    total_ns)`` per direct child of the ``step`` span, largest first.
    """

    controller: "str | None"
    policy: str
    steps: int
    final_m: int
    r_percentiles: tuple[float, float, float]
    rules: "dict[str, tuple[int, int, int]]"
    decisions: int
    holds: int
    mean_window_r: float
    clamps: int
    cold_start: "int | None"
    rho: "float | None"
    epsilon: float
    window: int
    settling_step: "int | None"
    tracking_error: "float | None"
    order_decisions: int
    windowed_draws: int
    shard_launched: tuple[int, ...]
    shard_committed: tuple[int, ...]
    halo_exchanges: int
    halo_aborts: int
    workloads: tuple[TraceEvent, ...]
    profiled_steps: int
    step_ns: int
    phases: tuple[tuple[str, int, int], ...]

    @property
    def hold_fraction(self) -> float:
        return self.holds / self.decisions if self.decisions else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of the ``step`` wall-clock the phases explain."""
        if not self.step_ns:
            return 0.0
        return sum(total for _, _, total in self.phases) / self.step_ns

    @property
    def critical_phase(self) -> "str | None":
        """The phase eating the most time — where optimisation pays."""
        return self.phases[0][0] if self.phases else None

    def render(self) -> str:
        """The report as text; commit-order, provenance and profile
        sections appear only when the run recorded them."""
        lines = []
        if self.controller is not None:
            lines += self._render_run()
        if self.phases or self.profiled_steps:
            lines.append(
                f"profile: {self.profiled_steps}x step, "
                f"wall={self.step_ns / 1e6:.3f}ms, "
                f"phase coverage {self.coverage:.1%}"
            )
            for name, count, total in self.phases:
                share = total / self.step_ns if self.step_ns else 0.0
                lines.append(
                    f"  {name}: {count}x total={total / 1e6:.3f}ms ({share:.1%})"
                )
            attributed = sum(total for _, _, total in self.phases)
            lines.append(f"  (self): total={(self.step_ns - attributed) / 1e6:.3f}ms")
        return "\n".join(lines)

    def _render_run(self) -> "list[str]":
        lines = [f"run report ({self.controller}, {self.policy}, {self.steps} steps):"]
        for rule, (count, first, last) in self.rules.items():
            lines.append(f"  rule {rule:>8}: {count:4d} firings (steps {first}..{last})")
        p10, p50, p90 = self.r_percentiles
        lines.append(
            f"  per-step r: p10={p10:.3f} p50={p50:.3f} p90={p90:.3f}; "
            f"mean windowed r = {self.mean_window_r:.3f}"
        )
        lines.append(
            f"  clamp hits: {self.clamps}; dead-band/hold decisions: "
            f"{self.hold_fraction:.0%}"
        )
        cold = "" if self.cold_start is None else f"; cold start ends at step {self.cold_start}"
        lines.append(f"  final allocation: {self.final_m}{cold}")
        if self.tracking_error is not None:
            settle = (
                "never settled"
                if self.settling_step is None
                else f"settled at step {self.settling_step}"
            )
            lines.append(
                f"  tracking rho={self.rho:g} (|r̄-rho| <= {self.epsilon:g}, "
                f"window={self.window}): {settle}, RMS {self.tracking_error:.4f}"
            )
        if self.windowed_draws:
            lines.append(
                f"  order decisions: {self.order_decisions} "
                f"({self.windowed_draws} windowed draws)"
            )
        if self.shard_launched:
            per_shard = ", ".join(
                f"shard {i}: {launched}/{committed}"
                for i, (launched, committed) in enumerate(
                    zip(self.shard_launched, self.shard_committed)
                )
            )
            lines.append(f"  shards (launched/committed): {per_shard}")
            lines.append(
                f"  halo: {self.halo_exchanges} exchanges, {self.halo_aborts} aborts"
            )
        for event in self.workloads:
            direction = "capture" if event.kind == WORKLOAD_CAPTURE else "replay"
            lines.append(
                f"  workload {direction}: {event.get('path')} "
                f"({event.get('label')}, {event.get('tasks')} tasks, "
                f"{event.get('commits')} commits, "
                f"fingerprint {str(event.get('fingerprint'))[:12]})"
            )
        return lines


def _tally(totals: "list[int]", counts) -> None:
    totals.extend([0] * (len(counts) - len(totals)))
    for i, count in enumerate(counts):
        totals[i] += int(count)


def _phases(profiler: SpanProfiler) -> "tuple[int, int, tuple[tuple[str, int, int], ...]]":
    """``(steps, wall ns, phases)`` of the profiler's ``step`` span."""
    if not isinstance(profiler, SpanProfiler):
        raise ObservabilityError(
            f"the run report needs a SpanProfiler, got {type(profiler).__name__}"
        )
    stats = profiler._stats  # read-only walk over the aggregate table
    root = stats.get(("step",))
    if root is None:
        raise ObservabilityError(
            "no 'step' spans recorded — was the profiler active during the run?"
        )
    # deeper spans (step/resolve/kernel.*) are inside their phase already
    phases = [
        (path[1], stat.count, stat.total_ns)
        for path, stat in stats.items()
        if len(path) == 2 and path[0] == "step"
    ]
    phases.sort(key=lambda phase: (-phase[2], phase[0]))
    return root.count, root.total_ns, tuple(phases)


def run_report(
    events: "list[TraceEvent]" = (),
    profiler: "SpanProfiler | None" = None,
    *,
    epsilon: float = 0.05,
    window: int = 8,
) -> RunReport:
    """Report on one run segment of *events* and/or one span *profiler*.

    *events* must hold at most one ``run_start`` (raises otherwise); with
    no events at all the report covers the profiler alone.  ρ is the
    target recorded in the ``run_start`` controller description.
    """
    if window < 1:
        raise ObservabilityError(f"window must be >= 1, got {window}")
    if epsilon <= 0:
        raise ObservabilityError(f"epsilon must be > 0, got {epsilon}")
    controller = None
    policy = "unknown"
    rho = None
    rules: "dict[str, tuple[int, int, int]]" = {}
    holds = clamps = 0
    window_rs: "list[float]" = []
    climb_m = 0
    climbing = True
    cold_start = None
    step_numbers: "list[int]" = []
    step_rs: "list[float]" = []
    r_bars: "list[float]" = []
    recent: "deque[tuple[int, int]]" = deque(maxlen=window)
    final_m = 0
    order_decisions = windowed_draws = halo_exchanges = halo_aborts = 0
    shard_launched: "list[int]" = []
    shard_committed: "list[int]" = []
    workloads: "list[TraceEvent]" = []
    for event in events:
        kind = event.kind
        if kind == STEP:
            data = event.data
            step_numbers.append(event.step)
            step_rs.append(float(data["conflict_ratio"]))
            final_m = int(data["requested"])
            recent.append((int(data["launched"]), int(data["aborted"])))
            launches = sum(launched for launched, _ in recent)
            aborts = sum(aborted for _, aborted in recent)
            r_bars.append(aborts / launches if launches else 0.0)
        elif kind == DECISION:
            rule = str(event.data["rule"])
            m_old, m_new = int(event.data["m_old"]), int(event.data["m_new"])
            window_rs.append(float(event.data["windowed_r"]))
            holds += m_new == m_old
            count, first, _ = rules.get(rule, (0, event.step, 0))
            rules[rule] = (count + 1, first, event.step)
            # cold start: the last B firing while m is still climbing
            climbing = climbing and m_new >= climb_m
            if climbing:
                if rule == "B":
                    cold_start = event.step
                climb_m = m_new
        elif kind == CLAMP:
            clamps += 1
        elif kind == ORDER_DECISION:
            order_decisions += 1
            windowed_draws += len(event.data.get("draws", ()))
            _tally(shard_launched, event.data.get("launched", ()))
            _tally(shard_committed, event.data.get("committed", ()))
        elif kind == HALO_EXCHANGE:
            halo_exchanges += 1
            halo_aborts += int(event.data.get("halo_aborts", 0))
        elif kind in (WORKLOAD_CAPTURE, WORKLOAD_REPLAY):
            workloads.append(event)
        elif kind == RUN_START:
            if controller is not None:
                raise ObservabilityError(
                    "the run report reads a single run segment; use "
                    "repro.obs.split_runs first"
                )
            described = event.get("controller") or {}
            controller = str(described.get("type", "unknown"))
            rho = None if described.get("rho") is None else float(described["rho"])
            policy = str(event.get("policy", "unknown"))
    if controller is None and (events or profiler is None):
        raise ObservabilityError("trace segment has no run_start event")

    settling_step = tracking_error = None
    if rho is not None and r_bars:
        last_out = max(
            (t for t, r in enumerate(r_bars) if abs(r - rho) > epsilon), default=-1
        )
        if last_out + 1 < len(r_bars):
            settling_step = step_numbers[last_out + 1]
            tail = r_bars[last_out + 1 :]
        else:
            tail = r_bars[len(r_bars) // 2 :]
        tracking_error = math.sqrt(sum((r - rho) ** 2 for r in tail) / len(tail))
    percentiles = (
        tuple(float(p) for p in np.percentile(step_rs, [10, 50, 90]))
        if step_rs
        else (0.0, 0.0, 0.0)
    )
    profiled_steps, step_ns, phases = (
        _phases(profiler) if profiler is not None else (0, 0, ())
    )
    return RunReport(
        controller=controller,
        policy=policy,
        steps=len(step_rs),
        final_m=final_m,
        r_percentiles=percentiles,  # type: ignore[arg-type]
        rules=rules,
        decisions=len(window_rs),
        holds=holds,
        mean_window_r=float(np.mean(window_rs)) if window_rs else 0.0,
        clamps=clamps,
        cold_start=cold_start,
        rho=rho,
        epsilon=epsilon,
        window=window,
        settling_step=settling_step,
        tracking_error=tracking_error,
        order_decisions=order_decisions,
        windowed_draws=windowed_draws,
        shard_launched=tuple(shard_launched),
        shard_committed=tuple(shard_committed),
        halo_exchanges=halo_exchanges,
        halo_aborts=halo_aborts,
        workloads=tuple(workloads),
        profiled_steps=profiled_steps,
        step_ns=step_ns,
        phases=phases,
    )
