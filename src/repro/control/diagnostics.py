"""Controller-run diagnostics: what did Algorithm 1 actually do?

Post-mortem analysis of a finished run — which update rule fired when,
how long each phase lasted, how the realised ratios distribute against
the target.  Useful both for debugging controller configurations and for
the ablation write-ups.

Works from the information the controller itself keeps — the
:class:`~repro.control.base.ControlTrace` and (for hybrids) the
``updates`` log of ``(step, rule, windowed r, new m)`` — or, via
:func:`diagnose_trace`, from a recorded :mod:`repro.obs` event trace,
which covers *any* controller type post hoc (including long-dead runs
reloaded from JSONL).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.hybrid import HybridController
from repro.errors import ControllerError, ObservabilityError

__all__ = [
    "RuleUsage",
    "HybridDiagnostics",
    "diagnose_hybrid",
    "SweepDiagnostics",
    "OrderDiagnostics",
    "TraceDiagnostics",
    "diagnose_trace",
]


@dataclass(frozen=True)
class RuleUsage:
    """How often one update rule fired, and when it was last used."""

    rule: str
    count: int
    first_step: int
    last_step: int


@dataclass(frozen=True)
class HybridDiagnostics:
    """Summary of one hybrid-controller run."""

    rule_usage: dict[str, RuleUsage]
    cold_start_steps: int
    windows: int
    mean_window_r: float
    final_m: int
    r_percentiles: tuple[float, float, float]  # 10/50/90 of per-step r

    def render(self) -> str:
        lines = ["hybrid controller diagnostics:"]
        lines.append(
            f"  windows: {self.windows}, cold start (last B-rule step): "
            f"{self.cold_start_steps}"
        )
        for usage in self.rule_usage.values():
            lines.append(
                f"  rule {usage.rule:>4}: {usage.count:4d} firings "
                f"(steps {usage.first_step}..{usage.last_step})"
            )
        p10, p50, p90 = self.r_percentiles
        lines.append(
            f"  per-step r: p10={p10:.3f} p50={p50:.3f} p90={p90:.3f}; "
            f"mean windowed r = {self.mean_window_r:.3f}"
        )
        lines.append(f"  final allocation: {self.final_m}")
        return "\n".join(lines)


def diagnose_hybrid(controller: HybridController) -> HybridDiagnostics:
    """Analyse a finished :class:`HybridController` run.

    *Cold start* is measured as the last step at which Recurrence B fired
    while the allocation was still rising — the paper's "initial phase".
    """
    if not isinstance(controller, HybridController):
        raise ControllerError(
            f"diagnose_hybrid needs a HybridController, got {type(controller).__name__}"
        )
    if not controller.updates:
        raise ControllerError("controller has made no updates yet")
    usage: dict[str, RuleUsage] = {}
    for step, rule, _avg, _m in controller.updates:
        if rule not in usage:
            usage[rule] = RuleUsage(rule=rule, count=1, first_step=step, last_step=step)
        else:
            prev = usage[rule]
            usage[rule] = RuleUsage(
                rule=rule,
                count=prev.count + 1,
                first_step=prev.first_step,
                last_step=step,
            )
    # cold start: last B firing within the initial monotone climb
    cold = 0
    prev_m = 0
    for step, rule, _avg, new_m in controller.updates:
        if rule == "B" and new_m >= prev_m:
            cold = step
        elif new_m < prev_m:
            break
        prev_m = new_m
    rs = controller.trace.r_trace
    window_rs = np.array([avg for _s, _r, avg, _m in controller.updates])
    percentiles = tuple(float(p) for p in np.percentile(rs, [10, 50, 90])) if rs.size else (0.0, 0.0, 0.0)
    return HybridDiagnostics(
        rule_usage=usage,
        cold_start_steps=int(cold),
        windows=len(controller.updates),
        mean_window_r=float(window_rs.mean()) if window_rs.size else 0.0,
        final_m=controller.current_m,
        r_percentiles=percentiles,  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# trace-based diagnostics (controller-type agnostic, works post hoc)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepDiagnostics:
    """Sweep-harness lifecycle summary extracted from ``sweep_*`` events.

    Traces recorded through :func:`repro.experiments.parallel.run_sweep`
    interleave these with engine/controller events; the counts here come
    from the recorded events alone, independent of any live sweep object.
    """

    sweeps: int
    configs: int
    attempts: int
    completed: int
    cached: int

    def render(self) -> str:
        return (
            f"  sweep: {self.sweeps} invocation(s), {self.configs} configs, "
            f"{self.attempts} attempts, {self.completed} completed "
            f"({self.cached} cached)"
        )


@dataclass(frozen=True)
class OrderDiagnostics:
    """Commit-order policy summary from ``order_decision`` and friends.

    Covers the two shapes an ``order_decision`` event takes — windowed
    draws from the relaxed/async policies (``window``/``draws`` fields)
    and sharded rounds (``shards``/per-shard ``launched``/``committed``
    lists) — plus the sharded policy's ``halo_exchange`` events.
    """

    policies: tuple[str, ...]
    decisions: int
    windowed_draws: int
    shard_rounds: int
    shards: int
    launched_by_shard: tuple[int, ...]
    committed_by_shard: tuple[int, ...]
    halo_exchanges: int
    halo_aborts: int

    def render(self) -> str:
        lines = [f"  order policies: {', '.join(self.policies) or 'none'}"]
        if self.windowed_draws:
            lines.append(
                f"  order decisions: {self.decisions} "
                f"({self.windowed_draws} windowed draws)"
            )
        if self.shard_rounds:
            per_shard = ", ".join(
                f"shard {i}: {l}/{c}"
                for i, (l, c) in enumerate(
                    zip(self.launched_by_shard, self.committed_by_shard)
                )
            )
            lines.append(
                f"  sharded rounds: {self.shard_rounds} across "
                f"{self.shards} shards (launched/committed — {per_shard})"
            )
            lines.append(
                f"  halo: {self.halo_exchanges} exchanges, "
                f"{self.halo_aborts} aborts"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceDiagnostics:
    """Summary of one recorded run segment (see :mod:`repro.obs`).

    ``sweep`` is populated when the segment interleaves sweep-harness
    lifecycle events with the engine/controller ones; ``None`` for a
    plain engine trace.  ``order`` is populated when the segment carries
    commit-order policy events (``order_decision``, ``halo_exchange``);
    ``None`` for plain unordered runs.
    """

    controller_type: str
    steps: int
    rule_usage: dict[str, RuleUsage]
    clamp_hits: int
    deadband_fraction: float  # fraction of decisions that held m unchanged
    mean_window_r: float
    final_m: int
    r_percentiles: tuple[float, float, float]
    sweep: "SweepDiagnostics | None" = None
    order: "OrderDiagnostics | None" = None

    def render(self) -> str:
        lines = [f"trace diagnostics ({self.controller_type}, {self.steps} steps):"]
        for usage in self.rule_usage.values():
            lines.append(
                f"  rule {usage.rule:>8}: {usage.count:4d} firings "
                f"(steps {usage.first_step}..{usage.last_step})"
            )
        p10, p50, p90 = self.r_percentiles
        lines.append(
            f"  per-step r: p10={p10:.3f} p50={p50:.3f} p90={p90:.3f}; "
            f"mean windowed r = {self.mean_window_r:.3f}"
        )
        lines.append(
            f"  clamp hits: {self.clamp_hits}; dead-band/hold decisions: "
            f"{self.deadband_fraction:.0%}"
        )
        lines.append(f"  final allocation: {self.final_m}")
        if self.order is not None:
            lines.append(self.order.render())
        if self.sweep is not None:
            lines.append(self.sweep.render())
        return "\n".join(lines)


def diagnose_trace(events) -> TraceDiagnostics:
    """Analyse one run segment of a recorded event trace.

    *events* is a list of :class:`repro.obs.TraceEvent` holding exactly
    one run (use :func:`repro.obs.split_runs` on a multi-run trace).
    Unlike :func:`diagnose_hybrid` this needs no live controller object —
    traces loaded from JSONL work — and it understands every controller
    type, since decision events are self-describing.

    Sweep-harness lifecycle events (``sweep_start``, ``sweep_task_*``,
    ``sweep_end``) interleaved in the same trace are summarised into the
    :attr:`TraceDiagnostics.sweep` field; a sweep-only trace (no
    ``run_start`` at all) yields a diagnostics object with zero engine
    steps rather than an error.  Commit-order events (``order_decision``,
    ``halo_exchange``) land in :attr:`TraceDiagnostics.order`.
    """
    # deferred: repro.obs's package __init__ transitively imports the
    # control package, so a top-level import here would close the cycle
    from repro.obs.events import (
        HALO_EXCHANGE,
        ORDER_DECISION,
        SWEEP_KINDS,
        SWEEP_START,
        SWEEP_TASK_COMPLETE,
        SWEEP_TASK_START,
    )

    controller_type = "unknown"
    usage: dict[str, RuleUsage] = {}
    clamp_hits = 0
    holds = 0
    decisions = 0
    window_rs: list[float] = []
    step_rs: list[float] = []
    final_m = 0
    saw_run = False
    sweeps = 0
    sweep_configs = 0
    sweep_attempts = 0
    sweep_completed = 0
    sweep_cached = 0
    saw_sweep = False
    saw_order = False
    order_policies: set[str] = set()
    order_decisions = 0
    windowed_draws = 0
    shard_rounds = 0
    order_shards = 0
    launched_by_shard: list[int] = []
    committed_by_shard: list[int] = []
    halo_exchanges = 0
    halo_aborts = 0

    def _tally(totals: "list[int]", counts) -> None:
        while len(totals) < len(counts):
            totals.append(0)
        for i, c in enumerate(counts):
            totals[i] += int(c)

    for event in events:
        if event.kind in SWEEP_KINDS:
            saw_sweep = True
            if event.kind == SWEEP_START:
                sweeps += 1
                sweep_configs += int(event.get("configs", 0))
            elif event.kind == SWEEP_TASK_START:
                sweep_attempts += 1
            elif event.kind == SWEEP_TASK_COMPLETE:
                sweep_completed += 1
                sweep_cached += int(bool(event.get("cached")))
            continue
        if event.kind in (ORDER_DECISION, HALO_EXCHANGE):
            saw_order = True
            if event.kind == ORDER_DECISION:
                order_decisions += 1
                order_policies.add(str(event.get("policy", "unknown")))
                if "draws" in event.data:  # relaxed/async windowed shape
                    windowed_draws += len(event.data["draws"])
                if "shards" in event.data:  # sharded two-phase shape
                    shard_rounds += 1
                    order_shards = max(order_shards, int(event.data["shards"]))
                    _tally(launched_by_shard, event.get("launched", ()))
                    _tally(committed_by_shard, event.get("committed", ()))
            else:
                halo_exchanges += 1
                halo_aborts += int(event.get("halo_aborts", 0))
            continue
        if event.kind == "run_start":
            if saw_run:
                raise ObservabilityError(
                    "diagnose_trace expects a single run segment; use "
                    "repro.obs.split_runs first"
                )
            saw_run = True
            config = event.get("controller") or {}
            controller_type = str(config.get("type", "unknown"))
        elif event.kind == "step":
            step_rs.append(float(event.data["conflict_ratio"]))
            final_m = int(event.data["requested"])
        elif event.kind == "clamp":
            clamp_hits += 1
        elif event.kind == "decision":
            decisions += 1
            rule = str(event.data["rule"])
            window_rs.append(float(event.data["windowed_r"]))
            if int(event.data["m_new"]) == int(event.data["m_old"]):
                holds += 1
            prev = usage.get(rule)
            if prev is None:
                usage[rule] = RuleUsage(
                    rule=rule, count=1, first_step=event.step, last_step=event.step
                )
            else:
                usage[rule] = RuleUsage(
                    rule=rule,
                    count=prev.count + 1,
                    first_step=prev.first_step,
                    last_step=event.step,
                )
    if not saw_run and not saw_sweep:
        raise ObservabilityError("trace segment has no run_start event")
    order_diag = None
    if saw_order:
        order_diag = OrderDiagnostics(
            policies=tuple(sorted(order_policies)),
            decisions=order_decisions,
            windowed_draws=windowed_draws,
            shard_rounds=shard_rounds,
            shards=order_shards,
            launched_by_shard=tuple(launched_by_shard),
            committed_by_shard=tuple(committed_by_shard),
            halo_exchanges=halo_exchanges,
            halo_aborts=halo_aborts,
        )
    sweep_diag = None
    if saw_sweep:
        sweep_diag = SweepDiagnostics(
            sweeps=sweeps,
            configs=sweep_configs,
            attempts=sweep_attempts,
            completed=sweep_completed,
            cached=sweep_cached,
        )
    rs = np.asarray(step_rs, dtype=float)
    percentiles = (
        tuple(float(p) for p in np.percentile(rs, [10, 50, 90]))
        if rs.size
        else (0.0, 0.0, 0.0)
    )
    return TraceDiagnostics(
        controller_type=controller_type,
        steps=len(step_rs),
        rule_usage=usage,
        clamp_hits=clamp_hits,
        deadband_fraction=holds / decisions if decisions else 0.0,
        mean_window_r=float(np.mean(window_rs)) if window_rs else 0.0,
        final_m=final_m,
        r_percentiles=percentiles,  # type: ignore[arg-type]
        sweep=sweep_diag,
        order=order_diag,
    )
