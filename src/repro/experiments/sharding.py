"""SHARD — per-shard vs global allocation control over the sharded order.

The sharded commit order (:class:`~repro.runtime.policies.ShardedCommitOrder`)
resolves each batch in two phases: a per-shard greedy over intra-shard
edges, then a halo exchange that settles cut-edge conflicts in batch
order.  That split exposes a *new control question* the paper's global
recurrence never faces: should one §4 controller target the aggregate
conflict ratio, or should each shard run its own controller over its own
(launched, committed) counts — the per-shard statistics the order policy
publishes every round?

This experiment answers it on one fixed CC graph:

* the **global leg** runs the plain ρ-targeting hybrid controller over
  ``sharded:k`` for each shard count — the aggregate ``r̄`` it sees
  already folds in halo aborts, so it pays for cut-edge pressure with a
  globally smaller ``m``;
* the **per-shard leg** runs :class:`PerShardController` — one hybrid
  instance per shard, each fed its shard's realised conflict ratio from
  :attr:`~repro.runtime.policies.ShardedCommitOrder.last_shard_stats`,
  with the global proposal being the sum of the shard proposals (each
  sub-controller gets an equal slice of the ``m_max`` budget);
* both legs report committed/aborted work, halo-abort counts, mean
  allocation and mean conflict ratio per shard count.

Both legs are recorded and pushed through
:func:`repro.obs.verify_trace`.  The per-shard controller consumes
runtime-side shard statistics during the live run, but those statistics
are themselves trace events (``order_decision`` carries per-shard
launched/committed every round), so replay re-sources them from the
segment via :meth:`PerShardController.bind_replay_segment` — every row
in the table is a replayable measurement.
"""

from __future__ import annotations

from collections import deque

from repro.config import RunConfig
from repro.control.base import Controller
from repro.control.hybrid import HybridController
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.graph import gnm_random
from repro.obs import (
    HALO_EXCHANGE,
    ORDER_DECISION,
    TraceRecorder,
    active_recorder,
    controller_from_config,
    split_runs,
    verify_trace,
)
from repro.registry import WORKLOADS
from repro.runtime.engine import make_engine
from repro.runtime.policies import ShardedCommitOrder
from repro.utils.rng import ensure_rng

__all__ = ["PerShardController", "run"]


class PerShardController(Controller):
    """One §4 hybrid controller per shard, summed into a global proposal.

    ``subs[s]`` owns shard *s*: each step its proposal joins the global
    sum, and after the step it observes shard *s*'s realised conflict
    ratio ``1 - committed_s / launched_s`` (taken from the order
    policy's :attr:`last_shard_stats`).  Shards that launched nothing
    observe ``r = 0`` — an idle shard has no conflict evidence, and the
    hybrid's windowing absorbs the occasional empty round.  When the
    policy publishes no shard statistics (the one-shard degenerate
    case), every sub-controller observes the aggregate ratio instead.

    During replay there is no live order policy, but the statistics the
    live run consumed are in the trace: :meth:`bind_replay_segment`
    queues the segment's ``order_decision`` payloads and ``_ingest``
    drains them in step order, reproducing the exact observation stream.
    """

    def __init__(
        self, subs: "list[Controller]", order: "ShardedCommitOrder | None"
    ):
        super().__init__()
        if order is not None and len(subs) != order.shards:
            raise ExperimentError(
                f"{len(subs)} sub-controllers for {order.shards} shards"
            )
        self.subs = list(subs)
        self.order = order
        self._replay_stats: "deque | None" = None

    def describe(self) -> dict:
        base = super().describe()
        base["shards"] = len(self.subs)
        base["sub"] = self.subs[0].describe()
        return base

    @classmethod
    def from_description(cls, fields: dict) -> "PerShardController":
        # replay has no live order policy: bind_replay_segment supplies
        # the shard statistics instead
        subs = [controller_from_config(fields["sub"]) for _ in range(fields["shards"])]
        return cls(subs, None)

    def bind_replay_segment(self, events) -> None:
        """Re-source shard statistics from a recorded run segment."""
        self._replay_stats = deque(
            {"launched": ev.data["launched"], "committed": ev.data["committed"]}
            for ev in events
            if ev.kind == ORDER_DECISION
        )

    def _next_m(self) -> int:
        return sum(sub.propose() for sub in self.subs)

    def _ingest(self, r: float, launched: int) -> None:
        if self._replay_stats is not None:
            # one order_decision per resolved round; an empty queue means
            # the policy never published shard stats (one-shard case)
            stats = self._replay_stats.popleft() if self._replay_stats else None
        else:
            stats = self.order.last_shard_stats
        if stats is None:
            for sub in self.subs:
                sub.observe(r, launched)
            return
        for sub, shot, got in zip(
            self.subs, stats["launched"], stats["committed"]
        ):
            r_s = 1.0 - got / shot if shot > 0 else 0.0
            sub.observe(r_s, shot)

    def _do_reset(self) -> None:
        for sub in self.subs:
            sub.reset()
        if self._replay_stats is not None:
            self._replay_stats = deque()


def _halo_aborts(events) -> int:
    return sum(
        int(ev.data.get("halo_aborts", 0))
        for ev in events
        if ev.kind == HALO_EXCHANGE
    )


def _commit_rate_skew(events) -> float:
    """Max − min cumulative per-shard commit rate over one run's events.

    Computed from the recorded ``order_decision`` per-shard stats, so
    the experiment reads it off any replayable trace.
    """
    launched: "list[int]" = []
    committed: "list[int]" = []
    for ev in events:
        per_launched = ev.data.get("launched")
        if ev.kind != ORDER_DECISION or not isinstance(per_launched, list):
            continue
        per_committed = ev.data.get("committed", [])
        if len(launched) < len(per_launched):
            grow = len(per_launched) - len(launched)
            launched.extend([0] * grow)
            committed.extend([0] * grow)
        for shard, count in enumerate(per_launched):
            launched[shard] += int(count)
        for shard, count in enumerate(per_committed):
            committed[shard] += int(count)
    rates = [c / l for c, l in zip(committed, launched) if l]
    return max(rates) - min(rates) if rates else 0.0


def run(
    n: int = 600,
    d: int = 10,
    shard_counts: "tuple[int, ...]" = (1, 2, 4, 8),
    rho: float = 0.30,
    m_max: int = 64,
    max_steps: int = 120,
    seed=None,
) -> ExperimentResult:
    """Global vs per-shard ρ-targeting control across shard counts."""
    rng = ensure_rng(seed)
    graph_seed = int(rng.integers(0, 2**31 - 1))
    run_seed = int(rng.integers(0, 2**31 - 1))

    result = ExperimentResult(
        name="SHARD per-shard vs global control",
        description=(
            f"G(n,m) CC graph, n={n}, mean degree {d}, replay workload, "
            f"{max_steps} steps per run; shard counts {list(shard_counts)}. "
            "All runs replay-verified (both legs)."
        ),
    )

    recorder = active_recorder()
    if recorder is None:  # truthiness won't do: an idle recorder is empty
        recorder = TraceRecorder()
    first_event = len(recorder.events)

    def fresh_graph():
        # every run mutates nothing (replay workload), but the partition
        # caches a CSR snapshot — a fresh graph per run keeps the legs
        # strictly independent
        return gnm_random(n, d, seed=graph_seed)

    # -- global leg: one hybrid over the aggregate ratio ----------------
    rows = []
    global_committed: "list[float]" = []
    start = len(recorder.events)
    for k in shard_counts:
        config = RunConfig(
            workload="replay",
            rho=rho,
            m_max=m_max,
            order=f"sharded:{k}",
            max_steps=max_steps,
        )
        from repro.api import run as api_run

        res = api_run(config, graph=fresh_graph(), seed=run_seed, recorder=recorder)
        halo = _halo_aborts(recorder.events[start:])
        skew = _commit_rate_skew(recorder.events[start:])
        start = len(recorder.events)
        rows.append(
            (
                "global",
                k,
                res.total_committed,
                res.total_aborted,
                halo,
                round(skew, 3),
                round(float(res.m_trace.mean()), 2),
                round(res.mean_conflict_ratio, 4),
            )
        )
        result.scalars[f"committed_global_{k}"] = float(res.total_committed)
        result.scalars[f"ratio_global_{k}"] = res.mean_conflict_ratio
        result.scalars[f"skew_global_{k}"] = skew
        global_committed.append(float(res.total_committed))

    # -- per-shard leg: one hybrid per shard, summed --------------------
    pershard_committed: "list[float]" = []
    for k in shard_counts:
        config = RunConfig(workload="replay", max_steps=max_steps)
        workload = WORKLOADS.create("replay", fresh_graph(), config)
        order = ShardedCommitOrder(workload.policy, shards=k)
        subs = [
            HybridController(rho, m_max=max(2, m_max // k)) for _ in range(k)
        ]
        controller = PerShardController(subs, order)
        start = len(recorder.events)
        engine = make_engine(
            workload, controller, order=order, seed=run_seed, recorder=recorder
        )
        res = engine.run(max_steps=max_steps)
        halo = _halo_aborts(recorder.events[start:])
        skew = _commit_rate_skew(recorder.events[start:])
        rows.append(
            (
                "per-shard",
                k,
                res.total_committed,
                res.total_aborted,
                halo,
                round(skew, 3),
                round(float(res.m_trace.mean()), 2),
                round(res.mean_conflict_ratio, 4),
            )
        )
        result.scalars[f"committed_pershard_{k}"] = float(res.total_committed)
        result.scalars[f"ratio_pershard_{k}"] = res.mean_conflict_ratio
        result.scalars[f"skew_pershard_{k}"] = skew
        pershard_committed.append(float(res.total_committed))

    result.add_table(
        f"throughput vs shard count (rho={rho:g}, m_max={m_max})",
        ["mode", "shards", "committed", "aborted", "halo aborts", "rate skew", "mean m", "r̄"],
        rows,
    )
    xs = [float(k) for k in shard_counts]
    result.add_series("committed vs shards (global)", xs, global_committed)
    result.add_series("committed vs shards (per-shard)", xs, pershard_committed)

    # -- replay gate: every row is a replayable measurement -------------
    own_events = recorder.events[first_event:]
    reports = verify_trace(own_events)
    runs = split_runs(own_events)
    expected = 2 * len(shard_counts)
    if len(reports) != len(runs) or len(runs) != expected:
        raise ExperimentError(
            f"expected {expected} replay-verified runs, got {len(reports)}"
        )
    result.scalars["replay_verified_runs"] = float(len(reports))
    result.add_note(
        "Halo aborts grow with the cut as shards multiply, and the global "
        "controller pays for them with a uniformly smaller allocation. "
        "Per-shard control re-spends that budget where conflicts are "
        "cheap: shards with slack run hotter while contended shards back "
        "off on their own evidence. Both legs are replay-verified: the "
        "per-shard controller's observations are re-sourced from the "
        "recorded order_decision events, so the trace is the complete "
        "observation record for every run."
    )
    return result
