"""Controller evaluation and parameter sweeps (§4.1 and the ablations).

Metrics follow the paper's narrative for Fig. 3:

* **settling step** — how many temporal steps from the cold start
  ``m₀ = 2`` until the trajectory stays near the oracle target ``μ``
  (the paper reports ≈15 for the hybrid);
* **steady-state wobble** — relative dispersion of ``m_t`` after settling
  (the dead-band exists to keep this near zero, preserving locality);
* **tracking error** — mean ``|r_t − ρ|`` after settling.

Evaluation runs use the stationary :class:`ReplayGraphWorkload`, so the
oracle ``μ`` is well-defined for the whole run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.control.base import Controller
from repro.control.oracle import mu_from_curve
from repro.errors import ControllerError
from repro.graph.ccgraph import CCGraph
from repro.model.conflict_ratio import conflict_ratio_curve
from repro.runtime.engine import make_engine
from repro.runtime.stats import RunResult
from repro.runtime.workloads import ReplayGraphWorkload
from repro.utils.rng import ensure_rng, spawn

__all__ = ["ControllerMetrics", "oracle_mu", "evaluate_controller", "sweep_controllers"]


@dataclass(frozen=True)
class ControllerMetrics:
    """Outcome of one controller evaluation run."""

    mu: int
    settling_step: int
    steady_mean_m: float
    steady_std_m: float
    steady_mean_r: float
    tracking_error: float
    steps: int
    churn: float = 0.0  # mean |Δm| per step (locality cost proxy)

    @property
    def settled(self) -> bool:
        """Whether the trajectory ever settled inside the band."""
        return self.settling_step < self.steps

    @property
    def wobble(self) -> float:
        """Relative steady-state dispersion of the allocation."""
        return self.steady_std_m / self.steady_mean_m if self.steady_mean_m else 0.0


def oracle_mu(graph: CCGraph, rho: float, reps: int = 100, seed=None) -> int:
    """Monte-Carlo estimate of ``μ = max{m : r̄(m) ≤ ρ}`` for *graph*.

    Clique unions have it exactly: :func:`~repro.model.mu_disjoint_cliques`.
    """
    n = graph.num_nodes
    if n < 2:
        raise ControllerError(f"need at least 2 nodes, got {n}")
    ms = np.unique(np.geomspace(1, n, 24).astype(int))
    curve = conflict_ratio_curve(graph, ms, reps=reps, seed=seed)
    return mu_from_curve(curve, rho)


def evaluate_controller(
    controller: Controller,
    graph: CCGraph,
    rho: float,
    steps: int = 200,
    band: float = 0.3,
    mu: int | None = None,
    seed=None,
) -> tuple[ControllerMetrics, RunResult]:
    """Run *controller* on the stationary replay workload and score it.

    The CC graph is copied so repeated evaluations are independent.  *mu*
    may be supplied to avoid recomputing the oracle target across a sweep.
    """
    rng = ensure_rng(seed)
    mu_rng, run_rng = spawn(rng, 2)
    if mu is None:
        mu = oracle_mu(graph, rho, seed=mu_rng)
    workload = ReplayGraphWorkload(graph.copy())
    engine = make_engine(workload, controller, seed=run_rng)
    result = engine.run(max_steps=steps)
    settle = result.settling_step(mu, band=band)
    ms = result.m_trace
    rs = result.r_trace
    if settle < len(result):
        steady_m = ms[settle:]
        steady_r = rs[settle:]
    else:  # never settled: score the tail half so the metrics stay finite
        steady_m = ms[len(ms) // 2 :]
        steady_r = rs[len(rs) // 2 :]
    return (
        ControllerMetrics(
            mu=int(mu),
            settling_step=int(settle),
            steady_mean_m=float(steady_m.mean()),
            steady_std_m=float(steady_m.std()),
            steady_mean_r=float(steady_r.mean()),
            tracking_error=float(np.abs(steady_r - rho).mean()),
            steps=len(result),
            churn=result.allocation_churn(),
        ),
        result,
    )


def sweep_controllers(
    factories: dict[str, Callable[[], Controller]],
    graph: CCGraph,
    rho: float,
    steps: int = 200,
    replications: int = 5,
    band: float = 0.3,
    seed=None,
) -> dict[str, list[ControllerMetrics]]:
    """Evaluate several controller configurations on one graph.

    Each named factory is called once per replication (controllers are
    stateful); all configurations face the same per-replication RNG stream
    offsets for a paired comparison.
    """
    if replications < 1:
        raise ControllerError(f"need >= 1 replication, got {replications}")
    rng = ensure_rng(seed)
    mu = oracle_mu(graph, rho, seed=rng)
    rep_rngs = spawn(rng, replications)
    out: dict[str, list[ControllerMetrics]] = {name: [] for name in factories}
    for rep_rng in rep_rngs:
        streams = spawn(rep_rng, len(factories))
        for (name, factory), stream in zip(factories.items(), streams):
            metrics, _ = evaluate_controller(
                factory(), graph, rho, steps=steps, band=band, mu=mu, seed=stream
            )
            out[name].append(metrics)
    return out


def summarize_sweep(
    results: dict[str, list[ControllerMetrics]]
) -> list[tuple[str, float, float, float, float]]:
    """Aggregate sweep output into ``(name, settle, wobble, r̄, |r−ρ|)`` rows."""
    rows = []
    for name, metrics in results.items():
        rows.append(
            (
                name,
                float(np.mean([m.settling_step for m in metrics])),
                float(np.mean([m.wobble for m in metrics])),
                float(np.mean([m.steady_mean_r for m in metrics])),
                float(np.mean([m.tracking_error for m in metrics])),
            )
        )
    return rows
