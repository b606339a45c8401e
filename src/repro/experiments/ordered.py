"""ORD — ordered algorithms (the §5 future work, explored).

The paper stops at unordered algorithms and names discrete-event
simulation as the open case.  This experiment runs the controller on a
PDES queueing network under the ordered engine and quantifies how the
chronological-commit constraint changes the picture:

* the **speedup curve saturates hard**: beyond a modest ``m`` extra
  processors produce only aborts (conflict + order violations), unlike
  the unordered curve of Fig. 2 where ``EM_m`` keeps growing;
* the split between **conflict aborts** and **order aborts** shows a new
  waste channel that no unordered conflict ratio accounts for;
* the ρ-targeting hybrid still stabilises (it only needs monotone
  ``r̄(m)``), landing at the knee of the saturation curve.

Every run is checked against the sequential oracle — the committed event
history must be bit-identical regardless of allocation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.des import DiscreteEventSimulation, QueueingNetwork, sequential_history
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.runtime.engine import make_engine
from repro.utils.rng import ensure_rng

__all__ = ["run"]


def run(
    num_stations: int = 40,
    num_jobs: int = 60,
    end_time: float = 40.0,
    rho: float = 0.30,
    fixed_ms: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    seed=None,
) -> ExperimentResult:
    """Saturation sweep + hybrid run on the ordered PDES workload."""
    rng = ensure_rng(seed)
    net_seed = int(rng.integers(0, 2**31 - 1))
    sim_seed = int(rng.integers(0, 2**31 - 1))
    network = QueueingNetwork(num_stations, avg_degree=3.0, seed=net_seed)
    reference = sequential_history(network, num_jobs, end_time, seed=sim_seed)
    if not reference:
        raise ExperimentError("oracle produced no events; increase end_time")

    result = ExperimentResult(
        name="ORD ordered algorithms (future work)",
        description=(
            f"PDES queueing network: {num_stations} stations, {num_jobs} jobs, "
            f"horizon {end_time}; {len(reference)} events. Chronological commits "
            "enforced via barrier/horizon rollback."
        ),
    )

    rows = []
    speedups = []
    for m in fixed_ms:
        sim = DiscreteEventSimulation(network, num_jobs, end_time, seed=sim_seed)
        engine = make_engine(sim, FixedController(m), seed=int(rng.integers(0, 2**31 - 1)))
        res = engine.run(max_steps=10**7)
        if sim.history != reference:
            raise ExperimentError(f"history diverged from the oracle at m={m}")
        speedup = len(reference) / len(res)
        speedups.append(speedup)
        rows.append(
            (
                m,
                len(res),
                round(speedup, 3),
                engine.order.conflict_aborts_total,
                engine.order.order_aborts_total,
                round(res.mean_conflict_ratio, 4),
            )
        )
        result.scalars[f"speedup_m{m}"] = speedup
    result.add_table(
        "saturation sweep (fixed allocations)",
        ["m", "steps", "speedup", "conflict aborts", "order aborts", "r̄"],
        rows,
    )
    result.add_series("speedup vs m", [float(m) for m in fixed_ms], speedups)

    sim = DiscreteEventSimulation(network, num_jobs, end_time, seed=sim_seed)
    engine = make_engine(
        sim, HybridController(rho), seed=int(rng.integers(0, 2**31 - 1))
    )
    res = engine.run(max_steps=10**7)
    if sim.history != reference:
        raise ExperimentError("hybrid history diverged from the oracle")
    result.add_table(
        "hybrid controller on the ordered workload",
        ["metric", "value"],
        [
            ("target rho", rho),
            ("steps", len(res)),
            ("speedup", round(len(reference) / len(res), 3)),
            ("mean m", round(float(res.m_trace.mean()), 2)),
            ("mean r", round(res.mean_conflict_ratio, 4)),
            ("conflict aborts", engine.order.conflict_aborts_total),
            ("order aborts", engine.order.order_aborts_total),
        ],
    )
    result.scalars["hybrid_speedup"] = len(reference) / len(res)
    result.scalars["hybrid_mean_m"] = float(res.m_trace.mean())
    result.scalars["max_speedup"] = float(np.max(speedups))
    result.add_note(
        "Ordered parallelism saturates: the speedup curve flattens while "
        "aborts keep climbing — the §5 open problem made quantitative."
    )
    return result
