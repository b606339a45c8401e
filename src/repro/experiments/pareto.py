"""PARETO — the §2.1 trade-off made explicit: ρ sweeps the frontier.

The paper frames processor allocation as a compromise: minimising
execution time alone always uses every processor (wasting speculative
work and power), minimising waste alone uses one processor (wasting
time).  The target conflict ratio ρ *is* the knob between those poles.
This experiment sweeps ρ on a draining workload and records, per run:

* **makespan** — temporal steps to finish all work;
* **energy** — Σ launched tasks over the run (each launched task burns a
  processor-step whether it commits or rolls back);
* **waste** — the aborted fraction of that energy.

Expected shape: makespan falls and waste climbs monotonically in ρ (up to
run-to-run noise); the ρ ∈ [20%, 30%] band recommended by Remark 1 sits
at the frontier's knee — most of the speed at a small multiple of the
minimal energy.
"""

from __future__ import annotations

import numpy as np

from repro.control.hybrid import HybridController
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run"]


def run(
    n: int = 4000,
    d: int = 16,
    rhos: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.45, 0.60),
    replications: int = 3,
    seed=None,
) -> ExperimentResult:
    """Sweep the target conflict ratio on a draining random CC graph."""
    if replications < 1:
        raise ExperimentError(f"need >= 1 replication, got {replications}")
    if not all(0.0 < r < 1.0 for r in rhos):
        raise ExperimentError(f"all targets must be in (0,1), got {rhos}")
    rng = ensure_rng(seed)
    base_graph = gnm_random(n, d, seed=rng)

    result = ExperimentResult(
        name="PARETO rho sweep",
        description=(
            f"Hybrid controller draining a gnm(n={n}, d={d}) CC graph at "
            f"targets ρ∈{list(rhos)} ({replications} replications each). "
            "Energy = Σ launched (processor-steps)."
        ),
    )
    rows = []
    makespans = []
    energies = []
    for rho in rhos:
        steps_acc, energy_acc, waste_acc = [], [], []
        for rep_rng in spawn(rng, replications):
            workload = ConsumingGraphWorkload(base_graph.copy())
            controller = HybridController(rho, m_max=2048)
            engine = make_engine(workload, controller, seed=rep_rng)
            res = engine.run(max_steps=10**6)
            if res.total_committed != n:
                raise ExperimentError(f"run at rho={rho} did not drain")
            steps_acc.append(len(res))
            energy_acc.append(res.processor_steps())
            waste_acc.append(res.wasted_fraction)
        makespan = float(np.mean(steps_acc))
        energy = float(np.mean(energy_acc))
        waste = float(np.mean(waste_acc))
        makespans.append(makespan)
        energies.append(energy)
        rows.append(
            (
                rho,
                round(makespan, 1),
                round(energy, 0),
                round(waste, 4),
                round(energy / n, 3),
            )
        )
        result.scalars[f"makespan_rho{rho:g}"] = makespan
        result.scalars[f"energy_rho{rho:g}"] = energy
        result.scalars[f"waste_rho{rho:g}"] = waste
    result.add_table(
        "frontier (means over replications)",
        ["rho", "makespan", "energy", "waste", "energy/task"],
        rows,
    )
    result.add_series("makespan vs rho", list(rhos), makespans)
    result.add_series("energy vs rho", list(rhos), energies)
    result.add_note(
        "Remark 1's ρ∈[20%,30%] band sits at the knee: most of the "
        "achievable speed at near-minimal energy."
    )
    return result
