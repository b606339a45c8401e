#!/usr/bin/env python
"""Tracking abrupt changes in available parallelism (§4.1).

LonESTAR-style profiles show irregular applications swinging from no
parallelism to ~1000 parallel tasks within ~30 steps.  This example
replays a Delaunay-style burst and a step profile and shows the hybrid
controller re-tracking each phase's optimum within a few windows, while a
Recurrence-A-only controller lags far behind.

The two contenders are resolved by *name* through the plugin registry:
``"recurrence-a"`` is built in, and the Fig. 3 hybrid variant is
registered here with :func:`repro.register` — the same one-liner a
third-party package would use to plug its own controller into
``repro.api.run`` and the experiments CLI.

Run:  python examples/adaptive_allocation.py [seed]
"""

import sys

import repro
from repro.apps.profiles import (
    ScheduledReplayWorkload,
    delaunay_burst_profile,
    step_profile,
)
from repro.experiments.adaptation import transition_lags
from repro.experiments.fig3 import default_hybrid
from repro.model.turan import mu_disjoint_cliques
from repro.runtime.engine import make_engine
from repro.utils import format_series, format_table

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0
RHO = 0.20

# plug the Fig. 3 hybrid into the controller registry: factories receive
# the RunConfig and build from its fields
repro.register("controller", "fig3-hybrid", lambda config: default_hybrid(config.rho))

CONTROLLERS = repro.registry("controller")


def run_profile(name, phases):
    print(f"--- profile: {name} ---")
    config = repro.RunConfig(rho=RHO, seed=SEED + 1)
    mus = [mu_disjoint_cliques(p.sizes, RHO) for p in phases]
    rows = []
    for label, controller_name in [
        ("hybrid", "fig3-hybrid"),
        ("recurrence A only", "recurrence-a"),
    ]:
        controller = CONTROLLERS.create(controller_name, config)
        workload = ScheduledReplayWorkload(phases)
        engine = make_engine(
            workload, controller, seed=config.seed, step_hook=workload.advance
        )
        result = engine.run(max_steps=workload.total_steps())
        lags = transition_lags(phases, result.m_trace, mus)
        rows.append((label, " ".join(map(str, lags))))
        print(
            format_series(
                f"{label}: m_t (phase optima {mus})",
                list(range(len(result))),
                result.m_trace.tolist(),
            )
        )
        print()
    print(format_table(["controller", "re-tracking lag per phase (steps)"], rows))
    print()


def main() -> None:
    run_profile("step 4 -> 250 -> 4", step_profile(4, 250, 2000, steps_per_phase=50))
    run_profile(
        "delaunay burst (0 -> 500 in ~30 steps)",
        delaunay_burst_profile(peak=500, total_tasks=2000),
    )


if __name__ == "__main__":
    main()
