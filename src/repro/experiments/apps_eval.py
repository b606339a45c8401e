"""APPS — the controller on real irregular applications (§2, §5).

The paper's conclusion promises evaluation "on more realistic workloads";
we run the hybrid controller against fixed allocations on the four real
applications (Delaunay refinement, Borůvka, greedy colouring, survey
propagation) and report, per configuration:

* makespan (temporal steps to drain the work-set),
* processor-steps consumed (Σ launched — energy proxy),
* wasted fraction (aborted / launched),
* mean realised conflict ratio.

Expected shape: small fixed m wastes little but is slow; large fixed m is
fast in steps but wastes heavily once parallelism decays; the hybrid stays
near the target waste ρ while approaching the makespan of the big fixed
allocations — "who wins" depends on which resource you price, which is
exactly the trade-off the ρ-targeting controller is designed to settle.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from repro.apps.boruvka import BoruvkaMST, random_weighted_graph
from repro.apps.coloring import GreedyColoring
from repro.apps.components import LabelPropagation
from repro.apps.delaunay import RefinementWorkload, random_input_mesh
from repro.apps.maxflow import PreflowPush, random_flow_network
from repro.apps.sp import SurveyPropagation, random_ksat
from repro.control.base import Controller
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.experiments.base import ExperimentResult
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run", "build_app"]


def build_app(name: str, scale: int, seed):
    """Construct application *name* at problem size *scale*."""
    if name == "delaunay":
        mesh = random_input_mesh(scale, seed=seed)
        return RefinementWorkload(mesh, min_angle=25.0, min_edge=0.02)
    if name == "boruvka":
        return BoruvkaMST(random_weighted_graph(scale, 8, seed=seed))
    if name == "coloring":
        return GreedyColoring(gnm_random(scale, 10, seed=seed))
    if name == "sp":
        inst = random_ksat(scale, 3 * scale, k=3, seed=seed)
        return SurveyPropagation(inst, seed=seed)
    if name == "maxflow":
        return PreflowPush(random_flow_network(scale, avg_out_degree=3.0, seed=seed))
    if name == "components":
        return LabelPropagation(gnm_random(scale, 4, seed=seed))
    raise ValueError(f"unknown application {name!r}")


_COLUMNS = ["controller", "steps", "committed", "proc-steps", "wasted", "r̄"]


def _measure(res) -> tuple:
    return (
        len(res),
        res.total_committed,
        res.processor_steps(),
        round(res.wasted_fraction, 4),
        round(res.mean_conflict_ratio, 4),
    )


def run(
    apps: tuple[str, ...] = (
        "delaunay",
        "boruvka",
        "coloring",
        "sp",
        "maxflow",
        "components",
    ),
    scale: int = 400,
    rho: float = 0.25,
    fixed_ms: tuple[int, ...] = (2, 16, 128),
    max_steps: int = 6000,
    seed=None,
    record_workload: "str | None" = None,
    replay_workload: "str | None" = None,
) -> ExperimentResult:
    """Hybrid vs fixed-m across the real applications.

    ``record_workload=`` names a directory: each application's *hybrid*
    run is recorded through a
    :class:`~repro.runtime.wktrace.WorkloadCapture` and saved there as
    ``<app>.wktrace`` for later replay.  ``replay_workload=`` names one
    recorded trace file: instead of building applications, every
    controller is evaluated over a fresh deterministic replay of that
    trace (the two options are mutually exclusive).
    """
    if record_workload is not None and replay_workload is not None:
        raise ValueError("pass record_workload= or replay_workload=, not both")
    rng = ensure_rng(seed)

    controllers: dict[str, Callable[[], Controller]] = {
        **{f"fixed-{m}": (lambda m=m: FixedController(m)) for m in fixed_ms},
        "hybrid": lambda: HybridController(rho),
    }

    if replay_workload is not None:
        from repro.runtime.wktrace import TraceReplayWorkload, WorkloadTrace

        trace = WorkloadTrace.load(replay_workload)
        result = ExperimentResult(
            name="APPS controller on a replayed workload trace",
            description=(
                f"Hybrid(ρ={rho:.0%}) vs fixed m on recorded trace "
                f"{trace.label!r} ({len(trace.commits)} commits)."
            ),
        )
        rows = []
        for ctrl_name, factory in controllers.items():
            (run_rng,) = spawn(rng, 1)
            workload = TraceReplayWorkload.from_trace(trace, path=replay_workload)
            engine = make_engine(workload, factory(), seed=run_rng)
            res = engine.run(max_steps=max_steps)
            rows.append((ctrl_name, *_measure(res)))
            result.scalars[f"trace_{ctrl_name}_steps"] = float(len(res))
            result.scalars[f"trace_{ctrl_name}_waste"] = res.wasted_fraction
        result.add_table(f"replayed trace '{trace.label}'", _COLUMNS, rows)
        result.add_note(
            "each controller ran a fresh deterministic replay of the same "
            "recorded morph sequence — differences are pure allocation policy."
        )
        return result

    result = ExperimentResult(
        name="APPS controller on real workloads",
        description=(
            f"Hybrid(ρ={rho:.0%}) vs fixed m on {', '.join(apps)} at scale {scale}."
        ),
    )
    for app_name in apps:
        rows = []
        for ctrl_name, factory in controllers.items():
            app_rng, run_rng = spawn(rng, 2)
            app = build_app(app_name, scale, app_rng)
            capture = None
            if record_workload is not None and ctrl_name == "hybrid":
                from repro.runtime.wktrace import WorkloadCapture

                app = capture = WorkloadCapture(app, label=app_name)
            engine = make_engine(app, factory(), seed=run_rng)
            res = engine.run(max_steps=max_steps)
            if capture is not None:
                out_dir = Path(record_workload)
                out_dir.mkdir(parents=True, exist_ok=True)
                out_path = out_dir / f"{app_name}.wktrace"
                capture.save(out_path)
                result.add_note(f"recorded {app_name} hybrid run to {out_path}")
            rows.append((ctrl_name, *_measure(res)))
            result.scalars[f"{app_name}_{ctrl_name}_steps"] = float(len(res))
            result.scalars[f"{app_name}_{ctrl_name}_waste"] = res.wasted_fraction
        result.add_table(f"application '{app_name}'", _COLUMNS, rows)
    result.add_note(
        "steps = makespan under unit task cost; proc-steps = Σ launched "
        "(energy proxy); wasted = aborted/launched."
    )
    return result
