"""Step-overhead benchmark gate for the relaxed commit order.

Relaxation buys a lower conflict ratio (second case below, and the
curves in ``experiments/relaxation.py``), but it must not buy it with
scheduling overhead: the windowed draw is one vectorised
:func:`~repro.runtime.kernels.sample_window_draws` call plus a sliding
window over a bounded staging buffer in
:meth:`~repro.runtime.policies.PriorityWorkset.take_window`.

Measuring that overhead end-to-end needs *matched work*: on a graph
workload strict order abort-cascades behind the horizon barrier
(committing almost nothing per step) while relaxation commits large
batches and pays their apply work — more time per step because more
tasks *succeed*, which is the policy's purpose, not its overhead.  The
gate therefore clocks a conflict-free draining task loop where both
policies commit every launched task and the steps are identical except
for the draw itself: the ``relaxed:8`` median step must stay within
:data:`GATE_MAX_OVERHEAD` of the strict ordered median.

The second case records the other side of the trade on a graph replay
workload (gnm_random(2000, d=8), m=500): per-phase means from the
engine's own :class:`~repro.obs.SpanProfiler` and the fixed-m conflict
ratios, gating only the *semantic* claim that relaxation cuts the abort
rate.  Everything lands in ``BENCH_relaxed.json`` at the repo root.
"""

import json
import statistics
import time
from pathlib import Path

from repro.config import RunConfig
from repro.control.fixed import FixedController
from repro.graph.generators import gnm_random
from repro.obs import SpanProfiler
from repro.registry import ORDER_POLICIES, WORKLOADS, order_family, parse_order_spec
from repro.runtime.core import Engine
from repro.runtime.policies import PriorityWorkset
from repro.runtime.task import CallbackOperator, Task

#: ceiling: median relaxed step time / median ordered step time on
#: matched work (identical commit counts, only the draw differs)
GATE_MAX_OVERHEAD = 1.2
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_relaxed.json"

DEPTH = 8
ENGINE_SEED = 3

# matched-work case: a draining loop of self-conflicting-only tasks
LOOP_TASKS, LOOP_M, LOOP_STEPS = 40_000, 500, 80

# graph case: the BENCH_steps replay topology at a smaller scale
GRAPH_N, GRAPH_D, GRAPH_M, GRAPH_STEPS, GRAPH_SEED = 2000, 8, 500, 80, 17

PHASES = ("select", "resolve", "commit")


def _order_policy(order: str, *, conflict_policy=None):
    name, kwargs = parse_order_spec(order)
    if order_family(name) == "priority":
        kwargs["priority_of"] = lambda task: float(task.payload)
    return ORDER_POLICIES.create(name, conflict_policy=conflict_policy, **kwargs)


def _loop_case(order: str):
    """Clock a draining conflict-free task loop; returns (times, steps)."""
    workset = PriorityWorkset()
    for i in range(LOOP_TASKS):
        workset.add(Task(payload=i), float(i))
    operator = CallbackOperator(
        neighborhood=lambda t: [t.payload],  # self-conflict only
        apply=lambda t: [],  # drain: no new work, no horizon pathology
    )
    engine = Engine(
        workset=workset,
        operator=operator,
        controller=FixedController(LOOP_M),
        order=_order_policy(order),
        seed=ENGINE_SEED,
    )
    times = []
    for _ in range(LOOP_STEPS):
        t0 = time.perf_counter()
        engine.step()
        times.append(time.perf_counter() - t0)
    return times, [s.as_dict() for s in engine.result.steps]


def _best_median(order: str, repeats: int = 3):
    """Least-noise estimate: the best median over *repeats* full runs.

    The runs are seeded identically, so repeats are byte-for-byte the
    same computation and taking the minimum median only discards
    scheduler noise, never real work.
    """
    best, steps = float("inf"), None
    for _ in range(repeats):
        times, run_steps = _loop_case(order)
        assert steps is None or run_steps == steps  # repeats are identical
        steps = run_steps
        best = min(best, statistics.median(times))
    return best, steps


def test_relaxed_step_overhead_gate():
    """relaxed:8 costs <= 1.2x an ordered step doing identical work."""
    med_ordered, ordered_steps = _best_median("ordered")
    med_relaxed, relaxed_steps = _best_median(f"relaxed:{DEPTH}")

    # matched work: every launched task commits in both runs
    assert all(s["committed"] == LOOP_M for s in ordered_steps)
    assert all(s["committed"] == LOOP_M for s in relaxed_steps)

    overhead = med_relaxed / med_ordered

    BENCH_JSON.write_text(
        json.dumps(
            {
                "matched_work_case": {
                    "tasks": LOOP_TASKS,
                    "m": LOOP_M,
                    "steps": LOOP_STEPS,
                    "workload": "draining task loop, self-conflicts only",
                    "depth": DEPTH,
                    "ordered_median_step_seconds": med_ordered,
                    "relaxed_median_step_seconds": med_relaxed,
                    "overhead_vs_ordered": overhead,
                    "gate_max_overhead": GATE_MAX_OVERHEAD,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    assert overhead <= GATE_MAX_OVERHEAD, (
        f"relaxed draw regressed: {overhead:.2f}x > {GATE_MAX_OVERHEAD}x "
        f"(ordered {med_ordered * 1e3:.3f} ms/step, "
        f"relaxed {med_relaxed * 1e3:.3f} ms/step)"
    )


def _graph_case(order: str):
    """Profiled graph replay run; returns (phase means, step stats)."""
    config = RunConfig(workload="replay", controller="fixed", m=GRAPH_M, order=order)
    workload = WORKLOADS.create(
        "replay", gnm_random(GRAPH_N, GRAPH_D, seed=GRAPH_SEED), config
    )
    profiler = SpanProfiler()
    engine = Engine(
        workset=workload.workset,
        operator=workload.operator,
        controller=FixedController(GRAPH_M),
        order=_order_policy(order, conflict_policy=workload.policy),
        seed=ENGINE_SEED,
        profiler=profiler,
    )
    result = engine.run(max_steps=GRAPH_STEPS)
    stats = profiler.stats()
    means = {phase: stats[f"step/{phase}"].mean_ns for phase in PHASES}
    means["step"] = stats["step"].mean_ns
    return means, [s.as_dict() for s in result.steps]


def test_relaxed_conflict_benefit_record():
    """On a real graph, relaxation must cut the abort rate; phases recorded."""
    ordered_means, ordered_steps = _graph_case("ordered")
    relaxed_means, relaxed_steps = _graph_case(f"relaxed:{DEPTH}")

    def ratio(steps):
        return statistics.fmean(s["conflict_ratio"] for s in steps)

    ratio_ordered, ratio_relaxed = ratio(ordered_steps), ratio(relaxed_steps)

    payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    payload["graph_case"] = {
        "graph": "gnm_random",
        "n": GRAPH_N,
        "d": GRAPH_D,
        "m": GRAPH_M,
        "steps": GRAPH_STEPS,
        "workload": "replay",
        "depth": DEPTH,
        "ordered_phase_mean_ns": ordered_means,
        "relaxed_phase_mean_ns": relaxed_means,
        "ordered_mean_conflict_ratio": ratio_ordered,
        "relaxed_mean_conflict_ratio": ratio_relaxed,
        "ordered_committed_total": sum(s["committed"] for s in ordered_steps),
        "relaxed_committed_total": sum(s["committed"] for s in relaxed_steps),
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    # the semantic claim behind the whole feature: fewer aborts per step
    assert ratio_relaxed < ratio_ordered
