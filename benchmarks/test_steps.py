"""End-to-end step benchmark gate for the incremental selection backend.

``BENCH_obs.json`` attributed ~73% of step wall-clock to ``select``: the
kernels had won ``resolve``/``commit``, but every step still paid a
per-task Python loop of scalar RNG draws.  The incremental work-set
(:class:`~repro.runtime.active_set.ActiveSet`, every workload's default)
batches the draws through one vectorised kernel call.

This gate runs the BENCH_obs case (gnm_random(5000, d=8), m=2500, 120
replay steps) three ways — ``reference_paths()`` + ``RandomWorkset``,
default resolution + ``RandomWorkset``, and the default path — checks
the three step-stat sequences are *identical* (bit-parity is the
precondition for comparing their clocks), writes per-phase medians to
``BENCH_steps.json`` at the repo root, and fails if the end-to-end median
step speedup of the incremental backend over the full reference path
drops below :data:`GATE_MIN_STEP_SPEEDUP`.

A second, ungated case runs a morphing (regenerating) workload on both
work-sets and checks that the engine never builds a CSR view of a
graph that changes every step: such a view would be rebuilt for every
single use, so those steps resolve with the per-task walk.  The workload's
own commit is O(log n + d) (it keeps its survivor list instead of scanning
``graph.nodes()`` per commit), so the two medians it records differ by
what the selection backend costs on a morphing graph — ungated: the
number is the finding, there is no floor to hold it to.
"""

import json
import statistics
import time
from pathlib import Path

from repro.control.fixed import FixedController
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.workloads import RegeneratingGraphWorkload, ReplayGraphWorkload
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths

#: end-to-end floor: median reference step time / median incremental step
#: time on the BENCH_obs case; the select rework targets >= 5x
GATE_MIN_STEP_SPEEDUP = 5.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_steps.json"

GATE_N, GATE_D, GATE_M, GATE_STEPS = 5000, 8, 2500, 120
GRAPH_SEED, ENGINE_SEED = 17, 3

MORPH_N, MORPH_D, MORPH_M, MORPH_STEPS = 2000, 8, 500, 60


def _replay_case(oracle_workset: bool):
    graph = gnm_random(GATE_N, GATE_D, seed=GRAPH_SEED)
    workload = ReplayGraphWorkload(
        graph, workset=RandomWorkset() if oracle_workset else None
    )
    engine = make_engine(workload, FixedController(GATE_M), seed=ENGINE_SEED)
    times = []
    for _ in range(GATE_STEPS):
        t0 = time.perf_counter()
        engine.step()
        times.append(time.perf_counter() - t0)
    return times, [s.as_dict() for s in engine.result.steps]


def _best_median(oracle_workset: bool, repeats: int = 2):
    """Least-noise estimate: the best median over *repeats* full runs.

    The runs are seeded identically, so repeats are byte-for-byte the
    same computation and taking the minimum median only discards
    scheduler noise, never real work.
    """
    best, steps = float("inf"), None
    for _ in range(repeats):
        times, run_steps = _replay_case(oracle_workset)
        assert steps is None or run_steps == steps  # repeats are identical
        steps = run_steps
        best = min(best, statistics.median(times))
    return best, steps


def test_step_speedup_gate():
    """incremental >= 5x reference per median step; bit-parity enforced."""
    with reference_paths():
        med_ref, ref_steps = _best_median(oracle_workset=True)
    med_fast, fast_steps = _best_median(oracle_workset=True)
    med_inc, inc_steps = _best_median(oracle_workset=False)

    # bit-parity precondition: all three paths ran the same computation
    assert fast_steps == ref_steps
    assert inc_steps == ref_steps

    speedup = med_ref / med_inc

    BENCH_JSON.write_text(
        json.dumps(
            {
                "case": {
                    "graph": "gnm_random",
                    "n": GATE_N,
                    "d": GATE_D,
                    "m": GATE_M,
                    "steps": GATE_STEPS,
                    "workload": "replay",
                },
                "reference_median_step_seconds": med_ref,
                "fast_median_step_seconds": med_fast,
                "incremental_median_step_seconds": med_inc,
                "speedup_vs_reference": speedup,
                "speedup_vs_fast": med_fast / med_inc,
                "gate_min_speedup": GATE_MIN_STEP_SPEEDUP,
                "committed_total": sum(s["committed"] for s in ref_steps),
                "aborted_total": sum(s["aborted"] for s in ref_steps),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    assert speedup >= GATE_MIN_STEP_SPEEDUP, (
        f"incremental select regressed: {speedup:.2f}x < {GATE_MIN_STEP_SPEEDUP}x "
        f"(ref {med_ref * 1e3:.3f} ms/step, incremental {med_inc * 1e3:.3f} ms/step)"
    )


def test_morphing_workload_builds_no_csr():
    """On a graph that morphs every step the engine walks; no CSR."""

    def run(workset):
        graph = gnm_random(MORPH_N, MORPH_D, seed=GRAPH_SEED)
        workload = RegeneratingGraphWorkload(
            graph, target_degree=MORPH_D, seed=7, workset=workset
        )
        engine = make_engine(workload, FixedController(MORPH_M), seed=ENGINE_SEED)
        times = []
        for _ in range(MORPH_STEPS):
            t0 = time.perf_counter()
            engine.step()
            times.append(time.perf_counter() - t0)
        return times, [s.as_dict() for s in engine.result.steps], graph

    ref_times, ref_steps, _ = run(RandomWorkset())
    inc_times, inc_steps, graph = run(None)
    assert inc_steps == ref_steps  # backend invisible on morphing graphs too

    # any mutation invalidates a snapshot, so one built here would have
    # served a single step: the policy must not have asked for any
    assert graph._csr is None

    payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    payload["morphing_case"] = {
        "graph": "gnm_random",
        "n": MORPH_N,
        "d": MORPH_D,
        "m": MORPH_M,
        "steps": MORPH_STEPS,
        "workload": "regenerating",
        "workset_median_step_seconds": statistics.median(ref_times),
        "incremental_median_step_seconds": statistics.median(inc_times),
        "speedup": statistics.median(ref_times) / statistics.median(inc_times),
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
