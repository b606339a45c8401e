#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the default ``repro.run()`` path.

One workload per process::

    python3 benchmarks/e2e/run.py --workload replay_static --seed 1 --seconds 12 --trace 0

prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` (tracing off), the per-layer metrics with ``--trace 1``
(spans recorded from outside, see tracer.py, plus the probes of
probes.py).  Every run is checked (workloads.check_result); the exit code
is non-zero when any check failed.  Closed loop, one client, one process
(the pool workload adds its own two workers).

Tooling on top (suite.py): ``--suite OUT.json``, ``--compare A.json
B.json``, ``--aa`` and ``--selftest``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# the benchmark measures the default path: flipping or deleting these
# switches later must show up as an ordinary change, not an environment leak
for _var in ("REPRO_ENGINE", "REPRO_SELECT"):
    os.environ.pop(_var, None)

#: child that times exactly the program imports the harness needs
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def import_seconds(runs: int) -> float:
    """Median ``import repro`` (+ builders) time over fresh interpreters."""
    times = []
    for _ in range(runs):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            check=True,
            capture_output=True,
            text=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Session:
    """One workload at one seed: builds inputs, runs and checks."""

    def __init__(self, workload, seed: int, scale: float):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.config = None
        self.source = None
        self.setup_times: "list[float]" = []
        self.attempted = 0
        self.errors: "list[str]" = []
        self.failed = 0
        self.signature = None

    def build(self) -> None:
        """Input build + config, outside every timed region."""
        t0 = time.perf_counter()
        self.source = self.workload.build(self.seed, self.scale)
        self.config = self.workload.config(self.seed, self.scale)
        self.setup_times.append(time.perf_counter() - t0)

    def run(self, config=None, execute=None, same_simulation: bool = True, **obs):
        """One checked run; returns ``(wall seconds, RunResult or None)``.

        *same_simulation* demands the ``(steps, committed, aborted)``
        signature of every other such run — repeats, and the traced run,
        must not perturb the simulation.  *config*/*execute* override the
        workload's own (the single-process baseline of the pool).
        """
        from workloads import check_result, signature

        if self.source is None:
            self.build()
        source, config = self.source, config or self.config
        execute = execute or self.workload.execute
        if self.workload.mutates_input:
            self.source = None  # consumed: the next run builds afresh
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = execute(config, source, **obs)
        except Exception as exc:  # boundary: a failed run is counted, not fatal
            self._fail([f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        errors = check_result(self.workload, config, source, result)
        if same_simulation:
            if self.signature is None:
                self.signature = signature(result)
            elif signature(result) != self.signature:
                errors.append(
                    f"signature {signature(result)} differs from first run {self.signature}"
                )
        if errors:
            self._fail(errors)
        return wall, result

    def _fail(self, errors: "list[str]") -> None:
        self.failed += 1
        self.errors.extend(errors)

    def repeat(self, seconds: float, min_runs: int) -> "list[float]":
        """Wall times of successful runs over *seconds* (>= *min_runs*)."""
        walls = []
        deadline = time.perf_counter() + seconds
        runs = 0
        while runs < min_runs or time.perf_counter() < deadline:
            wall, result = self.run()
            runs += 1
            if result is not None:
                walls.append(wall)
        return walls


def _timing_note(label: str, walls: "list[float]") -> None:
    print(
        f"{label}: median {statistics.median(walls):.4f} s "
        f"(min {min(walls):.4f}, max {max(walls):.4f}, n={len(walls)})",
        file=sys.stderr,
    )


def end_to_end(sessions: "list[Session]", seconds: float, import_runs: int) -> "dict[str, tuple]":
    """Timed passes over the run's inputs; every number is per input."""
    imports = import_seconds(import_runs)
    for session in sessions:
        session.build()
    warm = [session.run()[1] for session in sessions]  # lazy imports, registries, allocator
    passes = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < 2 or time.perf_counter() < deadline:
        runs = [session.run() for session in sessions]
        attempts += 1
        if all(result is not None for _, result in runs):
            passes.append(sum(wall for wall, _ in runs) / len(runs))
    if None in warm or not passes:
        return {}
    _timing_note("run_s", passes)
    steps, committed, aborted = (sum(column) for column in zip(*(s.signature for s in sessions)))
    run_s = statistics.median(passes)
    builds = [t for session in sessions for t in session.setup_times]
    return {
        "run_s": (run_s, "s"),
        "commits_per_s": (committed / len(sessions) / run_s, "1/s"),
        "setup_s": (imports + statistics.median(builds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "sim_commits_per_step": (committed / steps, "count"),
        "sim_wasted_frac": (aborted / (committed + aborted), "ratio"),
    }


def _percentile(ordered: "list[float]", share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] if ordered else 0.0


def _layer_metrics(tracer, wall: float, result, rho: float) -> "dict[str, float]":
    """Per-layer numbers of one traced run."""
    totals = tracer.totals()

    def field(name: str, key: str) -> float:
        return totals[name][key] if name in totals else 0.0

    step_ms = sorted(1e3 * d for d in totals.get("core.step", {}).get("durations", []))
    late = result.r_trace[len(result) // 2 :]
    launched = result.total_launched
    return {
        "workset.take_s": field("workset.take", "inclusive"),
        "workset.take_calls": field("workset.take", "calls"),
        "conflict.resolve_s": field("conflict.resolve", "inclusive"),
        "conflict.launched": launched,
        "conflict.useful_frac": result.total_committed / launched if launched else 0.0,
        "policies.apply_self_s": field("policies.apply", "self"),
        "policies.select_self_s": field("policies.select", "self"),
        "policies.execute_self_s": field("policies.execute", "self"),
        "core.steps": field("core.step", "calls"),
        "core.step_self_s": field("core.step", "self"),
        "core.step_ms_p50": _percentile(step_ms, 0.50),
        "core.step_ms_p99": _percentile(step_ms, 0.99),
        "costs.charge_s": field("costs.charge", "inclusive"),
        "control.propose_s": field("control.propose", "inclusive"),
        "control.observe_s": field("control.observe", "inclusive"),
        "control.mean_m": launched / len(result),
        "control.rho_abs_err": abs(float(late.mean()) - rho),
        "registry.create_s": field("registry.create", "inclusive"),
        "api.run_overhead_s": wall - field("core.step", "inclusive"),
        "partition.partition_s": field("partition.partition", "inclusive"),
        # spawn happens lazily inside the first resolve; it is lifecycle
        "sharded.pool_resolve_s": field("sharded.pool_resolve", "self"),
        "sharded.pool_lifecycle_s": field("sharded.pool_lifecycle", "inclusive"),
        "trace.coverage_frac": tracer.root_seconds() / wall,
    }


def per_layer(session: Session, seconds: float, spans_out) -> "dict[str, tuple]":
    from probes import run_probes
    from tracer import Tracer
    from workloads import api_run

    session.build()
    _, warm = session.run()
    base = session.repeat(0.3 * seconds, min_runs=2)
    if warm is None or not base:
        return {}
    base_s = statistics.median(base)
    _timing_note("untraced run_s", base)

    traced: "list[dict[str, float]]" = []
    tracers = []
    deadline = time.perf_counter() + 0.4 * seconds
    while len(tracers) < 2 or time.perf_counter() < deadline:
        tracer = Tracer(trace_id=len(tracers))
        with tracer:
            wall, result = session.run()
        tracers.append(tracer)
        if result is not None:
            row = _layer_metrics(tracer, wall, result, session.config.rho)
            row["trace.overhead_frac"] = wall / base_s - 1.0
            traced.append(row)
    if not traced:
        return {}
    metrics = {name: statistics.median(row[name] for row in traced) for name in traced[0]}

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.recorder import TraceRecorder

    wall, result = session.run(recorder=TraceRecorder(), metrics=MetricsRegistry())
    metrics["probe.obs.recorder_overhead_frac"] = (
        wall / base_s - 1.0 if result is not None else 0.0
    )
    metrics["probe.sharded.inproc_run_s"] = 0.0
    if session.config.order is not None:
        # the single-process baseline of the pool: same input, default order
        wall, result = session.run(
            config=replace(session.config, order=None),
            execute=api_run,
            same_simulation=False,
        )
        if result is not None:
            metrics["probe.sharded.inproc_run_s"] = wall

    session.build()  # probes get an input no run has touched
    first = warm.steps[0]
    values, gone = run_probes(
        session.config,
        session.source,
        workset_size=first.workset_before,
        mean_m=round(warm.total_launched / len(warm)),
        seed=session.seed,
    )
    metrics.update(values)
    metrics["probe.graph.generate_s"] = statistics.median(session.setup_times)
    missing = tracers[0].missing + gone
    metrics["trace.missing_targets"] = len(missing)
    if missing:
        print("missing targets: " + ", ".join(missing), file=sys.stderr)
    if spans_out is not None:
        Path(spans_out).write_text(json.dumps([t.dump() for t in tracers]))
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}


def _layer_unit(name: str) -> str:
    """Unit by naming convention: ``*_s``, ``*_ms*``, ``*_us*``, ``*_frac``/``*_err``."""
    leaf = name.rsplit(".", 1)[-1]
    for marker, unit in (("_us", "us"), ("_ms", "ms")):
        if marker in leaf:
            return unit
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith(("_frac", "_err")):
        return "ratio"
    return "count"


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    import_runs: int = 3,
    spans_out=None,
) -> dict:
    """Run one workload; returns the result object the driver reads."""
    from workloads import WORKLOADS

    # one process measures several independently seeded inputs, so that
    # what is particular to one input averages out of the end-to-end
    # numbers; the per-layer run (no bounds to hold) traces the first
    workload = WORKLOADS[name]
    sessions = [
        Session(workload, seed * workload.inputs + i, scale)
        for i in range(1 if trace else workload.inputs)
    ]
    if trace:
        metrics = per_layer(sessions[0], seconds, spans_out)
    else:
        metrics = end_to_end(sessions, seconds, import_runs)
    for error in [e for session in sessions for e in session.errors][:10]:
        print(f"check failed: {error}", file=sys.stderr)
    failed = sum(session.failed for session in sessions)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": sum(session.attempted for session in sessions),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1: write the raw spans here as JSON")
    parser.add_argument("--suite", metavar="OUT.json", help="run every workload, save the results")
    parser.add_argument("--seeds", type=int, default=None, help="seeds per workload for --suite/--aa")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--aa", action="store_true", help="two suites of the same code must agree")
    parser.add_argument("--keep", metavar="PREFIX", help="with --aa: save both suites as PREFIX.{A,B}.json")
    parser.add_argument("--selftest", action="store_true", help="every workload at 1/20 scale")
    args = parser.parse_args(argv)

    import suite

    if args.compare:
        return suite.compare_files(*args.compare)
    _import_program()
    seconds = args.seconds if args.seconds is not None else suite.declared()["run_seconds"]
    if args.selftest:
        return suite.selftest(measure)
    if args.aa:
        return suite.aa(args.seed, args.seeds or 10, seconds, args.keep)
    if args.suite:
        suite.save(args.suite, suite.run_suite(args.seed, args.seeds or 1, seconds))
        return 0
    if not args.workload:
        parser.error("--workload is required (or --suite/--compare/--aa/--selftest)")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    result = measure(args.workload, args.seed, seconds, bool(args.trace), spans_out=args.spans_out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
