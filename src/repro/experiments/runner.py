"""Experiment CLI: ``python -m repro.experiments <name> [options]``.

Runs one or all experiments and prints their rendered reports.  Every
experiment accepts ``--seed`` for reproducibility and ``--quick`` for a
reduced-size run (used by the test suite; the benchmarks run full size).
``--output-dir DIR`` saves each report as ``<name>.txt`` / ``.json`` /
``.svg``; ``all --output-dir bench_reports`` regenerates every checked-in
report, and nothing else writes that directory.

Workload record/replay (``apps`` experiment only, see
:mod:`repro.runtime.wktrace`):

* ``--record-workload DIR`` — record each application's hybrid run as a
  workload trace (``<app>.wktrace``) into DIR.
* ``--replay-workload PATH`` — evaluate every controller over a
  deterministic replay of the recorded trace at PATH instead of building
  the applications.

Observability options (see :mod:`repro.obs`):

* ``--trace PATH`` — record a structured JSONL trace of every engine run
  the experiment performs, then reload it and *verify deterministic
  replay*: each recorded controller is rebuilt from its traced
  configuration and must reproduce the recorded ``m_t`` trajectory
  exactly (exit code 1 otherwise).  Worker *processes* cannot record
  into the parent's trace, so ``--trace`` with ``--jobs`` above 1 is an
  error; with ``--cache-dir`` alone the runs are inline and recorded.
* ``--metrics`` — collect the runtime metrics registry during the run and
  print it after the reports (sweep mode reports the ``sweep.*`` task
  and cache counters).
* ``--profile`` — activate the span profiler and print the hierarchical
  phase-timing tree (and, when a ``step`` root exists, the run report's
  time per step phase) after the reports; ``--profile-every N`` samples
  one step in N to cut overhead on long runs.
* ``--telemetry-out BASE`` — export the metrics registry (implied) to
  ``BASE.prom`` (OpenMetrics text) and ``BASE.json`` (lossless snapshot)
  after the run.
* ``--live`` — sweep mode only: print a periodic one-line progress
  status (done/total, attempt EWMA, ETA) on stderr while the sweep runs.

Sweep options (see :mod:`repro.experiments.parallel`):

* ``--jobs N`` / ``--cache-dir DIR`` — process-pool fan-out and the
  content-addressed result cache.  A failing experiment stops the sweep
  with its own error (non-zero exit); rerunning the same command with
  the same ``--cache-dir`` recomputes only what is not cached yet.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.experiments import (
    ablation,
    adaptation,
    apps_eval,
    costs,
    example1,
    fig1,
    fig2,
    fig3,
    ordered,
    pareto,
    relaxation,
    sharding,
    theory,
)
from repro.experiments.base import ExperimentResult
from repro.registry import EXPERIMENTS

__all__ = ["EXPERIMENTS", "DEFAULT_EXPERIMENTS", "run_experiment", "main"]


def _fig1(seed, quick: bool) -> ExperimentResult:
    return fig1.run(seed=seed)  # tiny either way


def _fig2(seed, quick: bool) -> ExperimentResult:
    if quick:
        return fig2.run(n=400, d=8, grid_size=10, reps=30, seed=seed)
    return fig2.run(seed=seed)


def _fig3(seed, quick: bool) -> ExperimentResult:
    if quick:
        return fig3.run(n=500, degrees=(8, 24), steps=80, seed=seed)
    return fig3.run(seed=seed)


def _example1(seed, quick: bool) -> ExperimentResult:
    if quick:
        return example1.run(sizes=(8, 16), reps=400, seed=seed)
    return example1.run(seed=seed)


def _theory(seed, quick: bool) -> ExperimentResult:
    if quick:
        return theory.run(n=170, d=16, reps=300, seed=seed)
    return theory.run(seed=seed)


def _adaptation(seed, quick: bool) -> ExperimentResult:
    if quick:
        return adaptation.run(profiles=("step",), total_tasks=600, seed=seed)
    return adaptation.run(seed=seed)


def _apps(seed, quick: bool, **workload_io) -> ExperimentResult:
    # workload_io forwards the CLI's --record-workload/--replay-workload
    # (record_workload=/replay_workload= of apps_eval.run)
    if quick:
        return apps_eval.run(
            apps=("boruvka", "coloring"),
            scale=150,
            fixed_ms=(2, 16),
            seed=seed,
            **workload_io,
        )
    return apps_eval.run(seed=seed, **workload_io)


def _ablation(seed, quick: bool) -> ExperimentResult:
    if quick:
        return ablation.run(n=500, d=12, steps=80, replications=2, seed=seed)
    return ablation.run(seed=seed)


def _costs(seed, quick: bool) -> ExperimentResult:
    if quick:
        return costs.run(
            n=400, d=10, abort_factors=(1.0, 4.0), rhos=(0.1, 0.3), replications=1, seed=seed
        )
    return costs.run(seed=seed)


def _pareto(seed, quick: bool) -> ExperimentResult:
    if quick:
        return pareto.run(n=500, d=10, rhos=(0.1, 0.3), replications=1, seed=seed)
    return pareto.run(seed=seed)


def _relaxation(seed, quick: bool) -> ExperimentResult:
    if quick:
        return relaxation.run(
            n=120, d=8, ks=(1, 2, 4, 120), fixed_m=16, max_steps=40, seed=seed
        )
    return relaxation.run(seed=seed)


def _sharding(seed, quick: bool) -> ExperimentResult:
    if quick:
        return sharding.run(
            n=200, d=8, shard_counts=(1, 2, 4), m_max=32, max_steps=40, seed=seed
        )
    return sharding.run(seed=seed)


def _ordered(seed, quick: bool) -> ExperimentResult:
    if quick:
        return ordered.run(
            num_stations=12, num_jobs=15, end_time=12.0, fixed_ms=(1, 4, 16), seed=seed
        )
    return ordered.run(seed=seed)


#: the built-in experiment table; repro.registry seeds the shared
#: ``"experiment"`` registry from this on first lookup, and third-party
#: entries added via ``repro.register("experiment", ...)`` appear in the
#: CLI next to these
DEFAULT_EXPERIMENTS: dict[str, Callable[[object, bool], ExperimentResult]] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "example1": _example1,
    "theory": _theory,
    "adaptation": _adaptation,
    "apps": _apps,
    "ablation": _ablation,
    "ordered": _ordered,
    "pareto": _pareto,
    "relaxation": _relaxation,
    "sharding": _sharding,
    "costs": _costs,
}


def run_experiment(name: str, *, seed=None, quick: bool = False) -> ExperimentResult:
    """Run one experiment by registry name, at full size or *quick*.

    The one way to run an experiment: the CLI, the sweep workers and the
    benchmarks all call this.
    """
    # RegistryError subclasses ValueError, so unknown names keep raising
    # the historical exception type (with every available entry listed)
    return EXPERIMENTS.create(name, seed, quick)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures/claims as text reports.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=f"one of {sorted(EXPERIMENTS)} or 'all' (default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--quick", action="store_true", help="reduced problem sizes (CI-fast)"
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also save <name>.txt/.json (and .svg when the experiment has "
        "series) into this directory",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a structured JSONL trace of all engine runs, then "
        "verify deterministic replay of every recorded controller",
    )
    parser.add_argument(
        "--record-workload",
        default=None,
        metavar="DIR",
        help="'apps' experiment only: record each application's hybrid run "
        "as a workload trace (<app>.wktrace) into DIR, replayable via "
        "--replay-workload or RunConfig(workload='trace:<path>')",
    )
    parser.add_argument(
        "--replay-workload",
        default=None,
        metavar="PATH",
        help="'apps' experiment only: evaluate the controllers over a "
        "deterministic replay of the recorded workload trace at PATH "
        "instead of building the applications",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the runtime metrics registry",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="time the engine's step phases with the span profiler and "
        "print the phase tree after the reports",
    )
    parser.add_argument(
        "--profile-every",
        type=int,
        default=1,
        metavar="N",
        help="with --profile, time one step in N (default 1: every step)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="BASE",
        help="export collected metrics to BASE.prom (OpenMetrics) and "
        "BASE.json (lossless snapshot); implies metrics collection",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="print a periodic one-line sweep progress status on stderr "
        "(enables sweep mode)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments across N worker processes (default 1: inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-hash disk cache for completed run configs; re-runs "
        "with an identical config and code version reload instantly",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    out_dir = None
    if args.output_dir is not None:
        from pathlib import Path

        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment {unknown[0]!r}; choose from {sorted(EXPERIMENTS)}"
        )
    workload_io = args.record_workload is not None or args.replay_workload is not None
    if workload_io:
        if args.record_workload is not None and args.replay_workload is not None:
            parser.error("pass --record-workload or --replay-workload, not both")
        if args.experiment != "apps":
            parser.error(
                "--record-workload/--replay-workload apply to the 'apps' "
                "experiment only (run: repro-experiments apps --record-workload DIR)"
            )

    def emit(name: str, result: ExperimentResult) -> None:
        print(result.render())
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(result.render(), encoding="utf-8")
            result.save_json(out_dir / f"{name}.json")
            if result.series:
                result.to_svg(out_dir / f"{name}.svg")

    sweep_mode = args.jobs > 1 or args.cache_dir is not None or args.live
    if args.trace is not None and args.jobs > 1:
        parser.error(
            "--trace cannot record runs in worker processes; drop --jobs "
            "or pass --jobs 1"
        )
    if sweep_mode and workload_io:
        parser.error(
            "--record-workload/--replay-workload run inline; drop the sweep "
            "options (--jobs/--cache-dir/--live)"
        )
    if args.profile_every < 1:
        parser.error(f"--profile-every must be >= 1, got {args.profile_every}")

    def execute() -> None:
        for name in names:
            try:
                if workload_io:  # only reachable with experiment == "apps"
                    result = _apps(
                        args.seed,
                        args.quick,
                        record_workload=args.record_workload,
                        replay_workload=args.replay_workload,
                    )
                else:
                    result = run_experiment(name, seed=args.seed, quick=args.quick)
            except ValueError as exc:
                parser.error(str(exc))
            emit(name, result)

    def execute_sweep() -> None:
        # sweep mode: worker processes + content-hash cache; a failing
        # experiment propagates its own exception
        from repro.experiments.parallel import run_sweep

        monitor = None
        if args.live:
            from repro.experiments.parallel import SweepProgress

            monitor = SweepProgress(len(names), jobs=args.jobs)
        outcomes = run_sweep(
            names,
            quick=args.quick,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            monitor=monitor,
        )
        for outcome in outcomes:
            emit(outcome.name, outcome.result)
            status = "cache hit" if outcome.cached else "computed"
            print(
                f"[sweep] {outcome.name}: {status} "
                f"(seed={outcome.seed}, key={outcome.key[:12]})",
                file=sys.stderr,
            )

    body = execute_sweep if sweep_mode else execute

    # observability channels compose: each requested one is pushed onto a
    # single ExitStack so activation order (and teardown) stays uniform.
    from contextlib import ExitStack

    want_metrics = args.metrics or args.telemetry_out is not None
    registry = None
    profiler = None
    with ExitStack() as stack:
        if want_metrics:
            from repro.obs import collecting_metrics

            registry = stack.enter_context(collecting_metrics())
        if args.trace is not None:
            from repro.obs import recording

            stack.enter_context(recording(args.trace))
        if args.profile:
            from repro.obs import profiling

            profiler = stack.enter_context(profiling(sample_every=args.profile_every))
        body()
    if registry is not None and args.metrics:
        print(registry.render())
    if registry is not None and args.telemetry_out is not None:
        from repro.obs import write_telemetry

        prom_path, json_path = write_telemetry(args.telemetry_out, registry)
        print(f"telemetry: wrote {prom_path} and {json_path}")
    if profiler is not None:
        print(profiler.render())
        from repro.errors import ObservabilityError
        from repro.obs import run_report

        try:
            print(run_report(profiler=profiler).render())
        except ObservabilityError:
            pass  # no 'step' root (e.g. pooled sweep workers only)
    if args.trace is not None:
        from repro.errors import ObservabilityError
        from repro.obs import load_jsonl_meta, verify_trace

        events, meta = load_jsonl_meta(args.trace)
        try:
            reports = verify_trace(events)
        except ObservabilityError as exc:
            print(f"trace: {args.trace}: replay FAILED: {exc}", file=sys.stderr)
            return 1
        total_steps = sum(r.steps for r in reports)
        dropped = int(meta.get("dropped", 0))
        dropped_note = f" ({dropped} dropped by the ring)" if dropped else ""
        print(
            f"trace: {args.trace}: {len(events)} events{dropped_note}, "
            f"{len(reports)} runs, {total_steps} steps — deterministic replay OK"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
