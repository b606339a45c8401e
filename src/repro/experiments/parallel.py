"""Parallel experiment sweeps over a content-addressed result cache.

The experiments are embarrassingly parallel — each run is a pure function
of its config ``(experiment name, seed, quick)`` with no I/O — so a sweep
is a plain process pool: pending configs run inline (``jobs=1``, or a
single pending config) or on a
:class:`~concurrent.futures.ProcessPoolExecutor` of ``min(jobs, pending)``
workers.  Three guarantees:

* **Deterministic seeds.**  Without an explicit ``seed=`` each experiment
  gets one derived via :func:`repro.utils.rng.derive_seed` from the
  sweep's base seed and the experiment name — never a function of worker
  scheduling, completion order, or how many runs came before.
* **Content-addressed caching.**  The parent stores every result as it
  arrives under ``<cache_dir>/<sha256(config)>.json``; the key hashes the
  canonical JSON of ``{name, seed, quick}`` plus the package version and
  cache schema, so a re-sweep only recomputes configs whose inputs
  actually changed.  Corrupted or truncated entries (torn writes, disk
  faults) are counted in the ``sweep.cache.corrupt`` metric and
  recomputed — never raised to the caller.  The cache is also how an
  interrupted sweep resumes: rerun it with the same ``cache_dir``.
* **Fail fast, report in order.**  Outcomes come back in name order.
  An experiment that raises aborts the sweep with its own exception
  (same type and message, from a worker process too); configs still
  queued are cancelled, and results that did arrive stay cached.

Counters flow through the active :mod:`repro.obs` metrics registry under
``sweep.*`` and, under an active span profiler, every computed run's
wall-clock through ``sweep.attempt``, with a worker's own spans merged
beneath ``sweep.worker/``.  A :class:`SweepProgress` monitor turns the
finished configs into a periodic one-line live status.

Used by ``python -m repro.experiments --jobs N --cache-dir DIR`` and
importable directly::

    from repro.experiments.parallel import run_sweep

    outcomes = run_sweep(["fig2", "fig3"], jobs=4, cache_dir="~/.repro-cache")
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from repro._version import __version__
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.obs.metrics import MetricsRegistry, active_metrics
from repro.obs.spans import SpanProfiler, activate_profiler, active_profiler
from repro.utils.rng import derive_seed

__all__ = ["SweepOutcome", "SweepProgress", "config_key", "run_sweep"]

#: bump when the cache payload layout changes; invalidates old entries
#: (3: the key and payload carry ``{name, seed, quick}``, the three inputs
#: of an experiment, not a serialised RunConfig)
CACHE_SCHEMA = 3


@dataclass(frozen=True)
class SweepOutcome:
    """One finished experiment: its result plus provenance.

    ``seed`` is the seed the run executed with, ``cached`` whether the
    result was loaded from the cache, and ``key`` its :func:`config_key`.
    """

    name: str
    quick: bool
    seed: int
    result: ExperimentResult
    cached: bool
    key: str


def _config(name: str, seed: int, quick: bool) -> dict:
    return {"name": name, "seed": int(seed), "quick": bool(quick)}


def config_key(name: str, seed: int, quick: bool) -> str:
    """Content hash identifying one run: config + code version + schema.

    The hash covers ``{name, seed, quick}`` — the inputs that decide an
    experiment's result — as canonical JSON (sorted keys, no whitespace
    variance) through SHA-256; two configs collide iff they would
    produce the same result.
    """
    payload = json.dumps(
        {
            "config": _config(name, seed, quick),
            "version": __version__,
            "schema": CACHE_SCHEMA,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def _cache_load(cache_dir: Path, key: str) -> "tuple[ExperimentResult | None, bool]":
    """Load a cache entry: ``(result_or_None, entry_was_corrupt)``.

    Any failure mode of a stored entry — unreadable file, torn/truncated
    JSON, a stale key, or a payload :meth:`ExperimentResult.from_dict`
    rejects — is a *corrupt* miss: the caller recomputes and rewrites.
    """
    path = _cache_path(cache_dir, key)
    if not path.exists():
        return None, False
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("key") != key:
            return None, True
        return ExperimentResult.from_dict(payload["result"]), False
    except (OSError, AttributeError, TypeError, ValueError, KeyError, ExperimentError):
        return None, True


def _cache_store(cache_dir: Path, key: str, config: dict, result: ExperimentResult) -> None:
    payload = {"key": key, "config": config, "result": result.to_dict()}
    path = _cache_path(cache_dir, key)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, default=float), encoding="utf-8"
    )
    tmp.replace(path)  # atomic publish


def _execute(payload: tuple) -> dict:
    """Run one ``(name, seed, quick)`` config (top-level, hence monkeypatchable)."""
    name, seed, quick = payload
    from repro.experiments.runner import run_experiment

    return run_experiment(name, seed=seed, quick=quick).to_dict()


def _worker(payload: tuple, profile: bool) -> "tuple[dict, float, dict | None]":
    """Run one config and time it: ``(result, seconds, spans)``.

    The pool's entry point.  With *profile* (the parent profiles) the run
    gets a fresh :class:`~repro.obs.spans.SpanProfiler` whose snapshot
    comes back as ``spans``; otherwise ``spans`` is ``None``.
    """
    profiler = activate_profiler(SpanProfiler()) if profile else None
    started = time.monotonic()
    result = _execute(payload)
    seconds = time.monotonic() - started
    spans = profiler.snapshot() if profiler is not None and len(profiler) else None
    return result, seconds, spans


class SweepProgress:
    """Periodic one-line status for a running sweep.

    :func:`run_sweep` reports each finished config (:meth:`note_complete`)
    and each computed run's latency (:meth:`note_attempt_seconds`); the
    monitor rate-limits itself to one line per *interval* seconds on
    *sink*.  Clock and sink are injectable so tests drive it
    deterministically without sleeping.
    """

    #: EWMA smoothing factor for attempt latency
    ALPHA = 0.3

    def __init__(
        self,
        total: int,
        *,
        jobs: int = 1,
        interval: float = 5.0,
        sink=None,
        clock=None,
    ) -> None:
        if total < 0:
            raise ExperimentError(f"total must be >= 0, got {total}")
        if interval < 0:
            raise ExperimentError(f"interval must be >= 0, got {interval}")
        self.total = int(total)
        self.jobs = max(1, int(jobs))
        self.interval = float(interval)
        self._sink = sink if sink is not None else _stderr_sink
        self._clock = clock if clock is not None else time.monotonic
        self.completed = 0
        self.ewma_attempt_seconds: "float | None" = None
        self._last_emit: "float | None" = None

    # -- feeding -------------------------------------------------------
    def note_complete(self, outcome: "SweepOutcome") -> None:
        """One config has its result (computed or from the cache)."""
        self.completed += 1

    def note_attempt_seconds(self, seconds: float) -> None:
        seconds = float(seconds)
        if self.ewma_attempt_seconds is None:
            self.ewma_attempt_seconds = seconds
        else:
            self.ewma_attempt_seconds = (
                self.ALPHA * seconds + (1.0 - self.ALPHA) * self.ewma_attempt_seconds
            )

    # -- reporting -----------------------------------------------------
    @property
    def remaining(self) -> int:
        return max(0, self.total - self.completed)

    def eta_seconds(self) -> "float | None":
        """Remaining wall-clock estimate: EWMA latency × remaining / jobs."""
        if self.ewma_attempt_seconds is None or self.remaining == 0:
            return None
        return self.ewma_attempt_seconds * self.remaining / self.jobs

    def status_line(self) -> str:
        parts = [f"sweep: {self.completed}/{self.total} done"]
        if self.ewma_attempt_seconds is not None:
            parts.append(f"attempt EWMA {self.ewma_attempt_seconds:.2f}s")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)

    def maybe_emit(self, force: bool = False) -> "str | None":
        """Emit a status line if *interval* elapsed (or *force*)."""
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.interval
        ):
            return None
        self._last_emit = now
        line = self.status_line()
        self._sink(line)
        return line


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class _Sweep:
    """Outcome slots, cache writes and monitor calls for one ``run_sweep`` call."""

    def __init__(self, names, quick, seeds, keys, cache, monitor):
        self.names = names
        self.quick = quick
        self.seeds = seeds
        self.keys = keys
        self.cache = cache
        self.monitor = monitor
        self.outcomes: "list[SweepOutcome | None]" = [None] * len(names)
        registry = active_metrics()
        if registry is None:  # not `or`: an *empty* registry is falsy
            registry = MetricsRegistry()
        self.metrics = registry.scope("sweep")
        self.profiler = active_profiler()

    def count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    def payload(self, index: int) -> tuple:
        return self.names[index], self.seeds[index], self.quick

    def finish(
        self,
        index: int,
        result: ExperimentResult,
        *,
        cached: bool,
        seconds: "float | None" = None,
        spans: "dict | None" = None,
    ) -> None:
        """A config has its result; a computed one (*seconds* set) is timed and cached."""
        name, seed, key = self.names[index], self.seeds[index], self.keys[index]
        if seconds is not None:
            self.metrics.histogram("attempt_seconds").observe(seconds)
            if self.profiler is not None:
                self.profiler.add(("sweep.attempt",), int(seconds * 1e9))
                if spans is not None:
                    self.profiler.merge(spans, prefix=("sweep.worker",))
            if self.monitor is not None:
                self.monitor.note_attempt_seconds(seconds)
            if self.cache is not None:
                _cache_store(self.cache, key, _config(name, seed, self.quick), result)
        outcome = self.outcomes[index] = SweepOutcome(
            name, self.quick, seed, result, cached=cached, key=key
        )
        self.count("completed")
        if self.monitor is not None:
            self.monitor.note_complete(outcome)
            self.monitor.maybe_emit()


def run_sweep(
    names,
    *,
    quick: bool = False,
    seed: "int | None" = None,
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    base_seed: int = 0,
    monitor=None,
) -> list[SweepOutcome]:
    """Run many experiments, in parallel, through the result cache.

    Parameters
    ----------
    names:
        Iterable of registered experiment names.
    quick:
        Reduced problem sizes for every experiment of the sweep.
    seed:
        One explicit seed for every experiment; ``None`` derives each
        experiment's seed from ``(base_seed, name)``.
    jobs:
        Maximum concurrent worker processes.  ``1`` — or a single config
        left to compute — runs inline; otherwise a process pool of
        ``min(jobs, pending)`` workers.
    cache_dir:
        Directory for the content-hash cache; ``None`` disables caching.
    base_seed:
        Entropy root of the derived seeds (unused with *seed*).
    monitor:
        Optional :class:`SweepProgress` (or anything with
        ``note_complete``/``note_attempt_seconds``/``maybe_emit``): fed
        every finished outcome and run latency as the sweep runs, for
        periodic live status lines.

    Returns
    -------
    Outcomes in the same order as *names*, regardless of completion
    order.  The first experiment to raise aborts the sweep with that
    exception.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    names = list(names)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ExperimentError(f"run_sweep takes experiment names, got {name!r}")
    quick = bool(quick)
    seeds = [
        int(seed) if seed is not None else derive_seed(base_seed, "sweep", name)
        for name in names
    ]
    keys = [config_key(name, s, quick) for name, s in zip(names, seeds)]
    cache: "Path | None" = None
    if cache_dir is not None:
        cache = Path(cache_dir).expanduser()
        cache.mkdir(parents=True, exist_ok=True)

    sweep = _Sweep(names, quick, seeds, keys, cache, monitor)
    pending: list[int] = []
    for i, key in enumerate(keys):
        sweep.count("tasks")
        if cache is None:
            pending.append(i)
            continue
        hit, corrupt = _cache_load(cache, key)
        if corrupt:
            sweep.count("cache.corrupt")
        if hit is not None:
            sweep.count("cache.hits")
            sweep.finish(i, hit, cached=True)
        else:
            sweep.count("cache.misses")
            pending.append(i)

    # a single pending config gains nothing from process spin-up
    if jobs == 1 or len(pending) == 1:
        _run_inline(sweep, pending)
    elif pending:
        _run_pool(sweep, pending, jobs)
    if monitor is not None:
        monitor.maybe_emit(force=True)  # final line always lands
    return sweep.outcomes


def _run_inline(sweep: _Sweep, pending: "list[int]") -> None:
    """Run the pending configs one after another in this process."""
    for i in pending:
        sweep.count("attempts")
        # unprofiled: spans of an inline run land in the active profiler directly
        result, seconds, _ = _worker(sweep.payload(i), profile=False)
        sweep.finish(i, ExperimentResult.from_dict(result), cached=False, seconds=seconds)


def _run_pool(sweep: _Sweep, pending: "list[int]", jobs: int) -> None:
    """Run the pending configs on ``min(jobs, pending)`` worker processes.

    Results are stored as they arrive.  The first worker exception
    cancels the configs still waiting in the pool's queue; runs already
    handed to a worker finish (and are cached) before that exception
    re-raises here.  (Shutting the pool down instead can leave futures
    that will never resolve, and ``as_completed`` then waits forever.)
    """
    # fork where available: workers then see experiments registered at
    # run time (repro.register) and skip re-importing the package
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    profile = sweep.profiler is not None
    failure: "BaseException | None" = None
    with ProcessPoolExecutor(min(jobs, len(pending)), mp_context=ctx) as pool:
        futures = {}
        for i in pending:
            sweep.count("attempts")
            futures[pool.submit(_worker, sweep.payload(i), profile)] = i
        for future in as_completed(futures):
            if future.cancelled():
                continue
            try:
                result, seconds, spans = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
                    for queued in futures:
                        queued.cancel()  # a no-op for runs already started
                continue
            sweep.finish(
                futures[future],
                ExperimentResult.from_dict(result),
                cached=False,
                seconds=seconds,
                spans=spans,
            )
    if failure is not None:
        raise failure
