"""Timed hierarchical spans — the third observability channel.

Traces say *what* the runtime did, metrics say *how much*; spans say
*where the time went*.  A :class:`SpanProfiler` aggregates
``perf_counter_ns`` timings per span *path* — the stack of span names
open when the timing was taken — so one engine run yields a tree like::

    step                      300x   412.8 ms
      controller.decide       300x     1.9 ms
      select                  300x     8.4 ms
      resolve                 300x   231.0 ms
        kernel.commit_from_slots 300x 204.7 ms
      commit                  300x   166.2 ms
      controller.update       300x     2.1 ms

Design points, mirroring the recorder/metrics activation pattern:

* a module-level *active profiler* (:func:`active_profiler`,
  :func:`profiling`) lets the CLI switch span collection on for engines
  built deep inside an experiment;
* the **disabled path is near-zero**: engines hold a ``None`` profiler
  handle and enter a shared stateless no-op context manager
  (:data:`NULL_SPAN`), costing one attribute test per phase;
* spans aggregate in place (count / total / min / max per path) instead
  of recording individual events, so profiling a million steps costs a
  dict update per span, not memory proportional to the run;
* optional **1-in-N step sampling** (``sample_every``): a sampled-out
  step span suppresses itself *and every span nested inside it*, scaling
  the already-small overhead down arbitrarily;
* a span is closed in ``finally`` semantics — an operator that raises
  mid-step still gets its time attributed to the right path;
* :meth:`SpanProfiler.snapshot` is a plain JSON-able dict that survives
  a trip between processes, and :meth:`SpanProfiler.merge` folds such
  payloads into the parent's profiler (how the parallel sweep harness
  aggregates per-run spans across worker processes).

Span names may contain dots (``controller.decide``); ``/`` is reserved
as the path separator in snapshots and renders.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.errors import ObservabilityError

__all__ = [
    "SpanStat",
    "SpanProfiler",
    "NULL_SPAN",
    "active_profiler",
    "activate_profiler",
    "deactivate_profiler",
    "profiling",
]

#: snapshot payload layout version (bump on incompatible change)
SNAPSHOT_SCHEMA = 1


class _NullSpan:
    """Shared stateless no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False

    def __repr__(self) -> str:  # stable repr: docs are generated from it
        return "NULL_SPAN"


#: the one no-op span everyone shares; reentrant and reusable
NULL_SPAN = _NullSpan()


class SpanStat:
    """Aggregated timings of one span path."""

    __slots__ = ("count", "total_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.min_ns = 0
        self.max_ns = 0

    def add(self, elapsed_ns: int, count: int = 1) -> None:
        if self.count == 0:
            self.min_ns = self.max_ns = elapsed_ns
        else:
            # merged payloads carry per-call extremes, live spans per-call
            # durations; either way min/max stay per-call bounds
            if elapsed_ns < self.min_ns:
                self.min_ns = elapsed_ns
            if elapsed_ns > self.max_ns:
                self.max_ns = elapsed_ns
        self.count += count
        self.total_ns += elapsed_ns

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    def __repr__(self) -> str:
        return f"SpanStat(count={self.count}, total_ns={self.total_ns})"


class _Span:
    """One live timed span; created and entered by :meth:`SpanProfiler.span`."""

    __slots__ = ("_prof", "_name", "_start")

    def __init__(self, prof: "SpanProfiler", name: str):
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Span":
        prof = self._prof
        prof._path = prof._path + (self._name,)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        # runs on exceptions too: a failing task body still closes its
        # span and the time it burned is attributed where it was spent
        elapsed = time.perf_counter_ns() - self._start
        prof = self._prof
        prof._record(prof._path, elapsed)
        prof._path = prof._path[:-1]
        return False


class _SuppressedSpan:
    """A sampled-out span: silences itself and everything nested inside."""

    __slots__ = ("_prof",)

    def __init__(self, prof: "SpanProfiler"):
        self._prof = prof

    def __enter__(self) -> None:
        self._prof._suppress += 1
        return None

    def __exit__(self, *exc: object) -> bool:
        self._prof._suppress -= 1
        return False


class SpanProfiler:
    """Hierarchical span aggregator keyed by span path.

    ``sample_every=N`` records only every N-th *step* span (see
    :meth:`step_span`); plain :meth:`span` calls are always recorded
    unless nested inside a sampled-out step.
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ObservabilityError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        self._stats: dict[tuple[str, ...], SpanStat] = {}
        self._path: tuple[str, ...] = ()
        self._suppress = 0

    # -- recording ------------------------------------------------------
    def _record(self, path: tuple[str, ...], elapsed_ns: int) -> None:
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = SpanStat()
        stat.add(elapsed_ns)

    def span(self, name: str):
        """Context manager timing one ``name`` span under the open path."""
        if self._suppress:
            return NULL_SPAN
        if not name or "/" in name:
            raise ObservabilityError(
                f"span name must be non-empty and '/'-free, got {name!r}"
            )
        return _Span(self, name)

    def step_span(self, step: int):
        """The engine's per-step root span, honouring ``sample_every``.

        A sampled-out step returns a suppressing context manager, so
        every span the engine (or operator code) opens inside that step
        is a no-op too — the whole step costs one modulo test.
        """
        if self._suppress or (step % self.sample_every):
            return _SuppressedSpan(self)
        return _Span(self, "step")

    def add(self, path: "str | tuple[str, ...]", elapsed_ns: int, count: int = 1) -> None:
        """Credit an externally measured duration to *path*.

        For callers that time work without opening a live span — e.g.
        the sweep harness attributing a run's wall clock.
        """
        key = tuple(path.split("/")) if isinstance(path, str) else tuple(path)
        if not key or any(not part or "/" in part for part in key):
            raise ObservabilityError(f"invalid span path {path!r}")
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = SpanStat()
        stat.add(int(elapsed_ns), count=int(count))

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, SpanStat]:
        """``{"a/b/c": SpanStat}`` view, sorted by path."""
        return {
            "/".join(path): stat
            for path, stat in sorted(self._stats.items())
        }

    def total_ns(self, path: "str | tuple[str, ...]") -> int:
        """Total nanoseconds recorded under one exact path (0 if absent)."""
        key = tuple(path.split("/")) if isinstance(path, str) else tuple(path)
        stat = self._stats.get(key)
        return 0 if stat is None else stat.total_ns

    def __len__(self) -> int:
        return len(self._stats)

    def __bool__(self) -> bool:  # an empty profiler is still "on"
        return True

    def __repr__(self) -> str:
        return (
            f"SpanProfiler(paths={len(self._stats)}, "
            f"sample_every={self.sample_every})"
        )

    # -- serialisation / merge -----------------------------------------
    def snapshot(self) -> dict:
        """Plain JSON-able dump: schema tag plus per-path aggregates.

        Paths are ``/``-joined and sorted, so the snapshot is
        deterministic and diffable like the metrics snapshot.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "sample_every": self.sample_every,
            "spans": {
                "/".join(path): stat.as_dict()
                for path, stat in sorted(self._stats.items())
            },
        }

    def merge(self, snapshot: dict, prefix: "tuple[str, ...] | str" = ()) -> None:
        """Fold a :meth:`snapshot` payload into this profiler.

        The sweep harness calls this with each worker's returned span
        payload; *prefix* re-roots the merged paths (e.g. under
        ``("sweep.worker",)``) so cross-process time is distinguishable
        from spans measured in this process.
        """
        if not isinstance(snapshot, dict) or "spans" not in snapshot:
            raise ObservabilityError("span snapshot has no 'spans' table")
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ObservabilityError(
                f"span snapshot schema {snapshot.get('schema')!r} != {SNAPSHOT_SCHEMA}"
            )
        root = tuple(prefix.split("/")) if isinstance(prefix, str) else tuple(prefix)
        for joined, entry in snapshot["spans"].items():
            path = root + tuple(joined.split("/"))
            try:
                count = int(entry["count"])
                total = int(entry["total_ns"])
                lo = int(entry["min_ns"])
                hi = int(entry["max_ns"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ObservabilityError(
                    f"malformed span snapshot entry for {joined!r}"
                ) from exc
            stat = self._stats.get(path)
            if stat is None:
                stat = self._stats[path] = SpanStat()
            if stat.count == 0:
                stat.min_ns, stat.max_ns = lo, hi
            else:
                stat.min_ns = min(stat.min_ns, lo)
                stat.max_ns = max(stat.max_ns, hi)
            stat.count += count
            stat.total_ns += total

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """Readable span tree with per-path count/total/mean and share.

        The share column is the fraction of the *parent's* total; roots
        show their share of the sum over all roots.
        """
        if not self._stats:
            return "spans: (none recorded)"
        items = sorted(self._stats.items())
        roots_total = sum(
            stat.total_ns for path, stat in items if len(path) == 1
        )
        lines = ["spans:"]
        for path, stat in items:
            if len(path) == 1:
                parent_total = roots_total
            else:
                parent = self._stats.get(path[:-1])
                parent_total = parent.total_ns if parent is not None else 0
            share = stat.total_ns / parent_total if parent_total else 0.0
            indent = "  " * len(path)
            lines.append(
                f"{indent}{path[-1]}: {stat.count}x "
                f"total={stat.total_ns / 1e6:.3f}ms "
                f"mean={stat.mean_ns / 1e3:.3f}us "
                f"({share:.1%})"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# active-profiler plumbing (mirrors repro.obs.recorder / .metrics)
# ----------------------------------------------------------------------
_active: "SpanProfiler | None" = None


def active_profiler() -> "SpanProfiler | None":
    """The profiler engines should attach to, or ``None`` when disabled."""
    return _active


def activate_profiler(profiler: SpanProfiler) -> SpanProfiler:
    global _active
    if not isinstance(profiler, SpanProfiler):
        raise ObservabilityError(
            f"can only activate a SpanProfiler, got {type(profiler).__name__}"
        )
    _active = profiler
    return profiler


def deactivate_profiler() -> None:
    global _active
    _active = None


@contextmanager
def profiling(sample_every: int = 1):
    """Context manager: activate a fresh profiler, yield it."""
    global _active
    profiler = SpanProfiler(sample_every=sample_every)
    previous = _active
    activate_profiler(profiler)
    try:
        yield profiler
    finally:
        _active = previous
