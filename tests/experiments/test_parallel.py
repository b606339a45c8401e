"""Tests for repro.experiments.parallel — sweep runner, seeds, cache."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import (
    SweepOutcome,
    SweepProgress,
    config_key,
    run_sweep,
)
from repro.utils.rng import derive_seed


class BrokenExperiment(RuntimeError):
    """Raised by a deliberately failing experiment (module level: picklable)."""


class TestRunConfig:
    """A sweep run's config is ``(name, seed, quick)``; its seed is explicit
    or derived from ``(base_seed, name)``."""

    def test_explicit_seed_passes_through(self):
        (out,) = run_sweep(["fig1"], quick=True, seed=123)
        assert out.seed == 123

    def test_derived_seed_matches_derive_seed(self):
        (out,) = run_sweep(["fig1"], quick=True, base_seed=7)
        assert out.seed == derive_seed(7, "sweep", "fig1")

    def test_derived_seed_is_stable_and_name_keyed(self):
        a, b = run_sweep(["fig1", "example1"], quick=True)
        assert a.seed == run_sweep(["fig1"], quick=True)[0].seed
        assert a.seed != b.seed
        assert a.seed != run_sweep(["fig1"], quick=True, base_seed=1)[0].seed


class TestConfigKey:
    def test_stable(self):
        assert config_key("fig1", 5, True) == config_key("fig1", 5, True)

    def test_sensitive_to_every_field(self):
        base = config_key("fig1", 5, True)
        assert config_key("fig1", 6, True) != base
        assert config_key("fig1", 5, False) != base
        assert config_key("fig2", 5, True) != base

    def test_is_hex_sha256(self):
        key = config_key("fig1", 0, False)
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestRunSweep:
    NAMES = ["fig1"]
    KW = {"seed": 3, "quick": True}

    def test_jobs_below_one_raises(self):
        with pytest.raises(ExperimentError):
            run_sweep(self.NAMES, jobs=0, **self.KW)

    def test_names_only(self):
        from repro.config import RunConfig

        with pytest.raises(ExperimentError, match="experiment names"):
            run_sweep([RunConfig()], **self.KW)

    def test_inline_run_and_outcome_fields(self):
        (out,) = run_sweep(self.NAMES, jobs=1, **self.KW)
        assert isinstance(out, SweepOutcome)
        assert (out.name, out.quick, out.seed) == ("fig1", True, 3)
        assert out.cached is False
        assert out.key == config_key("fig1", 3, True)
        assert out.result.name

    def test_bare_names_are_normalised(self):
        # no seed= and no quick=: derived seeds at full size
        (out,) = run_sweep(["fig1"], jobs=1, base_seed=9)
        assert (out.name, out.quick) == ("fig1", False)
        assert out.seed == derive_seed(9, "sweep", "fig1")

    def test_cache_roundtrip(self, tmp_path):
        (first,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert first.cached is False
        assert (tmp_path / f"{first.key}.json").exists()
        (second,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert second.cached is True
        assert second.result.to_dict() == first.result.to_dict()

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        (first,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        path = tmp_path / f"{first.key}.json"
        path.write_text("{not json", encoding="utf-8")
        (again,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert again.cached is False  # corrupt entry treated as a miss...
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["key"] == first.key  # ...and rewritten intact

    def test_corrupt_cache_entry_is_detected_and_recomputed(self, tmp_path):
        from repro.obs import collecting_metrics

        (first,) = run_sweep(self.NAMES, cache_dir=tmp_path, **self.KW)
        path = tmp_path / f"{first.key}.json"
        path.write_text(path.read_text(encoding="utf-8")[:20], encoding="utf-8")
        with collecting_metrics() as registry:
            (second,) = run_sweep(self.NAMES, cache_dir=tmp_path, **self.KW)
        assert not second.cached  # recomputed, not raised
        assert registry.counter("sweep.cache.corrupt").value == 1
        (third,) = run_sweep(self.NAMES, cache_dir=tmp_path, **self.KW)
        assert third.cached  # the recompute healed the entry
        assert third.result.canonical_json() == first.result.canonical_json()

    def test_truncated_cache_entry_is_recomputed(self, tmp_path):
        # torn write: valid JSON prefix cut mid-document
        (first,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        path = tmp_path / f"{first.key}.json"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        (again,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert again.cached is False
        assert again.result.to_dict() == first.result.to_dict()

    def test_malformed_result_payload_is_recomputed(self, tmp_path):
        # valid JSON, right key, but a payload ExperimentResult.from_dict
        # rejects — this used to raise out of the sweep instead of healing
        (first,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        path = tmp_path / f"{first.key}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"] = {"bogus": True}
        path.write_text(json.dumps(payload), encoding="utf-8")
        (again,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert again.cached is False
        assert again.result.to_dict() == first.result.to_dict()

    def test_failure_propagates_original_exception(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_sweep(["no-such-experiment"], seed=1, jobs=1)

    def test_key_mismatch_is_a_miss(self, tmp_path):
        (first,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        path = tmp_path / f"{first.key}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload), encoding="utf-8")
        (again,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert again.cached is False

    def test_complete_events_report_fresh_and_cached(self, tmp_path):
        seen: list[bool] = []

        class Spy:
            def note_complete(self, outcome):
                seen.append(outcome.cached)

            def note_attempt_seconds(self, seconds):
                pass

            def maybe_emit(self, force=False):
                pass

        run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, monitor=Spy(), **self.KW)
        run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, monitor=Spy(), **self.KW)
        assert seen == [False, True]

    def test_parallel_matches_serial_and_preserves_order(self, tmp_path):
        names = ["fig1", "example1"]
        serial = run_sweep(names, quick=True, jobs=1)
        parallel = run_sweep(names, quick=True, jobs=2)
        assert [o.name for o in parallel] == names
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert a.key == b.key
            assert a.result.to_dict() == b.result.to_dict()

    def test_jobs_above_one_dispatch_to_isolated_workers(self, monkeypatch):
        # regression: jobs>1 once fell through to the strictly
        # sequential inline path, silently losing all parallelism
        import repro.experiments.parallel as par

        def no_inline(sweep, pending):
            raise AssertionError("inline path used despite jobs>1")

        monkeypatch.setattr(par, "_run_inline", no_inline)
        outcomes = run_sweep(["fig1", "example1"], quick=True, jobs=2)
        assert [o.seed for o in outcomes] == [
            derive_seed(0, "sweep", "fig1"),
            derive_seed(0, "sweep", "example1"),
        ]

    def test_single_pending_config_runs_inline_despite_jobs(self, monkeypatch):
        # one pending config gains nothing from process spin-up
        import repro.experiments.parallel as par

        def no_pool(sweep, pending, jobs):
            raise AssertionError("spawned workers for a single pending config")

        monkeypatch.setattr(par, "_run_pool", no_pool)
        (out,) = run_sweep(self.NAMES, jobs=4, **self.KW)
        assert out.result.name

    def test_cache_hits_skip_the_pool(self, tmp_path, monkeypatch):
        run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)

        import repro.experiments.parallel as par

        def boom(payload):
            raise AssertionError("worker ran despite a warm cache")

        monkeypatch.setattr(par, "_execute", boom)
        (out,) = run_sweep(self.NAMES, jobs=1, cache_dir=tmp_path, **self.KW)
        assert out.cached is True

    def test_pool_failure_reraises_and_the_cache_resumes(self, tmp_path, monkeypatch):
        # a worker's exception reaches the caller with its own type and
        # message, and the result that did arrive stays cached: rerunning
        # the fixed sweep with the same cache_dir computes only the failure
        import repro
        import repro.experiments.parallel as par
        from repro.experiments.runner import run_experiment
        from repro.registry import EXPERIMENTS

        broken = [True]

        def flaky(seed, quick):
            if broken[0]:
                raise BrokenExperiment(f"flaky failed with seed {seed}")
            return run_experiment("fig1", seed=seed, quick=quick)

        repro.register("experiment", "flaky", flaky)
        names = ["fig1", "flaky"]
        try:
            with pytest.raises(BrokenExperiment, match="^flaky failed with seed 5$"):
                run_sweep(names, seed=5, quick=True, jobs=2, cache_dir=tmp_path)

            broken[0] = False
            computed = []
            execute = par._execute
            monkeypatch.setattr(
                par, "_execute", lambda payload: computed.append(payload[0]) or execute(payload)
            )
            first, second = run_sweep(names, seed=5, quick=True, jobs=2, cache_dir=tmp_path)
        finally:
            EXPERIMENTS.unregister("flaky")
        assert (first.cached, second.cached) == (True, False)
        assert computed == ["flaky"]
        fresh = run_experiment("fig1", seed=5, quick=True)
        assert first.result.canonical_json() == fresh.canonical_json()

    def test_pool_failures_with_queued_configs_return(self, monkeypatch):
        # regression: shutting the pool down on the first failure hung the
        # sweep once further runs failed while configs were still queued
        import threading
        import time

        import repro.experiments.parallel as par

        def execute(payload):
            time.sleep(0.1)
            raise BrokenExperiment(f"seed {payload[1]} failed")

        monkeypatch.setattr(par, "_execute", execute)
        names = ["fig1"] * 8
        raised = []

        def sweep():
            try:
                run_sweep(names, quick=True, jobs=2)
            except BrokenExperiment as exc:
                raised.append(exc)

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "run_sweep hung after worker failures"
        assert len(raised) == 1


class TestSweepObservability:
    """Span aggregation and the live monitor around run_sweep."""

    def test_inline_sweep_credits_attempt_span(self):
        from repro.obs import profiling

        with profiling() as prof:
            (out,) = run_sweep(["fig3"], seed=3, quick=True, jobs=1)
        assert out.result.name
        stats = prof.stats()
        assert stats["sweep.attempt"].count == 1
        assert stats["sweep.attempt"].total_ns > 0
        # inline attempts run engines in-process: step spans land directly
        assert "step" in stats and stats["step"].count > 0

    def test_isolated_sweep_merges_worker_spans(self):
        from repro.obs import profiling

        with profiling() as prof:
            run_sweep(["fig3", "ordered"], seed=3, quick=True, jobs=2)
        stats = prof.stats()
        # worker-side engine time arrives re-rooted under sweep.worker/
        assert stats["sweep.worker/step"].count > 0
        assert any(p.startswith("sweep.worker/step/") for p in stats)
        assert stats["sweep.attempt"].count == 2

    def test_unprofiled_sweep_ships_no_spans(self, monkeypatch):
        import repro.experiments.parallel as par

        shipped = []
        original = par._Sweep.finish

        def spy(self, index, result, *, cached, seconds=None, spans=None):
            shipped.append(spans)
            original(self, index, result, cached=cached, seconds=seconds, spans=spans)

        monkeypatch.setattr(par._Sweep, "finish", spy)
        run_sweep(["fig1", "example1"], quick=True, jobs=2)
        assert shipped == [None, None]

    def test_monitor_sees_lifecycle_and_final_emit(self):
        lines = []
        clock = iter(float(i) for i in range(1000))
        monitor = SweepProgress(
            2, jobs=1, interval=0.0, sink=lines.append, clock=lambda: next(clock)
        )
        run_sweep(["fig1", "example1"], quick=True, jobs=1, monitor=monitor)
        assert monitor.completed == 2
        assert monitor.ewma_attempt_seconds is not None
        assert lines and lines[-1].startswith("sweep: 2/2 done")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSweepProgress:
    def _progress(self, total=4, **kw):
        self.lines = []
        self.clock = FakeClock()
        return SweepProgress(total, sink=self.lines.append, clock=self.clock, **kw)

    def test_counts_completed_outcomes(self):
        prog = self._progress()
        prog.note_complete(None)
        assert prog.completed == 1
        assert prog.remaining == 3

    def test_ewma_and_eta(self):
        prog = self._progress(total=5, jobs=2)
        prog.note_attempt_seconds(10.0)
        assert prog.ewma_attempt_seconds == 10.0
        prog.note_attempt_seconds(20.0)
        assert prog.ewma_attempt_seconds == pytest.approx(13.0)  # 0.3*20 + 0.7*10
        assert prog.eta_seconds() == pytest.approx(13.0 * 5 / 2)

    def test_eta_none_without_latency_or_work(self):
        prog = self._progress(total=1)
        assert prog.eta_seconds() is None
        prog.note_attempt_seconds(1.0)
        prog.note_complete(None)
        assert prog.remaining == 0 and prog.eta_seconds() is None

    def test_emits_are_rate_limited(self):
        prog = self._progress(total=2, interval=5.0)
        assert prog.maybe_emit() is not None  # first emit always fires
        self.clock.now = 3.0
        assert prog.maybe_emit() is None  # too soon
        self.clock.now = 6.0
        assert prog.maybe_emit() is not None
        assert prog.maybe_emit(force=True) is not None
        assert len(self.lines) == 3

    def test_status_line_contents(self):
        prog = self._progress(total=3)
        prog.note_complete(None)
        prog.note_attempt_seconds(2.0)
        line = prog.status_line()
        assert line == "sweep: 1/3 done | attempt EWMA 2.00s | ETA 4s"

    def test_validation(self):
        with pytest.raises(ExperimentError):
            SweepProgress(-1)
        with pytest.raises(ExperimentError):
            SweepProgress(1, interval=-0.1)
