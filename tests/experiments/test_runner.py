"""Tests for the experiment CLI runner."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "example1",
            "theory",
            "adaptation",
            "apps",
            "ablation",
            "ordered",
            "pareto",
            "costs",
            "relaxation",
            "sharding",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            run_experiment("nope")

    def test_quick_run_returns_result(self):
        res = run_experiment("example1", seed=0, quick=True)
        assert res.name.startswith("EX1")


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["example1", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "EX1" in out

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_output_dir_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["example1", "--quick", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "example1.txt").exists()
        assert (out / "example1.json").exists()
        # example1 has no series, so no SVG
        assert not (out / "example1.svg").exists()

    def test_output_dir_svg_for_series_experiments(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["fig3", "--quick", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "fig3.svg").exists()

    def test_seed_changes_nothing_in_exact_values(self, capsys):
        main(["example1", "--quick", "--seed", "1"])
        first = capsys.readouterr().out
        main(["example1", "--quick", "--seed", "1"])
        second = capsys.readouterr().out
        assert first == second


class TestObservabilityFlags:
    def test_profile_prints_span_tree(self, capsys):
        assert main(["fig3", "--quick", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "step:" in out and "resolve:" in out
        assert "profile:" in out and "phase coverage" in out

    def test_profile_every_samples_steps(self, capsys):
        assert main(["fig3", "--quick", "--profile", "--profile-every", "4"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "step:" in out

    def test_profile_every_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--quick", "--profile-every", "0"])

    def test_telemetry_out_writes_both_files(self, capsys, tmp_path):
        import json

        from repro.obs import restore_registry

        base = tmp_path / "tele" / "run"
        assert main(["fig3", "--quick", "--telemetry-out", str(base)]) == 0
        out = capsys.readouterr().out
        prom = base.with_name("run.prom")
        js = base.with_name("run.json")
        assert prom.exists() and js.exists()
        assert f"telemetry: wrote {prom} and {js}" in out
        text = prom.read_text(encoding="utf-8")
        assert text.endswith("# EOF\n") and "engine_steps_total" in text
        restored = restore_registry(json.loads(js.read_text(encoding="utf-8")))
        assert "engine.steps" in restored.names()
        # --telemetry-out alone implies collection but not the printed dump
        assert "metrics:" not in out

    def test_trace_summary_reports_dropped_events(self, capsys, tmp_path, monkeypatch):
        # shrink the ring so the run wraps it; the head of the trace is
        # dropped but the surviving complete run must still replay
        import repro.obs

        real_recording = repro.obs.recording
        monkeypatch.setattr(
            repro.obs,
            "recording",
            lambda path=None: real_recording(path, capacity=200),
        )
        trace = tmp_path / "trace.jsonl"
        assert main(["fig3", "--quick", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dropped by the ring" in out
        assert "deterministic replay OK" in out

    def test_trace_summary_silent_when_complete(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["example1", "--quick", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dropped" not in out

    def test_trace_with_worker_processes_is_a_config_error(self, capsys, tmp_path):
        # worker processes cannot record into the parent's trace
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--quick", "--trace", str(trace), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err
        assert not trace.exists()

    def test_trace_with_cache_dir_records_the_inline_runs(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        args = ["fig3", "--quick", "--trace", str(trace), "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out and "deterministic replay OK" in out

    def test_live_enables_sweep_mode_and_emits_status(self, capsys):
        assert main(["example1", "--quick", "--live"]) == 0
        captured = capsys.readouterr()
        assert "[sweep] example1" in captured.err
        assert "sweep: 1/1 done" in captured.err
