"""Apps as first-class registry workloads.

The apps layer is reached the same way as every built-in workload: a
name in the ``"workload"`` registry, optionally with a ``:<scale>``
suffix, flowing through ``run(RunConfig(...))`` and composing with any
commit order and selection backend.  These tests pin the registry
surface — spec parsing, self-building inputs, explicit inputs, the
``requires_order`` contract — across the whole catalog.
"""

import pytest

from repro import RunConfig
from repro.api import run
from repro.apps import (
    APP_WORKLOADS,
    DEFAULT_SCALES,
    ORDERED_APPS,
    build_app_input,
    workload_from_input,
)
from repro.errors import ConfigError
from repro.registry import WORKLOADS, parse_workload_spec

#: scales small enough that the full matrix of combinations stays fast
QUICK = {
    "boruvka": 40,
    "clustering": 30,
    "coloring": 40,
    "components": 40,
    "delaunay": 12,
    "des": 4,
    "maxflow": 20,
    "sp": 8,
}


class TestSpecParsing:
    def test_bare_name_passes_through(self):
        assert parse_workload_spec("boruvka") == ("boruvka", {})
        assert parse_workload_spec("consuming") == ("consuming", {})

    def test_scale_suffix(self):
        assert parse_workload_spec("coloring:500") == ("coloring", {"scale": 500})

    def test_trace_suffix_is_a_path(self):
        assert parse_workload_spec("trace:runs/b.wktrace") == (
            "trace",
            {"path": "runs/b.wktrace"},
        )

    def test_empty_trace_path_rejected(self):
        with pytest.raises(ConfigError, match="trace"):
            parse_workload_spec("trace:")

    def test_non_integer_scale_rejected(self):
        with pytest.raises(ConfigError, match="integer scale"):
            parse_workload_spec("boruvka:big")

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ConfigError, match="scale >= 1"):
            parse_workload_spec("boruvka:0")

    def test_third_party_colon_name_passes_through(self):
        assert parse_workload_spec("vendor:thing") == ("vendor:thing", {})


class TestCatalog:
    def test_every_app_is_registered(self):
        for name in APP_WORKLOADS:
            assert name in WORKLOADS
        assert "trace" in WORKLOADS

    def test_every_app_has_a_default_scale(self):
        assert set(DEFAULT_SCALES) == set(APP_WORKLOADS)

    @pytest.mark.parametrize("name", sorted(APP_WORKLOADS))
    def test_requires_order_matches_catalog(self, name):
        source = build_app_input(name, QUICK[name], seed=0)
        app = workload_from_input(name, source, seed=0)
        assert getattr(app, "requires_order", False) == (name in ORDERED_APPS)


class TestSelfBuildingRuns:
    @pytest.mark.parametrize("name", sorted(APP_WORKLOADS))
    def test_runs_with_no_graph(self, name):
        res = run(RunConfig(workload=f"{name}:{QUICK[name]}", seed=3))
        assert res.total_committed > 0

    def test_same_seed_same_result(self):
        cfg = RunConfig(workload="components:40", seed=9)
        assert run(cfg).total_committed == run(cfg).total_committed

    def test_explicit_input_overrides_synthesis(self):
        source = build_app_input("coloring", 35, seed=1)
        res = run(RunConfig(workload="coloring", seed=1), graph=source)
        assert res.total_committed == 35  # one commit per node coloured


class TestOrderComposition:
    @pytest.mark.parametrize("order", ["unordered", "relaxed:2"])
    def test_unordered_app_accepts_any_order(self, order):
        res = run(RunConfig(workload="boruvka:40", seed=5, order=order))
        assert res.total_committed > 0

    def test_ordered_app_runs_under_priority_order(self):
        res = run(RunConfig(workload="des:4", seed=2, order="ordered"))
        assert res.total_committed > 0

    @pytest.mark.parametrize("order", ["unordered", "async"])
    def test_ordered_app_rejects_unordered_at_config(self, order):
        with pytest.raises(ConfigError, match="requires in-order commits"):
            RunConfig(workload="des:4", order=order)

    def test_ordered_app_rejects_unordered_at_api(self):
        # a config built without validation tripping (bare name resolved
        # late) must still be rejected by run() itself
        cfg = RunConfig(workload="des:4", seed=1)
        object.__setattr__(cfg, "order", "unordered")
        with pytest.raises(ConfigError, match="in-order commits"):
            run(cfg)

    @pytest.mark.parametrize(
        "name", ["boruvka", "maxflow", "coloring", "sp", "clustering", "components"]
    )
    def test_item_lock_app_rejects_multi_shard_order_before_any_step(self, name):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        config = {"workload": f"{name}:{QUICK[name]}", "seed": 1, "max_steps": 2}
        with pytest.raises(ConfigError, match=f"{name!r}.*explicit-graph workload"):
            run({**config, "order": "sharded:2"}, recorder=recorder)
        assert recorder.events == []  # rejected at config time: nothing ran
        # one shard *is* the unordered policy, on every app
        assert len(run({**config, "order": "sharded:1"}, recorder=recorder)) == 2

    def test_unknown_app_lists_the_catalog(self):
        from repro.errors import RegistryError
        from repro.graph.generators import gnm_random

        with pytest.raises(RegistryError, match="boruvka.*trace"):
            run(RunConfig(workload="not-an-app", seed=0), graph=gnm_random(5, 2, seed=0))

    def test_unknown_app_without_graph_points_at_the_catalog(self):
        with pytest.raises(ConfigError, match="self-building workload"):
            run(RunConfig(workload="not-an-app", seed=0))
