"""Typed configs: validation at construction and exact JSON round-trips."""

import json
from dataclasses import fields

import pytest

from repro.api import run
from repro.config import RunConfig
from repro.errors import ConfigError
from repro.graph.generators import gnm_random


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.workload == "replay"
        assert cfg.controller == "hybrid"
        assert cfg.rho == 0.25

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5, "quarter", None])
    def test_rho_outside_open_interval_rejected(self, rho):
        with pytest.raises(ConfigError, match="rho"):
            RunConfig(rho=rho)

    def test_rho_coerced_to_float(self):
        # ints inside (0,1) cannot exist, but numpy-ish floats normalise
        assert isinstance(RunConfig(rho=0.5).rho, float)

    def test_m_min_greater_than_m_max_rejected(self):
        with pytest.raises(ConfigError, match="empty allocation range"):
            RunConfig(m_min=64, m_max=32)

    def test_m_min_equal_m_max_allowed(self):
        cfg = RunConfig(m_min=32, m_max=32)
        assert (cfg.m_min, cfg.m_max) == (32, 32)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5),
        ("seed", True),  # bools are not seeds
        ("m", 0),
        ("m_min", 0),
        ("m_max", 0),
        ("max_steps", -1),
        ("workload", ""),
        ("controller", None),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    def test_fixed_controller_needs_m_at_construction(self):
        with pytest.raises(ConfigError, match="needs an explicit m.*m=None"):
            RunConfig(controller="fixed")
        assert RunConfig(controller="fixed", m=8).m == 8

    def test_m_rejected_where_it_would_be_ignored(self):
        with pytest.raises(ConfigError, match="no other controller reads one.*m=7"):
            RunConfig(controller="hybrid", m=7)

    def test_engine_run_fields_only(self):
        # an experiment is a name, a seed and a size for run_experiment;
        # a RunConfig describes one engine run
        assert [f.name for f in fields(RunConfig)] == [
            "seed", "workload", "controller", "rho", "m", "m_min", "m_max",
            "order", "max_steps",
        ]

    def test_frozen_and_hashable(self):
        cfg = RunConfig(workload="consuming")
        with pytest.raises(AttributeError):
            cfg.seed = 3
        assert cfg == RunConfig(workload="consuming")
        assert len({RunConfig(workload="consuming"), RunConfig(workload="consuming")}) == 1

    @staticmethod
    def _traces(config, **kwargs):
        result = run(config, graph=gnm_random(120, 6, seed=4), **kwargs)
        return result.m_trace.tolist(), result.committed_trace.tolist()

    def test_resolved_seed_explicit_passthrough(self):
        # run() resolves the seed it uses: the config's own, or the
        # keyword, which then also reaches the workload through the config
        cfg = RunConfig(workload="regenerating", max_steps=20)
        pinned = self._traces(cfg.with_seed(9))
        assert pinned == self._traces(cfg, seed=9)
        assert pinned == self._traces(cfg.with_seed(3), seed=9)

    def test_resolved_seed_derived_is_stable(self):
        cfg = RunConfig(workload="regenerating", max_steps=20, seed=0)
        first = self._traces(cfg)
        assert first == self._traces(cfg)
        assert first != self._traces(cfg.with_seed(1))

    def test_with_seed(self):
        cfg = RunConfig(workload="consuming").with_seed(5)
        assert cfg.seed == 5
        assert RunConfig(workload="consuming").seed is None  # original untouched


class TestRunConfigOrderValidation:
    @pytest.mark.parametrize(
        "order",
        ["unordered", "ordered", "relaxed:1", "relaxed:16", "async", "async:4"],
    )
    def test_known_specs_accepted_verbatim(self, order):
        assert RunConfig(order=order).order == order

    def test_unknown_policy_name_rejected_at_construction(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError, match="order policy") as err:
            RunConfig(order="chaotic")
        # the error enumerates the registry so typos are self-diagnosing
        for name in ("unordered", "ordered", "relaxed", "async"):
            assert name in str(err.value)

    @pytest.mark.parametrize(
        "order",
        [
            "",            # empty spec
            "relaxed",     # depth is mandatory
            "relaxed:0",   # depth must be >= 1
            "relaxed:two", # depth must be an int
            "ordered:3",   # strict order takes no parameter
            "async:x",     # window must be an int
        ],
    )
    def test_malformed_specs_rejected_at_construction(self, order):
        with pytest.raises(ConfigError):
            RunConfig(order=order)

    def test_order_round_trips_through_dict_and_json(self):
        cfg = RunConfig(workload="consuming", order="relaxed:8", seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert RunConfig.from_json(cfg.to_json()).order == "relaxed:8"


class TestRunConfigSerialisation:
    def test_round_trip_is_exact(self):
        cfg = RunConfig(
            seed=11, workload="consuming",
            controller="aimd", rho=0.4,
            m_min=2, m_max=256, max_steps=50, order="async:8",
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_json_is_canonical(self):
        text = RunConfig(workload="consuming").to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown RunConfig field"):
            RunConfig.from_dict({"workload": "consuming", "warp_factor": 9})

    #: RunConfig(workload="consuming", order="relaxed:8", seed=3).to_json()
    #: as an early version wrote it, with the since-removed conflict,
    #: engine, experiment, quick, select and shards fields
    OLD_JSON = (
        '{"conflict":"item-lock","controller":"hybrid","engine":null,'
        '"experiment":null,"m":null,"m_max":1024,"m_min":null,"max_steps":null,'
        '"order":"relaxed:8","quick":false,"rho":0.25,"seed":3,"select":null,'
        '"shards":null,"workload":"consuming"}'
    )

    def test_pre_removal_payloads_are_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"^unknown RunConfig field\(s\): "
            r"conflict, engine, experiment, quick, select, shards$",
        ):
            RunConfig.from_json(self.OLD_JSON)
        for removed in ("conflict", "experiment", "quick", "shards"):
            assert removed not in RunConfig().to_dict()

    @pytest.mark.parametrize(
        "field,value", [("engine", "reference"), ("select", "workset")]
    )
    def test_pinned_removed_fields_name_the_removal(self, field, value):
        payload = json.loads(self.OLD_JSON)
        payload[field] = value
        with pytest.raises(ConfigError, match=f"unknown RunConfig field\\(s\\): .*{field}"):
            RunConfig.from_dict(payload)

    def test_bad_payload_types_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(["consuming"])
        with pytest.raises(ConfigError, match="does not parse"):
            RunConfig.from_json("{not json")
