"""Tests for repro.testing.faults — spec matching, DSL, serialisation."""

import pytest

from repro.errors import FaultInjectionError, InjectedFault
from repro.testing import FaultPlan, FaultSpec


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("explode")

    def test_negative_attempt_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("raise", attempts=(-1,))

    def test_nonpositive_hang_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("hang", seconds=0)

    def test_matching_on_experiment_and_attempt(self):
        spec = FaultSpec("raise", experiment="fig2", attempts=(0, 2))
        assert spec.matches("fig2", 0)
        assert spec.matches("fig2", 2)
        assert not spec.matches("fig2", 1)
        assert not spec.matches("fig3", 0)

    def test_wildcards(self):
        spec = FaultSpec("raise", experiment=None, attempts=None)
        assert spec.matches("anything", 0)
        assert spec.matches("else", 99)

    def test_dict_roundtrip(self):
        spec = FaultSpec("hang", experiment="fig1", attempts=(1,), seconds=2.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_malformed_dict_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec.from_dict({"experiment": "fig1"})  # no kind


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_harmless(self):
        plan = FaultPlan()
        assert not plan
        plan.fire("fig1", 0)  # no-op
        assert plan.describe() == "no faults"

    def test_non_spec_entries_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(("raise",))

    def test_fire_raise(self):
        plan = FaultPlan((FaultSpec("raise", experiment="fig1"),))
        with pytest.raises(InjectedFault, match="fig1 attempt 0"):
            plan.fire("fig1", 0)
        plan.fire("fig1", 1)  # attempt 1 not matched: no-op
        plan.fire("fig2", 0)  # other experiment: no-op

    def test_needs_isolation(self):
        assert not FaultPlan((FaultSpec("raise"),)).needs_isolation
        assert not FaultPlan((FaultSpec("corrupt-cache"),)).needs_isolation
        assert FaultPlan((FaultSpec("hang"),)).needs_isolation
        assert FaultPlan((FaultSpec("exit"),)).needs_isolation
        assert FaultPlan((FaultSpec("kill"),)).needs_isolation

    def test_corrupts_cache_matching(self):
        plan = FaultPlan((FaultSpec("corrupt-cache", experiment="fig1"),))
        assert plan.corrupts_cache("fig1", 0)
        assert not plan.corrupts_cache("fig2", 0)

    def test_corrupt_cache_entry_truncates(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text('{"key": "abc", "result": {}}', encoding="utf-8")
        before = path.read_bytes()
        FaultPlan.corrupt_cache_entry(path)
        after = path.read_bytes()
        assert len(after) == len(before) // 2
        assert before.startswith(after)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            (
                FaultSpec("exit", experiment="fig3", attempts=(0,)),
                FaultSpec("raise", attempts=None),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_parse_json_form(self):
        plan = FaultPlan((FaultSpec("raise", experiment="fig1"),))
        assert FaultPlan.parse(plan.to_json()) == plan

    def test_parse_bad_json_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("{not json")


class TestFaultPlanDSL:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("exit:fig3:0;raise:*:0,1")
        assert plan.specs == (
            FaultSpec("exit", experiment="fig3", attempts=(0,)),
            FaultSpec("raise", experiment=None, attempts=(0, 1)),
        )

    def test_parse_defaults(self):
        (spec,) = FaultPlan.parse("raise").specs
        assert spec == FaultSpec("raise", experiment=None, attempts=(0,))

    def test_parse_wildcard_attempts(self):
        (spec,) = FaultPlan.parse("hang:fig2:*").specs
        assert spec.attempts is None

    def test_parse_empty_is_empty_plan(self):
        assert FaultPlan.parse("  ") == FaultPlan()

    def test_parse_rejects_garbage(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("raise:fig1:zero")
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("a:b:c:d")
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("warp:fig1")

    def test_removed_at_spelling_is_a_malformed_spec(self):
        # "kill@shard:2" addressed shard-pool workers; with the pool gone
        # it must not parse into a plan with a "kill@shard" kind
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultPlan.parse("kill@shard:2")

    def test_describe_roundtrips_through_parse(self):
        plan = FaultPlan.parse("exit:fig3:0;raise:*:0,1;hang:fig2:*")
        assert FaultPlan.parse(plan.describe()) == plan
