"""Plugin registry: lookup errors, duplicate protection, third-party entries."""

import pytest

import repro
from repro.config import RunConfig
from repro.errors import RegistryError, ReproError
from repro.registry import (
    CONTROLLERS,
    EXPERIMENTS,
    Registry,
    register,
    registry,
)


class TestRegistryBasics:
    def test_unknown_name_lists_available_entries(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        reg.register("beta", lambda: 2)
        with pytest.raises(RegistryError, match=r"unknown widget 'gamma'") as exc:
            reg.get("gamma")
        # the error is the documentation: every entry, sorted
        assert "alpha, beta" in str(exc.value)

    def test_unknown_name_on_empty_registry(self):
        reg = Registry("widget")
        with pytest.raises(RegistryError, match=r"\(none registered\)"):
            reg.get("anything")

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("alpha", lambda: 2)
        # the original entry survives the rejected overwrite
        assert reg.create("alpha") == 1

    def test_overwrite_replaces_deliberately(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        reg.register("alpha", lambda: 2, overwrite=True)
        assert reg.create("alpha") == 2

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("alpha")
        def make():
            return "made"

        assert make() == "made"  # the decorator returns the factory unchanged
        assert reg.create("alpha") == "made"

    def test_bad_names_and_factories_rejected(self):
        reg = Registry("widget")
        with pytest.raises(RegistryError, match="non-empty string"):
            reg.register("", lambda: 1)
        with pytest.raises(RegistryError, match="must be callable"):
            reg.register("alpha", 42)

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        reg.unregister("alpha")
        assert "alpha" not in reg
        with pytest.raises(RegistryError, match="unknown widget"):
            reg.unregister("alpha")

    def test_mapping_protocol(self):
        reg = Registry("widget")
        reg.register("beta", lambda: 2)
        reg.register("alpha", lambda: 1)
        assert list(reg) == ["alpha", "beta"]  # sorted
        assert len(reg) == 2
        assert "alpha" in reg and "gamma" not in reg

    def test_registry_error_is_a_value_error(self):
        # callers using the historical except-ValueError contract keep working
        assert issubclass(RegistryError, ValueError)
        assert issubclass(RegistryError, ReproError)


class TestBuiltinRegistries:
    def test_kind_lookup(self):
        assert registry("controller") is CONTROLLERS
        with pytest.raises(RegistryError, match="unknown registry kind"):
            registry("nonsense")

    def test_builtin_entries_present(self):
        assert "hybrid" in CONTROLLERS
        assert "fig1" in EXPERIMENTS
        assert "unordered" in registry("order-policy")
        assert "replay" in registry("workload")

    @pytest.mark.parametrize("kind", ["engine", "select-backend", "conflict-policy"])
    def test_removed_registries_are_gone(self, kind):
        with pytest.raises(RegistryError, match="unknown registry kind"):
            registry(kind)

    def test_lazy_population_repr(self):
        reg = Registry("widget", populate=lambda r: r.register("a", lambda: 1))
        assert "unpopulated" in repr(reg)
        assert "a" in reg
        assert "1 entries" in repr(reg)


class TestWorksetFor:
    """``workset_for``: the work-set a config's commit order draws from."""

    @pytest.mark.parametrize(
        "order, requires_order, expected",
        [
            (None, False, "ActiveSet"),
            (None, True, None),  # the workload's own priority work-set
            ("unordered", True, "ActiveSet"),
            ("ordered", False, "PriorityWorkset"),
            ("ordered", True, "PriorityWorkset"),
            ("relaxed:4", True, "PriorityWorkset"),
            ("async:3", False, "ArrivalWorkset"),
        ],
    )
    def test_family_and_requires_order(self, order, requires_order, expected):
        from repro.registry import workset_for

        workset = workset_for(RunConfig(order=order), requires_order=requires_order)
        assert (None if workset is None else type(workset).__name__) == expected


class TestThirdPartyRoundTrip:
    def test_registered_experiment_runs_through_api(self):
        calls = []

        @register("experiment", "test-registry-exp")
        def _factory(seed, quick):
            calls.append((seed, quick))
            return {"seed": seed, "quick": quick}

        from repro.experiments.runner import run_experiment

        try:
            out = run_experiment("test-registry-exp", seed=7, quick=True)
        finally:
            EXPERIMENTS.unregister("test-registry-exp")
        assert calls == [(7, True)]
        assert out == {"seed": 7, "quick": True}

    def test_registered_controller_runs_through_api(self, small_graph):
        from repro.control.fixed import FixedController

        seen = []

        def _factory(config):
            seen.append(config.rho)
            return FixedController(4)

        register("controller", "test-registry-ctl", _factory)
        try:
            result = repro.run(
                RunConfig(
                    workload="consuming",
                    controller="test-registry-ctl",
                    rho=0.3,
                    seed=0,
                ),
                graph=small_graph,
            )
        finally:
            CONTROLLERS.unregister("test-registry-ctl")
        assert seen == [0.3]
        assert result.total_committed > 0

    def test_unknown_experiment_through_run_experiment(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("no-such-experiment")


class _BareWorkload:
    """A third-party workload: ``workset``, ``operator`` and ``policy`` only.

    Each node is one task that locks ``node % 5`` (heavy contention) and
    is consumed on commit; :attr:`committed` lists payloads in commit
    order.
    """

    def __init__(self, graph, workset):
        from repro.runtime.conflict import ItemLockPolicy
        from repro.runtime.task import CallbackOperator, Task

        self.committed = []
        self.operator = CallbackOperator(
            neighborhood=lambda t: {t.payload % 5},
            apply=lambda t: self.committed.append(t.payload) or [],
        )
        self.policy = ItemLockPolicy()
        self.workset = workset
        for node in graph.nodes():
            task = Task(payload=node)
            if hasattr(workset, "take_earliest"):
                workset.add(task, self.priority_of(task))
            else:
                workset.add(task)

    def priority_of(self, task):
        return float(task.payload)


class _BareOrderedWorkload(_BareWorkload):
    """Ordered-only variant: commits must follow :meth:`priority_of`."""

    requires_order = True

    def priority_of(self, task):
        return float((task.payload * 7) % 60)  # a permutation of 0..59


class TestWorkloadProtocol:
    """Any object with ``workset`` / ``operator`` / ``policy`` runs."""

    @staticmethod
    def _run(workload_cls, make_workset, graph, order=None):
        from repro.registry import WORKLOADS

        built = []

        def _factory(graph, config):
            built.append(workload_cls(graph, make_workset(config)))
            return built[-1]

        register("workload", "test-bare", _factory)
        try:
            result = repro.run(
                RunConfig(workload="test-bare", order=order, max_steps=500, seed=0),
                graph=graph,
            )
        finally:
            WORKLOADS.unregister("test-bare")
        return result, built[0]

    @pytest.mark.parametrize("order", [None, "unordered", "ordered"])
    def test_bare_workload_runs_under_every_order(self, small_graph, order):
        from repro.registry import workset_for

        assert not hasattr(_BareWorkload, "make_engine")
        result, wl = self._run(_BareWorkload, workset_for, small_graph, order)
        assert result.total_committed == 60
        assert sorted(wl.committed) == list(range(60))
        if order == "ordered":
            assert wl.committed == list(range(60))

    def test_requires_order_commits_in_priority_order_by_default(self, small_graph):
        from repro.runtime.policies import PriorityWorkset

        result, wl = self._run(
            _BareOrderedWorkload, lambda config: PriorityWorkset(), small_graph
        )
        assert result.total_aborted > 0  # the order had contention to settle
        assert wl.committed == sorted(range(60), key=lambda u: (u * 7) % 60)

@pytest.fixture
def small_graph():
    from repro.graph.generators import random_regular

    return random_regular(n=60, d=4, seed=0)
