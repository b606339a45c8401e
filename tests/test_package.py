"""Package-level checks: public API surface and __all__ hygiene."""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.utils",
    "repro.graph",
    "repro.model",
    "repro.runtime",
    "repro.control",
    "repro.apps",
    "repro.apps.delaunay",
    "repro.experiments",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_entries_exist(name):
    mod = importlib.import_module(name)
    for entry in getattr(mod, "__all__", []):
        assert hasattr(mod, entry), f"{name}.__all__ lists missing {entry}"


def test_version():
    import repro

    assert repro.__version__.count(".") == 2


def test_exception_hierarchy():
    from repro import errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, Exception)
        if name != "ReproError":
            assert issubclass(exc, errors.ReproError)


def test_paper_end_to_end_surface():
    """The README quickstart must work: graph -> workload -> controller -> run."""
    from repro.control import HybridController
    from repro.graph import gnm_random
    from repro.runtime import ConsumingGraphWorkload, make_engine

    graph = gnm_random(200, 8, seed=0)
    workload = ConsumingGraphWorkload(graph)
    engine = make_engine(workload, HybridController(rho=0.25), seed=1)
    result = engine.run()
    assert result.total_committed == 200
