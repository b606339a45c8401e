"""Documentation hygiene tests."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestApiReference:
    def test_api_md_is_fresh(self):
        """docs/api.md must match the current public surface."""
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import gen_api_docs

            assert gen_api_docs.main(["--check"]) == 0
        finally:
            sys.path.pop(0)


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "pkg_name",
        [
            "repro.graph",
            "repro.model",
            "repro.runtime",
            "repro.control",
            "repro.apps",
            "repro.utils",
        ],
    )
    def test_every_public_item_documented(self, pkg_name):
        """Everything in __all__ carries a docstring."""
        pkg = importlib.import_module(pkg_name)
        undocumented = []
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if callable(obj) and not inspect.getdoc(obj):
                undocumented.append(name)
        assert not undocumented, f"{pkg_name}: missing docstrings: {undocumented}"

    def test_public_classes_document_public_methods(self):
        """Spot-check: core classes have fully documented public methods."""
        from repro.control import HybridController
        from repro.graph import CCGraph
        from repro.runtime import Engine

        for cls in (CCGraph, Engine, HybridController):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if not member.__qualname__.startswith(cls.__name__):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestRepoFiles:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/theory.md", "docs/architecture.md"],
    )
    def test_required_docs_exist_and_nontrivial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 500, f"{name} looks stubby"

    def test_examples_present(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (REPO / "examples" / "quickstart.py").exists()
