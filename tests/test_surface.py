"""The unreferenced-surface lint: the real tree passes, dead names are caught."""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_surface  # noqa: E402 - needs the path tweak above


def test_every_public_name_has_a_caller(capsys):
    assert check_surface.main(["--src", str(REPO / "src")]) == 0
    assert "surface OK" in capsys.readouterr().out


def test_allow_list_is_short_and_reasoned():
    assert len(check_surface.ALLOWED) < 25
    assert all(reason.strip() for reason in check_surface.ALLOWED.values())


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.core import used, planted\n__all__ = ['used', 'planted']\n"
    )
    (pkg / "core.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def planted(n):\n    return planted(n - 1) if n else 0\n\n\n"
        "def _private():\n    return 2\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro import used\nprint(used())\n"
    )
    return tmp_path / "src"


def test_planted_name_is_flagged(tree):
    # its only mentions are its own recursion and the __init__ re-export
    violations = check_surface.check(tree, allowed={})
    assert len(violations) == 1
    assert "repro.core.planted has no caller" in violations[0]


def test_planted_name_passes_once_allow_listed(tree):
    assert check_surface.check(tree, allowed={"repro.core.planted": "kept"}) == []
    assert check_surface.check(tree, allowed={"repro.*": "kept"}) == []


def test_a_caller_outside_src_counts(tree):
    (tree.parent / "tools").mkdir()
    (tree.parent / "tools" / "use.py").write_text(
        "import repro.core\nrepro.core.planted(3)\n"
    )
    assert check_surface.check(tree, allowed={}) == []


def test_stale_allow_list_entry_fails(tree):
    violations = check_surface.check(
        tree, allowed={"repro.core.planted": "kept", "repro.core.used": "stale"}
    )
    assert violations == [
        "allow-list entry 'repro.core.used' covers no unreferenced name — drop it"
    ]
