"""tools/bench_report.py: an unenforced gate is reported as not run."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_report  # noqa: E402 - needs the path tweak above


def _shard_row(data):
    (row,) = bench_report._extract_shard(data)
    return row, bench_report.render_markdown([row], [])


def test_checked_in_shard_gate_is_not_a_pass():
    # BENCH_shard.json was recorded on a 1-CPU runner: 0.41x against a
    # >= 2x gate that could not be enforced there
    data = json.loads((ROOT / "BENCH_shard.json").read_text(encoding="utf-8"))
    assert data["gate_enforced"] is False and data["speedup"] < data["gate_min_speedup"]
    row, table = _shard_row(data)
    assert row["pass"] is None
    assert "| not run |" in table and "| yes |" not in table


def test_enforced_shard_gate_passes_or_fails():
    base = {"gate_min_speedup": 2.0, "gate_enforced": True}
    row, table = _shard_row({**base, "speedup": 2.5})
    assert row["pass"] is True and "| yes |" in table
    row, table = _shard_row({**base, "speedup": 0.41})
    assert row["pass"] is False and "| **NO** |" in table
