#!/usr/bin/env python
"""Aggregate all ``BENCH_*.json`` artifacts into one trajectory table.

Every benchmark gate in CI writes a ``BENCH_<name>.json`` at the repo
root (uploaded as a ``bench-<name>`` artifact).  This tool folds
whichever of them are present into a single report — one row per gated
metric: which benchmark, the gate it is held to, the measured value,
whether it passes, and the PR that introduced it — as a markdown table
(``--md``) and/or a machine-readable JSON summary (``--json``).  The CI
``bench-report`` job downloads all ``bench-*`` artifacts into one
directory and uploads the combined report.

Missing files are noted, not fatal: the report of a partial artifact set
simply has fewer rows.  Exit code is 0 even when a gate row fails —
enforcement belongs to the individual bench jobs, this is the ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: every known benchmark artifact, in trajectory (PR) order
BENCH_FILES = (
    "BENCH_kernels.json",
    "BENCH_obs.json",
    "BENCH_steps.json",
    "BENCH_relaxed.json",
)


def _row(bench, metric, gate, measured, ok, pr):
    return {
        "bench": bench,
        "metric": metric,
        "gate": gate,
        "measured": measured,
        "pass": ok,
        "pr": pr,
    }


def _extract_kernels(data: dict) -> "list[dict]":
    rows = []
    gate = float(data["gate_min_speedup"])
    speedup = float(data["speedup"])
    rows.append(
        _row("kernels", "fast-path step speedup", f">= {gate}x",
             f"{speedup:.2f}x", speedup >= gate, 2)
    )
    policy = data.get("policy_resolve")
    if policy:
        gate = float(policy["gate_min_speedup"])
        speedup = float(policy["speedup"])
        rows.append(
            _row("kernels", "policy resolve speedup", f">= {gate}x",
                 f"{speedup:.2f}x", speedup >= gate, 6)
        )
    return rows


def _extract_obs(data: dict) -> "list[dict]":
    rows = []
    gate = float(data["gate_max_overhead"])
    overhead = float(data["overhead_fraction"])
    rows.append(
        _row("obs", "instrumentation overhead (median/step)",
             f"< {gate:.0%}", f"{overhead:.2%}", overhead < gate, 4)
    )
    cov_gate = float(data["gate_min_coverage"])
    coverage = float(data["span_coverage"])
    rows.append(
        _row("obs", "span coverage of step wall-clock",
             f">= {cov_gate:.0%}", f"{coverage:.2%}", coverage >= cov_gate, 4)
    )
    return rows


def _extract_steps(data: dict) -> "list[dict]":
    gate = float(data["gate_min_speedup"])
    speedup = float(data["speedup_vs_reference"])
    rows = [
        _row("steps", "incremental-select step speedup vs reference",
             f">= {gate}x", f"{speedup:.2f}x", speedup >= gate, 6)
    ]
    if "speedup_vs_fast" in data:
        rows.append(
            _row("steps", "incremental-select step speedup vs fast",
                 "(recorded)", f"{float(data['speedup_vs_fast']):.2f}x",
                 True, 6)
        )
    return rows


def _extract_relaxed(data: dict) -> "list[dict]":
    case = data["matched_work_case"]
    gate = float(case["gate_max_overhead"])
    overhead = float(case["overhead_vs_ordered"])
    return [
        _row("relaxed", "relaxed step overhead vs ordered (matched work)",
             f"<= {gate}x", f"{overhead:.3f}x", overhead <= gate, 7)
    ]


EXTRACTORS = {
    "BENCH_kernels.json": _extract_kernels,
    "BENCH_obs.json": _extract_obs,
    "BENCH_steps.json": _extract_steps,
    "BENCH_relaxed.json": _extract_relaxed,
}


def collect(directory: Path) -> "tuple[list[dict], list[str]]":
    """All gate rows found under *directory*, plus the missing file names."""
    rows: "list[dict]" = []
    missing: "list[str]" = []
    for name in BENCH_FILES:
        path = directory / name
        if not path.exists():
            missing.append(name)
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            rows.extend(EXTRACTORS[name](data))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            rows.append(
                _row(name.removeprefix("BENCH_").removesuffix(".json"),
                     f"unreadable artifact ({exc})", "-", "-", False, "?")
            )
    return rows, missing


def render_markdown(rows: "list[dict]", missing: "list[str]") -> str:
    """The trajectory table as GitHub-flavoured markdown."""
    lines = [
        "# Benchmark trajectory",
        "",
        "| Bench | Metric | Gate | Measured | Pass | PR |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        mark = "yes" if r["pass"] else "**NO**"
        lines.append(
            f"| {r['bench']} | {r['metric']} | {r['gate']} "
            f"| {r['measured']} | {mark} | {r['pr']} |"
        )
    if not rows:
        lines.append("| - | no artifacts found | - | - | - | - |")
    if missing:
        lines += ["", f"Missing artifacts: {', '.join(missing)}"]
    return "\n".join(lines) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-report",
        description="Aggregate BENCH_*.json gate results into one table.",
    )
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default: cwd)",
    )
    parser.add_argument(
        "--md", default=None, metavar="PATH",
        help="write the markdown table here (default: print to stdout)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the rows as machine-readable JSON",
    )
    args = parser.parse_args(argv)
    rows, missing = collect(Path(args.dir))
    markdown = render_markdown(rows, missing)
    if args.md is not None:
        Path(args.md).write_text(markdown, encoding="utf-8")
        print(f"wrote {args.md} ({len(rows)} rows)")
    else:
        print(markdown, end="")
    if args.json_out is not None:
        Path(args.json_out).write_text(
            json.dumps(
                {"rows": rows, "missing": missing}, indent=2, sort_keys=True
            ) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
