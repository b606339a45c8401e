"""Sets of runs: ``--suite``, ``--compare``, ``--aa`` and ``--selftest``.

A *suite* runs every declared workload in a fresh process per run (the
same command the driver uses) over one or more seeds and keeps every
value.  ``compare`` judges two suites by the bounds of ``BENCHMARK.json``;
``aa`` runs two suites of the same code, which must agree.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def declared() -> dict:
    """The benchmark contract: workloads, metrics, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    child = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            *("--workload", workload, "--seed", str(seed)),
            *("--seconds", str(seconds), "--trace", str(trace)),
        ],
        capture_output=True,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{child.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if child.returncode != 0 or not result["correct"]:
        print(child.stderr[-2000:], file=sys.stderr)
    return result


def run_suite(seed: int, seeds: int, seconds: float) -> dict:
    """Every workload: end-to-end over *seeds* seeds from *seed*, and one
    traced run at the first seed."""
    out: dict = {}
    for spec in declared()["workloads"]:
        name = spec["name"]
        entry = out[name] = {"seeds": [], "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for s in range(seed, seed + seeds):
            t0 = time.perf_counter()
            result = _run_one(name, s, seconds, trace=0)
            entry["seeds"].append(s)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, cell in result["metrics"].items():
                entry["end_to_end"].setdefault(metric, []).append(cell["value"])
            print(
                f"{name} seed {s}: {time.perf_counter() - t0:.1f} s wall, "
                f"failed {result['failed']}/{result['attempted']}",
                file=sys.stderr,
            )
        traced = _run_one(name, seed, seconds, trace=1)
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        entry["per_layer"] = {m: cell["value"] for m, cell in traced["metrics"].items()}
    return out


def save(path: str, suite: dict) -> None:
    Path(path).write_text(json.dumps(suite, indent=1, sort_keys=True))


def spread(values: "list[float]") -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(spec: dict, a_values: "list[float]", b_values: "list[float]") -> "tuple[float, str]":
    """``(share by which B is worse than A, verdict)`` for one metric.

    ``regressed``: B's median is worse by more than the bound.
    ``unresolved``: the spread between runs is wider than the bound.
    ``improved``: B wins >= 9/10 of the seed-paired runs and the medians
    differ by more than A's own spread (the bound, with a single run).
    """
    a, b = statistics.median(a_values), statistics.median(b_values)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (b - a) / abs(a) if a else 0.0
    noise = max(spread(a_values), spread(b_values))
    if worse > spec["bound"]:
        return worse, "regressed"
    if noise > spec["bound"]:
        return worse, "unresolved"
    pairs = list(zip(a_values, b_values))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    floor = spread(a_values) if len(a_values) >= 2 else spec["bound"]
    if -worse > floor and wins >= 0.9 * len(pairs):
        return worse, "improved"
    return worse, "unchanged"


def compare(a: dict, b: dict) -> "list[tuple]":
    """Rows ``(workload, metric, median A, median B, worse share, spread A,
    spread B, verdict)``; per-layer rows carry no bound, hence no verdict."""
    contract = declared()
    rows = []
    for spec in contract["workloads"]:
        name = spec["name"]
        if name not in a or name not in b:
            rows.append((name, "-", 0.0, 0.0, 0.0, 0.0, 0.0, "missing"))
            continue
        for metric in contract["end_to_end"]:
            va = a[name]["end_to_end"].get(metric["name"])
            vb = b[name]["end_to_end"].get(metric["name"])
            if not va or not vb:
                rows.append((name, metric["name"], 0.0, 0.0, 0.0, 0.0, 0.0, "missing"))
                continue
            worse, word = verdict(metric, va, vb)
            medians = statistics.median(va), statistics.median(vb)
            rows.append((name, metric["name"], *medians, worse, spread(va), spread(vb), word))
        for metric in contract["per_layer"]:
            va = a[name]["per_layer"].get(metric["name"])
            vb = b[name]["per_layer"].get(metric["name"])
            if va is None or vb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (vb - va) / abs(va) if va else 0.0
            rows.append((name, metric["name"], va, vb, worse, 0.0, 0.0, "-"))
        if a[name]["failed"] or b[name]["failed"]:
            failed = a[name]["failed"], b[name]["failed"]
            rows.append((name, "failed_runs", *failed, 0.0, 0.0, 0.0, "regressed"))
    return rows


def print_rows(rows: "list[tuple]") -> None:
    print(
        f"{'workload':18} {'metric':40} {'A (base)':>13} {'B':>13} {'B worse by':>11} "
        f"{'spread A':>9} {'spread B':>9}  verdict"
    )
    for name, metric, va, vb, worse, sa, sb, word in rows:
        print(
            f"{name:18} {metric:40} {va:13.6g} {vb:13.6g} {100 * worse:+10.2f}% "
            f"{sa:9.4f} {sb:9.4f}  {word}"
        )


def compare_files(path_a: str, path_b: str) -> int:
    rows = compare(json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text()))
    print_rows(rows)
    return 1 if any(row[-1] in ("regressed", "missing") for row in rows) else 0


def aa(seed: int, seeds: int, seconds: float, keep: "str | None" = None) -> int:
    """Two suites of the same code: every end-to-end metric must agree
    within its bound, spreads must fit the bound (``setup_s`` excepted),
    and the simulated statistics must repeat exactly.  *keep* saves the
    two suites as ``<keep>.A.json`` / ``<keep>.B.json``."""
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    a = run_suite(seed, seeds, seconds)
    b = run_suite(seed, seeds, seconds)
    if keep:
        save(f"{keep}.A.json", a)
        save(f"{keep}.B.json", b)
    rows = [row for row in compare(a, b) if row[-1] != "-"]
    print_rows(rows)
    problems = []
    for name, metric, _, _, _, sa, sb, word in rows:
        if word in ("regressed", "missing"):
            problems.append(f"{name} {metric}: {word}")
        elif metric != "setup_s" and max(sa, sb) > bounds[metric]:
            problems.append(f"{name} {metric}: spread {max(sa, sb):.3f} > bound {bounds[metric]}")
        if metric.startswith("sim_") and a[name]["end_to_end"][metric] != b[name]["end_to_end"][metric]:
            problems.append(f"{name} {metric}: simulated statistic did not repeat")
    for problem in problems:
        print("A/A FAILED: " + problem)
    return 1 if problems else 0


def selftest(measure) -> int:
    """Every workload at ~1/20 scale through *measure* (``run.measure``):
    the emitted metric names must equal the declared ones, both ways, and
    every run must check out."""
    from workloads import WORKLOADS

    contract = declared()
    problems = []
    names = [w["name"] for w in contract["workloads"]]
    if names != list(WORKLOADS):
        problems.append(f"declared workloads {names} != implemented {list(WORKLOADS)}")
    t0 = time.perf_counter()
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, seed=1, seconds=0.2, trace=bool(trace), scale=0.05, import_runs=1)
            want = {m["name"] for m in contract[section]}
            got = set(result["metrics"])
            if got != want:
                problems.append(
                    f"{name} --trace {trace}: undeclared {sorted(got - want)}, "
                    f"not emitted {sorted(want - got)}"
                )
            problems += [f"bad metric name {m!r}" for m in got if not NAME_RE.match(m)]
            units = {m["name"]: m["unit"] for m in contract[section]}
            problems += [
                f"{name}: {m} emitted in {cell['unit']!r}, declared {units[m]!r}"
                for m, cell in result["metrics"].items()
                if m in units and cell["unit"] != units[m]
            ]
            if not result["correct"]:
                problems.append(f"{name} --trace {trace}: {result['failed']} failed runs")
    for problem in problems:
        print("SELFTEST FAILED: " + problem)
    print(f"selftest: {len(WORKLOADS)} workloads x 2 modes in {time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0
