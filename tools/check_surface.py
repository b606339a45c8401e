#!/usr/bin/env python
"""Unreferenced-surface lint for the ``repro`` package.

Every public top-level ``def`` / ``class`` in ``src/`` must have a
caller.  A name counts as referenced when an AST ``Name``, an
``Attribute`` or an import alias spells it somewhere in ``src/``,
``examples/``, ``benchmarks/`` or ``tools/`` (the last three are looked
up next to ``--src``), except:

* inside the name's own ``def`` / ``class`` body (recursion is not a
  caller);
* in the import aliases of a package ``__init__`` under ``src/`` — a
  re-export is not a use; ``__all__`` lists and ``lazy_exports`` tables
  are strings, which never count.

Tests and docs are not callers: a helper that only its own tests and
``docs/api.md`` mention is surface the package carries for nothing.
Matching is by bare name, so the lint errs towards "referenced" when
two modules share a name.

Names that are public on purpose without a caller in the tree sit in
:data:`ALLOWED`, each with its reason; an entry ending in ``.*`` covers
every public name of one module.  An entry that no longer covers an
unreferenced name is stale and fails the check too, so the list only
shrinks as names gain callers.

Usage::

    python tools/check_surface.py [--src src]
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterator, Mapping
from pathlib import Path

from check_layers import module_name

#: directories, next to the source root, whose code counts as a caller
CALLER_DIRS = ("examples", "benchmarks", "tools")

#: public names with no caller in the tree, kept on purpose.  Key:
#: ``module.Name``, or ``module.*`` for every public name of a module.
ALLOWED: dict[str, str] = {
    "repro.graph.generators.gnp_random": "test-input generator (G(n, p) fuzz inputs)",
    "repro.graph.generators.random_geometric": "test-input generator (unit-disk fuzz inputs)",
    "repro.graph.generators.cycle_graph": "test-input generator (seating closed forms)",
    "repro.graph.morph.*": "morph helpers that drive the partition morph fuzz",
    "repro.model.*": "estimators and closed forms of the model layer, under rework",
    "repro.obs.recorder.load_jsonl": "documented trace loader (docs/observability.md)",
    "repro.obs.replay.ReplayController": (
        "replay driver of DESIGN.md's observability layer (tests/obs/test_replay.py)"
    ),
    "repro.obs.export.restore_registry": "documented inverse of snapshot_registry",
    "repro.testing.oracles.reference_max_flow": (
        "max-flow oracle PreflowPush is held to (tests/apps/test_maxflow.py)"
    ),
}


def public_defs(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level ``def`` / ``class`` statements whose name is public."""
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and not node.name.startswith("_"):
            yield node


def _spelled(node: ast.AST, *, count_aliases: bool) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif count_aliases and isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def references(tree: ast.Module, *, count_aliases: bool = True) -> set[str]:
    """Names *tree* spells outside the body of the def that defines them."""
    found: set[str] = set()
    for node in tree.body:
        names = set(_spelled(node, count_aliases=count_aliases))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(node.name)
        found |= names
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced(src: Path) -> "list[tuple[str, Path, int]]":
    """``(module.Name, path, line)`` of every public def nothing calls."""
    root = src.resolve().parent
    referenced: set[str] = set()
    defined: list[tuple[str, str, Path, int]] = []
    for path in sorted((src / "repro").rglob("*.py")):
        tree = _parse(path)
        module = module_name(path, src)
        referenced |= references(tree, count_aliases=path.name != "__init__.py")
        for node in public_defs(tree):
            defined.append((node.name, module, path, node.lineno))
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            referenced |= references(_parse(path))
    return [
        (f"{module}.{name}", path, line)
        for name, module, path, line in defined
        if name not in referenced
    ]


def _allowed_by(qualname: str, allowed: Mapping[str, str]) -> "str | None":
    if qualname in allowed:
        return qualname
    module = qualname.rsplit(".", 1)[0] + "."
    for entry in allowed:
        if entry.endswith(".*") and module.startswith(entry[:-1]):
            return entry
    return None


def check(src: Path, allowed: Mapping[str, str] = ALLOWED) -> "list[str]":
    """Violations: unreferenced names off the allow-list, and stale entries."""
    violations = []
    used: set[str] = set()
    for qualname, path, line in unreferenced(src):
        entry = _allowed_by(qualname, allowed)
        if entry is None:
            violations.append(
                f"{path}:{line}: {qualname} has no caller in src/, "
                f"{', '.join(d + '/' for d in CALLER_DIRS)} — delete it or "
                "allow-list it with a reason"
            )
        else:
            used.add(entry)
    for entry in allowed:
        if entry not in used:
            violations.append(
                f"allow-list entry {entry!r} covers no unreferenced name — "
                "drop it"
            )
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source root (default: src)")
    args = parser.parse_args(argv)

    src = Path(args.src)
    if not (src / "repro").is_dir():
        print(f"error: {src / 'repro'} is not a directory", file=sys.stderr)
        return 2

    violations = check(src)
    if violations:
        print(f"{len(violations)} surface violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(
        f"surface OK: every public name has a caller or one of "
        f"{len(ALLOWED)} allow-list reasons"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
