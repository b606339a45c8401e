#!/usr/bin/env python
"""Import-layering lint for the ``repro`` package.

The codebase is layered — each module may import only from its own layer
or lower ones.  The intended order (low to high)::

    errors / _version
    utils / testing
    graph
    model
    runtime primitives (task, workset, conflict, kernels, costs, stats, ...)
    runtime.core
    runtime.policies
    runtime (engine, workloads, ...)
    control
    obs
    apps
    config
    registry
    experiments
    api / repro (package root)

A module-level import that reaches *up* the stack (a back-edge) couples a
low layer to a high one and eventually turns into an import cycle; this
lint fails CI on any such edge.  Imports inside functions/methods and
under ``if TYPE_CHECKING:`` are deliberately exempt — they are the
sanctioned mechanism for a lower layer to *optionally* use a higher one
at call time (e.g. the runtime attaching to an active ``repro.obs``
recorder).

A few *downward* edges are banned too (``FORBIDDEN_EDGES``): the apps
layer may not import ``repro.runtime.engine`` at module level — apps
describe workloads and do not wire engines; ``make_engine(workload,
controller)`` in the runtime layer picks the commit order that runs
them.

Usage::

    python tools/check_layers.py [--src src] [--verbose]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: layer rank per module prefix; longest (most specific) prefix wins.
#: a module may import only modules of equal or lower rank.
LAYERS: dict[str, int] = {
    "repro.errors": 0,
    "repro._version": 0,
    "repro.utils": 1,
    "repro.testing": 1,
    "repro.graph": 2,
    "repro.model": 3,
    # pure-array kernels shared by the model's estimators and the
    # runtime's fast path; depends on numpy alone, so it sits with graph
    "repro.runtime.kernels": 2,
    # the edge-cut partitioner is graph vocabulary (its kernel use is
    # call-time only), so it shares the graph layer
    "repro.graph.partition": 2,
    # runtime primitives every runtime module builds on
    "repro.runtime.task": 4,
    "repro.runtime.stats": 4,
    "repro.runtime.workset": 4,
    "repro.runtime.active_set": 4,
    "repro.runtime.costs": 4,
    "repro.runtime.conflict": 4,
    # the step pipeline, then the order policies plugged into it
    "repro.runtime.core": 5,
    "repro.runtime.policies": 6,
    # the rest of the runtime (make_engine, the one path from a
    # workload to an Engine; the workloads; the run_sharded alias,
    # whose call-time import of repro.api is the sanctioned up-reach)
    "repro.runtime": 7,
    "repro.runtime.sharded": 7,
    "repro.control": 8,
    "repro.obs": 9,
    "repro.apps": 10,
    "repro.config": 11,
    "repro.registry": 12,
    "repro.experiments": 13,
    "repro.api": 14,
    "repro": 15,  # the package root facade re-exports everything
}


#: module-level import edges banned even though they point *down* the
#: stack.  Each entry is (importer prefix, imported module, exact, why):
#: with ``exact`` False the imported module's submodules are covered
#: too; True bans only the named module (``repro.runtime`` itself is the
#: package facade whose __init__ pulls in the engine wiring, while its
#: primitive submodules stay importable).
FORBIDDEN_EDGES: "tuple[tuple[str, str, bool, str], ...]" = (
    (
        "repro.apps",
        "repro.runtime.engine",
        False,
        "apps describe workloads; runtime.engine.make_engine wires them",
    ),
    (
        "repro.apps",
        "repro.runtime",
        True,
        "the runtime package facade re-exports the engines; import the "
        "specific primitive submodule instead",
    ),
)


def _prefix_match(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def rank_of(module: str) -> "int | None":
    """Layer rank for *module*, or ``None`` for non-repro modules."""
    if module != "repro" and not module.startswith("repro."):
        return None
    candidate = module
    while candidate:
        if candidate in LAYERS:
            return LAYERS[candidate]
        if "." not in candidate:
            break
        candidate = candidate.rsplit(".", 1)[0]
    return None


def module_name(path: Path, src: Path) -> str:
    rel = path.relative_to(src).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _ImportCollector(ast.NodeVisitor):
    """Module-level imports only: function bodies and TYPE_CHECKING are exempt."""

    def __init__(self, module: str):
        self.module = module
        self.edges: "list[tuple[int, str]]" = []  # (lineno, imported module)

    # don't descend into code that runs at call time, not import time
    def visit_FunctionDef(self, node):  # noqa: N802 - ast API
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_If(self, node):  # noqa: N802 - ast API
        if self._is_type_checking(node.test):
            for clause in node.orelse:
                self.visit(clause)
            return
        self.generic_visit(node)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
            return True
        return (
            isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING"
            and isinstance(test.value, ast.Name)
        )

    def visit_Import(self, node):  # noqa: N802 - ast API
        for alias in node.names:
            self.edges.append((node.lineno, alias.name))

    def visit_ImportFrom(self, node):  # noqa: N802 - ast API
        if node.level:  # relative import: resolve against this module
            base = self.module.rsplit(".", node.level)[0] if "." in self.module else ""
            target = f"{base}.{node.module}" if node.module else base
        else:
            target = node.module or ""
        if target:
            self.edges.append((node.lineno, target))


def check_file(path: Path, src: Path) -> "list[str]":
    module = module_name(path, src)
    my_rank = rank_of(module)
    if my_rank is None:  # not part of the layered package
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    collector = _ImportCollector(module)
    collector.visit(tree)
    violations = []
    for lineno, imported in collector.edges:
        imported_rank = rank_of(imported)
        if imported_rank is None:  # stdlib / third-party
            continue
        if imported_rank > my_rank:
            violations.append(
                f"{path}:{lineno}: {module} (layer {my_rank}) imports "
                f"{imported} (layer {imported_rank}) — back-edge up the stack"
            )
            continue
        for importer, banned, exact, why in FORBIDDEN_EDGES:
            if not _prefix_match(module, importer):
                continue
            if imported == banned or (
                not exact and _prefix_match(imported, banned)
            ):
                violations.append(
                    f"{path}:{lineno}: {module} imports {imported} — "
                    f"forbidden edge: {why}"
                )
                break
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source root (default: src)")
    parser.add_argument(
        "--verbose", action="store_true", help="list every checked module"
    )
    args = parser.parse_args(argv)

    src = Path(args.src)
    package = src / "repro"
    if not package.is_dir():
        print(f"error: {package} is not a directory", file=sys.stderr)
        return 2

    files = sorted(package.rglob("*.py"))
    violations: list[str] = []
    for path in files:
        if args.verbose:
            print(f"checking {module_name(path, src)}")
        violations.extend(check_file(path, src))

    if violations:
        print(f"{len(violations)} layering violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(f"layering OK: {len(files)} modules, no back-edges")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
