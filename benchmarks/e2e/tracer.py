"""Span tracing from outside the program: wrap per-step entry points.

The harness records spans around the calls *into* each layer; the
program's own ``SpanProfiler`` stays off.  ``TARGETS`` names per-step
public entry points only — per-task functions (``Operator.apply``,
``Workset.add``, ``CCGraph.add_edge``) are not wrapped: they are counted
from the ``RunResult`` and their time is the self time of the enclosing
span.  A target that no longer exists is skipped and reported, never
failed, so the end-to-end metrics keep working when a layer is deleted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (span name, module, class or None, attribute).  A class target wraps
#: the attribute on the class and on every imported subclass that
#: defines its own; a ``None`` class wraps a module-level function in
#: every ``repro`` module that imported it by name.
TARGETS = (
    ("registry.create", "repro.registry", "Registry", "create"),
    ("core.step", "repro.runtime.core", "Engine", "step"),
    ("control.propose", "repro.control.base", "Controller", "propose"),
    ("control.observe", "repro.control.base", "Controller", "observe"),
    ("policies.select", "repro.runtime.core", "OrderPolicy", "select"),
    ("policies.execute", "repro.runtime.core", "OrderPolicy", "execute"),
    ("policies.apply", "repro.runtime.core", "OrderPolicy", "apply"),
    ("workset.take", "repro.runtime.workset", "Workset", "take"),
    ("workset.take", "repro.runtime.workset", "ArrivalWorkset", "take_window"),
    ("workset.take", "repro.runtime.policies", "PriorityWorkset", "take_earliest"),
    ("workset.take", "repro.runtime.policies", "PriorityWorkset", "take_window"),
    ("conflict.resolve", "repro.runtime.conflict", "ConflictPolicy", "resolve"),
    ("conflict.resolve", "repro.runtime.conflict", "ConflictPolicy", "resolve_fast"),
    ("costs.charge", "repro.runtime.costs", "CostModel", "charge"),
    ("partition.partition", "repro.graph.partition", None, "partition_graph"),
    ("sharded.pool_lifecycle", "repro.runtime.sharded", "ShardPool", "__init__"),
    ("sharded.pool_lifecycle", "repro.runtime.sharded", "ShardPool", "_spawn"),
    ("sharded.pool_lifecycle", "repro.runtime.sharded", "ShardPool", "close"),
    ("sharded.pool_resolve", "repro.runtime.sharded", "ShardPool", "resolve"),
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """One traced run: spans kept in memory as name/start/end/parent columns.

    ``parent`` is the index of the enclosing span (``-1`` at the root),
    taken from a stack, so self time = duration - children.  All spans of
    one tracer share its ``trace_id``.  Columns of strings, floats and
    ints rather than one record per span: a record is a container the
    cyclic garbage collector tracks, and 10^5 of them trigger full
    collections that the untraced run never pays.
    """

    def __init__(self, trace_id: int = 0):
        self.trace_id = trace_id
        self.names: "list[str]" = []
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self.parents: "list[int]" = []
        self.missing: "list[str]" = []
        self._stack: "list[int]" = [-1]  # sentinel: the root has no parent
        self._patched: "list[tuple[object, str, object]]" = []

    @property
    def spans(self):
        """Rows ``(name, start, end, parent)``."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self._wrap(name, original.__func__))
        else:
            wrapped = self._wrap(name, original)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for name, module_name, class_name, attr in TARGETS:
            label = f"{module_name}:{class_name + '.' if class_name else ''}{attr}"
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if class_name is None:
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").startswith("repro")
                        and mod.__dict__.get(attr) is original
                    ):
                        self._patch(mod, attr, name)
                continue
            for cls in (owner, *_subclasses(owner)):
                own = cls.__dict__.get(attr)
                # abstract declarations carry no work; concrete overrides do
                if callable(own) and not getattr(own, "__isabstractmethod__", False):
                    self._patch(cls, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------
    def root_seconds(self) -> float:
        """Time covered by top-level spans (what the trace accounts for)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def totals(self) -> "dict[str, dict]":
        """Per span name: outermost ``calls``, ``inclusive`` seconds (a
        span nested under one of the same name is not counted twice),
        ``self`` seconds, and the outermost ``durations``."""
        names, parents = self.names, self.parents
        child_time = [0.0] * len(names)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: "dict[str, dict]" = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "inclusive": 0.0, "self": 0.0, "durations": []}
            )
            duration = end - start
            agg["self"] += duration - child_time[i]
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:  # no ancestor of the same name
                agg["calls"] += 1
                agg["inclusive"] += duration
                agg["durations"].append(duration)
        return out

    def dump(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "missing": self.missing,
            "spans": [list(row) for row in self.spans],
        }
