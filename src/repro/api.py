"""High-level facade — config-driven runs and Galois-style loops.

The canonical entry point is :func:`run`, which executes a typed
:class:`repro.config.RunConfig` by resolving its named parts against
:mod:`repro.registry`::

    from repro import RunConfig, run

    result = run(RunConfig(workload="consuming", rho=0.25, seed=0),
                 graph=my_graph)

Experiments are not engine runs: run one by name with
:func:`repro.experiments.runner.run_experiment`.

For users who want the paper's machinery without a config object,
:func:`for_each` mirrors Galois' ``for_each``: an unordered amorphous
data-parallel loop with adaptive processor allocation, built as one
:class:`~repro.config.RunConfig` handed to :func:`run`.  Ordered loops
and explicit-graph runs go through :func:`run` directly
(``initial=`` + ``operator=`` + ``priority_of=``, or ``graph=``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from types import SimpleNamespace

from repro.config import RunConfig
from repro.control.base import Controller
from repro.errors import ConfigError, ReproError
from repro.graph.ccgraph import CCGraph
from repro.registry import (
    CONTROLLERS,
    ORDER_POLICIES,
    WORKLOADS,
    order_family,
    parse_order_spec,
    parse_workload_spec,
    workload_is_self_building,
    workset_for,
)
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.engine import make_engine
from repro.runtime.policies import PriorityWorkset
from repro.runtime.stats import RunResult
from repro.runtime.task import Operator, Task

__all__ = ["run", "for_each"]


def _as_task(item: object) -> Task:
    return item if isinstance(item, Task) else Task(payload=item)


def _coerce_config(config) -> RunConfig:
    if isinstance(config, RunConfig):
        return config
    if isinstance(config, dict):
        return RunConfig.from_dict(config)
    raise ConfigError(
        f"run() takes a RunConfig or a config dict, got {type(config).__name__}"
    )


def _controller_for(config: RunConfig, controller: "Controller | None") -> Controller:
    return controller if controller is not None else CONTROLLERS.create(
        config.controller, config
    )


def _task_loop(config: RunConfig, initial, operator, priority_of) -> SimpleNamespace:
    """The workload of ``run(initial=..., operator=..., [priority_of=...])``.

    Item locks over *operator*'s neighbourhoods decide conflicts.  With
    *priority_of* the loop requires in-order commits over a
    :class:`PriorityWorkset` seeded from ``(priority, payload)`` pairs;
    otherwise *initial* seeds the work-set ``config.order`` draws from.
    """
    if operator is None:
        raise ConfigError("initial= also needs operator=")
    order_name, order_kwargs = (
        parse_order_spec(config.order) if config.order is not None else (None, {})
    )
    if order_name == "sharded" and order_kwargs.get("shards", 1) > 1:
        raise ConfigError(
            f"order={config.order!r} partitions an explicit CC graph, but a "
            "task loop detects conflicts with item locks; run it under "
            'order="unordered", or pass graph= with a graph workload '
            '("replay", "consuming", "regenerating")'
        )
    by_priority = order_name is not None and order_family(order_name) == "priority"
    if priority_of is not None:
        if config.order is not None and not by_priority:
            raise ConfigError(
                f"order={config.order!r} ignores priorities; "
                "drop priority_of= or use an ordered/relaxed order"
            )
        pairs = list(initial)
        if not pairs:
            raise ReproError(
                "run(initial=..., priority_of=...) needs at least one "
                "(priority, payload) pair"
            )
        workset = PriorityWorkset()
        for prio, item in pairs:
            workset.add(_as_task(item), float(prio))
    else:
        tasks = [_as_task(item) for item in initial]
        if not tasks:
            raise ReproError(
                "run(initial=..., operator=...) needs at least one initial task"
            )
        if by_priority:
            raise ConfigError(
                f"order={config.order!r} ranks tasks by priority; pass "
                "priority_of= and (priority, payload) initial pairs"
            )
        workset = workset_for(config)
        workset.add_all(tasks)
    return SimpleNamespace(
        workset=workset,
        operator=operator,
        policy=ItemLockPolicy(),
        requires_order=priority_of is not None,
        priority_of=priority_of,
    )


def run(
    config,
    *,
    graph: "CCGraph | None" = None,
    initial: "Iterable | None" = None,
    operator: "Operator | None" = None,
    priority_of: "Callable[[Task], float] | None" = None,
    controller: "Controller | None" = None,
    seed=None,
    recorder=None,
    metrics=None,
    record_workload: "str | None" = None,
) -> RunResult:
    """Execute one :class:`~repro.config.RunConfig` and return its
    :class:`~repro.runtime.stats.RunResult`.

    Two mutually exclusive shapes, selected by the keyword inputs:

    * ``graph=`` given — build the configured workload
      (``config.workload``) over the graph, wire the configured
      controller, and return the engine's
      :class:`~repro.runtime.stats.RunResult`.  Self-building workloads
      — the applications (``workload="boruvka"`` …, which synthesise a
      seeded input) and trace replays (``workload="trace:<path>"``) —
      also run with no ``graph=`` at all;
    * ``initial=`` + ``operator=`` given — run a task loop (in priority
      order when ``priority_of=`` is supplied) and return its
      ``RunResult``.  A task loop is a workload like any other: item
      locks over the operator's neighbourhoods decide its conflicts.

    Every engine run then takes one path: the optional workload capture,
    the commit order, and :func:`~repro.runtime.engine.make_engine`.
    ``record_workload=`` wraps the workload — graph, application, trace
    or task loop — in a :class:`~repro.runtime.wktrace.WorkloadCapture`
    and saves the recorded :class:`~repro.runtime.wktrace.WorkloadTrace`
    to that path after the run, for later ``workload="trace:<path>"``
    replays.

    ``config.order`` selects the commit-order policy
    (``"unordered"``, ``"ordered"``, ``"relaxed:k"``, ``"async[:w]"`` or
    a registered third-party name): every run executes on the
    step-pipeline core :class:`~repro.runtime.core.Engine` with that
    policy, over the work-set family the policy requires (graph runs
    rank tasks by node id; ordered/relaxed task loops need
    ``priority_of=``).  ``order=None`` commits unordered, except task
    loops with ``priority_of=`` and workloads that require in-order
    commits, which commit in strict priority order.

    All names (``workload``, ``controller``, ``order``) resolve through
    :mod:`repro.registry`, so anything a third party has
    :func:`repro.register`-ed is accepted.  An explicit *controller*
    instance overrides ``config.controller``; an explicit
    int *seed* overrides ``config.seed`` everywhere — engine draws and
    whatever the workload factory seeds from the config — so the same
    ``(config, seed=)`` always reproduces the same run.  Unlike
    ``config.seed``, *seed* may also be a ``numpy.random.Generator``: it
    then drives the engine only, and the workload keeps ``config.seed``.
    *config* may also be a config dict (:meth:`RunConfig.from_dict` input).
    """
    config = _coerce_config(config)
    if seed is None:
        seed = config.seed
    elif isinstance(seed, int) and not isinstance(seed, bool) and seed != config.seed:
        # workload factories seed their own RNGs (rewiring, synthetic
        # inputs) from the config: hand them the seed this run really uses
        config = config.with_seed(seed)

    workload_name, workload_kwargs = parse_workload_spec(config.workload)
    if graph is not None or (
        initial is None and operator is None and workload_is_self_building(workload_name)
    ):
        if initial is not None or operator is not None:
            raise ConfigError("pass either graph= or initial=/operator=, not both")
        if workload_name == "replay" and config.max_steps is None:
            raise ReproError("replay workloads never drain; pass max_steps")
        workload = WORKLOADS.create(workload_name, graph, config, **workload_kwargs)
        label = workload_name
    elif initial is not None:
        workload = _task_loop(config, initial, operator, priority_of)
        label = "task-loop"
    else:
        raise ConfigError(
            "run() needs a graph=, initial=/operator=, or a self-building "
            "workload (an application name or trace:<path>); run experiments "
            "with repro.experiments.runner.run_experiment(name)"
        )
    if record_workload is not None:
        from repro.runtime.wktrace import WorkloadCapture

        workload = WorkloadCapture(workload, label=label)
    order = None
    if config.order is not None:
        # explicit commit order: the workload already matched its
        # work-set to the order family (workset_for), so only the policy
        # itself is built here.  Priority-family policies rank tasks by
        # the workload's own priority (event times for DES, priority_of=
        # for task loops; node id — the canonical graph priority —
        # otherwise), and every family shares the workload's conflict
        # policy, so ordered, relaxed and unordered runs detect the same
        # conflicts.
        name, kwargs = parse_order_spec(config.order)
        if record_workload is not None and name == "sharded":
            raise ConfigError(
                "record_workload= is not supported under the sharded "
                "commit order; record unsharded, then replay the trace "
                'with order="sharded:N"'
            )
        if getattr(workload, "requires_order", False) and order_family(name) != "priority":
            raise ConfigError(
                f"workload {label!r} requires in-order commits "
                f'(order="ordered" or "relaxed:k"), got order={config.order!r}'
            )
        if order_family(name) == "priority":
            priority_fn = getattr(workload, "priority_of", None)
            kwargs["priority_of"] = (
                priority_fn
                if priority_fn is not None
                else (lambda task: float(task.payload))
            )
        order = ORDER_POLICIES.create(name, conflict_policy=workload.policy, **kwargs)
    engine = make_engine(
        workload,
        _controller_for(config, controller),
        order=order,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
    )
    result = engine.run(max_steps=config.max_steps)
    if record_workload is not None:
        workload.save(record_workload)
    return result


def for_each(
    initial: Iterable[object],
    operator: Operator,
    rho: float = 0.25,
    controller: Controller | None = None,
    m_max: int = 1024,
    max_steps: int | None = None,
    seed=None,
    recorder=None,
    metrics=None,
) -> RunResult:
    """Run an unordered amorphous data-parallel loop to completion.

    *initial* seeds the work-set (plain payloads are wrapped into
    :class:`Task`); *operator* supplies neighbourhoods and commit
    behaviour; processor allocation adapts via Algorithm 1 targeting
    *rho* unless an explicit *controller* is given.  *recorder* /
    *metrics* attach an observability sink (see :mod:`repro.obs`); by
    default the process-wide active ones are used if set.
    """
    config = RunConfig(rho=rho, m_max=m_max, max_steps=max_steps, workload="consuming")
    return run(
        config,
        initial=initial,
        operator=operator,
        controller=controller,
        seed=seed,
        recorder=recorder,
        metrics=metrics,
    )

