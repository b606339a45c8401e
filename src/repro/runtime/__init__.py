"""Optimistic parallelization runtime: tasks, work-sets, conflicts, engine."""

from repro.runtime.active_set import ActiveSet
from repro.runtime.conflict import (
    BatchOutcome,
    ConflictPolicy,
    ExplicitGraphPolicy,
    ItemLockPolicy,
)
from repro.runtime.costs import (
    CostModel,
    CostTotals,
    ScaledAbortCostModel,
    UnitCostModel,
)
from repro.runtime.core import Engine, OrderPolicy
from repro.runtime.engine import make_engine
from repro.runtime.policies import (
    ASYNC_DEFAULT_WINDOW,
    AsyncCommitOrder,
    OrderedBatchOutcome,
    OrderedCommitOrder,
    PriorityWorkset,
    RelaxedCommitOrder,
    ShardedCommitOrder,
    UnorderedCommitOrder,
)
from repro.runtime.sharded import run_sharded
from repro.runtime.stats import RunResult, StepStats
from repro.runtime.task import CallbackOperator, Operator, Task
from repro.runtime.wktrace import (
    TraceReplayWorkload,
    WorkloadCapture,
    WorkloadTrace,
)
from repro.runtime.workloads import (
    ConsumingGraphWorkload,
    GraphWorkloadBase,
    RegeneratingGraphWorkload,
    ReplayGraphWorkload,
)
from repro.runtime.workset import (
    ArrivalWorkset,
    RandomWorkset,
    Workset,
)

__all__ = [
    "ActiveSet",
    "CostModel",
    "CostTotals",
    "ScaledAbortCostModel",
    "UnitCostModel",
    "BatchOutcome",
    "ConflictPolicy",
    "ExplicitGraphPolicy",
    "ItemLockPolicy",
    "Engine",
    "OrderPolicy",
    "make_engine",
    "OrderedBatchOutcome",
    "OrderedCommitOrder",
    "PriorityWorkset",
    "RelaxedCommitOrder",
    "AsyncCommitOrder",
    "ASYNC_DEFAULT_WINDOW",
    "ShardedCommitOrder",
    "UnorderedCommitOrder",
    "run_sharded",
    "RunResult",
    "StepStats",
    "CallbackOperator",
    "Operator",
    "Task",
    "TraceReplayWorkload",
    "WorkloadCapture",
    "WorkloadTrace",
    "ConsumingGraphWorkload",
    "GraphWorkloadBase",
    "RegeneratingGraphWorkload",
    "ReplayGraphWorkload",
    "ArrivalWorkset",
    "RandomWorkset",
    "Workset",
]
