"""Pin the reference implementations, for differential tests.

The step loop picks its own resolution path: array kernels where they
win, the per-task walks everywhere else.  The walks are the oracles the
kernels are held to bit for bit, so a test needs a way to run a whole
seeded run on them and compare.  :func:`reference_paths` is that way for
conflict resolution; the selection oracle needs no helper — pass
``workset=RandomWorkset()`` to any workload constructor.
:func:`reference_max_flow` is the sequential answer the preflow-push
application is held to.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np

__all__ = ["reference_paths", "reference_max_flow"]


@contextmanager
def reference_paths():
    """Inside the block every batch resolves through the reference walks.

    ``ExplicitGraphPolicy``'s one gate sees a gather cut-over no batch
    can reach, so ``resolve_fast`` takes ``ConflictPolicy.resolve`` and
    the sharded commit order takes ``two_phase_commit_mask``: pinning
    that single module attribute is all it takes.  It is restored on
    exit, also after an exception.  Process-wide, so not for use around
    code that resolves batches on other threads.
    """
    # call-time import: repro.testing sits below the runtime layer
    from repro.runtime import conflict

    saved = conflict.GATHER_MIN_BATCH
    conflict.GATHER_MIN_BATCH = sys.maxsize
    try:
        yield
    finally:
        conflict.GATHER_MIN_BATCH = saved


def reference_max_flow(network) -> int:
    """Max-flow value of a :class:`~repro.apps.maxflow.FlowNetwork`, by
    scipy's ``maximum_flow`` on its capacity matrix."""
    # call-time import: scipy stays out of ``import repro``
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = network.num_nodes
    rows, cols, data = [], [], []
    for u, v, c in network.arcs():
        rows.append(u)
        cols.append(v)
        data.append(int(c))
    mat = csr_matrix((data, (rows, cols)), shape=(n, n), dtype=np.int64)
    return int(maximum_flow(mat, network.source, network.sink).flow_value)
