"""Pin the reference implementations, for differential tests.

The step loop picks its own resolution path: array kernels where they
win, the per-task walks everywhere else.  The walks are the oracles the
kernels are held to bit for bit, so a test needs a way to run a whole
seeded run on them and compare.  :func:`reference_paths` is that way for
conflict resolution; the selection oracle needs no helper — pass
``workset=RandomWorkset()`` to any workload constructor.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

__all__ = ["reference_paths"]


@contextmanager
def reference_paths():
    """Inside the block every batch resolves through the reference walks.

    ``ExplicitGraphPolicy.resolve_fast`` sees a gather cut-over no batch
    can reach and takes ``ConflictPolicy.resolve``; the sharded commit
    order's ``two_phase_commit_mask_fast`` declines every batch, leaving
    ``two_phase_commit_mask``.  Both module attributes are restored on
    exit, also after an exception.  Process-wide, so not for use around
    code that resolves batches on other threads.
    """
    # call-time imports: repro.testing sits below the runtime layer
    from repro.runtime import conflict, policies

    saved = conflict.GATHER_MIN_BATCH, policies.two_phase_commit_mask_fast
    conflict.GATHER_MIN_BATCH = sys.maxsize
    policies.two_phase_commit_mask_fast = lambda *args, **kwargs: None
    try:
        yield
    finally:
        conflict.GATHER_MIN_BATCH, policies.two_phase_commit_mask_fast = saved
