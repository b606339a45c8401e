"""Test-support utilities shipped with the library.

The package currently hosts the fault-injection harness used to prove
the sweep layer's fault tolerance (:mod:`repro.testing.faults`): a
serialisable :class:`FaultPlan` of deterministic failures — raise on the
n-th attempt, hang past the timeout, hard-kill the worker, corrupt a
cache entry — usable from unit tests and from the experiments CLI via
``--inject-faults``.  It lives under :mod:`repro` (not ``tests/``) so
that worker processes can import it and so users can fault-test their
own deployment wiring.  :mod:`repro.testing.oracles` pins the reference
resolution walks for differential tests.
"""

from repro.testing.faults import PARENT_KINDS, WORKER_KINDS, FaultPlan, FaultSpec

__all__ = ["FaultPlan", "FaultSpec", "WORKER_KINDS", "PARENT_KINDS"]
