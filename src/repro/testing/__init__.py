"""Test-support utilities shipped with the library.

:mod:`repro.testing.oracles` pins the reference resolution walks for
differential tests (:func:`~repro.testing.oracles.reference_paths`) and
holds the sequential max-flow oracle
(:func:`~repro.testing.oracles.reference_max_flow`).
"""

__all__: list[str] = []
