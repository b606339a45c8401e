"""Test-support utilities shipped with the library.

:mod:`repro.testing.oracles` pins the reference resolution walks for
differential tests (:func:`~repro.testing.oracles.reference_paths`).
"""

__all__: list[str] = []
