"""Analytic model layer: conflict ratios, Turán bounds, seating, profiles.

Names are re-exported lazily: ``from repro.model import turan_bound``
imports :mod:`repro.model.turan` alone, so a run whose controller needs
one closed form does not load the Monte-Carlo estimators.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "conflict_ratio": (
            "ConflictCurve",
            "conflict_ratio_curve",
            "estimate_conflict_ratio",
            "estimate_em",
            "estimate_kbar",
            "exact_conflict_ratio",
            "exact_kbar",
            "first_come_bound",
            "first_come_probability",
        ),
        "permutation": (
            "PrefixSampler",
            "committed_mask_csr",
            "committed_set",
            "conflict_count",
            "conflict_ratio_realization",
        ),
        "seating": (
            "cycle_expected_occupancy",
            "expected_mis",
            "path_expected_occupancy",
            "seating_density_limit",
        ),
        "turan": (
            "alpha_conflict_bound",
            "alpha_conflict_bound_limit",
            "em_disjoint_cliques",
            "em_kdn",
            "initial_derivative",
            "mu_disjoint_cliques",
            "predict_mu_linear",
            "safe_initial_m",
            "turan_bound",
            "worst_case_conflict_ratio",
            "worst_case_conflict_ratio_approx",
        ),
    },
)
