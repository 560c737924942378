"""Stationary processes with infinitely divisible finite-dimensional laws.

The core objects: a ``LevyExponent`` (the marginal log-CF), a
``CorrelationStructure`` (a normalized concave repair/coverage function),
and their combination in ``CoverageProcess``, which gives exact joint
characteristic functions and exact finite-dimensional samplers.  The
``mginf`` module realizes the same laws as infinite-server occupancy
counts; ``onoff`` builds triangular arrays of two-state sources whose
superpositions converge to the spectrally positive members of the family.
"""

from .corr import (
    CorrelationStructure,
    ServiceDistribution,
    TimeGrid,
    a_to_b,
    b_to_a,
    exponential_structure,
    integrated_tail_structure,
    mixture_structure,
    power_structure,
    weights,
)
from .errors import (
    BoundViolationError,
    ConcavityError,
    PreconditionError,
    UnsupportedMomentError,
)
from .fidi import CoverageProcess, FidiTriplet
from .levy import (
    LevyExponent,
    LevyMeasure,
    MarkDistribution,
    compound_poisson,
    gamma_law,
    gaussian,
    poisson,
    reciprocal_measure,
    spectrally_positive,
)
from .mginf import MGInfinityModel
from .onoff import (
    EmpiricalLevyMeasure,
    OnOffArraySpec,
    OnOffSource,
    algebraic_identity_check,
    increment_bound_check,
    check_assumptions,
    convergence_study,
    espc_log_cf,
    espc_weights,
    limit_exponent,
    remainder_bound_check,
    row_measure,
    superpose,
)
from .rng import child_rng, run_batched
from .stats import EmpiricalCF, cf_distance, empirical_cf, empirical_cov, theta_product_grid

__all__ = [
    "BoundViolationError",
    "ConcavityError",
    "CorrelationStructure",
    "CoverageProcess",
    "EmpiricalCF",
    "EmpiricalLevyMeasure",
    "FidiTriplet",
    "LevyExponent",
    "LevyMeasure",
    "MGInfinityModel",
    "MarkDistribution",
    "OnOffArraySpec",
    "OnOffSource",
    "PreconditionError",
    "ServiceDistribution",
    "TimeGrid",
    "UnsupportedMomentError",
    "a_to_b",
    "algebraic_identity_check",
    "increment_bound_check",
    "b_to_a",
    "cf_distance",
    "check_assumptions",
    "child_rng",
    "compound_poisson",
    "convergence_study",
    "empirical_cf",
    "empirical_cov",
    "espc_log_cf",
    "espc_weights",
    "exponential_structure",
    "gamma_law",
    "gaussian",
    "integrated_tail_structure",
    "limit_exponent",
    "mixture_structure",
    "poisson",
    "power_structure",
    "reciprocal_measure",
    "remainder_bound_check",
    "row_measure",
    "run_batched",
    "spectrally_positive",
    "superpose",
    "theta_product_grid",
    "weights",
]

__version__ = "0.1.0"
