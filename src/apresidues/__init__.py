"""Small prime power residues and nonresidues in arithmetic progressions.

Residue characters (Euler criterion plus an exponential-sum oracle),
least-element searches, weighted counting functions against main-term
predictions, desk-scale exponential-sum verification, consecutive-pattern
censuses, and bit-exact reproduction of published numerical examples.
"""

from .apsearch import (
    CountReport,
    DensitySample,
    SearchOutcome,
    Target,
    bound_x,
    density_sweep,
    least_prime_with_verdict,
    main_term_prediction,
    unweighted_prediction,
    weighted_count,
)
from .bigmod import (
    OddPrimeContext,
    ResidueClass,
    euler_totient,
    is_prime,
    jacobi,
    multiplicative_order,
    primes_up_to,
    von_mangoldt,
)
from .errors import DomainError, IntegrityError, ResourceError
from .expsum import (
    ExpSumSample,
    FiberHistogram,
    fiber_histograms,
    fourier_U_hat,
    incomplete_expsum,
    max_ratio_table,
)
from .kernels import kernel_backend
from .patterns import (
    PatternCensus,
    pattern_census,
    twin_nonresidue_density,
    weighted_pattern_sum,
)
from .residues import (
    CharacterVerdict,
    SmallFieldTable,
    Verdict,
    build_small_field_table,
    char_function_oracle,
    kth_power_verdict,
)
from .scenarios import list_scenarios, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CharacterVerdict",
    "CountReport",
    "DensitySample",
    "DomainError",
    "ExpSumSample",
    "FiberHistogram",
    "IntegrityError",
    "OddPrimeContext",
    "PatternCensus",
    "ResidueClass",
    "ResourceError",
    "SearchOutcome",
    "SmallFieldTable",
    "Target",
    "Verdict",
    "bound_x",
    "build_small_field_table",
    "char_function_oracle",
    "density_sweep",
    "euler_totient",
    "fiber_histograms",
    "fourier_U_hat",
    "incomplete_expsum",
    "is_prime",
    "jacobi",
    "kernel_backend",
    "kth_power_verdict",
    "least_prime_with_verdict",
    "list_scenarios",
    "main_term_prediction",
    "max_ratio_table",
    "multiplicative_order",
    "pattern_census",
    "primes_up_to",
    "run_scenario",
    "twin_nonresidue_density",
    "unweighted_prediction",
    "von_mangoldt",
    "weighted_count",
    "weighted_pattern_sum",
]
