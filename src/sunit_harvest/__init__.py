"""Solution harvesting for shifted S-unit equations, with the multiplicative- and
additive-character decompositions of the congruence counts behind each step,
cross-checked by naive brute-force oracles.
"""

from .arith import (
    FactoredInt,
    PrimeSet,
    factor_over,
    is_prime,
    multiplicative_functions,
    prime_support,
    primes_in_range,
    trial_factor,
)
from .characters import (
    CharacterTable,
    all_characters,
    fourth_moment_ratio,
    large_sieve_check,
    multiplicative_decomposition,
    polya_vinogradov_check,
    primitive_decomposition_check,
)
from .circle import AdditiveDecomposition, additive_decomposition, s_mu_weight
from .errors import (
    ConfigError,
    ConstraintViolation,
    DomainError,
    EmptyHarvest,
    EnumerationCap,
    FactorizationLimit,
    InsufficientPrimes,
    ResourceLimit,
    SunitHarvestError,
)
from .exponents import (
    ALPHA_THM2_CONDITIONAL,
    ALPHA_THM2_UNCONDITIONAL,
    RegimeExponents,
    check_constraints,
    cubic_real_root,
    optimality_frontier,
    regime_exponents,
)
from .oracle import (
    OracleResult,
    brute_linear_count,
    brute_prop1_triples,
    brute_sunit_pairs,
    sunits_up_to,
)
from .pipelines import (
    HarvestConfig,
    HarvestReport,
    config_from_exponents,
    pair_collision_stats,
    popular_bucket,
    prop1_config,
    prop1_run,
    thm1_run,
    thm2_run,
    verify_sunit_solution,
)
from .report import compare_bounds
from .smooth import (
    SmoothSet,
    binomial_lower_bound_check,
    enumerate_squarefree_smooth,
    smooth_count_lower_bound,
    split_disjoint_prime_sets,
)
from .siegel import SmallSolution, siegel_nonzero_coords, siegel_small_solution

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
