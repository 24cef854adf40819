"""kirchlab — a laboratory for the arithmetic-progression topology on N.

Closures of basic opens as congruence normal forms, the superconnecting
filter order through finite descriptors, the comparability graphs Gamma_p,
classical checkers, and self-verification suites that confront every
computation with an independent oracle.
"""

from .numtheory import (
    NonCoprimeModuli,
    NotCoprime,
    NotPrime,
    Overflow,
    PrimeType,
    SearchBoundExceeded,
    classify_prime,
    consecutive_perfect_powers,
    crt_solve,
    first_prime_in_progression,
    is_prime,
    is_square_free,
    prime_factors,
    primes_upto,
    zsigmondy_inclusion,
)
from .progressions import (
    CongruenceSet,
    Progression,
    closure,
    intersect,
    progressions_intersect,
)
from .filters import (
    ALL_PRIMES,
    BadShape,
    ClassLabel,
    FilterDescriptor,
    OverlapError,
    TooSmall,
    WrongClass,
    classify,
    compute_A,
    descriptor,
    filter_eq,
    filter_le,
    generator,
    pair_A,
    power_chain_equal_set,
    primes_from_order,
    realize,
    upset_in_Fprime,
)
from .gamma import (
    GammaGraph,
    NotAVertex,
    degree_infinite,
    edges_by_definition,
    edges_closed_form,
    export_dot,
    gamma_graph,
    vertices,
)
from .verify import (
    SuiteReport,
    UnknownSuite,
    closure_oracle,
    congruence_set_subset,
    filter_le_oracle,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"
