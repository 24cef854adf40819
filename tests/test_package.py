"""The public surface of the kirchlab package."""

import types

import kirchlab

# every name `import kirchlab` exports; adding or removing one is a
# deliberate change to the public API and edits this list with it
PUBLIC_NAMES = [
    "ALL_PRIMES",
    "BadShape",
    "ClassLabel",
    "CongruenceSet",
    "FilterDescriptor",
    "GammaGraph",
    "NonCoprimeModuli",
    "NotAVertex",
    "NotCoprime",
    "NotPrime",
    "Overflow",
    "OverlapError",
    "PrimeType",
    "Progression",
    "SearchBoundExceeded",
    "SuiteReport",
    "TooSmall",
    "UnknownSuite",
    "WrongClass",
    "classify",
    "classify_prime",
    "closure",
    "closure_oracle",
    "compute_A",
    "congruence_set_subset",
    "consecutive_perfect_powers",
    "crt_solve",
    "degree_infinite",
    "descriptor",
    "edges_by_definition",
    "edges_closed_form",
    "export_dot",
    "filter_eq",
    "filter_le",
    "filter_le_oracle",
    "first_prime_in_progression",
    "gamma_graph",
    "generator",
    "intersect",
    "is_prime",
    "is_square_free",
    "pair_A",
    "power_chain_equal_set",
    "prime_factors",
    "primes_from_order",
    "primes_upto",
    "progressions_intersect",
    "realize",
    "run_suite",
    "suite_names",
    "upset_in_Fprime",
    "vertices",
    "zsigmondy_inclusion",
]


def test_the_exported_names_are_exactly_the_pinned_list():
    # submodules become package attributes once imported; they are not exports
    exported = sorted(
        name
        for name, value in vars(kirchlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_one_overflow_class_for_every_cap():
    assert kirchlab.Overflow is kirchlab.numtheory.Overflow is kirchlab.filters.Overflow
