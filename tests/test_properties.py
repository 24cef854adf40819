"""Property-based tests tying the closed forms to brute-force semantics."""

import math

from hypothesis import example, given, strategies as st

from kirchlab import (
    Congruence,
    CongruenceSet,
    OverlapError,
    classify,
    closure,
    closure_oracle,
    compute_A,
    congruence_set_subset,
    crt_solve,
    descriptor,
    filter_le,
    filter_le_oracle,
    generator,
    intersect,
    PrimeSet,
    Progression,
    pair_A,
    prime_factors,
    realize,
)
from kirchlab.numtheory import MAX_OPERAND

small_sets = st.sets(st.integers(1, 120), min_size=2, max_size=4).map(lambda s: tuple(sorted(s)))


@st.composite
def congruence_systems(draw):
    moduli = draw(
        st.lists(st.sampled_from((2, 3, 5, 7, 11)), unique=True, min_size=0, max_size=3)
    )
    return [Congruence(draw(st.integers(0, m - 1)), m) for m in moduli]


@given(congruence_systems())
def test_crt_agrees_with_linear_scan(system):
    sol = crt_solve(system)
    assert sol.modulus == math.prod(c.modulus for c in system)
    first = next(
        z
        for z in range(1, sol.modulus + 1)
        if all(z % c.modulus == c.residue for c in system)
    )
    assert first == (sol.residue or sol.modulus)


@given(st.integers(1, 150), st.integers(1, 150))
def test_closure_contains_progression_and_is_periodic(a, b):
    c = closure(a, b)
    assert a in c and a + b in c and a + 5 * b in c
    for z in range(1, min(c.period, 60) + 1):
        assert (z in c) == (z + c.period in c)


@given(st.integers(1, 120), st.integers(1, 120), st.data())
def test_closure_formula_equals_prime_witness_oracle(a, b, data):
    c = closure(a, b)
    z = data.draw(st.integers(1, 4 * c.period))
    assert (z in c) == closure_oracle(a, b, z)


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 40))
def test_members_window_matches_contains(a, b, width):
    c = closure(a, b)
    lo = a
    hi = lo + width
    assert c.members(lo, hi) == [z for z in range(lo, hi + 1) if z in c]


# small primes, and primes above any window the tests list (up to 10**9)
SET_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 101, 10007, 1000003, 999999937)


@st.composite
def congruence_sets(draw):
    primes = draw(st.lists(st.sampled_from(SET_PRIMES), unique=True, max_size=10))
    forced, two_class = [], []
    for p in primes:
        k = draw(st.integers(0, p - 1))
        if k == 0:
            forced.append(p)
        else:
            two_class.append((p, k))
    return CongruenceSet(tuple(forced), tuple(two_class))


@given(congruence_sets())
def test_every_congruence_set_holds_its_period(s):
    # residue 0 is allowed at every prime, so no congruence set is empty
    assert s.period in s


# seven two-class primes, the marker 2 -> 1 and a prime above the window,
# whose residues 0 and 9 both fall in the window (999002997 = 999 * 1000003),
# so that the small primes filter them; and the seven small primes alone at
# the top of the operand range, where four of them filter the CRT candidates
_SEVEN = ((3, 2), (5, 3), (7, 1), (11, 10), (13, 6), (17, 4), (19, 5))


@example(CongruenceSet((), _SEVEN + ((2, 1), (1000003, 9))), 3000, 999001998)
@example(CongruenceSet((), _SEVEN + ((2, 1),)), 3000, MAX_OPERAND)
@given(congruence_sets(), st.integers(1, 3000), st.integers(1, MAX_OPERAND))
def test_members_enumeration_equals_the_membership_scan(s, width, lo):
    lo = min(lo, MAX_OPERAND - width + 1)
    hi = lo + width - 1
    assert s.members(lo, hi) == [z for z in range(lo, hi + 1) if z in s]


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
def test_intersect_denotes_set_intersection(a1, b1, a2, b2):
    s1, s2 = closure(a1, b1), closure(a2, b2)
    both = intersect(s1, s2)
    hi = s1.period * s2.period
    want = sorted(set(s1.members(1, hi)) & set(s2.members(1, hi)))
    assert both.members(1, hi) == want
    assert intersect(s1, s1).members(1, hi) == s1.members(1, hi)


@given(st.lists(st.tuples(st.integers(1, 80), st.integers(1, 80)), min_size=1, max_size=4))
def test_superconnectedness_witness(pairs):
    # closures of kirch-basic opens have non-empty common intersection
    acc = None
    for a, b in pairs:
        b = math.prod(sorted(set(prime_factors(b))))  # square-free part
        if math.gcd(a, b) != 1:
            a = 1
        assert Progression(a, b).kirch_basic or b == 1
        c = closure(a, b)
        acc = c if acc is None else intersect(acc, c)
    assert acc.period in acc


@given(st.integers(1, 500), st.integers(1, 500))
def test_pair_signature_shortcut(x, y):
    if x == y:
        return
    assert pair_A(x, y).elements == compute_A((x, y)).elements


def _same_as_validated(s):
    # a PrimeSet built by a trusted library path equals the one the public
    # constructor validates from the same elements, down to the int type
    ref = PrimeSet.of(s.elements)
    assert s == ref and hash(s) == hash(ref)
    assert s.elements == ref.elements and all(type(p) is int for p in s.elements)
    assert set(s) == set(ref) and all(p in s for p in ref)


@given(st.integers(1, MAX_OPERAND))
def test_prime_factors_equals_the_validated_prime_set(x):
    _same_as_validated(prime_factors(x))


@given(small_sets, st.integers(1, 500), st.integers(1, 500))
def test_signatures_equal_the_validated_prime_set(E, x, y):
    _same_as_validated(compute_A(E))
    if x != y:
        got = pair_A(x, y)
        _same_as_validated(got)
        assert got.issubset(compute_A((x, y))) and compute_A((x, y)).issubset(got)


@given(small_sets)
def test_order_is_reflexive(E):
    assert filter_le(E, E)


@given(small_sets)
def test_everything_below_top(E):
    assert filter_le(E, (4, 8))


@given(st.sets(st.sampled_from((3, 5, 7, 11)), min_size=1, max_size=3), st.data())
def test_realize_round_trip(odd_primes, data):
    A = (2,) + tuple(sorted(odd_primes))
    alpha = {2: 1}
    for p in odd_primes:
        alpha[p] = data.draw(st.integers(0, p - 1))
    E = realize(A, alpha)
    d = descriptor(E)
    assert d.A.elements == A
    assert d.alpha_map == alpha
    assert d.Pi.elements == tuple(p for p in A if p != 2 and alpha[p] == 0)


@given(
    st.sets(st.integers(1, 40), min_size=2, max_size=3).map(lambda s: tuple(sorted(s))),
    st.sets(st.integers(1, 40), min_size=2, max_size=3).map(lambda s: tuple(sorted(s))),
)
def test_order_criterion_equals_generator_oracle(E, F):
    assert filter_le(E, F) == filter_le_oracle(E, F)


@given(small_sets, st.sampled_from((37, 41, 43, 47)))
def test_forcing_extra_primes_strictly_shrinks_generators(E, q):
    d = descriptor(E)
    if q in d.A:
        return
    assert congruence_set_subset(generator(d, (q,)), generator(d))
    assert not congruence_set_subset(generator(d), generator(d, (q,)))


@given(small_sets)
def test_infinity_class_matches_generator_family_shape(E):
    d = descriptor(E)
    trivially_shaped = generator(d).two_class_constraints == ((2, 1),)
    all_forcings_legal = True
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        try:
            generator(d, (q,))
        except OverlapError:
            all_forcings_legal = False
            break
    assert (classify(E).tag == "FInfinity") == (trivially_shaped and all_forcings_legal)


@given(st.integers(2, 80), st.integers(2, 80))
def test_subset_oracle_is_consistent_with_windows(a, b):
    s1, s2 = closure(a, b), closure(b, a)
    got = congruence_set_subset(s1, s2)
    hi = s1.period * s2.period
    brute = set(s1.members(1, hi)) <= set(s2.members(1, hi))
    assert got == brute


@given(st.integers(1, 2048), st.integers(1, 4096))
def test_doubleton_infinity_characterization(x, y):
    if x == y:
        return
    x, y = sorted((x, y))
    want = y == 2 * x and x & (x - 1) == 0
    assert (classify((x, y)).tag == "FInfinity") == want
