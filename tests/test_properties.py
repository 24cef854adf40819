"""Property-based tests tying the closed forms to brute-force semantics."""

import linecache
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from kirchlab import (
    BadShape,
    CongruenceSet,
    NonCoprimeModuli,
    NotAVertex,
    NotPrime,
    OverlapError,
    Overflow,
    classify,
    classify_prime,
    closure,
    closure_oracle,
    compute_A,
    congruence_set_subset,
    consecutive_perfect_powers,
    crt_solve,
    descriptor,
    filter_eq,
    filter_le,
    filter_le_oracle,
    first_prime_in_progression,
    generator,
    intersect,
    is_prime,
    is_square_free,
    Progression,
    pair_A,
    power_chain_equal_set,
    prime_factors,
    primes_from_order,
    primes_upto,
    progressions_intersect,
    realize,
    upset_in_Fprime,
    zsigmondy_inclusion,
)
from kirchlab.filters import MAX_ORDER_BOUND, MAX_UPSET_PRIME
from kirchlab.gamma import (
    degree_infinite,
    edges_by_definition,
    edges_closed_form,
    export_dot,
    gamma_graph,
    vertices,
)
from kirchlab.numtheory import MAX_OPERAND, MAX_TRIAL_OPERAND
from kirchlab.verify import knobs, run_suite, suite_names

small_sets = st.sets(st.integers(1, 120), min_size=2, max_size=4).map(lambda s: tuple(sorted(s)))


@st.composite
def congruence_systems(draw):
    moduli = draw(
        st.lists(st.sampled_from((2, 3, 5, 7, 11)), unique=True, min_size=0, max_size=3)
    )
    return [(draw(st.integers(0, m - 1)), m) for m in moduli]


@given(congruence_systems())
def test_crt_agrees_with_linear_scan(system):
    residue, modulus = crt_solve(system)
    assert modulus == math.prod(m for _, m in system)
    first = next(
        z
        for z in range(1, modulus + 1)
        if all(z % m == r for r, m in system)
    )
    assert first == (residue or modulus)


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
    return CongruenceSet({p: draw(st.integers(0, p - 1)) for p in primes})


@given(congruence_sets())
def test_every_congruence_set_holds_its_period(s):
    # residue 0 is allowed at every prime, so no congruence set is empty
    assert s.period in s


# seven two-class primes, the marker 2 -> 1 and a prime above the window,
# whose residues 0 and 9 both fall in the window (999002997 = 999 * 1000003),
# so that the small primes filter them; and the seven small primes alone at
# the top of the operand range, where four of them filter the CRT candidates
_SEVEN = {3: 2, 5: 3, 7: 1, 11: 10, 13: 6, 17: 4, 19: 5}


@example(CongruenceSet({**_SEVEN, 2: 1, 1000003: 9}), 3000, 999001998)
@example(CongruenceSet({**_SEVEN, 2: 1}), 3000, MAX_OPERAND)
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
    assert pair_A(x, y) == compute_A((x, y))


def _assert_prime_tuple(s):
    # every prime set the library returns has one shape: a tuple of Python
    # ints (no numpy scalar leaks out of the prime table), strictly
    # ascending, each one prime
    assert type(s) is tuple
    assert all(type(p) is int for p in s)
    assert all(p < q for p, q in zip(s, s[1:]))
    assert all(is_prime(p) for p in s)


@given(st.integers(1, MAX_OPERAND))
def test_prime_factors_equals_the_validated_prime_set(x):
    _assert_prime_tuple(prime_factors(x))


@given(small_sets, st.integers(1, 500), st.integers(1, 500), st.integers(3, 500))
def test_signatures_equal_the_validated_prime_set(E, x, y, z):
    _assert_prime_tuple(compute_A(E))
    # a descriptor reads A and Pi from alpha: they must agree with the scan
    # and with the common divisors found by factoring gcd(E)
    d = descriptor(E)
    _assert_prime_tuple(d.A)
    _assert_prime_tuple(d.Pi)
    assert d.A == compute_A(E)
    assert d.Pi == prime_factors(math.gcd(*E))
    if x != y:
        got = pair_A(x, y)
        _assert_prime_tuple(got)
        assert got == compute_A((x, y))
    _assert_prime_tuple(primes_from_order(z, z))


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
    assert d.A == A
    assert d.alpha == alpha
    assert d.Pi == tuple(p for p in A if p != 2 and alpha[p] == 0)


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
@example(E=(41, 82))  # A = {2, 41}: only forcing 41 meets the signature
def test_infinity_class_matches_generator_family_shape(E):
    d = descriptor(E)
    trivially_shaped = generator(d).residues == {2: 1}
    all_forcings_legal = True
    # every odd prime that may lie in A: none above max(E) does
    for q in primes_upto(max(E))[1:].tolist():
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


# ------------------------------------------------------------ library totality

# operands up to 10**6; hypothesis favours the small end of the range
_OPERAND = st.integers(-2, 10**6)
# primality operands on both sides of their cap of 10**18
_TRIAL_OPERAND = _OPERAND | st.integers(MAX_TRIAL_OPERAND - 10**6, MAX_TRIAL_OPERAND + 10**6)
_SET = st.lists(_OPERAND, max_size=4)
_PRIME = st.sampled_from((2, 3, 5, 7, 11, 13, 999983)) | _OPERAND
_PRIMES = st.lists(_PRIME, max_size=4)
_RESIDUE = st.integers(-1, 13)  # small, so that CRT systems and alphas are often valid
_EXPONENT = st.integers(-1, 31)  # small, so that x**n_max is often within the operand cap


def _congruence_set_queries(residues, z, lo, hi):
    s = CongruenceSet(residues)
    return s.contains(z), s.members(lo, hi)


# each public function of numtheory, progressions, filters and gamma, with a
# strategy per argument
_LIBRARY_CALLS = (
    (primes_upto, _OPERAND),
    (is_prime, _TRIAL_OPERAND),
    (prime_factors, _OPERAND),
    (is_square_free, _TRIAL_OPERAND),
    (crt_solve, st.lists(st.tuples(_RESIDUE, _OPERAND), max_size=3)),
    (classify_prime, _TRIAL_OPERAND),
    (zsigmondy_inclusion, _OPERAND, _OPERAND),
    (consecutive_perfect_powers, _OPERAND),
    (first_prime_in_progression, _OPERAND, _OPERAND),
    (compute_A, _SET),
    (pair_A, _OPERAND, _OPERAND),
    (descriptor, _SET),
    (lambda p, x: p in descriptor((x,)).A, _TRIAL_OPERAND, _OPERAND),
    (lambda A, alpha: realize(A, dict(zip(A, alpha))), _PRIMES, st.lists(_RESIDUE, max_size=4)),
    (lambda E, L: generator(descriptor(E), L), _SET, _PRIMES),
    (filter_le, _SET, _SET),
    (filter_eq, _SET, _SET),
    (classify, _SET),
    (upset_in_Fprime, _SET),
    (primes_from_order, _OPERAND, _OPERAND),
    (power_chain_equal_set, _OPERAND, _EXPONENT),
    (lambda a, b: Progression(a, b).kirch_basic, _OPERAND, _OPERAND),
    (closure, _OPERAND, _OPERAND),
    (lambda a1, b1, a2, b2: intersect(closure(a1, b1), closure(a2, b2)), *[_OPERAND] * 4),
    (
        lambda a1, b1, a2, b2: progressions_intersect(Progression(a1, b1), Progression(a2, b2)),
        *[_OPERAND] * 4,
    ),
    (
        _congruence_set_queries,
        st.dictionaries(_PRIME, _RESIDUE),
        *[_OPERAND] * 3,
    ),
    (vertices, _OPERAND, _OPERAND),
    (edges_by_definition, _OPERAND, _OPERAND),
    (edges_closed_form, _OPERAND, _OPERAND),
    (gamma_graph, _OPERAND, _OPERAND),
    (degree_infinite, _OPERAND, _OPERAND),
    (lambda p, bound: export_dot(gamma_graph(p, bound)), _OPERAND, _OPERAND),
)

# no call may take longer; the slowest accepted calls the docs state
# (primes_from_order at its cap, the sieve grown to 10**9) take up to ~9 s
_GUARD_S = 20.0


@st.composite
def library_calls(draw):
    fn, *arg_strategies = draw(st.sampled_from(_LIBRARY_CALLS))
    return fn, tuple(draw(a) for a in arg_strategies)


def _assert_domain_error(exc):
    # a domain error is a ValueError that kirchlab raises itself, not one
    # that Python raises from inside a library call (pow, int, str, ...)
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = tb.tb_frame.f_code.co_filename
    line = linecache.getline(path, tb.tb_lineno).strip()
    assert "kirchlab" in path and line.startswith("raise "), (type(exc), exc, path, line)
    # a message that formats an operand past str()'s digit limit fails on
    # that raise line with Python's own conversion error instead
    assert "integer string conversion" not in str(exc), (type(exc), path, line)


def _call_within_guard(fn, args):
    t0 = time.perf_counter()
    try:
        fn(*args)
    except ValueError as exc:
        _assert_domain_error(exc)
        raise
    finally:
        assert time.perf_counter() - t0 < _GUARD_S, (fn, args)


@settings(max_examples=300)
@given(library_calls())
def test_every_library_call_answers_or_fails_with_a_domain_error(call):
    try:
        _call_within_guard(*call)
    except ValueError:
        pass


def degree_infinite_past_the_bit_cap():
    # 3 * 2**4095, a vertex of Gamma_3 with 4097 bits, one past the cap;
    # given as an argument, its thousand-digit repr would be the test id
    return degree_infinite(3, 3 << 4095)


_PAST_CAPS = [
    (primes_upto, (MAX_OPERAND + 1,), f"capped at {MAX_OPERAND}"),
    (is_prime, (MAX_TRIAL_OPERAND + 1,), f"capped at {MAX_TRIAL_OPERAND}"),
    (is_square_free, (MAX_TRIAL_OPERAND + 1,), f"capped at {MAX_TRIAL_OPERAND}"),
    (prime_factors, (MAX_OPERAND + 1,), f"capped at {MAX_OPERAND}"),
    (classify_prime, (MAX_TRIAL_OPERAND + 1,), f"capped at {MAX_TRIAL_OPERAND}"),
    (zsigmondy_inclusion, (2, 1449), "capped at 1048576 bits"),
    (zsigmondy_inclusion, (10**6, 325), "capped at 1048576 bits"),
    (first_prime_in_progression, (MAX_OPERAND + 1, 1), f"capped at {MAX_OPERAND}"),
    (first_prime_in_progression, (1, MAX_OPERAND + 1), f"capped at {MAX_OPERAND}"),
    (compute_A, ((1, MAX_OPERAND + 1),), f"capped at {MAX_OPERAND}"),
    (pair_A, (1, MAX_OPERAND + 1), f"capped at {MAX_OPERAND}"),
    (descriptor, ((MAX_OPERAND + 1,),), f"capped at {MAX_OPERAND}"),
    (filter_le, ((1, 2), (1, MAX_OPERAND + 1)), f"capped at {MAX_OPERAND}"),
    (classify, ((1, MAX_OPERAND + 1),), f"capped at {MAX_OPERAND}"),
    (upset_in_Fprime, ((10007, 20014),), f"capped at {MAX_UPSET_PRIME}"),
    (primes_from_order, (MAX_OPERAND + 1, 3), f"capped at {MAX_OPERAND}"),
    (primes_from_order, (10**6, MAX_ORDER_BOUND + 1), f"capped at {MAX_ORDER_BOUND}"),
    (consecutive_perfect_powers, (10**13 + 1,), f"capped at {10**13}"),
    (power_chain_equal_set, (MAX_OPERAND + 1, 1), f"capped at {MAX_OPERAND}"),
    (power_chain_equal_set, (2, 30), "n_max capped at 29"),
    (power_chain_equal_set, (3, 19), rf"x\^n_max capped at {MAX_OPERAND}"),
    (CongruenceSet, ({MAX_OPERAND + 1: 0},), f"capped at {MAX_OPERAND}"),
    (realize, ((2, MAX_OPERAND + 1), {2: 1, MAX_OPERAND + 1: 1}), f"capped at {MAX_OPERAND}"),
    (vertices, (MAX_OPERAND + 7, 5), f"capped at {MAX_OPERAND}"),
    (degree_infinite, (MAX_OPERAND + 7, MAX_OPERAND + 7), f"capped at {MAX_OPERAND}"),
    (generator, (descriptor((1, 2)), (MAX_OPERAND + 1,)), f"capped at {MAX_OPERAND}"),
    (degree_infinite_past_the_bit_cap, (), "capped at 4096 bits"),
]


@pytest.mark.parametrize(
    "fn, args, cap", _PAST_CAPS, ids=[f"{fn.__name__}{args}" for fn, args, _ in _PAST_CAPS]
)
def test_library_values_just_past_a_cap_are_a_domain_error(fn, args, cap):
    with pytest.raises(Overflow, match=cap):
        _call_within_guard(fn, args)


# 16610 bits, past the 4300 digits that str() converts by default
_H = 10**5000
_CAP, _TRIAL_CAP = f"capped at {MAX_OPERAND}", f"capped at {MAX_TRIAL_OPERAND}"
_D12 = descriptor((1, 2))

# (id, call, exception, message text) for each cap and range refusal that
# an operand of either sign and unbounded size can reach
_HUGE_REFUSALS = [
    ("primes_upto", lambda: primes_upto(_H), Overflow, _CAP),
    ("is_prime", lambda: is_prime(_H), Overflow, _TRIAL_CAP),
    ("is_square_free", lambda: is_square_free(_H), Overflow, _TRIAL_CAP),
    ("prime_factors", lambda: prime_factors(_H), Overflow, _CAP),
    ("classify_prime", lambda: classify_prime(_H), Overflow, _TRIAL_CAP),
    ("classify_prime-", lambda: classify_prime(-_H), NotPrime, "is not prime"),
    ("crt_residue", lambda: crt_solve([(_H, 3)]), ValueError, "must lie in [0, 3)"),
    ("crt_residue-", lambda: crt_solve([(-_H, 3)]), ValueError, "must lie in [0, 3)"),
    ("crt_modulus", lambda: crt_solve([(0, 3 * _H), (0, 3)]), NonCoprimeModuli, "shares a factor"),
    ("crt_product", lambda: crt_solve([(0, 3), (0, 3 * _H)]), NonCoprimeModuli, "shares a factor"),
    ("zsigmondy_a", lambda: zsigmondy_inclusion(_H, 100), Overflow, "capped at 1048576 bits"),
    ("zsigmondy_n", lambda: zsigmondy_inclusion(2, _H), Overflow, "capped at 1048576 bits"),
    ("perfect_powers", lambda: consecutive_perfect_powers(_H), Overflow, f"capped at {10**13}"),
    ("first_prime_a", lambda: first_prime_in_progression(_H, 1), Overflow, _CAP),
    ("first_prime_b", lambda: first_prime_in_progression(1, _H), Overflow, _CAP),
    ("compute_A", lambda: compute_A((1, _H)), Overflow, _CAP),
    ("pair_A", lambda: pair_A(1, _H), Overflow, _CAP),
    ("descriptor", lambda: descriptor((_H,)), Overflow, _CAP),
    ("filter_le", lambda: filter_le((1, 2), (1, _H)), Overflow, _CAP),
    ("filter_le_oracle", lambda: filter_le_oracle((1, 2), (1, _H)), Overflow, _CAP),
    ("classify", lambda: classify((1, _H)), Overflow, _CAP),
    ("upset_in_Fprime", lambda: upset_in_Fprime((1, _H)), Overflow, _CAP),
    ("primes_from_order_x", lambda: primes_from_order(_H, 3), Overflow, _CAP),
    ("p_bound", lambda: primes_from_order(10**9, _H), Overflow, "capped at 200000"),
    ("power_chain_x", lambda: power_chain_equal_set(_H, 1), Overflow, _CAP),
    ("power_chain_n_max", lambda: power_chain_equal_set(2, _H), Overflow,
     "n_max capped at 29, got a 16610-bit integer"),
    ("closure", lambda: closure(1, _H), Overflow, _CAP),
    ("closure_oracle", lambda: closure_oracle(1, _H, 1), Overflow, _CAP),
    ("kirch_basic", lambda: Progression(1, _H).kirch_basic, Overflow, _TRIAL_CAP),
    ("CongruenceSet_p", lambda: CongruenceSet({_H: 0}), Overflow, _CAP),
    ("CongruenceSet_p-", lambda: CongruenceSet({-_H: 0}), NotPrime, "is not prime"),
    ("CongruenceSet_k", lambda: CongruenceSet({3: _H}), ValueError, "0 <= k < p"),
    ("CongruenceSet_k-", lambda: CongruenceSet({3: -_H}), ValueError, "0 <= k < p"),
    ("members_hi", lambda: CongruenceSet().members(1, _H), Overflow, _CAP),
    ("members_lo-", lambda: CongruenceSet().members(-_H, 5), ValueError,
     "lo must be at least 1, got a negative 16610-bit integer"),
    ("realize_p", lambda: realize((2, _H), {2: 1, _H: 1}), Overflow, _CAP),
    ("realize_p-", lambda: realize((2, -_H), {2: 1, -_H: 0}), NotPrime, "is not prime"),
    ("realize_alpha", lambda: realize((2, 3), {2: 1, 3: _H}), BadShape, "out of range [0, 3)"),
    ("realize_alpha-", lambda: realize((2, 3), {2: 1, 3: -_H}), BadShape, "out of range [0, 3)"),
    ("generator", lambda: generator(_D12, (_H,)), Overflow, _CAP),
    ("generator-", lambda: generator(_D12, (-_H,)), NotPrime, "is not prime"),
    ("vertices_p", lambda: vertices(_H, 5), Overflow, _CAP),
    ("vertices_p-", lambda: vertices(-_H, 5), NotPrime, "is not prime"),
    ("vertices_bound", lambda: vertices(3, _H), Overflow, _CAP),
    ("edges_by_definition_p", lambda: edges_by_definition(_H, 5), Overflow, _CAP),
    ("edges_by_definition_bound", lambda: edges_by_definition(3, _H), Overflow, _CAP),
    ("edges_closed_form_p", lambda: edges_closed_form(_H, 5), Overflow, _CAP),
    ("edges_closed_form_bound", lambda: edges_closed_form(3, _H), Overflow, _CAP),
    ("gamma_graph_p", lambda: gamma_graph(_H, 5), Overflow, _CAP),
    ("gamma_graph_bound", lambda: gamma_graph(3, _H), Overflow, _CAP),
    ("gamma_graph_2_bound", lambda: gamma_graph(2, _H), Overflow, _CAP),
    ("degree_infinite_p", lambda: degree_infinite(_H, 3), Overflow, _CAP),
    ("degree_infinite_v", lambda: degree_infinite(3, _H), Overflow, "capped at 4096 bits"),
    ("degree_infinite_v-", lambda: degree_infinite(3, -_H), NotAVertex, "is not positive"),
]


def _knob_refusals(name, knob, k):
    # run_suite with knob one below its least value, and 10**5000 past either end
    return [
        (
            f"run_suite_{name}_{knob}_least-1",
            lambda: run_suite(name, {knob: k.least - 1}),
            ValueError,
            f"suite {name}: {knob} must be at least {k.least}, got {k.least - 1}",
        ),
        (
            f"run_suite_{name}_{knob}",
            lambda: run_suite(name, {knob: _H}),
            Overflow,
            f"suite {name}: {knob} capped at {k.most}, got a 16610-bit integer",
        ),
        (
            f"run_suite_{name}_{knob}-",
            lambda: run_suite(name, {knob: -_H}),
            ValueError,
            f"suite {name}: {knob} must be at least {k.least}, got a negative 16610-bit integer",
        ),
    ]


_HUGE_REFUSALS += [
    row for name in suite_names() for knob, k in knobs(name).items()
    for row in _knob_refusals(name, knob, k)
]


@pytest.mark.parametrize(
    "call, exc, text", [pytest.param(*row[1:], id=row[0]) for row in _HUGE_REFUSALS]
)
def test_unbounded_operands_are_refused_by_the_domain_error(call, exc, text):
    with pytest.raises(exc) as info:
        _call_within_guard(call, ())
    assert text in str(info.value)


# (id, call of one operand, the operand's name, its least value) for each
# lower bound of the library; _knob_refusals holds those of run_suite's knobs
_FLOORS = [
    ("prime_factors", prime_factors, "x", 1),
    ("is_square_free", is_square_free, "b", 1),
    ("zsigmondy_a", lambda v: zsigmondy_inclusion(v, 2), "a", 2),
    ("zsigmondy_n", lambda v: zsigmondy_inclusion(2, v), "n", 2),
    ("perfect_powers", consecutive_perfect_powers, "limit", 2),
    ("first_prime_a", lambda v: first_prime_in_progression(v, 1), "a", 1),
    ("first_prime_b", lambda v: first_prime_in_progression(1, v), "b", 1),
    ("Progression_a", lambda v: Progression(v, 1), "a", 1),
    ("Progression_b", lambda v: Progression(1, v), "b", 1),
    ("closure_a", lambda v: closure(v, 1), "a", 1),
    ("closure_b", lambda v: closure(1, v), "b", 1),
    ("members_lo", lambda v: CongruenceSet().members(v, 5), "lo", 1),
    ("members_hi", lambda v: CongruenceSet({3: 1}).members(5, v), "hi", 5),
    ("descriptor", lambda v: descriptor((v, 7)), "elements", 1),
    ("filter_le", lambda v: filter_le((1, 2), (7, v)), "elements", 1),
    ("pair_A_x", lambda v: pair_A(v, 7), "x", 1),
    ("pair_A_y", lambda v: pair_A(7, v), "y", 1),
    ("primes_from_order", lambda v: primes_from_order(v, 3), "x", 3),
    ("power_chain_x", lambda v: power_chain_equal_set(v, 1), "x", 2),
    ("power_chain_n_max", lambda v: power_chain_equal_set(2, v), "n_max", 1),
    ("vertices_bound", lambda v: vertices(3, v), "bound", 1),
    ("edges_by_definition_bound", lambda v: edges_by_definition(3, v), "bound", 1),
    ("edges_closed_form_bound", lambda v: edges_closed_form(3, v), "bound", 1),
    ("gamma_graph_2_bound", lambda v: gamma_graph(2, v), "bound", 1),
    ("closure_oracle_a", lambda v: closure_oracle(v, 1, 1), "a", 1),
    ("closure_oracle_b", lambda v: closure_oracle(1, v, 1), "b", 1),
    ("closure_oracle_z", lambda v: closure_oracle(1, 1, v), "z", 1),
]


@pytest.mark.parametrize(
    "call, name, least, value, shown",
    [
        pytest.param(call, name, least, value, shown, id=f"{row_id}-{shown_id}")
        for row_id, call, name, least in _FLOORS
        for value, shown, shown_id in (
            (least - 1, str(least - 1), "least-1"),
            (-_H, "a negative 16610-bit integer", "huge"),
        )
    ],
)
def test_every_floor_names_its_operand_floor_and_value(call, name, least, value, shown):
    with pytest.raises(ValueError) as info:
        _call_within_guard(call, (value,))
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be at least {least}, got {shown}"
