"""Property-based tests tying the closed forms to brute-force semantics."""

import ast
import linecache
import math
import re
import time
from importlib import import_module
from itertools import takewhile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

import kirchlab
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
from kirchlab.progressions import MAX_WINDOW
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


@st.composite
def _congruence_sets(draw):
    # a map p -> k over a subset of the primes <= 13, the marker 2 -> 1 included
    primes = draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13))))
    return CongruenceSet({p: draw(st.integers(0, p - 1)) for p in primes})


@given(_congruence_sets(), _congruence_sets())
@example(CongruenceSet(), CongruenceSet({2: 1}))  # the marker allows every residue
@example(CongruenceSet({3: 0}), CongruenceSet({2: 1, 3: 2}))
def test_congruence_set_subset_matches_the_definition(s1, s2):
    # s1 lies in s2 iff every z of one joint period [1, P] that s1 holds,
    # s2 holds too; membership is read from the residues, not by members
    P = math.prod({*s1.primes_mentioned(), *s2.primes_mentioned()})
    brute = all(s2.contains(z) for z in range(1, P + 1) if s1.contains(z))
    assert congruence_set_subset(s1, s2) == brute


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


# ---------------------------------------------------------------- domain table

# 16610 bits, past the 4300 digits that str() converts by default
_H = 10**5000
_HUGE, _NEGATIVE = "a 16610-bit integer", "a negative 16610-bit integer"
_D12 = descriptor((1, 2))
_LO = 5  # the window start of the members_hi row, whose floor README states as "lo"
_ZSIGMONDY = "the product of a^k - 1 over k < n"


class Slot(NamedTuple):
    """One operand slot of a public call, and its refusals at either end.

    call takes the operand alone.  Past cap the call raises Overflow
    "<name> capped at <cap><unit>, got <value>"; below least a plain
    ValueError "<name> must be at least <least>, got <value>"; None marks an
    end with no such refusal.  A cap on a value derived from the operand (a
    window's size, a bit count, a power) has a row of its own, named as its
    message names the value, and gives in derived the operands to try, each
    with the value the message shows: one just past the cap, and 10**5000
    unless another cap refuses that first.
    """

    id: str
    call: Callable
    name: str
    least: Optional[int]
    cap: Optional[int]
    unit: str = ""
    derived: tuple = ()

    def past_cap(self):
        return self.derived or ((self.cap + 1, str(self.cap + 1)), (_H, _HUGE))


_M, _T = MAX_OPERAND, MAX_TRIAL_OPERAND
_GAMMA = (vertices, edges_by_definition, edges_closed_form, gamma_graph)

# one row per operand slot of the library and of run_suite
_SLOTS = [
    Slot("primes_upto", primes_upto, "prime table", None, _M),
    Slot("is_prime", is_prime, "primality operands", None, _T),
    Slot("is_square_free", is_square_free, "b", 1, _T),
    Slot("prime_factors", prime_factors, "x", 1, _M),
    Slot("classify_prime", classify_prime, "primality operands", None, _T),
    Slot("zsigmondy_a", lambda a: zsigmondy_inclusion(a, 325), "a", 2, None),
    Slot("zsigmondy_n", lambda n: zsigmondy_inclusion(2, n), "n", 2, None),
    # a and n are capped through the bit count of the product they span
    Slot("zsigmondy_bits_a", lambda a: zsigmondy_inclusion(a, 325), _ZSIGMONDY, None, 2**20,
         " bits", ((10**6, "1053000"), (_H, "874516500"))),
    Slot("zsigmondy_bits_n", lambda n: zsigmondy_inclusion(2, n), _ZSIGMONDY, None, 2**20,
         " bits", ((1449, "1049076"), (_H, "a 33219-bit integer"))),
    Slot("perfect_powers", consecutive_perfect_powers, "limit", 2, 10**13),
    Slot("first_prime_a", lambda a: first_prime_in_progression(a, 1), "a", 1, _M),
    Slot("first_prime_b", lambda b: first_prime_in_progression(1, b), "b", 1, _M),
    Slot("compute_A", lambda v: compute_A((1, v)), "elements", 1, _M),
    Slot("pair_A_x", lambda x: pair_A(x, 7), "x", 1, _M),
    Slot("pair_A_y", lambda y: pair_A(1, y), "y", 1, _M),
    Slot("descriptor", lambda v: descriptor((v,)), "elements", 1, _M),
    Slot("filter_le", lambda v: filter_le((1, 2), (1, v)), "elements", 1, _M),
    Slot("filter_le_oracle", lambda v: filter_le_oracle((1, 2), (1, v)), "elements", 1, _M),
    Slot("classify", lambda v: classify((1, v)), "elements", 1, _M),
    Slot("upset_in_Fprime", lambda v: upset_in_Fprime((1, v)), "elements", 1, _M),
    # {p, 2p} is FDoublePrime case 1; 10007 is the least prime past the cap
    Slot("upset_p", lambda p: upset_in_Fprime((p, 2 * p)), "case-1 up-set: p", None,
         MAX_UPSET_PRIME, derived=((10007, "10007"),)),
    Slot("primes_from_order_x", lambda x: primes_from_order(x, 3), "x", 3, _M),
    # p_bound is clamped to x before its cap
    Slot("p_bound", lambda b: primes_from_order(_M, b), "p_bound", None, MAX_ORDER_BOUND,
         derived=((MAX_ORDER_BOUND + 1, "200001"), (_H, "1000000000"))),
    Slot("power_chain_x", lambda x: power_chain_equal_set(x, 1), "x", 2, _M),
    Slot("power_chain_n_max", lambda n: power_chain_equal_set(2, n), "n_max", 1, 29),
    Slot("x^n_max", lambda n: power_chain_equal_set(3, n), "x^n_max", None, _M,
         derived=((19, "1162261467"),)),
    Slot("Progression_a", lambda a: Progression(a, 1), "a", 1, None),
    Slot("Progression_b", lambda b: Progression(1, b).kirch_basic, "b", 1, _T),
    Slot("closure_a", lambda a: closure(a, 1), "a", 1, None),
    Slot("closure_b", lambda b: closure(1, b), "b", 1, _M),
    Slot("closure_oracle_a", lambda a: closure_oracle(a, 1, 1), "a", 1, None),
    Slot("closure_oracle_b", lambda b: closure_oracle(1, b, 1), "b", 1, _M),
    Slot("closure_oracle_z", lambda z: closure_oracle(1, 1, z), "z", 1, None),
    Slot("CongruenceSet_p", lambda p: CongruenceSet({p: 0}), "constraint primes", None, _M),
    Slot("members_lo", lambda lo: CongruenceSet().members(lo, 5), "lo", 1, None),
    Slot("members_hi", lambda hi: CongruenceSet({3: 1}).members(_LO, hi), "hi", _LO, _M),
    # from lo = 1 the window holds hi values; 10**5000 meets hi's own cap first
    Slot("window", lambda hi: CongruenceSet().members(1, hi), "window", None, MAX_WINDOW, " values",
         derived=((MAX_WINDOW + 1, "1000001"),)),
    Slot("realize_p", lambda p: realize((2, p), {2: 1, p: 1}), "primes of A", None, _M),
    Slot("generator", lambda p: generator(_D12, (p,)), "constraint primes", None, _M),
    *(Slot(f"{fn.__name__}_p", lambda p, fn=fn: fn(p, 5), "p", None, _M) for fn in _GAMMA),
    *(Slot(f"{fn.__name__}_bound", lambda b, fn=fn: fn(3, b), "bound", 1, _M) for fn in _GAMMA),
    Slot("gamma_graph_2_bound", lambda b: gamma_graph(2, b), "bound", 1, _M),
    Slot("degree_infinite_p", lambda p: degree_infinite(p, 3), "p", None, _M),
    # 3 * 2**4095 is a vertex of Gamma_3 with 4097 bits
    Slot("degree_infinite_v", lambda v: degree_infinite(3, v), "vertices", None, 4096, " bits",
         derived=((3 << 4095, "4097"), (_H, "16610"))),
    *(
        Slot(f"run_suite_{s}_{knob}", lambda v, s=s, knob=knob: run_suite(s, {knob: v}),
             f"suite {s}: {knob}", k.least, k.most)
        for s in suite_names() for knob, k in knobs(s).items()
    ),
    Slot("run_suite_chains_joint",
         lambda n: run_suite("chains", {"max_base": 32, "max_exponent": n}),
         "suite chains: max_base ** max_exponent", None, _M, derived=((6, "1073741824"),)),
]

# the slots of a required prime, which refuse a negative operand as not prime
_PRIME_SLOTS = {"classify_prime", "CongruenceSet_p", "realize_p", "generator", "degree_infinite_p",
                *(f"{fn.__name__}_p" for fn in _GAMMA)}

# (id, call of one operand, the operand, exception, message) for each
# refusal that is neither a cap nor a floor
_OTHER_REFUSALS = [
    *((f"{s.id}-negative", s.call, -_H, NotPrime, f"{_NEGATIVE} is not prime")
      for s in _SLOTS if s.id in _PRIME_SLOTS),
    ("crt_residue-huge", lambda r: crt_solve([(r, 3)]), _H, ValueError,
     f"residue {_HUGE} must lie in [0, 3)"),
    ("crt_residue-negative", lambda r: crt_solve([(r, 3)]), -_H, ValueError,
     f"residue {_NEGATIVE} must lie in [0, 3)"),
    ("crt_modulus-huge", lambda m: crt_solve([(0, m), (0, 3)]), 3 * _H, NonCoprimeModuli,
     "modulus 3 shares a factor with a 16612-bit integer"),
    ("crt_product-huge", lambda m: crt_solve([(0, 3), (0, m)]), 3 * _H, NonCoprimeModuli,
     "modulus a 16612-bit integer shares a factor with 3"),
    ("CongruenceSet_k-huge", lambda k: CongruenceSet({3: k}), _H, ValueError,
     f"residue must satisfy 0 <= k < p, got {_HUGE} mod 3"),
    ("CongruenceSet_k-negative", lambda k: CongruenceSet({3: k}), -_H, ValueError,
     f"residue must satisfy 0 <= k < p, got {_NEGATIVE} mod 3"),
    ("realize_alpha-huge", lambda k: realize((2, 3), {2: 1, 3: k}), _H, BadShape,
     f"alpha(3) = {_HUGE} out of range [0, 3)"),
    ("realize_alpha-negative", lambda k: realize((2, 3), {2: 1, 3: k}), -_H, BadShape,
     f"alpha(3) = {_NEGATIVE} out of range [0, 3)"),
    ("degree_infinite_v-negative", lambda v: degree_infinite(3, v), -_H, NotAVertex,
     f"{_NEGATIVE} is not positive"),
]


def _domain_cases(s):
    # slot s just past each end, and 10**5000 past it
    if s.cap is not None:
        for kind, (value, shown) in zip(("past", "huge"), s.past_cap()):
            message = f"{s.name} capped at {s.cap}{s.unit}, got {shown}"
            yield pytest.param(s.call, value, Overflow, message, id=f"{s.id}-{kind}")
    if s.least is not None:
        below = (("least-1", s.least - 1, str(s.least - 1)), ("negative", -_H, _NEGATIVE))
        for kind, value, shown in below:
            message = f"{s.name} must be at least {s.least}, got {shown}"
            yield pytest.param(s.call, value, ValueError, message, id=f"{s.id}-{kind}")


@pytest.mark.parametrize(
    "call, value, exc, message",
    [case for s in _SLOTS for case in _domain_cases(s)]
    + [pytest.param(*row[1:], id=row[0]) for row in _OTHER_REFUSALS],
)
def test_every_refusal_has_its_class_and_whole_message(call, value, exc, message):
    with pytest.raises(exc) as info:
        _call_within_guard(call, (value,))
    assert type(info.value) is exc
    assert str(info.value) == message


def test_the_operands_with_no_cap_answer_at_any_size():
    # a progression's a and closure_oracle's z are read only modulo the
    # primes of b, so README's caps table names no cap for them
    assert closure(_H, 6) == closure(_H % 6, 6)
    assert closure_oracle(_H, 6, _H)
    assert Progression(_H, 1).kirch_basic


def _readme_table(header):
    # the cells of each row of README's table whose header row starts with header
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _readme_number(text):
    # 4096, 60 000, 10⁹, 2·10⁵ or 2²⁰, as README writes them
    match = re.fullmatch(r"(?:(\d+)·)?(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", text.replace(" ", ""))
    factor, base, power = match.groups()
    return int(factor or 1) * int(base) ** int(power.translate(_SUPERSCRIPTS) or 1)


def _refused_at(call, value):
    # the cap or floor that the code names when it refuses value
    with pytest.raises(ValueError) as info:
        call(value)
    return int(re.search(r"(?:capped at|at least) (\d+)", str(info.value))[1])


def _code_cap(s):
    return _refused_at(s.call, s.past_cap()[0][0])


def test_readme_states_the_caps_floors_and_knobs_the_code_refuses_at():
    # each table both ways: every row states a bound that the code refuses
    # at, read from its message, and every such bound has a row
    library = [s for s in _SLOTS if not s.name.startswith("suite ")]
    rows = [cap for cap, *_ in _readme_table("| cap |")]
    rows.remove("a knob's greatest value")  # the row that refers to the suite table
    caps = []
    for cap in rows:
        pattern = r"(.+?)( values| bits)?(?: \(`(\w+)\.(\w+)`\))?"
        text, unit, module, const = re.fullmatch(pattern, cap).groups()
        value = _readme_number(text)
        assert const is None or getattr(import_module(f"kirchlab.{module}"), const) == value, cap
        caps.append((value, unit or ""))
    assert sorted(caps) == sorted({(_code_cap(s), s.unit) for s in library if s.cap is not None})

    floors = [_LO if f == "lo" else _readme_number(f) for f, _ in _readme_table("| floor |")]
    code = {_refused_at(s.call, s.least - 1) for s in library if s.least is not None}
    assert sorted(floors) == sorted(code)

    suites = dict(_readme_table("| suite "))
    stated = {
        suite: {
            knob: tuple(map(_readme_number, ends))
            for knob, *ends in re.findall(r"`(\w+)` ([^–]+)–(.+?) \((.+?)\)", text)
        }
        for suite, text in suites.items()
    }
    code = {s: {n: (k.least, k.most, k.default) for n, k in knobs(s).items()} for s in suite_names()}
    assert stated == code
    joint = {
        (f"suite {suite}: {name}", _readme_number(most))
        for suite, text in suites.items()
        for name, most in re.findall(r"`([^`]+)` at most (\S+)", text)
    }
    joint_caps = [s for s in _SLOTS if s.name.startswith("suite ") and s.least is None]
    assert joint == {(s.name, _code_cap(s)) for s in joint_caps}


def test_every_refusal_name_in_the_source_has_a_row():
    # the string-literal names that src passes to check_cap, to check_prime
    # (which caps the prime under that name) and to check_least
    named = {"check_cap": set(), "check_prime": set(), "check_least": set()}
    for path in Path(kirchlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            fn = getattr(getattr(node, "func", None), "id", None)
            if fn in named and isinstance(node.args[0], ast.Constant):
                named[fn].add(node.args[0].value)
    assert all(named.values()), named
    capped = {s.name for s in _SLOTS if s.cap is not None}
    assert (named["check_cap"] | named["check_prime"]) - capped == set()
    assert named["check_least"] - {s.name for s in _SLOTS if s.least is not None} == set()
