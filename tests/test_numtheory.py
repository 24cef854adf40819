"""Unit tests for the basic number-theory layer."""

import bisect
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kirchlab import (
    NonCoprimeModuli,
    NotCoprime,
    NotPrime,
    SearchBoundExceeded,
    classify_prime,
    consecutive_perfect_powers,
    crt_solve,
    first_prime_in_progression,
    is_prime,
    is_square_free,
    prime_factors,
    primes_upto,
    realize,
    zsigmondy_inclusion,
)
from kirchlab import numtheory
from kirchlab.numtheory import MAX_OPERAND, MAX_TRIAL_OPERAND


def _brute_primes(n):
    flags = [True] * (n + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            for q in range(p * p, n + 1, p):
                flags[q] = False
    return [i for i in range(n + 1) if flags[i]]


def test_primes_upto_matches_reference_sieve():
    assert list(primes_upto(100)) == _brute_primes(100)
    assert list(primes_upto(2)) == [2]
    assert list(primes_upto(1)) == []
    assert list(primes_upto(0)) == []
    assert list(primes_upto(-(10**10))) == []


def test_primes_upto_grows_monotonically():
    small = list(primes_upto(50))
    big = list(primes_upto(10_000))
    assert big[: len(small)] == small
    assert big[-1] == 9973


@lru_cache(maxsize=1)
def _reference_upto_3e6():
    return _brute_primes(3_000_000)


def _reset_table(monkeypatch):
    # back to the seed primes <= 31: the growths that follow rewrite the
    # slots after them with the same primes, and the larger limit returns
    # when monkeypatch undoes this
    monkeypatch.setattr(numtheory, "_primes", primes_upto(31))
    monkeypatch.setattr(numtheory, "_limit", 31)


_EDGE = 1000 + 2 * numtheory._SIEVE_BLOCK  # first block end of a growth from 1000


@pytest.mark.parametrize(
    "limits",
    [
        (1000, _EDGE - 1),  # the last block one short of full
        (1000, _EDGE),  # the growth ends on a block edge
        (1000, _EDGE + 1),  # a last block of one number
        (1368, 1018081, 2036162),  # the next growth starts at 37**2; ends on 1009**2; even
        (2999999,),  # one direct jump from the initial table
    ],
    ids=str,
)
def test_primes_upto_grows_in_steps_like_a_plain_sieve(monkeypatch, limits):
    _reset_table(monkeypatch)
    ref = _reference_upto_3e6()
    for limit in limits:
        got = primes_upto(limit)
        assert numtheory._limit == limit
        assert not got.flags.writeable and got.dtype == np.int32
        for m in (limit, limit - 1, limit // 2 + 1, 961, 31, 2, 1):
            assert primes_upto(m).tolist() == ref[: bisect.bisect_right(ref, m)], (limit, m)


def test_a_returned_table_stays_valid_after_growth(monkeypatch):
    _reset_table(monkeypatch)
    ref = _reference_upto_3e6()
    before = primes_upto(10**5)
    after = primes_upto(2 * 10**6)
    assert numtheory._limit >= 2 * 10**6
    assert before.tolist() == ref[: bisect.bisect_right(ref, 10**5)]
    assert after.tolist() == ref[: bisect.bisect_right(ref, 2 * 10**6)]
    assert np.shares_memory(before, after)


def test_ascending_calls_grow_the_table_a_logarithmic_number_of_times(monkeypatch):
    _reset_table(monkeypatch)
    grows = []
    grow = numtheory._grow
    monkeypatch.setattr(numtheory, "_grow", lambda limit: grows.append(limit) or grow(limit))
    for n in range(1000, 10**6, 7):
        primes_upto(n)
    # each growth reaches an eighth past the last limit: log_{9/8} 1000 + 1
    assert len(grows) <= math.ceil(math.log(1000, 9 / 8)) + 1, len(grows)


def test_primes_upto_reads_the_table_without_copying_it():
    # an untyped searchsorted key would cast the whole int32 table to int64
    primes_upto(10**7)
    tracemalloc.start()
    try:
        primes_upto(10**7 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_primes_upto_capacity_at_the_operand_cap(fresh_process):
    # a fresh process per case.  The documented capacity (module docstring)
    # is about 230 MB measured.  The growth from half the cap writes after
    # the primes the table holds: a growth that copied them into a new table
    # would hold both, near 330 MB
    cases = (("", 400), ("primes_upto(MAX_OPERAND // 2)\n", 300))
    for first, bound in cases:
        code = (
            "from kirchlab.numtheory import MAX_OPERAND, primes_upto\n"
            f"{first}"
            "t = primes_upto(MAX_OPERAND)\n"
            "print(len(t), int(t[-1]))\n"
        )
        (count, last), mb = fresh_process(code)
        assert (int(count), int(last)) == (50847534, 999999937)
        assert mb < bound, (first, mb)


def test_small_operands_need_no_room_for_the_whole_table(fresh_process):
    # a fresh process under a 300 MB address-space limit, set in that
    # process alone: the table with room for every prime up to MAX_OPERAND
    # (205 MB of address space) is allocated at the first growth, not at
    # import, and these calls read no table
    code = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300_000 * 1024, hard))\n"
        "from kirchlab import classify_prime, prime_factors\n"
        "print(*prime_factors(6), classify_prime(7).tag)\n"
    )
    fields, _ = fresh_process(code)
    assert fields == ["2", "3", "Mersenne"]


def test_is_prime_small_values():
    reference = set(_brute_primes(2000))
    for n in range(-5, 2001):
        assert is_prime(n) == (n in reference), n


def test_is_prime_larger_witnesses():
    assert is_prime(999_999_937)
    assert not is_prime(999_999_937 - 1)
    assert is_prime(2**31 - 1)
    # beyond int32, which holds the prime table
    assert is_prime(4294967311)
    assert not is_prime(2**32 + 1)
    assert is_prime(999999999999999989)  # the largest prime below 10**18


def test_prime_factors_recovers_every_integer_up_to_1e5():
    # Product of the returned primes (with multiplicity stripped off)
    # must reconstruct x exactly.
    for x in range(2, 100_001):
        fs = prime_factors(x)
        rem = x
        for p in fs:
            assert x % p == 0
            while rem % p == 0:
                rem //= p
        assert rem == 1, x


def test_prime_factors_examples():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(2 * 3 * 5 * 7 * 11) == (2, 3, 5, 7, 11)


def test_prime_factors_rejects_nonpositive_and_huge():
    with pytest.raises(ValueError):
        prime_factors(0)
    with pytest.raises(ValueError):
        prime_factors(-6)
    with pytest.raises(ValueError):
        prime_factors(10**9 + 1)


def test_is_square_free_matches_definition():
    for n in range(1, 3000):
        brute = all(n % (p * p) != 0 for p in _brute_primes(int(n**0.5) + 1))
        assert is_square_free(n) == brute, n


def _brute_factorization(n):
    # {p: e} by trial division over every d >= 2, no prime table involved
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


# 3**4 * 7 * 11 * 13 * 19 * 37 * 52579 * 333667 and the product of the
# primes <= 47: each has small prime divisors and a square root near 10**9
SMALL_DIVISORS_LARGE_ROOT = (999999999999999999, 614889782588491410)


@given(st.integers(1, 10**12) | st.integers(1, 10**4))
@example(1)
@example(2)
@example(3)
@example(4)
@example(49)
@example(2**31 - 1)
@example(4294967311)
@example(2**32 + 1)
@example(999_999_937)
# the wheel's first gaps, 31**2, a prime square and a product of two primes
# near the square root of MAX_OPERAND, and a prime square near the cube
# root of MAX_TRIAL_OPERAND
@example(121)
@example(961)
@example(31607**2)
@example(31601 * 31607)
@example(999983**2)
@example(SMALL_DIVISORS_LARGE_ROOT[0])
@example(SMALL_DIVISORS_LARGE_ROOT[1])
# Carmichael numbers and strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5;
# 2, 3, 5, 7; 2..11 and 2..13
@example(561)
@example(1105)
@example(25326001)
@example(3215031751)
@example(2152302898747)
@example(3474749660383)
def test_trial_division_matches_a_brute_force_reference(n):
    ref = _brute_factorization(n)
    assert is_prime(n) == (ref == {n: 1})
    assert is_square_free(n) == all(e == 1 for e in ref.values())
    if n <= MAX_OPERAND:
        assert prime_factors(n) == tuple(sorted(ref))


@pytest.mark.parametrize(
    "n, factors",
    [
        (341550071728321, (10670053, 32010157)),  # strong pseudoprime to the bases 2..17
        (999999937**2, (999999937, 999999937)),
        (999999937 * 1000000007, (999999937, 1000000007)),
        (1000003**2 * 997, (997, 1000003, 1000003)),
    ],
    ids=str,
)
def test_primality_and_square_freeness_of_large_products(n, factors):
    # products of known primes, too large for the brute-force reference
    assert all(is_prime(p) for p in factors) and math.prod(factors) == n
    assert not is_prime(n)
    assert is_square_free(n) == (len(set(factors)) == len(factors))


def test_only_primes_upto_grows_the_table(monkeypatch):
    # primality, square-freeness and factoring read no table: they never
    # call primes_upto and leave the table as they found it
    asked = []
    monkeypatch.setattr(numtheory, "primes_upto", lambda n: asked.append(n) or primes_upto(n))
    limit, primes = numtheory._limit, numtheory._primes
    # the uncached is_prime and _factor_tuple, so that a cache hit cannot
    # hide a table read
    assert is_prime.__wrapped__(999999999999999989)
    assert not is_prime.__wrapped__(SMALL_DIVISORS_LARGE_ROOT[0])
    for b in (SMALL_DIVISORS_LARGE_ROOT + (999999937**2, 999999937 * 1000000007, 1000003**2 * 997)):
        is_square_free(b)
    for x in (MAX_OPERAND, 999999937, 2**29, 31622**2):
        numtheory._factor_tuple.__wrapped__(x)
    assert asked == []
    assert numtheory._limit == limit and numtheory._primes is primes


def test_calls_near_the_trial_cap_answer_at_once(fresh_process):
    # a fresh process per call, each of which once grew the table to 10**9
    # (12 s, 245 MB)
    calls = (
        "is_prime(999999999999999989)",
        "is_square_free(999999937**2)",
        "is_square_free(999999937 * 1000000007)",
        "is_square_free(1000003**2 * 997)",
        "999999999999999989 in descriptor((7,)).A",
    )
    for call in calls:
        code = (
            "import time\n"
            "from kirchlab import descriptor, is_prime, is_square_free, numtheory\n"
            "t = time.perf_counter()\n"
            f"answer = {call}\n"
            "s = time.perf_counter() - t\n"
            "print(answer, s, numtheory._limit)\n"
        )
        (answer, s, limit), mb = fresh_process(code)
        assert answer == str(call in (calls[0], calls[2], calls[4])), call
        assert float(s) < 2 and mb < 60 and int(limit) <= 10**6, (call, s, mb, limit)


def test_realize_sorts_and_deduplicates_its_primes():
    assert realize((3, 2, 3), {2: 1, 3: 2}) == realize((2, 3), {2: 1, 3: 2})


def test_realize_rejects_non_primes():
    with pytest.raises(NotPrime):
        realize((2, 4), {2: 1, 4: 1})
    with pytest.raises(ValueError):
        realize((1, 2), {1: 0, 2: 1})
    # a non-positive element is named
    with pytest.raises(NotPrime, match="-1 is not prime"):
        realize((-1, 2), {-1: 0, 2: 1})
    with pytest.raises(NotPrime, match="0 is not prime"):
        realize((0, 2), {0: 0, 2: 1})
    with pytest.raises(NotPrime, match="-3 is not prime"):
        realize((-3, 2), {2: 1, -3: 0})


def test_primality_operands_above_the_cap_are_a_domain_error():
    assert MAX_TRIAL_OPERAND == MAX_OPERAND**2
    cap = f"capped at {MAX_TRIAL_OPERAND}"
    for call in (
        lambda: is_prime(MAX_TRIAL_OPERAND + 1),
        lambda: is_prime(10**20),
        lambda: is_square_free(10**20),
    ):
        with pytest.raises(ValueError, match=cap):
            call()
    assert not is_prime(MAX_TRIAL_OPERAND)
    assert not is_square_free(MAX_TRIAL_OPERAND)


def test_crt_examples():
    assert crt_solve([(2, 3), (3, 5)]) == (8, 15)
    assert crt_solve([(1, 2), (0, 3), (0, 5)]) == (15, 30)
    assert crt_solve([]) == (0, 1)


def test_crt_brute_force_cross_check():
    moduli = (2, 3, 5, 7)
    for a in range(2):
        for b in range(3):
            for c in range(5):
                for d in range(7):
                    residue, modulus = crt_solve([(a, 2), (b, 3), (c, 5), (d, 7)])
                    assert modulus == 210
                    z = residue if residue else 210
                    assert z % 2 == a and z % 3 == b and z % 5 == c and z % 7 == d


def test_crt_rejects_shared_factor():
    with pytest.raises(NonCoprimeModuli):
        crt_solve([(1, 6), (2, 4)])


def test_congruence_validation():
    with pytest.raises(ValueError):
        crt_solve([(3, 3)])
    with pytest.raises(ValueError):
        crt_solve([(-1, 5)])
    with pytest.raises(ValueError):
        crt_solve([(0, 0)])


@pytest.mark.parametrize(
    "p, tag, m",
    [
        (3, "Both", 2),
        (5, "Fermat", 2),
        (7, "Mersenne", 3),
        (17, "Fermat", 4),
        (31, "Mersenne", 5),
        (11, "Neither", None),
        (13, "Neither", None),
        (257, "Fermat", 8),
        (8191, "Mersenne", 13),
        (65537, "Fermat", 16),
    ],
)
def test_classify_prime_examples(p, tag, m):
    got = classify_prime(p)
    assert got.tag == tag
    assert got.witness_exponent == m


def test_classify_prime_witness_structure():
    # Every Fermat witness exponent is a power of two; every Mersenne
    # witness exponent is prime.  Check everything below 1e5.
    for p in primes_upto(100_000):
        p = int(p)
        if p == 2:
            continue
        tag, m = classify_prime(p).tag, classify_prime(p).witness_exponent
        if tag == "Fermat":
            assert 2**m + 1 == p and (m & (m - 1)) == 0
        elif tag == "Mersenne":
            assert 2**m - 1 == p and is_prime(m)
        elif tag == "Both":
            assert p == 3
        else:
            assert tag == "Neither" and m is None


def test_classify_prime_handles_two_and_rejects_composites():
    assert classify_prime(2).tag == "Neither"
    with pytest.raises(NotPrime):
        classify_prime(9)


def test_zsigmondy_inclusion_examples():
    assert zsigmondy_inclusion(2, 6)  # 63 = 3^2 * 7, support of 2^1..2^5 covers it
    assert zsigmondy_inclusion(3, 2)  # 8 has only the prime 2, present in 3^1-1
    assert not zsigmondy_inclusion(2, 5)  # 31 is new
    assert not zsigmondy_inclusion(10, 3)
    with pytest.raises(ValueError):
        zsigmondy_inclusion(1, 5)
    with pytest.raises(ValueError):
        zsigmondy_inclusion(2, 1)


def test_consecutive_perfect_powers_small_limit():
    assert consecutive_perfect_powers(10) == [(8, 9)]
    assert consecutive_perfect_powers(8) == []
    with pytest.raises(ValueError):
        consecutive_perfect_powers(1)


def test_first_prime_in_progression_examples(monkeypatch):
    assert first_prime_in_progression(3, 4) == 7  # skips the lower endpoint itself
    assert first_prime_in_progression(1, 10) == 11
    assert first_prime_in_progression(4, 9) == 13
    assert first_prime_in_progression(1, 999999937) == 9999999371  # tests candidates above 2**31
    with pytest.raises(NotCoprime):
        first_prime_in_progression(2, 4)
    monkeypatch.setattr(numtheory, "_MAX_TERMS", 1)
    with pytest.raises(SearchBoundExceeded, match="first 1 terms"):
        first_prime_in_progression(1, 8)  # 9 is composite
