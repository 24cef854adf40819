"""Elementary number theory shared by the whole laboratory.

Prime tables, factorization, CRT over (residue, modulus) pairs, the
2^m+-1 prime shapes, and three classical checkers: primitive prime
divisors of a^n - 1, consecutive perfect powers, and least primes in
arithmetic progressions.

All prime enumeration goes through one shared int32 table of primes.  The
seed primes <= 31 are a tuple until the first primes_upto call, which makes
the table and is the first to import numpy, so that `import kirchlab`
does not.  The table gets room for every prime up to MAX_OPERAND at its
first growth past the seed and grows on demand in place: a segmented
odds-only sieve strikes only the new range and writes its primes after the
old ones, so the table is never copied and the OS maps only the pages the
primes fill.  Operands are capped at MAX_OPERAND = 10**9: growing the table
to that size takes 3-4.5 s on a 2-vCPU host and peaks at about 230 MB RSS
(the table is 203 MB of it), which is the documented capacity of this
module.

Only an explicit primes_upto call grows the table, and only primes_upto
reads it.  is_prime is Miller-Rabin over the bases 2..37, exact far past
its 10**18 cap.  prime_factors trial-divides by 2, 3, 5 and the numbers
prime to 30 up to the square root of its operand (at most 31622), and
is_square_free by those up to the cube root of its operand (at most
10**6).

Every cap of the library refuses through check_cap, an Overflow naming the
cap, every floor through check_least, a ValueError naming the floor, and
every required prime through check_prime; their messages show a large
operand by its size, as str() of an int past 4300 digits fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np

MAX_OPERAND = 10**9
# largest operand of is_prime and is_square_free; its cube root, 10**6,
# bounds the trial divisors of is_square_free
MAX_TRIAL_OPERAND = MAX_OPERAND**2
# Miller-Rabin over these bases is exact below 3.1 * 10**23 (Sorenson and
# Webster, Math. Comp. 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_TERMS = 10**6  # most candidates first_prime_in_progression tests
# largest limit of consecutive_perfect_powers, which loops over every base
# up to its square root: 10**13 takes 7-10 s and about 300 MB
_MAX_POWERS_LIMIT = 10**13
_ZSIGMONDY_BITS = 2**20  # most bits of the product of earlier terms in zsigmondy_inclusion


class Overflow(ValueError):
    """The computation would exceed the documented operand capacity."""


class NonCoprimeModuli(ValueError):
    """CRT input moduli share a common factor."""


class NotPrime(ValueError):
    """A prime was required."""


class NotCoprime(ValueError):
    """Arguments share a common factor where coprimality is required."""


class SearchBoundExceeded(ValueError):
    """A bounded search ran out of budget before finding its target."""


def _shown(v: int) -> str:
    if abs(v) < 1 << 64:
        return str(v)
    return f"a {'negative ' if v < 0 else ''}{int(v).bit_length()}-bit integer"


def check_cap(name: str, value: int, cap: int, unit: str = "") -> int:
    """value, refused with Overflow("<name> capped at <cap><unit>, got <value>") past cap."""
    if value > cap:
        raise Overflow(f"{name} capped at {cap}{unit}, got {_shown(value)}")
    return value


def check_least(name: str, value: int, least: int) -> int:
    """value, refused with ValueError("<name> must be at least <least>, got <value>") below."""
    if value < least:
        raise ValueError(f"{name} must be at least {_shown(least)}, got {_shown(value)}")
    return value


def check_prime(name: str, p: int, cap: int = MAX_OPERAND) -> int:
    """p, checked against cap before its primality: Overflow, then NotPrime."""
    if not is_prime(check_cap(name, p, cap)):
        raise NotPrime(f"{_shown(p)} is not prime")
    return p


_SIEVE_BLOCK = 1 << 20  # odd numbers struck at once while the table grows


def _pi_bound(x: int) -> int:
    # Dusart: pi(x) <= x / ln x * (1 + 1.2762 / ln x) for every x > 1
    ln = math.log(x)
    return int(x / ln * (1 + 1.2762 / ln)) + 1


# the seed primes <= 31, from which the first growth, to 31**2 at most,
# takes its striking primes: a tuple until the first primes_upto call makes
# them an int32 array.  That growth moves them into room for every prime up
# to MAX_OPERAND, allocated then and never moved again: np.empty maps a page
# only when the sieve first writes to it, so the table costs the memory of
# the primes it holds
_table = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# the primes <= _limit, a read-only view of the front of _table once
# primes_upto has run
_primes = _table
_limit: int = 31


def _grow(new_limit: int) -> None:
    # segmented sieve of the odd numbers in (_limit, new_limit], block by
    # block, writing the new primes in place after the old ones; each block
    # is struck with the odd primes up to the square root of its end, which
    # the table holds once it reaches that root
    import numpy as np

    global _table, _primes, _limit
    count = len(_primes)
    if len(_table) == count:  # the seed table, which has no room
        _table = np.empty(_pi_bound(MAX_OPERAND), dtype=np.int32)
        _table[:count] = _primes
    lo = _limit
    while lo < new_limit:
        hi = min(lo + 2 * _SIEVE_BLOCK, new_limit, lo * lo)
        first = lo + 1 + lo % 2  # least odd number above lo
        flags = np.ones((hi - first) // 2 + 1, dtype=bool)
        root = np.int32(math.isqrt(hi))
        for p in _table[1:np.searchsorted(_table[:count], root, side="right")].tolist():
            # the least odd multiple of p that is at least max(first, p * p)
            start = (max(-(-first // p), p) | 1) * p
            flags[(start - first) // 2::p] = False
        found = first + 2 * np.flatnonzero(flags)
        _table[count:count + len(found)] = found
        count += len(found)
        lo = hi
    _primes = _table[:count]
    _primes.flags.writeable = False
    _limit = new_limit


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as a read-only int32 array.

    int32 holds every prime the table can hold (MAX_OPERAND < 2**31).  The
    array is a view of the shared table, which grows in place: it stays
    valid and unchanged after later growth.
    """
    import numpy as np

    global _table, _primes
    n = check_cap("prime table", int(n), MAX_OPERAND)
    if isinstance(_primes, tuple):  # the first call: the seed becomes the table
        _table = np.array(_primes, dtype=np.int32)
        _primes = _table[:]
        _primes.flags.writeable = False
    if n > _limit:
        # an eighth more than the last limit at least: a logarithmic number
        # of growths, none past n by more than 12.5 %
        _grow(min(max(n, _limit + _limit // 8, 1000), MAX_OPERAND))
    # a typed key: a Python int would cast the whole table to int64
    idx = int(np.searchsorted(_primes, _primes.dtype.type(max(n, 0)), side="right"))
    return _primes[:idx]


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality over the bases 2..37.

    Raises Overflow for n above MAX_TRIAL_OPERAND = 10**18.
    """
    n = check_cap("primality operands", int(n), MAX_TRIAL_OPERAND)
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the gaps between the numbers prime to 30, from 7 (7, 11, 13, 17, 19, 23,
# 29, 31, 37): the trial divisors after 2, 3 and 5, one turn of the wheel
# at a time.  A composite divisor never divides what is left, as its prime
# factors were divided out first
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


@lru_cache(maxsize=1 << 16)
def _factor_tuple(x: int) -> tuple:
    out = []
    for p in (2, 3, 5):
        if x % p == 0:
            out.append(p)
            while x % p == 0:
                x //= p
    p = 7
    while p * p <= x:
        # a turn may test up to seven divisors past the square root of x:
        # one that divides x is x itself, a prime, as no prime below it does
        for gap in _WHEEL_GAPS:
            if x % p == 0:
                out.append(p)
                while x % p == 0:
                    x //= p
            p += gap
    if x > 1:
        out.append(x)
    return tuple(out)


def prime_factors(x: int) -> tuple:
    """The distinct prime divisors of x, ascending.  prime_factors(1) is ()."""
    return _factor_tuple(check_cap("x", check_least("x", int(x), 1), MAX_OPERAND))


def is_square_free(b: int) -> bool:
    """True when no prime square divides b; b is capped at MAX_TRIAL_OPERAND."""
    b = check_cap("b", check_least("b", int(b), 1), MAX_TRIAL_OPERAND)
    for p in (2, 3, 5):
        if b % p == 0:
            b //= p
            if b % p == 0:
                return False
    p = 7
    while p * p * p <= b:
        for gap in _WHEEL_GAPS:
            if b % p == 0:
                b //= p
                if b % p == 0:
                    return False
            p += gap
    # no prime factor left in b is below p, whose cube exceeds b, so b is
    # 1, q, qr or q*q for primes q and r
    return b == 1 or math.isqrt(b) ** 2 != b


def crt_solve(pairs: Iterable[tuple]) -> tuple:
    """Combine congruences z = residue mod modulus into one, as (residue, modulus).

    pairs: (residue, modulus) pairs of ints with 0 <= residue < modulus
    and pairwise coprime moduli.  The result's modulus is the product of the
    input moduli and its residue is the least non-negative simultaneous
    solution; no pairs give (0, 1).  Raises ValueError for a residue
    outside [0, modulus) and NonCoprimeModuli when two moduli share a
    factor.
    """
    r, m = 0, 1
    for residue, modulus in pairs:
        if not 0 <= residue < modulus:
            raise ValueError(f"residue {_shown(residue)} must lie in [0, {_shown(modulus)})")
        if math.gcd(m, modulus) != 1:
            raise NonCoprimeModuli(f"modulus {_shown(modulus)} shares a factor with {_shown(m)}")
        t = ((residue - r) * pow(m, -1, modulus)) % modulus
        r += m * t
        m *= modulus
    return r, m


@dataclass(frozen=True)
class PrimeType:
    """Shape of a prime relative to the powers of two.

    tag is one of "Fermat" (p = 2^m + 1), "Mersenne" (p = 2^m - 1), "Both"
    (only p = 3) or "Neither".  witness_exponent is m; for "Both" it is the
    Mersenne exponent (2 for p = 3); None for "Neither".
    """

    tag: str
    witness_exponent: Optional[int] = None


def classify_prime(p: int) -> PrimeType:
    """Classify a prime as 2^m+1, 2^m-1, both, or neither."""
    p = check_prime("primality operands", int(p), MAX_TRIAL_OPERAND)
    below, above = p - 1, p + 1
    fermat = below >= 2 and below & (below - 1) == 0
    mersenne = above >= 4 and above & (above - 1) == 0
    if fermat and mersenne:
        return PrimeType("Both", above.bit_length() - 1)
    if fermat:
        return PrimeType("Fermat", below.bit_length() - 1)
    if mersenne:
        return PrimeType("Mersenne", above.bit_length() - 1)
    return PrimeType("Neither", None)


def zsigmondy_inclusion(a: int, n: int) -> bool:
    """Whether every prime divisor of a^n - 1 already divides some a^k - 1, k < n.

    Decided without factoring: repeatedly strip from a^n - 1 its gcd with
    the product of the smaller terms; the support is included iff the
    quotient reaches 1.  The product of the smaller terms has at most
    n(n-1)/2 * ceil(log2 a) bits, capped at 2**20 (about 1 s on a 2-vCPU
    host); a larger product is an Overflow naming the cap.
    """
    a, n = check_least("a", int(a), 2), check_least("n", int(n), 2)
    # (a - 1).bit_length() is ceil(log2 a)
    bits = n * (n - 1) // 2 * (a - 1).bit_length()
    check_cap("the product of a^k - 1 over k < n", bits, _ZSIGMONDY_BITS, " bits")
    lower = 1
    for k in range(1, n):
        lower *= a**k - 1
    rem = a**n - 1
    g = math.gcd(rem, lower)
    while g > 1:
        rem //= g
        g = math.gcd(rem, lower)
    return rem == 1


def consecutive_perfect_powers(limit: int) -> list:
    """All pairs (u, u+1) of perfect powers m^k (k >= 2) with u+1 <= limit.

    limit is capped at 10**13; a larger one is an Overflow naming the cap.
    """
    limit = check_cap("limit", check_least("limit", int(limit), 2), _MAX_POWERS_LIMIT)
    powers = set()
    m = 2
    while m * m <= limit:
        v = m * m
        while v <= limit:
            powers.add(v)
            v *= m
        m += 1
    return [(u, u + 1) for u in sorted(powers) if u + 1 in powers]


def first_prime_in_progression(a: int, b: int) -> int:
    """Least prime of the form a + k*b with k >= 1, for coprime a, b.

    The offset a itself is not a candidate: the progression searched is
    a+b, a+2b, ...  Raises NotCoprime when gcd(a, b) > 1 and
    SearchBoundExceeded after 10**6 candidates.  a and b are capped at
    MAX_OPERAND, so that every candidate stays below about 10**15, within
    is_prime's cap; a larger value is an Overflow naming the cap.
    """
    a, b = check_least("a", int(a), 1), check_least("b", int(b), 1)
    check_cap("a", a, MAX_OPERAND)
    check_cap("b", b, MAX_OPERAND)
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) > 1; the progression contains at most one prime")
    v = a
    for _ in range(_MAX_TERMS):
        v += b
        if is_prime(v):
            return v
    raise SearchBoundExceeded(f"no prime in the first {_MAX_TERMS} terms of {a} + k*{b}")
