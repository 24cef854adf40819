"""Expected answers computed without any of kirchlab's code.

Everything here is plain Python arithmetic: trial division, deterministic
Miller-Rabin, gcds and the definitions from the paper.  The benchmark's
checks compare the program's outputs with these, so nothing in this module
may import kirchlab or share its algorithms (no sieve table, no residue
scan over all primes below max(E)).
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

# Deterministic for every n < 3.3 * 10**24 (first twelve primes as bases).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """{prime: exponent} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("positive integers only")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_of(n: int) -> list:
    """Distinct prime divisors of n >= 1, ascending."""
    return sorted(factorize(n))


def next_prime(n: int) -> int:
    """Least prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


# ------------------------------------------------------------ descriptors


def signature_primes(E) -> list:
    """A(E) for |E| >= 2.

    An odd prime p belongs to A(E) iff the nonzero residues of E mod p all
    agree.  Such a p divides e0, e1 or e1 - e0 for the two least elements,
    so only those primes are candidates; each candidate is tested over all
    of E.
    """
    E = sorted(set(E))
    if len(E) < 2:
        raise ValueError("need at least two elements")
    e0, e1 = E[0], E[1]
    candidates = set(primes_of(e0)) | set(primes_of(e1)) | set(primes_of(e1 - e0))
    out = [2]
    for p in sorted(candidates - {2}):
        nonzero = {e % p for e in E} - {0}
        if len(nonzero) <= 1:
            out.append(p)
    return out


def common_primes(E) -> list:
    """Pi(E): primes dividing every element, from the gcd."""
    return primes_of(reduce(math.gcd, E))


def descriptor(E) -> dict:
    """{"E", "A", "Pi", "alpha"} with int values; A is "all" for singletons."""
    E = sorted(set(E))
    if len(E) == 1:
        return {"E": E, "A": "all", "Pi": primes_of(E[0])}
    A = signature_primes(E)
    Pi = common_primes(E)
    alpha = {}
    for p in A:
        if p == 2:
            alpha[2] = 1
        elif p in Pi:
            alpha[p] = 0
        else:
            alpha[p] = ({e % p for e in E} - {0}).pop()
    return {"E": E, "A": A, "Pi": Pi, "alpha": alpha}


def classify(E) -> dict:
    """Coarse class of the filter of E (|E| >= 2), as the paper defines it."""
    d = descriptor(E)
    odd = [p for p in d["A"] if p != 2]
    pi = set(d["Pi"])
    if not odd:
        return {"tag": "FInfinity"}
    if len(odd) == 1:
        p = odd[0]
        if p in pi:
            return {"tag": "FDoublePrime", "case": 1, "p": p}
        return {"tag": "FPrime", "p": p, "alpha_value": d["alpha"][p]}
    if len(odd) == 2 and pi <= {2}:
        return {"tag": "FDoublePrime", "case": 2, "p": odd[0], "q": odd[1]}
    return {"tag": "Other"}


# ---------------------------------------------------------------- closures


def in_closure(a: int, b: int, z: int) -> bool:
    """z lies in the closure of a + b*N0: for every prime p | b, p | z or z = a mod p."""
    return all(z % p == 0 or (z - a) % p == 0 for p in primes_of(b))


def closure_normal_form(a: int, b: int) -> dict:
    """{"forced": [...], "two_class": {p: k}} read off the primes of b.

    The parity condition for odd a is vacuous and is left out, as in the
    normal form the program prints.
    """
    forced, two = [], {}
    for p in primes_of(b):
        if a % p == 0:
            forced.append(p)
        elif p != 2:
            two[p] = a % p
    return {"forced": forced, "two_class": two}


# ------------------------------------------------------------------ graphs


def is_smooth(d: int, primes) -> bool:
    """Whether every prime divisor of d >= 1 lies in primes."""
    for p in primes:
        while d % p == 0:
            d //= p
    return d == 1


def gamma_vertices(p: int, bound: int) -> list:
    """All 2^a * p^b <= bound with a >= 0, b >= 1, for odd p (powers of 2 for p = 2)."""
    if p == 2:
        return [1 << a for a in range(bound.bit_length()) if 1 << a <= bound]
    out = []
    b = p
    while b <= bound:
        v = b
        while v <= bound:
            out.append(v)
            v *= 2
        b *= p
    return sorted(out)


def gamma_edges(p: int, bound: int) -> list:
    """Vertex pairs x < y of Gamma_p whose difference is {2, p}-smooth."""
    vs = gamma_vertices(p, bound)
    if p == 2:
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
    return [
        (x, y)
        for i, x in enumerate(vs)
        for y in vs[i + 1:]
        if is_smooth(y - x, (2, p))
    ]


def closure_window(a: int, b: int, lo: int, hi: int) -> list:
    """Members of the closure of a + b*N0 in [lo, hi], by the membership rule."""
    z = np.arange(lo, hi + 1, dtype=np.int64)
    keep = np.ones(len(z), dtype=bool)
    for p in primes_of(b):
        keep &= (z % p == 0) | ((z - a) % p == 0)
    return z[keep].tolist()


# ---------------------------------------------------------- classical facts


def prime_shape(p: int) -> dict:
    """{"tag", "m"}: p = 2^m + 1 (Fermat), 2^m - 1 (Mersenne), both (p = 3) or neither."""
    fermat = [m for m in range(1, p.bit_length() + 1) if 2**m + 1 == p]
    mersenne = [m for m in range(2, p.bit_length() + 2) if 2**m - 1 == p]
    if fermat and mersenne:
        return {"tag": "Both", "m": mersenne[0]}
    if fermat:
        return {"tag": "Fermat", "m": fermat[0]}
    if mersenne:
        return {"tag": "Mersenne", "m": mersenne[0]}
    return {"tag": "Neither", "m": None}


def chains_equal_set(x: int, n_max: int) -> list:
    """{n <= n_max : primes(x^n - 1) within primes(x(x - 1))}, ascending."""
    base = set(primes_of(x)) | set(primes_of(x - 1))
    return [n for n in range(1, n_max + 1) if set(primes_of(x**n - 1)) <= base]
