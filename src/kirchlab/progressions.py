"""Arithmetic progressions a + b*N0 and closures in the progression topology.

A progression a + b*N0 = {a, a+b, a+2b, ...} is a basic open set of the
topology when b is square-free and coprime to a.  The closure of such a
basic open set inside the positive integers is cut out by finitely many
per-prime conditions, one for each prime divisor p of b:

* if p divides a:   z must be divisible by p               ("forced divisor")
* otherwise:        z must lie in {0, a mod p} modulo p    ("two-class")

CongruenceSet is the normal form for such cut-out sets: one map p -> k with
0 <= k < p, the same shape as a filter descriptor's alpha, where k = 0
forces p as a divisor and 0 < k < p allows the two classes {0, k} mod p.
closure reads k = a mod p off each prime of b, intersect meets two maps
prime by prime, and filters.generator merges two maps (forced extra primes
and the nonzero entries of alpha).
Since every constraint allows residue 0, a CongruenceSet always contains
the product of its primes — it is never empty, and neither is the
intersection of two of them.

Member listings enumerate the window rather than scan it: the allowed
residues of the most selective primes are combined by CRT into residues
modulo their product Q, each residue lists its arithmetic progression in the
window, and the remaining primes filter that list.  Listings are capped: a
window [lo, hi] must end at or below MAX_OPERAND = 10**9 and hold at most
MAX_WINDOW = 10**6 values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numtheory import (
    MAX_OPERAND,
    _shown,
    check_cap,
    check_least,
    check_prime,
    is_square_free,
    prime_factors,
)

MAX_WINDOW = 10**6  # most values one members() call lists


@dataclass(frozen=True)
class Progression:
    """The set {a + k*b : k = 0, 1, 2, ...}."""

    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", check_least("a", int(self.a), 1))
        object.__setattr__(self, "b", check_least("b", int(self.b), 1))

    @property
    def kirch_basic(self) -> bool:
        """Whether this is a basic open set: b square-free and coprime to a."""
        return math.gcd(self.a, self.b) == 1 and is_square_free(self.b)

    def __contains__(self, z) -> bool:
        z = int(z)
        return z >= self.a and (z - self.a) % self.b == 0


def progressions_intersect(p1: Progression, p2: Progression) -> bool:
    """Whether two progressions meet; by CRT this is a1 = a2 mod gcd(b1, b2)."""
    return (p1.a - p2.a) % math.gcd(p1.b, p2.b) == 0


@dataclass(frozen=True)
class CongruenceSet:
    """{z >= 1 : z mod p in {0, k} for every p -> k of residues}.

    residues: one map p -> k, ascending in p, with 0 <= k < p: the same
    shape as a descriptor's alpha.  k = 0 makes p a forced divisor (z mod p
    must be 0); 0 < k < p makes p a two-class prime (z mod p in {0, k}).
    The marker 2 -> 1 allows every residue.  Every constraint prime is
    checked against MAX_OPERAND before its primality is tested.
    """

    residues: dict = field(default_factory=dict)

    def __post_init__(self):
        residues = {}
        for p, k in sorted((int(p), int(k)) for p, k in dict(self.residues).items()):
            check_prime("constraint primes", p)
            if not 0 <= k < p:
                raise ValueError(f"residue must satisfy 0 <= k < p, got {_shown(k)} mod {p}")
            residues[p] = k
        object.__setattr__(self, "residues", residues)

    def __hash__(self):
        return hash(tuple(self.residues.items()))

    def primes_mentioned(self) -> tuple:
        return tuple(self.residues)

    @property
    def period(self) -> int:
        return math.prod(self.residues)

    def allowed_residues(self, p: int):
        """Residues permitted mod p: (0,), (0, k), or None when unconstrained."""
        k = self.residues.get(p)
        return None if k is None else (0, k) if k else (0,)

    def contains(self, z: int) -> bool:
        z = int(z)
        return z >= 1 and all(z % p in (0, k) for p, k in self.residues.items())

    __contains__ = contains

    def members(self, lo: int, hi: int) -> list:
        """All members in the window [lo, hi], ascending, by enumeration.

        Each constraint p -> k allows R_p residues mod p: (0,) for a forced
        divisor (k = 0), (0, k) for a two-class prime; the marker 2 -> 1,
        which allows every residue, is dropped from the list.  Taking the
        primes most selective first (least R_p / p), each one either joins
        the CRT modulus Q, multiplying the R residues mod Q by R_p, or is
        kept back to filter the candidates, whichever lowers the estimated
        work R * (1 + n / Q) on a window of n values (residues plus
        candidates).  That estimate starts at n + 1 with Q = 1 and never
        rises, so the work is at most about one pass over the window, and
        far less for a sparse set: one range(first >= lo, hi + 1, Q) per
        residue, the kept-back primes applied to what those ranges list,
        then a sort that merges the R ascending runs.  A prime above the
        window joins Q (at most two candidates per p values) instead of
        filtering it all.

        Raises ValueError unless 1 <= lo <= hi, and Overflow unless
        hi <= MAX_OPERAND and the window holds at most MAX_WINDOW values.
        """
        lo = check_least("lo", int(lo), 1)
        hi = check_cap("hi", check_least("hi", int(hi), lo), MAX_OPERAND)
        n = check_cap("window", hi - lo + 1, MAX_WINDOW, " values")
        constraints = [
            (p, (0, k) if k else (0,)) for p, k in self.residues.items() if (p, k) != (2, 1)
        ]
        constraints.sort(key=lambda c: len(c[1]) / c[0])
        Q, residues, kept_back = 1, [0], []
        for p, allowed in constraints:
            if len(allowed) * (Q * p + n) <= p * (Q + n):
                inv = pow(Q, -1, p)
                residues = [r + Q * ((s - r) * inv % p) for r in residues for s in allowed]
                Q *= p
            else:
                kept_back.append((p, allowed))
        out = []
        for r in residues:
            out.extend(range(lo + (r - lo) % Q, hi + 1, Q))
        for p, allowed in kept_back:
            out = [z for z in out if z % p in allowed]
        if len(residues) > 1:
            out.sort()
        return out

    def to_json_dict(self) -> dict:
        return {
            "forced": [p for p, k in self.residues.items() if k == 0],
            "two_class": {str(p): str(k) for p, k in self.residues.items() if k},
        }


def closure(a: int, b: int) -> CongruenceSet:
    """Closure of a + b*N0 within the positive integers, in normal form.

    One condition per prime divisor p of b; the vacuous parity condition
    (odd a, even b: z mod 2 in {0, 1}) is dropped from the normal form.
    """
    a, b = check_least("a", int(a), 1), check_cap("b", check_least("b", int(b), 1), MAX_OPERAND)
    return CongruenceSet({p: a % p for p in prime_factors(b) if p != 2 or a % 2 == 0})


def intersect(s1: CongruenceSet, s2: CongruenceSet) -> CongruenceSet:
    """Intersection of two congruence sets, again in normal form.

    Prime by prime, {0, k1} meets {0, k2} in {0, k1} when k1 = k2 and in
    {0} otherwise, and a prime of one set alone keeps its k.  Each meet
    holds residue 0, so the intersection is never empty: it contains the
    product of the primes of both sets.
    """
    r1, r2 = s1.residues, s2.residues
    return CongruenceSet({p: k if r1.get(p, k) == k else 0 for p, k in {**r1, **r2}.items()})
