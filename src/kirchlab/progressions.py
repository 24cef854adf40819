"""Arithmetic progressions a + b*N0 and closures in the progression topology.

A progression a + b*N0 = {a, a+b, a+2b, ...} is a basic open set of the
topology when b is square-free and coprime to a.  The closure of such a
basic open set inside the positive integers is cut out by finitely many
per-prime conditions, one for each prime divisor p of b:

* if p divides a:   z must be divisible by p               ("forced divisor")
* otherwise:        z must lie in {0, a mod p} modulo p    ("two-class")

CongruenceSet is the normal form for such cut-out sets: forced prime
divisors plus two-class constraints (p, k) with 0 < k < p, held as one map
p -> residues allowed mod p, (0,) or (0, k).
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

from .numtheory import MAX_OPERAND, is_prime, is_square_free, prime_factors

MAX_WINDOW = 10**6  # most values one members() call lists


@dataclass(frozen=True)
class Progression:
    """The set {a + k*b : k = 0, 1, 2, ...}."""

    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        if self.a < 1 or self.b < 1:
            raise ValueError("need a >= 1 and b >= 1")

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
    """{z : p | z for forced p} intersect {z : z mod p in {0, k}} over constraints.

    forced_divisors: ascending tuple of primes that must divide z.
    two_class_constraints: ascending tuple of (p, k) pairs, 0 < k < p,
    with p not among the forced divisors.

    Both are read into one map p -> allowed residues mod p, ascending in p:
    (0,) for a forced divisor and (0, k) for a two-class prime.  Every
    query below reads that map alone.
    """

    forced_divisors: tuple = ()
    two_class_constraints: tuple = ()
    _allowed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        forced = tuple(sorted(int(p) for p in self.forced_divisors))
        pairs = tuple(sorted((int(p), int(k)) for p, k in self.two_class_constraints))
        object.__setattr__(self, "forced_divisors", forced)
        object.__setattr__(self, "two_class_constraints", pairs)
        allowed = {}
        for p, residues in sorted([(p, (0,)) for p in forced] + [(p, (0, k)) for p, k in pairs]):
            if not is_prime(p):
                raise ValueError(f"constraint prime {p} is not prime")
            if p in allowed:
                raise ValueError(f"prime {p} mentioned twice")
            k = residues[-1]
            if residues != (0,) and not 0 < k < p:
                raise ValueError(f"two-class residue must satisfy 0 < k < p, got {k} mod {p}")
            allowed[p] = residues
        object.__setattr__(self, "_allowed", allowed)

    def primes_mentioned(self) -> tuple:
        return tuple(self._allowed)

    @property
    def period(self) -> int:
        return math.prod(self._allowed)

    def allowed_residues(self, p: int):
        """Residues permitted mod p: (0,), (0, k), or None when unconstrained."""
        return self._allowed.get(p)

    def contains(self, z: int) -> bool:
        z = int(z)
        return z >= 1 and all(z % p in allowed for p, allowed in self._allowed.items())

    __contains__ = contains

    def members(self, lo: int, hi: int) -> list:
        """All members in the window [lo, hi], ascending, by enumeration.

        Each constraint allows R_p residues mod p (allowed_residues): (0,)
        for a forced divisor, (0, k) for a two-class prime; a constraint
        allowing every residue, the marker 2 -> 1, is dropped.  Taking the
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

        Raises ValueError unless 1 <= lo <= hi <= MAX_OPERAND and the
        window holds at most MAX_WINDOW values.
        """
        lo, hi = int(lo), int(hi)
        if lo < 1 or lo > hi:
            raise ValueError("need 1 <= lo <= hi")
        if hi > MAX_OPERAND:
            raise ValueError(f"window end capped at {MAX_OPERAND}, got {hi}")
        n = hi - lo + 1
        if n > MAX_WINDOW:
            raise ValueError(f"window capped at {MAX_WINDOW} values, got {n}")
        constraints = [(p, allowed) for p, allowed in self._allowed.items() if len(allowed) < p]
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
            "forced": list(self.forced_divisors),
            "two_class": {str(p): str(k) for p, k in self.two_class_constraints},
        }


def closure(a: int, b: int) -> CongruenceSet:
    """Closure of a + b*N0 within the positive integers, in normal form.

    One condition per prime divisor p of b; the vacuous parity condition
    (odd a, even b: z mod 2 in {0, 1}) is dropped from the normal form.
    """
    a, b = int(a), int(b)
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    forced = []
    two_class = []
    for p in prime_factors(b):
        r = a % p
        if r == 0:
            forced.append(p)
        elif p != 2:
            two_class.append((p, r))
    return CongruenceSet(tuple(forced), tuple(two_class))


def intersect(s1: CongruenceSet, s2: CongruenceSet) -> CongruenceSet:
    """Intersection of two congruence sets, again in normal form.

    The per-prime allowed-residue sets are intersected.  Each of them
    holds residue 0, so every meet does too: the intersection is never
    empty, as it contains the product of the primes of both sets.
    """
    forced = []
    two_class = []
    for p in sorted(s1._allowed.keys() | s2._allowed.keys()):
        r1, r2 = s1._allowed.get(p), s2._allowed.get(p)
        k = max(set(r1 or r2) & set(r2 or r1))  # the meet is {0} or {0, k}
        if k == 0:
            forced.append(p)
        else:
            two_class.append((p, k))
    return CongruenceSet(tuple(forced), tuple(two_class))
