"""Superconnecting filters of the progression topology, by finite descriptor.

For a finite set E of at least two positive integers, the filter of dense
open supersets is determined by three pieces of data:

* A(E)   — the primes p for which E fits inside {0, k} + p*Z for some k
           ("signature primes"; 2 always qualifies since {0,1}+2Z is all of Z);
* Pi(E)  — the primes dividing every element of E;
* alpha  — the canonical residue map on A(E): alpha(2) = 1, alpha(p) = 0 for
           odd p in Pi(E), and otherwise the unique nonzero residue shared
           by the elements of E mod p.

One residue scan writes alpha (descriptor below), and alpha alone carries
what the order reads: its keys are A(E) (compute_A) and its zeros the odd
primes of Pi(E).  For |E|, |F| >= 2 the filter of E lies in the filter of F
iff every p of A(F) lies in A(E) with alpha_E(p) in {0, alpha_F(p)}
(filter_le); an independent search-based route lives in the verify module.

Singletons {x} behave degenerately: every prime qualifies, so A is the
sentinel ALL_PRIMES and alpha is undefined.

Sets are represented as in progressions.CongruenceSet, and realizability
(descriptors -> witness sets) uses the CRT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Optional, Union

from .numtheory import (
    MAX_OPERAND,
    Overflow,  # re-exported: check_cap raises it for this module's caps
    _shown,
    check_cap,
    check_least,
    check_prime,
    crt_solve,
    is_prime,
    prime_factors,
    primes_upto,
)
from .progressions import CongruenceSet


class TooSmall(ValueError):
    """The operation needs a larger input set."""


class BadShape(ValueError):
    """Descriptor data violates the admissibility conditions."""


class OverlapError(ValueError):
    """Extra generator primes must avoid the signature primes."""


class WrongClass(ValueError):
    """The operation applies to a different classification tag."""


MAX_UPSET_PRIME = 10**4  # largest p whose case-1 up-set (p - 1 descriptors) is listed
# largest clamped p_bound of primes_from_order: each prime p costs the
# descriptors of {1, p, 2p} and {2, p, 2p}; (999999937, 2 * 10**5): 8.2-8.8 s, 235 MB
MAX_ORDER_BOUND = 2 * 10**5
_SCAN_CELLS = 1 << 16  # residues the descriptor scan holds at once


class _AllPrimes:
    """Sentinel for 'every prime qualifies' (singleton descriptors)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __contains__(self, p) -> bool:
        return is_prime(int(p))

    def __repr__(self) -> str:
        return "ALL_PRIMES"


ALL_PRIMES = _AllPrimes()


def _element_tuple(E: Iterable[int]) -> tuple:
    elems = tuple(sorted({int(e) for e in E}))
    if not elems:
        raise TooSmall("need a nonempty set")
    check_least("elements", elems[0], 1)
    check_cap("elements", elems[-1], MAX_OPERAND)
    return elems


@dataclass(frozen=True)
class FilterDescriptor:
    """Finite data determining the filter of a set E.

    E is the (sorted) witness set; alpha is the read-only map p -> residue
    over A(E) that descriptor()'s scan wrote, ascending in p, or None for a
    singleton.  A is its keys (ALL_PRIMES for a singleton), and Pi its
    zeros, with 2 when every element is even.  E <= F iff every p of A_F
    has alpha_E(p) in {0, alpha_F(p)}.  alpha is a function of E: it takes
    no part in == and hash, and a descriptor pickles as descriptor(E).
    """

    E: tuple
    alpha: Optional[MappingProxyType] = field(compare=False)

    def __reduce__(self):
        return descriptor, (self.E,)

    @property
    def A(self) -> Union[tuple, _AllPrimes]:
        return ALL_PRIMES if self.alpha is None else tuple(self.alpha)

    @property
    def Pi(self) -> tuple:
        if self.alpha is None:
            return prime_factors(self.E[0])
        two = (2,) if all(e % 2 == 0 for e in self.E) else ()
        return two + tuple(p for p, k in self.alpha.items() if k == 0)

    def to_json_dict(self) -> dict:
        out = {
            "E": list(self.E),
            "A": "all" if self.alpha is None else list(self.alpha),
            "Pi": list(self.Pi),
        }
        if self.alpha is not None:
            out["alpha"] = {str(p): str(k) for p, k in self.alpha.items()}
        return out


def compute_A(E: Iterable[int]) -> tuple:
    """Signature primes of E, ascending: the keys of descriptor(E).alpha.

    2 always qualifies; an odd p iff E fits in {0, k} + p*Z for k its
    largest residue mod p (k = 0 at a common divisor).  descriptor() scans
    every p <= max(E): no larger prime qualifies for |E| >= 2.
    """
    d = descriptor(E)
    if d.alpha is None:
        raise TooSmall("signature scan needs at least two elements")
    return d.A


def pair_A(x: int, y: int) -> tuple:
    """Signature primes of a doubleton, ascending, via factorizations only:

    A({x, y}) = {2} | primes(x) | primes(y) | primes(|x - y|).
    """
    x = check_cap("x", check_least("x", int(x), 1), MAX_OPERAND)
    y = check_cap("y", check_least("y", int(y), 1), MAX_OPERAND)
    if x == y:
        raise ValueError("need two distinct elements")
    return tuple(sorted({2, *prime_factors(x), *prime_factors(y), *prime_factors(abs(x - y))}))


@lru_cache(maxsize=1 << 15)
def _descriptor_cached(elems: tuple) -> FilterDescriptor:
    if len(elems) == 1:
        return FilterDescriptor(elems, None)
    import numpy as np

    # alpha(2) = 1; an odd p whose residues are all 0 or their maximum k
    # gets k (0 at a common divisor).  The int32 prime table holds every
    # operand (MAX_OPERAND < 2**31) and divides faster; blocks of primes
    # keep the residue table near _SCAN_CELLS cells whatever max(E) is
    odd = primes_upto(elems[-1])[1:]
    col = np.array(elems, dtype=np.int32)[:, None]
    step = max(1, _SCAN_CELLS // len(elems))
    alpha = {2: 1}
    for lo in range(0, len(odd), step):
        block = odd[lo:lo + step]
        r = col % block
        top = r.max(axis=0)
        keep = ((r == 0) | (r == top)).all(axis=0)
        alpha.update(zip(block[keep].tolist(), top[keep].tolist()))
    return FilterDescriptor(elems, MappingProxyType(alpha))


def descriptor(E: Iterable[int]) -> FilterDescriptor:
    """Descriptor (E, alpha) of a finite nonempty set; A and Pi are read from alpha."""
    return _descriptor_cached(_element_tuple(E))


def realize(A, alpha) -> tuple:
    """Least witness set realizing prescribed signature data.

    A must contain 2 and at least one odd prime; alpha must be defined
    exactly on A with alpha(2) = 1 and 0 <= alpha(p) < p.  With x the
    product of the odd primes of A and y the least positive solution of
    z = alpha(p) mod p for all p in A, the set {y, x, 2x} has signature
    exactly (A, alpha).  Returned sorted.  Raises Overflow for a p of A
    above MAX_OPERAND, checked before primality, and NotPrime for a p of A
    that is not prime.
    """
    A = [check_prime("primes of A", p) for p in sorted({int(p) for p in A})]
    alpha = {int(p): int(k) for p, k in dict(alpha).items()}
    if 2 not in A or len(A) < 2:
        raise BadShape("need 2 in A together with at least one odd prime")
    if set(alpha) != set(A):
        raise BadShape("alpha must be defined exactly on A")
    if alpha[2] != 1:
        raise BadShape("alpha(2) must be 1")
    for p, k in alpha.items():
        if not 0 <= k < p:
            raise BadShape(f"alpha({p}) = {_shown(k)} out of range [0, {p})")
    x = math.prod(p for p in A if p != 2)
    y, _ = crt_solve((alpha[p], p) for p in A)
    return tuple(sorted({y, x, 2 * x}))


def generator(d: FilterDescriptor, L=()) -> CongruenceSet:
    """A generating congruence set of the filter of d, forcing extra primes L.

    L must be disjoint from A.  The output is a merge of two maps: p -> 0
    for each p of L (forced), and p -> alpha(p) for every signature prime
    with alpha(p) != 0 (two-class): the odd ones outside Pi, plus the
    vacuous marker 2 -> 1.
    """
    if d.alpha is None:
        raise BadShape("singleton filters have no congruence-set generators")
    L = [int(p) for p in L]
    clash = sorted({p for p in L if p in d.alpha})
    if clash:
        raise OverlapError(f"extra primes {clash} already lie in the signature")
    return CongruenceSet({**dict.fromkeys(L, 0), **{p: k for p, k in d.alpha.items() if k}})


def _le_descriptors(dE: FilterDescriptor, dF: FilterDescriptor) -> bool:
    # order criterion on descriptors: every p of A_F lies in A_E, with
    # alpha_E(p) zero or alpha_F(p)
    aE = dE.alpha
    return all(aE.get(p) in (0, k) for p, k in dF.alpha.items())


def filter_le(E: Iterable[int], F: Iterable[int]) -> bool:
    """Whether the filter of E is contained in the filter of F.

    Singletons are minimal in a strong sense: a singleton filter is below
    another filter only via {x} subset F; a filter with |E| >= 2 is never
    below a singleton filter.  Both sets are checked before either
    descriptor is built.
    """
    E, F = _element_tuple(E), _element_tuple(F)
    dE, dF = descriptor(E), descriptor(F)
    if dE.alpha is None or dF.alpha is None:
        return dE.alpha is None and set(dE.E) <= set(dF.E)
    return _le_descriptors(dE, dF)


def filter_eq(E: Iterable[int], F: Iterable[int]) -> bool:
    """Whether E and F determine the same filter."""
    return filter_le(E, F) and filter_le(F, E)


@dataclass(frozen=True)
class ClassLabel:
    """Position of a filter in the coarse classification.

    tag: "FInfinity" (top), "FPrime" (co-atoms: one odd signature prime,
    not a common divisor), "FDoublePrime" (next layer down, two shapes),
    or "Other".  Evidence fields: p (and alpha_value) for FPrime; case 1
    with p, or case 2 with p < q, for FDoublePrime.
    """

    tag: str
    p: Optional[int] = None
    q: Optional[int] = None
    case: Optional[int] = None
    alpha_value: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {"tag": self.tag}
        for name in ("case", "p", "q", "alpha_value"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


def classify(E: Iterable[int]) -> ClassLabel:
    """Coarse position of the filter of E (|E| >= 2) in the order.

    FInfinity:    A = {2}.
    FPrime:       A = {2, p}, p odd, p not a common divisor of E.
    FDoublePrime: case 1 — A = {2, p} with p a common divisor;
                  case 2 — A = {2, p, q}, p < q odd, no odd common divisor.
    Other:        anything else.
    """
    alpha = descriptor(E).alpha
    if alpha is None:
        raise TooSmall("classification needs at least two elements")
    odd = [p for p in alpha if p != 2]
    if not odd:
        return ClassLabel("FInfinity")
    if len(odd) == 1:
        p = odd[0]
        if alpha[p] == 0:
            return ClassLabel("FDoublePrime", p=p, case=1)
        return ClassLabel("FPrime", p=p, alpha_value=alpha[p])
    if len(odd) == 2 and 0 not in alpha.values():
        return ClassLabel("FDoublePrime", p=odd[0], q=odd[1], case=2)
    return ClassLabel("Other")


def upset_in_Fprime(E: Iterable[int]) -> tuple:
    """The FPrime filters above a FDoublePrime filter, as descriptors.

    Case 1 (A = {2,p}, p | E): the p-1 filters of {a, p, 2p}, a = 1..p-1.
    Case 2 (A = {2,p,q}): exactly two, {x, p, 2p} and {x, q, 2q}, where x
    is the least positive integer with x odd, x = alpha(p) mod p and
    x = alpha(q) mod q.  Raises WrongClass unless E is FDoublePrime, and
    Overflow for a case-1 p above MAX_UPSET_PRIME.
    """
    d = descriptor(E)
    label = classify(d.E)
    if label.tag != "FDoublePrime":
        raise WrongClass(f"up-set enumeration applies to FDoublePrime only, got {label.tag}")
    if label.case == 1:
        p = check_cap("case-1 up-set: p", label.p, MAX_UPSET_PRIME)
        return tuple(descriptor((a, p, 2 * p)) for a in range(1, p))
    p, q = label.p, label.q
    x, _ = crt_solve(((1, 2), (d.alpha[p], p), (d.alpha[q], q)))
    return (descriptor({x, p, 2 * p}), descriptor({x, q, 2 * q}))


def primes_from_order(x: int, p_bound: int) -> tuple:
    """Odd primes p <= p_bound dividing x, ascending, recovered from order relations only:

    p | x  iff  filter({1,x}) <= filter({1,p,2p}) and
                filter({2,x}) <= filter({2,p,2p}).

    p_bound is clamped to x, as no prime above x divides it.  Raises
    Overflow for x above MAX_OPERAND or a clamped p_bound above
    MAX_ORDER_BOUND.
    """
    x = check_cap("x", check_least("x", int(x), 3), MAX_OPERAND)
    p_bound = check_cap("p_bound", min(int(p_bound), x), MAX_ORDER_BOUND)
    odd = primes_upto(p_bound)[1:].tolist()
    return tuple(
        p for p in odd if filter_le((1, x), (1, p, 2 * p)) and filter_le((2, x), (2, p, 2 * p))
    )


def power_chain_equal_set(x: int, n_max: int) -> set:
    """{n <= n_max : filter({1, x^n}) equals filter({1, x})}.

    Always contains 1.  Raises Overflow for x above MAX_OPERAND, for n_max
    above 29 (2^30 passes MAX_OPERAND), and for x^n_max above MAX_OPERAND.
    """
    x, n_max = check_least("x", int(x), 2), check_least("n_max", int(n_max), 1)
    check_cap("x", x, MAX_OPERAND)
    # 2^30 already passes MAX_OPERAND: n_max is refused past 29 before any
    # power of it is built
    check_cap("n_max", n_max, MAX_OPERAND.bit_length() - 1)
    check_cap("x^n_max", x**n_max, MAX_OPERAND)
    return {n for n in range(1, n_max + 1) if filter_eq((1, x**n), (1, x))}
