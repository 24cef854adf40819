"""Comparability graphs Gamma_p on vertex sets {2^a * p^b}.

For an odd prime p the vertices are 2^a * p^b with a >= 0, b >= 1, and two
vertices x != y are adjacent when the doubleton {x, y} has signature primes
exactly {2, p}.  The signature of a doubleton is
{2} | primes(x) | primes(y) | primes(|x - y|), and on these vertices
primes(x) and primes(y) are {p} or {2, p}; so the signature is
{2, p} | primes(|x - y|), and x, y are adjacent exactly when |x - y| is
{2, p}-smooth.  For p = 2 the graph is the chain on the powers of two.

Edges are produced by two independent routes:

* edges_by_definition — test every vertex pair: strip the factors 2 and p
  from |x - y| and keep the pair when 1 remains;
* edges_closed_form   — enumerate the finitely many solution families of
  2^s - p^t = +-1 (only consecutive-power coincidences can make |x - y|
  smooth), which depend only on the shape of p relative to the powers of 2:

  ========================  =======================================================
  p                          edge families, as exponent offsets (2-exp, p-exp)
  ========================  =======================================================
  3                          (0,0)-(0,1)  (0,0)-(0,2)  (0,0)-(1,0)  (0,0)-(2,0)
                             (0,1)-(2,0)  (1,0)-(0,1)  (3,0)-(0,2)
  Fermat 2^m+1, p > 3        (0,0)-(0,1)  (0,0)-(1,0)  (m,0)-(0,1)
  Mersenne 2^m-1, p > 3      (0,0)-(1,0)  (0,0)-(m,0)  (0,1)-(m,0)
  otherwise                  (0,0)-(1,0)
  ========================  =======================================================

  A family ((u1,v1),(u2,v2)) contributes the edge
  {2^(e+u1) p^(t+v1), 2^(e+u2) p^(t+v2)} for every e >= 0, t >= 1.

Vertex degrees in the infinite graph follow from the same table without
any enumeration (degree_infinite).

A bounded slice takes a bound of at most MAX_OPERAND = 10**9; a larger one
is refused with an Overflow naming the cap, as the definition route tests
every vertex pair.  p is capped at MAX_OPERAND too, before its primality is
tested.  degree_infinite and export_dot read a vertex's exponents
by repeated division, so they refuse a vertex of more than 4096 bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .numtheory import (
    MAX_OPERAND,
    PrimeType,
    _shown,
    check_cap,
    check_least,
    check_prime,
    classify_prime,
)


# the gamma suite's largest vertex, 2**159 * 31**160, has 952 bits
_MAX_VERTEX_BITS = 4096


class NotAVertex(ValueError):
    """The integer is not of the form 2^a * p^b with b >= 1."""


@dataclass(frozen=True)
class GammaGraph:
    """A bounded slice of Gamma_p: all vertices <= bound and their edges."""

    p: int
    bound: int
    prime_type: Optional[PrimeType]
    vertices: tuple
    edges: tuple

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }


def _check_bound(bound: int) -> int:
    return check_cap("bound", check_least("bound", int(bound), 1), MAX_OPERAND)


def _check_odd_prime(p: int) -> int:
    # no vertex 2^a * p^b lies within a bound of at most MAX_OPERAND
    p = check_prime("p", int(p))
    if p == 2:
        raise ValueError("Gamma_p for odd p only; use gamma_graph for p = 2")
    return p


def vertices(p: int, bound: int) -> tuple:
    """All 2^a * p^b <= bound with a >= 0, b >= 1, ascending."""
    p = _check_odd_prime(p)
    bound = _check_bound(bound)
    out = []
    ppow = p
    while ppow <= bound:
        v = ppow
        while v <= bound:
            out.append(v)
            v *= 2
        ppow *= p
    return tuple(sorted(out))


def _families(p: int) -> tuple:
    pt = classify_prime(p)
    if p == 3:
        return (
            ((0, 0), (0, 1)),
            ((0, 0), (0, 2)),
            ((0, 0), (1, 0)),
            ((0, 0), (2, 0)),
            ((0, 1), (2, 0)),
            ((1, 0), (0, 1)),
            ((3, 0), (0, 2)),
        )
    if pt.tag == "Fermat":
        m = pt.witness_exponent
        return (((0, 0), (0, 1)), ((0, 0), (1, 0)), ((m, 0), (0, 1)))
    if pt.tag == "Mersenne":
        m = pt.witness_exponent
        return (((0, 0), (1, 0)), ((0, 0), (m, 0)), ((0, 1), (m, 0)))
    return (((0, 0), (1, 0)),)


def edges_by_definition(p: int, bound: int) -> tuple:
    """Edges among vertices <= bound, by testing the definition on each pair.

    A pair x < y is an edge iff its signature is {2, p}, that is (module
    docstring) iff y - x has no prime factor outside {2, p}: dividing out
    every 2 and every p must leave 1.  No factorization is needed.
    """
    p = _check_odd_prime(p)
    out = []
    for x, y in combinations(vertices(p, bound), 2):
        d = y - x
        while d % 2 == 0:
            d //= 2
        while d % p == 0:
            d //= p
        if d == 1:
            out.append((x, y))
    return tuple(out)  # pairs of the ascending vertices come out sorted


def edges_closed_form(p: int, bound: int) -> tuple:
    """Edges among vertices <= bound, from the solution-family table."""
    p = _check_odd_prime(p)
    bound = _check_bound(bound)
    out = set()
    for (u1, v1), (u2, v2) in _families(p):
        t = 1
        while True:
            x1 = (1 << u1) * p ** (t + v1)
            x2 = (1 << u2) * p ** (t + v2)
            hi = max(x1, x2)
            if hi > bound:
                break
            while hi <= bound:
                out.add((min(x1, x2), max(x1, x2)))
                x1, x2, hi = 2 * x1, 2 * x2, 2 * hi
            t += 1
    return tuple(sorted(out))


def gamma_graph(p: int, bound: int) -> GammaGraph:
    """Bounded slice of Gamma_p with definitional edges.

    For p = 2 it is the chain graph on the powers of two up to bound.
    """
    p = int(p)
    if p == 2:
        bound = _check_bound(bound)
        verts = tuple(1 << a for a in range(bound.bit_length()))
        return GammaGraph(2, bound, None, verts, tuple(zip(verts, verts[1:])))
    _check_odd_prime(p)
    return GammaGraph(
        p,
        int(bound),
        classify_prime(p),
        vertices(p, bound),
        edges_by_definition(p, bound),
    )


def _exponents(p: int, v: int) -> tuple:
    v = int(v)
    if v < 1:
        raise NotAVertex(f"{_shown(v)} is not positive")
    # each division below is linear in v's size, so the strip is quadratic
    check_cap("vertices", v.bit_length(), _MAX_VERTEX_BITS, " bits")
    e2 = 0
    while v % 2 == 0:
        v //= 2
        e2 += 1
    ep = 0
    while v % p == 0:
        v //= p
        ep += 1
    if v != 1 or ep < 1:
        raise NotAVertex(f"not of the form 2^a * {p}^b with b >= 1")
    return e2, ep


def degree_infinite(p: int, v: int) -> int:
    """Degree of v in the full (unbounded) graph Gamma_p.

    Each family endpoint that v can play (both resulting offsets in range)
    contributes its partner vertex; the degree is the number of distinct
    partners.
    """
    p = _check_odd_prime(p)
    e2, ep = _exponents(p, v)
    partners = set()
    for fam in _families(p):
        for (ui, vi), (uj, vj) in (fam, fam[::-1]):
            e, t = e2 - ui, ep - vi
            if e >= 0 and t >= 1:
                partners.add((1 << (e + uj)) * p ** (t + vj))
    return len(partners)


def export_dot(g: GammaGraph) -> str:
    """Deterministic Graphviz rendering; labels show the 2^a*p^b shape."""
    name = f"gamma{g.p}"
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        if g.p == 2:
            a = v.bit_length() - 1
            label = f"2^{a}"
        else:
            a, b = _exponents(g.p, v)
            label = f"2^{a}*{g.p}^{b}"
        lines.append(f'  {v} [label="{label}"];')
    for x, y in g.edges:
        lines.append(f"  {x} -- {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
