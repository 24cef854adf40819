"""Independent oracles and randomized/exhaustive verification suites.

Every nontrivial computation in the library has a second, independent
route to the same answer:

* closure_oracle        — closure membership via progression intersections
                          (no congruence normal form involved);
* congruence_set_subset — containment of congruence sets, decided per prime
                          (exact, since both sets are CRT products);
* filter_le_oracle      — filter containment by generator membership search,
                          not by the descriptor criterion.

The suites run the two routes against each other over exhaustive grids and
seeded random samples, and package the outcome as a SuiteReport.  Reports
are deterministic for a fixed (suite, bounds, seed): the canonical JSON
body excludes timing.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .numtheory import (
    MAX_OPERAND,
    check_cap,
    check_least,
    classify_prime,
    consecutive_perfect_powers,
    prime_factors,
    primes_upto,
    zsigmondy_inclusion,
)
from .progressions import CongruenceSet, Progression, closure, progressions_intersect
from .filters import (
    TooSmall,
    _element_tuple,
    _le_descriptors,
    classify,
    compute_A,
    descriptor,
    filter_eq,
    filter_le,
    generator,
    pair_A,
    power_chain_equal_set,
    realize,
    upset_in_Fprime,
)
from .gamma import degree_infinite, edges_by_definition, edges_closed_form, vertices

_FAILURE_CAP = 50
_GAMMA_NON_EDGE_SAMPLES = 200  # non-edge pairs per prime bound to pair_A


class UnknownSuite(ValueError):
    """No verification suite is registered under that name."""


# ---------------------------------------------------------------- oracles


def closure_oracle(a: int, b: int, z: int) -> bool:
    """Closure membership from the definition, via progression intersections.

    z lies in the closure of a + b*N0 iff every basic open set around z
    meets the progression; it suffices to intersect the neighborhoods
    z + p*N0 for the primes p of b not dividing z.
    """
    a = check_least("a", int(a), 1)
    b = check_cap("b", check_least("b", int(b), 1), MAX_OPERAND)
    z = check_least("z", int(z), 1)
    base = Progression(a, b)
    for p in prime_factors(b):
        if z % p == 0:
            continue
        if not progressions_intersect(Progression(z, p), base):
            return False
    return True


def congruence_set_subset(s1: CongruenceSet, s2: CongruenceSet) -> bool:
    """Whether s1 is contained in s2, decided prime by prime.

    Exact: a congruence set is the CRT product of its per-prime residue
    sets (all residues at unmentioned primes), so containment holds iff at
    every prime p -> k of s2 the residues that s1 allows are allowed.  A
    prime s1 leaves free passes only at the marker 2 -> 1, which allows
    every residue; a two-class residue k1 of s1 must be k (residue 0 is
    always allowed).
    """
    r1 = s1.residues
    for p, k in s2.residues.items():
        k1 = r1.get(p)
        if k1 is None:
            if (p, k) != (2, 1):
                return False
        elif k1 and k1 != k:
            return False
    return True


def _generator(memo: dict, d, L: tuple) -> CongruenceSet:
    # generator(d, L), built once per (d, L) of the memo: the oracle asks
    # for the same few generators of each descriptor over and over.  L is
    # an ascending tuple of primes outside A(d).
    key = (d.E, L)
    s = memo.get(key)
    if s is None:
        s = memo[key] = generator(d, L)
    return s


def _member_of_filter(memo: dict, B: CongruenceSet, dF, extra_pool=()) -> bool:
    # B belongs to the filter of dF iff some generator of dF fits inside B.
    # Forcing more primes only shrinks a generator, so the existential over
    # L' is decided by the maximal choice: all primes of B (plus any extra
    # pool) outside the signature of dF, ascending as B keeps them.
    primes = B.primes_mentioned()
    if extra_pool:
        primes = sorted({*primes, *extra_pool})
    pool = tuple([p for p in primes if p not in dF.alpha])
    return congruence_set_subset(_generator(memo, dF, pool), B)


def _oracle_descriptors(memo: dict, dE, dF, extra_pool=()) -> bool:
    outside = [p for p in dF.alpha if p not in dE.alpha]
    # every L0 once, lazily, so that the search stops at the first generator
    # outside the filter of dF: the singletons first, since when A_F strays
    # outside A_E a one-prime L0 already fails, then (), then the larger
    # subsets by size
    for p in outside:
        if not _member_of_filter(memo, _generator(memo, dE, (p,)), dF, extra_pool):
            return False
    for size in (0, *range(2, len(outside) + 1)):
        for L0 in combinations(outside, size):
            if not _member_of_filter(memo, _generator(memo, dE, L0), dF, extra_pool):
                return False
    return True


def filter_le_oracle(E, F, extra_pool=()) -> bool:
    """Filter containment by generator membership search.

    The filter of E is contained in the filter of F iff every generator
    B = generator(E, L0), L0 ranging over the subsets of A_F \\ A_E,
    belongs to the filter of F — i.e. some generator of F fits inside B.
    extra_pool adds primes to the candidate forcing pool of the membership
    search; by CRT independence it never changes the verdict (exercised by
    the pool-widening checks).  Both sets are checked before either
    descriptor is built.
    """
    E, F = _element_tuple(E), _element_tuple(F)
    if min(len(E), len(F)) < 2:
        raise TooSmall("the generator search needs |E|, |F| >= 2")
    return _oracle_descriptors({}, descriptor(E), descriptor(F), extra_pool)


# ---------------------------------------------------------------- reports


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one verification suite run."""

    suite_name: str
    bounds: dict
    seed: int
    instances_checked: int
    failures: tuple
    failure_count: int
    findings: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite_name,
            "bounds": {k: list(v) if isinstance(v, tuple) else v for k, v in self.bounds.items()},
            "seed": self.seed,
            "instances_checked": self.instances_checked,
            "failure_count": self.failure_count,
            "failures": [dict(f) for f in self.failures],
            "findings": [dict(f) for f in self.findings],
            "passed": self.passed,
        }


class _Recorder:
    """Collects failure records, keeping at most _FAILURE_CAP of them."""

    def __init__(self):
        self.records = []
        self.total = 0

    def add(self, input_, expected, got):
        self.total += 1
        if len(self.records) < _FAILURE_CAP:
            self.records.append({"input": input_, "expected": expected, "got": got})


# ---------------------------------------------------------------- suites


def _witness(zs, a, pis):
    # closure membership from the definition: every prime p of b divides z
    # or z - a.  a is a scalar, giving one flag per z of zs, or an (n, 1)
    # column, giving one row of flags per a
    witness = np.ones(np.broadcast_shapes(np.shape(a), zs.shape), dtype=bool)
    for p in pis:
        witness &= (zs % p == 0) | ((zs - a) % p == 0)
    return witness


def _suite_closure(bounds, rng):
    a_max, b_max = bounds["a_max"], bounds["b_max"]
    rec = _Recorder()
    checked = 0
    a_column = np.arange(1, a_max + 1, dtype=np.int64)[:, None]
    for b in range(1, b_max + 1):
        pis = prime_factors(b)
        rad = math.prod(pis)
        zs = np.arange(1, rad + 1, dtype=np.int64)
        table = _witness(zs, a_column, pis)  # row a - 1 holds a's witness
        for a in range(1, a_max + 1):
            want = zs[table[a - 1]].tolist()
            got = closure(a, b).members(1, rad)
            checked += rad
            if got != want:
                w = set(want)
                for z in sorted(w.symmetric_difference(got)):
                    rec.add([a, b, z], z in w, z not in w)
    # bind contains to the scalar closure_oracle on sampled z
    for _ in range(bounds["samples"]):
        a = rng.randint(1, a_max)
        b = rng.randint(1, b_max)
        z = rng.randint(1, 4 * math.prod(prime_factors(b)))
        got = closure(a, b).contains(z)
        want = closure_oracle(a, b, z)
        checked += 1
        if got != want:
            rec.add([a, b, z], want, got)
    # bind the window enumeration to the witness: one seeded window per b,
    # up to twice rad(b) wide and anywhere below the operand cap, so that
    # some primes join the CRT modulus and some filter its candidates
    for b in range(1, b_max + 1):
        pis = prime_factors(b)
        a = rng.randint(1, a_max)
        width = rng.randint(1, 2 * math.prod(pis))
        lo = rng.randint(2, MAX_OPERAND - width + 1)
        zs = np.arange(lo, lo + width, dtype=np.int64)
        want = zs[_witness(zs, a, pis)].tolist()
        got = closure(a, b).members(lo, lo + width - 1)
        checked += width
        if got != want:
            rec.add([a, b, lo, lo + width - 1], want, got)
    return checked, rec, []


def _suite_pairA(bounds, rng):
    n = bounds["max_value"]
    rec = _Recorder()
    odd_ps = [int(p) for p in primes_upto(n) if p != 2]
    # factor table built through the library's factorization route, and
    # the residue of every value mod every odd prime for the definition
    table = np.zeros((n + 1, len(odd_ps)), dtype=bool)
    pos = {p: i for i, p in enumerate(odd_ps)}
    for v in range(1, n + 1):
        for p in prime_factors(v):
            if p != 2:
                table[v, pos[p]] = True
    odd = np.array(odd_ps, dtype=np.int64)
    residues = np.arange(n + 1)[:, None] % odd
    # one row x at a time over y in (x, n]: y is row x + 1 + j, y - x is j + 1
    for x in range(1, n):
        ry = residues[x + 1:]
        rx = residues[x]
        col_def = (rx == 0) | (ry == 0) | (ry == rx)
        col_fac = table[x] | table[x + 1:] | table[1:n - x + 1]
        for j, i in zip(*np.nonzero(col_def != col_fac)):
            rec.add([x, x + 1 + int(j), odd_ps[i]], bool(col_fac[j, i]), bool(col_def[j, i]))
    checked = n * (n - 1) // 2
    # each library route against the definition read from the same table,
    # so that a fault both routes share still shows
    for _ in range(bounds["samples"]):
        x = rng.randint(1, n - 1)
        y = rng.randint(x + 1, n)
        checked += 1
        rx, ry = residues[x], residues[y]
        want = [2, *odd[(rx == 0) | (ry == 0) | (ry == rx)].tolist()]
        got = {"compute_A": list(compute_A((x, y))), "pair_A": list(pair_A(x, y))}
        if any(A != want for A in got.values()):
            rec.add([x, y], want, got)
    return checked, rec, []


def _suite_realize(bounds, rng):
    pool = tuple(bounds["prime_pool"])
    odd = [p for p in pool if p != 2]
    rec = _Recorder()
    checked = 0
    for r in range(1, len(odd) + 1):
        for subset in combinations(odd, r):
            A = (2,) + subset
            for combo in product(*(range(p) for p in subset)):
                alpha = {2: 1, **dict(zip(subset, combo))}
                E = realize(A, alpha)
                d = descriptor(E)
                checked += 1
                if d.alpha != alpha:  # A and Pi are read from alpha
                    rec.add(
                        {"A": list(A), "alpha": {str(p): k for p, k in alpha.items()}},
                        {"A": list(A), "Pi": [p for p in subset if alpha[p] == 0]},
                        d.to_json_dict(),
                    )
    return checked, rec, []


def _random_set(rng, max_value, sizes):
    return tuple(sorted(rng.sample(range(1, max_value + 1), rng.choice(sizes))))


def _descriptor_key(d):
    # what the filter order reads of a descriptor: its residue map alpha
    return tuple(d.alpha.items())


def _suite_order(bounds, rng):
    n = bounds["max_value"]
    sizes = tuple(bounds["sizes"])
    rec = _Recorder()
    sets_all = [c for size in sizes for c in combinations(range(1, n + 1), size)]
    reps = {}
    for s in sets_all:
        d = descriptor(s)
        reps.setdefault(_descriptor_key(d), d)
    rep_descs = list(reps.values())
    checked = 0
    # both routes are pure functions of the descriptor key, so the key grid
    # covers the full exhaustive pair space; the oracle's generators are
    # memoized over the grid and dropped with it
    memo = {}
    for dE in rep_descs:
        for dF in rep_descs:
            got = _le_descriptors(dE, dF)
            want = _oracle_descriptors(memo, dE, dF)
            checked += 1
            if got != want:
                rec.add([list(dE.E), list(dF.E)], want, got)
    # raw samples binding the key factoring to the public entry points, then
    # random pairs over a wider element range
    phases = ((n, bounds["raw_samples"]), (bounds["random_max"], bounds["random_pairs"]))
    for max_value, count in phases:
        for _ in range(count):
            E = _random_set(rng, max_value, sizes)
            F = _random_set(rng, max_value, sizes)
            checked += 1
            got = filter_le(E, F)
            want = filter_le_oracle(E, F)
            if got != want:
                rec.add([list(E), list(F)], want, got)
    # pool widening must never change oracle verdicts
    for _ in range(bounds["widen_samples"]):
        E = _random_set(rng, bounds["random_max"], sizes)
        F = _random_set(rng, bounds["random_max"], sizes)
        hi = max(max(E), max(F), 100)
        primes = primes_upto(4 * hi)  # holds three primes above 2 * hi (Bertrand)
        extra = tuple(int(p) for p in primes[primes > 2 * hi][:3])
        checked += 1
        base = filter_le_oracle(E, F)
        wide = filter_le_oracle(E, F, extra_pool=extra)
        if base != wide:
            rec.add([list(E), list(F), list(extra)], base, wide)
    findings = [{"distinct_descriptors": len(rep_descs)}]
    return checked, rec, findings


def _suite_classify(bounds, rng):
    n = bounds["max_value"]
    rec = _Recorder()
    # residue rule by stripes: an odd prime p qualifies for {x, y} iff it
    # divides x, y or y - x (rx == ry is p | y - x), so mark multiples once
    odd_div = np.zeros(n + 1, dtype=bool)
    for p in primes_upto(n)[1:]:
        odd_div[::p] = True
    flagged = []
    # one row x at a time over y in (x, n]: y is x + 1 + j, y - x is j + 1
    for x in range(1, n):
        trivial = ~(odd_div[x] | odd_div[x + 1:] | odd_div[1:n - x + 1])  # signature {2}
        is_pow2 = np.zeros(n - x, dtype=bool)
        if x & (x - 1) == 0 and 2 * x <= n:
            is_pow2[x - 1] = True  # y = 2x
        for j in np.nonzero(trivial != is_pow2)[0]:
            rec.add([x, x + 1 + int(j)], bool(is_pow2[j]), bool(trivial[j]))
        flagged.extend((x, x + 1 + int(j)) for j in np.nonzero(trivial)[0])
    checked = n * (n - 1) // 2
    # scalar binding: every flagged pair, plus a random sample
    flag_set = set(flagged)
    sample = list(flagged)
    for _ in range(bounds["samples"]):
        x = rng.randint(1, n - 1)
        sample.append((x, rng.randint(x + 1, n)))
    for x, y in sample:
        got = classify((x, y)).tag == "FInfinity"
        want = (x, y) in flag_set
        checked += 1
        if got != want:
            rec.add([x, y], want, got)
    findings = [{"trivial_signature_pairs": [list(f) for f in flagged]}]
    return checked, rec, findings


def _suite_upsets(bounds, rng):
    plist = tuple(bounds["prime_list"])
    rec = _Recorder()
    checked = 0
    # case 1: the up-set of the filter of {p, 2p} has exactly p - 1 elements
    for p in plist:
        E = (p, 2 * p)
        up = upset_in_Fprime(E)
        checked += 1
        ok = len(up) == p - 1 == len({_descriptor_key(d) for d in up})
        for d in up:
            lab = classify(d.E)
            ok = ok and lab.tag == "FPrime" and lab.p == p and filter_le(E, d.E)
        if not ok:
            rec.add(list(E), {"size": p - 1, "all_FPrime": True}, {"size": len(up)})
    # case 2: seeded instances get a two-element up-set of FPrime filters
    odd_small = [int(q) for q in primes_upto(31) if q != 2]
    for _ in range(bounds["instances"]):
        p, q = sorted(rng.sample(odd_small, 2))
        ap, aq = rng.randint(1, p - 1), rng.randint(1, q - 1)
        E = realize((2, p, q), {2: 1, p: ap, q: aq})
        lab = classify(E)
        up = upset_in_Fprime(E)
        checked += 1
        ok = (
            lab.tag == "FDoublePrime"
            and lab.case == 2
            and len(up) == 2
            and all(classify(d.E).tag == "FPrime" for d in up)
            and {classify(d.E).p for d in up} == {p, q}
            and all(filter_le(E, d.E) for d in up)
        )
        if not ok:
            rec.add(list(E), {"case": 2, "upset_size": 2}, lab.to_json_dict())
    # distinguished element: among a corpus of FDoublePrime filters, exactly
    # the ones equal to the filter of {3, 6} have an up-set disjoint from the
    # up-sets of every {r, 2r}, r != 3
    ref_keys = {
        r: {_descriptor_key(d) for d in upset_in_Fprime((r, 2 * r))} for r in plist if r != 3
    }
    corpus = [(3, 6), (6, 12), (12, 24)] + [(r, 2 * r) for r in plist if r != 3]
    for p, q in combinations(plist, 2):
        for ap, aq in ((1, 1), (p - 1, q - 1)):
            corpus.append(realize((2, p, q), {2: 1, p: ap, q: aq}))
    for E in corpus:
        up_keys = {_descriptor_key(d) for d in upset_in_Fprime(E)}
        disjoint = all(not (up_keys & ref) for ref in ref_keys.values())
        want = filter_eq(E, (3, 6))
        checked += 1
        if disjoint != want:
            rec.add(list(E), want, disjoint)
    return checked, rec, []


def _suite_gamma(bounds, rng):
    plist = tuple(bounds["prime_list"])
    bound = bounds["bound"]
    grid = bounds["grid"]
    rec = _Recorder()
    checked = 0
    findings = []
    for p in plist:
        verts = vertices(p, bound)
        by_def = set(edges_by_definition(p, bound))
        closed = set(edges_closed_form(p, bound))
        checked += len(verts) * (len(verts) - 1) // 2
        for x, y in sorted(by_def - closed):
            rec.add([p, x, y], "edge (definition)", "missing (closed form)")
        for x, y in sorted(closed - by_def):
            rec.add([p, x, y], "non-edge (definition)", "edge (closed form)")
        findings.append({"p": p, "vertices": len(verts), "edges": len(by_def)})
        # bind the smoothness test to the signature route: every definition
        # edge, and a seeded sample of non-edges, goes through pair_A
        non_edges = [e for e in combinations(verts, 2) if e not in by_def]
        sample = rng.sample(non_edges, min(_GAMMA_NON_EDGE_SAMPLES, len(non_edges)))
        for x, y in sorted(by_def) + sample:
            edge = (x, y) in by_def
            signature = pair_A(x, y)
            checked += 1
            if (signature == (2, p)) != edge:
                rec.add([p, x, y], {"signature": list(signature)}, "edge" if edge else "non-edge")
    # infinite-graph degrees against the classified fingerprints
    for p in plist:
        tag = classify_prime(p).tag
        for a in range(grid):
            for b in range(1, grid + 1):
                v = 2**a * p**b
                deg = degree_infinite(p, v)
                checked += 1
                if p == 3:
                    ok = deg == 4 if v == 3 else deg >= 5
                    want = "4 at v=3, else >=5"
                elif tag in ("Fermat", "Mersenne"):
                    ok = deg == 2 if v == p else deg >= 3
                    want = "2 at v=p, else >=3"
                else:
                    ok = deg == (1 if a == 0 else 2)
                    want = "1 on pure powers, else 2"
                if not ok:
                    rec.add([p, v], want, deg)
    return checked, rec, findings


def _suite_zsigmondy(bounds, rng):
    a_max, n_max = bounds["max_base"], bounds["max_exponent"]
    rec = _Recorder()
    checked = 0
    exceptional = []
    for a in range(2, a_max + 1):
        for n in range(2, n_max + 1):
            got = zsigmondy_inclusion(a, n)
            want = (n == 2 and a & (a + 1) == 0) or (a, n) == (2, 6)
            checked += 1
            if got:
                exceptional.append([a, n])
            if got != want:
                rec.add([a, n], want, got)
    return checked, rec, [{"inclusions": exceptional}]


def _suite_powers(bounds, rng):
    limit = bounds["limit"]
    rec = _Recorder()
    pairs = consecutive_perfect_powers(limit)
    if pairs != [(8, 9)]:
        rec.add(limit, [[8, 9]], [list(p) for p in pairs])
    n_powers = 0
    m = 2
    while m * m <= limit:
        v = m * m
        while v <= limit:
            n_powers += 1
            v *= m
        m += 1
    return n_powers, rec, [{"consecutive_pairs": [list(p) for p in pairs]}]


def _suite_chains(bounds, rng):
    x_max, n_max = bounds["max_base"], bounds["max_exponent"]
    check_cap("suite chains: max_base ** max_exponent", x_max**n_max, MAX_OPERAND)
    rec = _Recorder()
    checked = 0
    findings = []
    for x in range(2, x_max + 1):
        S = power_chain_equal_set(x, n_max)
        checked += 1
        if 1 not in S:
            rec.add([x, n_max], "1 in equality set", sorted(S))
        for m in range(1, n_max + 1):
            checked += 1
            if not filter_le((1, x**m), (1, x)):
                rec.add([x, m], "chain below filter({1,x})", False)
        mersenne_like = x & (x + 1) == 0
        if x % 2 and not mersenne_like and S != {1}:
            rec.add([x, n_max], [1], sorted(S))
        if S != {1}:
            findings.append({"x": x, "equal_exponents": sorted(S)})
    return checked, rec, findings


@dataclass(frozen=True)
class Knob:
    """A suite parameter that `verify --bound` sets: its default and range.

    least is the least useful value: below it a suite checks nothing, or a
    phase has no range to draw from.  most keeps the suite's slowest
    accepted setting near 10 s (2 vCPUs, Python 3.11).  run_suite refuses a
    value above most with check_cap's Overflow, one below least with check_least.
    """

    default: int
    least: int
    most: int


# one row per suite: name -> (suite function, {param: value}).  A Knob is a
# param that `verify --bound` sets, positionally in row order; every other
# param is fixed.  The params keep the order of a report's `bounds` body.
# Comments give whole `kirchlab verify` runs at the slowest accepted setting.
_SUITES = {
    "closure": (
        _suite_closure,
        {"a_max": Knob(200, 1, 400), "b_max": Knob(200, 1, 400), "samples": 2000},
    ),  # 400 400: 1.9-2.2 s, 33 MB
    # 1000: 0.6 s, 32 MB
    "pairA": (_suite_pairA, {"max_value": Knob(500, 2, 1000), "samples": 300}),
    "realize": (_suite_realize, {"prime_pool": (2, 3, 5, 7, 11, 13)}),
    # order draws sets of up to max(sizes) = 3 elements from [1, max_value]
    # and [1, random_max].  The grid is the square of the distinct
    # descriptors: 393 at the default 30, 479 at 33, 528 at 34.  33 1000:
    # 1.3-1.5 s, 46 MB
    "order": (
        _suite_order,
        {
            "max_value": Knob(30, 3, 33),
            "sizes": (2, 3),
            "raw_samples": 300,
            "random_pairs": 500,
            "random_max": Knob(100, 3, 1000),
            "widen_samples": 100,
        },
    ),
    # the pair scan holds one row of at most max_value pairs at a time; 8192:
    # 0.4-0.5 s, 32 MB
    "classify": (_suite_classify, {"max_value": Knob(4096, 2, 8192), "samples": 800}),
    "upsets": (
        _suite_upsets,
        {"prime_list": (3, 5, 7, 11, 13), "instances": Knob(20, 0, 60_000)},
    ),  # 60000: 6.1-8.8 s
    # the Gamma_p bound is the library's operand cap; 10**9 160: 7.9-8.7 s
    "gamma": (
        _suite_gamma,
        {
            "prime_list": (3, 5, 7, 11, 13, 17, 31),
            "bound": Knob(10**6, 1, MAX_OPERAND),
            "grid": Knob(20, 1, 160),
        },
    ),
    "zsigmondy": (
        _suite_zsigmondy,
        {"max_base": Knob(30, 2, 100), "max_exponent": Knob(30, 2, 140)},
    ),  # 100 140: 8.1-9.4 s
    # the least limit holds the pair 8, 9 that the suite expects; 10**13:
    # 7.4-10.3 s, 299 MB
    "powers": (_suite_powers, {"limit": Knob(10**6, 9, 10**13)}),
    # max_base ** max_exponent is also at most MAX_OPERAND, the operand cap
    # of descriptor(), which scans every prime up to each x^m; 29 is the largest
    # n with 2^n within it.  31 6 is the slowest: 3.4-3.6 s, 209 MB (the
    # default: 1.5-1.7 s, 105 MB; 19 7: 2.9-3.2 s, 210 MB; 10 9: 2.8-3.0 s,
    # 229 MB; 2 29: 1.3-1.5 s, 143 MB)
    "chains": (_suite_chains, {"max_base": Knob(50, 2, 50), "max_exponent": Knob(5, 1, 29)}),
}


def suite_names() -> tuple:
    return tuple(_SUITES)


def knobs(name: str) -> dict:
    """The Knobs of suite name, by param, in `verify --bound`'s positional order."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; expected one of {', '.join(_SUITES)}")
    return {k: v for k, v in _SUITES[name][1].items() if isinstance(v, Knob)}


def run_suite(name: str, bounds: dict = None, seed: int = 0) -> SuiteReport:
    """Run one registered suite and return its report.

    bounds overrides some of the suite's knobs(name).  check_least refuses a
    knob below its least value, and check_cap one past its most or past the
    suite's joint cap (chains: max_base ** max_exponent), each under the name
    "suite <name>: <knob>".  Any other key, the suite's fixed params in the
    _SUITES table included, is rejected by name.  Every refusal comes
    before any work.  seed drives every randomized phase, making the report
    body reproducible.  A run that checks nothing is an error, never a pass.
    """
    settable = knobs(name)
    bounds = bounds or {}
    fixed = sorted(set(bounds) - set(settable))
    if fixed:
        raise ValueError(
            f"suite {name}: cannot set {', '.join(fixed)}; "
            f"settable knobs: {', '.join(settable) or 'none'}"
        )
    suite, params = _SUITES[name]
    cfg = {k: v.default if isinstance(v, Knob) else v for k, v in params.items()}
    cfg.update(bounds)
    for knob, k in settable.items():
        label = f"suite {name}: {knob}"
        check_least(label, check_cap(label, cfg[knob], k.most), k.least)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    checked, rec, findings = suite(cfg, rng)
    elapsed = time.perf_counter() - t0
    if checked == 0:
        raise ValueError(f"suite {name}: bounds {cfg} leave no instance to check")
    return SuiteReport(
        suite_name=name,
        bounds=cfg,
        seed=seed,
        instances_checked=checked,
        failures=tuple(rec.records),
        failure_count=rec.total,
        findings=tuple(findings),
        elapsed=elapsed,
    )
