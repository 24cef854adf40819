"""Seeded inputs of the three workloads.

The same seed gives the same inputs.  Operand sizes are spread
log-uniformly up to the program's operand cap on a fixed grid: each query
kind gets one operand from each of PER_KIND equal slices of
[log 1, log 10**9], at the slice's centre moved by at most JITTER of a
slice.  The seed picks the jitter and everything an operand's size does
not fix: the other elements of a set, residues, primes, offsets and the
order of the queries.  Cost grows with operand size, so the grid keeps the
work of a run steady from seed to seed while the inputs change.
"""
from __future__ import annotations

import math
import random

import reference as ref

MAX_OPERAND = 10**9  # kirchlab's documented operand cap
PER_KIND = 26  # 8 kinds x 26 = 208 queries, so p90 has 20 samples above it
MAX_WINDOW = 10**6  # widest closure window a query lists
CLI_MAX = 10**6  # operand cap of the cli workload
CLI_SHAPED = 9 * 10**5  # size of built sets and primes, below CLI_MAX after rounding up to primes
CLI_ROUNDS = 10  # each round calls every subcommand shape once
CLI_RERUNS = 1  # sampled argv run twice to compare stdout bytes
JITTER = 0.05  # share of a slice by which a grid operand leaves the slice centre

SUITES = ("closure", "pairA", "realize", "order", "classify",
          "upsets", "gamma", "zsigmondy", "powers", "chains")

# Gamma_p prime per bound slice, largest bound first: the densest graphs
# (p = 3, 5, 7) get the largest bounds; Fermat 17, 257 and Mersenne 31, 127
# shapes are all present.
GAMMA_PRIMES = (3, 5, 7, 17, 31, 11, 13, 127, 257, 19, 23, 29, 37,
                41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def stratum(rng, i: int, n: int, lo: int = 1, hi: int = MAX_OPERAND) -> int:
    """Grid operand near the centre of the i-th of n equal log slices of [lo, hi]."""
    u = (i + 0.5 + JITTER * (2 * rng.random() - 1)) / n
    return max(lo, min(hi, round(lo * (hi / lo) ** u)))


def log_uniform(rng, lo: int, hi: int) -> int:
    """Log-uniform integer in [lo, hi]."""
    return max(lo, min(hi, round(lo * (hi / lo) ** rng.random())))


def crt(residues: dict) -> int:
    """Least z >= 0 with z = r (mod m) for each m: r, moduli pairwise coprime."""
    z, M = 0, 1
    for m, r in residues.items():
        z += M * ((r - z) * pow(M, -1, m) % m)
        M *= m
    return z


def random_set(rng, top: int, size: int) -> tuple:
    """size distinct elements with maximum top, the rest log-uniform below it."""
    size = min(size, top)
    out = {top}
    while len(out) < size:
        out.add(log_uniform(rng, 1, top - 1))
    return tuple(sorted(out))


def shaped_set(rng, kind: int, top: int) -> tuple:
    """A set of about magnitude top whose class is chosen by kind:
    0 random, 1 FPrime {a, p, 2p}, 2 FDoublePrime case 2 {x, pq, 2pq},
    3 FDoublePrime case 1 {p, 2p}, 4 FInfinity {2^k, 2^(k+1)}."""
    if kind == 1 and top >= 10:
        p = ref.next_prime(max(3, top // 2 - rng.randrange(max(1, top // 8))))
        a = rng.randrange(1, 2 * p)
        while a % p == 0:
            a = rng.randrange(1, 2 * p)
        return tuple(sorted({a, p, 2 * p}))
    if kind == 2 and top >= 60:
        p = ref.next_prime(max(3, math.isqrt(top // 2) // 2))
        q = ref.next_prime(max(p + 1, top // (2 * p)))
        x = crt({2: 1, p: rng.randrange(1, p), q: rng.randrange(1, q)})
        return tuple(sorted({x, p * q, 2 * p * q}))
    if kind == 3 and top >= 6:
        p = ref.next_prime(max(3, top // 2 - rng.randrange(max(1, top // 8))))
        return (p, 2 * p)
    if kind == 4 and top >= 2:
        k = max(0, top.bit_length() - 2)
        return (2**k, 2 ** (k + 1))
    return random_set(rng, max(top, 2), 2 + rng.randrange(2))


def suite_order(seed: int) -> list:
    """The ten suites in seeded order.  Each runs as `kirchlab verify <suite>`,
    at its default bounds and its default seed, so every run does the same work."""
    order = list(SUITES)
    random.Random(seed).shuffle(order)
    return order


# ------------------------------------------------------------------ queries


def _descriptor_queries(rng):
    out = []
    for i in range(PER_KIND):
        top = MAX_OPERAND if i == PER_KIND - 1 else stratum(rng, i, PER_KIND, 2)
        size = 2 + i % 3
        if i % 2 and 60 <= top < MAX_OPERAND:
            g = rng.randrange(2, 31)
            E = tuple(g * e for e in random_set(rng, top // g, size))
        else:
            E = random_set(rng, top, size)
        out.append(("descriptor", (E,)))
    return out


def _classify_queries(rng):
    return [("classify", (shaped_set(rng, i % 5, stratum(rng, i, PER_KIND, 2)),))
            for i in range(PER_KIND)]


def _filter_le_queries(rng):
    """PER_KIND filter_le calls in blocks of 13; 9 of each 13 name a reference
    set {3,6}, {1,p,2p} or {2,p,2p}.

    A block takes every other grid slice and holds 3 divisibility probes
    (2 calls each), 1 reflexive call, 1 chain E within F within G (3 calls)
    and 3 calls against {3, 6}.
    """
    out = []
    blocks = PER_KIND // 13
    for block in range(blocks):
        mags = [stratum(rng, blocks * i + block, PER_KIND, 3) for i in range(13)]
        for j in (12, 8, 4):
            p = rng.choice(SMALL_ODD_PRIMES)
            x = mags[j]
            if rng.random() < 0.5:
                x = max(p, x - x % p)
            out.append(("filter_le", ((1, x), (1, p, 2 * p))))
            out.append(("filter_le", (tuple(sorted({2, x})), (2, p, 2 * p))))
        E = random_set(rng, mags[10], 3)
        out.append(("filter_le", (E, E)))
        G = random_set(rng, mags[6], 4)
        F = G[1:]
        E = F[1:]
        out += [("filter_le", (E, F)), ("filter_le", (F, G)), ("filter_le", (E, G))]
        ref_set = (3, 6)
        out.append(("filter_le", (ref_set, tuple(sorted({3, 6, mags[2]})))))
        E = random_set(rng, mags[11], 2)
        out += [("filter_le", (E, ref_set)), ("filter_le", (ref_set, random_set(rng, mags[9], 3)))]
    return out


def _closure_queries(rng):
    out = []
    for i in range(PER_KIND):
        b = stratum(rng, i, PER_KIND)
        a = log_uniform(rng, 1, MAX_OPERAND)
        width = stratum(rng, (7 * i) % PER_KIND, PER_KIND, 1, MAX_WINDOW)
        lo = log_uniform(rng, 1, MAX_OPERAND - width)
        out.append(("closure", (a, b, lo, lo + width - 1)))
    return out


def _first_prime_queries(rng):
    out = []
    for i in range(PER_KIND):
        b = stratum(rng, i, PER_KIND)
        a = rng.randrange(1, b + 1)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, b + 1)
        out.append(("first_prime", (a, b)))
    return out


def _prime_factors_queries(rng):
    return [("prime_factors", (stratum(rng, i, PER_KIND),)) for i in range(PER_KIND)]


def _gamma_queries(rng):
    return [("gamma", (GAMMA_PRIMES[PER_KIND - 1 - i], stratum(rng, i, PER_KIND, 10)))
            for i in range(PER_KIND)]


def signature(rng, count: int, top: int):
    """(A, alpha): 2 and up to count odd primes with product <= top, random residues."""
    odd = []
    x = 1
    for j in range(count):
        share = (top // x) ** (1 / (count - j))
        p = ref.next_prime(max(3, int(share * (0.5 + rng.random() / 2))))
        if p in odd or x * p > top:
            break
        odd.append(p)
        x *= p
    if not odd:
        odd = [3]
    A = [2] + sorted(odd)
    alpha = {2: 1, **{p: rng.randrange(p) for p in odd}}
    return A, alpha


def _realize_queries(rng):
    return [("realize", signature(rng, 1 + i % 4, stratum(rng, i, PER_KIND, 3, MAX_OPERAND // 2)))
            for i in range(PER_KIND)]


def queries(seed: int) -> list:
    """The query session: a descriptor at the operand cap first (it grows the
    shared sieve to 10**9 once), then the other queries in seeded order."""
    rng = random.Random(seed)
    out = []
    for make in (_descriptor_queries, _classify_queries, _filter_le_queries,
                 _closure_queries, _first_prime_queries, _prime_factors_queries,
                 _gamma_queries, _realize_queries):
        out += make(rng)
    first = out.pop(PER_KIND - 1)
    rng.shuffle(out)
    return [first] + out


# ---------------------------------------------------------------------- cli


def _cli_round(rng, r: int) -> list:
    """One call of each subcommand shape, operands <= CLI_MAX.

    Two of the ten, gamma on the densest graph and verify, do about 0.15 s of
    work past the start-up every call pays.  That puts a fifth of the calls
    on a plateau, so op_p90_ms measures those calls and not the host's
    occasional stalls of an ordinary call."""
    calls = []
    a, b = log_uniform(rng, 1, CLI_MAX), log_uniform(rng, 1, CLI_MAX)
    calls.append(["closure", str(a), str(b)])
    a, b = log_uniform(rng, 1, CLI_MAX), log_uniform(rng, 1, CLI_MAX)
    width = log_uniform(rng, 1, 10**4)
    lo = log_uniform(rng, 1, CLI_MAX - width)
    calls.append(["closure", str(a), str(b), "--window", str(lo), str(lo + width - 1)])
    E = random_set(rng, log_uniform(rng, 2, CLI_MAX), 2 + rng.randrange(3))
    calls.append(["filter", *map(str, E)])
    E = shaped_set(rng, r % 5, log_uniform(rng, 2, CLI_SHAPED))
    calls.append(["classify", *map(str, E)])
    if r % 2:
        E = shaped_set(rng, 3, log_uniform(rng, 6, 400))
    else:
        E = shaped_set(rng, 2, log_uniform(rng, 60, CLI_SHAPED))
    calls.append(["upset", *map(str, E)])
    A, alpha = signature(rng, 1 + r % 4, CLI_MAX // 2)
    calls.append(["realize", "--primes", ",".join(map(str, A)),
                  "--alpha", ",".join(str(alpha[p]) for p in A)])
    calls.append(["gamma", "3", "--bound", str(log_uniform(rng, 600_000, CLI_MAX)),
                  "--format", ("dot", "json")[r % 2]])
    calls.append(["verify", *_verify_args(rng, r)])
    shapes = (3, 5, 7, 17, 31, 127, 257, 8191, 65537, 131071, 524287)
    p = rng.choice(shapes) if r % 2 else ref.next_prime(log_uniform(rng, 2, CLI_SHAPED))
    calls.append(["primes", "classify", str(p)])
    calls.append(None)  # the cmp call, filled by cli_calls, which pairs the rounds
    return calls


def _verify_args(rng, r: int) -> list:
    """A suite at bounds that take about 0.15 s of work, one of three in turn."""
    kind = ("gamma", "closure", "pairA")[r % 3]
    seed = ["--seed", str(rng.randrange(1000))]
    if kind == "gamma":
        return ["gamma", *seed, "--bound", str(log_uniform(rng, 90_000, 110_000)), "5"]
    if kind == "closure":
        return ["closure", *seed, "--bound", str(rng.randrange(70, 79)), str(rng.randrange(70, 79))]
    return ["pairA", *seed, "--bound", str(rng.randrange(400, 441))]


def cli_calls(seed: int) -> tuple:
    """(argv list, indices to rerun): CLI_ROUNDS rounds of every subcommand."""
    rng = random.Random(seed)
    calls = []
    for r in range(CLI_ROUNDS):
        calls += _cli_round(rng, r)
    # the cmp slots: pairs of rounds probe p | x through the order
    slots = [i for i, c in enumerate(calls) if c is None]
    for j in range(0, len(slots), 2):
        p = rng.choice(SMALL_ODD_PRIMES)
        x = log_uniform(rng, 3, CLI_MAX)
        if rng.random() < 0.5:
            x = max(p, x - x % p)
        calls[slots[j]] = ["cmp", "1", str(x), "--", "1", str(p), str(2 * p)]
        if j + 1 < len(slots):
            calls[slots[j + 1]] = ["cmp", *map(str, sorted({2, x})), "--", "2", str(p), str(2 * p)]
    reruns = sorted(rng.sample(range(len(calls)), CLI_RERUNS))
    return calls, reruns
