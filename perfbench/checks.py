"""Correctness checks on kirchlab's outputs.

Each check takes the input of one operation and the program's answer in
the program's own JSON shape (CLI stdout, or ``to_json_dict()`` of a
library result) and returns a list of problems; an empty list means the
answer is right.  Expected values come from ``reference`` or from
properties the method must have, never from a stored copy of the
program's output.
"""
from __future__ import annotations

from math import prod

import reference as ref


def _problem(what, inp, want, got) -> list:
    return [f"{what} {inp}: expected {want!r}, got {got!r}"]


def _int_map(d: dict) -> dict:
    return {int(k): int(v) for k, v in d.items()}


# ------------------------------------------------------------ descriptors


def check_descriptor(E, got: dict) -> list:
    got = dict(got)
    if "alpha" in got:
        got["alpha"] = _int_map(got["alpha"])
    want = ref.descriptor(E)
    return [] if got == want else _problem("descriptor", sorted(set(E)), want, got)


def check_classify(E, got: dict) -> list:
    want = ref.classify(E)
    return [] if got == want else _problem("classify", sorted(set(E)), want, got)


def check_upset(E, got: list) -> list:
    """Up-set of a FDoublePrime filter: p - 1 FPrime filters (case 1) or two (case 2)."""
    label = ref.classify(E)
    if label["tag"] != "FDoublePrime":
        return _problem("upset input class", sorted(E), "FDoublePrime", label)
    problems = []
    primes = []
    for d in got:
        problems += check_descriptor(d["E"], d)
        lab = ref.classify(d["E"])
        if lab["tag"] != "FPrime":
            problems += _problem("upset member class", d["E"], "FPrime", lab)
        primes.append(lab.get("p"))
    if label["case"] == 1:
        p = label["p"]
        want = ([p] * (p - 1), p - 1)
        got_shape = (primes, len({tuple(d["E"]) for d in got}))
    else:
        want = ([label["p"], label["q"]], 2)
        got_shape = (sorted(primes), len(got))
    if got_shape != want:
        problems += _problem("upset primes and size", sorted(E), want, got_shape)
    return problems


def check_realize(primes, alpha: dict, E) -> list:
    """realize(A, alpha) = {y, x, 2x}: x the product of the odd primes of A, y
    the least positive solution of y = alpha(p) mod p; its signature is (A, alpha)."""
    A = sorted(primes)
    x = prod(p for p in A if p != 2)
    ys = sorted(set(E) - {x, 2 * x}) or [x]  # y = x leaves the doubleton {x, 2x}
    if len(ys) != 1 or sorted(set(E)) != sorted({ys[0], x, 2 * x}):
        return _problem("realize shape", (A, alpha), f"{{y, {x}, {2 * x}}}", E)
    y = ys[0]
    problems = []
    # residues in [0, 2x) are unique modulo 2x = prod(A), so y is the least one
    if not 0 < y < 2 * x or any(y % p != alpha[p] % p for p in A):
        problems += _problem("realize witness", (A, alpha), "least CRT solution", y)
    d = ref.descriptor(E)
    want_pi = [p for p in A if p != 2 and alpha[p] == 0]
    if d["A"] != A or d["alpha"] != alpha or d["Pi"] != want_pi:
        problems += _problem("realize signature", E, (A, alpha, want_pi), d)
    return problems


# ----------------------------------------------------------------- order


def check_order(records) -> list:
    """Properties of filter_le over (E, F, E_le_F) records, E and F sorted tuples.

    Reflexivity; E within F implies E <= F; transitivity over every triple
    the records contain; and p | x iff {1,x} <= {1,p,2p} and {2,x} <= {2,p,2p},
    with p | x decided by plain division.
    """
    problems = []
    le = {}
    for E, F, r in records:
        if le.setdefault((E, F), r) != r:
            problems += _problem("filter_le repeat", (E, F), le[(E, F)], r)
        if E == F and not r:
            problems += _problem("filter_le reflexivity", (E, F), True, r)
        if set(E) <= set(F) and not r:
            problems += _problem("filter_le subset", (E, F), True, r)
    above = {}
    for (E, F), r in le.items():
        if r:
            above.setdefault(E, set()).add(F)
    for E, mids in above.items():
        for F in mids:
            for G in above.get(F, ()):
                if le.get((E, G)) is False:
                    problems += _problem("filter_le transitivity", (E, F, G), True, False)
    for (E, F), r1 in le.items():
        if len(E) == 2 and E[0] == 1 and len(F) == 3 and F[0] == 1 and F[2] == 2 * F[1]:
            x, p = E[1], F[1]
            r2 = le.get((tuple(sorted({2, x})), (2, p, 2 * p)))
            if p > 2 and x > 2 and ref.is_prime(p) and r2 is not None:
                if (r1 and r2) != (x % p == 0):
                    problems += _problem("divisibility from order", (x, p), x % p == 0, (r1, r2))
    return problems


def check_cmp(E, F, got: dict) -> list:
    """The cmp echo: sorted sets, and equal iff both directions hold."""
    want = {"E": sorted(set(E)), "F": sorted(set(F))}
    have = {"E": got["E"], "F": got["F"]}
    problems = [] if have == want else _problem("cmp sets", (E, F), want, have)
    if got["equal"] != (got["E_le_F"] and got["F_le_E"]):
        problems += _problem("cmp equal", (E, F), got["E_le_F"] and got["F_le_E"], got["equal"])
    return problems


# ------------------------------------------------------------ number theory


def check_closure(a, b, got: dict) -> list:
    have = {"forced": got["forced"], "two_class": _int_map(got["two_class"])}
    want = ref.closure_normal_form(a, b)
    return [] if have == want else _problem("closure", (a, b), want, have)


def check_window(a, b, lo, hi, got: list) -> list:
    want = ref.closure_window(a, b, lo, hi)
    if got == want:
        return []
    return _problem("closure window", (a, b, lo, hi), f"{len(want)} members", f"{len(got)} members")


def check_first_prime(a, b, v) -> list:
    """Least prime a + k*b with k >= 1."""
    if v <= a or (v - a) % b or not ref.is_prime(v):
        return _problem("first prime", (a, b), "a prime a + k*b, k >= 1", v)
    for w in range(a + b, v, b):
        if ref.is_prime(w):
            return _problem("first prime", (a, b), w, v)
    return []


def check_prime_factors(x, got: list) -> list:
    want = ref.primes_of(x)
    return [] if list(got) == want else _problem("prime_factors", x, want, got)


def check_prime_shape(p, got: dict) -> list:
    want = {"p": p, **ref.prime_shape(p)}
    return [] if got == want else _problem("prime shape", p, want, got)


def check_gamma(p, bound, vertices, edges) -> list:
    have = (list(vertices), sorted(tuple(e) for e in edges))
    want = (ref.gamma_vertices(p, bound), ref.gamma_edges(p, bound))
    if have == want:
        return []
    return _problem("gamma", (p, bound), (len(want[0]), len(want[1])), (len(have[0]), len(have[1])))


def parse_dot(text: str):
    """Vertices and edges of the program's DOT rendering."""
    vertices, edges = [], []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if " -- " in line:
            x, y = line.split(" -- ")
            edges.append((int(x), int(y)))
        elif "[label=" in line:
            vertices.append(int(line.split()[0]))
    return vertices, edges


# ----------------------------------------------------------------- suites


def _expected_findings(name: str, bounds: dict):
    """Findings the method must produce, derived apart from the program; None
    for suites whose findings are not a mathematical fact."""
    if name == "powers":
        # Catalan-Mihailescu: 8, 9 are the only consecutive perfect powers
        return [{"consecutive_pairs": [[8, 9]] if bounds["limit"] >= 9 else []}]
    if name == "zsigmondy":
        a_max, n_max = bounds["max_base"], bounds["max_exponent"]
        # Zsigmondy: a^n - 1 has a primitive prime divisor except for
        # n = 2 with a + 1 a power of two, and (a, n) = (2, 6)
        incl = [[a, 2] for a in range(2, a_max + 1) if (a + 1) & a == 0 and n_max >= 2]
        if a_max >= 2 and n_max >= 6:
            incl.append([2, 6])
        return [{"inclusions": sorted(incl)}]
    if name == "classify":
        n = bounds["max_value"]
        pairs = []
        k = 0
        while 2 ** (k + 1) <= n:
            pairs.append([2**k, 2 ** (k + 1)])
            k += 1
        return [{"trivial_signature_pairs": pairs}]
    if name == "chains":
        out = []
        for x in range(2, bounds["max_base"] + 1):
            S = ref.chains_equal_set(x, bounds["max_exponent"])
            if S != [1]:
                out.append({"x": x, "equal_exponents": S})
        return out
    if name == "gamma":
        out = []
        for p in bounds["prime_list"]:
            out.append({
                "p": p,
                "vertices": len(ref.gamma_vertices(p, bounds["bound"])),
                "edges": len(ref.gamma_edges(p, bounds["bound"])),
            })
        return out
    return None


def check_suite_report(name: str, report: dict) -> list:
    problems = []
    if report.get("suite") != name:
        problems += _problem("suite name", name, name, report.get("suite"))
    if not report.get("passed") or report.get("failure_count") != 0:
        problems += _problem("suite verdict", name, "passed", report.get("failures"))
    if not report.get("instances_checked", 0) > 0:
        problems += _problem("suite instances", name, "> 0", report.get("instances_checked"))
    want = _expected_findings(name, report["bounds"])
    findings = report.get("findings")
    if name == "zsigmondy" and findings:
        findings = [{"inclusions": sorted(findings[0]["inclusions"])}]
    if want is not None and findings != want:
        problems += _problem("suite findings", name, want, findings)
    return problems
