"""Each check accepts the right answer and rejects a planted wrong one.

    python3 -m pytest perfbench -q
"""
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402


def _descriptor_json(E):
    d = ref.descriptor(E)
    if "alpha" in d:
        d["alpha"] = {str(p): str(k) for p, k in d["alpha"].items()}
    return d


# -------------------------------------------------------------- reference


def test_miller_rabin_agrees_with_trial_division():
    for n in range(-2, 20000):
        assert ref.is_prime(n) == (n >= 2 and ref.factorize(n) == {n: 1})
    assert ref.is_prime(999999937) and not ref.is_prime(999999937 * 1000003)
    assert not ref.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_signature_candidates_agree_with_a_scan_over_all_primes():
    rng = random.Random(5)
    for _ in range(300):
        E = sorted(rng.sample(range(1, 400), rng.choice((2, 3, 4))))
        scan = [2] + [p for p in range(3, max(E) + 1)
                      if ref.is_prime(p) and len({e % p for e in E} - {0}) <= 1]
        assert ref.signature_primes(E) == scan


def test_closure_window_agrees_with_membership_rule():
    for a, b in ((5, 6), (10, 5), (7, 210), (1, 1)):
        assert ref.closure_window(a, b, 1, 300) == [z for z in range(1, 301) if ref.in_closure(a, b, z)]
    assert ref.closure_window(5, 6, 1, 12) == [2, 3, 5, 6, 8, 9, 11, 12]


def test_chains_and_gamma_references_on_known_cases():
    assert ref.chains_equal_set(3, 5) == [1, 2]  # 3^2 - 1 = 8
    assert ref.chains_equal_set(5, 5) == [1]
    assert ref.gamma_edges(11, 25) == [(11, 22)]
    assert ref.prime_shape(3) == {"tag": "Both", "m": 2}
    assert ref.prime_shape(17) == {"tag": "Fermat", "m": 4}
    assert ref.prime_shape(127) == {"tag": "Mersenne", "m": 7}


# ------------------------------------------------------ planted answers


def test_descriptor_check():
    E = [12, 18, 30]
    good = _descriptor_json(E)
    assert checks.check_descriptor(E, good) == []
    for key, wrong in (("A", [2, 3, 5]), ("Pi", [2]), ("alpha", {"2": "1", "3": "1"})):
        assert checks.check_descriptor(E, dict(good, **{key: wrong}))
    assert checks.check_descriptor([7], {"E": [7], "A": "all", "Pi": [7]}) == []
    assert checks.check_descriptor([7], {"E": [7], "A": [2, 7], "Pi": [7]})


def test_classify_check():
    cases = {(4, 8): "FInfinity", (1, 3, 6): "FPrime", (3, 6): "FDoublePrime",
             (1, 15, 30): "FDoublePrime", (1, 105, 210): "Other"}
    for E, tag in cases.items():
        good = ref.classify(E)
        assert good["tag"] == tag
        assert checks.check_classify(E, good) == []
        assert checks.check_classify(E, dict(good, tag="Other" if tag != "Other" else "FPrime"))
    assert checks.check_classify((3, 6), {"tag": "FDoublePrime", "case": 1, "p": 5})


def test_upset_check():
    good = [_descriptor_json((a, 5, 10)) for a in range(1, 5)]
    assert checks.check_upset((5, 10), good) == []
    assert checks.check_upset((5, 10), good[:-1])
    assert checks.check_upset((5, 10), good[:-1] + [_descriptor_json((1, 7, 14))])
    bad = dict(good[0], A=[2])
    assert checks.check_upset((5, 10), [bad] + good[1:])


def test_realize_check():
    A, alpha = [2, 3, 5], {2: 1, 3: 2, 5: 0}
    y = next(z for z in range(1, 30) if z % 2 == 1 and z % 3 == 2 and z % 5 == 0)
    assert checks.check_realize(A, alpha, sorted({y, 15, 30})) == []
    assert checks.check_realize(A, alpha, sorted({y + 30, 15, 30}))  # not the least
    assert checks.check_realize(A, alpha, sorted({y, 15, 45}))
    assert checks.check_realize(A, {2: 1, 3: 1, 5: 0}, sorted({y, 15, 30}))
    assert checks.check_realize([2, 3], {2: 1, 3: 0}, [3, 6]) == []  # y = x
    assert checks.check_realize([2, 3], {2: 1, 3: 0}, [6])


def test_order_check():
    x, p = 21, 7
    good = [((1, x), (1, p, 2 * p), True), ((2, x), (2, p, 2 * p), True),
            ((3, 6), (3, 6), True), ((3, 6), (3, 6, 9), True)]
    assert checks.check_order(good) == []
    assert checks.check_order([((3, 6), (3, 6), False)])  # reflexivity
    assert checks.check_order([((3, 6), (3, 6, 9), False)])  # subset
    assert checks.check_order([((1, x), (1, p, 2 * p), True), ((2, x), (2, p, 2 * p), False)])
    assert checks.check_order([((1, 22), (1, p, 2 * p), True), ((2, 22), (2, p, 2 * p), True)])
    chain = [((1, 2), (1, 2, 3), True), ((1, 2, 3), (1, 2, 3, 4), True)]
    assert checks.check_order(chain + [((1, 2), (1, 2, 3, 4), True)]) == []
    assert checks.check_order(chain + [((1, 2), (5, 9), True), ((5, 9), (4, 7), True),
                                       ((1, 2), (4, 7), False)])  # transitivity
    assert checks.check_order([((1, 5), (4, 7), True), ((1, 5), (4, 7), False)])


def test_cmp_check():
    good = {"E": [1, 3], "F": [1, 3, 6], "E_le_F": False, "F_le_E": True, "equal": False}
    assert checks.check_cmp([3, 1], [1, 6, 3], good) == []
    assert checks.check_cmp([3, 1], [1, 6, 3], dict(good, equal=True))
    assert checks.check_cmp([3, 1], [1, 6, 3], dict(good, F=[1, 6]))


def test_closure_checks():
    assert checks.check_closure(5, 6, {"forced": [], "two_class": {"3": "2"}}) == []
    assert checks.check_closure(5, 6, {"forced": [], "two_class": {"2": "1", "3": "2"}})
    assert checks.check_closure(10, 5, {"forced": [], "two_class": {}})
    members = ref.closure_window(7, 30, 100, 200)
    assert checks.check_window(7, 30, 100, 200, members) == []
    assert checks.check_window(7, 30, 100, 200, members[1:])
    assert checks.check_window(7, 30, 100, 200, sorted(members + [101]))


def test_number_theory_checks():
    assert checks.check_first_prime(1, 10, 11) == []
    assert checks.check_first_prime(1, 10, 31)  # skips 11
    assert checks.check_first_prime(1, 10, 21)  # composite
    assert checks.check_first_prime(11, 10, 11)  # k = 0 is not a candidate
    assert checks.check_prime_factors(360, [2, 3, 5]) == []
    assert checks.check_prime_factors(360, [2, 3])
    assert checks.check_prime_shape(31, {"p": 31, "tag": "Mersenne", "m": 5}) == []
    assert checks.check_prime_shape(31, {"p": 31, "tag": "Neither", "m": None})


def test_gamma_check():
    vs, es = ref.gamma_vertices(3, 1000), ref.gamma_edges(3, 1000)
    assert checks.check_gamma(3, 1000, vs, es) == []
    assert checks.check_gamma(3, 1000, vs, es[1:])
    assert checks.check_gamma(3, 1000, vs, es + [(3, 729)])
    dot = "graph gamma11 {\n  11 [label=\"2^0*11^1\"];\n  22 [label=\"2^1*11^1\"];\n  11 -- 22;\n}\n"
    assert checks.parse_dot(dot) == ([11, 22], [(11, 22)])


def _report(name, bounds, findings, **over):
    return dict({"suite": name, "bounds": bounds, "seed": 0, "instances_checked": 5,
                 "failure_count": 0, "failures": [], "findings": findings, "passed": True}, **over)


def test_suite_report_checks():
    powers = _report("powers", {"limit": 10**6}, [{"consecutive_pairs": [[8, 9]]}])
    assert checks.check_suite_report("powers", powers) == []
    assert checks.check_suite_report("powers", dict(powers, findings=[{"consecutive_pairs": []}]))
    assert checks.check_suite_report("powers", dict(powers, passed=False, failure_count=1))
    assert checks.check_suite_report("powers", dict(powers, instances_checked=0))

    zs = _report("zsigmondy", {"max_base": 30, "max_exponent": 30},
                 [{"inclusions": [[2, 6], [3, 2], [7, 2], [15, 2]]}])
    assert checks.check_suite_report("zsigmondy", zs) == []
    assert checks.check_suite_report("zsigmondy", dict(zs, findings=[{"inclusions": [[3, 2], [7, 2], [15, 2]]}]))

    pairs = [[2**k, 2 ** (k + 1)] for k in range(12)]
    cl = _report("classify", {"max_value": 4096}, [{"trivial_signature_pairs": pairs}])
    assert checks.check_suite_report("classify", cl) == []
    assert checks.check_suite_report("classify", dict(cl, findings=[{"trivial_signature_pairs": pairs + [[3, 6]]}]))

    bounds = {"max_base": 10, "max_exponent": 5}
    want = [{"x": x, "equal_exponents": ref.chains_equal_set(x, 5)} for x in range(2, 11)
            if ref.chains_equal_set(x, 5) != [1]]
    ch = _report("chains", bounds, want)
    assert checks.check_suite_report("chains", ch) == []
    assert checks.check_suite_report("chains", dict(ch, findings=want[1:]))

    gb = {"prime_list": [3, 5], "bound": 1000, "grid": 5}
    want = [{"p": p, "vertices": len(ref.gamma_vertices(p, 1000)), "edges": len(ref.gamma_edges(p, 1000))}
            for p in (3, 5)]
    gm = _report("gamma", gb, want)
    assert checks.check_suite_report("gamma", gm) == []
    assert checks.check_suite_report("gamma", dict(gm, findings=[want[0], dict(want[1], edges=0)]))


# --------------------------------------------------------------- inputs


def test_inputs_depend_only_on_the_seed():
    assert inputs.queries(3) == inputs.queries(3)
    assert inputs.queries(3) != inputs.queries(4)
    assert inputs.cli_calls(3) == inputs.cli_calls(3)
    q = inputs.queries(3)
    assert len(q) == 8 * inputs.PER_KIND and q[0] == ("descriptor", q[0][1]) and max(q[0][1][0]) == inputs.MAX_OPERAND
    calls, _ = inputs.cli_calls(3)
    assert {c[0] for c in calls} == {"closure", "filter", "classify", "upset", "realize",
                                      "gamma", "verify", "primes", "cmp"}


def test_hd_quantile():
    import run

    assert abs(run.hd_quantile(range(1, 102), 0.5) - 51) < 1e-9
    assert abs(run.hd_quantile(range(1001), 0.9) - 900) < 2
    assert run.hd_quantile([5.0] * 10, 0.9) == 5.0
