"""Tests for the independent oracles and the suite runner."""

import json
import random
import re
import time
from itertools import combinations
from pathlib import Path

import pytest

from kirchlab import (
    CongruenceSet,
    SuiteReport,
    TooSmall,
    UnknownSuite,
    closure,
    closure_oracle,
    congruence_set_subset,
    filter_le,
    filter_le_oracle,
    filters,
    gamma,
    generator,
    intersect,
    numtheory,
    run_suite,
    suite_names,
    verify,
)
from kirchlab.verify import Knob, knobs


# ------------------------------------------------------------ closure oracle


def test_closure_oracle_examples():
    assert closure_oracle(5, 6, 8)
    assert not closure_oracle(5, 6, 7)
    for z in (1, 2, 17):
        assert closure_oracle(9, 1, z)  # no prime constraints for b = 1


def test_closure_oracle_agrees_with_formula():
    rng = random.Random(2)
    for _ in range(400):
        a = rng.randrange(1, 80)
        b = rng.randrange(1, 80)
        c = closure(a, b)
        z = rng.randrange(1, 4 * c.period + 1)
        assert closure_oracle(a, b, z) == (z in c), (a, b, z)


# ------------------------------------------------------------ subset oracle


def test_congruence_set_subset_examples():
    fifteen = CongruenceSet({3: 0, 5: 0})
    three = CongruenceSet({3: 0})
    assert congruence_set_subset(fifteen, three)
    assert not congruence_set_subset(three, fifteen)
    assert congruence_set_subset(three, three)
    one = CongruenceSet({3: 1})
    two = CongruenceSet({3: 2})
    assert not congruence_set_subset(one, two)


def _random_congruence_set(rng):
    picks = rng.sample((2, 3, 5, 7), rng.randrange(0, 4))
    return CongruenceSet({p: 0 if rng.random() < 0.4 else rng.randrange(1, p) for p in picks})


def test_congruence_set_subset_matches_window_enumeration():
    rng = random.Random(17)
    for _ in range(200):
        s1 = _random_congruence_set(rng)
        s2 = _random_congruence_set(rng)
        period = s1.period * s2.period
        brute = set(s1.members(1, period)) <= set(s2.members(1, period))
        assert congruence_set_subset(s1, s2) == brute, (s1, s2)


def test_intersection_feeds_subset_consistently():
    rng = random.Random(29)
    for _ in range(100):
        s1 = _random_congruence_set(rng)
        s2 = _random_congruence_set(rng)
        both = intersect(s1, s2)
        assert congruence_set_subset(both, s1)
        assert congruence_set_subset(both, s2)


# ------------------------------------------------------------ order oracle


def test_filter_le_oracle_examples():
    assert filter_le_oracle((1, 121), (1, 11))
    assert not filter_le_oracle((3, 6), (5, 10))
    assert filter_le_oracle((1, 3), (1, 9))
    assert filter_le_oracle((1, 9), (1, 3))


def test_filter_le_oracle_rejects_singletons():
    with pytest.raises(TooSmall):
        filter_le_oracle((7,), (7, 10))
    with pytest.raises(TooSmall):
        filter_le_oracle((7, 10), (7,))


def test_filter_le_oracle_agrees_with_criterion_exhaustively():
    sets = []
    for x in range(1, 11):
        for y in range(x + 1, 11):
            sets.append((x, y))
    for E in sets:
        for F in sets:
            assert filter_le_oracle(E, F) == filter_le(E, F), (E, F)


def test_filter_le_oracle_pool_widening_changes_nothing():
    rng = random.Random(41)
    for _ in range(40):
        E = tuple(sorted(rng.sample(range(1, 60), 2)))
        F = tuple(sorted(rng.sample(range(1, 60), 2)))
        base = filter_le_oracle(E, F)
        assert filter_le_oracle(E, F, extra_pool=(37, 41, 43)) == base, (E, F)


# ------------------------------------------------------------ suite runner


def test_suite_names_lists_the_published_battery():
    assert suite_names() == (
        "closure",
        "pairA",
        "realize",
        "order",
        "classify",
        "upsets",
        "gamma",
        "zsigmondy",
        "powers",
        "chains",
    )


def test_unknown_suite_is_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_unknown_bound_keys_are_rejected():
    with pytest.raises(ValueError):
        run_suite("closure", bounds={"wat": 3})


def test_bounds_below_their_minimum_are_rejected():
    with pytest.raises(ValueError, match="max_exponent must be at least 2"):
        run_suite("zsigmondy", bounds={"max_exponent": 1})
    with pytest.raises(ValueError, match="limit must be at least 9"):
        run_suite("powers", bounds={"limit": 8})


@pytest.mark.parametrize(
    "name, knob",
    [
        ("closure", "samples"),
        ("pairA", "samples"),
        ("realize", "prime_pool"),
        ("order", "sizes"),
        ("order", "raw_samples"),
        ("order", "random_pairs"),
        ("order", "widen_samples"),
        ("classify", "samples"),
        ("upsets", "prime_list"),
        ("gamma", "prime_list"),
    ],
)
def test_fixed_knobs_are_refused_by_name(name, knob):
    # refused even at its default value: only the knobs can be set
    settable = ", ".join(knobs(name)) or "none"
    _, params = verify._SUITES[name]
    with pytest.raises(ValueError, match=f"cannot set {knob}; settable knobs: {settable}$"):
        run_suite(name, bounds={knob: params[knob]})


@pytest.mark.parametrize(
    "name, bounds, defect",
    [
        ("order", {"sizes": (4,), "max_value": 3}, "max_value must be at least 4"),
        ("order", {"sizes": (1, 2)}, "sizes must be nonempty, each at least 2"),
        ("order", {"sizes": ()}, "sizes must be nonempty, each at least 2"),
        ("realize", {"prime_pool": (4, 6)}, "prime_pool must hold distinct primes"),
        ("upsets", {"prime_list": (4,)}, "prime_list must hold distinct odd primes"),
        ("gamma", {"prime_list": (2,)}, "prime_list must hold distinct odd primes"),
    ],
)
def test_malformed_tuple_knobs_are_rejected_by_name(name, bounds, defect):
    # each value is malformed as `defect` says; the tuple knobs are fixed, so
    # the refusal names the knob before its value reaches the suite
    (knob,) = set(bounds) - set(knobs(name))
    with pytest.raises(ValueError, match=f"suite {name}: cannot set {knob};") as info:
        run_suite(name, bounds=bounds)
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "name, bounds, work",
    [
        ("realize", {"prime_pool": (2, 100003)}, "prime_pool asks for 100003 residue tuples"),
        ("order", {"sizes": (12,), "max_value": 40}, "sizes ask for more than 10000 sets"),
        (
            "order",
            {"sizes": (10**6,), "max_value": 10**9, "random_max": 10**9},
            "sizes ask for more than 10000 sets",
        ),
    ],
)
def test_tuple_knobs_asking_for_unbounded_work_are_refused(name, bounds, work):
    # each value asks for the work `work` names; it is refused by the knob's
    # name before any work, so far inside the time guard
    (knob,) = set(bounds) - set(knobs(name))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"suite {name}: cannot set {knob};"):
        run_suite(name, bounds=bounds)
    assert time.perf_counter() - t0 < 1.0


def test_every_settable_knob_has_a_cap_that_admits_its_default():
    for name in suite_names():
        for knob in knobs(name).values():
            assert knob.least <= knob.default <= knob.most


_SUPERSCRIPT_DIGITS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _readme_number(text):
    # README writes "60 000" and "10⁹"
    if not text.isascii():
        return 10 ** int(text.removeprefix("10").translate(_SUPERSCRIPT_DIGITS))
    return int(text.replace(" ", ""))


def test_readme_knob_table_matches_the_suite_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| suite "):].splitlines()[2 : 2 + len(suite_names())]
    cells = [line.split("|")[1:3] for line in table]
    assert [suite.strip() for suite, _ in cells] == list(suite_names())
    number = "([0-9][0-9 ]*|10[⁰¹²³⁴⁵⁶⁷⁸⁹]+)"
    knob_re = re.compile(rf"`(\w+)` {number}–{number} \({number}\)")
    for suite, row in cells:
        documented = {
            k: Knob(_readme_number(d), _readme_number(lo), _readme_number(hi))
            for k, lo, hi, d in knob_re.findall(row)
        }
        assert list(documented.items()) == list(knobs(suite.strip()).items()), suite


def test_a_suite_that_checks_nothing_is_an_error(monkeypatch):
    checks_nothing = (lambda bounds, rng: (0, verify._Recorder(), []), verify._SUITES["powers"][1])
    monkeypatch.setitem(verify._SUITES, "powers", checks_nothing)
    with pytest.raises(ValueError, match="no instance to check"):
        run_suite("powers")


def test_small_closure_suite_passes():
    report = run_suite("closure", bounds={"a_max": 40, "b_max": 40}, seed=5)
    assert isinstance(report, SuiteReport)
    assert report.passed
    assert report.failure_count == 0
    assert report.failures == ()
    assert report.instances_checked > 0
    assert report.elapsed >= 0.0
    assert report.bounds["a_max"] == 40


def test_report_json_shape_and_determinism():
    kwargs = dict(bounds={"max_value": 120}, seed=9)
    r1 = run_suite("pairA", **kwargs)
    r2 = run_suite("pairA", **kwargs)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # no elapsed key, so wall-clock noise never leaks into the canonical body
    assert set(d1) == {
        "suite",
        "bounds",
        "seed",
        "instances_checked",
        "failure_count",
        "failures",
        "findings",
        "passed",
    }
    assert d1["passed"] is True


def test_powers_suite_reports_the_catalan_pair():
    report = run_suite("powers", bounds={"limit": 10_000})
    assert report.passed
    assert report.findings == ({"consecutive_pairs": [[8, 9]]},)


def test_zsigmondy_suite_small_grid():
    report = run_suite("zsigmondy", bounds={"max_base": 10, "max_exponent": 8})
    assert report.passed
    (finding,) = report.findings
    assert finding["inclusions"] == [[2, 6], [3, 2], [7, 2]]


def test_chains_suite_small():
    report = run_suite("chains", bounds={"max_base": 16, "max_exponent": 4})
    assert report.passed
    assert report.findings == (
        {"x": 3, "equal_exponents": [1, 2]},
        {"x": 7, "equal_exponents": [1, 2]},
        {"x": 15, "equal_exponents": [1, 2]},
    )


def test_chains_suite_sieves_no_further_than_it_needs(fresh_process):
    # chains asks the sieve for the primes up to 50**5 and no further: a
    # table grown by an eighth stops within 50**5 * 9 / 8.  Doubling reached
    # 550731776 and copying the table at each growth peaked at 151 MB
    code = (
        "from kirchlab import numtheory, run_suite\n"
        "report = run_suite('chains')\n"
        "print(report.passed, numtheory._limit)\n"
    )
    (passed, limit), mb = fresh_process(code)
    assert passed == "True"
    assert int(limit) <= 50**5 + 50**5 // 8 and mb < 125, (limit, mb)


def test_classify_suite_small():
    report = run_suite("classify", bounds={"max_value": 300}, seed=3)
    assert report.passed
    (finding,) = report.findings
    pairs = finding["trivial_signature_pairs"]
    assert pairs == [[1, 2], [2, 4], [4, 8], [8, 16], [16, 32], [32, 64], [64, 128], [128, 256]]


def test_order_suite_memo_leaves_no_state_between_runs():
    bounds = {"max_value": 12, "random_max": 40}
    first = run_suite("order", bounds).to_json_dict()
    assert first["passed"]
    assert run_suite("order", bounds).to_json_dict() == first


def test_pair_scans_report_a_broken_route_in_x_then_y_order(monkeypatch):
    # drop 3 from the factor table of multiples of 9: pairA must flag the
    # pairs whose definition column for 3 now disagrees, row by row
    factor = verify.prime_factors
    monkeypatch.setattr(
        verify,
        "prime_factors",
        lambda v: tuple(p for p in factor(v) if v % 9 or p != 3),
    )
    report = run_suite("pairA", bounds={"max_value": 60})
    inputs = [f["input"] for f in report.failures]
    assert inputs[:3] == [[1, 9, 3], [1, 10, 3], [1, 18, 3]]
    assert inputs == sorted(inputs)
    monkeypatch.undo()
    # without the stripes of 3, classify calls {1, 3}, {1, 4}, ... trivial
    table = verify.primes_upto
    monkeypatch.setattr(verify, "primes_upto", lambda n: table(n)[table(n) != 3])
    report = run_suite("classify", bounds={"max_value": 300})
    assert report.failure_count == 235
    assert [f["input"] for f in report.failures[:3]] == [[1, 3], [1, 4], [1, 9]]


def test_closure_suite_reports_a_member_the_enumeration_drops(monkeypatch):
    # closure(5, 6) is {z : z mod 3 in {0, 2}}, so [1, 6] holds 2, 3, 5, 6;
    # only a = 5, b = 6 of the grid has this closure and a window of [1, 6]
    members = CongruenceSet.members
    broken = closure(5, 6)

    def drop_five(self, lo, hi):
        return [z for z in members(self, lo, hi) if (self, lo, z) != (broken, 1, 5)]

    monkeypatch.setattr(CongruenceSet, "members", drop_five)
    report = run_suite("closure", bounds={"a_max": 6, "b_max": 6})
    assert report.failure_count == 1
    assert report.failures == ({"input": [5, 6, 5], "expected": True, "got": False},)


def _le_equal_only(dE, dF):
    # drops the zero case: an odd common divisor of E no longer covers p
    aE = dE.alpha
    return all(aE.get(p) == k for p, k in dF.alpha.items())


def _le_missing_as_zero(dE, dF):
    # reads a prime of A_F outside A_E as a zero of alpha_E
    aE = dE.alpha
    return all(aE.get(p, 0) in (0, k) for p, k in dF.alpha.items())


def test_the_oracle_searches_every_choice_of_L0_once(monkeypatch):
    # with every membership granted, the search walks all of its choices:
    # each subset L0 of A_F \ A_E once, the singletons first
    asked = []
    monkeypatch.setattr(
        verify, "_member_of_filter", lambda memo, B, dF, extra_pool=(): asked.append(B) or True
    )
    E, F = (1, 2), (1, 106)  # A_E = {2}, A_F = {2, 3, 5, 7, 53}
    assert filter_le_oracle(E, F)
    dE = filters.descriptor(E)
    outside = (3, 5, 7, 53)
    assert tuple(p for p in filters.descriptor(F).alpha if p not in dE.alpha) == outside
    every = [generator(dE, L0) for n in range(len(outside) + 1) for L0 in combinations(outside, n)]
    assert len(asked) == 2 ** len(outside) == len(set(asked))
    assert set(asked) == set(every)
    assert asked[:len(outside)] == [generator(dE, (p,)) for p in outside]


def _subset_ignoring_free_primes(s1, s2):
    # skips the primes s2 constrains but s1 leaves free
    return all(
        all(r in s2.allowed_residues(p) for r in s1.allowed_residues(p))
        for p in s2.primes_mentioned()
        if s1.allowed_residues(p) is not None
    )


def _subset_any_zero_set(s1, s2):
    # accepts any residue set that holds 0 as containing what s1 allows
    for p in s2.primes_mentioned():
        ok, got = s2.allowed_residues(p), s1.allowed_residues(p)
        if got is None:
            if len(ok) < p:
                return False
        elif 0 not in ok:
            return False
    return True


# a planted fault: the name it replaces, the replacement, and every module
# that holds the name; the first row plants nothing.  The subset rows plant
# the fault in the oracle side
_ORDER_FAULTS = {
    "none": (None, None, ()),
    "le_equal_only": ("_le_descriptors", _le_equal_only, (filters, verify)),
    "le_missing_as_zero": ("_le_descriptors", _le_missing_as_zero, (filters, verify)),
    "member_always_true": ("_member_of_filter", lambda *args: True, (verify,)),
    "subset_ignoring_free_primes": ("congruence_set_subset", _subset_ignoring_free_primes, (verify,)),
    "subset_any_zero_set": ("congruence_set_subset", _subset_any_zero_set, (verify,)),
}


@pytest.mark.parametrize("fault", list(_ORDER_FAULTS))
def test_order_suite_reports_each_planted_fault(monkeypatch, fault):
    name, broken, modules = _ORDER_FAULTS[fault]
    for module in modules:
        monkeypatch.setattr(module, name, broken)
    report = run_suite("order", {"max_value": 12, "random_max": 40}, seed=3)
    assert (report.failure_count > 0) == bool(modules), report.failure_count


def _realize_failures():
    # the realize suite's prime pool is fixed, so a smaller one goes to the
    # suite function itself
    _, rec, _ = verify._suite_realize({"prime_pool": (2, 3, 5, 7)}, random.Random(0))
    return rec.total


def _pairA_failures():
    return run_suite("pairA", {"max_value": 60}, seed=1).failure_count


def _closure_failures():
    return run_suite("closure", {"a_max": 20, "b_max": 30}, seed=1).failure_count


def _gamma_failures():
    return run_suite("gamma", {"bound": 10**4, "grid": 4}, seed=1).failure_count


def _classify_failures():
    return run_suite("classify", {"max_value": 300}, seed=1).failure_count


def _upsets_failures():
    return run_suite("upsets", {"instances": 5}, seed=1).failure_count


def _zsigmondy_failures():
    return run_suite("zsigmondy", {"max_base": 10, "max_exponent": 10}).failure_count


def _powers_failures():
    return run_suite("powers", {"limit": 10**4}).failure_count


def _chains_failures():
    return run_suite("chains", {"max_base": 10, "max_exponent": 3}).failure_count


def _realize_least_shifted(A, alpha):
    E = filters.realize(A, alpha)
    return (E[0] + 2,) + E[1:]


def _descriptor_without_zeros(E):
    d = filters.descriptor(E)
    return filters.FilterDescriptor(d.E, {p: k for p, k in d.alpha.items() if k})


def _drop_largest_odd_prime(route):
    def broken(*args):
        A = route(*args)
        return A[:-1] if len(A) > 1 else A

    return broken


_MEMBERS, _CONTAINS, _WITNESS = CongruenceSet.members, CongruenceSet.contains, verify._witness


def _closure_without_forced(a, b):
    return CongruenceSet({p: k for p, k in closure(a, b).residues.items() if k})


def _members_dropping_last(self, lo, hi):
    return _MEMBERS(self, lo, hi)[:-1]


def _contains_ignoring_largest(self, z):
    return _CONTAINS(CongruenceSet(dict(list(self.residues.items())[:-1])), z)


def _witness_skipping_largest(zs, a, pis):
    return _WITNESS(zs, a, pis[:-1])


# a planted fault per row: the suite run that must see it, then as in
# _ORDER_FAULTS the name it replaces, the replacement and the modules (or
# the class) that hold the name; a fault in several names gives a tuple of
# names and one of replacements.  A suite's first row plants nothing.  The
# closure_oracle, _witness and edges_by_definition rows plant the fault in
# the oracle side
_SUITE_FAULTS = {
    "realize-none": (_realize_failures, None, None, ()),
    "realize-least_shifted": (_realize_failures, "realize", _realize_least_shifted, (verify,)),
    "realize-alpha_zeros_dropped": (
        _realize_failures, "descriptor", _descriptor_without_zeros, (verify,),
    ),
    "pairA-none": (_pairA_failures, None, None, ()),
    "pairA-compute_A_drops_largest_odd": (
        _pairA_failures, "compute_A", _drop_largest_odd_prime(filters.compute_A), (verify,),
    ),
    "pairA-pair_A_drops_largest_odd": (
        _pairA_failures, "pair_A", _drop_largest_odd_prime(filters.pair_A), (verify,),
    ),
    # one fault in both routes alike, which comparing them would not see
    "pairA-both_routes_drop_largest_odd": (
        _pairA_failures, ("compute_A", "pair_A"),
        (_drop_largest_odd_prime(filters.compute_A), _drop_largest_odd_prime(filters.pair_A)),
        (verify,),
    ),
    "closure-none": (_closure_failures, None, None, ()),
    "closure-forced_dropped": (_closure_failures, "closure", _closure_without_forced, (verify,)),
    "closure-members_drop_last": (
        _closure_failures, "members", _members_dropping_last, (CongruenceSet,),
    ),
    "closure-contains_ignores_largest": (
        _closure_failures, "contains", _contains_ignoring_largest, (CongruenceSet,),
    ),
    "closure-oracle_always_true": (
        _closure_failures, "closure_oracle", lambda a, b, z: True, (verify,),
    ),
    "closure-witness_skips_largest": (
        _closure_failures, "_witness", _witness_skipping_largest, (verify,),
    ),
    "gamma-none": (_gamma_failures, None, None, ()),
    "gamma-closed_form_drops_last": (
        _gamma_failures, "edges_closed_form", lambda p, n: gamma.edges_closed_form(p, n)[:-1],
        (verify,),
    ),
    "gamma-definition_drops_first": (
        _gamma_failures, "edges_by_definition", lambda p, n: gamma.edges_by_definition(p, n)[1:],
        (verify,),
    ),
    "gamma-degree_plus_one": (
        _gamma_failures, "degree_infinite", lambda p, v: gamma.degree_infinite(p, v) + 1,
        (verify,),
    ),
    "gamma-pair_A_drops_largest_odd": (
        _gamma_failures, "pair_A", _drop_largest_odd_prime(filters.pair_A), (verify,),
    ),
    "classify-none": (_classify_failures, None, None, ()),
    "classify-always_infinity": (
        _classify_failures, "classify", lambda E: filters.ClassLabel("FInfinity"), (verify,),
    ),
    "upsets-none": (_upsets_failures, None, None, ()),
    "upsets-drops_last": (
        _upsets_failures, "upset_in_Fprime", lambda E: filters.upset_in_Fprime(E)[:-1], (verify,),
    ),
    "zsigmondy-none": (_zsigmondy_failures, None, None, ()),
    "zsigmondy-negated": (
        _zsigmondy_failures, "zsigmondy_inclusion",
        lambda a, n: not numtheory.zsigmondy_inclusion(a, n), (verify,),
    ),
    "powers-none": (_powers_failures, None, None, ()),
    "powers-empty": (_powers_failures, "consecutive_perfect_powers", lambda limit: [], (verify,)),
    "chains-none": (_chains_failures, None, None, ()),
    "chains-without_one": (
        _chains_failures, "power_chain_equal_set",
        lambda x, n: filters.power_chain_equal_set(x, n) - {1}, (verify,),
    ),
}


@pytest.mark.parametrize("fault", list(_SUITE_FAULTS))
def test_suites_report_each_planted_fault(monkeypatch, fault):
    failures, names, broken, modules = _SUITE_FAULTS[fault]
    if not isinstance(names, tuple):
        names, broken = (names,), (broken,)
    for module in modules:
        for name, replacement in zip(names, broken):
            monkeypatch.setattr(module, name, replacement)
    count = failures()
    assert (count > 0) == bool(modules), count
