"""Tests for filter descriptors, realization, order, and classification."""

import copy
import json
import pickle
import random
import time

import pytest

from kirchlab import (
    ALL_PRIMES,
    BadShape,
    NotPrime,
    OverlapError,
    Overflow,
    TooSmall,
    WrongClass,
    classify,
    closure,
    compute_A,
    descriptor,
    filter_eq,
    filter_le,
    generator,
    pair_A,
    power_chain_equal_set,
    primes_from_order,
    primes_upto,
    realize,
    upset_in_Fprime,
)
from kirchlab.filters import MAX_ORDER_BOUND
from kirchlab.numtheory import MAX_OPERAND


def _brute_signature(E):
    """Definition-level A: odd p is in iff E has at most one nonzero residue mod p."""
    out = [2]
    for p in primes_upto(max(E)):
        p = int(p)
        if p == 2:
            continue
        nonzero = {e % p for e in E} - {0}
        if len(nonzero) <= 1:
            out.append(p)
    return tuple(out)


# ------------------------------------------------------------ signatures


def test_compute_A_examples():
    assert compute_A((5, 10)) == (2, 5)
    assert compute_A((4, 8)) == (2,)
    assert compute_A((1, 3, 6)) == (2, 3)
    assert compute_A((1, 2)) == (2,)


def test_compute_A_matches_definition_scan():
    rng = random.Random(7)
    for _ in range(150):
        size = rng.choice((2, 3, 4))
        E = tuple(sorted(rng.sample(range(1, 400), size)))
        assert compute_A(E) == _brute_signature(E), E


def test_compute_A_rejects_singletons():
    with pytest.raises(TooSmall):
        compute_A((7,))


def test_pair_A_examples():
    assert pair_A(1, 2) == (2,)
    assert pair_A(3, 6) == (2, 3)
    assert pair_A(7, 56) == (2, 7)
    assert pair_A(5, 10) == (2, 5)


def test_pair_A_equals_compute_A_sample():
    rng = random.Random(3)
    for _ in range(300):
        x = rng.randrange(1, 500)
        y = rng.randrange(1, 500)
        if x == y:
            continue
        assert pair_A(x, y) == compute_A((x, y)), (x, y)


# ------------------------------------------------------------ descriptors


def test_descriptor_examples():
    d = descriptor((3, 6))
    assert d.A == (2, 3)
    assert d.Pi == (3,)
    assert d.alpha == {2: 1, 3: 0}

    d = descriptor((5, 3, 6))
    assert d.E == (3, 5, 6)
    assert d.A == (2, 3)
    assert d.Pi == ()
    assert d.alpha == {2: 1, 3: 2}

    d = descriptor((7,))
    assert d.A is ALL_PRIMES
    assert d.Pi == (7,)


def test_descriptor_is_cached_and_order_insensitive():
    assert descriptor((3, 6)) is descriptor([6, 3, 3])


def test_descriptor_alpha_is_read_only():
    d = descriptor((3, 6))
    with pytest.raises(TypeError):
        d.alpha[3] = 1
    with pytest.raises(TypeError):
        del d.alpha[2]
    assert descriptor((3, 6)).alpha == {2: 1, 3: 0}
    label = classify((3, 6))
    assert (label.tag, label.case, label.p) == ("FDoublePrime", 1, 3)


@pytest.mark.parametrize("E", [(3, 6), (5, 3, 6), (7,)])
def test_descriptor_pickles_and_copies(E):
    d = descriptor(E)
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
        assert twin == d and twin.alpha == d.alpha and twin.A == d.A


def test_descriptor_alpha_conditions_hold_on_random_sets():
    rng = random.Random(11)
    for _ in range(120):
        E = tuple(sorted(rng.sample(range(1, 200), rng.choice((2, 3, 4)))))
        d = descriptor(E)
        assert 2 in d.A
        assert set(d.Pi) <= set(d.A)
        assert d.alpha[2] == 1
        for p in d.A:
            if p == 2:
                continue
            k = d.alpha[p]
            if p in d.Pi:
                assert k == 0
            else:
                assert 0 < k < p
                assert all(e % p in (0, k) for e in E)


def test_element_validation():
    with pytest.raises(TooSmall):
        descriptor(())
    with pytest.raises(ValueError):
        descriptor((0, 3))
    with pytest.raises(Overflow):
        descriptor((2 * 10**9,))


def test_descriptor_json_shape():
    d = descriptor((3, 6))
    assert d.to_json_dict() == {
        "E": [3, 6],
        "A": [2, 3],
        "Pi": [3],
        "alpha": {"2": "1", "3": "0"},
    }
    d = descriptor((7,))
    assert d.to_json_dict() == {"E": [7], "A": "all", "Pi": [7]}


def test_descriptor_json_round_trips_for_random_sets():
    rng = random.Random(23)
    for _ in range(100):
        E = tuple(sorted(rng.sample(range(1, 300), rng.choice((1, 2, 3)))))
        doc = descriptor(E).to_json_dict()
        assert json.loads(json.dumps(doc)) == doc


# ------------------------------------------------------------ realize


def test_realize_examples():
    assert realize((2, 3), {2: 1, 3: 2}) == (3, 5, 6)
    assert realize((2, 3, 5), {2: 1, 3: 1, 5: 2}) == (7, 15, 30)
    # alpha(p)=0 collapses y onto x: {p,p,2p} -> {p,2p}
    assert realize((2, 3), {2: 1, 3: 0}) == (3, 6)


def test_realize_round_trip():
    A = (2, 3, 7)
    alpha = {2: 1, 3: 2, 7: 0}
    E = realize(A, alpha)
    d = descriptor(E)
    assert d.A == A
    assert d.alpha == alpha
    assert d.Pi == (7,)


def test_realize_rejects_bad_shapes():
    with pytest.raises(BadShape):
        realize((2,), {2: 1})  # A = {2}
    with pytest.raises(BadShape):
        realize((3, 5), {3: 1, 5: 1})  # 2 missing
    with pytest.raises(BadShape):
        realize((2, 3), {2: 0, 3: 1})  # alpha(2) != 1
    with pytest.raises(BadShape):
        realize((2, 3), {2: 1})  # alpha not defined on all of A
    with pytest.raises(BadShape):
        realize((2, 3), {2: 1, 3: 3})  # residue out of range
    with pytest.raises(BadShape):
        realize((2, 3), {2: 1, 3: 1, 5: 1})  # alpha off-domain
    with pytest.raises(NotPrime):
        realize([2, 9], {2: 1, 9: 1})  # every p of A is tested for primality


# ------------------------------------------------------------ generator


def test_generator_examples():
    g = generator(descriptor((1, 2)))
    assert g.residues == {2: 1}

    g = generator(descriptor((3, 6)), (5,))
    assert g.residues == {2: 1, 5: 0}

    g = generator(descriptor((5, 3, 6)))
    assert g.residues == {2: 1, 3: 2}


def test_generator_denotes_same_set_as_matching_closure():
    # The generator of descriptor({3,5,6}) and closure(5,6) describe the
    # same integers; the generator just keeps the vacuous parity clause.
    g = generator(descriptor((5, 3, 6)))
    c = closure(5, 6)
    assert g.members(1, 60) == c.members(1, 60)
    assert g.residues != c.residues


def test_generator_errors():
    with pytest.raises(OverlapError):
        generator(descriptor((3, 6)), (3,))
    with pytest.raises(BadShape):
        generator(descriptor((7,)))  # singleton has no finite signature


# ------------------------------------------------------------ order


def test_filter_le_examples():
    assert filter_le((1, 121), (1, 11))
    assert not filter_le((1, 11), (1, 121))
    assert filter_le((7,), (7, 10))
    assert not filter_le((7, 10), (7,))
    assert not filter_le((7,), (3,))
    assert filter_le((7,), (7,))


def test_filter_eq_examples():
    assert filter_eq((1, 3), (1, 9))
    assert not filter_eq((3, 6), (1, 3, 6))
    assert filter_eq((5, 3, 6), (5, 3, 6))


def test_everything_sits_below_the_top_filter():
    top = (4, 8)  # signature {2}: the greatest filter
    for E in ((3, 6), (1, 11), (5, 3, 6), (7, 15, 30), (9, 12, 17)):
        assert filter_le(E, top)
    assert filter_le(top, (16, 32))
    assert filter_eq(top, (2, 4))


def test_filter_le_is_a_preorder_on_random_corpus():
    rng = random.Random(5)
    corpus = [tuple(sorted(rng.sample(range(1, 100), rng.choice((2, 3))))) for _ in range(40)]
    for E in corpus:
        assert filter_le(E, E)
    for E in corpus:
        for F in corpus:
            for G in corpus:
                if filter_le(E, F) and filter_le(F, G):
                    assert filter_le(E, G), (E, F, G)


# ------------------------------------------------------------ classes


def test_classify_examples():
    assert classify((4, 8)).tag == "FInfinity"
    lab = classify((1, 3, 6))
    assert (lab.tag, lab.p, lab.alpha_value) == ("FPrime", 3, 1)
    lab = classify((3, 6))
    assert (lab.tag, lab.case, lab.p) == ("FDoublePrime", 1, 3)
    lab = classify((7, 15, 30))
    assert (lab.tag, lab.case, lab.p, lab.q) == ("FDoublePrime", 2, 3, 5)
    assert classify((1, 15)).tag == "Other"
    with pytest.raises(TooSmall):
        classify((5,))


def test_classlabel_json():
    doc = classify((3, 6)).to_json_dict()
    assert doc == {"tag": "FDoublePrime", "case": 1, "p": 3}
    doc = classify((1, 3, 6)).to_json_dict()
    assert doc == {"tag": "FPrime", "p": 3, "alpha_value": 1}
    assert classify((4, 8)).to_json_dict() == {"tag": "FInfinity"}


def test_upset_case1():
    ups = upset_in_Fprime((3, 6))
    assert len(ups) == 2
    assert sorted(d.E for d in ups) == [(1, 3, 6), (2, 3, 6)]
    for d in ups:
        assert classify(d.E).tag == "FPrime"
        assert filter_le((3, 6), d.E)

    ups = upset_in_Fprime((5, 10))
    assert sorted(d.E for d in ups) == [(1, 5, 10), (2, 5, 10), (3, 5, 10), (4, 5, 10)]


def test_upset_case2():
    ups = upset_in_Fprime((7, 15, 30))
    assert sorted(d.E for d in ups) == [(3, 6, 7), (5, 7, 10)]
    for d in ups:
        assert classify(d.E).tag == "FPrime"
        assert filter_le((7, 15, 30), d.E)


def test_upset_rejects_other_classes():
    with pytest.raises(WrongClass):
        upset_in_Fprime((1, 3, 6))  # FPrime
    with pytest.raises(WrongClass):
        upset_in_Fprime((4, 8))  # FInfinity


# ------------------------------------------------------------ derived order facts


def test_both_sets_are_checked_before_either_descriptor_is_built(fresh_process):
    # a fresh process per call.  Building the descriptor of (1, 10**9) first
    # grows the prime table to 10**9 (3 s, 228 MB) before the other set is
    # refused
    calls = (
        "filter_le((1, 10**9), (1, 10**9 + 1))",
        "filter_le_oracle((1, 10**9), (5,))",
    )
    for call in calls:
        code = (
            "import time\n"
            "from kirchlab import filter_le, filter_le_oracle\n"
            "t = time.perf_counter()\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as err:\n"
            "    refusal = type(err).__name__\n"
            "s = time.perf_counter() - t\n"
            "print(refusal, s)\n"
        )
        (refusal, s), mb = fresh_process(code)
        assert refusal == ("Overflow" if call.startswith("filter_le(") else "TooSmall"), call
        assert float(s) < 1 and mb < 60, (call, s, mb)


def test_primes_from_order_examples():
    assert primes_from_order(15, 15) == (3, 5)
    assert primes_from_order(8, 8) == ()
    assert primes_from_order(9, 9) == (3,)
    assert primes_from_order(45, 45) == (3, 5)


def test_primes_from_order_is_total():
    # each refusal comes before any filter is compared
    for x, shown in ((10**12, "1000000000000"), (10**5000, "a 16610-bit integer")):
        with pytest.raises(Overflow, match=f"x capped at {MAX_OPERAND}, got {shown}$"):
            primes_from_order(x, 2)
    # no prime above x divides it, so p_bound is clamped to x
    assert primes_from_order(30, 10**10) == (3, 5)
    with pytest.raises(Overflow, match=f"p_bound capped at {MAX_ORDER_BOUND}, got {MAX_ORDER_BOUND + 1}"):
        primes_from_order(MAX_OPERAND, MAX_ORDER_BOUND + 1)


def test_power_chain_examples():
    assert power_chain_equal_set(11, 5) == {1}
    assert power_chain_equal_set(3, 3) == {1, 2}
    assert power_chain_equal_set(15, 2) == {1, 2}
    assert power_chain_equal_set(5, 5) == {1}
    # x=2: {1,4} already has signature {2,3}, unlike {1,2} whose signature
    # is {2} alone, so the chain is trivial.
    assert power_chain_equal_set(2, 6) == {1}


def test_power_chain_overflow():
    with pytest.raises(Overflow):
        power_chain_equal_set(64, 5)


def test_power_chain_refuses_a_huge_exponent_before_building_the_power():
    t0 = time.perf_counter()
    # 2^30 passes MAX_OPERAND, so n_max is capped at 29 before any power is built
    with pytest.raises(Overflow, match="n_max capped at 29, got 100000000$"):
        power_chain_equal_set(3, 10**8)
    with pytest.raises(Overflow, match=f"x capped at {MAX_OPERAND}, got a 16610-bit integer$"):
        power_chain_equal_set(10**5000, 1)
    with pytest.raises(Overflow, match="n_max capped at 29, got a 16610-bit integer$"):
        power_chain_equal_set(3, 10**5000)
    assert time.perf_counter() - t0 < 1.0
