"""Tests for arithmetic progressions, basic opens, and closure descriptions."""

import math

import pytest

from kirchlab import (
    CongruenceSet,
    Progression,
    closure,
    intersect,
    progressions_intersect,
)
from kirchlab.numtheory import MAX_OPERAND
from kirchlab.progressions import MAX_WINDOW


def test_progression_membership():
    p = Progression(5, 6)
    assert 5 in p and 11 in p and 17 in p
    assert 6 not in p and 4 not in p and 0 not in p
    assert -1 not in p  # only positive integers live in this space


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression(0, 3)
    with pytest.raises(ValueError):
        Progression(3, 0)


def test_kirch_basic_open_flag():
    assert Progression(5, 6).kirch_basic
    assert Progression(1, 2).kirch_basic
    assert not Progression(3, 6).kirch_basic  # shares the factor 3
    assert not Progression(1, 4).kirch_basic  # 4 is not square-free
    # the flag is computed from a and b, so it cannot be set or disagree
    assert Progression(5, 6) == Progression(5, 6)
    with pytest.raises(TypeError):
        Progression(3, 6, True)


def test_progressions_intersect_matches_enumeration():
    for a1 in range(1, 13):
        for b1 in range(1, 13):
            for a2 in range(1, 13):
                for b2 in range(1, 13):
                    lcm = b1 * b2 // math.gcd(b1, b2)
                    lo = max(a1, a2)
                    brute = any(
                        z % b1 == a1 % b1 and z % b2 == a2 % b2
                        for z in range(lo, lo + lcm)
                    )
                    assert progressions_intersect(Progression(a1, b1), Progression(a2, b2)) == brute


def test_closure_examples():
    c = closure(5, 6)
    assert c.residues == {3: 2}
    assert c.members(1, 12) == [2, 3, 5, 6, 8, 9, 11, 12]

    c = closure(4, 15)
    assert c.residues == {3: 1, 5: 4}

    c = closure(15, 2)
    assert c.residues == {}
    assert c.members(1, 6) == [1, 2, 3, 4, 5, 6]  # closure of an odd progression is everything

    c = closure(10, 21)
    assert c.residues == {3: 1, 7: 3}


def test_closure_forced_divisor_case():
    c = closure(6, 15)
    assert c.residues == {3: 0, 5: 1}
    assert 6 in c and 15 in c and 21 in c
    assert 3 not in c  # 3 mod 5 lands outside {0, 1}
    assert 5 not in c  # not divisible by 3


def test_closure_is_superset_of_progression():
    for a in range(1, 40):
        for b in range(1, 40):
            c = closure(a, b)
            for k in range(6):
                assert a + k * b in c, (a, b, k)


def test_congruence_set_period_and_membership():
    s = CongruenceSet({3: 0, 5: 1})
    assert s.period == 15
    listed = [z for z in range(1, 31) if z in s]
    assert listed == s.members(1, 30)
    assert all((z % 3 == 0) and (z % 5 in (0, 1)) for z in listed)


def test_congruence_set_validation():
    with pytest.raises(ValueError):
        CongruenceSet({4: 0})
    with pytest.raises(ValueError):
        CongruenceSet({5: 5})
    with pytest.raises(ValueError):
        CongruenceSet({5: -1})
    s = CongruenceSet({})
    with pytest.raises(ValueError):
        s.members(0, 5)
    with pytest.raises(ValueError):
        s.members(7, 3)


def test_members_window_is_capped():
    everything = CongruenceSet()
    top = everything.members(MAX_OPERAND - MAX_WINDOW + 1, MAX_OPERAND)
    assert len(top) == MAX_WINDOW and top[-1] == MAX_OPERAND
    with pytest.raises(ValueError, match=f"window capped at {MAX_WINDOW} values"):
        everything.members(1, MAX_WINDOW + 1)
    with pytest.raises(ValueError, match=f"hi capped at {MAX_OPERAND}"):
        everything.members(MAX_OPERAND, MAX_OPERAND + 1)


def test_allowed_residues():
    s = closure(4, 15)  # 3 -> {0,1}, 5 -> {0,4}
    assert s.allowed_residues(3) == (0, 1)
    assert s.allowed_residues(5) == (0, 4)
    assert s.allowed_residues(7) is None
    forced = closure(6, 15)
    assert forced.allowed_residues(3) == (0,)


def test_intersect_agrees_with_pointwise_intersection():
    pairs = [
        ((5, 6), (4, 15)),
        ((5, 6), (7, 10)),
        ((1, 2), (1, 3)),
        ((6, 15), (10, 21)),
        ((2, 3), (3, 2)),
    ]
    for (a1, b1), (a2, b2) in pairs:
        s1, s2 = closure(a1, b1), closure(a2, b2)
        both = intersect(s1, s2)
        hi = s1.period * s2.period
        want = sorted(set(s1.members(1, hi)) & set(s2.members(1, hi)))
        assert both.members(1, hi) == want


def test_intersect_conflicting_residues_is_empty():
    s1 = CongruenceSet({5: 1})
    s2 = CongruenceSet({5: 2})
    out = intersect(s1, s2)
    # residues {0,1} n {0,2} = {0}: the prime becomes forced, not empty
    assert out.residues == {5: 0}
    s3 = CongruenceSet({3: 0})
    assert intersect(s1, s3).period == 15


def test_json_shape():
    c = closure(5, 6)
    assert c.to_json_dict() == {"forced": [], "two_class": {"3": "2"}}
    c = closure(6, 15)
    assert c.to_json_dict() == {"forced": [3], "two_class": {"5": "1"}}
