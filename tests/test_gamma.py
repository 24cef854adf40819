"""Tests for the multiplicative-connection graphs on 2^a * p^b vertices."""

from itertools import combinations

import pytest

from kirchlab import (
    NotAVertex,
    NotPrime,
    degree_infinite,
    edges_by_definition,
    edges_closed_form,
    export_dot,
    gamma_graph,
    pair_A,
    vertices,
)


def test_gamma2_examples():
    g = gamma_graph(2, 8)
    assert g.vertices == (1, 2, 4, 8)
    assert g.edges == ((1, 2), (2, 4), (4, 8))
    g = gamma_graph(2, 1)
    assert g.vertices == (1,)
    assert g.edges == ()
    g = gamma_graph(2, 100)
    assert len(g.vertices) == 7 and len(g.edges) == 6
    with pytest.raises(ValueError):
        gamma_graph(2, 0)


def test_vertices_examples():
    assert vertices(3, 30) == (3, 6, 9, 12, 18, 24, 27)
    assert vertices(11, 12) == (11,)
    assert vertices(5, 100) == (5, 10, 20, 25, 40, 50, 80, 100)


def test_vertices_reject_bad_primes():
    with pytest.raises(NotPrime):
        vertices(9, 100)
    with pytest.raises(ValueError):
        vertices(2, 100)  # the even graph is its own construction


def test_edges_by_definition_examples():
    got = edges_by_definition(3, 12)
    assert got == ((3, 6), (3, 9), (3, 12), (6, 9), (6, 12), (9, 12))
    assert edges_by_definition(11, 25) == ((11, 22),)
    assert edges_by_definition(7, 14) == ((7, 14),)


def test_every_definition_edge_has_the_right_signature():
    for p in (3, 5, 11):
        verts = set(vertices(p, 2000))
        for x, y in edges_by_definition(p, 2000):
            assert x in verts and y in verts and x < y
            assert pair_A(x, y) == (2, p)


def test_definition_edges_are_exactly_the_pairs_with_signature_two_and_p():
    for p in (3, 5, 11):
        edges = set(edges_by_definition(p, 2000))
        for x, y in combinations(vertices(p, 2000), 2):
            assert (pair_A(x, y) == (2, p)) == ((x, y) in edges), (p, x, y)


def test_closed_form_matches_definition_on_small_bounds():
    for p in (3, 5, 7, 11, 13, 17, 31):
        for bound in (10, 100, 3000):
            assert edges_closed_form(p, bound) == edges_by_definition(p, bound), (p, bound)


def test_closed_form_matches_definition_up_to_the_operand_cap():
    for p in (3, 5, 7, 17, 31, 127, 257):
        assert edges_closed_form(p, 10**9) == edges_by_definition(p, 10**9), p


def test_bounds_above_the_operand_cap_are_refused():
    builds = (
        lambda bound: vertices(3, bound),
        lambda bound: gamma_graph(3, bound),
        lambda bound: gamma_graph(2, bound),
        lambda bound: edges_by_definition(3, bound),
        lambda bound: edges_closed_form(3, bound),
    )
    for build in builds:
        with pytest.raises(ValueError, match="bound capped at 1000000000"):
            build(10**9 + 1)
    assert gamma_graph(2, 10**9).vertices[-1] == 2**29
    assert vertices(3, 10**9)[-1] <= 10**9


def test_closed_form_spotlight_edges():
    assert (9, 12) in edges_closed_form(3, 54)
    assert (48, 54) in edges_closed_form(3, 54)
    assert (20, 25) in edges_closed_form(5, 25)
    assert (49, 56) in edges_closed_form(7, 56)


def test_difference_support_stays_inside_two_and_p():
    from kirchlab import prime_factors

    for p in (3, 5, 7, 11, 13):
        for x, y in edges_closed_form(p, 5000):
            assert set(prime_factors(y - x)) <= {2, p}, (p, x, y)


def test_degree_examples():
    assert degree_infinite(3, 3) == 4
    assert degree_infinite(7, 7) == 2
    for k in (1, 2, 3):
        assert degree_infinite(11, 11**k) == 1
    # a vertex of 4096 bits, the cap, is still answered; with every family
    # offset in reach, the degree of 3 * 2**a no longer depends on a
    assert degree_infinite(3, 3 << 4094) == degree_infinite(3, 3 << 10)


def test_degree_counts_match_a_truncated_graph():
    # Partners of small vertices stay well inside the bound, so the
    # truncated adjacency agrees with the family count there.
    for p in (3, 5, 7, 11, 13):
        adjacency = {}
        for x, y in edges_by_definition(p, 100_000):
            adjacency.setdefault(x, set()).add(y)
            adjacency.setdefault(y, set()).add(x)
        for v in vertices(p, 100):
            assert degree_infinite(p, v) == len(adjacency.get(v, ())), (p, v)


def test_degree_rejects_non_vertices():
    with pytest.raises(NotAVertex):
        degree_infinite(3, 5)
    with pytest.raises(NotAVertex):
        degree_infinite(3, 8)  # no factor of 3
    with pytest.raises(NotAVertex):
        degree_infinite(5, 75)  # 3 divides it


def test_gamma_graph_dispatch():
    g = gamma_graph(3, 12)
    assert g.p == 3
    assert g.vertices == (3, 6, 9, 12)
    assert len(g.edges) == 6
    assert g.prime_type.tag == "Both"
    g2 = gamma_graph(2, 8)
    assert g2.vertices == (1, 2, 4, 8)
    with pytest.raises(NotPrime):
        gamma_graph(15, 100)


def test_export_dot_gamma2():
    text = export_dot(gamma_graph(2, 4))
    assert text.count(" -- ") == 2
    assert text.count("[label=") == 3
    assert text.startswith("graph gamma2 {")
    assert text.endswith("}\n")


def test_export_dot_gamma11():
    text = export_dot(gamma_graph(11, 25))
    assert "11 -- 22;" in text
    assert text.count(" -- ") == 1
    assert text.count("[label=") == 2
    assert '"2^0*11^1"' in text


def test_export_dot_gamma3_bound12():
    text = export_dot(gamma_graph(3, 12))
    assert text.count("[label=") == 4
    assert text.count(" -- ") == 6
    assert '"2^2*3^1"' in text  # the vertex 12
    # deterministic output
    assert text == export_dot(gamma_graph(3, 12))


def test_json_shape():
    g = gamma_graph(11, 25)
    assert g.to_json_dict() == {"p": 11, "vertices": [11, 22], "edges": [[11, 22]]}
