from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs, labeled_graphs
from named_graphs import (GALLERY, c4_with_two_pendants, c5_with_two_pendants,
                          comb, complete, cycle, diamond_with_pendant,
                          disjoint_union, empty_graph, net, path, paw, star,
                          sunlet, triangle_with_tail, twin_triangle_path)
from squarestable.graphs import Graph, distances
from squarestable.harness import _distance3_maximum_stable_set_exists
from squarestable.invariants import (DEFAULT_BUDGET, SolverBudget, alpha,
                                     is_matching, mu)
from squarestable.recognizers import (has_pendant_perfect_matching,
                                      is_koenig_egervary, is_simplicial_graph,
                                      is_square_stable, is_very_well_covered,
                                      is_well_covered, recognize,
                                      vertex_in_exactly_one_simplex)


def test_koenig_egervary_examples():
    assert not is_koenig_egervary(triangle_with_tail())
    assert is_koenig_egervary(path(5))
    assert is_koenig_egervary(paw())
    assert is_koenig_egervary(c5_with_two_pendants())
    assert not is_koenig_egervary(diamond_with_pendant())


def test_well_covered_examples():
    ok, cert = is_well_covered(cycle(4))
    assert ok and cert is None
    ok, cert = is_well_covered(path(3))
    assert not ok and cert == {1}
    ok, _ = is_well_covered(path(4))
    assert ok


def test_well_covered_certificate_is_maximal_but_small():
    from squarestable.invariants import is_maximal_stable_set

    ok, cert = is_well_covered(star(4))
    assert not ok
    assert is_maximal_stable_set(star(4), cert)
    assert len(cert) < alpha(star(4))[0]


def test_very_well_covered_examples():
    assert is_very_well_covered(path(4))
    assert is_very_well_covered(c4_with_two_pendants())
    assert not is_very_well_covered(complete(3))
    assert not is_very_well_covered(disjoint_union(path(2), empty_graph(1)))


def test_square_stable_examples():
    assert is_square_stable(path(4))
    for n in range(2, 7):
        assert not is_square_stable(star(n))
    assert not is_square_stable(path(6))
    assert not is_square_stable(cycle(4))
    assert is_square_stable(complete(1))
    assert is_square_stable(twin_triangle_path())


def test_distance3_maximum_stable_set_examples():
    # recognize's square-stability certificate: one pendant end per matched
    # edge of P4, and the square's alpha witness on K5
    cert = recognize(path(4))["certificates"]["square_stable"]
    assert cert == {"distance3_stable_set": [0, 3]}
    c4 = recognize(cycle(4))
    assert c4["square_stable"] is False
    assert c4["certificates"]["square_stable"] == {"alpha": 2}
    single = recognize(complete(5))["certificates"]["square_stable"]["distance3_stable_set"]
    assert len(single) == 1


def test_square_stable_certificate_is_a_distance3_maximum_stable_set():
    # every labeled graph up to 6 vertices; both certificate routes occur:
    # the pendant ends of a pendant perfect matching, and alpha of the square
    routes = Counter()
    for g in labeled_graphs(6):
        if g.n == 0:
            continue
        p = recognize(g)
        if not p["square_stable"]:
            continue
        d, a = distances(g), alpha(g)[0]
        s = p["certificates"]["square_stable"]["distance3_stable_set"]
        assert len(set(s)) == len(s) == a, g.edges
        assert all(d[u][v] is None or d[u][v] >= 3 for u, v in combinations(s, 2)), g.edges
        routes["pendant" if p["pendant_perfect_matching"] else "square alpha"] += 1
    assert routes["pendant"] > 100 and routes["square alpha"] > 1000, routes


def test_pendant_perfect_matching_examples():
    assert has_pendant_perfect_matching(path(4)) == {(0, 1), (2, 3)}
    assert has_pendant_perfect_matching(path(6)) is None
    assert has_pendant_perfect_matching(cycle(4)) is None
    assert has_pendant_perfect_matching(path(2)) == {(0, 1)}
    # two leaves on a shared support must fail
    assert has_pendant_perfect_matching(star(2)) is None


def test_pendant_perfect_matching_certifies():
    for g in [path(4), comb(5), sunlet(4), net()]:
        m = has_pendant_perfect_matching(g)
        assert m is not None
        assert is_matching(g, m)
        assert len(m) * 2 == g.n
        assert all(g.degree(u) == 1 or g.degree(v) == 1 for u, v in m)


def test_simplicial_graph_examples():
    assert is_simplicial_graph(path(4))
    assert not is_simplicial_graph(cycle(4))
    assert is_simplicial_graph(complete(4))


def test_vertex_in_exactly_one_simplex_examples():
    assert vertex_in_exactly_one_simplex(path(4))
    assert not vertex_in_exactly_one_simplex(cycle(4))
    assert vertex_in_exactly_one_simplex(complete(4))


def test_rejects_empty_graph():
    empty = Graph(0, [])
    for fn in [is_koenig_egervary, is_square_stable, is_simplicial_graph,
               has_pendant_perfect_matching, vertex_in_exactly_one_simplex]:
        with pytest.raises(ValueError):
            fn(empty)
    with pytest.raises(ValueError):
        recognize(empty)


FLAGS = ("ke", "well_covered", "very_well_covered", "square_stable",
         "simplicial_graph", "pendant_perfect_matching")


def test_recognize_c4():
    p = recognize(cycle(4))
    assert [p[k] for k in FLAGS] == [True, True, True, False, False, False]


def test_recognize_p4_all_true():
    p = recognize(path(4))
    assert all(p[k] is True for k in FLAGS)


def test_recognize_twin_triangle_path():
    p = recognize(twin_triangle_path())
    assert p["square_stable"] and not p["ke"]


def predicate_flags(g: Graph) -> dict:
    """Each flag from its predicate, on a copy of ``g`` with an empty memo."""
    g = Graph(g.n, g.edges)
    return {
        "ke": is_koenig_egervary(g),
        "well_covered": is_well_covered(g)[0],
        "very_well_covered": is_very_well_covered(g),
        "square_stable": is_square_stable(g),
        "simplicial_graph": is_simplicial_graph(g),
        "pendant_perfect_matching": has_pendant_perfect_matching(g) is not None,
    }


def test_recognize_flags_match_predicates_on_gallery():
    # the pendant-matching shortcut decides square stability on some of
    # these; the predicate always solves alpha of the square
    for name, g in GALLERY.items():
        p = recognize(Graph(g.n, g.edges))
        assert {k: p[k] for k in FLAGS} == predicate_flags(g), name


def test_recognize_flags_match_predicates_under_tiny_budgets():
    # a flag left undecided by the budget is None; every decided one is exact
    for g in [star(2), path(2), path(4), comb(3), cycle(5), net()]:
        want = predicate_flags(g)
        for nodes in range(1, 25):
            p = recognize(Graph(g.n, g.edges), SolverBudget(max_nodes=nodes))
            for k in FLAGS:
                assert p[k] is None or p[k] == want[k], (g.edges, nodes, k)


def test_recognize_budget_exhaustion_flags_fields_none():
    # alpha branches on each cycle of C5 + C5 (7 nodes)
    p = recognize(disjoint_union(cycle(5), cycle(5)), SolverBudget(max_nodes=3, max_seconds=60.0))
    assert p["ke"] is None
    assert "budget_exhausted" in p["certificates"]["alpha"]
    # the structural flags never need a budget
    assert p["simplicial_graph"] is not None
    assert p["pendant_perfect_matching"] is not None


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=1, max_n=8))
def test_distance3_route_agrees_with_definition(g):
    # the harness's distance-3 search reads neither the square nor its alpha
    assert _distance3_maximum_stable_set_exists(g, DEFAULT_BUDGET) == is_square_stable(g)


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=8, connected=True))
def test_pendant_pm_route_agrees_on_ke_graphs(g):
    if alpha(g)[0] + mu(g)[0] != g.n:
        return
    assert (has_pendant_perfect_matching(g) is not None) == is_square_stable(g)


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_monotone_class_implications(g):
    if is_very_well_covered(g):
        assert is_well_covered(g)[0]
    if has_pendant_perfect_matching(g) is not None:
        assert is_square_stable(g)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_componentwise_square_stability(g):
    from squarestable.graphs import components, is_connected

    if is_connected(g):
        return
    whole = is_square_stable(g)
    parts = all(is_square_stable(c) for c, _ in components(g))
    assert whole == parts
