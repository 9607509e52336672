import pytest
from hypothesis import given, settings

from conftest import graphs
from squarestable.graphs import Graph, disjoint_union
from squarestable.invariants import alpha, is_matching, mu
from squarestable.named_graphs import (GALLERY, c4_with_two_pendants,
                                       c5_with_two_pendants, comb, complete,
                                       cycle, diamond_with_pendant,
                                       empty_graph, net, path, paw, star,
                                       sunlet, triangle_with_tail,
                                       twin_triangle_path)
from squarestable.recognizers import (has_distance3_maximum_stable_set,
                                      has_pendant_perfect_matching,
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
    assert has_distance3_maximum_stable_set(path(4)) == {0, 3}
    assert has_distance3_maximum_stable_set(cycle(4)) is None
    single = has_distance3_maximum_stable_set(complete(5))
    assert single is not None and len(single) == 1


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


def test_recognize_c4():
    p = recognize(cycle(4))
    assert (p.is_ke, p.is_well_covered, p.is_very_well_covered,
            p.is_square_stable) == (True, True, True, False)
    assert not p.is_simplicial_graph and not p.has_pendant_pm


def test_recognize_p4_all_true():
    p = recognize(path(4))
    assert all([p.is_ke, p.is_well_covered, p.is_very_well_covered,
                p.is_square_stable, p.is_simplicial_graph, p.has_pendant_pm])


def test_recognize_twin_triangle_path():
    p = recognize(twin_triangle_path())
    assert p.is_square_stable and not p.is_ke


def test_recognize_cross_check_on_gallery():
    for name, g in GALLERY.items():
        fast = recognize(g)
        slow = recognize(g, cross_check=True)
        assert (fast.is_ke, fast.is_well_covered, fast.is_very_well_covered,
                fast.is_square_stable, fast.is_simplicial_graph,
                fast.has_pendant_pm) == (
            slow.is_ke, slow.is_well_covered, slow.is_very_well_covered,
            slow.is_square_stable, slow.is_simplicial_graph,
            slow.has_pendant_pm), name


def test_recognize_cross_check_under_tiny_budgets():
    # a flag left undecided by the budget is not a route disagreement
    from squarestable.invariants import SolverBudget

    for g in [star(2), path(2), path(4), comb(3), cycle(5), net()]:
        for nodes in range(1, 25):
            recognize(g, SolverBudget(max_nodes=nodes), cross_check=True)


def test_recognize_budget_exhaustion_flags_fields_none():
    from squarestable.invariants import SolverBudget

    # alpha branches on each cycle of C5 + C5 (7 nodes)
    p = recognize(disjoint_union(cycle(5), cycle(5)), SolverBudget(max_nodes=3, max_seconds=60.0))
    assert p.is_ke is None
    assert "budget_exhausted" in p.certificates["alpha"]
    # the structural flags never need a budget
    assert p.is_simplicial_graph is not None
    assert p.has_pendant_pm is not None


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=1, max_n=7, connected=True))
def test_distance3_route_agrees_with_definition(g):
    assert (has_distance3_maximum_stable_set(g) is not None) == is_square_stable(g)


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
