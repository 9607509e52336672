from named_graphs import (GALLERY, braced_ladder, c4_with_two_pendants,
                          c5_with_two_pendants, clique_chain_11, c4_with_tails,
                          comb, complete, corona, diamond_with_pendant,
                          double_star, fused_triangles, k4_with_tail, net,
                          path, paw, star, sunlet, triangle_with_tail,
                          twin_triangle_path)
from squarestable.graphs import square
from squarestable.invariants import (alpha, core_set, count_perfect_matchings,
                                     mu, omega_family, simplicial_vertices)
from squarestable.recognizers import (has_pendant_perfect_matching,
                                      is_koenig_egervary, is_square_stable,
                                      is_very_well_covered, is_well_covered)


def test_gallery_slugs_round_trip():
    assert set(GALLERY) == {
        "paw", "triangle-with-tail", "c5-two-pendants", "k4-tail",
        "clique-chain-11", "c4-tails", "braced-ladder", "fused-triangles",
        "twin-triangle-path", "c4-two-pendants", "diamond-pendant", "net",
        "sunlet-4", "comb-4"}


def test_paw_facts():
    g = paw()
    assert square(g) == complete(4)
    assert count_perfect_matchings(g) == 1
    assert not is_square_stable(g)
    assert is_koenig_egervary(g)


def test_triangle_with_tail_facts():
    g = triangle_with_tail()
    assert is_square_stable(g)
    assert is_well_covered(g)[0]
    assert not is_very_well_covered(g)
    assert not is_koenig_egervary(g)


def test_c5_with_two_pendants_is_nonbipartite_ke():
    g = c5_with_two_pendants()
    assert is_koenig_egervary(g)
    from squarestable.graphs import girth
    assert girth(g) == 5  # odd girth: not bipartite


def test_k4_tail_and_clique_chain_are_square_stable():
    assert is_square_stable(k4_with_tail())
    assert is_square_stable(clique_chain_11())
    assert not is_square_stable(c4_with_tails())


def test_braced_ladder_simplicial_structure():
    g = braced_ladder()
    assert is_square_stable(g)
    assert simplicial_vertices(g) == {1, 3, 4, 7}
    assert core_set(square(g)) == {1, 4}


def test_fused_triangles_unique_square_maximum():
    g = fused_triangles()
    assert alpha(g)[0] == 3
    assert frozenset({3, 4, 5}) in omega_family(g)
    assert omega_family(square(g)) == [frozenset({3, 4})]
    assert not is_square_stable(g)


def test_twin_triangle_path_facts():
    g = twin_triangle_path()
    assert is_square_stable(g)
    assert not is_koenig_egervary(g)
    assert count_perfect_matchings(g) == 1
    assert has_pendant_perfect_matching(g) is None
    # the unique perfect matching needs the internal edge (2, 3)
    assert mu(g)[0] == 5


def test_c4_with_two_pendants_facts():
    g = c4_with_two_pendants()
    assert is_very_well_covered(g)
    assert not is_square_stable(g)


def test_diamond_with_pendant_facts():
    g = diamond_with_pendant()
    assert alpha(g)[0] == 2
    assert mu(g)[0] == 2
    assert not is_koenig_egervary(g)
    assert is_square_stable(g)


def test_corona_family_members():
    for g in (net(), sunlet(4), comb(4)):
        assert has_pendant_perfect_matching(g) is not None
        assert is_square_stable(g)
        assert is_koenig_egervary(g)


def test_corona_of_anything_is_square_stable():
    for base in (path(5), complete(4), star(3), c4_with_tails()):
        g = corona(base)
        assert has_pendant_perfect_matching(g) is not None
        assert is_square_stable(g)


def test_double_star_separates_gamma_from_ind_dom():
    from squarestable.invariants import gamma, ind_dom

    g = double_star(3, 3)
    assert gamma(g) == (2, frozenset({0, 1}))
    assert ind_dom(g)[0] == 4
