"""Standard constructions and a gallery of small graphs used across the tests.

The gallery entries are hand-picked boundary cases for the recognizers and
the claim harness; each constructor documents the structure and the facts
that make it interesting.  Vertex numbering is part of the contract (tests
assert on concrete ids), so the layouts described in the docstrings are
binding.
"""

from __future__ import annotations

from itertools import combinations

from squarestable.graphs import Graph


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def path(n: int) -> Graph:
    """P_n with vertices 0..n-1 in path order."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def star(leaves: int) -> Graph:
    """K_{1,leaves}: center 0, leaves 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex ids of later arguments are shifted upward."""
    n = 0
    edges = []
    for g in graphs:
        edges.extend((n + u, n + v) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


def corona(g: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of g.

    The result always has a perfect matching of pendant edges, which makes it
    square-stable and Konig-Egervary regardless of g.
    """
    edges = list(g.edges) + [(v, g.n + v) for v in range(g.n)]
    return Graph(2 * g.n, edges)


def comb(n: int) -> Graph:
    """Path on n vertices with a pendant tooth on every vertex."""
    return corona(path(n))


def sunlet(k: int) -> Graph:
    """Cycle on k vertices with a pendant on every cycle vertex."""
    return corona(cycle(k))


def net() -> Graph:
    """Triangle with a pendant on each corner."""
    return corona(complete(3))


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers 0 and 1 carrying a and b leaves.

    Its domination number is 2 (the centers) while the smallest maximal
    stable set needs one center plus all the far leaves, so it separates the
    domination number from the independent domination number.
    """
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Graph(2 + a + b, edges)


def tadpole(cycle_len: int, tail: int) -> Graph:
    """Cycle with a path of ``tail`` extra vertices hanging off vertex 0."""
    g = cycle(cycle_len)
    edges = list(g.edges)
    prev = 0
    for i in range(tail):
        edges.append((prev, cycle_len + i))
        prev = cycle_len + i
    return Graph(cycle_len + tail, edges)


def paw() -> Graph:
    """Triangle 0,1,2 plus the pendant 3 attached to 0.

    The smallest graph with a unique perfect matching that is not
    square-stable: its square is K4, dropping the stability number to 1.
    """
    return tadpole(3, 1)


def c5_with_two_pendants() -> Graph:
    """C5 on 0..4 with two pendants 5,6 attached to vertex 0.

    Non-bipartite yet Konig-Egervary (alpha 4 + mu 3 = 7).
    """
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (0, 6)])


def triangle_with_tail() -> Graph:
    """Triangle 0,1,2 with the two-edge tail 0-3-4.

    Square-stable and well covered but not Konig-Egervary (alpha 2 + mu 2 < 5)
    and, with odd order, not very well covered.
    """
    return tadpole(3, 2)


def k4_with_tail() -> Graph:
    """K4 on 0..3 with the tail 3-4-5; square-stable."""
    return Graph(6, list(combinations(range(4), 2)) + [(3, 4), (4, 5)])


def clique_chain_11() -> Graph:
    """A pendant, a K4, a triangle and another pendant strung along a path.

    Bottom path 0..5; pendant 6 on 0; K4 on {1,2,7,8}; triangle {3,4,9};
    pendant 10 on 5.  Square-stable: every vertex lies in exactly one simplex.
    """
    return Graph(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 7), (1, 8),
                      (7, 8), (2, 8), (3, 9), (0, 6), (1, 7), (4, 9), (5, 10)])


def c4_with_tails() -> Graph:
    """C4 on {1,2,6,5} with the tail 4-0-1 and the pendant 3 on 2; not square-stable."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (5, 6), (1, 5), (2, 6)])


def braced_ladder() -> Graph:
    """Four rungs 0-4, 1-5, 2-6, 3-7 braced by diagonals 0-5, 1-6, 2-7,
    with the extra edges 5-6 and 2-3.

    Square-stable showcase for the simplicial structure: the simplicial
    vertices are {1, 3, 4, 7} but only {1, 4} survive in the core of the
    square (each is the lone simplicial vertex of its simplex).
    """
    return Graph(8, [(0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (1, 6),
                     (2, 7), (5, 6), (2, 3)])


def fused_triangles() -> Graph:
    """Triangles {0,1,3}, {0,1,2} and {0,2,5} sharing edges, plus pendant 4 on 2.

    alpha is 3 (witness {3,4,5}) yet the square has the unique maximum stable
    set {3,4}: a graph whose square has exactly one maximum stable set without
    being square-stable.
    """
    return Graph(6, [(0, 1), (0, 3), (0, 5), (0, 2), (1, 3), (1, 2),
                     (2, 5), (2, 4)])


def twin_triangle_path() -> Graph:
    """Path 0..5 with pendants 6,9 at the ends and triangles {1,2,7}, {3,4,8}.

    Square-stable with a unique perfect matching that is forced to use the
    internal edge 2-3, and not Konig-Egervary (alpha 4 + mu 5 = 9 < 10).
    """
    return Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 7),
                      (3, 8), (0, 6), (1, 7), (4, 8), (5, 9)])


def c4_with_two_pendants() -> Graph:
    """C4 on {1,2,5,4} with pendants 0 on 1 and 3 on 2.

    Very well covered and bipartite but not square-stable, so the tree
    equivalences do not extend to bipartite graphs.
    """
    return Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])


def diamond_with_pendant() -> Graph:
    """K4 minus an edge on {0,1,2,4} plus the pendant 3 on 2.

    Square-stable with alpha = mu = 2 on five vertices, hence not
    Konig-Egervary: matching number equal to stability number does not force
    the Konig-Egervary property.
    """
    return Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4)])


#: Gallery keyed by slug, the form the tests consume.
GALLERY: dict[str, Graph] = {
    "paw": paw(),
    "triangle-with-tail": triangle_with_tail(),
    "c5-two-pendants": c5_with_two_pendants(),
    "k4-tail": k4_with_tail(),
    "clique-chain-11": clique_chain_11(),
    "c4-tails": c4_with_tails(),
    "braced-ladder": braced_ladder(),
    "fused-triangles": fused_triangles(),
    "twin-triangle-path": twin_triangle_path(),
    "c4-two-pendants": c4_with_two_pendants(),
    "diamond-pendant": diamond_with_pendant(),
    "net": net(),
    "sunlet-4": sunlet(4),
    "comb-4": comb(4),
}
