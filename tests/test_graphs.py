import copy
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs, labeled_edge_lists, labeled_graphs
from oracles import floyd_warshall_oracle, square_edges_oracle
from squarestable.codec import decode_graph6, encode_graph6
from squarestable.graphs import (Graph, GraphError, adjacency_masks,
                                 components, delete_closed_neighborhood,
                                 disjoint_union, distances, girth,
                                 girth_at_least, is_connected,
                                 is_cycle_of_length, is_tree, memoized,
                                 pendant_edges, square)
from squarestable.named_graphs import (complete, complete_bipartite, cycle,
                                       empty_graph, paw, path)


def test_graph_normalizes():
    g = Graph(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert g == Graph(4, [(1, 0), (3, 2)])


def test_memoized_computes_once_per_graph_object():
    calls = []

    def order(g):
        calls.append(g)
        return g.n

    g = path(4)
    assert memoized(g, order) == memoized(g, order) == 4
    assert len(calls) == 1
    assert memoized(path(4), order) == 4  # an equal graph has its own memo
    assert len(calls) == 2


@pytest.mark.parametrize("clone", [
    lambda g: pickle.loads(pickle.dumps(g)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_graph_round_trips_without_its_memo(clone):
    calls = []

    def order(g):
        calls.append(g)
        return g.n

    for g in (Graph(0), path(3), paw(), disjoint_union(cycle(5), empty_graph(2))):
        memoized(g, square)
        memoized(g, order)
        twin = clone(g)
        assert twin == g and hash(twin) == hash(g)
        assert twin.edges == g.edges
        # the clone starts with an empty memo: it computes again
        assert memoized(twin, order) == g.n
        assert calls[-1] is twin


def test_graph_duplicate_edges_collapse():
    g = Graph(4, [(0, 1), (0, 1)])
    assert len(g.edges) == 1
    assert g.degree(2) == g.degree(3) == 0


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop at vertex 2"):
        Graph(3, [(2, 2)])


def test_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(0, [(0, 1)])


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_distances_on_path_and_cycle():
    d = distances(path(4))
    assert d[0][3] == 3 and d[0][0] == 0 and d[1][2] == 1
    assert distances(cycle(7))[0][3] == 3
    d2 = distances(empty_graph(2))
    assert d2[0][1] is None


def test_square_examples():
    assert square(paw()) == complete(4)
    assert square(complete(5)) == complete(5)
    assert square(path(4)).edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)})


def test_pendant_edges_counts_k2_once():
    assert pendant_edges(path(2)) == {(0, 1)}
    assert pendant_edges(path(4)) == {(0, 1), (2, 3)}


def test_girth_examples():
    assert girth(cycle(7)) == 7
    assert girth(path(9)) is None
    assert girth(complete(4)) == 3
    assert girth(complete_bipartite(2, 3)) == 4
    assert girth_at_least(path(9), 6)
    assert girth_at_least(cycle(6), 6)
    assert not girth_at_least(cycle(5), 6)


def test_components_shapes():
    assert len(components(path(4))) == 1
    two = components(disjoint_union(path(2), path(2)))
    assert [c.n for c, _ in two] == [2, 2]
    assert [ids for _, ids in two] == [(0, 1), (2, 3)]
    assert len(components(empty_graph(3))) == 3


def test_components_relabeling_recovers_edges():
    g = Graph(6, [(5, 3), (3, 1), (0, 2)])
    for comp, ids in components(g):
        for u, v in comp.edges:
            assert g.has_edge(ids[u], ids[v])


def test_delete_closed_neighborhood_examples():
    h, ids = delete_closed_neighborhood(cycle(4), 0)
    assert h == complete(1) and ids == (2,)
    h, _ = delete_closed_neighborhood(complete(4), 0)
    assert h.n == 0
    h, ids = delete_closed_neighborhood(path(4), 0)
    assert h == path(2) and ids == (2, 3)
    with pytest.raises(GraphError):
        delete_closed_neighborhood(path(4), 7)


def test_is_cycle_of_length():
    assert is_cycle_of_length(cycle(7), 7)
    assert not is_cycle_of_length(path(7), 7)
    assert not is_cycle_of_length(disjoint_union(cycle(4), cycle(3)), 7)
    assert not is_cycle_of_length(cycle(6), 7)


def test_is_tree_and_connected():
    assert is_tree(path(5)) and is_connected(path(5))
    assert not is_tree(cycle(5))
    assert not is_tree(disjoint_union(path(2), path(2)))
    assert is_connected(empty_graph(0)) and is_connected(empty_graph(1))


@settings(max_examples=150)
@given(graphs(max_n=7))
def test_distances_match_floyd_warshall(g):
    want = floyd_warshall_oracle(g)
    got = distances(g)
    for i in range(g.n):
        for j in range(g.n):
            expected = None if want[i][j] == float("inf") else want[i][j]
            assert got[i][j] == expected


@settings(max_examples=150)
@given(graphs(max_n=8))
def test_square_matches_distance_closure(g):
    assert square(g).edges == square_edges_oracle(g)
    assert g.edges <= square(g).edges


@settings(max_examples=100)
@given(graphs(max_n=8))
def test_square_is_monotone_under_iteration(g):
    sq = square(g)
    assert sq.edges <= square(sq).edges


@settings(max_examples=100)
@given(graphs(max_n=8))
def test_square_preserves_component_partition(g):
    left = [ids for _, ids in components(g)]
    right = [ids for _, ids in components(square(g))]
    assert left == right


@settings(max_examples=150)
@given(graphs(max_n=8))
def test_adjacent_pendants_only_in_k2_components(g):
    # every pendant vertex lies on one of the edges; an edge has two pendant
    # ends exactly when it is a whole component, so it is counted once
    edges = pendant_edges(g)
    pend = {v for v in range(g.n) if g.degree(v) == 1}
    assert all(u < v and g.has_edge(u, v) for u, v in edges)
    assert {w for e in edges for w in e if w in pend} == pend
    k2 = sum(1 for c, _ in components(g) if c.n == 2)
    assert len(edges) == len(pend) - k2


def test_mask_routes_match_slow_routes_exhaustively():
    # every labeled graph on at most 6 vertices: each mask-based query
    # against a route built from the family's pair bitmask or the distance
    # matrix
    for g, (n, edge_list) in zip(labeled_graphs(6), labeled_edge_lists(6), strict=True):
        assert g.n == n
        masks = [0] * g.n
        nbrs = [set() for _ in range(g.n)]
        for u, v in edge_list:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert adjacency_masks(g) == tuple(masks)
        assert [g.neighbors(v) for v in range(n)] == nbrs
        assert [g.degree(v) for v in range(n)] == [len(a) for a in nbrs]

        comps = components(g)
        assert is_connected(g) == (len(comps) <= 1)

        d = distances(g)
        assert square(g).edges == {(u, v) for u, v in combinations(range(g.n), 2)
                                   if d[u][v] is not None and d[u][v] <= 2}

        classes = sorted({tuple(v for v in range(g.n) if d[s][v] is not None)
                          for s in range(g.n)})
        assert [ids for _, ids in comps] == classes
        for comp, ids in comps:
            pos = {old: new for new, old in enumerate(ids)}
            assert comp == Graph(len(ids), [(pos[u], pos[v]) for u, v in edge_list
                                            if u in pos and v in pos])


def _relabel(edge_list, ids):
    pos = {old: new for new, old in enumerate(ids)}
    return [(pos[u], pos[v]) for u, v in edge_list if u in pos and v in pos]


def _assert_same_graph(got, n, edge_list):
    want = Graph(n, edge_list)
    assert got == want and hash(got) == hash(want)
    pairs = {(min(u, v), max(u, v)) for u, v in edge_list}
    assert got.edges == want.edges == pairs
    assert not got.has_edge(-1, 0) and not got.has_edge(0, n)
    for u in range(n):
        assert not got.has_edge(u, u)
        for v in range(n):
            assert got.has_edge(u, v) == ((min(u, v), max(u, v)) in pairs)


def test_mask_producers_equal_edge_list_graphs_exhaustively():
    # every labeled graph on at most 5 vertices: each producer that builds
    # its result from masks against Graph(n, edges) on an edge list made
    # here from the pair bitmask, never from the derived ``edges``
    for n, edge_list in labeled_edge_lists(5):
        g = Graph(n, edge_list)
        _assert_same_graph(g, n, edge_list)
        closed = [{v} for v in range(n)]
        for u, v in edge_list:
            closed[u].add(v)
            closed[v].add(u)

        _assert_same_graph(decode_graph6(encode_graph6(g)), n, edge_list)
        _assert_same_graph(disjoint_union(g, g), 2 * n,
                           edge_list + [(u + n, v + n) for u, v in edge_list])
        # distance at most 2 exactly when the closed neighborhoods meet
        _assert_same_graph(square(g), n, [(u, v) for u, v in combinations(range(n), 2)
                                          if closed[u] & closed[v]])

        classes: list[tuple[int, ...]] = []
        for s in range(n):
            if any(s in c for c in classes):
                continue
            reach, frontier = {s}, [s]
            while frontier:
                new = closed[frontier.pop()] - reach
                reach |= new
                frontier.extend(new)
            classes.append(tuple(sorted(reach)))
        comps = components(g)
        assert [ids for _, ids in comps] == classes
        for comp, ids in comps:
            _assert_same_graph(comp, len(ids), _relabel(edge_list, ids))

        for v in range(n):
            ids = tuple(u for u in range(n) if u not in closed[v])
            h, got_ids = delete_closed_neighborhood(g, v)
            assert got_ids == ids
            _assert_same_graph(h, len(ids), _relabel(edge_list, ids))


def test_distances_match_floyd_warshall_exhaustively():
    for g in labeled_graphs(5):
        want = floyd_warshall_oracle(g)
        got = distances(g)
        assert got == [[None if x == float("inf") else x for x in row] for row in want]


def test_girth_matches_networkx_exhaustively():
    networkx = pytest.importorskip("networkx")
    for g in labeled_graphs(6):
        ref = networkx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges)
        want = networkx.girth(ref)
        assert girth(g) == (None if want == float("inf") else want)
