import pytest
from hypothesis import given, settings

from conftest import graphs, labeled_graphs
from named_graphs import GALLERY, complete, path
from squarestable.codec import (Graph6Error, decode_graph6, encode_graph6,
                                parse_edge_list)
from squarestable.families import GraphFamily, generate
from squarestable.graphs import Graph


def test_reference_values():
    # cross-checked against an independent codec implementation
    assert encode_graph6(complete(1)) == "@"
    assert encode_graph6(path(4)) == "Ch"
    assert encode_graph6(Graph(0, [])) == "?"
    assert encode_graph6(Graph(4, [])) == "C?"
    assert decode_graph6("Ch") == path(4)
    assert decode_graph6("@") == complete(1)
    assert decode_graph6("C?") == Graph(4, [])


def test_encoding_matches_reference_implementation():
    networkx = pytest.importorskip("networkx")
    # every labeled graph on at most 6 vertices, then empty, complete and
    # random graphs at orders whose pair counts take every residue mod 6
    # that occurs (0, 1, 3, 4), and on both sides of the 62/63 order-field
    # boundary
    boundary = [g for n in [*range(7, 19), *range(60, 67)]
                for g in (Graph(n, []), complete(n),
                          *generate(GraphFamily.gnp(n, 0.5, 3, seed=n)))]
    for g in [*GALLERY.values(), *labeled_graphs(6), *boundary]:
        ref = networkx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges)
        want = networkx.to_graph6_bytes(ref, header=False).decode().strip()
        assert encode_graph6(g) == want


def test_large_order_round_trip():
    g = Graph(70, [(0, 69), (1, 2), (33, 44)])
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s) == g


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        decode_graph6("")
    assert err.value.offset == 0

    with pytest.raises(Graph6Error, match="alphabet"):
        decode_graph6("C" + chr(30))

    with pytest.raises(Graph6Error, match="too short"):
        decode_graph6("D")

    with pytest.raises(Graph6Error, match="trailing") as err:
        decode_graph6("Chh")
    assert err.value.offset == 2

    with pytest.raises(Graph6Error, match="padding"):
        # P2 needs a single pair bit; set a padding bit below it
        decode_graph6("A" + chr(63 + 0b100001))


def test_parse_edge_list_examples():
    assert parse_edge_list("4 3\n0 1\n1 2\n2 3") == path(4)
    assert parse_edge_list("1 0") == complete(1)
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("3 1\n0 3")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("not a header")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("3 1\n0 1\nleftover")
    with pytest.raises(ValueError, match="ended early"):
        parse_edge_list("3 2\n0 1")
    # orders are capped at the largest 4-byte graph6 order
    assert parse_edge_list("258047 1\n0 258046").n == 258047
    for head in ("258048 0", "-1 0"):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list(head)
    with pytest.raises(ValueError, match="line 1: negative edge count"):
        parse_edge_list("3 -2\n0 1\n")
    # the graphs are simple: a repeated edge, in either orientation
    with pytest.raises(ValueError, match="line 3: repeated edge"):
        parse_edge_list("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="line 4: repeated edge"):
        parse_edge_list("3 3\n0 1\n1 2\n0 1\n")


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=8))
def test_round_trip_small(g):
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=60, max_n=66))
def test_round_trip_across_order_boundary(g):
    assert decode_graph6(encode_graph6(g)) == g


def test_eight_byte_order_header():
    from squarestable.codec import _decode_order

    n = 258048
    head = "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    assert _decode_order(head + "???") == (n, 8)
    with pytest.raises(Graph6Error, match="truncated"):
        decode_graph6("~~??")
    with pytest.raises(Graph6Error, match="truncated"):
        decode_graph6("~?")
