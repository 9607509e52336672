import pytest

from named_graphs import path
from squarestable.codec import encode_graph6
from squarestable.families import (GraphFamily, generate, parse_family_spec,
                                   tree_from_pruefer)
from squarestable.graphs import is_connected, is_tree


def test_exhaustive_counts():
    assert sum(1 for _ in generate(GraphFamily.exhaustive(3))) == 8
    assert sum(1 for _ in generate(GraphFamily.exhaustive(4))) == 64
    assert sum(1 for _ in generate(GraphFamily.exhaustive(5))) == 1024


def test_exhaustive_connected_count_n4():
    fam = GraphFamily.exhaustive(4, connected=True)
    assert sum(1 for _ in generate(fam)) == 38


def test_exhaustive_no_duplicates():
    seen = {encode_graph6(g) for g in generate(GraphFamily.exhaustive(4))}
    assert len(seen) == 64


def test_gnp_is_reproducible():
    fam = GraphFamily.gnp(8, 0.4, 25, seed=99)
    first = [encode_graph6(g) for g in generate(fam)]
    second = [encode_graph6(g) for g in generate(fam)]
    assert first == second
    assert len(first) == 25
    different = [encode_graph6(g) for g in generate(GraphFamily.gnp(8, 0.4, 25, seed=100))]
    assert first != different


def test_random_trees_are_trees():
    fam = GraphFamily.random_trees(5, 10, seed=7)
    got = list(generate(fam))
    assert len(got) == 10
    for t in got:
        assert t.n == 5 and len(t.edges) == 4 and is_connected(t)
    assert [encode_graph6(t) for t in generate(fam)] == [encode_graph6(t) for t in got]


def test_all_trees_counts_follow_cayley():
    for n, want in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)]:
        got = list(generate(GraphFamily.all_trees(n)))
        assert len(got) == want
        assert all(is_tree(t) for t in got)
    # labeled trees are pairwise distinct
    seen = {encode_graph6(t) for t in generate(GraphFamily.all_trees(4))}
    assert len(seen) == 16


def test_tree_from_pruefer_basics():
    assert tree_from_pruefer((), 2) == path(2)
    assert tree_from_pruefer((), 1).n == 1
    star_seq = tree_from_pruefer((0, 0, 0), 5)
    assert star_seq.degree(0) == 4
    with pytest.raises(ValueError):
        tree_from_pruefer((1, 2), 3)


def test_graph6_family_reads_lines():
    fam = GraphFamily.graph6_lines(["Ch", "", ">>graph6<<Ch"], label="unit")
    got = list(generate(fam))
    assert got == [path(4), path(4)]
    assert fam.describe() == "graph6:unit"


def test_family_validation_errors():
    with pytest.raises(ValueError, match="probability"):
        generate(GraphFamily.gnp(4, 1.5, 3, seed=0)).__next__()
    with pytest.raises(ValueError):
        list(generate(GraphFamily(kind="nonsense")))
    with pytest.raises(ValueError):
        list(generate(GraphFamily.random_trees(0, 3, seed=1)))


def test_parse_family_spec():
    fam = parse_family_spec("exhaustive:5", connected=True)
    assert fam.kind == "exhaustive" and fam.n == 5 and fam.connected_only
    fam = parse_family_spec("gnp:8:0.5:100", seed=42)
    assert (fam.n, fam.p, fam.count, fam.seed) == (8, 0.5, 100, 42)
    fam = parse_family_spec("trees:10:50", seed=3)
    assert (fam.n, fam.count, fam.seed) == (10, 50, 3)
    assert parse_family_spec("trees-all:7").n == 7
    with pytest.raises(ValueError):
        parse_family_spec("exhaustive:bogus")
    with pytest.raises(ValueError):
        parse_family_spec("mystery:3")


def test_describe_strings_are_stable():
    assert GraphFamily.exhaustive(5).describe() == "exhaustive:5"
    assert GraphFamily.exhaustive(5, connected=True).describe() == "exhaustive:5+connected"
    assert (GraphFamily.gnp(8, 0.2, 10, 7).describe()
            == "gnp:n=8,p=0.2,count=10,seed=7")
    assert GraphFamily.random_trees(9, 5, 1).describe() == "trees:n=9,count=5,seed=1"
