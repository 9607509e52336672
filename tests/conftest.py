import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from squarestable.families import GraphFamily, generate
from squarestable.graphs import Graph, build_graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8, connected: bool = False) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        chosen = draw(st.sets(st.sampled_from(pairs)))
    else:
        chosen = set()
    g = build_graph(n, chosen)
    if connected and n > 1:
        # stitch components together along a random spanning chain
        from squarestable.graphs import components

        comps = components(g)
        extra = []
        prev = None
        for _, ids in comps:
            anchor = ids[0]
            if prev is not None:
                extra.append((prev, anchor))
            prev = anchor
        g = build_graph(n, set(g.edges) | set(extra))
    return g


def labeled_graphs(max_n: int):
    """Every labeled graph on 0..max_n vertices."""
    for n in range(max_n + 1):
        yield from generate(GraphFamily.exhaustive(n))
