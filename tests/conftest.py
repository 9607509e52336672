import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from squarestable.families import GraphFamily, generate
from squarestable.graphs import Graph


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8, connected: bool = False) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        chosen = draw(st.sets(st.sampled_from(pairs)))
    else:
        chosen = set()
    g = Graph(n, chosen)
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
        g = Graph(n, set(g.edges) | set(extra))
    return g


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Bind ``replacement`` wherever a squarestable module binds ``original``.

    The per-graph memo is keyed by the computing function, so a patch that
    missed one namespace would give that namespace its own memo entry and
    hide a second solve from the count.
    """
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "squarestable"
                                  or name.startswith("squarestable.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                hits += 1
    assert hits, f"{original!r} is bound in no squarestable module"


def labeled_graphs(max_n: int):
    """Every labeled graph on 0..max_n vertices."""
    for n in range(max_n + 1):
        yield from generate(GraphFamily.exhaustive(n))


def labeled_edge_lists(max_n: int):
    """``(n, edge list)`` of every labeled graph on 0..max_n vertices, in the
    order of :func:`labeled_graphs`: bit i of the family's pair bitmask picks
    the i-th pair of ``combinations(range(n), 2)``."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield n, [pair for i, pair in enumerate(pairs) if mask >> i & 1]
