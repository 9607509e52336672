"""Immutable simple undirected graphs and purely structural queries.

Vertices are dense integer ids ``0 .. n-1``.  A :class:`Graph` is a value:
equality and hashing go through ``(n, edge set)``, and every derived object
(square, induced subgraph, component) is a fresh value, so graphs can be
shared freely across threads and cached without defensive copies.  Each graph
stores its adjacency bitmasks once; the structural queries here run on them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

Edge = tuple[int, int]
VertexSet = frozenset[int]


class GraphError(ValueError):
    """Raised when an edge list does not describe a simple graph."""


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1`` with set semantics.

    The adjacency bitmasks are the stored representation: bit ``u`` of
    ``_masks[v]`` is set exactly when ``uv`` is an edge; neighbor sets are
    derived from them.  ``_facts`` is a private memo for values
    computed from the graph (see :func:`memoized`); it never takes part in
    equality or hashing.
    """

    __slots__ = ("n", "edges", "_masks", "_facts")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        norm = set()
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            norm.add((u, v) if u < v else (v, u))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Graph is immutable")

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> VertexSet:
        return frozenset(_bits(self._masks[v]))

    def closed_neighborhood(self, v: int) -> VertexSet:
        return self.neighbors(v) | {v}

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


T = TypeVar("T")

_MISSING = object()


def memoized(g: Graph, key: str, compute: Callable[..., T], *args) -> T:
    """Value ``key`` of g, computed by ``compute(*args)`` once per Graph object.

    The value is kept in the graph's private memo, so it lives and dies with
    the graph.  A key names one computation from the definitions wherever it
    is used: ``"square"`` is :func:`square`, and a solver's name (``"alpha"``,
    ``"mu"``, ``"theta"``, ``"gamma"``, ``"ind_dom"``) holds its full
    ``(value, witness)`` result.  A computation that raises (a solver out of
    budget) stores nothing, so the next caller computes again.
    """
    memo = g._facts
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


def _bits(mask: int) -> Iterator[int]:
    """Set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(masks: tuple[int, ...], seed: int) -> int:
    """Mask of every vertex joined by a path to some vertex of ``seed``."""
    seen = frontier = seed
    while frontier:
        step = 0
        for v in _bits(frontier):
            step |= masks[v]
        frontier = step & ~seen
        seen |= frontier
    return seen


def build_graph(n: int, edge_list: Iterable[Edge]) -> Graph:
    """Construct a canonical :class:`Graph`; duplicate edges collapse silently."""
    return Graph(n, edge_list)


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighborhoods as bitmasks, the working representation of the solvers.

    These are the graph's stored masks, an immutable tuple, not a copy.
    """
    return g._masks


def distances(g: Graph) -> list[list[int | None]]:
    """All-pairs BFS distances in edges; ``None`` for unreachable pairs."""
    n = g.n
    masks = g._masks
    out = []
    for s in range(n):
        row: list[int | None] = [None] * n
        seen = frontier = 1 << s
        d = 0
        while frontier:
            step = 0
            for v in _bits(frontier):
                row[v] = d
                step |= masks[v]
            d += 1
            frontier = step & ~seen
            seen |= frontier
        out.append(row)
    return out


def square(g: Graph) -> Graph:
    """Second power: same vertices, plus an edge for every distance-2 pair."""
    masks = g._masks
    edges = []
    for v, m in enumerate(masks):
        closure = m
        for u in _bits(m):
            closure |= masks[u]
        w = v + 1
        above = closure >> w
        while above:
            if above & 1:
                edges.append((v, w))
            above >>= 1
            w += 1
    return Graph(g.n, edges)


def pendant_vertices(g: Graph) -> VertexSet:
    """Vertices of degree exactly one."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def pendant_edges(g: Graph) -> frozenset[Edge]:
    """Edges incident to at least one pendant vertex, normalized (u < v).

    For every connected graph other than a single edge this count equals the
    number of pendant vertices; in a two-vertex component both endpoints are
    pendant but contribute the same single edge.
    """
    out = set()
    for v, m in enumerate(g._masks):
        if m.bit_count() == 1:
            w = m.bit_length() - 1
            out.add((min(v, w), max(v, w)))
    return frozenset(out)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or ``None`` when the graph is acyclic.

    The acyclic case is an explicit sentinel rather than a large number so
    that threshold tests spell out how forests are meant to compare.
    """
    masks = g._masks
    best: int | None = None
    for u, v in g.edges:
        # shortest cycle through uv = dist(u, v) in G - uv, plus the edge;
        # BFS layers from u stop once they cannot beat the best cycle
        target = 1 << v
        seen = frontier = 1 << u
        d = 0
        while frontier and (best is None or d + 2 < best):
            step = 0
            for x in _bits(frontier):
                step |= masks[x]
            if d == 0:
                step &= ~target
            d += 1
            if step & target:
                best = d + 1
                break
            frontier = step & ~seen
            seen |= frontier
    return best


def girth_at_least(g: Graph, k: int) -> bool:
    """True when every cycle has length >= k; acyclic graphs qualify."""
    got = girth(g)
    return got is None or got >= k


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep`` plus the map from new ids to original ids."""
    old_ids = tuple(sorted(set(keep)))
    for v in old_ids:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
    pos = {old: new for new, old in enumerate(old_ids)}
    keep_mask = 0
    for v in old_ids:
        keep_mask |= 1 << v
    masks = g._masks
    edges = [(new, pos[u]) for new, v in enumerate(old_ids)
             for u in _bits(masks[v] & keep_mask) if u > v]
    return Graph(len(old_ids), edges), old_ids


def components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components as induced subgraphs with their relabeling maps.

    Components are ordered by their smallest original vertex, and each map
    sends new id ``i`` to ``map[i]`` in the parent graph.
    """
    out = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _reach(g._masks, rest & -rest)
        out.append(induced_subgraph(g, _bits(comp)))
        rest &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    """True for graphs with at most one vertex or a single component."""
    return g.n <= 1 or _reach(g._masks, 1) == (1 << g.n) - 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and len(g.edges) == g.n - 1


def delete_closed_neighborhood(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``V - N[v]`` with its relabeling map."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
    keep = ((1 << g.n) - 1) & ~(g._masks[v] | 1 << v)
    return induced_subgraph(g, _bits(keep))


def is_cycle_of_length(g: Graph, k: int) -> bool:
    """True iff g is a connected k-vertex graph in which every degree is 2."""
    return (g.n == k and k >= 3 and is_connected(g)
            and all(g.degree(v) == 2 for v in range(g.n)))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex ids of later arguments are shifted upward."""
    n = 0
    edges: list[Edge] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)
