"""Immutable simple undirected graphs and purely structural queries.

Vertices are dense integer ids ``0 .. n-1``.  A :class:`Graph` is a value:
equality and hashing go through ``(n, adjacency masks)``, and every derived
object (square, induced subgraph, component) is a fresh value built from masks,
so graphs can be shared freely across threads and cached without defensive
copies.  The masks are the only stored representation; queries run on them,
and the distance queries on one breadth-first layer walk, :func:`_layers`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

Edge = tuple[int, int]
VertexSet = frozenset[int]


class GraphError(ValueError):
    """Raised when an edge list does not describe a simple graph."""


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1`` with set semantics.

    The adjacency bitmasks are the only stored representation: bit ``u`` of
    ``_masks[v]`` is set exactly when ``uv`` is an edge; neighbor sets and the
    edge set are derived from them.  ``_facts`` is a private memo for values
    computed from the graph (see :func:`memoized`); it never takes part in
    equality or hashing.
    """

    __slots__ = ("n", "_masks", "_facts")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._store(tuple(masks))

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> Graph:
        """Graph with these masks; the caller ensures they are a simple graph's."""
        g = object.__new__(cls)
        g._store(tuple(masks))
        return g

    def _store(self, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", len(masks))
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the masks; the memo is not carried
        return Graph._from_masks, (self._masks,)

    @property
    def edges(self) -> frozenset[Edge]:
        """Edge set, each edge normalized to ``(u, v)`` with ``u < v``."""
        return frozenset((u, v) for u, m in enumerate(self._masks)
                         for v in _bits(m >> u + 1 << u + 1))

    def neighbors(self, v: int) -> VertexSet:
        return frozenset(_bits(self._masks[v]))

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``uv`` is an edge; ids outside ``0..n-1`` have none."""
        return 0 <= u < self.n and 0 <= v < self.n and self._masks[u] >> v & 1 == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self._masks == other._masks)

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


T = TypeVar("T")

_MISSING = object()


def memoized(g: Graph, compute: Callable[..., T], *args) -> T:
    """``compute(g, *args)``, computed once per Graph object.

    The value is kept in the graph's private memo under ``compute`` itself,
    so it lives and dies with the graph, and an entry can only ever hold the
    result of the function that produced it.  ``args`` (a solver budget,
    say) do not take part in the key: every memoized value is exact.  A
    computation that raises (a solver out of budget) stores nothing, so the
    next caller computes again.
    """
    memo = g._facts
    value = memo.get(compute, _MISSING)
    if value is _MISSING:
        value = memo[compute] = compute(g, *args)
    return value


def _bits(mask: int) -> Iterator[int]:
    """Set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layers(masks: tuple[int, ...], seed: int, within: int = -1) -> Iterator[int]:
    """Breadth-first layers from ``seed`` inside ``within``, as masks, nearest first."""
    seen = layer = rest = seed
    while layer:
        yield layer
        step = 0
        while rest:  # inline, not _bits: every walk runs this loop
            low = rest & -rest
            step |= masks[low.bit_length() - 1]
            rest ^= low
        layer = rest = step & within & ~seen
        seen |= layer


def _reach(masks: tuple[int, ...], seed: int) -> int:
    """Mask of every vertex joined by a path to some vertex of ``seed``."""
    return sum(_layers(masks, seed))  # the layers are disjoint


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighborhoods as bitmasks, the working representation of the solvers.

    These are the graph's stored masks, an immutable tuple, not a copy.
    """
    return g._masks


def distances(g: Graph) -> list[list[int | None]]:
    """All-pairs BFS distances in edges; ``None`` for unreachable pairs."""
    rows: list[list[int | None]] = [[None] * g.n for _ in range(g.n)]
    for s, row in enumerate(rows):
        for d, layer in enumerate(_layers(g._masks, 1 << s)):
            for v in _bits(layer):
                row[v] = d
    return rows


def square(g: Graph) -> Graph:
    """Second power: same vertices, plus an edge for every distance-2 pair."""
    masks = g._masks
    out = []
    for v, m in enumerate(masks):
        closure = m
        for u in _bits(m):
            closure |= masks[u]
        out.append(closure & ~(1 << v))
    return Graph._from_masks(out)


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
    """Length of a shortest cycle, or ``None`` when the graph is acyclic (a
    sentinel, so that threshold tests spell out how forests compare).

    Itai and Rodeh's test (SIAM J. Comput. 7(4), 1978) on the breadth-first
    layers from a root: a vertex of layer d with two neighbors in layer d - 1
    closes a cycle of at most 2d edges, an edge inside it one of at most
    2d + 1, and a shortest cycle through the root is found exactly.  A vertex
    of degree at most one lies on no cycle, nor a walked root on one shorter
    than its walk found; peeling both keeps girth near-linear on sparse input.
    """
    masks = g._masks
    live = (1 << g.n) - 1
    doomed = [v for v, m in enumerate(masks) if m.bit_count() <= 1]
    best: int | None = None
    while True:
        while doomed:  # peel to the 2-core; each vertex is queued once, at degree <= 1
            v = doomed.pop()
            live ^= 1 << v
            for u in _bits(masks[v] & live):
                if (masks[u] & live).bit_count() == 1:
                    doomed.append(u)
        if not live:
            return best
        root = live & -live
        above = 0  # the layer before
        for d, layer in enumerate(_layers(masks, root, live)):
            for v in _bits(layer):
                if (masks[v] & above).bit_count() > 1:
                    best = 2 * d
                    break
                if masks[v] & layer:
                    best = 2 * d + 1
            if best is not None and 2 * d + 2 >= best:
                break  # the next layer closes no shorter cycle
            above = layer
        doomed.append(root.bit_length() - 1)


def girth_at_least(g: Graph, k: int) -> bool:
    """True when every cycle has length >= k; acyclic graphs qualify."""
    got = girth(g)
    return got is None or got >= k


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep`` plus the map from new ids to original ids."""
    old_ids = tuple(sorted(set(keep)))
    keep_mask = 0
    for v in old_ids:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
        keep_mask |= 1 << v
    bit = {old: 1 << new for new, old in enumerate(old_ids)}
    return Graph._from_masks(sum(bit[u] for u in _bits(g._masks[v] & keep_mask))
                             for v in old_ids), old_ids


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
    return (g.n >= 1 and is_connected(g)
            and sum(m.bit_count() for m in g._masks) == 2 * (g.n - 1))


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

