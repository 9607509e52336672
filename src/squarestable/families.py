"""Deterministic graph families feeding the claim harness and the CLI.

Every family is reproducible: exhaustive kinds enumerate in a fixed order and
the random kinds draw from a private Mersenne generator seeded explicitly, so
identical specs always yield identical streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator

from .codec import _MAX_ORDER, decode_graph6, graph6_strings
from .graphs import Graph, is_connected


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a Pruefer sequence over 0..n-1 into its labeled tree."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence length must be {max(n - 2, 0)} for n={n}")
    if n == 1:
        return Graph(1, [])
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


@dataclass(frozen=True)
class GraphFamily:
    """A reproducible stream of graphs.

    Kinds: ``exhaustive`` (all labeled graphs on n vertices), ``gnp``
    (Erdos-Renyi with per-pair probability p), ``trees`` (random labeled
    trees via Pruefer sequences), ``trees-all`` (every labeled tree on n
    vertices), ``graph6`` (an explicit list of encoded graphs).
    """

    kind: str
    n: int = 0
    p: float = 0.0
    count: int = 0
    seed: int = 0
    source: tuple[str, ...] = ()
    label: str = ""
    connected_only: bool = False

    @staticmethod
    def exhaustive(n: int, connected: bool = False) -> "GraphFamily":
        return GraphFamily(kind="exhaustive", n=n, connected_only=connected)

    @staticmethod
    def gnp(n: int, p: float, count: int, seed: int,
            connected: bool = False) -> "GraphFamily":
        return GraphFamily(kind="gnp", n=n, p=p, count=count, seed=seed,
                           connected_only=connected)

    @staticmethod
    def random_trees(n: int, count: int, seed: int) -> "GraphFamily":
        return GraphFamily(kind="trees", n=n, count=count, seed=seed)

    @staticmethod
    def all_trees(n: int) -> "GraphFamily":
        return GraphFamily(kind="trees-all", n=n)

    @staticmethod
    def graph6_lines(lines: Iterable[str], label: str = "inline",
                     connected: bool = False) -> "GraphFamily":
        return GraphFamily(kind="graph6", source=tuple(lines), label=label,
                           connected_only=connected)

    def describe(self) -> str:
        base = {
            "exhaustive": f"exhaustive:{self.n}",
            "gnp": f"gnp:n={self.n},p={self.p},count={self.count},seed={self.seed}",
            "trees": f"trees:n={self.n},count={self.count},seed={self.seed}",
            "trees-all": f"trees-all:{self.n}",
            "graph6": f"graph6:{self.label}",
        }[self.kind]
        return base + ("+connected" if self.connected_only else "")

    def validate(self) -> None:
        if self.kind not in ("exhaustive", "gnp", "trees", "trees-all", "graph6"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind != "graph6" and not 0 <= self.n <= _MAX_ORDER:
            raise ValueError(f"vertex count {self.n} outside 0..{_MAX_ORDER}")
        if self.kind == "gnp" and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability {self.p} outside [0, 1]")
        if self.kind in ("gnp", "trees") and self.count < 0:
            raise ValueError("count must be non-negative")
        if self.kind in ("trees", "trees-all") and self.n < 1:
            raise ValueError("trees need at least one vertex")


def generate(family: GraphFamily) -> Iterator[Graph]:
    """Stream the family's graphs in their canonical order."""
    family.validate()
    stream = _raw_stream(family)
    if family.connected_only:
        return (g for g in stream if is_connected(g))
    return stream


def _raw_stream(family: GraphFamily) -> Iterator[Graph]:
    if family.kind == "exhaustive":
        # bit i of the mask is the i-th pair; pairs are listed only as far as
        # the masks reach, so a large n costs nothing before its first graph
        pairs: list[tuple[int, int]] = []
        more = combinations(range(family.n), 2)
        mask = 0
        while True:
            yield Graph(
                family.n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
            mask += 1
            if mask >> len(pairs):
                pair = next(more, None)
                if pair is None:
                    return
                pairs.append(pair)
    elif family.kind == "gnp":
        # one draw per pair, in pair order; no pair list is kept
        rng = random.Random(family.seed)
        for _ in range(family.count):
            masks = [0] * family.n
            for u, v in combinations(range(family.n), 2):
                if rng.random() < family.p:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            yield Graph._from_masks(masks)
    elif family.kind == "trees":
        rng = random.Random(family.seed)
        for _ in range(family.count):
            seq = tuple(rng.randrange(family.n) for _ in range(max(family.n - 2, 0)))
            yield tree_from_pruefer(seq, family.n)
    elif family.kind == "trees-all":
        if family.n <= 2:
            yield tree_from_pruefer((), family.n)
        else:
            for seq in product(range(family.n), repeat=family.n - 2):
                yield tree_from_pruefer(seq, family.n)
    elif family.kind == "graph6":
        for line in graph6_strings(family.source):
            yield decode_graph6(line)


def parse_family_spec(spec: str, seed: int = 0, connected: bool = False) -> GraphFamily:
    """Parse the command-line family syntax.

    Forms: ``exhaustive:N``, ``gnp:N:P:COUNT``, ``trees:N:COUNT``,
    ``trees-all:N``, ``graph6:PATH`` (``-`` for stdin is resolved by the CLI).
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "exhaustive":
            return GraphFamily.exhaustive(int(rest), connected=connected)
        if kind == "gnp":
            n, p, count = rest.split(":")
            return GraphFamily.gnp(int(n), float(p), int(count), seed,
                                   connected=connected)
        if kind == "trees":
            n, count = rest.split(":")
            return GraphFamily.random_trees(int(n), int(count), seed)
        if kind == "trees-all":
            return GraphFamily.all_trees(int(rest))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad family spec {spec!r}: {exc}") from None
    if kind == "graph6":
        raise ValueError("graph6 families are materialized by the caller")
    raise ValueError(f"bad family spec {spec!r}: unknown kind {kind!r}")
