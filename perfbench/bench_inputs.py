"""Seeded benchmark inputs, built without the package under test.

The graphs come from the standard library's ``random`` and the builders
below, and are written with this file's own graph6 writer, so a change to
``squarestable.families`` or ``squarestable.codec`` cannot change what the
benchmark feeds the program.  Every input is a *chunk*: a fixed-size graph6
file whose graphs depend only on its workload and chunk index.  A run's
``--seed`` shuffles the order of the chunks and of the graphs inside each
chunk.  Outputs do not depend on that order, so the reference recorded for
each chunk covers every seed, and every run of a workload measures the same
graphs: seed-to-seed spread then comes from the machine, not from the draw.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

Edges = list[tuple[int, int]]

#: analyze-corpus: G(n,p), random labeled trees and coronas of G(k, 0.3).
#: Coronas are Konig-Egervary with a pendant perfect matching, so they take
#: ``recognize``'s shortcut path.
CORPUS_GNP = [(n, p) for n in (18, 21, 24) for p in (0.2, 0.5, 0.8)]
CORPUS_TREES = (20, 25, 28)
CORPUS_CORONAS = (8, 9, 10)
CORPUS_PER_CELL = 25
CORPUS_CHUNKS = 3


def gnp(rng: random.Random, n: int, p: float) -> Edges:
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def pruefer_tree(rng: random.Random, n: int) -> Edges:
    """Uniform random labeled tree on n >= 2 vertices via a Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def corona(rng: random.Random, k: int, p: float = 0.3) -> Edges:
    """G(k, p) with one pendant vertex hung on each vertex, randomly relabeled."""
    base = gnp(rng, k, p) + [(v, k + v) for v in range(k)]
    perm = list(range(2 * k))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in base]


def to_graph6(n: int, edges: Edges) -> str:
    """graph6 for n <= 62: order byte, then the upper triangle column by column."""
    if not 0 <= n <= 62:
        raise ValueError(f"order {n} outside the one-byte graph6 range")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (row, col) in adj else 0
            for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def from_graph6(line: str) -> tuple[int, Edges]:
    """Inverse of :func:`to_graph6`; used to re-validate the program's witnesses."""
    n = ord(line[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 order byte {line[0]!r}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    if len(line) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 line of wrong length for order {n}")
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def _corpus() -> list[str]:
    """25 graphs of every corpus cell, shuffled."""
    rng = random.Random("analyze-corpus:0")
    lines = []
    for n, p in CORPUS_GNP:
        lines += [to_graph6(n, gnp(rng, n, p)) for _ in range(CORPUS_PER_CELL)]
    for n in CORPUS_TREES:
        lines += [to_graph6(n, pruefer_tree(rng, n)) for _ in range(CORPUS_PER_CELL)]
    for k in CORPUS_CORONAS:
        lines += [to_graph6(2 * k, corona(rng, k)) for _ in range(CORPUS_PER_CELL)]
    rng.shuffle(lines)
    return lines


def corpus_chunk(index: int) -> list[str]:
    """One third of the corpus, so a command takes about two seconds."""
    corpus = _corpus()
    size = len(corpus) // CORPUS_CHUNKS
    return corpus[index * size:(index + 1) * size]


def chunk_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def multiset_digest(lines: list[str]) -> str:
    """Digest of a chunk's graphs, independent of their order."""
    return hashlib.sha256(chunk_text(sorted(lines)).encode("ascii")).hexdigest()


def chunk_order(seed: int, chunks: int) -> list[int]:
    """The order in which a run with this seed uses a workload's chunks."""
    order = list(range(chunks))
    random.Random(seed).shuffle(order)
    return order


def seeded_lines(lines: list[str], seed: int, index: int) -> list[str]:
    """Chunk ``index`` in the order a run with this seed feeds it."""
    out = list(lines)
    random.Random(f"{seed}/{index}").shuffle(out)
    return out
