"""graph6 codec and the plain edge-list reader.

The graph6 form is the header-free printable encoding used by the common
graph-corpus tools: one order field (one byte below 63 vertices, four bytes
up to 258047, eight above), then the upper triangle of the adjacency matrix
read column by column, packed six bits per byte with an offset of 63.
"""

from __future__ import annotations

import binascii
from typing import Iterable, Iterator

from .graphs import Graph, _bits, adjacency_masks

_MAX_N = (1 << 36) - 1
#: Order cap of the edge-list reader and the generated families (graph6's
#: 4-byte maximum): no unbounded allocation.
_MAX_ORDER = 258047
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def graph6_strings(lines: Iterable[str]) -> Iterator[str]:
    """The graph6 strings of a graph6 file's lines: surrounding whitespace
    and any ``>>graph6<<`` header dropped, blank lines skipped."""
    for line in lines:
        line = line.strip()
        if line:
            yield line.removeprefix(">>graph6<<")


def _check_chars(s: str, start: int = 0) -> None:
    for i, ch in enumerate(s[start:], start):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"character {ch!r} outside the graph6 alphabet", i)


def encode_graph6(g: Graph) -> str:
    """Bit-exact graph6 string for g."""
    n = g.n
    if n > _MAX_N:
        raise Graph6Error(f"order {n} exceeds the graph6 maximum {_MAX_N}")
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    # column col lists rows 0..col-1, row 0 first: the low col bits of col's
    # adjacency mask reversed (the sentinel bit 1 << col keeps leading zeros)
    masks = adjacency_masks(g)
    bits = "".join([bin(masks[col] & ((1 << col) - 1) | 1 << col)[:2:-1]
                    for col in range(1, n)])
    # base64 packs whole 24-bit groups six bits per character, in linear
    # time; map its alphabet to chr(63..126) and drop the characters past
    # the last partial group of six
    size = len(bits) + -len(bits) % 24
    data = int(bits.ljust(size, "0") or "0", 2).to_bytes(size // 8, "big")
    body = binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_GRAPH6)
    return head + body[:(len(bits) + 5) // 6].decode("ascii")


def _decode_order(s: str) -> tuple[int, int]:
    """Return (n, index of the first adjacency byte)."""
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] == "~":
        raw, start = s[2:8], 8
        if len(raw) < 6:
            raise Graph6Error("truncated 8-byte order field", len(s))
    else:
        raw, start = s[1:4], 4
        if len(raw) < 3:
            raise Graph6Error("truncated 4-byte order field", len(s))
    n = 0
    for ch in raw:
        n = (n << 6) | (ord(ch) - 63)
    return n, start


def decode_graph6(s: str) -> Graph:
    """Inverse of :func:`encode_graph6` with precise error positions."""
    _check_chars(s)
    n, start = _decode_order(s)
    pair_count = n * (n - 1) // 2
    need = (pair_count + 5) // 6
    body = s[start:]
    if len(body) < need:
        raise Graph6Error(
            f"adjacency section too short: expected {need} bytes, got {len(body)}",
            len(s))
    if len(body) > need:
        raise Graph6Error("trailing data after the adjacency section", start + need)
    # padding bits beyond the triangle must be zero
    if pair_count and ord(body[-1]) - 63 & ((1 << (-pair_count % 6)) - 1):
        raise Graph6Error("nonzero padding bits", start + need - 1)
    # column col, reversed, is the low col bits of col's adjacency mask
    bits = "".join([format(ord(ch) - 63, "06b") for ch in body])
    masks = [0] * n
    for col in range(1, n):
        start = col * (col - 1) // 2
        masks[col] = low = int(bits[start:start + col][::-1], 2)
        for row in _bits(low):
            masks[row] |= 1 << col
    return Graph._from_masks(masks)


def parse_edge_list(text: str) -> Graph:
    """Parse the two-line-header edge-list format: ``n m`` then m ``u v`` lines.

    The graphs are simple: a loop or a repeated edge is rejected by line."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("line 1: header fields must be integers") from None
    if not 0 <= n <= _MAX_ORDER:
        raise ValueError(f"line 1: order {n} outside 0..{_MAX_ORDER}")
    if m < 0:
        raise ValueError(f"line 1: negative edge count {m}")
    edges = set()
    for i in range(m):
        lineno = i + 2
        if lineno - 1 >= len(lines):
            raise ValueError(f"line {lineno}: expected {m} edges, file ended early")
        parts = lines[lineno - 1].split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"line {lineno}: edge ({u}, {v}) invalid for n={n}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ValueError(f"line {lineno}: repeated edge ({u}, {v})")
        edges.add(edge)
    for extra_no, extra in enumerate(lines[m + 1:], m + 2):
        if extra.strip():
            raise ValueError(f"line {extra_no}: unexpected trailing content")
    return Graph(n, edges)
