"""Exact solvers for the stability, matching, covering and domination invariants.

Everything here is exact.  The NP-hard quantities (stability number, clique
cover number, domination numbers, maximum-stable-set enumeration) run under a
:class:`SolverBudget`; exceeding the budget raises :class:`BudgetExhausted`
instead of ever returning an approximate value.  Maximum matching is
polynomial (augmenting paths with blossom contraction) and needs no budget.

Determinism: every search visits its nodes in a fixed order.  The stable-set
style witnesses (alpha, gamma, independent domination) are the
lexicographically least optimal sets: a value search finds the optimum and
one optimal set, then the witness is fixed one member at a time, least id
first, each candidate tested by a feasibility run of the same search.
alpha's search takes every simplicial candidate without branching; that
rule reads adjacency masks only, never ``simplicial_vertices`` or any other
invariant a claim compares.  The clique-cover witness is the first
optimal cover in ascending-id first-fit order (each vertex in id order into
the first open class it fits, backtracking through the later classes and a
fresh one), listed in sorted order; ``analyze`` prints it, so its bytes
depend on that rule.  The matching witness is the deterministic result of
the fixed scan order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator, Sequence

from .graphs import Graph, VertexSet, _bits, _reach, adjacency_masks, memoized
from .graphs import girth as _girth

Matching = frozenset[tuple[int, int]]

#: Materializing every maximum stable set is reserved for graphs up to this
#: order; core_set() and omega_union() read no family and take any order.
OMEGA_ENUMERATION_CAP = 16


class BudgetExhausted(RuntimeError):
    """A solver hit its node or wall-clock cap before finishing."""

    def __init__(self, operation: str, nodes_used: int) -> None:
        super().__init__(f"{operation}: search budget exhausted after {nodes_used} nodes")
        self.operation = operation
        self.nodes_used = nodes_used


@dataclass(frozen=True)
class SolverBudget:
    """Resource caps for the exponential solvers."""

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is rejected with infinity
        if not (0 < self.max_nodes < math.inf and 0 < self.max_seconds < math.inf):
            raise ValueError(f"budget caps must be positive and finite, got "
                             f"max_nodes={self.max_nodes}, max_seconds={self.max_seconds}")


DEFAULT_BUDGET = SolverBudget()


class _Meter:
    """Per-call budget state: every tick counts a node and reads the clock,
    so a call stops at its first node past either cap."""

    __slots__ = ("operation", "max_nodes", "deadline", "nodes")

    def __init__(self, operation: str, budget: SolverBudget) -> None:
        self.operation = operation
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes or time.monotonic() > self.deadline:
            raise BudgetExhausted(self.operation, self.nodes)


def _mask_to_set(mask: int) -> VertexSet:
    return frozenset(_bits(mask))


# ---------------------------------------------------------------------------
# stability number


def _first_fit_cliques(cand: int, adj: tuple[int, ...], most: int = -1) -> list[int]:
    """Clique cover of ``cand``: each vertex in id order joins the first
    clique whose members are all its neighbors, else starts one.  Its size
    bounds how many further stable vertices the candidates can contribute.
    With ``most``, stop as soon as the cover holds more than that many.

    A clique that can take v holds its opener, its least member, among v's
    neighbors, and cliques open in id order; so v tries only the cliques its
    neighbors opened, least opener first, and the pass is near-linear in the
    edges."""
    cliques: list[int] = []
    index: dict[int, int] = {}  # clique index by its opener's bit
    openers = 0
    while cand:
        bit = cand & -cand
        cand ^= bit
        nbr = adj[bit.bit_length() - 1]
        rest = nbr & openers
        while rest:
            low = rest & -rest
            i = index[low]
            if nbr & cliques[i] == cliques[i]:
                cliques[i] |= bit
                break
            rest ^= low
        else:
            index[bit] = len(cliques)
            openers |= bit
            cliques.append(bit)
            if len(cliques) == most + 1:
                break
    return cliques


def _stable_search(adj: tuple[int, ...], universe: int, meter: _Meter,
                   target: int | None = None) -> tuple[int, int] | None:
    """Maximum stable set inside ``universe`` as (size, mask).  With
    ``target`` the search is a feasibility test: it returns the first stable
    set of at least that size, or None when there is none.

    Reduction: a node first takes, without branching, every candidate whose
    candidate neighbors form a clique (isolated and pendant ones included),
    until none is left.  Such a simplicial vertex v lies in some maximum
    stable set of the candidates: one without v, S, meets the clique N(v) in
    exactly one vertex u (in none, S + v would be larger), and S - u + v is
    stable and as large.  Bound: the node is cut when its size plus a
    first-fit clique cover of its candidates cannot beat the incumbent (reach
    ``target``).  Branching: on the candidate of largest degree among the
    candidates (ties to the least id), include-branch first.  Depth-first on
    an explicit stack.
    """
    limit = 0 if target is None else target  # the size a leaf must reach
    best = None
    stack = [(0, 0, universe)]  # open nodes: (size, chosen, candidates)
    while stack:
        size, chosen, cand = stack.pop()
        meter.tick()
        while True:
            top, top_degree, taken = 0, -1, False
            rest = cand
            while rest:
                bit = rest & -rest
                rest ^= bit
                nbr = adj[bit.bit_length() - 1] & cand
                others = nbr
                while others:
                    low = others & -others
                    if nbr & ~adj[low.bit_length() - 1] != low:
                        break
                    others ^= low
                if others:
                    degree = nbr.bit_count()
                    if degree > top_degree:
                        top, top_degree = bit, degree
                else:
                    chosen |= bit
                    size += 1
                    cand &= ~(nbr | bit)
                    rest &= cand
                    taken = True
            # the degrees are exact only after a pass that took nothing
            if not taken:
                break
        if size >= limit and (target is not None or not cand):
            best = (size, chosen)
            if target is not None:
                return best
            limit = size + 1
            continue
        room = limit - size - 1  # a cover of at most this many cliques cuts the node
        if not cand or (room > 0 and len(_first_fit_cliques(cand, adj, room)) <= room):
            continue
        v = top.bit_length() - 1
        stack.append((size, chosen, cand ^ top))
        stack.append((size + 1, chosen | top, cand & ~(adj[v] | top)))
    return best


def _fix_least(value: int, known: int, full: int, block: Sequence[int] | None,
               complete: Callable[[int, int, int], int | None]) -> int:
    """The lexicographically least optimal set, as a mask, fixed one member
    at a time, least id first.

    ``known`` is an optimal set.  ``complete(chosen, bit, allowed)`` returns
    an optimal set that holds the members ``chosen`` fixed so far and the
    candidate ``bit``, with every other member in ``allowed`` (above ``bit``,
    outside ``block`` of each member), or None.  The set found last completes
    the members fixed so far, so its least new member needs no test; only the
    candidates below it are tested, least first.  A candidate that fails, or
    that ``block`` of a member excludes, is passed for good.
    """
    def after(bit: int, allowed: int) -> int:
        return allowed & ~((bit << 1) - 1 | (block[bit.bit_length() - 1] if block else 0))

    chosen, allowed = 0, full
    for _ in range(value):
        rest = known & ~chosen
        pick = rest & -rest
        below = allowed & (pick - 1)
        while below:
            bit = below & -below
            found = complete(chosen, bit, after(bit, allowed))
            if found is not None:
                pick, known = bit, found
                break
            below ^= bit
        chosen |= pick
        allowed = after(pick, allowed)
    return chosen


def alpha(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> tuple[int, VertexSet]:
    """Stability number with its lexicographically least maximum stable set.

    :func:`_stable_search` finds the value and one maximum stable set; then
    :func:`_fix_least` fixes the witness, testing each candidate by one
    feasibility search over the candidates above it and adjacent to no member.
    """
    n = g.n
    adj = adjacency_masks(g)
    meter = _Meter("alpha", budget)
    value, known = _stable_search(adj, (1 << n) - 1, meter)

    def complete(chosen: int, bit: int, allowed: int) -> int | None:
        found = _stable_search(adj, allowed, meter, value - chosen.bit_count() - 1)
        return None if found is None else chosen | bit | found[1]

    return value, _mask_to_set(_fix_least(value, known, (1 << n) - 1, adj, complete))


# ---------------------------------------------------------------------------
# maximal stable sets, Omega, its union and core


def _bron_kerbosch(nbr: list[int] | tuple[int, ...], full: int,
                   meter: _Meter) -> Iterator[int]:
    """Stream every maximal clique (as a mask) of the graph on ``full`` whose
    neighborhoods are ``nbr``: Bron-Kerbosch with pivoting, unordered.

    Runs depth-first on an explicit stack, so a large clique does not
    recurse once per member.
    """
    r, p, x = 0, full, 0
    stack: list[list[int]] = []  # open nodes: [r, p, x, branch vertices left]
    while True:
        meter.tick()
        if p == 0 and x == 0:
            yield r
        else:
            pivot, pivot_count = -1, -1
            for u in _bits(p | x):
                c = (p & nbr[u]).bit_count()
                if c > pivot_count:
                    pivot, pivot_count = u, c
            stack.append([r, p, x, p & ~nbr[pivot]])
        while stack:
            frame = stack[-1]
            todo = frame[3]
            if todo:
                bit = todo & -todo
                v = bit.bit_length() - 1
                r, p, x = frame[0] | bit, frame[1] & nbr[v], frame[2] & nbr[v]
                frame[1] ^= bit
                frame[2] |= bit
                frame[3] = todo ^ bit
                break
            stack.pop()
        else:
            return


def _maximal_stable_masks(g: Graph, meter: _Meter) -> Iterator[int]:
    """Stream every inclusion-maximal stable set (as a mask), unordered:
    the maximal cliques of the complement graph."""
    full = (1 << g.n) - 1
    adj = adjacency_masks(g)
    return _bron_kerbosch([full & ~adj[v] & ~(1 << v) for v in range(g.n)], full, meter)


def omega_family(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> list[VertexSet]:
    """All maximum stable sets, in lexicographic order.

    The family can be exponentially large, so materializing it is only
    supported up to ``OMEGA_ENUMERATION_CAP`` vertices.
    """
    if g.n < 1:
        raise ValueError("omega_family requires at least one vertex")
    if g.n > OMEGA_ENUMERATION_CAP:
        raise ValueError(f"omega_family materializes only up to "
                         f"{OMEGA_ENUMERATION_CAP} vertices, got {g.n}")
    # the maximum stable sets are the maximal ones of the largest size
    meter = _Meter("omega_family", budget)
    masks = list(_maximal_stable_masks(g, meter))
    size = max(m.bit_count() for m in masks)
    fam = [_mask_to_set(m) for m in masks if m.bit_count() == size]
    fam.sort(key=sorted)
    return fam


def core_set(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> VertexSet:
    """Intersection of all maximum stable sets.

    Fix-and-test: v lies in every maximum stable set exactly when deleting v
    drops the stability number.  Only the members of one maximum stable set,
    alpha's witness, can, so each of them is tested by one feasibility search.
    """
    if g.n < 1:
        raise ValueError("core_set requires at least one vertex")
    size, known = memoized(g, alpha, budget)
    adj = adjacency_masks(g)
    full = (1 << g.n) - 1
    meter = _Meter("core_set", budget)
    return frozenset(v for v in sorted(known)
                     if _stable_search(adj, full & ~(1 << v), meter, size) is None)


def omega_union(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> VertexSet:
    """Union of all maximum stable sets.

    v lies in some maximum stable set exactly when alpha(G - N[v]) =
    alpha - 1: such a set is v plus a stable set of G - N[v].  The members
    of alpha's witness need no test; each other vertex is tested by one
    feasibility search, and a set it finds puts its members in the union as
    well.
    """
    if g.n < 1:
        raise ValueError("omega_union requires at least one vertex")
    size, known = memoized(g, alpha, budget)
    adj = adjacency_masks(g)
    full = (1 << g.n) - 1
    meter = _Meter("omega_union", budget)
    union = sum(1 << v for v in known)
    rest = full & ~union
    while rest:
        bit = rest & -rest
        found = _stable_search(adj, full & ~(adj[bit.bit_length() - 1] | bit), meter,
                               size - 1)
        if found is not None:
            union |= bit | found[1]
        rest &= ~(union | bit)
    return _mask_to_set(union)


# ---------------------------------------------------------------------------
# maximum matching (blossom contraction)


def mu(g: Graph) -> tuple[int, Matching]:
    """Maximum matching via augmenting-path search with blossom contraction.

    Polynomial, so no budget applies; the witness is deterministic under the
    fixed ascending scan order.  Each search resets only the vertices it
    queued or labeled, so a root whose search stays small costs little on a
    large graph.
    """
    n = g.n
    adj = [list(_bits(m)) for m in adjacency_masks(g)]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    queued = [False] * n

    # greedy seed cuts the number of augmenting phases roughly in half
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break

    def lowest_common_base(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_blossom_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def try_augment(root: int, queue: list[int], labeled: list[int]) -> bool:
        """Search from ``root``, the one vertex in ``queue``.  The search
        appends each vertex it queues to ``queue`` and each vertex it labels
        with a parent to ``labeled``; only those vertices' state changes
        (a blossom's vertices are all queued)."""
        queued[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom down to its stem
                    stem = lowest_common_base(v, to)
                    in_blossom = [False] * n
                    mark_blossom_path(v, stem, to, in_blossom)
                    mark_blossom_path(to, stem, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not queued[i]:
                                queued[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    labeled.append(to)
                    if match[to] == -1:
                        # augment along the alternating path back to the root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            next_u = match[pv]
                            match[u], match[pv] = pv, u
                            u = next_u
                        return True
                    queued[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and adj[v]:
            queue: list[int] = [v]
            labeled: list[int] = []
            try_augment(v, queue, labeled)
            for i in chain(queue, labeled):
                parent[i] = -1
                base[i] = i
                queued[i] = False

    edges = frozenset((v, match[v]) for v in range(n) if match[v] > v)
    return len(edges), edges


def count_perfect_matchings(g: Graph, limit: int | None = None,
                            budget: SolverBudget = DEFAULT_BUDGET) -> int:
    """Number of perfect matchings, optionally stopping early at ``limit``."""
    n = g.n
    if n % 2:
        return 0
    if n == 0:
        return 1
    adj = adjacency_masks(g)
    full = (1 << n) - 1
    meter = _Meter("count_perfect_matchings", budget)
    count = 0
    # a node matches the least free vertex to each free neighbor; its children
    # go on the stack least partner on top, so nodes pop in depth-first order
    stack = [0]
    while stack:
        used = stack.pop()
        meter.tick()
        if used == full:
            count += 1
            if limit is not None and count >= limit:
                break
        else:
            low = ~used & (used + 1)
            partners = list(_bits(adj[low.bit_length() - 1] & ~used))
            stack.extend(used | low | 1 << w for w in reversed(partners))
    return count


# ---------------------------------------------------------------------------
# clique cover number


def _greedy_stable_size(cand: int, adj: tuple[int, ...]) -> int:
    """Size of a stable set picked smallest id first from ``cand``: a lower
    bound on the number of cliques needed to cover ``cand``."""
    size = 0
    while cand:
        low = cand & -cand
        cand &= ~(adj[low.bit_length() - 1] | low)
        size += 1
    return size


def _cover_search(adj: tuple[int, ...], ranks: list[int], classes: list[int],
                  common: list[int], rest: int, limit: int, stop: int,
                  meter: _Meter) -> tuple[int, list[int]] | None:
    """Extend the cliques ``classes`` (``common[i]`` masks the vertices that
    ``classes[i]`` can absorb; both lists change in place) over ``rest`` to a
    cover of fewer than ``limit`` cliques.  Each cover found lowers ``limit``;
    the last one comes back, at once if it has at most ``stop`` cliques.

    DSATUR: a node branches on the rest vertex the fewest classes can absorb,
    into each such class in order, then into one fresh class.  Ties go, among
    vertices no class can absorb, to the least degree (``ranks[d]`` masks
    degree d), else to the most non-neighbors in ``rest``; then to the least
    id.  A node is dead once its classes plus a greedy stable set of the
    vertices no class can absorb reach ``limit``; a fresh class that would
    reach it is not opened."""
    best = None
    # open nodes: [vertex bit, its neighbors, rest, bound, untried children
    # (next last; -1 is a fresh class), child applied, its class's common before]
    stack: list[list] = []
    while True:
        meter.tick()
        one = two = 0  # the vertices at least one, two classes can absorb
        for c in common:
            two |= one & c
            one |= c
        free = rest & ~one
        k = len(classes)
        bound = k + _greedy_stable_size(free, adj) if free else k
        if bound < limit:
            if not rest:
                best = (k, list(classes))
                limit = k
                if k <= stop:
                    return best
            elif free:
                for r in ranks:
                    if free & r:
                        break
                bit = free & r & -(free & r)
                stack.append([bit, adj[bit.bit_length() - 1], rest, bound, [-1], -2, 0])
            else:
                pick = rest & ~two
                if not pick:
                    ge = [rest] + [0] * (k + 1)  # ge[j]: absorbed by >= j classes
                    for c in common:
                        for j in range(k, 0, -1):
                            ge[j] |= ge[j - 1] & c
                    j = 2
                    while not pick:
                        j += 1
                        pick = ge[j - 1] & ~ge[j]
                most = -1
                while pick:
                    low = pick & -pick
                    pick ^= low
                    far = (rest & ~adj[low.bit_length() - 1]).bit_count()
                    if far > most:
                        bit, most = low, far
                kids = [-1] + [i for i in range(k - 1, -1, -1) if common[i] & bit]
                stack.append([bit, adj[bit.bit_length() - 1], rest, bound, kids, -2, 0])
        while stack:
            frame = stack[-1]
            bit, nbr, node_rest, node_bound, kids, i, saved = frame
            if i >= 0:
                classes[i] ^= bit
                common[i] = saved
            elif i == -1:
                classes.pop()
                common.pop()
            if kids and node_bound < limit:
                i = kids.pop()
                if i >= 0:
                    frame[6] = common[i]
                    classes[i] |= bit
                    common[i] &= nbr
                elif len(classes) + 1 < limit:
                    classes.append(bit)
                    common.append(nbr)
                else:
                    stack.pop()
                    continue
                frame[5] = i
                rest = node_rest ^ bit
                break
            stack.pop()
        else:
            return best


def theta(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> tuple[int, tuple[VertexSet, ...]]:
    """Exact clique cover number with a certifying partition into cliques.

    The partition is the first optimal leaf of the ascending-id search, in
    which each vertex joins an open class it fits (in class order), else a
    fresh one.  Its first leaf is the first-fit cover, returned as it is when
    a greedy stable set meets it.  Otherwise :func:`_cover_search` finds the
    value, then each vertex in turn takes its first child that a feasibility
    search completes to an optimal cover; the last such cover shows one child
    feasible, so only the children before it are searched.  Every bound is a
    stable set found here, never alpha: alpha <= theta is a claim under test.
    """
    if g.n < 1:
        raise ValueError("theta requires at least one vertex")
    n = g.n
    adj = adjacency_masks(g)
    full = (1 << n) - 1
    cover = _first_fit_cliques(full, adj)
    value, lower = len(cover), _greedy_stable_size(full, adj)
    found = None
    if value > lower:
        meter = _Meter("theta", budget)
        ranks = [0] * n
        for v in range(n):
            ranks[adj[v].bit_count()] |= 1 << v
        found = _cover_search(adj, ranks, [], [], full, value, lower, meter)
    if found is not None:
        value, known = found
        cover, common, rest = [], [], full
        for v in range(n):
            bit = 1 << v
            rest ^= bit
            for home in known:  # the child that puts v where known has it
                if home & bit:
                    break
            for pick, c in enumerate(cover):
                if c & home:
                    break
            else:
                pick = len(cover)
            for i in range(pick):
                if common[i] & bit:
                    classes, absorb = cover[:], common[:]
                    classes[i] |= bit
                    absorb[i] &= adj[v]
                    found = _cover_search(adj, ranks, classes, absorb, rest,
                                          value + 1, value, meter)
                    if found is not None:
                        pick, known = i, found[1]
                        break
            if pick == len(cover):
                cover.append(0)
                common.append(full)
            cover[pick] |= bit
            common[pick] &= adj[v]
    parts = sorted(tuple(sorted(_bits(c))) for c in cover)
    return value, tuple(frozenset(c) for c in parts)


# ---------------------------------------------------------------------------
# domination


def _dominating_search(closed: list[int], full: int, max_cover: int, stable: bool,
                       meter: _Meter, forced: int = 0, candidates_from: int = 0,
                       stop_at: int | None = None) -> tuple[int, int] | None:
    """Minimum size of a dominating set containing ``forced`` whose further
    members all have id >= candidates_from, with one such set as a mask; with
    ``stable``, of a maximal stable set containing the stable set ``forced``.
    ``stop_at`` turns the search into a feasibility test: return the first
    set of at most that size.

    Domination is set cover: every dominating set covers each undominated u
    with a member of N[u].  A node branches on the undominated u with the
    fewest candidates (ties to the least id): the members of N[u] not banned
    and, with ``stable``, still undominated.  An undominated vertex is
    adjacent to no chosen one, so then the chosen set stays stable, and a
    stable dominating set is a maximal stable set.  No candidate is a dead
    node; one is a forced choice.  Without ``stable``, a candidate whose
    coverage of the undominated vertices lies inside another candidate's is
    dropped (on equal coverage the least id stays): swapping it for the other,
    which is not banned either, covers as much at the same size.  That swap
    can break stability, so ``ind_dom`` keeps every candidate.  The branch for
    v takes the sets containing v and none of the earlier siblings, so no set
    is reached twice.  Candidates are tried largest coverage first (ties by
    id), so the first dive is the greedy cover.  The search runs depth-first
    on an explicit stack and stops expanding a node once its cover bound
    ⌈undominated / max |N[v]|⌉ meets the incumbent."""
    dominated = 0
    for v in _bits(forced):
        dominated |= closed[v]
    chosen, count = forced, forced.bit_count()
    banned = ((1 << candidates_from) - 1) | forced
    best: tuple[int, int] | None = None
    # open nodes: [dominated, chosen, count, bound, banned, untried candidates
    # with the next one last]
    stack: list[list] = []
    while True:
        meter.tick()
        und = full & ~dominated
        pick = -1
        if not und:
            if best is None or count < best[0]:
                best = (count, chosen)
                if stop_at is not None and count <= stop_at:
                    return best
        else:
            lower = count + -(-und.bit_count() // max_cover)
            if ((best is None or lower < best[0])
                    and (stop_at is None or lower <= stop_at)):
                allowed = (und if stable else full) & ~banned
                # the undominated vertex with the fewest candidates; with none
                # the node is dead
                cands, fewest = 0, max_cover + 1
                for u in range((und & -und).bit_length() - 1, und.bit_length()):
                    if und >> u & 1:
                        c = closed[u] & allowed
                        k = c.bit_count()
                        if k < fewest:
                            cands, fewest = c, k
                            if not k:
                                break
                # a forced choice and a pair of candidates take no sort
                if fewest == 1:
                    pick = cands.bit_length() - 1
                elif fewest == 2:
                    a = (cands & -cands).bit_length() - 1
                    b = cands.bit_length() - 1
                    ca, cb = closed[a] & und, closed[b] & und
                    if not stable and not cb & ~ca:
                        pick = a
                    elif not stable and not ca & ~cb:
                        pick = b
                    else:
                        if cb.bit_count() > ca.bit_count():
                            a, b, ca = b, a, cb
                        pick = a
                        if ca != und:
                            stack.append([dominated, chosen, count, lower, banned | 1 << a, [b]])
                elif fewest:
                    order = []
                    rest = cands
                    while rest:
                        low = rest & -rest
                        v = low.bit_length() - 1
                        c = closed[v] & und
                        if c == und:
                            # the first child then meets this node's bound,
                            # so no sibling would be tried
                            order = [(0, v, c)]
                            break
                        order.append((-c.bit_count(), v, c))
                        rest ^= low
                    order.sort()
                    pick = order[0][1]
                    if stable:
                        todo = [v for _, v, _ in order[:0:-1]]
                    else:
                        # a candidate whose coverage lies inside another's
                        # comes after it in this order
                        kept = [order[0][2]]
                        todo = []
                        for _, v, c in order[1:]:
                            for k in kept:
                                if not c & ~k:
                                    break
                            else:
                                kept.append(c)
                                todo.append(v)
                        todo.reverse()
                    if todo:
                        stack.append([dominated, chosen, count, lower, banned | 1 << pick, todo])
        if pick >= 0:
            dominated |= closed[pick]
            chosen |= 1 << pick
            count += 1
            continue
        while stack:
            frame = stack[-1]
            if best is None or frame[3] < best[0]:
                todo = frame[5]
                pick = todo.pop()
                banned = frame[4]
                if todo:
                    frame[4] = banned | 1 << pick
                else:
                    stack.pop()
                dominated = frame[0] | closed[pick]
                chosen = frame[1] | 1 << pick
                count = frame[2] + 1
                break
            stack.pop()
        else:
            return best


def _least_dominating_set(g: Graph, budget: SolverBudget,
                          stable: bool) -> tuple[int, VertexSet]:
    """Smallest dominating set (with ``stable``, smallest maximal stable set)
    that is lexicographically least, found by :func:`_dominating_search`.

    Each component is solved apart, under the call's one budget: a set
    dominates the graph exactly when it dominates every component, so the
    values add, and the union of the components' least sets is the least set.
    """
    operation = "ind_dom" if stable else "gamma"
    if g.n < 1:
        raise ValueError(f"{operation} requires at least one vertex")
    adjm = adjacency_masks(g)
    closed = [adjm[v] | (1 << v) for v in range(g.n)]
    meter = _Meter(operation, budget)
    value = witness = 0
    rest = (1 << g.n) - 1
    while rest:
        full = _reach(adjm, rest & -rest)
        rest &= ~full
        max_cover = max(closed[v].bit_count() for v in _bits(full))
        found = _dominating_search(closed, full, max_cover, stable, meter)
        assert found is not None
        size, known = found

        def complete(chosen: int, bit: int, allowed: int) -> int | None:
            found = _dominating_search(closed, full, max_cover, stable, meter,
                                       forced=chosen | bit, candidates_from=bit.bit_length(),
                                       stop_at=size)
            return found[1] if found is not None and found[0] <= size else None

        # with ``stable``, a vertex adjacent to a member cannot join the set
        witness |= _fix_least(size, known, full, closed if stable else None, complete)
        value += size
    return value, _mask_to_set(witness)


def gamma(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> tuple[int, VertexSet]:
    """Domination number with the lexicographically least minimum dominating set."""
    return _least_dominating_set(g, budget, stable=False)


def ind_dom(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> tuple[int, VertexSet]:
    """Independent domination number with the lexicographically least
    smallest inclusion-maximal stable set."""
    return _least_dominating_set(g, budget, stable=True)


# ---------------------------------------------------------------------------
# simplicial structure


def simplicial_vertices(g: Graph) -> VertexSet:
    """Vertices whose open neighborhood induces a complete subgraph."""
    adj = adjacency_masks(g)
    out = []
    for v in range(g.n):
        nv = adj[v]
        if all((nv & ~(1 << u)) & ~adj[u] == 0 for u in _bits(nv)):
            out.append(v)
    return frozenset(out)


def maximal_cliques(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> list[VertexSet]:
    """All inclusion-maximal cliques (Bron-Kerbosch, pivoting), lexicographic."""
    if g.n < 1:
        raise ValueError("maximal_cliques requires at least one vertex")
    meter = _Meter("maximal_cliques", budget)
    sets = [_mask_to_set(m)
            for m in _bron_kerbosch(adjacency_masks(g), (1 << g.n) - 1, meter)]
    sets.sort(key=sorted)
    return sets


def simplexes(g: Graph) -> list[VertexSet]:
    """Maximal cliques containing at least one simplicial vertex, lexicographic.

    The closed neighborhood N[v] of a simplicial v is a clique that holds
    every clique through v, so it is the one maximal clique holding v.
    """
    adj = adjacency_masks(g)
    sets = [_mask_to_set(c) for c in {adj[v] | 1 << v for v in memoized(g, simplicial_vertices)}]
    sets.sort(key=sorted)
    return sets


# ---------------------------------------------------------------------------
# witness validation and the aggregate report


def _within(g: Graph, s: VertexSet) -> bool:
    return all(0 <= v < g.n for v in s)


def is_stable_set(g: Graph, s: VertexSet) -> bool:
    return _within(g, s) and all(not g.has_edge(u, v) for u, v in combinations(sorted(s), 2))


def is_maximal_stable_set(g: Graph, s: VertexSet) -> bool:
    if not is_stable_set(g, s):
        return False
    return all(any(w in s for w in g.neighbors(v)) for v in range(g.n) if v not in s)


def is_matching(g: Graph, m: Matching) -> bool:
    used = set()
    for u, v in m:
        if not g.has_edge(u, v) or u in used or v in used:
            return False
        used.update((u, v))
    return True


def is_clique_partition(g: Graph, parts: tuple[VertexSet, ...]) -> bool:
    seen: set[int] = set()
    for part in parts:
        if any(not g.has_edge(u, v) for u, v in combinations(sorted(part), 2)):
            return False
        if seen & part:
            return False
        seen |= part
    return seen == set(range(g.n))


def is_dominating_set(g: Graph, d: VertexSet) -> bool:
    return _within(g, d) and all(v in d or g.neighbors(v) & d for v in range(g.n))


def invariant_report(g: Graph, budget: SolverBudget = DEFAULT_BUDGET,
                     timing: dict[str, float] | None = None) -> dict:
    """The ``"invariants"`` record of ``analyze`` for one graph: each
    invariant's exact value, then its certifying witness as sorted lists.

    Each solver's full result is read through the graph's memo
    (:func:`~squarestable.graphs.memoized`), so a value another caller
    already solved on this graph object is not solved again.  With
    ``timing``, the seconds each read took are stored under the solver's
    name, rounded to microseconds.
    """
    def solved(name, solver, *args):
        t0 = time.perf_counter()
        result = memoized(g, solver, *args)
        if timing is not None:
            timing[name] = round(time.perf_counter() - t0, 6)
        return result

    a, a_set = solved("alpha", alpha, budget)
    m, m_set = solved("mu", mu)
    t, t_parts = solved("theta", theta, budget)
    d, d_set = solved("gamma", gamma, budget)
    i, i_set = solved("ind_dom", ind_dom, budget)
    return {
        "alpha": a, "mu": m, "theta": t, "gamma": d, "ind_dom": i,
        "girth": _girth(g),
        "witnesses": {
            "stable_set": sorted(a_set),
            "matching": sorted(sorted(e) for e in m_set),
            "clique_cover": sorted(sorted(c) for c in t_parts),
            "dominating_set": sorted(d_set),
            "min_maximal_stable_set": sorted(i_set),
        },
    }
