"""Naive reference implementations used only to cross-check the real solvers.

Everything here scans subsets or partitions directly with itertools, sharing
no code or algorithmic idea with the branch-and-bound / blossom /
Bron-Kerbosch paths under test.  Exponential on purpose; keep inputs small.

The exceptions are slow routes the real solvers replaced, kept as references
they must match exactly: :func:`alpha_bounded_reference`, the stable-set
search as it ran before its reduction rule, :func:`theta_unpruned`, the
clique-cover search as it ran before its bounds were added (the bounded
search must also need no more nodes), :func:`theta_bounded_reference`, the
same ascending-id search with the bounds, as it ran before the DSATUR value
search, :func:`ind_dom_enumeration`, independent domination by listing every
maximal stable set, and :func:`least_dominating_set_reference`,
the domination search for gamma and ind_dom as it ran before it took the
set-cover rules (least undominated vertex, every candidate, least id first),
:func:`mu_full_reset_reference`, the matching search as it ran when each
root's search reset every vertex, and :func:`first_fit_cliques_reference`,
the first-fit clique cover as it was built when each vertex tried every
clique.
The harness's Omega-free claim routes are held to the routes they replaced:
:func:`distance3_omega_member_exists` scans the materialized Omega, and
:func:`pendant_selections` lists the sets a pendant perfect matching forces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from squarestable.graphs import Graph, _bits, adjacency_masks, distances
from squarestable.invariants import (DEFAULT_BUDGET, SolverBudget, _first_fit_cliques,
                                     _greedy_stable_size, _maximal_stable_masks, _Meter,
                                     omega_family)


def stable(g: Graph, vs) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(sorted(vs), 2))


def dominating(g: Graph, vs) -> bool:
    s = set(vs)
    return all(v in s or g.neighbors(v) & s for v in range(g.n))


def maximal_stable(g: Graph, vs) -> bool:
    s = set(vs)
    return stable(g, s) and all(
        any(w in s for w in g.neighbors(v)) for v in range(g.n) if v not in s)


def alpha_oracle(g: Graph) -> int:
    for k in range(g.n, 0, -1):
        if any(stable(g, c) for c in combinations(range(g.n), k)):
            return k
    return 0


def omega_oracle(g: Graph) -> list[frozenset[int]]:
    a = alpha_oracle(g)
    return [frozenset(c) for c in combinations(range(g.n), a) if stable(g, c)]


def maximal_stable_sets_oracle(g: Graph) -> list[frozenset[int]]:
    out = []
    for k in range(0, g.n + 1):
        out.extend(frozenset(c) for c in combinations(range(g.n), k)
                   if maximal_stable(g, c))
    return out


def gamma_oracle(g: Graph) -> int:
    for k in range(0, g.n + 1):
        if any(dominating(g, c) for c in combinations(range(g.n), k)):
            return k
    return g.n


def ind_dom_oracle(g: Graph) -> int:
    return min(len(s) for s in maximal_stable_sets_oracle(g))


def ind_dom_lex_oracle(g: Graph) -> tuple[int, frozenset[int]]:
    """Lexicographically least smallest maximal stable set: the first one in
    combinations order at the least size that has one."""
    for k in range(0, g.n + 1):
        for c in combinations(range(g.n), k):
            if maximal_stable(g, c):
                return k, frozenset(c)
    raise AssertionError("some stable set is maximal")


def ind_dom_enumeration(g: Graph, budget: SolverBudget = DEFAULT_BUDGET
                        ) -> tuple[int, frozenset[int]]:
    """Independent domination as it was computed before its search: the
    least (size, sorted members) key over every maximal stable set."""
    meter = _Meter("ind_dom", budget)
    best = min((m.bit_count(), tuple(_bits(m))) for m in _maximal_stable_masks(g, meter))
    return best[0], frozenset(best[1])


def _dominating_search_reference(closed: list[int], full: int, max_cover: int,
                                 stable: bool, meter: _Meter, forced: int = 0,
                                 candidates_from: int = 0,
                                 stop_at: int | None = None) -> tuple[int, int] | None:
    """The domination search before the set-cover rules: branch on the least
    undominated u over every unbanned member of N[u] (with ``stable``, every
    unbanned undominated one), least id first, later siblings banned, pruned
    by the ⌈undominated / max |N[v]|⌉ bound."""
    dominated = 0
    for v in _bits(forced):
        dominated |= closed[v]
    chosen, count = forced, forced.bit_count()
    banned = ((1 << candidates_from) - 1) | forced
    best: tuple[int, int] | None = None
    # open nodes: [dominated, chosen, count, bound, untried candidates, banned]
    stack: list[list[int]] = []
    while True:
        meter.tick()
        und = full & ~dominated
        if not und:
            if best is None or count < best[0]:
                best = (count, chosen)
                if stop_at is not None and count <= stop_at:
                    return best
        else:
            lower = count + -(-und.bit_count() // max_cover)
            if ((best is None or lower < best[0])
                    and (stop_at is None or lower <= stop_at)):
                u = (und & -und).bit_length() - 1
                stack.append([dominated, chosen, count, lower,
                              closed[u] & (und if stable else full) & ~banned, banned])
        while stack:
            frame = stack[-1]
            cands = frame[4]
            if cands and (best is None or frame[3] < best[0]):
                low = cands & -cands
                banned = frame[5]
                frame[4] = cands ^ low
                frame[5] = banned | low
                dominated = frame[0] | closed[low.bit_length() - 1]
                chosen = frame[1] | low
                count = frame[2] + 1
                break
            stack.pop()
        else:
            return best


def least_dominating_set_reference(g: Graph, stable: bool,
                                   budget: SolverBudget = DEFAULT_BUDGET
                                   ) -> tuple[int, frozenset[int]]:
    """gamma (ind_dom with ``stable``) as computed before the set-cover rules:
    the value from :func:`_dominating_search_reference`, then the same
    lexicographic fix pass, one feasibility search per id below the least
    new member of a known optimal completion."""
    n = g.n
    adj = adjacency_masks(g)
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    max_cover = max(c.bit_count() for c in closed)
    meter = _Meter("ind_dom" if stable else "gamma", budget)
    value, known = _dominating_search_reference(closed, full, max_cover, stable, meter)
    chosen = blocked = 0
    next_candidate = 0
    for _ in range(value):
        rest = known & ~chosen
        pick = (rest & -rest).bit_length() - 1
        for v in range(next_candidate, pick):
            if blocked >> v & 1:
                continue
            found = _dominating_search_reference(
                closed, full, max_cover, stable, meter, forced=chosen | (1 << v),
                candidates_from=v + 1, stop_at=value)
            if found is not None and found[0] <= value:
                pick, known = v, found[1]
                break
        chosen |= 1 << pick
        if stable:
            blocked |= closed[pick]
        next_candidate = pick + 1
    return value, frozenset(_bits(chosen))


def maximal_cliques_oracle(g: Graph) -> list[frozenset[int]]:
    """Every inclusion-maximal clique in lexicographic order, by testing each
    vertex subset: a clique is maximal when no outside vertex is adjacent to
    all of its members."""
    out = []
    for k in range(1, g.n + 1):
        for c in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(c, 2)) and not any(
                    all(g.has_edge(w, u) for u in c) for w in range(g.n) if w not in c):
                out.append(frozenset(c))
    return sorted(out, key=sorted)


def gamma_lex_oracle(g: Graph) -> tuple[int, frozenset[int]]:
    """Lexicographically least minimum dominating set: combinations of each
    size come out in lexicographic order, so the first hit is the least."""
    for k in range(0, g.n + 1):
        for c in combinations(range(g.n), k):
            if dominating(g, c):
                return k, frozenset(c)
    raise AssertionError("the whole vertex set dominates")


def mu_oracle(g: Graph) -> int:
    edges = sorted(g.edges)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        result = best(i + 1, used)
        if not used >> u & 1 and not used >> v & 1:
            result = max(result, 1 + best(i + 1, used | 1 << u | 1 << v))
        return result

    out = best(0, 0)
    best.cache_clear()
    return out


def first_fit_cliques_reference(cand: int, adj: tuple[int, ...], most: int = -1) -> list[int]:
    """The first-fit clique cover of ``cand``, each vertex in id order trying
    every clique in turn: O(n * cliques), so keep the inputs small."""
    cliques: list[int] = []
    for v in _bits(cand):
        for i, c in enumerate(cliques):
            if adj[v] & c == c:
                cliques[i] = c | (1 << v)
                break
        else:
            cliques.append(1 << v)
            if len(cliques) == most + 1:
                break
    return cliques


def mu_full_reset_reference(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """mu as computed when every root's search reset the parent and base of
    all n vertices and allocated a fresh used list: quadratic on a star, so
    keep the inputs small."""
    n = g.n
    adj = [list(_bits(m)) for m in adjacency_masks(g)]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
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

    def try_augment(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    stem = lowest_common_base(v, to)
                    in_blossom = [False] * n
                    mark_blossom_path(v, stem, to, in_blossom)
                    mark_blossom_path(to, stem, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            next_u = match[pv]
                            match[u], match[pv] = pv, u
                            u = next_u
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and adj[v]:
            try_augment(v)
    edges = frozenset((v, match[v]) for v in range(n) if match[v] > v)
    return len(edges), edges


def theta_oracle(g: Graph) -> int:
    """Minimum clique partition by exhausting all ways to place each vertex."""
    n = g.n
    if n == 0:
        return 0
    best = [n]

    def place(v: int, blocks: list[set[int]]) -> None:
        if len(blocks) >= best[0]:
            return
        if v == n:
            best[0] = len(blocks)
            return
        for b in blocks:
            if all(g.has_edge(v, u) for u in b):
                b.add(v)
                place(v + 1, blocks)
                b.remove(v)
        blocks.append({v})
        place(v + 1, blocks)
        blocks.pop()

    place(0, [])
    return best[0]


def theta_unpruned(g: Graph) -> tuple[int, tuple[frozenset[int], ...], int]:
    """Clique cover number, witness and search nodes from the unbounded
    search: first-fit cover as incumbent, vertices in ascending id to an
    existing class or one fresh class, pruning only at the incumbent's count."""
    n = g.n
    adj = adjacency_masks(g)
    greedy: list[int] = []
    for v in range(n):
        for i, c in enumerate(greedy):
            if adj[v] & c == c:
                greedy[i] = c | (1 << v)
                break
        else:
            greedy.append(1 << v)
    best = [len(greedy), list(greedy)]
    nodes = 0
    classes: list[int] = []

    def walk(v: int) -> None:
        nonlocal nodes
        nodes += 1
        if len(classes) >= best[0]:
            return
        if v == n:
            best[:] = [len(classes), list(classes)]
            return
        bit = 1 << v
        for i, c in enumerate(classes):
            if adj[v] & c == c:
                classes[i] = c | bit
                walk(v + 1)
                classes[i] = c
        classes.append(bit)
        walk(v + 1)
        classes.pop()

    walk(0)
    cover = sorted(tuple(sorted(_bits(c))) for c in best[1])
    return best[0], tuple(frozenset(c) for c in cover), nodes


def alpha_bounded_reference(g: Graph, budget: SolverBudget = DEFAULT_BUDGET
                            ) -> tuple[int, frozenset[int]]:
    """alpha as computed before the reduction search: branch on the least
    candidate, include-branch first, cut when the chosen size plus a
    first-fit clique cover of the candidates cannot beat the incumbent, and
    replace the incumbent only on strict improvement, so the first optimum
    found is the lexicographically least.  Recursive, so keep the inputs
    small."""
    adj = adjacency_masks(g)
    meter = _Meter("alpha", budget)
    best_size = -1
    best_mask = 0

    def walk(chosen: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        meter.tick()
        if size + len(_first_fit_cliques(cand, adj)) <= best_size:
            return
        if not cand:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        low = cand & -cand
        v = low.bit_length() - 1
        walk(chosen | low, size + 1, cand & ~(adj[v] | low))
        walk(chosen, size, cand ^ low)

    walk(0, 0, (1 << g.n) - 1)
    return best_size, frozenset(_bits(best_mask))


def theta_bounded_reference(g: Graph, budget: SolverBudget = DEFAULT_BUDGET
                            ) -> tuple[int, tuple[frozenset[int], ...]]:
    """theta as computed before the DSATUR value search: vertices in
    ascending id to an existing class or one fresh class, the first-fit cover
    as incumbent, replaced only on strict improvement, pruned by the greedy
    stable set of the vertices no open class can absorb, and stopped once the
    incumbent meets the greedy stable set of the whole graph.  Recursive, so
    keep the inputs small."""
    n = g.n
    adj = adjacency_masks(g)
    greedy: list[int] = []
    common: list[int] = []
    for v in range(n):
        bit = 1 << v
        for i, c in enumerate(common):
            if c & bit:
                greedy[i] |= bit
                common[i] = c & adj[v]
                break
        else:
            greedy.append(bit)
            common.append(adj[v])
    lower = _greedy_stable_size((1 << n) - 1, adj)
    best_count = len(greedy)
    best_cover = greedy
    if best_count > lower:
        meter = _Meter("theta", budget)
        classes: list[int] = []
        common = []

        def walk(v: int, rest: int) -> bool:
            nonlocal best_count, best_cover
            meter.tick()
            absorbable = 0
            for c in common:
                absorbable |= c
            if len(classes) + _greedy_stable_size(rest & ~absorbable, adj) >= best_count:
                return False
            if v == n:
                best_count = len(classes)
                best_cover = list(classes)
                return best_count == lower
            bit = 1 << v
            rest ^= bit
            for i, c in enumerate(common):
                if c & bit:
                    classes[i] |= bit
                    common[i] = c & adj[v]
                    if walk(v + 1, rest):
                        return True
                    classes[i] ^= bit
                    common[i] = c
            classes.append(bit)
            common.append(adj[v])
            if walk(v + 1, rest):
                return True
            classes.pop()
            common.pop()
            return False

        walk(0, (1 << n) - 1)
    cover = sorted(tuple(sorted(_bits(c))) for c in best_cover)
    return best_count, tuple(frozenset(c) for c in cover)


def square_edges_oracle(g: Graph) -> frozenset[tuple[int, int]]:
    """Distance-2 closure straight from a Floyd-Warshall distance matrix."""
    inf = float("inf")
    d = [[0 if i == j else (1 if g.has_edge(i, j) else inf) for j in range(g.n)]
         for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return frozenset((i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if d[i][j] <= 2)


def floyd_warshall_oracle(g: Graph) -> list[list[float]]:
    inf = float("inf")
    d = [[0 if i == j else (1 if g.has_edge(i, j) else inf) for j in range(g.n)]
         for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def distance3_omega_member_exists(g: Graph) -> bool:
    """Literal reading: some maximum stable set is pairwise at distance >= 3."""
    d = distances(g)
    for s in omega_family(g):
        ok = True
        for u, v in combinations(sorted(s), 2):
            if d[u][v] is not None and d[u][v] < 3:
                ok = False
                break
        if ok:
            return True
    return False


def pendant_selections(g: Graph, matching) -> list[frozenset[int]]:
    """Maximum stable sets of the square forced by a pendant perfect matching:
    one pendant endpoint per matched edge, the choice being free only on
    two-vertex components where both endpoints are pendant."""
    per_edge = []
    for u, v in sorted(matching):
        ends = [w for w in (u, v) if g.degree(w) == 1]
        per_edge.append(ends)
    return sorted((frozenset(pick) for pick in product(*per_edge)), key=sorted)
