"""Class-membership tests with certificates.

Each predicate follows its defining formula.  The one structural shortcut,
a pendant perfect matching (which forces square stability), is exposed as
its own predicate so the claim harness can check the implication instead of
trusting it.

The predicates read α(G), μ(G), the square, α(G²) and well-coveredness
through the graph's memo (:func:`~squarestable.graphs.memoized`), so values
already solved on the same graph object (by ``invariant_report`` or another
predicate, say) are not solved again.  A memoized value is computed from its
definition, so reading it does not trust any other class test.

``recognize`` bundles the flags for one graph.  It computes the cheap
structural facts first and skips the square's solve when a pendant perfect
matching already decides square stability; otherwise ``is_square_stable``
decides it.  The tests compare every flag with its predicate below.
"""

from __future__ import annotations

from .graphs import Graph, VertexSet, memoized, pendant_edges, square
from .invariants import (DEFAULT_BUDGET, BudgetExhausted, Matching, SolverBudget,
                         _maximal_stable_masks, _mask_to_set, _Meter, alpha,
                         mu, simplexes, simplicial_vertices)


def _require_vertices(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("class predicates are undefined for the empty graph")


def is_koenig_egervary(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> bool:
    """True iff the stability and matching numbers add up to the order."""
    _require_vertices(g)
    return memoized(g, alpha, budget)[0] + memoized(g, mu)[0] == g.n


def is_well_covered(
    g: Graph, budget: SolverBudget = DEFAULT_BUDGET
) -> tuple[bool, VertexSet | None]:
    """Whether every maximal stable set is maximum.

    Returns ``(True, None)`` or ``(False, certificate)`` where the
    certificate is a maximal stable set smaller than some other one (and in
    particular smaller than the stability number).
    """
    _require_vertices(g)
    meter = _Meter("is_well_covered", budget, g.n)
    first = None
    for m in _maximal_stable_masks(g, meter):
        if first is None:
            first = m
        elif m.bit_count() != first.bit_count():
            return False, _mask_to_set(min(first, m, key=int.bit_count))
    return True, None


def is_very_well_covered(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> bool:
    """No isolated vertices, order exactly twice alpha, and well covered."""
    _require_vertices(g)
    return (all(g.degree(v) > 0 for v in range(g.n))
            and g.n == 2 * memoized(g, alpha, budget)[0]
            and memoized(g, is_well_covered, budget)[0])


def is_square_stable(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> bool:
    """True iff the stability number survives squaring the graph."""
    _require_vertices(g)
    return (memoized(g, alpha, budget)[0]
            == memoized(memoized(g, square), alpha, budget)[0])


def has_pendant_perfect_matching(g: Graph) -> Matching | None:
    """The perfect matching made of pendant edges, when one exists.

    Linear time: every pendant vertex is paired with its unique neighbor (a
    two-vertex component contributes its single edge once); the result
    qualifies iff those edges are pairwise disjoint and cover every vertex.
    """
    _require_vertices(g)
    chosen = pendant_edges(g)
    seen: set[int] = set()
    for u, v in chosen:
        if u in seen or v in seen:
            return None
        seen.update((u, v))
    if len(seen) != g.n:
        return None
    return frozenset(chosen)


def is_simplicial_graph(g: Graph) -> bool:
    """Every vertex is simplicial or adjacent to a simplicial vertex."""
    _require_vertices(g)
    simp = memoized(g, simplicial_vertices)
    return all(v in simp or g.neighbors(v) & simp for v in range(g.n))


def vertex_in_exactly_one_simplex(g: Graph) -> bool:
    """The simplexes cover every vertex exactly once."""
    _require_vertices(g)
    count = [0] * g.n
    for s in simplexes(g):
        for v in s:
            count[v] += 1
    return all(c == 1 for c in count)


_EXHAUSTED = object()


def recognize(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> dict:
    """The ``"profile"`` record of ``recognize`` and ``analyze``: all six
    class flags, then their certificates.

    Budget exhaustion never produces a wrong flag: the affected flag comes
    back ``None`` with a note in the certificates.  α, μ, the square, α(G²)
    and well-coveredness are read through the graph's memo.
    """
    _require_vertices(g)
    certificates: dict = {}

    pm = has_pendant_perfect_matching(g)
    certificates["pendant_pm"] = (
        {"matching": sorted(sorted(e) for e in pm)} if pm is not None else None)

    simp = memoized(g, simplicial_vertices)
    simplicial_flag = is_simplicial_graph(g)
    certificates["simplicial"] = {"simplicial_vertices": sorted(simp)}

    def run(name, thunk):
        try:
            return thunk()
        except BudgetExhausted as exc:
            certificates[name] = {"budget_exhausted": exc.nodes_used}
            return _EXHAUSTED

    a = run("alpha", lambda: memoized(g, alpha, budget))
    m_val, m_set = memoized(g, mu)

    ke: bool | None = None
    if a is not _EXHAUSTED:
        ke = a[0] + m_val == g.n
        certificates["ke"] = {
            "alpha": a[0], "mu": m_val, "order": g.n,
            "stable_set": sorted(a[1]),
            "matching": sorted(sorted(e) for e in m_set),
        }

    wc: bool | None = None
    wc_pair = run("well_covered", lambda: memoized(g, is_well_covered, budget))
    if wc_pair is not _EXHAUSTED:
        wc, wc_cert = wc_pair
        certificates["well_covered"] = (
            {"alpha": a[0]} if wc and a is not _EXHAUSTED
            else {} if wc
            else {"small_maximal_stable_set": sorted(wc_cert)})

    vwc: bool | None = None
    isolated_free = all(g.degree(v) > 0 for v in range(g.n))
    if wc is False or not isolated_free:
        vwc = False
    elif wc is True and a is not _EXHAUSTED:
        vwc = g.n == 2 * a[0]
    if vwc is not None:
        certificates["very_well_covered"] = {
            "well_covered": wc, "isolated_free": isolated_free, "order": g.n,
            "alpha": a[0] if a is not _EXHAUSTED else None,
        }

    ss: bool | None = None
    if pm is not None:
        # a pendant perfect matching forces square stability; one pendant
        # endpoint per matched edge is the distance-3 certificate
        ss = True
        one_per_edge = sorted(min(e, key=lambda v: (g.degree(v), v)) for e in pm)
        certificates["square_stable"] = {"distance3_stable_set": one_per_edge}
    else:
        flag = run("square_stable", lambda: is_square_stable(g, budget))
        if flag is not _EXHAUSTED:
            ss = flag
            # a stable set of the square is pairwise at distance >= 3 in g
            certificates["square_stable"] = (
                {"distance3_stable_set": sorted(
                    memoized(memoized(g, square), alpha, budget)[1])} if ss
                else {"alpha": a[0] if a is not _EXHAUSTED else None})

    return {
        "ke": ke,
        "well_covered": wc,
        "very_well_covered": vwc,
        "square_stable": ss,
        "simplicial_graph": simplicial_flag,
        "pendant_perfect_matching": pm is not None,
        "certificates": certificates,
    }
