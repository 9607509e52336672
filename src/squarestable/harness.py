"""Machine-checking of the square-stability claims over graph families.

Every claim is data: named hypothesis conjuncts, and under them conditions
or values that recompute each side of the claim from defining formulas,
never from another claim, so an error in one equivalence cannot mask
another.  One builder derives each claim's filter and evaluator.  A verdict
reports how many graphs were seen, how many satisfied the hypotheses, how
many were skipped because a solver ran out of budget (a skip is never a
refutation), and the lexicographically least graph6 counterexample if any
violation was found.

Negative controls deliberately check false claims, each over its own families;
a control passes only when its claim is refuted by a concrete, re-verifiable
counterexample.  A control that comes back green is a harness failure.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from typing import Callable, Iterable, NamedTuple, Sequence

from .codec import decode_graph6, encode_graph6
from .families import GraphFamily, generate
from .graphs import (Graph, components, delete_closed_neighborhood, distances,
                     girth_at_least, is_connected, is_cycle_of_length, is_tree,
                     memoized, pendant_edges, square)
from .invariants import (DEFAULT_BUDGET, BudgetExhausted, SolverBudget, _Meter,
                         _stable_search, alpha, count_perfect_matchings,
                         core_set, gamma, ind_dom, mu, omega_union, simplexes,
                         simplicial_vertices, theta)
from .recognizers import (has_pendant_perfect_matching, is_koenig_egervary,
                          is_simplicial_graph, is_square_stable,
                          is_very_well_covered, is_well_covered,
                          vertex_in_exactly_one_simplex)


# ---------------------------------------------------------------------------
# per-graph facts (definition-level, no recognizer shortcuts)
#
# Repeated values are read through the graph's memo, keyed by the function
# that computes them (:func:`~squarestable.graphs.memoized`), so the
# recognizers and ``invariant_report`` share the entries.  A solver out of
# budget leaves nothing behind, so a skip stays a skip.  Solvers and
# predicates are looked up as module globals at each call.


def _alpha(g, budget) -> int:
    return memoized(g, alpha, budget)[0]


def _square_union(g, budget):
    return memoized(memoized(g, square), omega_union, budget)


def _square_core(g, budget):
    return memoized(memoized(g, square), core_set, budget)


def _distance3_maximum_stable_set_exists(g, budget) -> bool:
    """Some maximum stable set is pairwise at distance >= 3: one feasibility
    search for alpha(g) vertices over the pairs that ``distances`` puts
    closer than 3.  It reads neither the square nor its stability number."""
    close = tuple(sum(1 << u for u, d in enumerate(row) if d is not None and 0 < d < 3)
                  for row in distances(g))
    target = memoized(g, alpha, budget)[0]
    meter = _Meter("distance3_maximum_stable_set", budget)
    return _stable_search(close, (1 << g.n) - 1, meter, target) is not None


def _square_omega_is_pendant_selections(g, matching, budget) -> bool:
    """Ω(G²) is the selections of ``matching`` (one pendant end per matched
    edge) iff ∪Ω(G²) lies inside the pendant ends and every selection is
    stable in G².  Then a maximum stable set S of G² takes at most one end
    per edge, whose ends are adjacent, and α(G²) >= |M| >= |S| = α(G²), so S
    is a selection; each stable selection has size |M| = α(G²)."""
    sq = memoized(g, square)
    ends = [frozenset(w for w in edge if g.degree(w) == 1) for edge in matching]
    every = frozenset().union(*ends)
    return (memoized(sq, omega_union, budget) <= every
            and all(not sq.neighbors(w) & (every - pair) for pair in ends for w in pair))


def _lone_simplicial(g) -> frozenset[int]:
    """The simplicial vertices that are the only simplicial one of their simplex."""
    simp = memoized(g, simplicial_vertices)
    return frozenset(v for s in simplexes(g) if len(s & simp) == 1 for v in s & simp)


def _deletion_failure(g, budget) -> int | None:
    """The least v for which G - N[v] is empty, not well covered, or of
    stability number other than alpha(G) - 1; ``None`` when there is none."""
    a = _alpha(g, budget)
    for v in range(g.n):
        h, _ = delete_closed_neighborhood(g, v)
        if (h.n < 1 or not memoized(h, is_well_covered, budget)[0]
                or memoized(h, alpha, budget)[0] != a - 1):
            return v
    return None


# ---------------------------------------------------------------------------
# claims as data


#: Named hypothesis conjuncts, each ``(g, budget) -> bool``.
CONJUNCTS: dict[str, Callable[[Graph, SolverBudget], bool]] = {
    "nonempty": lambda g, b: g.n >= 1,
    "order>=2": lambda g, b: g.n >= 2,
    "connected": lambda g, b: memoized(g, is_connected),
    "disconnected": lambda g, b: not memoized(g, is_connected),
    "tree": lambda g, b: is_tree(g),
    "girth>=6": lambda g, b: girth_at_least(g, 6),
    "not-C7": lambda g, b: not is_cycle_of_length(g, 7),
    "no-isolated": lambda g, b: all(g.degree(v) > 0 for v in range(g.n)),
    "not-complete": lambda g, b: any(g.degree(v) < g.n - 1 for v in range(g.n)),
    "square-stable": lambda g, b: is_square_stable(g, b),
    "ke": lambda g, b: is_koenig_egervary(g, b),
    "square-ke": lambda g, b: is_koenig_egervary(memoized(g, square), b),
    "pendant-pm": lambda g, b: memoized(g, has_pendant_perfect_matching) is not None,
    "well-covered": lambda g, b: memoized(g, is_well_covered, b)[0],
    "alpha-pendants": lambda g, b: len(pendant_edges(g)) == memoized(g, alpha, b)[0],
    "unique-pm": lambda g, b: count_perfect_matchings(g, limit=2, budget=b) == 1,
    # |Ω| = 1 exactly when the union of Ω equals its intersection
    "unique-square-omega": lambda g, b: _square_union(g, b) == _square_core(g, b),
}


class Part(NamedTuple):
    """One conclusion of a claim, checked where all its ``hypotheses`` hold.

    ``hypotheses`` name entries of :data:`CONJUNCTS`, and so does a
    condition given as a string.  The ``test`` is ``"equal"`` (the
    conditions agree), ``"all"`` (they all hold) or ``"ascending"`` (the
    values never decrease, in order).  Outside ``"ascending"`` the values
    never decide a verdict, only describe a refutation, yet each is computed
    on every checked graph.  A report leaves out a value of ``None``.
    """

    hypotheses: tuple[str, ...]
    test: str
    conditions: dict = {}
    values: dict = {}


_TESTS: dict[str, Callable[[dict, dict], bool]] = {
    "equal": lambda conditions, values: len(set(conditions.values())) <= 1,
    "all": lambda conditions, values: all(conditions.values()),
    "ascending": lambda conditions, values: all(x <= y for x, y in pairwise(values.values())),
}

def _evaluators(parts: Sequence[Part]):
    """The ``applies`` and ``violation`` of a claim made of ``parts``.

    ``applies`` holds when all hypotheses of some part hold, tried left to
    right until one fails.  ``violation`` evaluates each part that applies:
    ``None`` when all pass their tests, else their conditions and values.
    """
    def resolve(named: dict) -> tuple:
        return tuple((k, CONJUNCTS[f] if isinstance(f, str) else f) for k, f in named.items())

    compiled = [(tuple(CONJUNCTS[h] for h in p.hypotheses), _TESTS[p.test],
                 resolve(p.conditions), resolve(p.values)) for p in parts]
    hypothesis_sets = tuple(c[0] for c in compiled)
    lone = len(parts) == 1

    def applies(g, budget):
        for hypotheses in hypothesis_sets:
            for holds in hypotheses:
                if not holds(g, budget):
                    break
            else:
                return True
        return False

    def violation(g, budget):
        conditions, values, bad = {}, {}, False
        for hypotheses, test, named_conditions, named_values in compiled:
            if lone or all(holds(g, budget) for holds in hypotheses):
                got = {k: f(g, budget) for k, f in named_conditions}
                report = {k: f(g, budget) for k, f in named_values}
                if not test(got, report):
                    bad = True
                conditions.update(got)
                values.update(report)
        if not bad:
            return None
        values = {k: v for k, v in values.items() if v is not None}
        return {k: v for k, v in (("conditions", conditions), ("values", values)) if v}

    return applies, violation


@dataclass(frozen=True)
class Claim:
    """The ``parts`` of a claim, the evaluators built from them, and a
    control's own search space, ``families`` (``()`` for a theorem)."""

    name: str
    description: str
    applies: Callable[[Graph, SolverBudget], bool]
    violation: Callable[[Graph, SolverBudget], dict | None]
    parts: tuple[Part, ...] = ()
    families: tuple[GraphFamily, ...] = ()


def _claim(name: str, description: str, *parts: Part, families=()) -> Claim:
    return Claim(name, description, *_evaluators(parts), parts, families)


#: α(G²), θ(G²), γ, i, α, θ in the order of the inequality chain.
_SIX = {
    "alpha_square": lambda g, b: memoized(memoized(g, square), alpha, b)[0],
    "theta_square": lambda g, b: memoized(memoized(g, square), theta, b)[0],
    "gamma": lambda g, b: memoized(g, gamma, b)[0],
    "ind_dom": lambda g, b: memoized(g, ind_dom, b)[0],
    "alpha": _alpha,
    "theta": lambda g, b: memoized(g, theta, b)[0],
}

CLAIMS: dict[str, Claim] = {c.name: c for c in [
    _claim("inequality-chain",
           "alpha(G^2) <= theta(G^2) <= gamma(G) <= i(G) <= alpha(G) <= theta(G)",
           Part(("nonempty",), "ascending", values=_SIX)),
    _claim("square-stable-equivalences",
           "six equivalent descriptions of connected square-stable graphs",
           Part(("nonempty", "connected"), "equal", {
               "unique_simplex_cover": lambda g, b: vertex_in_exactly_one_simplex(g),
               "alpha_square_equal": "square-stable",
               "theta_square_equal": lambda g, b: (
                   memoized(g, theta, b)[0] == memoized(memoized(g, square), theta, b)[0]),
               "all_six_invariants_equal": lambda g, b: len({f(g, b) for f in _SIX.values()}) == 1,
               "simplicial_and_well_covered": lambda g, b: (
                   is_simplicial_graph(g) and memoized(g, is_well_covered, b)[0]),
               "distance3_maximum_stable_set": _distance3_maximum_stable_set_exists,
           }, {k: _SIX[k] for k in ("alpha", "alpha_square", "theta", "theta_square",
                                    "gamma", "ind_dom")})),
    _claim("square-simplicial-correspondence",
           "in the square of a square-stable graph, Omega covers exactly the "
           "simplicial vertices and the core keeps exactly the lone ones",
           Part(("nonempty", "connected", "square-stable"), "all", {
               "square_omega_union_is_simp": lambda g, b: (
                   _square_union(g, b) == memoized(g, simplicial_vertices)),
               "square_core_is_lone_simplicial": lambda g, b: (
                   _square_core(g, b) == memoized(g, _lone_simplicial)),
           }, {
               "square_omega_union": lambda g, b: sorted(_square_union(g, b)),
               "simplicial_vertices": lambda g, b: sorted(memoized(g, simplicial_vertices)),
               "square_core": lambda g, b: sorted(_square_core(g, b)),
               "lone_simplicial": lambda g, b: sorted(memoized(g, _lone_simplicial)),
           })),
    _claim("pendant-matching-implies-square-stable",
           "a pendant perfect matching forces square stability and pins down "
           "the maximum stable sets of the square",
           Part(("nonempty", "pendant-pm"), "all", {
               "square_stable": "square-stable",
               "square_omega_is_pendant_selections": lambda g, b: (
                   _square_omega_is_pendant_selections(
                       g, memoized(g, has_pendant_perfect_matching), b)),
           }, {
               "square_omega_union": lambda g, b: sorted(_square_union(g, b)),
               "pendant_ends": lambda g, b: sorted(
                   w for e in memoized(g, has_pendant_perfect_matching)
                   for w in e if g.degree(w) == 1),
           })),
    _claim("ke-square-stable-characterization",
           "for connected Konig-Egervary graphs: square stability == pendant "
           "perfect matching == very well covered with alpha pendant edges",
           Part(("order>=2", "connected", "ke"), "equal", {
               "square_stable": "square-stable",
               "pendant_perfect_matching": "pendant-pm",
               "vwc_with_alpha_pendants": lambda g, b: (
                   is_very_well_covered(g, b) and len(pendant_edges(g)) == _alpha(g, b)),
           }, {"alpha": _alpha, "pendant_edges": lambda g, b: len(pendant_edges(g))})),
    _claim("tree-well-covered-equivalences",
           "for trees: well covered == very well covered == pendant perfect "
           "matching == square-stable",
           Part(("order>=2", "tree"), "equal", {
               "well_covered": "well-covered",
               "very_well_covered": lambda g, b: is_very_well_covered(g, b),
               "pendant_perfect_matching": "pendant-pm",
               "square_stable": "square-stable",
           })),
    _claim("square-stable-alpha-le-mu",
           "connected square-stable graphs satisfy alpha <= mu",
           Part(("order>=2", "connected", "square-stable"), "ascending",
                values={"alpha": _alpha, "mu": lambda g, b: memoized(g, mu)[0]})),
    _claim("square-ke-perfect-matching",
           "when the square is Konig-Egervary: square-stable == Konig-Egervary "
           "with a perfect matching",
           Part(("order>=2", "connected", "square-ke"), "equal", {
               "square_stable": "square-stable",
               "ke_with_perfect_matching": lambda g, b: (
                   is_koenig_egervary(g, b) and 2 * memoized(g, mu)[0] == g.n),
           }, {"alpha": _alpha, "mu": lambda g, b: memoized(g, mu)[0],
               "order": lambda g, b: g.n})),
    _claim("vwc-pendant-characterization",
           "square-stable and very well covered == Konig-Egervary with a "
           "perfect matching and alpha pendant edges; square stability makes "
           "the Konig-Egervary property agree between G and its square",
           Part(("order>=2", "connected"), "equal", {
               "square_stable_and_vwc": lambda g, b: (
                   is_square_stable(g, b) and is_very_well_covered(g, b)),
               "ke_pm_alpha_pendants": lambda g, b: (
                   is_koenig_egervary(g, b) and 2 * memoized(g, mu)[0] == g.n
                   and len(pendant_edges(g)) == _alpha(g, b)),
           }),
           Part(("nonempty", "square-stable"), "equal",
                {"ke_base": "ke", "ke_square": "square-ke"})),
    _claim("girth6-well-covered-equivalences",
           "five equivalent descriptions for connected graphs of girth >= 6 "
           "other than the 7-cycle and the single vertex",
           Part(("order>=2", "connected", "girth>=6", "not-C7"), "equal", {
               "well_covered": "well-covered",
               "pendant_perfect_matching": "pendant-pm",
               "very_well_covered": lambda g, b: is_very_well_covered(g, b),
               "ke_alpha_pendants_empty_core": lambda g, b: (
                   is_koenig_egervary(g, b) and len(pendant_edges(g)) == _alpha(g, b)
                   and not memoized(g, core_set, b)),
               "ke_and_square_stable": lambda g, b: (
                   is_koenig_egervary(g, b) and is_square_stable(g, b)),
           }, {
               "alpha": _alpha,
               "pendant_edges": lambda g, b: len(pendant_edges(g)),
               "core": lambda g, b: sorted(memoized(g, core_set, b)),
           })),
    _claim("very-well-covered-basics",
           "very well covered == well covered Konig-Egervary (no isolated "
           "vertices); for connected Konig-Egervary graphs well covered == "
           "very well covered; closed-neighborhood deletion keeps well "
           "covered and drops alpha by one",
           Part(("order>=2", "no-isolated"), "all", {
               "vwc_equals_wc_and_ke": lambda g, b: is_very_well_covered(g, b) == (
                   memoized(g, is_well_covered, b)[0] and is_koenig_egervary(g, b)),
           }),
           Part(("order>=2", "connected", "ke"), "all", {
               "connected_ke_wc_equals_vwc": lambda g, b: (
                   memoized(g, is_well_covered, b)[0] == is_very_well_covered(g, b)),
           }),
           Part(("order>=2", "not-complete", "well-covered"), "all", {
               "neighborhood_deletion_preserves": lambda g, b: (
                   memoized(g, _deletion_failure, b) is None),
           }, {"failing_vertex": lambda g, b: memoized(g, _deletion_failure, b)})),
    _claim("componentwise-square-stability",
           "a disconnected graph is square-stable exactly when every "
           "component is",
           Part(("nonempty", "disconnected"), "equal", {
               "whole_square_stable": "square-stable",
               "all_components_square_stable": lambda g, b: all(
                   is_square_stable(comp, b) for comp, _ in components(g)),
           })),
]}


# negative controls: claims that are deliberately false, each refuted within
# its own exhaustive search space
ALL_CLAIMS: dict[str, Claim] = {**CLAIMS, **{c.name: c for c in [
    _claim("control-well-covered-implies-square-stable",
           "planted-false: well covered would force square stability",
           Part(("nonempty", "well-covered"), "all", {"square_stable": "square-stable"}),
           families=tuple(GraphFamily.exhaustive(n) for n in range(1, 5))),
    _claim("control-unique-perfect-matching-implies-square-stable",
           "planted-false: a unique perfect matching would force square stability",
           Part(("nonempty", "unique-pm"), "all", {"square_stable": "square-stable"}),
           families=tuple(GraphFamily.exhaustive(n) for n in range(1, 7))),
    _claim("control-unique-square-maximum-implies-square-stable",
           "planted-false: a unique maximum stable set in the square would "
           "force square stability",
           Part(("nonempty", "unique-square-omega"), "all", {"square_stable": "square-stable"}),
           families=tuple(GraphFamily.exhaustive(n) for n in range(1, 7))),
    _claim("control-ke-pendant-count-implies-square-stable",
           "planted-false: Konig-Egervary with alpha pendant edges would force "
           "square stability and very-well-coveredness (drops the perfect "
           "matching requirement)",
           Part(("order>=2", "connected", "ke", "alpha-pendants"), "all",
                {"square_stable": "square-stable",
                 "very_well_covered": lambda g, b: is_very_well_covered(g, b)}),
           families=tuple(GraphFamily.exhaustive(n) for n in range(1, 5))),
]}}


# ---------------------------------------------------------------------------
# engine


#: Graphs per ``--jobs`` batch: small enough that every worker gets several
#: batches of a labeled sweep, large enough to amortize the pickling.
_BATCH_SIZE = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most workers worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(claim: Claim, graphs: Iterable[Graph], budget: SolverBudget):
    seen = checked = skipped = 0
    best: tuple[str, dict] | None = None
    for g in graphs:
        seen += 1
        try:
            if not claim.applies(g, budget):
                continue
            details = claim.violation(g, budget)
        except BudgetExhausted:
            skipped += 1
            continue
        checked += 1
        if details is not None:
            s = encode_graph6(g)
            if best is None or s < best[0]:
                best = (s, details)
    return seen, checked, skipped, best


def _scan_encoded(args: tuple[str, tuple[str, ...], SolverBudget]):
    name, lines, budget = args
    claim = ALL_CLAIMS[name]
    return _scan(claim, (decode_graph6(s) for s in lines), budget)


def _merge(results: Iterable[tuple[int, int, int, tuple[str, dict] | None]]):
    """Sum the counts of pooled ``_scan`` results and keep the least counterexample."""
    seen = checked = skipped = 0
    best: tuple[str, dict] | None = None
    for s, c, k, b in results:
        seen += s
        checked += c
        skipped += k
        if b is not None and (best is None or b[0] < best[0]):
            best = b
    return seen, checked, skipped, best


def run_claim(
    name: str,
    family: GraphFamily | Sequence[GraphFamily],
    budget: SolverBudget = DEFAULT_BUDGET,
    jobs: int = 1,
) -> dict:
    """Check one registered claim over a family; the verdict is the record
    ``verify`` prints."""
    claim = ALL_CLAIMS[name]
    fams = (family,) if isinstance(family, GraphFamily) else tuple(family)
    graphs = chain.from_iterable(map(generate, fams))
    # a family of at most one batch would run in one worker anyway: it is
    # scanned here as generated, and a serial run reads no head at all
    head = list(islice(graphs, _BATCH_SIZE + 1 if jobs > 1 else 0))
    graphs = chain(head, graphs)
    if len(head) <= _BATCH_SIZE:
        seen, checked, skipped, best = _scan(claim, graphs, budget)
    else:
        batches = []
        while chunk := tuple(encode_graph6(g) for g in islice(graphs, _BATCH_SIZE)):
            batches.append((name, chunk, budget))
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(batches), _usable_cpus())) as pool:
            seen, checked, skipped, best = _merge(pool.map(_scan_encoded, batches))
    return {
        "theorem": name,
        "kind": "control" if claim.families else "theorem",
        "family": " + ".join(f.describe() for f in fams),
        "graphs_seen": seen,
        "graphs_checked": checked,
        "skipped": skipped,
        "complete": skipped == 0,
        "passed": best is None,
        "counterexample": None if best is None else {"graph6": best[0], **best[1]},
    }


def reverify_counterexample(name: str, counterexample: dict,
                            budget: SolverBudget = DEFAULT_BUDGET) -> bool:
    """Re-run a claim on a reported counterexample straight from its graph6."""
    claim = ALL_CLAIMS[name]
    g = decode_graph6(counterexample["graph6"])
    return claim.applies(g, budget) and claim.violation(g, budget) is not None


def run_control(name: str, budget: SolverBudget = DEFAULT_BUDGET, jobs: int = 1) -> dict:
    """Run one planted-false claim over its own families; it must be refuted
    and re-verified.

    The verdict inverts the usual meaning of ``passed``: a control passes
    when its claim fails with a counterexample that re-verifies.
    """
    verdict = run_claim(name, ALL_CLAIMS[name].families, budget, jobs)
    refuted = (not verdict["passed"]
               and reverify_counterexample(name, verdict["counterexample"], budget))
    return {**verdict, "passed": refuted}
