"""Machine-checking of the square-stability claims over graph families.

Every claim is registered with a hypothesis filter and a violation evaluator
that recomputes each side of the claim from defining formulas, never from
another claim, so an error in one equivalence cannot mask another.  A verdict
reports how many graphs were seen, how many satisfied the hypotheses, how
many were skipped because a solver ran out of budget (a skip is never a
refutation), and the lexicographically least graph6 counterexample if any
violation was found.

Negative controls deliberately check false claims; a control passes only when
its claim is refuted by a concrete, re-verifiable counterexample.  A control
that comes back green is a harness failure.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one claim checked over one family."""

    theorem_id: str
    family: str
    graphs_seen: int
    graphs_checked: int
    skipped: int
    passed: bool
    counterexample: dict | None
    kind: str = "theorem"

    @property
    def complete(self) -> bool:
        return self.skipped == 0

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "kind": self.kind,
            "family": self.family,
            "graphs_seen": self.graphs_seen,
            "graphs_checked": self.graphs_checked,
            "skipped": self.skipped,
            "complete": self.complete,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=False)


@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    applies: Callable[[Graph, SolverBudget], bool]
    violation: Callable[[Graph, SolverBudget], dict | None]


# ---------------------------------------------------------------------------
# per-graph facts (definition-level, no recognizer shortcuts)
#
# Repeated values are read through the graph's memo, keyed by the function
# that computes them (:func:`~squarestable.graphs.memoized`), so the
# recognizers and ``invariant_report`` share the entries.  A solver out of
# budget leaves nothing behind, so a skip stays a skip.  Solvers and
# predicates are looked up as module globals at each call.


def _distance3_maximum_stable_set_exists(g, budget) -> bool:
    """Some maximum stable set is pairwise at distance >= 3: one feasibility
    search for alpha(g) vertices over the pairs that ``distances`` puts
    closer than 3.  It reads neither the square nor its stability number."""
    close = tuple(sum(1 << u for u, d in enumerate(row) if d is not None and 0 < d < 3)
                  for row in distances(g))
    target = memoized(g, alpha, budget)[0]
    meter = _Meter("distance3_maximum_stable_set", budget, g.n)
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


def _equal_or_table(conditions: dict[str, bool], values: dict | None = None) -> dict | None:
    if len(set(conditions.values())) <= 1:
        return None
    out = {"conditions": conditions}
    if values:
        out["values"] = values
    return out


# ---------------------------------------------------------------------------
# claim evaluators


def _applies_nonempty(g, budget):
    return g.n >= 1


def _violation_chain(g, budget):
    sq = memoized(g, square)
    vals = {
        "alpha_square": memoized(sq, alpha, budget)[0],
        "theta_square": memoized(sq, theta, budget)[0],
        "gamma": memoized(g, gamma, budget)[0],
        "ind_dom": memoized(g, ind_dom, budget)[0],
        "alpha": memoized(g, alpha, budget)[0],
        "theta": memoized(g, theta, budget)[0],
    }
    chain = [vals["alpha_square"], vals["theta_square"], vals["gamma"],
             vals["ind_dom"], vals["alpha"], vals["theta"]]
    if all(a <= b for a, b in zip(chain, chain[1:])):
        return None
    return {"values": vals}


def _applies_connected(g, budget):
    return g.n >= 1 and memoized(g, is_connected)


def _violation_equivalences(g, budget):
    sq = memoized(g, square)
    a = memoized(g, alpha, budget)[0]
    a2 = memoized(sq, alpha, budget)[0]
    t = memoized(g, theta, budget)[0]
    t2 = memoized(sq, theta, budget)[0]
    gam = memoized(g, gamma, budget)[0]
    ind = memoized(g, ind_dom, budget)[0]
    conditions = {
        "unique_simplex_cover": vertex_in_exactly_one_simplex(g),
        "alpha_square_equal": a == a2,
        "theta_square_equal": t == t2,
        "all_six_invariants_equal": a2 == t2 == gam == ind == a == t,
        "simplicial_and_well_covered": (is_simplicial_graph(g)
                                        and memoized(g, is_well_covered, budget)[0]),
        "distance3_maximum_stable_set": _distance3_maximum_stable_set_exists(g, budget),
    }
    return _equal_or_table(conditions, {
        "alpha": a, "alpha_square": a2, "theta": t, "theta_square": t2,
        "gamma": gam, "ind_dom": ind})


def _applies_connected_square_stable(g, budget):
    return g.n >= 1 and memoized(g, is_connected) and is_square_stable(g, budget)


def _violation_simplicial_correspondence(g, budget):
    sq = memoized(g, square)
    union = memoized(sq, omega_union, budget)
    simp = memoized(g, simplicial_vertices)
    core_sq = memoized(sq, core_set, budget)
    lone = set()
    for s in simplexes(g):
        owners = s & simp
        if len(owners) == 1:
            lone |= owners
    conditions = {
        "square_omega_union_is_simp": union == simp,
        "square_core_is_lone_simplicial": core_sq == frozenset(lone),
    }
    if all(conditions.values()):
        return None
    return {"conditions": conditions, "values": {
        "square_omega_union": sorted(union),
        "simplicial_vertices": sorted(simp),
        "square_core": sorted(core_sq),
        "lone_simplicial": sorted(lone)}}


def _applies_pendant_pm(g, budget):
    return g.n >= 1 and memoized(g, has_pendant_perfect_matching) is not None


def _violation_pendant_matching(g, budget):
    m = memoized(g, has_pendant_perfect_matching)
    assert m is not None
    conditions = {
        "square_stable": is_square_stable(g, budget),
        "square_omega_is_pendant_selections": _square_omega_is_pendant_selections(
            g, m, budget),
    }
    if all(conditions.values()):
        return None
    return {"conditions": conditions, "values": {
        "square_omega_union": sorted(memoized(memoized(g, square), omega_union, budget)),
        "pendant_ends": sorted(w for e in m for w in e if g.degree(w) == 1)}}


def _applies_connected_ke(g, budget):
    return g.n >= 2 and memoized(g, is_connected) and is_koenig_egervary(g, budget)


def _violation_ke_characterization(g, budget):
    a = memoized(g, alpha, budget)[0]
    conditions = {
        "square_stable": is_square_stable(g, budget),
        "pendant_perfect_matching": (memoized(g, has_pendant_perfect_matching)
                                     is not None),
        "vwc_with_alpha_pendants": (is_very_well_covered(g, budget)
                                    and len(pendant_edges(g)) == a),
    }
    return _equal_or_table(conditions, {
        "alpha": a, "pendant_edges": len(pendant_edges(g))})


def _applies_tree(g, budget):
    return g.n >= 2 and is_tree(g)


def _violation_tree_equivalences(g, budget):
    conditions = {
        "well_covered": memoized(g, is_well_covered, budget)[0],
        "very_well_covered": is_very_well_covered(g, budget),
        "pendant_perfect_matching": (memoized(g, has_pendant_perfect_matching)
                                     is not None),
        "square_stable": is_square_stable(g, budget),
    }
    return _equal_or_table(conditions)


def _applies_connected_ss_n2(g, budget):
    return g.n >= 2 and memoized(g, is_connected) and is_square_stable(g, budget)


def _violation_alpha_le_mu(g, budget):
    a = memoized(g, alpha, budget)[0]
    m = memoized(g, mu)[0]
    if a <= m:
        return None
    return {"values": {"alpha": a, "mu": m}}


def _applies_square_ke(g, budget):
    return (g.n >= 2 and memoized(g, is_connected)
            and is_koenig_egervary(memoized(g, square), budget))


def _violation_square_ke(g, budget):
    conditions = {
        "square_stable": is_square_stable(g, budget),
        "ke_with_perfect_matching": (is_koenig_egervary(g, budget)
                                     and 2 * memoized(g, mu)[0] == g.n),
    }
    return _equal_or_table(conditions, {
        "alpha": memoized(g, alpha, budget)[0], "mu": memoized(g, mu)[0],
        "order": g.n})


def _applies_vwc_characterization(g, budget):
    return ((g.n >= 2 and memoized(g, is_connected))
            or (g.n >= 1 and is_square_stable(g, budget)))


def _violation_vwc_characterization(g, budget):
    details: dict = {"conditions": {}, "values": {}}
    bad = False
    if g.n >= 2 and memoized(g, is_connected):
        left = is_square_stable(g, budget) and is_very_well_covered(g, budget)
        right = (is_koenig_egervary(g, budget) and 2 * memoized(g, mu)[0] == g.n
                 and len(pendant_edges(g)) == memoized(g, alpha, budget)[0])
        details["conditions"]["square_stable_and_vwc"] = left
        details["conditions"]["ke_pm_alpha_pendants"] = right
        bad = bad or left != right
    if is_square_stable(g, budget):
        ke_g = is_koenig_egervary(g, budget)
        ke_sq = is_koenig_egervary(memoized(g, square), budget)
        details["conditions"]["ke_base"] = ke_g
        details["conditions"]["ke_square"] = ke_sq
        bad = bad or ke_g != ke_sq
    return details if bad else None


def _applies_girth6(g, budget):
    return (g.n >= 2 and memoized(g, is_connected) and girth_at_least(g, 6)
            and not is_cycle_of_length(g, 7))


def _violation_girth6(g, budget):
    a = memoized(g, alpha, budget)[0]
    conditions = {
        "well_covered": memoized(g, is_well_covered, budget)[0],
        "pendant_perfect_matching": (memoized(g, has_pendant_perfect_matching)
                                     is not None),
        "very_well_covered": is_very_well_covered(g, budget),
        "ke_alpha_pendants_empty_core": (is_koenig_egervary(g, budget)
                                         and len(pendant_edges(g)) == a
                                         and not memoized(g, core_set, budget)),
        "ke_and_square_stable": (is_koenig_egervary(g, budget)
                                 and is_square_stable(g, budget)),
    }
    return _equal_or_table(conditions, {
        "alpha": a, "pendant_edges": len(pendant_edges(g)),
        "core": sorted(memoized(g, core_set, budget))})


def _is_complete_graph(g):
    return all(g.degree(v) == g.n - 1 for v in range(g.n))


def _applies_vwc_basics(g, budget):
    if g.n < 2:
        return False
    if all(g.degree(v) > 0 for v in range(g.n)):
        return True
    if memoized(g, is_connected) and is_koenig_egervary(g, budget):
        return True
    return not _is_complete_graph(g) and memoized(g, is_well_covered, budget)[0]


def _violation_vwc_basics(g, budget):
    conditions: dict = {}
    values: dict = {}
    bad = False
    if g.n >= 2 and all(g.degree(v) > 0 for v in range(g.n)):
        left = is_very_well_covered(g, budget)
        right = (memoized(g, is_well_covered, budget)[0]
                 and is_koenig_egervary(g, budget))
        conditions["vwc_equals_wc_and_ke"] = left == right
        bad = bad or left != right
    if g.n >= 2 and memoized(g, is_connected) and is_koenig_egervary(g, budget):
        eq = memoized(g, is_well_covered, budget)[0] == is_very_well_covered(g, budget)
        conditions["connected_ke_wc_equals_vwc"] = eq
        bad = bad or not eq
    if (g.n >= 2 and not _is_complete_graph(g)
            and memoized(g, is_well_covered, budget)[0]):
        a = memoized(g, alpha, budget)[0]
        all_good = True
        for v in range(g.n):
            h, _ = delete_closed_neighborhood(g, v)
            if (h.n < 1 or not memoized(h, is_well_covered, budget)[0]
                    or memoized(h, alpha, budget)[0] != a - 1):
                all_good = False
                values["failing_vertex"] = v
                break
        conditions["neighborhood_deletion_preserves"] = all_good
        bad = bad or not all_good
    if not bad:
        return None
    out = {"conditions": conditions}
    if values:
        out["values"] = values
    return out


def _applies_disconnected(g, budget):
    return g.n >= 1 and not memoized(g, is_connected)


def _violation_componentwise(g, budget):
    whole = is_square_stable(g, budget)
    parts = all(is_square_stable(comp, budget) for comp, _ in components(g))
    if whole == parts:
        return None
    return {"conditions": {"whole_square_stable": whole,
                           "all_components_square_stable": parts}}


# ---------------------------------------------------------------------------
# negative-control evaluators (claims that are deliberately false)


def _applies_well_covered_only(g, budget):
    return g.n >= 1 and memoized(g, is_well_covered, budget)[0]


def _applies_unique_pm(g, budget):
    return g.n >= 1 and count_perfect_matchings(g, limit=2, budget=budget) == 1


def _applies_unique_square_omega(g, budget):
    # |Ω| = 1 exactly when the union of Ω equals its intersection
    sq = memoized(g, square)
    return g.n >= 1 and memoized(sq, omega_union, budget) == memoized(sq, core_set, budget)


def _applies_ke_alpha_pendants(g, budget):
    return (g.n >= 2 and memoized(g, is_connected) and is_koenig_egervary(g, budget)
            and len(pendant_edges(g)) == memoized(g, alpha, budget)[0])


def _violation_not_square_stable(g, budget):
    if is_square_stable(g, budget):
        return None
    return {"conditions": {"square_stable": False}}


def _violation_not_ss_and_vwc(g, budget):
    if is_square_stable(g, budget) and is_very_well_covered(g, budget):
        return None
    return {"conditions": {"square_stable": is_square_stable(g, budget),
                           "very_well_covered": is_very_well_covered(g, budget)}}


# ---------------------------------------------------------------------------
# registry


CLAIMS: dict[str, Claim] = {c.name: c for c in [
    Claim("inequality-chain",
          "alpha(G^2) <= theta(G^2) <= gamma(G) <= i(G) <= alpha(G) <= theta(G)",
          _applies_nonempty, _violation_chain),
    Claim("square-stable-equivalences",
          "six equivalent descriptions of connected square-stable graphs",
          _applies_connected, _violation_equivalences),
    Claim("square-simplicial-correspondence",
          "in the square of a square-stable graph, Omega covers exactly the "
          "simplicial vertices and the core keeps exactly the lone ones",
          _applies_connected_square_stable, _violation_simplicial_correspondence),
    Claim("pendant-matching-implies-square-stable",
          "a pendant perfect matching forces square stability and pins down "
          "the maximum stable sets of the square",
          _applies_pendant_pm, _violation_pendant_matching),
    Claim("ke-square-stable-characterization",
          "for connected Konig-Egervary graphs: square stability == pendant "
          "perfect matching == very well covered with alpha pendant edges",
          _applies_connected_ke, _violation_ke_characterization),
    Claim("tree-well-covered-equivalences",
          "for trees: well covered == very well covered == pendant perfect "
          "matching == square-stable",
          _applies_tree, _violation_tree_equivalences),
    Claim("square-stable-alpha-le-mu",
          "connected square-stable graphs satisfy alpha <= mu",
          _applies_connected_ss_n2, _violation_alpha_le_mu),
    Claim("square-ke-perfect-matching",
          "when the square is Konig-Egervary: square-stable == Konig-Egervary "
          "with a perfect matching",
          _applies_square_ke, _violation_square_ke),
    Claim("vwc-pendant-characterization",
          "square-stable and very well covered == Konig-Egervary with a "
          "perfect matching and alpha pendant edges; square stability makes "
          "the Konig-Egervary property agree between G and its square",
          _applies_vwc_characterization, _violation_vwc_characterization),
    Claim("girth6-well-covered-equivalences",
          "five equivalent descriptions for connected graphs of girth >= 6 "
          "other than the 7-cycle and the single vertex",
          _applies_girth6, _violation_girth6),
    Claim("very-well-covered-basics",
          "very well covered == well covered Konig-Egervary (no isolated "
          "vertices); for connected Konig-Egervary graphs well covered == "
          "very well covered; closed-neighborhood deletion keeps well "
          "covered and drops alpha by one",
          _applies_vwc_basics, _violation_vwc_basics),
    Claim("componentwise-square-stability",
          "a disconnected graph is square-stable exactly when every "
          "component is",
          _applies_disconnected, _violation_componentwise),
]}


CONTROL_CLAIMS: dict[str, Claim] = {c.name: c for c in [
    Claim("control-well-covered-implies-square-stable",
          "planted-false: well covered would force square stability",
          _applies_well_covered_only, _violation_not_square_stable),
    Claim("control-unique-perfect-matching-implies-square-stable",
          "planted-false: a unique perfect matching would force square stability",
          _applies_unique_pm, _violation_not_square_stable),
    Claim("control-unique-square-maximum-implies-square-stable",
          "planted-false: a unique maximum stable set in the square would "
          "force square stability",
          _applies_unique_square_omega, _violation_not_square_stable),
    Claim("control-ke-pendant-count-implies-square-stable",
          "planted-false: Konig-Egervary with alpha pendant edges would force "
          "square stability and very-well-coveredness (drops the perfect "
          "matching requirement)",
          _applies_ke_alpha_pendants, _violation_not_ss_and_vwc),
]}

ALL_CLAIMS: dict[str, Claim] = {**CLAIMS, **CONTROL_CLAIMS}

#: Exhaustive search spaces in which each control must find its refutation.
CONTROL_FAMILIES: dict[str, tuple[GraphFamily, ...]] = {
    "control-well-covered-implies-square-stable":
        tuple(GraphFamily.exhaustive(n) for n in range(1, 5)),
    "control-unique-perfect-matching-implies-square-stable":
        tuple(GraphFamily.exhaustive(n) for n in range(1, 7)),
    "control-unique-square-maximum-implies-square-stable":
        tuple(GraphFamily.exhaustive(n) for n in range(1, 7)),
    "control-ke-pendant-count-implies-square-stable":
        tuple(GraphFamily.exhaustive(n) for n in range(1, 5)),
}


# ---------------------------------------------------------------------------
# engine


#: Graphs per ``--jobs`` batch: small enough that every worker gets several
#: batches of a labeled sweep, large enough to amortize the pickling.
_BATCH_SIZE = 256


def _families_tuple(family: GraphFamily | Sequence[GraphFamily]) -> tuple[GraphFamily, ...]:
    if isinstance(family, GraphFamily):
        return (family,)
    return tuple(family)


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
    """Sum the counts of ``_scan`` results and keep the least counterexample."""
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
) -> TheoremVerdict:
    """Check one registered claim over a family and aggregate the verdict."""
    claim = ALL_CLAIMS[name]
    fams = _families_tuple(family)
    if jobs <= 1:
        seen, checked, skipped, best = _merge(
            _scan(claim, generate(fam), budget) for fam in fams)
    else:
        batches: list[tuple[str, tuple[str, ...], SolverBudget]] = []
        for fam in fams:
            bucket: list[str] = []
            for g in generate(fam):
                bucket.append(encode_graph6(g))
                if len(bucket) >= _BATCH_SIZE:
                    batches.append((name, tuple(bucket), budget))
                    bucket = []
            if bucket:
                batches.append((name, tuple(bucket), budget))
        if len(batches) <= 1:
            # one batch runs in one worker anyway: scan it here, fork nothing
            seen, checked, skipped, best = _merge(map(_scan_encoded, batches))
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(batches))) as pool:
                seen, checked, skipped, best = _merge(pool.map(_scan_encoded, batches))
    counterexample = None
    if best is not None:
        counterexample = {"graph6": best[0], **best[1]}
    return TheoremVerdict(
        theorem_id=name,
        family=" + ".join(f.describe() for f in fams),
        graphs_seen=seen,
        graphs_checked=checked,
        skipped=skipped,
        passed=best is None,
        counterexample=counterexample,
        kind="control" if name in CONTROL_CLAIMS else "theorem",
    )


def reverify_counterexample(name: str, counterexample: dict,
                            budget: SolverBudget = DEFAULT_BUDGET) -> bool:
    """Re-run a claim on a reported counterexample straight from its graph6."""
    claim = ALL_CLAIMS[name]
    g = decode_graph6(counterexample["graph6"])
    return claim.applies(g, budget) and claim.violation(g, budget) is not None


def run_negative_controls(
    budget: SolverBudget = DEFAULT_BUDGET, jobs: int = 1,
    names: Sequence[str] | None = None,
) -> list[TheoremVerdict]:
    """Run the planted-false claims; each must be refuted and re-verified.

    The returned verdicts invert the usual meaning of ``passed``: a control
    passes when its claim fails with a counterexample that re-verifies.
    """
    out = []
    for name, fams in CONTROL_FAMILIES.items():
        if names is not None and name not in names:
            continue
        verdict = run_claim(name, fams, budget, jobs)
        refuted = (not verdict.passed
                   and verdict.counterexample is not None
                   and reverify_counterexample(name, verdict.counterexample, budget))
        out.append(TheoremVerdict(
            theorem_id=name,
            family=verdict.family,
            graphs_seen=verdict.graphs_seen,
            graphs_checked=verdict.graphs_checked,
            skipped=verdict.skipped,
            passed=refuted,
            counterexample=verdict.counterexample,
            kind="control",
        ))
    return out
