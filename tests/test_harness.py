from collections import Counter
from pathlib import Path

import oracles
import squarestable.harness as harness
import squarestable.invariants as invariants
from conftest import labeled_graphs, patch_everywhere
from named_graphs import (GALLERY, c4_with_two_pendants, comb, complete,
                          corona, cycle, disjoint_union, double_star,
                          fused_triangles, path, paw, star)
from squarestable.codec import decode_graph6, encode_graph6
from squarestable.families import GraphFamily, generate
from squarestable.graphs import is_cycle_of_length, square
from squarestable.harness import (_BATCH_SIZE, ALL_CLAIMS, CLAIMS,
                                  CONJUNCTS, Claim, Part, _evaluators,
                                  _distance3_maximum_stable_set_exists, _scan,
                                  _square_omega_is_pendant_selections,
                                  reverify_counterexample, run_claim,
                                  run_control)
from squarestable.invariants import (DEFAULT_BUDGET, OMEGA_ENUMERATION_CAP,
                                    SolverBudget, core_set, gamma, ind_dom,
                                    omega_family, omega_union)
from squarestable.recognizers import has_pendant_perfect_matching

SMALL = [GraphFamily.exhaustive(n) for n in range(1, 5)]
CONTROLS = [name for name, claim in ALL_CLAIMS.items() if claim.families]


# -- hypothesis filters, unit-tested on their own ------------------------------

def test_tree_filter():
    applies = ALL_CLAIMS["tree-well-covered-equivalences"].applies
    assert applies(path(5), DEFAULT_BUDGET)
    assert not applies(cycle(5), DEFAULT_BUDGET)
    assert not applies(path(1), DEFAULT_BUDGET)
    assert not applies(disjoint_union(path(2), path(2)), DEFAULT_BUDGET)


def test_girth6_filter_exclusions():
    applies = ALL_CLAIMS["girth6-well-covered-equivalences"].applies
    assert applies(path(4), DEFAULT_BUDGET)
    assert applies(cycle(6), DEFAULT_BUDGET)
    assert applies(cycle(8), DEFAULT_BUDGET)
    assert not applies(cycle(7), DEFAULT_BUDGET)      # excluded cycle
    assert not applies(complete(1), DEFAULT_BUDGET)   # excluded K1
    assert not applies(cycle(5), DEFAULT_BUDGET)      # girth below 6
    assert not applies(paw(), DEFAULT_BUDGET)


def test_connected_ke_filter():
    applies = ALL_CLAIMS["ke-square-stable-characterization"].applies
    assert applies(path(2), DEFAULT_BUDGET)
    assert applies(paw(), DEFAULT_BUDGET)
    assert not applies(cycle(5), DEFAULT_BUDGET)
    assert not applies(complete(1), DEFAULT_BUDGET)


def test_pendant_pm_filter():
    applies = ALL_CLAIMS["pendant-matching-implies-square-stable"].applies
    assert applies(comb(3), DEFAULT_BUDGET)
    assert applies(path(2), DEFAULT_BUDGET)
    assert not applies(path(6), DEFAULT_BUDGET)


def test_unique_pm_filter():
    applies = ALL_CLAIMS[
        "control-unique-perfect-matching-implies-square-stable"].applies
    assert applies(path(6), DEFAULT_BUDGET)
    assert applies(paw(), DEFAULT_BUDGET)
    assert not applies(cycle(4), DEFAULT_BUDGET)  # two matchings
    assert not applies(path(5), DEFAULT_BUDGET)   # odd order


# -- claims as data ------------------------------------------------------------

def test_registry_names_only_conjuncts_in_the_table():
    used = set()
    for name, claim in ALL_CLAIMS.items():
        assert claim.parts, name
        for part in claim.parts:
            used.update(part.hypotheses)
            used.update(f for f in {**part.conditions, **part.values}.values()
                        if isinstance(f, str))
    assert used <= set(CONJUNCTS)
    # every conjunct is a hypothesis of some claim
    assert {h for claim in ALL_CLAIMS.values() for p in claim.parts for h in p.hypotheses} \
        == set(CONJUNCTS)


def test_controls_and_only_controls_carry_families():
    # a control scans its own nonempty search space; a theorem has none
    for name, claim in ALL_CLAIMS.items():
        assert bool(claim.families) == (name not in CLAIMS), name
    assert list(ALL_CLAIMS) == list(CLAIMS) + CONTROLS and len(CONTROLS) == 4


def test_readme_table_states_each_claims_parts():
    # each row of README's *Checked claims* table names a registered claim
    # and lists its parts' hypotheses, parts separated by "; "
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Checked claims", 1)[1].split("\n\n| claim |", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        claim, hypotheses = (cell.strip() for cell in line.split("|")[1:3])
        rows[claim.strip("`")] = hypotheses
    assert list(rows) == list(CLAIMS)
    for name, hypotheses in rows.items():
        assert hypotheses == "; ".join(", ".join(f"`{h}`" for h in part.hypotheses)
                                       for part in CLAIMS[name].parts), name


def test_applies_is_some_part_holding():
    for g in labeled_graphs(5):
        for name, claim in ALL_CLAIMS.items():
            want = any(all(CONJUNCTS[h](g, DEFAULT_BUDGET) for h in part.hypotheses)
                       for part in claim.parts)
            assert claim.applies(g, DEFAULT_BUDGET) == want, (name, encode_graph6(g))


# The expected reports below were computed by the hand-written evaluators
# that the parts replaced; each test kind keeps its exact shape.

def test_all_report_shape_on_a_control():
    claim = ALL_CLAIMS["control-ke-pendant-count-implies-square-stable"]
    assert claim.violation(path(3), DEFAULT_BUDGET) == {
        "conditions": {"square_stable": False, "very_well_covered": False}}
    claim = ALL_CLAIMS["control-unique-perfect-matching-implies-square-stable"]
    assert claim.violation(path(6), DEFAULT_BUDGET) == {
        "conditions": {"square_stable": False}}


def test_ascending_report_shape_on_a_planted_chain():
    # i <= gamma is the chain's gamma <= i flipped
    planted = Claim("planted-chain", "planted", *_evaluators([Part(
        ("nonempty",), "ascending",
        values={"ind_dom": lambda g, b: ind_dom(g, b)[0], "gamma": lambda g, b: gamma(g, b)[0]})]))
    assert planted.applies(double_star(3, 3), DEFAULT_BUDGET)
    assert planted.violation(double_star(3, 3), DEFAULT_BUDGET) == {
        "values": {"ind_dom": 4, "gamma": 2}}
    assert planted.violation(path(3), DEFAULT_BUDGET) is None


def test_equal_report_shape_on_a_planted_table():
    # "well covered == square-stable" fails on C4, which is well covered
    planted = Claim("planted-equal", "planted", *_evaluators([Part(
        ("nonempty",), "equal", {"well_covered": "well-covered", "square_stable": "square-stable"},
        {"alpha": lambda g, b: invariants.alpha(g, b)[0]})]))
    assert planted.violation(cycle(4), DEFAULT_BUDGET) == {
        "conditions": {"well_covered": True, "square_stable": False}, "values": {"alpha": 2}}
    assert planted.violation(path(2), DEFAULT_BUDGET) is None


def test_two_part_claim_reports_only_the_parts_that_apply(monkeypatch):
    # a planted bug: every graph is very well covered.  K3 meets only the
    # first part of the claim (it is complete and not Konig-Egervary); C5
    # meets the first and the third (it is not Konig-Egervary)
    import squarestable.recognizers as recognizers

    patch_everywhere(monkeypatch, recognizers.is_very_well_covered, lambda g, budget: True)
    claim = ALL_CLAIMS["very-well-covered-basics"]
    assert claim.violation(complete(3), DEFAULT_BUDGET) == {
        "conditions": {"vwc_equals_wc_and_ke": False}}
    assert claim.violation(cycle(5), DEFAULT_BUDGET) == {
        "conditions": {"vwc_equals_wc_and_ke": False, "neighborhood_deletion_preserves": True}}
    # K3 meets both parts here; the hand-written evaluator also reported an
    # empty "values": {}, the one report whose shape changed
    assert ALL_CLAIMS["vwc-pendant-characterization"].violation(complete(3), DEFAULT_BUDGET) == {
        "conditions": {"square_stable_and_vwc": True, "ke_pm_alpha_pendants": False,
                       "ke_base": False, "ke_square": False}}


# -- engine behaviour ----------------------------------------------------------

def test_all_claims_pass_small_exhaustive():
    for name in CLAIMS:
        verdict = run_claim(name, SMALL)
        assert verdict["passed"], (name, verdict["counterexample"])
        assert verdict["skipped"] == 0 and verdict["complete"]


def test_verdict_counts_hypothesis_filtering():
    verdict = run_claim("tree-well-covered-equivalences", GraphFamily.exhaustive(4))
    assert verdict["graphs_seen"] == 64
    # labeled trees on 4 vertices: 16 of the 64 graphs
    assert verdict["graphs_checked"] == 16


def test_determinism_identical_runs():
    fams = [GraphFamily.gnp(7, 0.4, 40, seed=5), GraphFamily.exhaustive(4)]
    for name in ("inequality-chain", "vwc-pendant-characterization"):
        a = run_claim(name, fams)
        b = run_claim(name, fams)
        assert a == b


def test_jobs_do_not_change_the_verdict():
    fams = [GraphFamily.exhaustive(5)]
    for name in ("square-stable-equivalences", "control-well-covered-implies-square-stable"):
        solo = run_claim(name, fams, jobs=1)
        multi = run_claim(name, fams, jobs=2)
        assert solo == multi


def test_planted_mutation_is_caught():
    # flip one inequality of the chain; the harness must refute it
    def applies(g, budget):
        return g.n >= 1

    def violation(g, budget):
        iv = ind_dom(g, budget)[0]
        gm = gamma(g, budget)[0]
        if iv <= gm:
            return None
        return {"values": {"ind_dom": iv, "gamma": gm}}

    mutated = Claim("mutated-chain", "planted", applies, violation)
    witness = double_star(3, 3)
    seen, checked, skipped, best = _scan(mutated, [witness], DEFAULT_BUDGET)
    assert best is not None
    assert best[0] == encode_graph6(witness)


def test_budget_exhaustion_records_skips_not_failures():
    # every solver of the chain decides P3 and its square within 3 nodes;
    # alpha of the square of comb(8), the chain's first solve, needs 9
    verdict = run_claim("inequality-chain", GraphFamily.graph6_lines(
        [encode_graph6(comb(8)), encode_graph6(path(3))], label="unit"),
        budget=SolverBudget(max_nodes=8, max_seconds=60.0))
    assert verdict["passed"]
    assert verdict["skipped"] == 1
    assert verdict["graphs_checked"] == 1
    assert not verdict["complete"]


def test_counterexample_is_lexicographically_least():
    bad = [cycle(4), c4_with_two_pendants()]  # both refute the control claim
    lines = sorted(encode_graph6(g) for g in bad)
    verdict = run_claim("control-well-covered-implies-square-stable",
                        GraphFamily.graph6_lines(lines[::-1], label="unit"))
    assert not verdict["passed"]
    assert verdict["counterexample"]["graph6"] == lines[0]


def test_counterexample_reverifies_from_graph6():
    verdict = run_claim("control-unique-perfect-matching-implies-square-stable",
                        [GraphFamily.exhaustive(4)])
    assert not verdict["passed"]
    assert reverify_counterexample(verdict["theorem"], verdict["counterexample"])


def test_negative_controls_all_refute():
    verdicts = [run_control(name) for name in CONTROLS]
    for v in verdicts:
        assert v["kind"] == "control"
        assert v["passed"], v["theorem"]
        assert v["counterexample"] is not None


def test_control_counterexamples_match_expected_shapes():
    by_name = {name: run_control(name) for name in CONTROLS}
    wc_cex = decode_graph6(
        by_name["control-well-covered-implies-square-stable"]["counterexample"]["graph6"])
    assert is_cycle_of_length(wc_cex, 4)
    pm = by_name["control-unique-perfect-matching-implies-square-stable"]
    pm_cex = decode_graph6(pm["counterexample"]["graph6"])
    assert pm_cex.n == 4 and len(pm_cex.edges) == 4  # a labeled paw


def test_control_claims_flag_the_named_fixtures():
    unique_pm = ALL_CLAIMS["control-unique-perfect-matching-implies-square-stable"]
    for g in (path(6), paw()):
        assert unique_pm.applies(g, DEFAULT_BUDGET)
        assert unique_pm.violation(g, DEFAULT_BUDGET) is not None
    unique_omega = ALL_CLAIMS["control-unique-square-maximum-implies-square-stable"]
    assert unique_omega.applies(fused_triangles(), DEFAULT_BUDGET)
    assert unique_omega.violation(fused_triangles(), DEFAULT_BUDGET) is not None
    ke_pendants = ALL_CLAIMS["control-ke-pendant-count-implies-square-stable"]
    assert ke_pendants.applies(path(3), DEFAULT_BUDGET)
    assert ke_pendants.violation(path(3), DEFAULT_BUDGET) is not None


def test_chain_values_on_star():
    claim = ALL_CLAIMS["inequality-chain"]
    assert claim.violation(star(5), DEFAULT_BUDGET) is None
    # the chain instantiates to 1 <= 1 <= 1 <= 1 <= 5 <= 5
    from squarestable.graphs import square
    from squarestable.invariants import alpha, theta

    g = star(5)
    sq = square(g)
    values = (alpha(sq)[0], theta(sq)[0], gamma(g)[0], ind_dom(g)[0],
              alpha(g)[0], theta(g)[0])
    assert values == (1, 1, 1, 1, 5, 5)


def test_gallery_passes_every_applicable_claim():
    lines = [encode_graph6(g) for g in GALLERY.values()]
    fam = GraphFamily.graph6_lines(lines, label="gallery")
    for name in CLAIMS:
        verdict = run_claim(name, fam)
        assert verdict["passed"], (name, verdict["counterexample"])


def test_verdict_json_shape():
    record = run_claim("inequality-chain", GraphFamily.exhaustive(3))
    assert list(record) == ["theorem", "kind", "family", "graphs_seen",
                            "graphs_checked", "skipped", "complete", "passed",
                            "counterexample"]
    assert record["family"] == "exhaustive:3"
    assert record["kind"] == "theorem"


def test_jobs_verdict_matches_serial_across_many_batches():
    # five batches' worth of graphs that satisfy the control's hypothesis
    # without refuting it, with refutations only in the later batches and
    # the lexicographically least one placed last
    filler = [encode_graph6(complete(n)) for n in (1, 2, 3)]
    lines = [filler[i % 3] for i in range(5 * _BATCH_SIZE)]
    refutations = sorted(encode_graph6(g) for g in (cycle(4), c4_with_two_pendants()))
    lines[3 * _BATCH_SIZE + 7] = refutations[1]
    lines[-1] = refutations[0]
    fam = GraphFamily.graph6_lines(lines, label="batches")
    name = "control-well-covered-implies-square-stable"
    solo = run_claim(name, fam, jobs=1)
    assert solo["counterexample"]["graph6"] == refutations[0]
    assert solo["graphs_seen"] == solo["graphs_checked"] == len(lines)
    assert run_claim(name, fam, jobs=2) == solo


def counted_pools(monkeypatch) -> list:
    """Record the ``max_workers`` of every pool ``run_claim`` starts."""
    started = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return started


def test_one_batch_family_starts_no_pool(monkeypatch):
    started = counted_pools(monkeypatch)
    calls = Counter()

    def counting(real):
        def codec(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)
        return codec

    for real in (encode_graph6, decode_graph6):
        patch_everywhere(monkeypatch, real, counting(real))
    fam = GraphFamily.exhaustive(4)   # 64 graphs: one batch
    for name in ("inequality-chain", "control-well-covered-implies-square-stable"):
        calls.clear()
        solo = run_claim(name, fam, jobs=1)
        serial = dict(calls)   # the control encodes each refuting graph
        calls.clear()
        assert run_claim(name, fam, jobs=2) == solo
        # the batch is scanned as Graph objects, with no graph6 round trip
        assert calls == serial and not calls["decode_graph6"], name
    assert started == []


def test_pool_starts_no_more_workers_than_batches(monkeypatch):
    started = counted_pools(monkeypatch)
    # so the batches, not this host's CPUs, bound the pool
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    lines = [encode_graph6(g) for g in generate(GraphFamily.exhaustive(5))]
    fam = GraphFamily.graph6_lines(lines[:3 * _BATCH_SIZE], label="three-batches")
    name = "square-stable-equivalences"
    solo = run_claim(name, fam, jobs=1)
    assert started == []
    assert run_claim(name, fam, jobs=8) == solo
    assert started == [3]


def test_pool_starts_no_more_workers_than_usable_cpus(monkeypatch):
    # an in-process pool records the workers it was asked for and forks none
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    lines = [encode_graph6(g) for g in generate(GraphFamily.exhaustive(5))]
    fam = GraphFamily.graph6_lines(lines[:4 * _BATCH_SIZE], label="four-batches")
    name = "square-stable-equivalences"
    solo = run_claim(name, fam, jobs=1)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert run_claim(name, fam, jobs=5000) == solo
    # without an affinity mask, the CPU count; with no count either, one
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert run_claim(name, fam, jobs=5000) == solo
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert run_claim(name, fam, jobs=5000) == solo
    assert started == [3, 2, 1]


def test_budget_skip_is_not_memoized():
    tiny = SolverBudget(max_nodes=20, max_seconds=60.0)
    for name in ("inequality-chain", "square-stable-alpha-le-mu"):
        claim = CLAIMS[name]
        # one graph object, evaluated again after each skip; alpha of its
        # square needs 21 nodes
        g = comb(20)
        for _ in range(2):
            assert _scan(claim, [g], tiny)[:3] == (1, 0, 1), name
        # the skip leaves the graph answerable in full under a larger budget
        assert _scan(claim, [g], DEFAULT_BUDGET)[:3] == (1, 1, 0), name


def test_claims_reading_omega_check_graphs_past_sixteen_vertices():
    g = comb(9)  # 18 vertices, connected, with a pendant perfect matching
    assert g.n > OMEGA_ENUMERATION_CAP
    for name in ("square-stable-equivalences", "square-simplicial-correspondence",
                 "pendant-matching-implies-square-stable",
                 "control-unique-square-maximum-implies-square-stable",
                 "inequality-chain", "girth6-well-covered-equivalences"):
        assert _scan(ALL_CLAIMS[name], [g], DEFAULT_BUDGET)[:3] == (1, 1, 0), name


def test_omega_free_routes_match_the_materialized_family():
    # every labeled graph up to 6 vertices with its square, and seeded G(n,p)
    # up to the enumeration cap: the union, the core and the distance-3 route
    # against Omega itself
    graphs = [g for g in labeled_graphs(6) if g.n]
    graphs += [g for n in range(8, OMEGA_ENUMERATION_CAP + 1) for p in (0.15, 0.3, 0.5, 0.7)
               for g in generate(GraphFamily.gnp(n, p, 10, seed=n))]
    for g in graphs:
        for h in (g, square(g)):
            fam = omega_family(h)
            union, core = frozenset().union(*fam), frozenset.intersection(*fam)
            assert omega_union(h) == union, encode_graph6(h)
            assert core_set(h) == core, encode_graph6(h)
            assert (len(fam) == 1) == (union == core), encode_graph6(h)
        assert (_distance3_maximum_stable_set_exists(g, DEFAULT_BUDGET)
                == oracles.distance3_omega_member_exists(g)), encode_graph6(g)


def test_pendant_selection_rule_matches_the_materialized_family():
    graphs = [g for g in labeled_graphs(6) if g.n]
    graphs += [g for n in range(2, OMEGA_ENUMERATION_CAP + 1)
               for g in generate(GraphFamily.random_trees(n, 40, seed=n))]
    graphs += [corona(t) for n in range(1, OMEGA_ENUMERATION_CAP // 2 + 1)
               for t in generate(GraphFamily.random_trees(n, 10, seed=n))]
    graphs += [corona(cycle(k)) for k in range(3, 9)]
    graphs += [disjoint_union(corona(cycle(5)), disjoint_union(path(2), path(2)))]
    checked = 0
    for g in graphs:
        m = has_pendant_perfect_matching(g)
        if m is None:
            continue
        checked += 1
        want = omega_family(square(g)) == oracles.pendant_selections(g, m)
        assert _square_omega_is_pendant_selections(g, m, DEFAULT_BUDGET) == want, \
            encode_graph6(g)
    assert checked > 800


def test_memoized_facts_match_a_fresh_graph():
    def evaluate(claim, g):
        return claim.applies(g, DEFAULT_BUDGET) and claim.violation(g, DEFAULT_BUDGET)

    # one object per graph, shared by every claim and evaluated twice
    for g in list(GALLERY.values()) + [disjoint_union(path(2), cycle(4))]:
        for name, claim in ALL_CLAIMS.items():
            want = evaluate(claim, decode_graph6(encode_graph6(g)))
            for _ in range(2):
                assert evaluate(claim, g) == want, (name, encode_graph6(g))


def test_solvers_run_once_per_graph_across_claims(monkeypatch):
    # P4 meets the hypotheses of the chain, the equivalences, the square's
    # simplicial correspondence and the pendant-matching claim, which between
    # them read gamma, i, and the union and core of Omega(G^2)
    calls = Counter()
    solved_on = []  # keeps each graph alive, so no two share an id()

    def counting(name, real):
        def solver(g, *args, **kwargs):
            solved_on.append(g)
            calls[name, id(g)] += 1
            return real(g, *args, **kwargs)
        return solver

    for name in ("gamma", "ind_dom", "omega_family", "omega_union", "core_set",
                 "alpha", "theta", "maximal_cliques"):
        real = getattr(invariants, name)
        patch_everywhere(monkeypatch, real, counting(name, real))
    value_searches = []  # _stable_search runs without a target
    real_search = invariants._stable_search

    def searching(adj, universe, meter, target=None):
        if target is None:
            value_searches.append(adj)
        return real_search(adj, universe, meter, target)

    patch_everywhere(monkeypatch, real_search, searching)
    g = path(4)
    for claim in ALL_CLAIMS.values():
        assert _scan(claim, [g], DEFAULT_BUDGET)[:3] in ((1, 1, 0), (1, 0, 0))
    assert max(calls.values()) == 1
    solved = Counter(name for name, _ in calls)
    assert solved["gamma"] == solved["ind_dom"] == 1
    assert solved["omega_union"] == 1  # on the square
    assert solved["omega_family"] == 0
    # simplexes read N[v]; core_set and omega_union start from alpha's memo
    assert solved["maximal_cliques"] == 0
    assert solved["core_set"] == 2  # on the graph and on its square
    assert len(value_searches) == solved["alpha"]
