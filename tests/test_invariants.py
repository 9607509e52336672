import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from conftest import graphs, labeled_graphs
from named_graphs import (braced_ladder, complete, complete_bipartite, corona,
                          cycle, diamond_with_pendant, disjoint_union,
                          empty_graph, path, star)
from squarestable.codec import decode_graph6, encode_graph6
from squarestable.families import GraphFamily, generate
from squarestable.graphs import Graph, adjacency_masks, induced_subgraph, square
from squarestable.invariants import (DEFAULT_BUDGET, OMEGA_ENUMERATION_CAP,
                                     BudgetExhausted, SolverBudget, _first_fit_cliques,
                                     _Meter, _maximal_stable_masks, _mask_to_set,
                                     alpha, core_set, count_perfect_matchings,
                                     gamma, ind_dom, invariant_report,
                                     is_clique_partition, is_dominating_set,
                                     is_matching, is_maximal_stable_set,
                                     is_stable_set, maximal_cliques, mu,
                                     omega_family, omega_union, simplexes,
                                     simplicial_vertices, theta)

#: Prefix of a ``python -c`` child script: puts this directory, where the
#: fixture constructions live, on the child's import path.
_FIXTURES_ON_PATH = f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"


# -- worked example values ---------------------------------------------------

def test_alpha_examples():
    assert alpha(star(5))[0] == 5
    assert alpha(path(4))[0] == 2
    assert alpha(cycle(7))[0] == 3  # == oracles.alpha_oracle(cycle(7))


def test_alpha_witness_is_lex_least():
    value, witness = alpha(path(4))
    assert value == 2 and witness == {0, 2}
    assert alpha(cycle(7))[1] == {0, 2, 4}


def test_omega_family_examples():
    for n in range(1, 7):
        assert len(omega_family(complete(n))) == n
    assert omega_family(star(4)) == [frozenset({1, 2, 3, 4})]
    assert omega_family(path(4)) == [
        frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})]


def test_omega_family_respects_cap():
    with pytest.raises(ValueError, match="materializes"):
        omega_family(empty_graph(17))


def test_core_examples():
    assert core_set(complete(5)) == frozenset()
    assert core_set(path(4)) == frozenset()
    assert core_set(star(4)) == frozenset({1, 2, 3, 4})
    assert core_set(square(braced_ladder())) == {1, 4}


def test_core_fix_and_test_route_matches_enumeration():
    # same graphs through both routes: intersection of the family vs the
    # alpha-drop rule that core_set applies at every order
    from squarestable.invariants import _Meter, _stable_search
    from squarestable.graphs import adjacency_masks

    for g in [path(6), star(4), cycle(6), braced_ladder(), complete(5)]:
        fam = omega_family(g)
        want = frozenset(set.intersection(*map(set, fam)))
        adj = adjacency_masks(g)
        full = (1 << g.n) - 1
        meter = _Meter("test", SolverBudget())
        a, _ = _stable_search(adj, full, meter)
        fix = frozenset(v for v in range(g.n)
                        if _stable_search(adj, full & ~(1 << v), meter)[0] == a - 1)
        assert want == fix == core_set(g)


def test_mu_examples():
    assert mu(diamond_with_pendant())[0] == 2
    assert mu(path(4)) == (2, frozenset({(0, 1), (2, 3)}))
    assert mu(star(5))[0] == 1


def test_mu_matches_full_reset_reference_exhaustively():
    for g in labeled_graphs(6):
        for h in (g, square(g)):
            assert mu(h) == oracles.mu_full_reset_reference(h), encode_graph6(h)


@pytest.mark.parametrize("family", [
    [g for n in range(7, 41, 3) for p in (0.1, 0.2, 0.3, 0.5, 0.7)
     for g in generate(GraphFamily.gnp(n, p, 10, seed=n))],
    [g for n in range(2, 60, 3) for g in generate(GraphFamily.random_trees(n, 20, seed=n))],
    [corona(h) for k in range(4, 14) for h in generate(GraphFamily.gnp(k, 0.3, 10, seed=k))],
], ids=["gnp", "trees", "coronas"])
def test_mu_matches_full_reset_reference_on_families(family):
    for g in family:
        assert mu(g) == oracles.mu_full_reset_reference(g), encode_graph6(g)


def test_mu_on_a_large_star_resets_only_what_each_search_touched():
    # each leaf's search queues the leaf and the center's partner and labels
    # the center; one that reset all n vertices made the star quadratic
    code = _FIXTURES_ON_PATH + (
        "import time\n"
        "from named_graphs import star\n"
        "from squarestable.invariants import mu\n"
        "g = star(49_999)\n"
        "t = time.monotonic()\n"
        "print(mu(g)[0], time.monotonic() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    value, seconds = proc.stdout.split()
    assert value == "1"
    assert float(seconds) < 5.0, proc.stdout


def test_theta_examples():
    assert theta(complete(6))[0] == 1
    assert theta(cycle(4))[0] == 2
    assert theta(path(4))[0] == 2


def test_gamma_examples():
    assert gamma(star(5)) == (1, frozenset({0}))
    assert gamma(path(6))[0] == 2
    assert gamma(cycle(4))[0] == 2


def test_ind_dom_examples():
    assert ind_dom(path(3)) == (1, frozenset({1}))
    assert ind_dom(complete(5)) == (1, frozenset({0}))
    assert ind_dom(path(4))[0] == 2


def test_simplicial_examples():
    assert simplicial_vertices(braced_ladder()) == {1, 3, 4, 7}
    assert simplicial_vertices(complete(4)) == frozenset(range(4))
    assert simplicial_vertices(cycle(4)) == frozenset()


def test_maximal_cliques_examples():
    assert maximal_cliques(complete(4)) == [frozenset(range(4))]
    assert maximal_cliques(cycle(4)) == [
        frozenset({0, 1}), frozenset({0, 3}), frozenset({1, 2}), frozenset({2, 3})]
    assert maximal_cliques(path(3)) == [frozenset({0, 1}), frozenset({1, 2})]


def test_simplexes_examples():
    assert simplexes(path(4)) == [frozenset({0, 1}), frozenset({2, 3})]
    assert simplexes(complete(5)) == [frozenset(range(5))]
    assert simplexes(cycle(4)) == []


def test_count_perfect_matchings():
    assert count_perfect_matchings(path(6)) == 1
    assert count_perfect_matchings(cycle(4)) == 2
    assert count_perfect_matchings(path(5)) == 0
    assert count_perfect_matchings(complete(4)) == 3
    assert count_perfect_matchings(complete(4), limit=2) == 2  # early stop


def test_count_perfect_matchings_is_budgeted():
    # K_{9,11} has no perfect matching, but the count tries every way to
    # match the smaller side first
    tiny = SolverBudget(max_nodes=1_000)
    with pytest.raises(BudgetExhausted) as err:
        count_perfect_matchings(complete_bipartite(9, 11), limit=2, budget=tiny)
    assert err.value.operation == "count_perfect_matchings"
    assert err.value.nodes_used == 1_001
    # K4: the root, three ways to match vertex 0, one way to finish each
    assert count_perfect_matchings(complete(4), budget=SolverBudget(max_nodes=7)) == 3
    with pytest.raises(BudgetExhausted):
        count_perfect_matchings(complete(4), budget=SolverBudget(max_nodes=6))


# -- bounded searches against their slow routes ------------------------------

def _theta_matches_unpruned(g):
    value, cover, nodes = oracles.theta_unpruned(g)
    assert theta(g) == (value, cover)
    # the bounded search visits a subset of the unbounded one's nodes
    assert theta(g, SolverBudget(max_nodes=nodes)) == (value, cover)


def test_theta_matches_unpruned_search_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            _theta_matches_unpruned(g)
            _theta_matches_unpruned(square(g))


def test_theta_matches_unpruned_search_on_random_graphs():
    for n in range(12, 17):
        for p in (0.3, 0.5, 0.7, 0.85):
            for g in generate(GraphFamily.gnp(n, p, 6, seed=n)):
                _theta_matches_unpruned(g)


@pytest.mark.parametrize("family", [
    # G(n, p) across densities, the corpus cells of the benchmark
    [g for n in (18, 21, 24) for p in (0.2, 0.5, 0.8)
     for g in generate(GraphFamily.gnp(n, p, 8, seed=n))],
    # Pruefer trees
    [g for n in range(20, 29) for g in generate(GraphFamily.random_trees(n, 4, seed=n))],
    # coronas: pendant vertices with one possible partner each
    [corona(h) for k in range(8, 11) for h in generate(GraphFamily.gnp(k, 0.3, 3, seed=k))],
], ids=["gnp", "trees", "coronas"])
def test_theta_matches_bounded_reference_on_families(family):
    for g in family:
        assert theta(g) == oracles.theta_bounded_reference(g), encode_graph6(g)


def _alpha_matches_reference(g):
    assert alpha(g) == oracles.alpha_bounded_reference(g), encode_graph6(g)


def test_alpha_matches_bounded_reference_exhaustively():
    for g in labeled_graphs(6):
        _alpha_matches_reference(g)
        _alpha_matches_reference(square(g))


@pytest.mark.parametrize("family", [
    # G(n, p) across densities
    [g for n in range(12, 31, 3) for p in (0.1, 0.2, 0.5, 0.8)
     for g in generate(GraphFamily.gnp(n, p, 4, seed=n))],
    # Pruefer trees, solved by the reduction alone, and their squares
    [h for n in range(10, 30, 3) for g in generate(GraphFamily.random_trees(n, 4, seed=n))
     for h in (g, square(g))],
    # coronas: every pendant vertex is taken without branching
    [corona(h) for k in range(4, 11) for h in generate(GraphFamily.gnp(k, 0.3, 3, seed=k))],
], ids=["gnp", "trees", "coronas"])
def test_alpha_matches_bounded_reference_on_families(family):
    for g in family:
        _alpha_matches_reference(g)


def test_theta_deep_and_tail_inputs():
    # a greedy cover that meets the greedy stable set returns before any
    # search
    assert theta(path(1500))[0] == 750
    # a G(24, 0.8) draw on which the unbounded search exhausted 10M nodes and
    # the ascending-id search with bounds took seconds; the DSATUR value
    # search and the witness fix take 130 nodes
    tail = decode_graph6("W^vVr|uN~~uV^Z}z^vqfVOn~^^~}zue~NtF~[tvjpvzmz}u")
    value, cover = theta(tail, SolverBudget(max_nodes=260))
    assert value == 5 and is_clique_partition(tail, cover) and len(cover) == 5


def test_first_fit_cliques_match_the_scan_of_every_clique():
    families = (labeled_graphs(6),
                (g for n in (12, 20, 30) for p in (0.1, 0.3, 0.5, 0.8)
                 for g in generate(GraphFamily.gnp(n, p, 10, seed=n))))
    for g in chain.from_iterable(families):
        for h in (g, square(g)):
            adj = adjacency_masks(h)
            full = (1 << h.n) - 1
            for cand, most in ((full, -1), (full & 0x5555_5555, -1), (full, 2)):
                assert (_first_fit_cliques(cand, adj, most)
                        == oracles.first_fit_cliques_reference(cand, adj, most))


@pytest.mark.parametrize("build, value", [("empty_graph(16_000)", 16_000),
                                          ("star(15_999)", 15_999)])
def test_theta_first_fit_cover_is_near_linear(build, value):
    # the first-fit cover runs before theta's search, under no budget: when
    # each vertex tried every clique it took seconds on both
    code = _FIXTURES_ON_PATH + (
        "import time\n"
        "from named_graphs import empty_graph, star\n"
        "from squarestable.invariants import SolverBudget, theta\n"
        f"g = {build}\n"
        "t = time.monotonic()\n"
        "print(theta(g, SolverBudget(max_nodes=200_000, max_seconds=1))[0],\n"
        "      time.monotonic() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    outcome, seconds = proc.stdout.split()
    assert outcome == str(value)
    assert float(seconds) < 1.0, proc.stdout


@pytest.mark.parametrize("solver, build, value", [
    ("theta", "disjoint_union(path(1500), cycle(5))", 753), ("theta", "path(2500)", 1250),
    ("theta", "cycle(2501)", 1251), ("alpha", "disjoint_union(path(1500), cycle(5))", 752),
    ("alpha", "path(2500)", 1250), ("alpha", "cycle(2501)", 1250)])
def test_theta_deep_inputs_end_within_budget(solver, build, value):
    # each run in its own interpreter under a wall-clock limit: a search that
    # recursed once per vertex raised RecursionError on P1500 + C5, whose
    # greedy bound is tight on the path but not on the C5 after it.  alpha
    # must decide all three: its reduction takes every path vertex without
    # branching, and a cycle after one branch
    code = _FIXTURES_ON_PATH + (
        "import time\n"
        "from named_graphs import cycle, disjoint_union, path\n"
        f"from squarestable.invariants import BudgetExhausted, SolverBudget, {solver}\n"
        f"g = {build}\n"
        "t = time.monotonic()\n"
        "try:\n"
        f"    out = f'value {{{solver}(g, SolverBudget(max_nodes=200_000, max_seconds=2))[0]}}'\n"
        "except BudgetExhausted as exc:\n"
        "    out = f'budget {exc.operation}'\n"
        "print(out, time.monotonic() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    outcome, detail, seconds = proc.stdout.split()
    decided = {("value", str(value))}
    if solver == "theta":
        decided.add(("budget", "theta"))
    assert (outcome, detail) in decided, proc.stdout
    assert float(seconds) < 4.0, proc.stdout


def test_gamma_is_lex_least_minimum_dominating_set_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            assert gamma(g) == oracles.gamma_lex_oracle(g)


def _ind_dom_matches_references(g):
    got = ind_dom(g)
    assert got == oracles.ind_dom_enumeration(g), g
    assert got == oracles.ind_dom_lex_oracle(g), g


def test_ind_dom_is_lex_least_minimum_maximal_stable_set_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            _ind_dom_matches_references(g)
            _ind_dom_matches_references(square(g))


def test_gamma_and_ind_dom_match_references_on_random_graphs():
    for n in range(12, 19):
        for p in (0.15, 0.3, 0.5, 0.7):
            for g in generate(GraphFamily.gnp(n, p, 3, seed=n)):
                assert gamma(g) == oracles.gamma_lex_oracle(g), g
                _ind_dom_matches_references(g)


def _domination_matches_reference(g):
    assert gamma(g) == oracles.least_dominating_set_reference(g, stable=False), g
    assert ind_dom(g) == oracles.least_dominating_set_reference(g, stable=True), g


def test_domination_matches_reference_search_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            _domination_matches_reference(g)
            _domination_matches_reference(square(g))


def _disjoint_unions(count: int, seed: int) -> list[Graph]:
    """Unions of a corona or tree with two small graphs (n >= 10), each as
    built and with its ids shuffled, so the components' ids interleave."""
    rng = random.Random(seed)
    large = [corona(h) for h in generate(GraphFamily.gnp(4, 0.5, 4, seed=seed))]
    large += list(generate(GraphFamily.random_trees(7, 4, seed=seed)))
    small = [cycle(5), path(4), complete(3), empty_graph(1), star(3), path(2)]
    out = []
    for _ in range(count):
        g = disjoint_union(rng.choice(large), *rng.sample(small, 2))
        ids = list(range(g.n))
        rng.shuffle(ids)
        out += [g, Graph(g.n, [(ids[u], ids[v]) for u, v in g.edges])]
    return out


@pytest.mark.parametrize("family", [
    # G(n, p) across densities
    [g for n in range(12, 25) for p in (0.15, 0.3, 0.5, 0.7)
     for g in generate(GraphFamily.gnp(n, p, 3, seed=n))],
    # trees, where the subset rule drops the most candidates
    [g for n in range(20, 41, 4) for g in generate(GraphFamily.random_trees(n, 4, seed=n))],
    # coronas: every pendant vertex has two candidates, one covering the other
    [corona(h) for k in range(2, 11) for h in generate(GraphFamily.gnp(k, 0.3, 3, seed=k))],
    # disconnected graphs: gamma and ind_dom solve each component apart and
    # add, while the reference searches the whole graph at once
    _disjoint_unions(40, seed=7),
], ids=["gnp", "trees", "coronas", "disjoint-unions"])
def test_domination_matches_reference_search_on_families(family):
    for g in family:
        _domination_matches_reference(g)


@pytest.mark.parametrize("build", [
    "path(2500)", "cycle(2501)", "disjoint_union(path(1500), cycle(5))"])
@pytest.mark.parametrize("solver", ["gamma", "ind_dom"])
def test_ind_dom_deep_inputs_end_within_budget(solver, build):
    # each run in its own interpreter under a wall-clock limit: a recursive
    # search would raise RecursionError, an unbounded one would hang.  On a
    # path or a cycle the greedy first dive meets the cover bound, so the
    # value ⌈n/3⌉ = 834 is decided.  P1500 + C5 is solved one component at a
    # time, 500 + 2: on the whole graph the cover bound cannot see that the
    # C5 needs 2 vertices, so each infeasible fix-pass test dives the path
    code = _FIXTURES_ON_PATH + (
        "from named_graphs import cycle, disjoint_union, path\n"
        f"from squarestable.invariants import BudgetExhausted, SolverBudget, {solver}\n"
        f"g = {build}\n"
        "try:\n"
        f"    print('value', {solver}(g, SolverBudget(max_nodes=200_000, max_seconds=10))[0])\n"
        "except BudgetExhausted as exc:\n"
        "    print('budget', exc.operation)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    want = "502" if build.startswith("disjoint_union") else "834"
    assert proc.stdout.split() == ["value", want], proc.stdout


@pytest.mark.parametrize("build", ["path(2500)", "cycle(2500)"])
def test_count_perfect_matchings_deep_inputs_end_within_budget(build):
    # one matched pair per search level, so the search runs 1,250 levels
    # deep: a recursive count raises RecursionError on both
    code = _FIXTURES_ON_PATH + (
        "from named_graphs import cycle, path\n"
        "from squarestable.invariants import SolverBudget, count_perfect_matchings\n"
        f"g = {build}\n"
        "print(count_perfect_matchings(g, limit=2,\n"
        "                              budget=SolverBudget(max_nodes=200_000, max_seconds=10)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1" if build.startswith("path") else "2"]


def test_maximal_cliques_match_oracle_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            assert maximal_cliques(g) == oracles.maximal_cliques_oracle(g)


def test_simplexes_match_the_maximal_clique_definition():
    # simplexes reads N[v] of each simplicial v; the definition keeps the
    # maximal cliques that hold a simplicial vertex
    family = [h for g in labeled_graphs(6) if g.n for h in (g, square(g))]
    family += [g for n in range(8, 25) for p in (0.1, 0.3, 0.5, 0.8)
               for g in generate(GraphFamily.gnp(n, p, 10, seed=n))]
    for h in family:
        simp = simplicial_vertices(h)
        assert simplexes(h) == [c for c in maximal_cliques(h) if c & simp], encode_graph6(h)


def test_validators_reject_vertices_outside_the_graph():
    g = path(3)
    assert not is_stable_set(g, {0, 2, 7})
    assert not is_stable_set(g, {-1, 0})
    assert not is_maximal_stable_set(g, frozenset({0, 2, 7}))
    assert not is_dominating_set(g, frozenset({1, 9}))
    assert is_stable_set(g, {0, 2}) and is_maximal_stable_set(g, frozenset({0, 2}))
    assert is_dominating_set(g, frozenset({1}))


def test_core_set_past_the_cap_matches_alpha_drop_rule():
    # past the enumeration cap, where Omega is not materialized: core_set
    # tests only the members of one maximum stable set; the reference
    # deletes every vertex in turn
    family = ([g for n in (17, 20) for p in (0.15, 0.3, 0.6)
               for g in generate(GraphFamily.gnp(n, p, 2, seed=n))]
              + list(generate(GraphFamily.random_trees(18, 3, seed=18)))
              + [corona(cycle(9)), square(corona(path(9)))])
    for g in family:
        assert g.n > OMEGA_ENUMERATION_CAP
        a = oracles.alpha_bounded_reference(g)[0]
        want = {v for v in range(g.n) if oracles.alpha_bounded_reference(
            induced_subgraph(g, set(range(g.n)) - {v})[0])[0] < a}
        assert core_set(g) == want, encode_graph6(g)


def test_omega_family_matches_oracle_exhaustively():
    for g in labeled_graphs(6):
        if g.n:
            assert omega_family(g) == sorted(oracles.omega_oracle(g), key=sorted)


# -- budget behaviour --------------------------------------------------------

def test_budget_exhaustion_is_explicit():
    tiny = SolverBudget(max_nodes=3, max_seconds=60.0)
    with pytest.raises(BudgetExhausted) as err:
        # no vertex of C5 + C5 is simplicial, so alpha branches on each
        # cycle (7 nodes); C9 takes one branch and two reductions (3 nodes)
        alpha(disjoint_union(cycle(5), cycle(5)), tiny)
    assert err.value.operation == "alpha"
    assert err.value.nodes_used == 4
    with pytest.raises(BudgetExhausted):
        theta(cycle(9), tiny)
    with pytest.raises(BudgetExhausted):
        gamma(cycle(9), tiny)


def test_time_cap_holds_when_nodes_are_expensive():
    # alpha branches on each of the twenty C5s, whose clique bound (3) is
    # above their stability number (2), while every node scans the C1501 and
    # builds its 751-clique bound: a node costs tens of milliseconds, so the
    # call must stop at its first node past the deadline, not many nodes later
    code = _FIXTURES_ON_PATH + (
        "import time\n"
        "from named_graphs import cycle, disjoint_union\n"
        "from squarestable.invariants import BudgetExhausted, SolverBudget, alpha\n"
        "g = disjoint_union(*[cycle(5)] * 20, cycle(1501))\n"
        "t = time.monotonic()\n"
        "try:\n"
        "    alpha(g, SolverBudget(max_nodes=200_000, max_seconds=2))\n"
        "    out = 'value'\n"
        "except BudgetExhausted:\n"
        "    out = 'budget'\n"
        "print(out, time.monotonic() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    outcome, seconds = proc.stdout.split()
    assert outcome == "budget", proc.stdout
    assert float(seconds) < 4.0, proc.stdout


def test_clock_past_the_deadline_stops_the_next_tick(monkeypatch):
    from squarestable import invariants

    now = [0.0]
    monkeypatch.setattr(invariants.time, "monotonic", lambda: now[0])
    meter = _Meter("clock", SolverBudget(max_seconds=5))
    for _ in range(100):
        meter.tick()
    now[0] = 5.001
    with pytest.raises(BudgetExhausted) as err:
        meter.tick()
    assert err.value.nodes_used == 101


def test_node_cap_stops_at_the_tick_past_it():
    for cap in range(1, 51):
        meter = _Meter("nodes", SolverBudget(max_nodes=cap))
        for _ in range(cap):
            meter.tick()
        with pytest.raises(BudgetExhausted) as err:
            meter.tick()
        assert err.value.nodes_used == cap + 1


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        SolverBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SolverBudget(max_seconds=0)


def test_budget_must_be_finite():
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SolverBudget(max_seconds=value)
        with pytest.raises(ValueError, match="finite"):
            SolverBudget(max_nodes=value)
    # a huge finite cap is accepted, and its deadline does not overflow
    meter = _Meter("huge", SolverBudget(max_seconds=1e308))
    for _ in range(10_000):
        meter.tick()


# -- oracle agreement and witness certification ------------------------------

@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_solvers_match_oracles(g):
    assert alpha(g)[0] == oracles.alpha_oracle(g)
    assert mu(g)[0] == oracles.mu_oracle(g)
    assert theta(g)[0] == oracles.theta_oracle(g)
    assert gamma(g)[0] == oracles.gamma_oracle(g)
    assert ind_dom(g)[0] == oracles.ind_dom_oracle(g)


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_witnesses_certify(g):
    report = invariant_report(g)
    wit = report["witnesses"]
    assert is_stable_set(g, frozenset(wit["stable_set"]))
    assert len(wit["stable_set"]) == report["alpha"]
    assert is_matching(g, frozenset(tuple(e) for e in wit["matching"]))
    assert len(wit["matching"]) == report["mu"]
    assert is_clique_partition(g, tuple(frozenset(c) for c in wit["clique_cover"]))
    assert len(wit["clique_cover"]) == report["theta"]
    assert is_dominating_set(g, frozenset(wit["dominating_set"]))
    assert len(wit["dominating_set"]) == report["gamma"]
    assert is_maximal_stable_set(g, frozenset(wit["min_maximal_stable_set"]))
    assert len(wit["min_maximal_stable_set"]) == report["ind_dom"]


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_report_internal_consistency(g):
    r = invariant_report(g)
    assert r["alpha"] >= 1
    assert r["mu"] <= g.n // 2
    assert r["theta"] >= r["alpha"]
    assert r["gamma"] <= r["ind_dom"] <= r["alpha"]


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_maximal_stable_sets_exact_and_ordered(g):
    # the stream is_well_covered reads, unordered: each maximal stable set
    # exactly once, so in lexicographic order it is the oracle's list
    meter = _Meter("maximal_stable_masks", DEFAULT_BUDGET)
    got = [_mask_to_set(m) for m in _maximal_stable_masks(g, meter)]
    assert len(got) == len(set(got))
    assert sorted(got, key=sorted) == sorted(oracles.maximal_stable_sets_oracle(g), key=sorted)


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_omega_and_core_properties(g):
    fam = omega_family(g)
    assert set(fam) == set(oracles.omega_oracle(g))
    core = core_set(g)
    for s in fam:
        assert core <= s
    assert core == frozenset(set.intersection(*map(set, fam)))
    assert omega_union(g) == frozenset(set.union(*map(set, fam)))


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_chain_and_square_monotonicity(g):
    sq = square(g)
    a2, t2 = alpha(sq)[0], theta(sq)[0]
    gm, iv = gamma(g)[0], ind_dom(g)[0]
    a, t = alpha(g)[0], theta(g)[0]
    assert a2 <= t2 <= gm <= iv <= a <= t
    assert mu(sq)[0] >= mu(g)[0]
    assert a2 <= a


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_simplicial_vertices_live_in_one_clique(g):
    cliques = maximal_cliques(g)
    simp = simplicial_vertices(g)
    sxs = simplexes(g)
    for v in simp:
        assert sum(1 for c in cliques if v in c) == 1
    assert simp == frozenset().union(*[c & simp for c in sxs]) if sxs else simp == frozenset()


def test_alpha_of_empty_graph_is_zero():
    assert alpha(Graph(0, [])) == (0, frozenset())
    assert mu(Graph(0, [])) == (0, frozenset())


def test_core_of_path_square():
    assert core_set(square(path(4))) == {0, 3}
    assert omega_family(square(path(4))) == [frozenset({0, 3})]
