"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
the whole module is also part of the plain ``pytest`` run.
"""

import subprocess
import sys
import time

import oracles
from named_graphs import (braced_ladder, c5_with_two_pendants, complete, cycle,
                          diamond_with_pendant, fused_triangles, path, paw,
                          star, triangle_with_tail)
from squarestable.codec import decode_graph6, encode_graph6
from squarestable.families import GraphFamily, generate
from squarestable.graphs import square
from squarestable.harness import ALL_CLAIMS, run_claim, run_control
from squarestable.invariants import (alpha, core_set, count_perfect_matchings,
                                     gamma, ind_dom, mu, omega_family,
                                     simplicial_vertices, theta)
from squarestable.recognizers import (is_koenig_egervary, is_square_stable,
                                      is_well_covered)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


#: G(n,p) cells used for the seeded random sweeps of criterion 5.
SWEEP_CELLS = [GraphFamily.gnp(n, p, 1000, seed=1000 * n + int(100 * p))
               for n in range(7, 13) for p in (0.2, 0.5, 0.8)]


def test_criterion_1_fixture_suite():
    t0 = time.perf_counter()

    c4 = cycle(4)
    assert is_well_covered(c4)[0] and is_koenig_egervary(c4)
    assert not is_square_stable(c4)

    p6 = path(6)
    assert is_koenig_egervary(p6)
    assert count_perfect_matchings(p6) == 1
    assert not is_square_stable(p6)

    assert square(paw()) == complete(4)
    assert not is_square_stable(paw())

    for n in range(2, 7):
        g = star(n)
        assert alpha(g)[0] == n
        assert alpha(square(g))[0] == 1

    assert alpha(path(4))[0] == alpha(square(path(4)))[0] == 2

    for n in range(1, 7):
        g = complete(n)
        assert len(omega_family(g)) == n
        assert len(omega_family(square(g))) == n

    assert is_koenig_egervary(paw())                     # H1
    assert is_koenig_egervary(c5_with_two_pendants())    # H2
    assert not is_koenig_egervary(triangle_with_tail())  # H3

    ladder = braced_ladder()
    assert simplicial_vertices(ladder) == {1, 3, 4, 7}
    assert core_set(square(ladder)) == {1, 4}

    dp = diamond_with_pendant()
    assert alpha(dp)[0] == 2 and mu(dp)[0] == 2
    assert not is_koenig_egervary(dp) and is_square_stable(dp)

    elapsed = time.perf_counter() - t0
    _report("criterion-1 fixture-suite", elapsed < 5.0,
            f"all named-graph facts hold in {elapsed:.2f}s (< 5s)")


def test_criterion_2_six_way_equivalences_exhaustive():
    t0 = time.perf_counter()
    fams = [GraphFamily.exhaustive(n, connected=True) for n in range(1, 7)]
    verdict = run_claim("square-stable-equivalences", fams)
    elapsed = time.perf_counter() - t0
    _report("criterion-2 six-way-equivalences",
            verdict["passed"] and verdict["complete"]
            and verdict["graphs_checked"] == 1 + 1 + 4 + 38 + 728 + 26704
            and elapsed < 600,
            f"0 counterexamples over {verdict['graphs_checked']} connected graphs "
            f"(n<=6) in {elapsed:.1f}s (<= 600s)")


def test_criterion_3_ke_characterization():
    t0 = time.perf_counter()
    exhaustive = [GraphFamily.exhaustive(n) for n in range(2, 7)]
    v1 = run_claim("ke-square-stable-characterization", exhaustive)
    random_cells = [GraphFamily.gnp(n, p, 3000, seed=31 * n + int(100 * p))
                    for n in range(7, 13) for p in (0.2, 0.3, 0.4)]
    v2 = run_claim("ke-square-stable-characterization", random_cells)
    elapsed = time.perf_counter() - t0
    _report("criterion-3 ke-characterization",
            v1["passed"] and v2["passed"] and v1["complete"] and v2["complete"]
            and v2["graphs_checked"] >= 10_000,
            f"0 counterexamples; exhaustive n 2..6 checked {v1['graphs_checked']} "
            f"connected KE graphs, random sweep checked {v2['graphs_checked']} "
            f"(>= 10000) in {elapsed:.1f}s")


def test_criterion_4_tree_equivalences():
    t0 = time.perf_counter()
    every_tree = [GraphFamily.all_trees(n) for n in range(2, 9)]
    v1 = run_claim("tree-well-covered-equivalences", every_tree)
    cayley_total = sum(n ** (n - 2) for n in range(2, 9))
    random_trees = [GraphFamily.random_trees(n, 1429, seed=7 * n)
                    for n in range(10, 17)]
    v2 = run_claim("tree-well-covered-equivalences", random_trees)
    elapsed = time.perf_counter() - t0
    _report("criterion-4 tree-equivalences",
            v1["passed"] and v2["passed"] and v1["complete"] and v2["complete"]
            and v1["graphs_checked"] == cayley_total
            and v2["graphs_checked"] >= 10_000 and elapsed < 900,
            f"0 counterexamples over {v1['graphs_checked']} labeled trees "
            f"(n 2..8, capped below n=9 to hold the time budget) plus "
            f"{v2['graphs_checked']} random trees (n 10..16) in {elapsed:.1f}s "
            f"(<= 900s)")


def test_criterion_5_remaining_claims_exhaustive_and_random():
    names = [
        "inequality-chain",
        "square-stable-alpha-le-mu",
        "square-ke-perfect-matching",
        "vwc-pendant-characterization",
        "componentwise-square-stability",
        "very-well-covered-basics",
        "girth6-well-covered-equivalences",
    ]
    exhaustive = [GraphFamily.exhaustive(n) for n in range(1, 7)]
    t0 = time.perf_counter()
    lines = []
    all_ok = True
    for name in names:
        v1 = run_claim(name, exhaustive)
        v2 = run_claim(name, SWEEP_CELLS)
        ok = v1["passed"] and v2["passed"] and v1["complete"] and v2["complete"]
        all_ok = all_ok and ok
        lines.append(f"{name}: exhaustive {v1['graphs_checked']}, "
                     f"random {v2['graphs_checked']}")
        assert ok, (name, v1["counterexample"], v2["counterexample"])
    elapsed = time.perf_counter() - t0
    _report("criterion-5 remaining-claims", all_ok,
            f"0 counterexamples over exhaustive n<=6 plus G(n,p) sweeps "
            f"(p in 0.2/0.5/0.8, n 7..12, 1000 per cell) in {elapsed:.1f}s; "
            + "; ".join(lines))


def test_criterion_5_supplementary_claims():
    # the simplicial-correspondence and pendant-matching claims ride the same
    # families even though the gate does not name them
    exhaustive = [GraphFamily.exhaustive(n) for n in range(1, 7)]
    for name in ("square-simplicial-correspondence",
                 "pendant-matching-implies-square-stable"):
        v = run_claim(name, exhaustive)
        assert v["passed"] and v["complete"], (name, v["counterexample"])


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    fams = [GraphFamily.exhaustive(n) for n in range(1, 7)]
    fams += [GraphFamily.gnp(7, 0.5, 500, seed=76), GraphFamily.gnp(8, 0.5, 500, seed=86)]
    for fam in fams:
        for g in generate(fam):
            if g.n < 1:
                continue
            assert alpha(g)[0] == oracles.alpha_oracle(g), encode_graph6(g)
            assert mu(g)[0] == oracles.mu_oracle(g), encode_graph6(g)
            assert theta(g)[0] == oracles.theta_oracle(g), encode_graph6(g)
            assert gamma(g)[0] == oracles.gamma_oracle(g), encode_graph6(g)
            assert ind_dom(g)[0] == oracles.ind_dom_oracle(g), encode_graph6(g)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion-6 oracle-equivalence", checked == 33867 + 1000,
            f"blossom and branch-and-bound solvers match the naive oracles on "
            f"{checked} graphs with zero mismatches in {elapsed:.1f}s")


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    verdicts = [run_control(name) for name, claim in ALL_CLAIMS.items() if claim.families]
    all_refuted = all(v["passed"] for v in verdicts)

    # the specific promised witnesses also refute their claims directly
    unique_pm = ALL_CLAIMS["control-unique-perfect-matching-implies-square-stable"]
    wc_claim = ALL_CLAIMS["control-well-covered-implies-square-stable"]
    from squarestable.invariants import DEFAULT_BUDGET

    named = (
        wc_claim.applies(cycle(4), DEFAULT_BUDGET)
        and wc_claim.violation(cycle(4), DEFAULT_BUDGET) is not None
        and unique_pm.applies(path(6), DEFAULT_BUDGET)
        and unique_pm.violation(path(6), DEFAULT_BUDGET) is not None
        and unique_pm.applies(paw(), DEFAULT_BUDGET)
        and unique_pm.violation(paw(), DEFAULT_BUDGET) is not None)
    omega_claim = ALL_CLAIMS["control-unique-square-maximum-implies-square-stable"]
    named = named and (
        omega_claim.applies(fused_triangles(), DEFAULT_BUDGET)
        and omega_claim.violation(fused_triangles(), DEFAULT_BUDGET) is not None)

    witness_sizes = {v["theorem"]: decode_graph6(v["counterexample"]["graph6"]).n
                     for v in verdicts}
    elapsed = time.perf_counter() - t0
    _report("criterion-7 negative-controls", all_refuted and named,
            f"every planted-false claim refuted with a re-verified "
            f"counterexample (orders {witness_sizes}) in {elapsed:.1f}s")


def test_criterion_8_codec_round_trip():
    t0 = time.perf_counter()
    count = 0
    fams = [GraphFamily.exhaustive(n) for n in range(0, 7)]
    fams += [GraphFamily.all_trees(n) for n in range(1, 8)]
    fams += [GraphFamily.random_trees(12, 200, seed=3)]
    fams += [GraphFamily.gnp(n, p, 100, seed=n + int(10 * p))
             for n in range(7, 13) for p in (0.2, 0.5, 0.8)]
    for fam in fams:
        for g in generate(fam):
            assert decode_graph6(encode_graph6(g)) == g
            count += 1
    assert encode_graph6(path(4)) == "Ch" and decode_graph6("Ch") == path(4)
    assert encode_graph6(complete(1)) == "@" and decode_graph6("@") == complete(1)
    elapsed = time.perf_counter() - t0
    _report("criterion-8 codec-round-trip", True,
            f"decode(encode(g)) == g for {count} graphs across every family "
            f"kind, reference values cross-checked, in {elapsed:.1f}s")


def test_criterion_9_verify_determinism():
    args = [sys.executable, "-m", "squarestable.cli", "verify",
            "--theorem", "all", "--family", "exhaustive:5", "--seed", "42"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _report("criterion-9 determinism", ok,
            "two verify runs produced byte-identical reports "
            f"({len(first.stdout)} bytes)")
