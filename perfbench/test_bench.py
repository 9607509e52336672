"""Tests of the benchmark itself: the gate must catch wrong output, the inputs
must match the recorded reference, and tracing must not change the output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import pytest

import bench_gate
import bench_inputs
import bench_trace
import run

sys.path.insert(0, str(run.ROOT / "src"))

from squarestable.cli import cli_main  # noqa: E402
from squarestable.codec import encode_graph6  # noqa: E402
from squarestable.graphs import Graph  # noqa: E402

REFERENCE = bench_gate.load_reference()


def labeled_stdout() -> bytes:
    return "".join(line + "\n" for line in REFERENCE["verify-labeled"]["lines"]).encode()


def check_labeled(stdout: bytes) -> tuple[int, int]:
    ref = REFERENCE["verify-labeled"]
    return bench_gate.check_verify(stdout, ref["graphs"], len(run.CLAIM_NAMES),
                                   ref["stdout_sha256"])


def test_reference_verdicts_pass_the_gate():
    assert check_labeled(labeled_stdout()) == (12 * 1024, 0)


@pytest.mark.parametrize("old, new", [
    ('"passed":true', '"passed":false'),       # a refuted claim
    ('"graphs_checked":', '"graphs_checked":1'),  # same shape, other bytes
    ('"graphs_seen":1024', '"graphs_seen":1023'),  # a short sweep
])
def test_corrupted_verdict_line_fails_the_gate(old, new):
    stdout = labeled_stdout().decode()
    assert old in stdout
    with pytest.raises(bench_gate.GateFailure):
        check_labeled(stdout.replace(old, new, 1).encode())


def analyze(lines: list[str], tmp_path) -> bytes:
    path = tmp_path / "in.g6"
    path.write_text("".join(line + "\n" for line in lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["analyze", "--input", str(path)]) == 0
    return out.getvalue().encode()


def test_corrupted_witness_fails_the_gate(tmp_path):
    lines = bench_inputs.corpus_chunk(0)[:8]
    stdout = analyze(lines, tmp_path)
    records = [json.loads(line) for line in stdout.splitlines()]
    digest = bench_gate.records_digest(records)
    assert bench_gate.check_analyze(stdout, lines, digest) == (8, 0)

    def corrupted(edit) -> bytes:
        copy = json.loads(json.dumps(records))
        edit(copy[3]["invariants"])
        return "".join(json.dumps(r) + "\n" for r in copy).encode()

    def swap_stable_vertex(inv):
        # replace a member of the maximum stable set with one of its neighbours
        n, edges = bench_inputs.from_graph6(records[3]["graph6"])
        s = inv["witnesses"]["stable_set"]
        v = next(u for u in s if any(u in e for e in edges))
        w = next(b if a == v else a for a, b in edges if v in (a, b))
        inv["witnesses"]["stable_set"] = sorted(set(s) - {v} | {w})

    def overstate_theta(inv):
        inv["theta"] += 1

    for edit in (swap_stable_vertex, overstate_theta):
        bad = corrupted(edit)
        # the witness check alone catches it, without the reference digest
        with pytest.raises(bench_gate.GateFailure, match="witness"):
            bench_gate.check_analyze(bad, lines, None)


def test_changed_record_fails_the_reference_digest(tmp_path):
    lines = bench_inputs.corpus_chunk(0)[:4]
    stdout = analyze(lines, tmp_path)
    records = [json.loads(line) for line in stdout.splitlines()]
    digest = bench_gate.records_digest(records)
    records[0]["profile"]["ke"] = not records[0]["profile"]["ke"]
    bad = "".join(json.dumps(r) + "\n" for r in records).encode()
    with pytest.raises(bench_gate.GateFailure, match="reference"):
        bench_gate.check_analyze(bad, lines, digest)


def test_timing_is_left_out_of_the_record_digest(tmp_path):
    lines = bench_inputs.corpus_chunk(1)[:3]
    records = [json.loads(line) for line in analyze(lines, tmp_path).splitlines()]
    before = bench_gate.records_digest(records)
    records[0]["timing"]["alpha"] += 1.0
    assert bench_gate.records_digest(records) == before


def test_generated_inputs_match_the_reference():
    w = run.WORKLOADS["analyze-corpus"]
    assert len(REFERENCE[w.name]["chunks"]) == w.chunks
    for index in range(w.chunks):
        lines = w.chunk_maker(index)
        assert bench_inputs.multiset_digest(lines) \
            == REFERENCE[w.name]["chunks"][index]["input_sha256"]


def test_own_graph6_writer_agrees_with_the_package():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 40)
        edges = bench_inputs.gnp(rng, n, rng.random())
        line = bench_inputs.to_graph6(n, edges)
        assert line == encode_graph6(Graph(n, edges))
        assert Graph(*bench_inputs.from_graph6(line)) == Graph(n, edges)


def test_chunk_order_depends_only_on_the_seed():
    assert bench_inputs.chunk_order(3, 12) == bench_inputs.chunk_order(3, 12)
    assert bench_inputs.chunk_order(3, 12) != bench_inputs.chunk_order(4, 12)
    assert sorted(bench_inputs.chunk_order(3, 12)) == list(range(12))


def test_traced_command_keeps_output_and_covers_layers():
    run.WORK.mkdir(exist_ok=True)
    args = run._verify_args("exhaustive:3", 1)
    plain = run.run_command(run.cli_argv(args))
    spans_path = run.WORK / "test.spans.json"
    traced = run.run_command([sys.executable, "-u", str(run.HERE / "bench_trace.py"),
                              str(spans_path), *args])
    assert traced.stdout == plain.stdout
    trace = json.loads(spans_path.read_text())
    metrics, notes = bench_trace.summarize(trace, 8)
    assert metrics["families.generate.passes"] == 12
    recorded = {trace["names"][fid].split(".")[0] for fid, *_ in trace["spans"]}
    assert {"families", "graphs", "invariants", "recognizers", "harness"} <= recorded
    assert set(notes["claim_s"]) == {f"harness.claim.{c}" for c in run.CLAIM_NAMES}


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_catalogue()
