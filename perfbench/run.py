#!/usr/bin/env python3
"""Benchmark of the squarestable CLI: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-labeled --seed 1 --seconds 40 --trace 0

Without ``--workload`` every workload runs in turn.  Each run spawns the real
CLI (``squarestable.cli:main`` with ``src`` on the path, the way the console
script calls it) over inputs made from ``--seed``, gates every output against
the reference recorded in ``reference.json``, and prints one JSON result as
its last stdout line.  ``--trace 0`` reports the end-to-end metrics from
untraced commands; ``--trace 1`` reports the per-layer metrics from a separate
traced command (see ``bench_trace.py``).  The exit code is 0 when every output
was correct, 1 on a correctness-gate failure and 2 on a usage error.  See
README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import bench_gate
import bench_inputs
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REL_WORK = WORK.relative_to(ROOT).as_posix()

#: How ``squarestable = squarestable.cli:main`` runs under the console script.
LAUNCH = "import sys; from squarestable.cli import main; sys.argv[0] = 'squarestable'; main()"
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import squarestable.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")

SETUP_REPEATS = 10
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0

CLAIM_NAMES = (
    "inequality-chain", "square-stable-equivalences",
    "square-simplicial-correspondence", "pendant-matching-implies-square-stable",
    "ke-square-stable-characterization", "tree-well-covered-equivalences",
    "square-stable-alpha-le-mu", "square-ke-perfect-matching",
    "vwc-pendant-characterization", "girth6-well-covered-equivalences",
    "very-well-covered-basics", "componentwise-square-stability",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                 # "verify" or "analyze"
    family: str = ""             # fixed verify family; empty for chunked inputs
    jobs: int = 1
    reference: str = ""          # key in reference.json
    chunk_maker: Callable[[int], list[str]] | None = None  # builds chunk i
    chunks: int = 0
    exercises: tuple[str, ...] = ()   # layers the traced run must see


WORKLOADS = {w.name: w for w in [
    Workload("verify-labeled",
             "all claims over every labeled graph on 5 vertices, serial: "
             "per-graph overhead (Graph, generate, square, components) dominates",
             "verify", family="exhaustive:5", reference="verify-labeled",
             exercises=("families", "graphs", "invariants", "harness")),
    Workload("verify-labeled-jobs2",
             "the same sweep with --jobs 2: parent regenerates, graph6-encodes "
             "and starts a pool per claim; output must equal the serial bytes",
             "verify", family="exhaustive:5", jobs=2, reference="verify-labeled",
             exercises=("families", "graphs", "codec", "harness.fanout")),
    Workload("analyze-corpus",
             "analyze records over a shuffled corpus of G(n,p) n 18-24, trees and "
             "coronas: per-graph latency for an interactive user, heavy-tailed",
             "analyze", reference="analyze-corpus",
             chunk_maker=bench_inputs.corpus_chunk, chunks=bench_inputs.CORPUS_CHUNKS,
             exercises=("graphs", "codec", "invariants", "recognizers")),
]}

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("graphs_per_s", "graphs/s", "higher", 0.25),
    ("record_ms_p50", "ms", "lower", 0.25),
    ("record_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_catalogue() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.import_s", "s"),
           ("families.generate.passes", "count"),
           ("families.generate.us_per_graph", "us/graph")]
    for f in ("Graph", "square", "components", "adjacency_masks"):
        out += [(f"graphs.{f}.calls_per_graph", "calls/graph"), (f"graphs.{f}.us_p50", "us")]
    out += [("graphs.distances.us_p50", "us"), ("graphs.girth.us_p50", "us"),
            ("graphs.self_share", "ratio"),
            ("codec.encode_graph6.calls_per_graph", "calls/graph"),
            ("codec.encode_graph6.us_p50", "us"), ("codec.decode_graph6.us_p50", "us"),
            ("codec.self_share", "ratio")]
    for f in bench_trace.TRACED["invariants"]:
        out += [(f"invariants.{f}.calls_per_graph", "calls/graph"),
                (f"invariants.{f}.us_p50", "us"), (f"invariants.{f}.us_tail", "us"),
                (f"invariants.{f}.self_share", "ratio")]
    for f in bench_trace.TRACED["recognizers"]:
        out += [(f"recognizers.{f}.calls_per_graph", "calls/graph"),
                (f"recognizers.{f}.us_p50", "us"), (f"recognizers.{f}.self_share", "ratio")]
    out += [(f"harness.claim.{c}.s", "s") for c in CLAIM_NAMES]
    out += [("harness.applies.self_share", "ratio"),
            ("harness.violation.self_share", "ratio"),
            ("harness.checked_share", "ratio"),
            ("harness.fanout.pools_started", "count"), ("harness.fanout.batches", "count"),
            ("harness.fanout.parent_s", "s"), ("harness.fanout.pool_wait_s", "s"),
            ("harness.fanout.cpu_over_wall", "ratio"),
            ("trace.overhead", "ratio")]
    return out


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Input:
    """One command's input: its CLI arguments and what the gate expects."""

    args: list[str]
    graphs: int
    lines: list[str] = field(default_factory=list)  # analyze inputs, in order
    expected: str | None = None                      # reference digest


def _verify_args(family: str, jobs: int) -> list[str]:
    args = ["verify", "--theorem", "all", "--family", family]
    return args + (["--jobs", str(jobs)] if jobs > 1 else [])


def _write(name: str, text: str) -> str:
    (WORK / name).write_text(text, encoding="ascii")
    return f"{REL_WORK}/{name}"


def chunk_input(w: Workload, ref: dict, index: int, seed: int | None) -> Input:
    """Write chunk ``index`` of ``w`` in the seed's order (built order for
    None), check its digest, and describe the command."""
    lines = w.chunk_maker(index)
    entry = ref["chunks"][index]
    if bench_inputs.multiset_digest(lines) != entry["input_sha256"]:
        raise bench_gate.GateFailure(
            f"{w.name} chunk {index}: generated input differs from the reference input")
    if seed is not None:
        lines = bench_inputs.seeded_lines(lines, seed, index)
    path = _write(f"{w.name}-{index:02d}.g6", bench_inputs.chunk_text(lines))
    if w.command == "analyze":
        return Input(["analyze", "--input", path], len(lines), lines,
                     entry["records_sha256"])
    return Input(_verify_args(f"graph6:{path}", w.jobs), len(lines),
                 expected=entry["stdout_sha256"])


def fixed_input(w: Workload, ref: dict) -> Input:
    return Input(_verify_args(w.family, w.jobs), ref["graphs"],
                 expected=ref["stdout_sha256"])


def setup_input(w: Workload) -> Input:
    """The workload's command on an empty input of the same kind."""
    if w.family:
        return Input(_verify_args("exhaustive:0", w.jobs), 1)
    path = _write("empty.g6", "")
    if w.command == "analyze":
        return Input(["analyze", "--input", path], 0)
    return Input(_verify_args(f"graph6:{path}", w.jobs), 0)


# ---------------------------------------------------------------------------
# running one command


@dataclass
class Run:
    stdout: bytes
    line_times: list[float]   # seconds from spawn at which each line arrived
    eof_s: float              # spawn to end of stdout
    wall_s: float             # spawn to exit
    cpu_s: float              # user + system, pool workers included
    peak_rss_mb: float        # largest RSS of the command or any waited-for child


def run_command(argv: list[str]) -> Run:
    """Spawn ``argv`` from the repository root; read stdout as it arrives."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    chunks: list[bytes] = []
    line_times: list[float] = []
    try:
        while True:
            left = COMMAND_TIMEOUT_S - (perf_counter() - t0)
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError(f"command ran past {COMMAND_TIMEOUT_S} s: {argv}")
            data = os.read(fd, 1 << 16)
            now = perf_counter() - t0
            if not data:
                break
            chunks.append(data)
            line_times.extend([now] * data.count(b"\n"))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    eof = perf_counter() - t0
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # 3 means a solver budget ran out; the gate counts those graphs as failed
    if proc.returncode not in (0, 3):
        raise bench_gate.GateFailure(f"exit code {proc.returncode}: {argv}")
    return Run(b"".join(chunks), line_times, eof, wall,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-u", "-c", LAUNCH, *args]


def gate(w: Workload, inp: Input, run: Run) -> tuple[int, int]:
    """(attempted, failed) for one command; raises GateFailure on wrong output."""
    if w.command == "analyze":
        return bench_gate.check_analyze(run.stdout, inp.lines, inp.expected)
    return bench_gate.check_verify(run.stdout, inp.graphs, len(CLAIM_NAMES), inp.expected)


# ---------------------------------------------------------------------------
# the two kinds of run


def percentile(values: list[float], q: float) -> float:
    return bench_trace.percentile(sorted(values), q)


def timed_run(w: Workload, inputs: list[Input],
              seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced commands for ``seconds``; returns (metrics, notes, attempted, failed)."""
    setup = setup_input(w)
    setup_walls: list[float] = []

    def time_setup() -> None:
        run = run_command(cli_argv(setup.args))
        gate(w, setup, run)
        setup_walls.append(run.wall_s)

    # warm-up: bytecode compiled and files cached before anything is timed
    gate(w, setup, run_command(cli_argv(setup.args)))

    # Whole passes over the inputs, so every run measures the same graphs in
    # the same proportions, while the next pass still fits in ``seconds``.
    # The machine's speed drifts between a fast and a slow state for tens of
    # seconds at a time, so set-up timings are spread evenly over the run
    # rather than taken in one burst.
    runs: list[tuple[Input, Run]] = []
    pass_walls: list[float] = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for inp in inputs:
            if len(setup_walls) < 1 + SETUP_REPEATS * (perf_counter() - start) / seconds:
                time_setup()
            run = run_command(cli_argv(inp.args))
            counts = gate(w, inp, run)
            attempted += counts[0]
            failed += counts[1]
            runs.append((inp, run))
        pass_walls.append(perf_counter() - pass_start)
        if perf_counter() - start + statistics.median(pass_walls) > seconds:
            break
    while len(setup_walls) < SETUP_REPEATS:
        time_setup()

    if w.command == "analyze":
        # gaps between successive records as the reader saw them; the first
        # record's delay from spawn is start-up, reported as setup_s
        samples = [(b - a) * 1e3 for _, r in runs
                   for a, b in zip(r.line_times, r.line_times[1:])]
        record_kind = "gap between successive analyze records"
    else:
        samples = [r.line_times[-1] * 1e3 for _, r in runs]
        record_kind = "spawn to verdict lines, one sample per command"
    metrics = {
        "setup_s": statistics.median(setup_walls),
        # an aggregate, not a median of per-command rates: it moves smoothly
        # with the share of the run the machine spent slow, where a median
        # jumps between the two states
        "graphs_per_s": (sum(inp.graphs for inp, _ in runs)
                         / sum(r.wall_s for _, r in runs)),
        "record_ms_p50": percentile(samples, 50),
        "record_ms_p95": percentile(samples, 95),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for _, r in runs),
    }
    notes = {"passes": len(pass_walls), "commands": len(runs),
             "graphs": sum(inp.graphs for inp, _ in runs),
             "command_walls_s": [r.wall_s for _, r in runs],
             "setup_runs": SETUP_REPEATS, "record": record_kind,
             "record_samples": len(samples),
             "record_samples_beyond_p95": sum(s > metrics["record_ms_p95"] for s in samples),
             "measured_s": perf_counter() - start}
    return metrics, notes, attempted, failed


def traced_run(w: Workload, inp: Input) -> tuple[dict, dict, int, int]:
    """One untraced and one traced command on the same input."""
    plain = run_command(cli_argv(inp.args))
    attempted, failed = gate(w, inp, plain)
    spans_path = WORK / f"{w.name}.spans.json"
    traced = run_command([sys.executable, "-u", str(HERE / "bench_trace.py"),
                          str(spans_path), *inp.args])
    counts = gate(w, inp, traced)
    attempted += counts[0]
    failed += counts[1]
    with open(spans_path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)

    metrics, notes = bench_trace.summarize(trace, inp.graphs)
    claim_s = notes.pop("claim_s")
    for name in CLAIM_NAMES:
        metrics[f"harness.claim.{name}.s"] = claim_s.get(f"harness.claim.{name}", 0.0)
    if w.command == "verify":
        verdicts = [json.loads(line) for line in traced.stdout.splitlines()]
        metrics["harness.checked_share"] = (sum(v["graphs_checked"] for v in verdicts)
                                            / sum(v["graphs_seen"] for v in verdicts))
    else:
        metrics["harness.checked_share"] = 0.0
    metrics["harness.fanout.cpu_over_wall"] = plain.cpu_s / plain.wall_s
    metrics["trace.overhead"] = traced.eof_s / plain.eof_s
    imports = [float(run_command([sys.executable, "-c", IMPORT_PROBE]).stdout)
               for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = statistics.median(imports)

    recorded = {trace["names"][fid] for fid, *_ in trace["spans"]}
    missing = [layer for layer in w.exercises
               if not any(name.startswith(layer + ".") for name in recorded)]
    if missing:
        raise bench_gate.GateFailure(f"traced run recorded no spans for {missing}")
    if w.family and metrics["families.generate.passes"] != len(CLAIM_NAMES):
        raise bench_gate.GateFailure(
            f"expected {len(CLAIM_NAMES)} generate passes, got "
            f"{metrics['families.generate.passes']}")
    if w.jobs > 1 and metrics["harness.fanout.pools_started"] != len(CLAIM_NAMES):
        raise bench_gate.GateFailure(
            f"expected {len(CLAIM_NAMES)} pools, got {metrics['harness.fanout.pools_started']}")
    notes.update({"graphs": inp.graphs, "traced_wall_s": traced.eof_s,
                  "untraced_wall_s": plain.eof_s,
                  "traced_side": "parent process only" if w.jobs > 1 else "whole command"})
    return metrics, notes, attempted, failed


# ---------------------------------------------------------------------------


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    ref = bench_gate.load_reference()[w.reference]
    info = {"workload": w.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), **machine()}
    attempted = failed = 0
    try:
        if w.chunk_maker is None:
            inputs = [fixed_input(w, ref)]
        elif trace:
            # the traced input is fixed so its counts compare across runs and seeds
            inputs = [chunk_input(w, ref, 0, None)]
        else:
            inputs = [chunk_input(w, ref, i, seed)
                      for i in bench_inputs.chunk_order(seed, w.chunks)]
        if trace:
            values, notes, attempted, failed = traced_run(w, inputs[0])
            wanted = per_layer_catalogue()
        else:
            values, notes, attempted, failed = timed_run(w, inputs, seconds)
            wanted = [(name, unit) for name, unit, _, _ in END_TO_END]
    except (bench_gate.GateFailure, TimeoutError) as exc:
        info["gate_failure"] = str(exc)
        print(json.dumps(info), flush=True)
        return {"correct": False, "attempted": max(attempted, 1), "failed": failed,
                "metrics": {}}
    info.update(notes)
    if failed:
        info["gate_failure"] = f"{failed} of {attempted} graphs budget-skipped or errored"
    print(json.dumps(info), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in wanted}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "squarestable" / "cli.py").is_file():
        print(f"error: no squarestable sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
