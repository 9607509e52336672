#!/usr/bin/env python3
"""Record ``reference.json``: the known-correct output for every benchmark input.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

For each input it stores the input digest and the digest of the program's
output (verify stdout bytes; analyze records minus timing).  Every output is
gated first: verdicts must pass completely and every analyze witness must
re-validate.  The ``--jobs 2`` sweep must give the serial bytes.  Later runs
compare against these digests, so an output change shows as a gate failure.
"""

from __future__ import annotations

import json
import sys

import bench_gate
import bench_inputs
import run


def record_chunk(w: run.Workload, index: int) -> dict:
    lines = w.chunk_maker(index)
    entry = {"input_sha256": bench_inputs.multiset_digest(lines), "graphs": len(lines)}
    # no output digest yet, so the gate below checks everything but the reference
    unrecorded = {"stdout_sha256": None, "records_sha256": None, **entry}
    inp = run.chunk_input(w, {"chunks": {index: unrecorded}}, index, None)
    out = run.run_command(run.cli_argv(inp.args))
    if w.command == "analyze":
        _, failed = bench_gate.check_analyze(out.stdout, lines, None)
        entry["records_sha256"] = bench_gate.records_digest(
            [json.loads(line) for line in out.stdout.splitlines()])
    else:
        _, failed = bench_gate.check_verify(out.stdout, len(lines),
                                            len(run.CLAIM_NAMES), None)
        entry["stdout_sha256"] = bench_gate.sha256(out.stdout)
    if failed:
        raise bench_gate.GateFailure(f"{w.name} chunk {index}: {failed} failures")
    print(f"{w.name} chunk {index}: {out.wall_s:.2f} s", file=sys.stderr)
    return entry


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.WORK.mkdir(exist_ok=True)
    reference: dict = {}

    labeled = run.WORKLOADS["verify-labeled"]
    n = int(labeled.family.split(":")[1])
    graphs = 2 ** (n * (n - 1) // 2)
    serial = run.run_command(run.cli_argv(run._verify_args(labeled.family, 1))).stdout
    _, failed = bench_gate.check_verify(serial, graphs, len(run.CLAIM_NAMES), None)
    jobs = run.WORKLOADS["verify-labeled-jobs2"].jobs
    fanned = run.run_command(run.cli_argv(run._verify_args(labeled.family, jobs))).stdout
    if failed or fanned != serial:
        raise bench_gate.GateFailure("labeled sweep failed or --jobs changed its bytes")
    reference["verify-labeled"] = {
        "family": labeled.family, "graphs": graphs,
        "stdout_sha256": bench_gate.sha256(serial),
        "lines": serial.decode("ascii").splitlines()}

    w = run.WORKLOADS["analyze-corpus"]
    reference[w.name] = {"chunks": [record_chunk(w, i) for i in range(w.chunks)]}

    with open(bench_gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
