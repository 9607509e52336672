"""Correctness gate: every command the benchmark times must produce right output.

A verify command passes when every verdict is ``passed`` and ``complete``,
every verdict saw the expected number of graphs, and the stdout bytes hash
to the reference recorded for that input.  An analyze command passes when
no record is an ``error`` record, the records come back in input order,
every witness re-validates against its value with the package's public
validators on a graph built by this benchmark's own graph6 reader, and the
records minus their ``timing`` field hash to the reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bench_inputs import from_graph6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class GateFailure(Exception):
    """A timed command produced output that differs from what is known correct."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse_lines(stdout: bytes) -> list[dict]:
    try:
        return [json.loads(line) for line in stdout.decode("ascii").splitlines()]
    except (UnicodeDecodeError, ValueError) as exc:
        raise GateFailure(f"output is not ASCII JSON lines: {exc}") from None


def check_verify(stdout: bytes, graphs: int, claims: int,
                 stdout_sha256: str | None) -> tuple[int, int]:
    """Gate one ``verify --theorem all`` output; returns (attempted, skipped).

    ``attempted`` counts graph-claim evaluations and ``skipped`` the ones a
    solver budget cut short; the caller fails the run when any were skipped.
    ``stdout_sha256`` of None skips the reference comparison (used while
    recording the reference).
    """
    verdicts = _parse_lines(stdout)
    if len(verdicts) != claims:
        raise GateFailure(f"expected {claims} verdict lines, got {len(verdicts)}")
    attempted = skipped = 0
    for verdict in verdicts:
        name = verdict.get("theorem")
        if verdict.get("graphs_seen") != graphs:
            raise GateFailure(f"{name}: graphs_seen {verdict.get('graphs_seen')}, "
                              f"expected {graphs}")
        if verdict.get("passed") is not True:
            raise GateFailure(f"{name}: verdict did not pass: {verdict}")
        if verdict.get("complete") is not (verdict.get("skipped") == 0):
            raise GateFailure(f"{name}: complete flag disagrees with skipped: {verdict}")
        attempted += verdict["graphs_seen"]
        skipped += verdict["skipped"]
    if skipped == 0 and stdout_sha256 is not None and sha256(stdout) != stdout_sha256:
        raise GateFailure("verdict bytes differ from the reference "
                          f"(sha256 {sha256(stdout)} != {stdout_sha256})")
    return attempted, skipped


def _check_witnesses(record: dict) -> None:
    # imported here so that the gate module loads before src is on the path
    from squarestable.graphs import Graph
    from squarestable.invariants import (is_clique_partition, is_dominating_set,
                                         is_matching, is_maximal_stable_set,
                                         is_stable_set)

    n, edges = from_graph6(record["graph6"])
    g = Graph(n, edges)
    inv = record["invariants"]
    wit = inv["witnesses"]
    checks = {
        "alpha": (is_stable_set(g, frozenset(wit["stable_set"])),
                  len(wit["stable_set"])),
        "mu": (is_matching(g, frozenset(tuple(e) for e in wit["matching"])),
               len(wit["matching"])),
        "theta": (is_clique_partition(g, tuple(frozenset(c) for c in wit["clique_cover"])),
                  len(wit["clique_cover"])),
        "gamma": (is_dominating_set(g, frozenset(wit["dominating_set"])),
                  len(wit["dominating_set"])),
        "ind_dom": (is_maximal_stable_set(g, frozenset(wit["min_maximal_stable_set"])),
                    len(wit["min_maximal_stable_set"])),
    }
    for name, (valid, size) in checks.items():
        if not valid or size != inv[name]:
            raise GateFailure(f"{record['graph6']}: witness for {name} does not "
                              f"certify the value {inv[name]}")


def records_digest(records: list[dict]) -> str:
    """Digest of the records with their timing removed, ignoring the order of
    records and of keys (the input order is checked record by record)."""
    canonical = sorted(
        json.dumps({k: v for k, v in record.items() if k != "timing"},
                   sort_keys=True, separators=(",", ":"))
        for record in records)
    return sha256("".join(line + "\n" for line in canonical).encode())


def check_analyze(stdout: bytes, inputs: list[str],
                  records_sha256: str | None) -> tuple[int, int]:
    """Gate one ``analyze`` output; returns (attempted, error records).

    The caller fails the run when any record is an error record.
    """
    records = _parse_lines(stdout)
    if len(records) != len(inputs):
        raise GateFailure(f"expected {len(inputs)} records, got {len(records)}")
    errors = 0
    for expected, record in zip(inputs, records):
        if record.get("graph6") != expected:
            raise GateFailure(f"record for {record.get('graph6')!r} out of order; "
                              f"expected {expected!r}")
        if "error" in record:
            errors += 1
            continue
        try:
            _check_witnesses(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise GateFailure(f"{expected}: malformed record ({exc!r})") from None
    if errors == 0 and records_sha256 is not None \
            and records_digest(records) != records_sha256:
        raise GateFailure("analyze records differ from the reference "
                          f"(sha256 {records_digest(records)} != {records_sha256})")
    return len(records), errors
