"""Traced run of the squarestable CLI, and the per-layer summary of its spans.

Run as a script, this file imports the package, wraps the public functions of
each layer in timing wrappers installed from outside ``src``, runs
``squarestable.cli.cli_main`` on the remaining arguments and, once the
command returns, writes every span to the output file:

    python3 perfbench/bench_trace.py SPANS.json verify --theorem all ...

A span is ``(name id, start, end, parent span, graph index)``; times are
seconds on ``time.perf_counter``.  Spans stay in memory until the run ends.
The package binds solver names at import (``from .invariants import alpha``),
so each wrapper replaces the original in the defining module and in every
module namespace that holds it.  Forked pool workers switch tracing off: their
spans would die with them, so a ``--jobs`` run is traced on the parent side
only.

Imported as a module, :func:`summarize` turns a span file into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from dataclasses import replace
from time import perf_counter

_END = object()

#: Public functions timed per module; ``Graph`` times the constructor.
TRACED = {
    "graphs": ("Graph", "square", "components", "adjacency_masks", "distances",
               "girth"),
    "codec": ("encode_graph6", "decode_graph6"),
    "invariants": ("alpha", "mu", "theta", "gamma", "ind_dom", "omega_family",
                   "core_set", "maximal_cliques", "count_perfect_matchings",
                   "simplicial_vertices"),
    "recognizers": ("recognize", "is_well_covered",
                    "has_pendant_perfect_matching", "is_simplicial_graph"),
}

FANOUT_WAIT = "harness.fanout.wait"


class Tracer:
    """Span recorder shared by every wrapper of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.graph = -1
        self.enabled = True
        self.counters = {"generate_passes": 0, "pools_started": 0, "batches": 0}

    def disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        fid = self.name_id(name)
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tracer.graph)

        return traced

    def iterate(self, name: str | None, it, graphs: bool):
        """Re-yield ``it``; each ``next`` is a span when ``name`` is given,
        and with ``graphs`` each item advances the current graph index."""
        fid = None if name is None else self.name_id(name)
        spans, stack = self.spans, self.stack
        index = 0
        while True:
            if graphs:
                self.graph = index
            if fid is None or not self.enabled:
                item = next(it, _END)
            else:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(it, _END)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (fid, t0, t1, parent, self.graph)
            if item is _END:
                return
            index += 1
            yield item


def _replace_everywhere(original, wrapper) -> int:
    """Swap ``original`` for ``wrapper`` in every squarestable namespace."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "squarestable"
                               or mod_name.startswith("squarestable.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already imported package."""
    import squarestable.cli as cli
    import squarestable.families as families
    import squarestable.harness as harness

    for layer, names in TRACED.items():
        mod = sys.modules[f"squarestable.{layer}"]
        for name in names:
            original = getattr(mod, name)
            if isinstance(original, type):
                original.__init__ = tracer.wrap(f"{layer}.{name}", original.__init__)
            elif not _replace_everywhere(original, tracer.wrap(f"{layer}.{name}", original)):
                raise RuntimeError(f"{layer}.{name} not found in any namespace")

    original_generate = families.generate

    def generate(family):
        it = original_generate(family)
        if tracer.enabled:
            tracer.counters["generate_passes"] += 1
        return tracer.iterate("families.generate", it, graphs=True)

    _replace_everywhere(original_generate, generate)

    original_input = cli._input_graphs
    cli._input_graphs = lambda args: tracer.iterate(None, original_input(args), graphs=True)

    original_run_claim = harness.run_claim
    per_claim: dict = {}

    def run_claim(name, *args, **kwargs):
        if name not in per_claim:
            per_claim[name] = tracer.wrap(f"harness.claim.{name}", original_run_claim)
        return per_claim[name](name, *args, **kwargs)

    _replace_everywhere(original_run_claim, run_claim)

    wrapped: dict = {}
    for registry in (harness.CLAIMS, harness.ALL_CLAIMS):
        for key, claim in registry.items():
            if id(claim) not in wrapped:
                wrapped[id(claim)] = replace(
                    claim,
                    applies=tracer.wrap("harness.applies", claim.applies),
                    violation=tracer.wrap("harness.violation", claim.violation))
            registry[key] = wrapped[id(claim)]

    base_pool = harness.ProcessPoolExecutor

    class TracedPool(base_pool):
        """Counts pools and batches; times the parent's waits on workers."""

        def __init__(self, *args, **kwargs):
            if tracer.enabled:
                tracer.counters["pools_started"] += 1
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            if tracer.enabled:
                tracer.counters["batches"] += len(iterables[0])
            return tracer.iterate(FANOUT_WAIT, super().map(fn, *iterables, **kwargs),
                                  graphs=False)

        __exit__ = tracer.wrap(FANOUT_WAIT, base_pool.__exit__)

    harness.ProcessPoolExecutor = TracedPool
    os.register_at_fork(after_in_child=tracer.disable)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import squarestable.cli as cli

    tracer = Tracer()
    install(tracer)
    t0 = perf_counter()
    code = cli.cli_main(cli_args)
    wall = perf_counter() - t0
    tracer.disable()
    # closing stdout marks the end of the traced work for the reader, so
    # writing the spans below stays out of the measured wall time
    sys.stdout.flush()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "names": tracer.names,
                   "counters": tracer.counters, "spans": tracer.spans},
                  fh, separators=(",", ":"))
    return code


# ---------------------------------------------------------------------------
# runner side


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves at least ten calls above it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return q
    return 100.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of already sorted values."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(trace: dict, graphs: int) -> tuple[dict, dict]:
    """Per-function counts, latencies and self times from one span file.

    Returns ``(metrics, notes)``: metrics keyed by per-layer metric name, and
    notes with each claim's seconds, each tail's percentile and sample count,
    and the number of spans.
    """
    names = trace["names"]
    spans = trace["spans"]
    wall = trace["wall_s"]
    child = [0.0] * len(spans)
    for fid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    durations: dict[str, list[float]] = {name: [] for name in names}
    self_s: dict[str, float] = {name: 0.0 for name in names}
    for idx, (fid, t0, t1, _, _) in enumerate(spans):
        name = names[fid]
        durations[name].append(t1 - t0)
        self_s[name] += (t1 - t0) - child[idx]

    metrics: dict[str, float] = {}
    notes: dict[str, dict] = {}

    def calls(name):
        return len(durations.get(name, ()))

    def us_p50(name):
        return statistics.median(durations[name]) * 1e6 if calls(name) else 0.0

    def share(name_list):
        return sum(self_s.get(n, 0.0) for n in name_list) / wall

    for layer, funcs in TRACED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            metrics[f"{name}.calls_per_graph"] = calls(name) / graphs
            metrics[f"{name}.us_p50"] = us_p50(name)
            metrics[f"{name}.self_share"] = share([name])
            if layer == "invariants":
                values = sorted(durations.get(name, ()))
                q = tail_percentile(len(values))
                metrics[f"{name}.us_tail"] = percentile(values, q) * 1e6
                notes[f"{name}.us_tail"] = {"percentile": q, "n": len(values)}
    for layer in ("graphs", "codec"):
        metrics[f"{layer}.self_share"] = share([f"{layer}.{f}" for f in TRACED[layer]])

    gen = durations.get("families.generate", [])
    # one span per item plus the final empty ``next`` of each pass
    yielded = len(gen) - trace["counters"]["generate_passes"]
    metrics["families.generate.passes"] = trace["counters"]["generate_passes"]
    metrics["families.generate.us_per_graph"] = (sum(gen) / yielded * 1e6
                                                 if yielded else 0.0)

    metrics["harness.applies.self_share"] = share(["harness.applies"])
    metrics["harness.violation.self_share"] = share(["harness.violation"])
    claim_s = {n: sum(d) for n, d in durations.items()
               if n.startswith("harness.claim.")}
    pool_wait = sum(durations.get(FANOUT_WAIT, ()))
    metrics["harness.fanout.pools_started"] = trace["counters"]["pools_started"]
    metrics["harness.fanout.batches"] = trace["counters"]["batches"]
    metrics["harness.fanout.pool_wait_s"] = pool_wait
    metrics["harness.fanout.parent_s"] = (sum(claim_s.values()) - pool_wait
                                          if trace["counters"]["pools_started"] else 0.0)
    return metrics, {"claim_s": claim_s, "tails": notes, "spans": len(spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
