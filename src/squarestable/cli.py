"""Command-line front end.

Subcommands: ``analyze`` (full invariant + recognition records), ``recognize``
(class flags only), ``square`` (emit the second power), ``verify`` (run claim
checkers over a family), ``generate`` (emit a family as graph6 lines).

Exit codes: 0 all good; 1 claim violation or control failure; 2 usage,
parse or unreadable-input error, or an order-0 graph in an ``analyze`` or
``recognize`` stream (which outranks 3); 3 a solver budget was exhausted
somewhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

from .codec import decode_graph6, encode_graph6, graph6_strings, parse_edge_list
from .graphs import Graph, square
from .invariants import DEFAULT_BUDGET, BudgetExhausted, SolverBudget, invariant_report
from .recognizers import recognize

if TYPE_CHECKING:
    from .families import GraphFamily

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budget_from(args) -> SolverBudget:
    return SolverBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _input_graphs(args) -> Iterator[Graph]:
    """Yield the graphs of the selected input."""
    if args.format == "edgelist":
        yield parse_edge_list("\n".join(_read_lines(args.input)))
        return
    for line in graph6_strings(_read_lines(args.input)):
        yield decode_graph6(line)


def _print_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")


def _print_records(args, record: Callable[[Graph, SolverBudget], tuple[dict, bool]]) -> int:
    """Print ``record(g, budget)``, which also says whether the budget sufficed,
    for each input graph.  The order-0 graph, which theta and the class
    predicates cannot take, gets an error record instead, and exit 2 outranks 3.
    """
    budget = _budget_from(args)
    empty = exhausted = False
    for g in _input_graphs(args):
        if g.n == 0:
            _print_json({"graph6": encode_graph6(g),
                         "error": "a record needs at least one vertex"})
            empty = True
            continue
        line, decided = record(g, budget)
        _print_json(line)
        exhausted = exhausted or not decided
    return EXIT_USAGE if empty else EXIT_BUDGET if exhausted else EXIT_OK


def _analysis(g: Graph, budget: SolverBudget) -> tuple[dict, bool]:
    """The invariants, then the ``recognize`` profile and its decided flag."""
    timing: dict[str, float] = {}
    try:
        report = invariant_report(g, budget, timing)
    except BudgetExhausted as exc:
        return {"graph6": encode_graph6(g), "error": str(exc)}, False
    t0 = time.perf_counter()
    record, decided = _recognition(g, budget)
    timing["recognize"] = round(time.perf_counter() - t0, 6)
    return {"graph6": record["graph6"], "invariants": report,
            "profile": record["profile"], "timing": timing}, decided


def _recognition(g: Graph, budget: SolverBudget) -> tuple[dict, bool]:
    profile = recognize(g, budget)
    decided = all(profile[k] is not None for k in ("ke", "well_covered",
                                                   "very_well_covered", "square_stable"))
    return {"graph6": encode_graph6(g), "profile": profile}, decided


def _cmd_square(args) -> int:
    for g in _input_graphs(args):
        sys.stdout.write(encode_graph6(square(g)) + "\n")
    return EXIT_OK


def _family_from_args(args) -> GraphFamily:
    from .families import GraphFamily, parse_family_spec

    spec = args.family
    if spec.startswith("graph6:"):
        path = spec[len("graph6:"):]
        lines = _read_lines(path)
        label = "stdin" if path == "-" else path
        return GraphFamily.graph6_lines(lines, label=label, connected=args.connected)
    return parse_family_spec(spec, seed=args.seed, connected=args.connected)


def _cmd_generate(args) -> int:
    from .families import generate

    family = _family_from_args(args)
    for g in generate(family):
        sys.stdout.write(encode_graph6(g) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .harness import ALL_CLAIMS, CLAIMS, run_claim, run_control

    budget = _budget_from(args)
    names: list[str]
    if args.theorem == "all":
        names = list(CLAIMS)
    elif args.theorem == "controls":
        names = [name for name, claim in ALL_CLAIMS.items() if claim.families]
    elif args.theorem in ALL_CLAIMS:
        names = [args.theorem]
    else:
        print(f"error: unknown theorem {args.theorem!r}; choices: "
              f"{', '.join(list(ALL_CLAIMS) + ['all', 'controls'])}",
              file=sys.stderr)
        return EXIT_USAGE

    # a control scans its own families, never --family
    family = (_family_from_args(args)
              if any(not ALL_CLAIMS[name].families for name in names) else None)
    verdicts = [run_control(name, budget, args.jobs) if ALL_CLAIMS[name].families
                else run_claim(name, family, budget, args.jobs) for name in names]
    for verdict in verdicts:
        _print_json(verdict)
    if not all(verdict["passed"] for verdict in verdicts):
        return EXIT_VIOLATION
    if any(verdict["skipped"] for verdict in verdicts):
        return EXIT_BUDGET
    return EXIT_OK


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default="-",
                   help="graph6 lines file, or - for stdin (default)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6",
                   help="edgelist reads one graph: first line 'n m', then m 'u v' lines")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_budget_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.max_nodes,
                   help="search-node cap per solver call (default %(default)s)")
    p.add_argument("--budget-seconds", type=float, default=DEFAULT_BUDGET.max_seconds,
                   help="wall-clock cap per solver call (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarestable",
        description="Exact invariants, recognizers and claim checking for "
                    "Konig-Egervary square-stable graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit invariant + recognition records")
    _add_input_options(p)
    _add_budget_options(p)
    p.set_defaults(func=partial(_print_records, record=_analysis))

    p = sub.add_parser("recognize", help="emit recognition profiles")
    _add_input_options(p)
    _add_budget_options(p)
    p.set_defaults(func=partial(_print_records, record=_recognition))

    p = sub.add_parser("square", help="emit the graph6 of each second power")
    _add_input_options(p)
    p.set_defaults(func=_cmd_square)

    p = sub.add_parser("verify", help="check claims over a graph family")
    p.add_argument("--theorem", required=True,
                   help="claim name, 'all', or 'controls'")
    p.add_argument("--family", default="exhaustive:5",
                   help="exhaustive:N | gnp:N:P:COUNT | trees:N:COUNT | "
                        "trees-all:N | graph6:PATH")
    p.add_argument("--connected", action="store_true",
                   help="restrict the family to connected graphs")
    p.add_argument("--seed", type=int, default=0, help="seed for random families")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the family scan; no more start "
                        "than there are batches of 256 graphs or CPUs this "
                        "process may use")
    _add_budget_options(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a family as graph6 lines")
    p.add_argument("--family", required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        # an unreadable --input or graph6: family file is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
