"""Command-line front end.

Subcommands: ``analyze`` (full invariant + recognition records), ``recognize``
(class flags only), ``square`` (emit the second power), ``verify`` (run claim
checkers over a family), ``generate`` (emit a family as graph6 lines).

Exit codes: 0 all good; 1 claim violation or control failure; 2 usage or
parse error; 3 a solver budget was exhausted somewhere.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Iterator

from .codec import (Graph6Error, decode_graph6, encode_graph6, graph6_strings,
                    parse_edge_list)
from .graphs import Graph, square
from .invariants import BudgetExhausted, SolverBudget, invariant_report
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


def _cmd_analyze(args) -> int:
    budget = _budget_from(args)
    worst = EXIT_OK
    for g in _input_graphs(args):
        timing: dict[str, float] = {}
        try:
            report = invariant_report(g, budget, timing)
            t0 = time.perf_counter()
            profile = recognize(g, budget)
            timing["recognize"] = round(time.perf_counter() - t0, 6)
        except BudgetExhausted as exc:
            _print_json({"graph6": encode_graph6(g), "error": str(exc)})
            worst = EXIT_BUDGET
            continue
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _print_json({"graph6": encode_graph6(g), "invariants": report.to_json_dict(),
                     "profile": profile.to_json_dict(), "timing": timing})
    return worst


def _cmd_recognize(args) -> int:
    budget = _budget_from(args)
    worst = EXIT_OK
    for g in _input_graphs(args):
        try:
            profile = recognize(g, budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        record = {"graph6": encode_graph6(g), "profile": profile.to_json_dict()}
        if any(flag is None for flag in (profile.is_ke, profile.is_well_covered,
                                         profile.is_very_well_covered,
                                         profile.is_square_stable)):
            worst = EXIT_BUDGET
        _print_json(record)
    return worst


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
    from .harness import (ALL_CLAIMS, CLAIMS, CONTROL_FAMILIES, run_claim,
                          run_negative_controls)

    budget = _budget_from(args)
    names: list[str]
    if args.theorem == "all":
        names = list(CLAIMS)
    elif args.theorem == "controls":
        names = []
    elif args.theorem in ALL_CLAIMS:
        names = [args.theorem]
    else:
        print(f"error: unknown theorem {args.theorem!r}; choices: "
              f"{', '.join(list(ALL_CLAIMS) + ['all', 'controls'])}",
              file=sys.stderr)
        return EXIT_USAGE

    failed = False
    skipped_any = False
    verdicts = []
    if names:
        family = _family_from_args(args)
        for name in names:
            if name in CONTROL_FAMILIES:
                verdicts.extend(run_negative_controls(budget, args.jobs, names=[name]))
            else:
                verdicts.append(run_claim(name, family, budget, args.jobs))
    if args.theorem == "controls":
        verdicts.extend(run_negative_controls(budget, args.jobs))
    for verdict in verdicts:
        _print_json(verdict.to_json_dict())
        failed = failed or not verdict.passed
        skipped_any = skipped_any or verdict.skipped > 0
    if failed:
        return EXIT_VIOLATION
    if skipped_any:
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
    p.add_argument("--budget-nodes", type=int, default=10_000_000,
                   help="search-node cap per solver call")
    p.add_argument("--budget-seconds", type=float, default=60.0,
                   help="wall-clock cap per solver call")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarestable",
        description="Exact invariants, recognizers and claim checking for "
                    "Konig-Egervary square-stable graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit invariant + recognition records")
    _add_input_options(p)
    _add_budget_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recognize", help="emit recognition profiles")
    _add_input_options(p)
    _add_budget_options(p)
    p.set_defaults(func=_cmd_recognize)

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
                   help="worker processes for the family scan")
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
    except (Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        return EXIT_OK


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
