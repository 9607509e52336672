import json
import subprocess
import sys
from pathlib import Path

import squarestable
import squarestable.invariants as invariants
from conftest import patch_everywhere
from named_graphs import (c4_with_two_pendants, cycle, disjoint_union, path,
                          paw, star)
from squarestable.cli import cli_main
from squarestable.codec import decode_graph6, encode_graph6
from squarestable.graphs import square
from squarestable.invariants import invariant_report
from squarestable.recognizers import recognize


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "squarestable.cli", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_square_subcommand():
    code, out, _ = run_cli(["square"], stdin="Ch\n")
    assert code == 0
    assert out.strip() == encode_graph6(square(path(4)))


def test_recognize_c4_flags():
    code, out, _ = run_cli(["recognize"], stdin=encode_graph6(cycle(4)) + "\n")
    assert code == 0
    record = json.loads(out)
    assert record["profile"]["square_stable"] is False
    assert record["profile"]["ke"] is True
    assert record["profile"]["well_covered"] is True


def test_analyze_record_shape():
    code, out, _ = run_cli(["analyze"], stdin="Ch\n")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["graph6", "invariants", "profile", "timing"]
    assert record["invariants"]["alpha"] == 2
    assert record["invariants"]["mu"] == 2
    assert record["invariants"]["girth"] is None
    assert record["invariants"]["witnesses"]["stable_set"] == [0, 2]
    assert record["profile"]["pendant_perfect_matching"] is True
    assert set(record["timing"]) == {"alpha", "mu", "theta", "gamma",
                                     "ind_dom", "recognize"}


def test_analyze_solves_alpha_once_per_record(monkeypatch, tmp_path, capsys):
    # with and without a pendant perfect matching (which spares the square's
    # alpha); every square here differs from its graph, so the graph6 of a
    # solved graph tells the base graph from its square
    lines = [encode_graph6(g) for g in (path(4), path(5), cycle(7), star(4), paw(),
                                        c4_with_two_pendants())]
    solved = []
    real_alpha = invariants.alpha

    def counting_alpha(g, budget=invariants.DEFAULT_BUDGET):
        solved.append(encode_graph6(g))
        return real_alpha(g, budget)

    patch_everywhere(monkeypatch, real_alpha, counting_alpha)
    source = tmp_path / "graphs.g6"
    source.write_text("\n".join(lines) + "\n")
    assert cli_main(["analyze", "--input", str(source)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [solved.count(line) for line in lines] == [1] * len(lines)
    monkeypatch.undo()

    assert [r["graph6"] for r in records] == lines
    for line, record in zip(lines, records):
        del record["timing"]
        separately = {
            "graph6": line,
            "invariants": invariant_report(decode_graph6(line)),
            "profile": recognize(decode_graph6(line)),
        }
        assert record == json.loads(json.dumps(separately))


def test_analyze_edgelist_input():
    code, out, _ = run_cli(["analyze", "--format", "edgelist"],
                           stdin="4 3\n0 1\n1 2\n2 3\n")
    assert code == 0
    assert json.loads(out)["graph6"] == "Ch"


def test_analyze_edgelist_from_file(tmp_path):
    src = tmp_path / "p4.txt"
    src.write_text("4 3\n0 1\n1 2\n2 3\n")
    # development mode reports a file handle left open as a ResourceWarning
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "squarestable.cli", "analyze",
         "--format", "edgelist", "--input", str(src)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["graph6"] == "Ch"
    assert proc.stderr == ""


def test_generate_deterministic_and_counted():
    args = ["generate", "--family", "trees:5:10", "--seed", "7"]
    code, out, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code == code2 == 0
    assert out == out2
    lines = out.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        g = decode_graph6(line)
        assert g.n == 5 and len(g.edges) == 4


def test_generate_exhaustive_count():
    code, out, _ = run_cli(["generate", "--family", "exhaustive:3"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_verify_passes_on_exhaustive_4():
    code, out, _ = run_cli([
        "verify", "--theorem", "all", "--family", "exhaustive:4"])
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert len(verdicts) == 12
    assert all(v["passed"] for v in verdicts)


def test_verify_reports_violation_with_exit_1():
    # feed a wc graph that is not square-stable to the planted-false control's
    # claim registered as a theorem-style run: use the control name directly
    code, out, _ = run_cli([
        "verify", "--theorem", "control-well-covered-implies-square-stable",
        "--family", "exhaustive:4"])
    # the control refutes its claim, so as a control it PASSES -> exit 0
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "control" and verdict["passed"]


def test_verify_controls_exit_zero():
    code, out, _ = run_cli(["verify", "--theorem", "controls"])
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert len(verdicts) == 4 and all(v["passed"] for v in verdicts)


def test_verify_budget_exhaustion_exit_3():
    code, out, _ = run_cli([
        "verify", "--theorem", "inequality-chain", "--family", "gnp:9:0.5:3",
        "--budget-nodes", "10"])
    assert code == 3
    verdict = json.loads(out)
    assert verdict["skipped"] > 0 and verdict["passed"]


def test_verify_checks_graphs_past_sixteen_vertices_in_full():
    # 18-vertex trees: no claim materializes Omega, so none skips them
    code, out, err = run_cli([
        "verify", "--theorem", "all", "--family", "trees:18:10", "--seed", "2"])
    assert code == 0, err
    verdicts = {v["theorem"]: v for v in map(json.loads, out.splitlines())}
    assert len(verdicts) == 12
    assert all(v["passed"] and v["skipped"] == 0 for v in verdicts.values())
    assert verdicts["inequality-chain"]["graphs_checked"] == 10
    assert verdicts["square-stable-equivalences"]["graphs_checked"] == 10


def test_verify_usage_error_exit_2():
    code, _, err = run_cli(["verify", "--theorem", "nonsense-claim"])
    assert code == 2
    assert "unknown theorem" in err


def test_verify_jobs_below_one_exit_2():
    # like --budget-nodes 0, a worker count below one is a usage error
    for jobs in ("0", "-1"):
        code, out, err = run_cli(["verify", "--theorem", "inequality-chain",
                                  "--family", "exhaustive:3", "--jobs", jobs])
        assert code == 2
        assert out == "" and "--jobs" in err


def test_bad_graph6_input_exit_2():
    code, _, err = run_cli(["square"], stdin="C\x01\n")
    assert code == 2
    assert "error" in err


def test_unknown_family_exit_2():
    code, _, err = run_cli(["generate", "--family", "mystery:9"])
    assert code == 2


def test_cli_main_in_process(capsys):
    # the console entry point is importable and runs in-process
    rc = cli_main(["generate", "--family", "exhaustive:2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["A?", "A_"]


def test_verify_deterministic_bytes():
    args = ["verify", "--theorem", "all", "--family", "exhaustive:4",
            "--seed", "42"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


def test_input_from_file_and_jobs(tmp_path):
    lines = "\n".join(["Ch", "C]", "CN"]) + "\n"
    src = tmp_path / "graphs.g6"
    src.write_text(lines)
    code, out, _ = run_cli(["square", "--input", str(src)])
    assert code == 0 and len(out.strip().splitlines()) == 3

    fam = f"graph6:{src}"
    solo = run_cli(["verify", "--theorem", "inequality-chain", "--family", fam])
    multi = run_cli(["verify", "--theorem", "inequality-chain", "--family", fam,
                     "--jobs", "2"])
    assert solo == multi
    assert solo[0] == 0


def test_generate_connected_filter():
    code, out, _ = run_cli(["generate", "--family", "exhaustive:4", "--connected"])
    assert code == 0
    assert len(out.strip().splitlines()) == 38


def test_analyze_edgelist_error_exit_2():
    code, _, err = run_cli(["analyze", "--format", "edgelist"], stdin="3 1\n0 9\n")
    assert code == 2
    assert "line 2" in err
    code, out, err = run_cli(["analyze", "--format", "edgelist"], stdin="3 2\n0 1\n1 0\n")
    assert code == 2 and out == ""
    assert "line 3: repeated edge" in err and "Traceback" not in err


def test_non_finite_budget_seconds_exit_2(tmp_path, capsys):
    # a cap that is not finite is rejected before any solver runs on this graph
    src = tmp_path / "big.g6"
    src.write_text(encode_graph6(disjoint_union(path(300), cycle(5))) + "\n")
    for value in ("inf", "nan"):
        rc = cli_main(["analyze", "--budget-nodes", "20000", "--budget-seconds", value,
                       "--input", str(src)])
        out, err = capsys.readouterr()
        assert rc == 2, value
        assert out == "" and "finite" in err, value


def test_unreadable_input_exit_2(tmp_path):
    missing = tmp_path / "missing.g6"
    for args in (["analyze", "--input", str(missing)],
                 ["verify", "--theorem", "all", "--family", f"graph6:{missing}"]):
        code, out, err = run_cli(args)
        assert code == 2 and out == "", args
        assert err.startswith("error:") and "Traceback" not in err, args


def test_control_claim_reads_no_family(tmp_path):
    # a control scans its own families, so an unreadable --family is unread
    name = "control-well-covered-implies-square-stable"
    code, out, err = run_cli(["verify", "--theorem", name,
                              "--family", f"graph6:{tmp_path / 'missing.g6'}"])
    assert code == 0 and err == ""
    assert out == run_cli(["verify", "--theorem", name])[1]


def test_empty_graph_gets_an_error_record_and_the_stream_goes_on():
    # the order-0 graph gets a per-record error line, as an exhausted budget
    # does, and the lines after it are still read; its exit 2 outranks 3
    for command in ("analyze", "recognize"):
        code, out, err = run_cli([command], stdin="Bo\n?\nCx\n")
        assert code == 2, command
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["graph6"] for r in records] == ["Bo", "?", "Cx"]
        assert records[1] == {"graph6": "?", "error": "a record needs at least one vertex"}
        assert err == "", command
        code, out, _ = run_cli([command, "--budget-nodes", "1"], stdin="Cx\n?\n")
        assert code == 2, command
        assert len(out.splitlines()) == 2, command
    # a malformed line still ends the stream
    code, out, err = run_cli(["analyze"], stdin="?\nC\nCx\n")
    assert code == 2
    assert [json.loads(line)["graph6"] for line in out.splitlines()] == ["?"]
    assert err.startswith("error: ")


def test_budget_exit_matches_the_records(tmp_path, capsys):
    # analyze and recognize exit 3 exactly when some record has an error or
    # a null flag; at 10 nodes KOBIosjgQCPs gets a full analyze record whose
    # well-coveredness is null, and alpha of the square of
    # OmOXeOsnTDxbOsjPsvrCv runs out below 30 nodes
    for line in ("KOBIosjgQCPs", "OmOXeOsnTDxbOsjPsvrCv"):
        src = tmp_path / "one.g6"
        src.write_text(line + "\n")
        for command in ("analyze", "recognize"):
            for nodes in range(1, 201):
                rc = cli_main([command, "--budget-nodes", str(nodes), "--input", str(src)])
                records = [json.loads(r) for r in capsys.readouterr().out.splitlines()]
                undecided = any("error" in r or None in [v for k, v in r["profile"].items()
                                                         if k != "certificates"]
                                for r in records)
                assert rc == (3 if undecided else 0), (line, command, nodes)


def test_analyze_edgelist_huge_order_exit_2(tmp_path):
    # an order far past memory must be a parse error, not a MemoryError
    src = tmp_path / "huge.txt"
    src.write_text("1000000000000000000 0\n")
    code, out, err = run_cli(["analyze", "--format", "edgelist", "--input", str(src)])
    assert code == 2
    assert out == ""
    assert "line 1" in err and "Traceback" not in err


def test_module_run_writes_nothing_to_stderr():
    code, out, err = run_cli(["--help"])
    assert code == 0 and "verify" in out
    assert err == ""


def test_graph6_header_line_is_skipped(tmp_path):
    src = tmp_path / "header.g6"
    src.write_text(">>graph6<<Ch\nC]\n")
    code, out, _ = run_cli(["analyze", "--input", str(src)])
    assert code == 0
    assert [json.loads(line)["graph6"] for line in out.splitlines()] == ["Ch", "C]"]

    code, out, _ = run_cli(["verify", "--theorem", "inequality-chain",
                            "--family", f"graph6:{src}"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["graphs_seen"] == verdict["graphs_checked"] == 2


# runs cli_main on argv, then prints its exit code and every loaded module
LOADED_MODULES = ("import json, sys; from squarestable.cli import cli_main; "
                  "code = cli_main(sys.argv[1:]); "
                  "print(json.dumps([code, sorted(sys.modules)]))")
UNUSED_BY_INPUT_COMMANDS = {"squarestable.harness", "squarestable.families",
                            "concurrent.futures.process", "multiprocessing"}


def loaded_modules(args, stdin=""):
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *args],
                          input=stdin, capture_output=True, text=True)
    assert proc.stderr == ""
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_input_commands_load_neither_harness_nor_pool():
    for command in ("analyze", "recognize", "square"):
        code, modules = loaded_modules([command], stdin="Bo\nCx\n")
        assert code == 0
        assert "squarestable.invariants" in modules
        assert not UNUSED_BY_INPUT_COMMANDS & modules, command
    code, modules = loaded_modules(["verify", "--theorem", "inequality-chain",
                                    "--family", "exhaustive:3"])
    assert code == 0
    assert {"squarestable.harness", "squarestable.families"} <= modules


def test_every_shipped_module_is_loaded_by_some_command():
    # a module that no command loads is read only by tests, and lives under
    # tests/ instead
    shipped = {"squarestable" if path.stem == "__init__" else f"squarestable.{path.stem}"
               for path in Path(squarestable.__file__).parent.glob("*.py")}
    loaded = set()
    for args, stdin in ((["analyze"], "Bo\nCx\n"), (["recognize"], "Bo\nCx\n"),
                        (["square"], "Bo\nCx\n"),
                        (["generate", "--family", "exhaustive:3"], ""),
                        (["verify", "--theorem", "all", "--family", "exhaustive:3"], "")):
        code, modules = loaded_modules(args, stdin)
        assert code == 0, args
        loaded |= {m for m in modules if m.split(".")[0] == "squarestable"}
    assert loaded == shipped
