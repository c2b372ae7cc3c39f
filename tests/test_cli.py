"""Command-line interface: exit codes, output formats, workload files."""

from __future__ import annotations

import csv
import json

import pytest

from treeq import cli
from treeq.cli import EXIT_ERROR, EXIT_OK, EXIT_ORACLE_BUDGET, EXIT_PARTIAL, main
from treeq.search import run_search
from treeq.synth import Workload, write_workload
from treeq.trees import ResultTree

from conftest import FIG1_EDGES, FIG1_NODES, Q1_TEXT, make_graph


@pytest.fixture()
def fig1_files(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(FIG1_NODES, encoding="utf-8")
    edges.write_text(FIG1_EDGES, encoding="utf-8")
    return nodes, edges


def _run_query(tmp_path, fig1_files, capsys, query_text, *extra):
    nodes, edges = fig1_files
    qfile = tmp_path / "query.eql"
    qfile.write_text(query_text, encoding="utf-8")
    code = main(
        ["run", "--graph-nodes", str(nodes), "--graph-edges", str(edges), "--query", str(qfile), *extra]
    )
    return code, capsys.readouterr()


def test_run_q1_json(tmp_path, fig1_files, capsys):
    code, captured = _run_query(tmp_path, fig1_files, capsys, Q1_TEXT)
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["columns"] == ["x", "y", "z", "w"]
    assert payload["partial"] is False
    match = [r for r in payload["rows"] if r[:3] == [4, 6, 9] and r[3]["edges"] == [9, 10, 11]]
    assert match
    assert "root" not in match[0][3]  # roots only serialize for UNI searches
    assert match[0][3]["nodes"] == [4, 6, 7, 9]


def test_run_uni_query_serializes_root(tmp_path, fig1_files, capsys):
    text = '(?w) :- (?a[label = "Elon"], ?b[label = "Doug"], TREE ?w) UNI'
    code, captured = _run_query(tmp_path, fig1_files, capsys, text)
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    (row,) = payload["rows"]
    assert row[0] == {"edges": [11], "nodes": [6, 9], "root": 9}


def test_run_tsv_output(tmp_path, fig1_files, capsys):
    code, captured = _run_query(tmp_path, fig1_files, capsys, Q1_TEXT, "--output", "tsv")
    assert code == EXIT_OK
    lines = captured.out.strip().splitlines()
    assert lines[0] == "x\ty\tz\tw"
    assert len(lines) > 1


def test_run_malformed_query_exits_1(tmp_path, fig1_files, capsys):
    code, captured = _run_query(tmp_path, fig1_files, capsys, "(?x) :- (?a, &)")
    assert code == EXIT_ERROR
    assert "error:" in captured.err and "1:" in captured.err


def test_run_timeout_exits_2(tmp_path, capsys):
    code = main(["gen", "--family", "chain", "--N", "20", "--out", str(tmp_path / "big")])
    assert code == EXIT_OK
    qfile = tmp_path / "q.eql"
    qfile.write_text('(?w) :- (?a[label = "1"], ?b[label = "21"], TREE ?w) TIMEOUT 1')
    capsys.readouterr()
    code = main(
        [
            "run",
            "--graph-nodes", str(tmp_path / "big" / "nodes.tsv"),
            "--graph-edges", str(tmp_path / "big" / "edges.tsv"),
            "--query", str(qfile),
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_PARTIAL
    assert json.loads(captured.out)["partial"] is True


def test_env_var_supplies_default_timeout(tmp_path, capsys, monkeypatch):
    main(["gen", "--family", "chain", "--N", "20", "--out", str(tmp_path / "big")])
    qfile = tmp_path / "q.eql"
    qfile.write_text('(?w) :- (?a[label = "1"], ?b[label = "21"], TREE ?w)')
    monkeypatch.setenv("CTP_DEFAULT_TIMEOUT_MS", "1")
    capsys.readouterr()
    code = main(
        [
            "run",
            "--graph-nodes", str(tmp_path / "big" / "nodes.tsv"),
            "--graph-edges", str(tmp_path / "big" / "edges.tsv"),
            "--query", str(qfile),
        ]
    )
    assert code == EXIT_PARTIAL


@pytest.mark.parametrize(
    "command, extra, env, named",
    [
        ("run", ["--timeout-ms", "0"], None, "--timeout-ms"),
        ("run", ["--timeout-ms", "-5"], None, "--timeout-ms"),
        ("run", [], "0", "CTP_DEFAULT_TIMEOUT_MS"),
        ("run", [], "abc", "CTP_DEFAULT_TIMEOUT_MS"),
        ("bench", ["--reps", "0"], None, "--reps"),
        ("bench", ["--timeout-ms", "0"], None, "--timeout-ms"),
        ("bench", [], "-1", "CTP_DEFAULT_TIMEOUT_MS"),
        ("oracle-check", ["--oracle-budget-ms", "0"], None, "--oracle-budget-ms"),
    ],
    ids=["run-timeout-0", "run-timeout-neg", "run-env-0", "run-env-abc", "bench-reps-0", "bench-timeout-0",
         "bench-env-neg", "oracle-budget-0"],
)
def test_bad_budgets_and_reps_exit_1_naming_the_setting(
    tmp_path, fig1_files, capsys, monkeypatch, command, extra, env, named
):
    nodes, edges = fig1_files
    qfile = tmp_path / "q.eql"
    qfile.write_text(Q1_TEXT, encoding="utf-8")
    graph = make_graph(["A", "1", "B"], [(1, 2), (2, 3)])
    text = '(?w) :- (?a[label = "A"], ?b[label = "B"], TREE ?w)'
    write_workload(Workload("custom", {}, graph, None, text, 1), tmp_path / "w")
    argv = {
        "run": ["run", "--graph-nodes", str(nodes), "--graph-edges", str(edges), "--query", str(qfile)],
        "bench": ["bench", "--workload", str(tmp_path / "w"), "--algos", "molesp", "--csv", str(tmp_path / "b.csv")],
        "oracle-check": ["oracle-check", "--workload", str(tmp_path / "w")],
    }[command] + extra
    if env is None:
        monkeypatch.delenv("CTP_DEFAULT_TIMEOUT_MS", raising=False)
    else:
        monkeypatch.setenv("CTP_DEFAULT_TIMEOUT_MS", env)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert named in captured.err and "must be a positive integer" in captured.err
    assert captured.out == ""


def test_gen_families(tmp_path, capsys):
    assert main(["gen", "--family", "chain", "--N", "3", "--out", str(tmp_path / "c")]) == EXIT_OK
    manifest = json.loads((tmp_path / "c" / "workload.json").read_text())
    assert manifest["expectedResults"] == 8
    assert main(["gen", "--family", "star", "--m", "4", "--sL", "2", "--out", str(tmp_path / "s")]) == EXIT_OK
    graph_lines = (tmp_path / "s" / "edges.tsv").read_text().splitlines()
    assert len(graph_lines) == 8


def test_gen_is_reproducible(tmp_path, capsys):
    args = ["gen", "--family", "cdf", "--m", "2", "--NT", "1", "--NL", "2", "--SL", "2", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("nodes.tsv", "edges.tsv", "workload.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_invalid_parameters(tmp_path, capsys):
    code = main(["gen", "--family", "chain", "--N", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_ERROR


def test_bench_writes_csv(tmp_path, capsys):
    main(["gen", "--family", "comb", "--nA", "2", "--nS", "1", "--sL", "2", "--dBA", "1", "--out", str(tmp_path / "w")])
    csv_path = tmp_path / "bench.csv"
    code = main(
        ["bench", "--workload", str(tmp_path / "w"), "--algos", "gam,molesp", "--reps", "2", "--csv", str(csv_path)]
    )
    assert code == EXIT_OK
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["algo", "workload", "m", "rep", "runtime_ms", "provenances_built", "results_found", "timed_out"]
    assert len(rows) == 1 + 2 * 2
    body = rows[1:]
    assert {r[0] for r in body} == {"gam", "molesp"}
    assert all(r[2] == "4" for r in body)  # nA*(nS+1) seeds
    assert all(r[6] == "1" for r in body)
    assert all(r[7] == "false" for r in body)
    out = capsys.readouterr().out
    assert "median" in out and "mean" in out


def test_bench_budgets_every_ctp_like_run(tmp_path, capsys, monkeypatch):
    # TIMEOUT on the first tree pattern budgets both searches, as in evaluate_query
    graph = make_graph(["A", "1", "B", "2", "C"], [(1, 2), (2, 3), (3, 4), (4, 5)])
    text = (
        '(?u, ?w) :- (?a[label = "A"], ?b[label = "B"], TREE ?u) TIMEOUT 60000, '
        '(?b2[label = "B"], ?c[label = "C"], TREE ?w)'
    )
    write_workload(Workload("custom", {}, graph, None, text, 1), tmp_path / "w")
    budgets = []

    def spy(g, seeds, cfg):
        budgets.append(cfg.filters.timeout_ms)
        return run_search(g, seeds, cfg)

    monkeypatch.setattr(cli, "run_search", spy)
    code = main(
        ["bench", "--workload", str(tmp_path / "w"), "--algos", "molesp", "--reps", "1",
         "--csv", str(tmp_path / "bench.csv")]
    )
    assert code == EXIT_OK
    assert budgets == [60000, 60000]


def test_bench_unknown_algorithm(tmp_path, capsys):
    main(["gen", "--family", "line", "--m", "3", "--nL", "1", "--out", str(tmp_path / "w")])
    code = main(["bench", "--workload", str(tmp_path / "w"), "--algos", "gam,typo", "--csv", str(tmp_path / "o.csv")])
    assert code == EXIT_ERROR


def test_bench_timed_out_run_recorded(tmp_path, capsys):
    main(["gen", "--family", "chain", "--N", "20", "--out", str(tmp_path / "w")])
    csv_path = tmp_path / "bench.csv"
    code = main(
        ["bench", "--workload", str(tmp_path / "w"), "--algos", "molesp", "--reps", "1",
         "--timeout-ms", "1", "--csv", str(csv_path)]
    )
    assert code == EXIT_OK
    with open(csv_path, newline="") as fh:
        (record,) = list(csv.DictReader(fh))
    assert record["timed_out"] == "true"


def test_oracle_check_workload_pass(tmp_path, capsys):
    main(["gen", "--family", "line", "--m", "3", "--nL", "1", "--out", str(tmp_path / "w")])
    capsys.readouterr()
    code = main(["oracle-check", "--workload", str(tmp_path / "w"), "--algo", "molesp"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.startswith("PASS")


def test_oracle_check_random_instances(capsys):
    code = main(["oracle-check", "--random", "8", "--m", "2", "--rng-seed", "5", "--algo", "esp"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.count("PASS") == 8


def test_oracle_check_molesp_m3(capsys):
    code = main(["oracle-check", "--random", "6", "--m", "3", "--rng-seed", "6", "--algo", "molesp"])
    assert code == EXIT_OK


def test_oracle_check_budget_exit(tmp_path, capsys):
    main(["gen", "--family", "chain", "--N", "22", "--out", str(tmp_path / "w")])
    code = main(["oracle-check", "--workload", str(tmp_path / "w"), "--algo", "molesp", "--oracle-budget-ms", "5"])
    assert code == EXIT_ORACLE_BUDGET


def test_oracle_check_searches_under_the_query_filters(tmp_path, capsys, monkeypatch):
    main(["gen", "--family", "cdf", "--m", "3", "--NT", "1", "--NL", "2", "--SL", "2", "--out", str(tmp_path / "w")])
    seen = []

    def spy(g, seeds, cfg):
        seen.append((cfg.algorithm, cfg.filters.uni))
        return run_search(g, seeds, cfg)

    monkeypatch.setattr(cli, "run_search", spy)
    code = main(["oracle-check", "--workload", str(tmp_path / "w"), "--algo", "molesp"])
    assert code == EXIT_OK
    assert seen == [("bft", True), ("molesp", True)]  # the cdf m=3 query carries UNI


def _break_algorithm(monkeypatch, change):
    def spy(g, seeds, cfg):
        results, stats = run_search(g, seeds, cfg)
        return (change(results) if cfg.algorithm == "molesp" else results), stats

    monkeypatch.setattr(cli, "run_search", spy)


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda results: results + [ResultTree((999,), (998, 999), (998, 999, 999), 999)], "not in the oracle"),
        (lambda results: results[1:], "missing guaranteed"),
    ],
)
def test_oracle_check_reports_failures(tmp_path, capsys, monkeypatch, change, reason):
    main(["gen", "--family", "line", "--m", "3", "--nL", "1", "--out", str(tmp_path / "w")])
    capsys.readouterr()
    _break_algorithm(monkeypatch, change)
    code = main(["oracle-check", "--workload", str(tmp_path / "w"), "--algo", "molesp"])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert out.startswith("FAIL w:") and reason in out


def test_oracle_check_empty_plan_is_an_error(tmp_path, capsys):
    graph = make_graph(["A", "1", "B"], [(1, 2), (2, 3)])
    text = '(?w) :- (?a[label = "A"], ?z[label = "Z"], TREE ?w)'
    write_workload(Workload("custom", {}, graph, None, text, 0), tmp_path / "w")
    capsys.readouterr()
    code = main(["oracle-check", "--workload", str(tmp_path / "w"), "--algo", "molesp"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().out == "EMPTY w: the query plans no tree search, nothing was checked\n"


def test_oracle_check_needs_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--algo", "molesp"])
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize("count", ["-3", "0"])
def test_oracle_check_random_count_must_be_positive(capsys, count):
    # a non-positive count would check no instance and still report a pass
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--random", count])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR
    assert "--random" in captured.err and "must be a positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--random", "1", "--algo", "bogus"],
        ["run", "--graph-nodes", "n.tsv", "--graph-edges", "e.tsv", "--query", "q.eql", "--algo", "bogus"],
    ],
)
def test_unknown_algorithm_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_gen_missing_parameters_reported(tmp_path, capsys):
    code = main(["gen", "--family", "line", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "--m" in captured.err and "--nL" in captured.err
