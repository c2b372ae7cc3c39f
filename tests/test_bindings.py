"""Binding tables: pattern matching, joins, projection, brute-force equivalence."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeq import bindings
from treeq.bindings import (
    UNIT_TABLE,
    BindingTable,
    JoinKindError,
    evaluate_bgp,
    join_all,
    natural_join,
    project,
)
from treeq.engine import evaluate_query
from treeq.graph import Edge, Graph, Node
from treeq.lang import Bgp, QueryValidationError, parse_query, satisfies, validate_query
from treeq.synth import gen_cdf, gen_random_instance
from treeq.trees import ResultTree

from oracles import brute_bgp_rows


def _bgp(text: str):
    """Validated pattern group of a head-less helper query."""
    vq = validate_query(parse_query(text))
    return vq.ast.bgps[0], vq.ast.synthetic


def test_match_us_entrepreneurs(fig1):
    bgp, _ = _bgp('(?x) :- (?x[type = "entrepreneur"], "citizenOf", "USA")')
    t = evaluate_bgp(fig1, bgp)
    assert {row[0] for row in t.rows} == {2, 4}


def test_match_french_politicians(fig1):
    bgp, _ = _bgp('(?z) :- (?z[type = "politician"], "citizenOf", "France")')
    t = evaluate_bgp(fig1, bgp)
    assert {row[0] for row in t.rows} == {9}


def test_match_nothing(fig1):
    bgp, _ = _bgp('(?x) :- (?x, "doesNotExist", ?y)')
    assert len(evaluate_bgp(fig1, bgp)) == 0


def test_two_pattern_group_joins_to_bob(fig1):
    bgp, synthetic = _bgp('(?x) :- (?x, "citizenOf", "USA"), (?x, "founded", "OrgB")')
    t = evaluate_bgp(fig1, bgp, synthetic)
    assert {row[t.columns.index("x")] for row in t.rows} == {2}


def test_two_pattern_group_with_orgc(fig1):
    bgp, synthetic = _bgp('(?x) :- (?x, "citizenOf", "USA"), (?x, "founded", "OrgC")')
    t = evaluate_bgp(fig1, bgp, synthetic)
    assert {row[t.columns.index("x")] for row in t.rows} == {4}


def test_single_pattern_group_equals_match(fig1):
    bgp, _ = _bgp("(?x) :- (?x, ?e, ?y)")
    direct = _scan_match(fig1, bgp.patterns[0])
    via_bgp = evaluate_bgp(fig1, bgp)
    assert project(via_bgp, direct.columns).rows == direct.rows


def test_synthetic_columns_are_hidden(fig1):
    bgp, synthetic = _bgp('(?x) :- (?x, "citizenOf", "USA")')
    t = evaluate_bgp(fig1, bgp, synthetic)
    assert t.columns == ("x",)
    assert {row[0] for row in t.rows} == {2, 4}


def test_join_on_shared_column():
    a = BindingTable(("x",), ("node",), frozenset({(2,), (4,)}))
    b = BindingTable(("x",), ("node",), frozenset({(4,)}))
    assert natural_join(a, b).rows == frozenset({(4,)})


def test_join_cartesian_when_disjoint():
    a = BindingTable(("x",), ("node",), frozenset({(1,), (2,)}))
    b = BindingTable(("y",), ("node",), frozenset({(3,), (4,), (5,)}))
    assert len(natural_join(a, b)) == 6


def test_join_with_empty_is_empty():
    a = BindingTable(("x",), ("node",), frozenset({(1,)}))
    b = BindingTable(("x",), ("node",), frozenset())
    assert len(natural_join(a, b)) == 0


def test_join_kind_mismatch():
    a = BindingTable(("x",), ("node",), frozenset({(1,)}))
    b = BindingTable(("x",), ("edge",), frozenset({(1,)}))
    with pytest.raises(JoinKindError):
        natural_join(a, b)


def test_project_examples(fig1):
    bgp, synthetic = _bgp('(?x) :- (?x, "citizenOf", "USA"), (?x, "founded", "OrgB")')
    t = evaluate_bgp(fig1, bgp, synthetic)
    assert project(t, ["x"]).rows == frozenset({(2,)})
    assert project(t, t.columns).rows == t.rows
    with pytest.raises(KeyError):
        project(t, ["nope"])


def test_project_first_group_on_x(fig1):
    bgp, synthetic = _bgp('(?x) :- (?x[type = "entrepreneur"], "citizenOf", "USA")')
    t = evaluate_bgp(fig1, bgp, synthetic)
    assert project(t, ["x"]).rows == frozenset({(2,), (4,)})


_rows = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12)


@settings(max_examples=100, deadline=None)
@given(_rows, _rows)
def test_join_commutes_on_row_sets(rows_a, rows_b):
    a = BindingTable(("x", "y"), ("node", "node"), rows_a)
    b = BindingTable(("y", "z"), ("node", "node"), rows_b)
    ab = natural_join(a, b)
    ba = natural_join(b, a)
    assert project(ab, ("x", "y", "z")).rows == project(ba, ("x", "y", "z")).rows


@settings(max_examples=60, deadline=None)
@given(_rows, _rows, _rows)
def test_join_associates_on_row_sets(rows_a, rows_b, rows_c):
    a = BindingTable(("x", "y"), ("node", "node"), rows_a)
    b = BindingTable(("y", "z"), ("node", "node"), rows_b)
    c = BindingTable(("z", "x"), ("node", "node"), rows_c)
    left = natural_join(natural_join(a, b), c)
    right = natural_join(a, natural_join(b, c))
    cols = ("x", "y", "z")
    assert project(left, cols).rows == project(right, cols).rows


def test_bgp_matches_brute_force_on_random_graphs():
    rng = random.Random(99)
    queries = [
        "(?a) :- (?a, ?e, ?b), (?b, ?f, ?c)",
        '(?a) :- (?a, "a", ?b), (?c, "b", ?b)',
        "(?a) :- (?a, ?e, ?b), (?c, ?f, ?b), (?c, ?g, ?d)",
    ]
    for _ in range(25):
        g, _ = gen_random_instance(rng, max_nodes=8, max_edges=10, n_labels=2, m=2, max_set_size=1)
        for text in queries:
            vq = validate_query(parse_query(text))
            bgp = vq.ast.bgps[0]
            table = evaluate_bgp(g, bgp, vq.ast.synthetic)
            columns, rows = brute_bgp_rows(g, list(bgp.patterns))
            projected = {
                tuple(row[columns.index(c)] for c in table.columns) for row in rows
            }
            assert table.rows == projected


def _nested_loop_join(a, b):
    """Reference natural join: every pair of rows that agrees on the shared columns."""
    shared = [c for c in a.columns if c in b.columns]
    rest = [i for i, c in enumerate(b.columns) if c not in shared]
    rows = {
        ra + tuple(rb[i] for i in rest)
        for ra in a.rows
        for rb in b.rows
        if all(ra[a.columns.index(c)] == rb[b.columns.index(c)] for c in shared)
    }
    return a.columns + tuple(b.columns[i] for i in rest), rows


@pytest.mark.parametrize("sizes", [(2, 9), (9, 2), (5, 5)])
def test_join_kernel_is_the_same_whichever_side_is_smaller(sizes):
    rng = random.Random(sum(sizes))
    a_rows = frozenset((rng.randrange(3), rng.randrange(4)) for _ in range(sizes[0]))
    b_rows = frozenset((rng.randrange(4), rng.randrange(5), rng.randrange(3)) for _ in range(sizes[1]))
    a = BindingTable(("x", "y"), ("node", "node"), a_rows)
    b = BindingTable(("y", "z", "x"), ("node", "edge", "node"), b_rows)
    c = BindingTable(("w",), ("node",), frozenset((i,) for i in range(sizes[1])))
    for left, right in ((a, b), (b, a), (a, c), (c, b)):
        joined = natural_join(left, right)
        columns, rows = _nested_loop_join(left, right)
        assert joined.columns == columns
        kinds = tuple(left.kind_of(c) if c in left.columns else right.kind_of(c) for c in columns)
        assert joined.kinds == kinds
        assert joined.rows == rows


_TREES = [ResultTree((e,), (e, e + 1), (e,), e) for e in range(3)]


def _random_tables(rng, shape):
    """Three or four tables over columns a..e (and tree column t) of the given shape."""
    def cell(column):
        return rng.choice(_TREES) if column == "t" else rng.randrange(3)

    def table(columns):
        kinds = tuple("tree" if c == "t" else "node" for c in columns)
        rows = frozenset(tuple(cell(c) for c in columns) for _ in range(rng.randrange(1, 10)))
        return BindingTable(tuple(columns), kinds, rows)

    if shape == "connected":
        layout = [("a", "b"), ("b", "c"), ("c", "d", "a"), ("d", "e")]
    elif shape == "disconnected":
        layout = [("a", "b"), ("c",), ("b", "d"), ("e",)]
    elif shape == "empty":
        layout = [("a", "b"), ("b", "c"), ("c", "d")]
    else:  # a tree column shared by two tables, as two tree patterns can share one
        layout = [("a", "t"), ("t", "b"), ("b", "c")]
    tables = [table(rng.sample(cols, len(cols))) for cols in layout[: rng.randrange(3, len(layout) + 1)]]
    if shape == "empty":
        victim = rng.randrange(len(tables))
        tables[victim] = BindingTable(tables[victim].columns, tables[victim].kinds, frozenset())
    rng.shuffle(tables)
    return tables


@pytest.mark.parametrize("shape", ["connected", "disconnected", "empty", "tree"])
def test_join_all_equals_the_fixed_order_fold(shape):
    rng = random.Random(shape)
    for _ in range(150):
        tables = _random_tables(rng, shape)
        columns = list(dict.fromkeys(c for t in tables for c in t.columns))
        keep = rng.sample(columns, rng.randrange(len(columns) + 1))
        fold = UNIT_TABLE
        for t in tables:
            fold = natural_join(fold, t)
        expected = project(fold, keep)
        got = join_all(tables, keep)
        assert (got.columns, got.kinds, got.rows) == (expected.columns, expected.kinds, expected.rows)


@pytest.mark.parametrize("keep", [(), ("x",), ("y",)])
def test_join_all_still_rejects_conflicting_kinds(keep):
    small = BindingTable(("x",), ("node",), frozenset({(1,)}))
    other = BindingTable(("y",), ("node",), frozenset({(2,), (3,)}))
    edges = BindingTable(("x", "y"), ("edge", "node"), frozenset({(1, 2), (4, 3), (5, 5)}))
    for tables in ([small, other, edges], [edges, other, small]):
        with pytest.raises(JoinKindError):
            join_all(tables, keep)


def test_join_all_of_no_tables_is_the_unit_table():
    assert join_all([], ()) == UNIT_TABLE


def _spy_on_joins(monkeypatch):
    calls = []
    real = bindings.natural_join

    def spy(a, b):
        out = real(a, b)
        calls.append((len(a), len(b), len(out)))
        return out

    monkeypatch.setattr(bindings, "natural_join", spy)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_join_forms_no_needless_cartesian_product(monkeypatch, seed):
    # the two pattern groups of the cdf query share no variable; each joins the tree table first
    w = gen_cdf(2, 16, 64, 3, seed)
    calls = _spy_on_joins(monkeypatch)
    result = evaluate_query(w.graph, parse_query(w.query_text))
    assert len(result.rows) == w.expected_results
    assert calls
    assert all(out <= max(na, nb) for na, nb, out in calls), calls


def _spy_on_probes(monkeypatch):
    """Partial rows into and out of each pattern step of ``evaluate_bgp``, in step order."""
    steps = {}
    real = bindings._extend

    def spy(g, pattern, *rest):
        step = steps.setdefault(pattern, [0, 0])
        step[0] += 1
        for cells in real(g, pattern, *rest):
            step[1] += 1
            yield cells

    monkeypatch.setattr(bindings, "_extend", spy)
    return steps


def test_pattern_group_joins_along_shared_variables(monkeypatch):
    # p and r are rarer than q, but share no variable with each other
    nodes = [Node(i) for i in range(1, 41)]
    edges = [Edge(i, 10 + i, 20 + i, "q") for i in range(1, 11)]
    edges += [Edge(20 + i, i, 10 + i, "p") for i in range(1, 5)]
    edges += [Edge(30 + i, 20 + i, 30 + i, "r") for i in range(3, 7)]
    g = Graph(nodes, edges)
    text = '(?a, ?d) :- (?a, "p", ?b), (?b, "q", ?c), (?c, "r", ?d)'
    vq = validate_query(parse_query(text))
    bgp = vq.ast.bgps[0]
    sizes = {p: len(evaluate_bgp(g, Bgp((p,)))) for p in bgp.patterns}
    steps = _spy_on_probes(monkeypatch)
    table = evaluate_bgp(g, bgp, vq.ast.synthetic)
    assert table.columns == ("a", "b", "c", "d")
    assert table.rows == frozenset({(3, 13, 23, 33), (4, 14, 24, 34)})
    # no step makes more partial rows than its larger input: p x r would make 16
    assert list(steps) == list(bgp.patterns)
    assert all(rows_out <= max(rows_in, sizes[p]) for p, (rows_in, rows_out) in steps.items()), steps


def _scan_match(g, pattern):
    """Scan evaluation of one pattern: every edge of the graph is tested."""
    columns = (pattern.source.var, pattern.edge.var, pattern.target.var)
    rows = set()
    for eid, e in g.edges.items():
        if (
            satisfies(pattern.edge, g, eid, "edge")
            and satisfies(pattern.source, g, e.source, "node")
            and satisfies(pattern.target, g, e.target, "node")
        ):
            rows.add((e.source, eid, e.target))
    return BindingTable(columns, ("node", "edge", "node"), frozenset(rows))


def _scan_and_join(g, bgp, synthetic):
    """Reference group evaluation: scan every pattern, then join the tables."""
    tables = [_scan_match(g, p) for p in bgp.patterns]
    visible = dict.fromkeys(c for t in tables for c in t.columns if c not in synthetic)
    return join_all(tables, visible)


def _outcome(evaluate, *args):
    try:
        t = evaluate(*args)
    except JoinKindError:
        return JoinKindError
    return t.columns, t.kinds, t.rows


def _random_term(rng, position, ids):
    if rng.random() < 0.15:
        return f'"{rng.choice(["a", "b"] if position == "edge" else ["A", "B"])}"'
    kind = position if rng.random() > 0.05 else "other"  # a variable of the other kind
    var = rng.choice({"edge": ["e", "f", "g"], "node": ["x", "y", "z", "u"], "other": ["e", "x"]}[kind])
    conds = []
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        prop = rng.choice(["id", "label"] + (["type"] if position == "node" else []))
        if prop == "id":
            conds.append(f"id {rng.choice(['=', '=', '<', '<='])} {rng.choice(ids)}")
        elif prop == "type":
            conds.append(f'type = "{rng.choice(["t1", "t2"])}"')
        else:
            labels = ["a", "b", "*"] if position == "edge" else ["A", "B", "*"]
            conds.append(f'label {rng.choice(["=", "=", "~", "<="])} "{rng.choice(labels)}"')
    return f"?{var}[{'; '.join(conds)}]" if conds else f"?{var}"


def test_index_nested_loops_equal_scan_and_join_on_random_graphs():
    # graphs with self-loops and parallel edges; groups with indexed and
    # unindexed conditions, constants, shared edge variables and kind conflicts
    rng = random.Random(20260907)
    checked = joined = conflicts = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        nodes = [
            Node(i, rng.choice("AB"), "uri", frozenset(rng.sample(["t1", "t2"], rng.randint(0, 2))))
            for i in range(1, n + 1)
        ]
        edges = []
        for k in range(1, rng.randint(0, 14) + 1):
            if edges and rng.random() < 0.2:
                e = rng.choice(edges)
                edges.append(Edge(k, e.source, e.target, e.label))
            else:
                edges.append(Edge(k, rng.randint(1, n), rng.randint(1, n), rng.choice("ab")))
        g = Graph(nodes, edges)
        ids = list(range(1, max(n, len(edges)) + 1)) + [99]
        for _ in range(8):
            patterns = [
                "(" + ", ".join(_random_term(rng, pos, ids) for pos in ("node", "edge", "node")) + ")"
                for _ in range(rng.randint(1, 4))
            ]
            body = ", ".join(patterns)
            head = re.search(r"\?\w+", body)
            try:
                vq = validate_query(parse_query(f"({head.group() if head else '?none'}) :- {body}"))
            except QueryValidationError:
                continue  # a pattern repeats a variable, or the body has no variable
            for bgp in vq.ast.bgps:
                for p in bgp.patterns:
                    assert _outcome(evaluate_bgp, g, Bgp((p,))) == _outcome(_scan_match, g, p)
                expected = _outcome(_scan_and_join, g, bgp, vq.ast.synthetic)
                assert _outcome(evaluate_bgp, g, bgp, vq.ast.synthetic) == expected, patterns
                checked += 1
                conflicts += expected is JoinKindError
                joined += len(bgp.patterns) > 1 and expected is not JoinKindError and bool(expected[2])
    assert checked > 300 and joined > 40 and conflicts > 5, (checked, joined, conflicts)
