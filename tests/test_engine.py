"""Query engine: seed-set derivation, end-to-end evaluation, join semantics."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from treeq.bindings import evaluate_bgp
from treeq.engine import EngineError, compute_seed_sets, evaluate_query, plan_query
from treeq.lang import CtpFilters, QueryAst, parse_query, validate_query
from treeq.search import run_search
from treeq.synth import gen_cdf, gen_random_instance
from treeq.trees import ResultTree

from conftest import Q1_TEXT, make_graph
from oracles import comparable_cell, def14_rows


def _prepare(g, text):
    vq = validate_query(parse_query(text))
    tables = [evaluate_bgp(g, b, vq.ast.synthetic) for b in vq.ast.bgps]
    return vq, tables


def test_q1_seed_sets(fig1):
    vq, tables = _prepare(fig1, Q1_TEXT)
    (seeds,) = compute_seed_sets(fig1, vq, tables)
    assert [sorted(s) for s in seeds.sets] == [[2, 4], [3, 6], [9]]
    assert seeds.universal == (False, False, False)


def test_seed_set_from_predicate_when_unbound(fig1):
    vq, tables = _prepare(fig1, '(?w) :- (?p[type = "politician"], ?q, TREE ?w)')
    (seeds,) = compute_seed_sets(fig1, vq, tables)
    assert sorted(seeds.sets[0]) == [9, 12]
    assert seeds.universal == (False, True)


def test_bare_unbound_member_is_universal(fig1):
    vq, tables = _prepare(fig1, '(?w) :- (?p[type = "politician"], ?q, ?r, TREE ?w)')
    (seeds,) = compute_seed_sets(fig1, vq, tables)
    assert seeds.universal == (False, True, True)


def test_member_predicate_restricts_bound_seeds(fig1):
    text = '(?w) :- (?x, "citizenOf", "France"), (?x[type = "politician"], TREE ?w)'
    vq, tables = _prepare(fig1, text)
    (seeds,) = compute_seed_sets(fig1, vq, tables)
    assert sorted(seeds.sets[0]) == [9]  # {3, 6, 9} restricted to politicians


def test_member_bound_to_edge_is_an_error(fig1):
    vq, tables = _prepare(fig1, '(?w) :- (?x, ?e, "USA"), (?e, TREE ?w)')
    with pytest.raises(EngineError, match="bound to edges"):
        compute_seed_sets(fig1, vq, tables)


def test_q1_end_to_end(fig1):
    result = evaluate_query(fig1, parse_query(Q1_TEXT))
    assert result.columns == ("x", "y", "z", "w")
    assert not result.partial
    by_key = {(row[0], row[1], row[2], row[3].edges) for row in result.rows}
    assert (4, 6, 9, (9, 10, 11)) in by_key
    assert (2, 3, 9, (1, 2, 16, 17)) in by_key
    # full row set equals the directly-computed semantics
    ours = {tuple(comparable_cell(c) for c in row) for row in result.rows}
    assert ours == def14_rows(fig1, validate_query(parse_query(Q1_TEXT)))


def test_empty_bgp_short_circuits(fig1):
    text = '(?x, ?w) :- (?x, "notALabel", ?y), (?x, ?z, TREE ?w)'
    result = evaluate_query(fig1, parse_query(text))
    assert result.rows == () and result.columns == ("x", "w")


def test_empty_seed_set_short_circuits(fig1):
    text = '(?w) :- (?p[type = "astronaut"], ?q, TREE ?w)'
    result = evaluate_query(fig1, parse_query(text))
    assert result.rows == ()


def test_ctp_only_query(path_abc):
    g, _ = path_abc
    text = '(?w) :- (?a[label = "A"], ?b[label = "B"], ?c[label = "C"], TREE ?w)'
    result = evaluate_query(g, parse_query(text))
    assert len(result.rows) == 1
    (row,) = result.rows
    assert isinstance(row[0], ResultTree)
    assert row[0].edges == (1, 2, 3, 4, 5)


def test_rows_deduplicated_and_sorted(fig1):
    from treeq.bindings import row_sort_key

    result = evaluate_query(fig1, parse_query(Q1_TEXT))
    assert len(set(result.rows)) == len(result.rows)
    assert list(result.rows) == sorted(result.rows, key=row_sort_key)


def test_deterministic_evaluation(fig1):
    a = evaluate_query(fig1, parse_query(Q1_TEXT))
    b = evaluate_query(fig1, parse_query(Q1_TEXT))
    assert a == b


def test_brute_force_join_semantics_on_random_graphs():
    rng = random.Random(321)
    texts = [
        '(?x, ?w) :- (?x, "a", ?y), (?x, ?y, TREE ?w)',
        '(?w) :- (?x[label = "1"], ?y[label = "3"], TREE ?w)',
        '(?x, ?w) :- (?x, "b", ?y), (?z, "a", ?y), (?x, ?z, TREE ?w)',
    ]
    for _ in range(12):
        g, _ = gen_random_instance(rng, max_nodes=7, max_edges=10, n_labels=2, m=2, max_set_size=1)
        for text in texts:
            vq = validate_query(parse_query(text))
            result = evaluate_query(g, vq, algorithm="bft")
            ours = {tuple(comparable_cell(c) for c in row) for row in result.rows}
            assert ours == def14_rows(g, vq), text


def test_shared_member_variable_across_ctps(path_abc):
    g, _ = path_abc
    # ?b constrains both tree patterns through the join
    text = (
        '(?b, ?u, ?w) :- (?a[label = "A"], ?b[label = "B"], TREE ?u), '
        '(?b, ?c[label = "C"], TREE ?w)'
    )
    result = evaluate_query(g, parse_query(text))
    assert len(result.rows) == 1
    (row,) = result.rows
    assert row[0] == 4
    assert row[1].edges == (1, 2, 3) and row[2].edges == (4, 5)


def test_cdf_m3_raw_results_exceed_joined_rows():
    w = gen_cdf(3, 2, 4, 3, 11)
    vq = validate_query(parse_query(w.query_text))
    joined = evaluate_query(w.graph, vq)
    assert len(joined.rows) == w.expected_results
    # bidirectional, unfiltered tree search finds connections that the join discards
    bare_ctps = tuple(replace(c, filters=CtpFilters()) for c in vq.ast.ctps)
    bare = validate_query(QueryAst(vq.ast.head, vq.ast.bgps, bare_ctps, vq.ast.synthetic))
    ((_, seeds, cfg),) = plan_query(w.graph, bare).searches
    raw_results, _ = run_search(w.graph, seeds, cfg)
    assert len(raw_results) > len(joined.rows)


def test_timeout_marks_result_partial():
    from treeq.synth import gen_chain

    w = gen_chain(16)
    text = '(?w) :- (?a[label = "1"], ?b[label = "17"], TREE ?w)'
    result = evaluate_query(w.graph, parse_query(text), timeout_ms=1)
    assert result.partial


def test_query_level_timeout_shared_across_ctps(path_abc):
    g, _ = path_abc
    # TIMEOUT on the first tree pattern also budgets the second
    text = (
        '(?u, ?w) :- (?a[label = "A"], ?b[label = "B"], TREE ?u) TIMEOUT 60000, '
        '(?b2[label = "B"], ?c[label = "C"], TREE ?w)'
    )
    plan = plan_query(g, validate_query(parse_query(text)), timeout_ms=5)
    assert [cfg.filters.timeout_ms for _, _, cfg in plan.searches] == [60000, 60000]
