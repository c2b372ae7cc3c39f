"""Query engine: seed-set derivation, end-to-end evaluation, join semantics."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from treeq.bindings import evaluate_bgp
from treeq.engine import EngineError, compute_seed_sets, evaluate_query, plan_query
from treeq.lang import CtpFilters, Predicate, QueryAst, parse_query, satisfies, validate_query
from treeq.search import EDGE_SET_PRUNED, run_search
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


def _scan_seed_sets(g, vq, tables):
    """Reference seed sets: every unbound member with conditions scans all nodes."""
    conditions_on = {}
    for ctp in vq.ast.ctps:
        for m in ctp.members:
            conditions_on.setdefault(m.var, []).extend(m.conditions)
    out = []
    for ctp in vq.ast.ctps:
        sets, universal = [], []
        for m in ctp.members:
            table = next((t for t in tables if m.var in t.columns), None)
            if table is not None:
                i = table.columns.index(m.var)
                sets.append(frozenset(r[i] for r in table.rows if satisfies(m, g, r[i], "node")))
            elif conditions_on[m.var]:
                combined = Predicate(m.var, tuple(conditions_on[m.var]))
                sets.append(frozenset(n for n in g.nodes if satisfies(combined, g, n, "node")))
            else:
                sets.append(frozenset())
            universal.append(table is None and not conditions_on[m.var])
        empty = any(not s and not u for s, u in zip(sets, universal))
        out.append(None if empty else (tuple(sets), tuple(universal)))
    return out


def test_seed_sets_from_candidates_equal_a_full_scan():
    rng = random.Random(4242)
    absent = 10**9
    seen = set()
    for _ in range(40):
        g, _ = gen_random_instance(rng, max_nodes=9, max_edges=12, n_labels=2, m=2, max_set_size=1)
        ids = sorted(g.nodes)

        def member(var):
            k, k2 = rng.sample(ids, 2)
            case = rng.choice(["present", "absent", "conflicting", "failing label", "label", "bare"])
            seen.add(case)
            return {
                "present": f"?{var}[id = {k}]",
                "absent": f"?{var}[id = {absent}]",
                "conflicting": f"?{var}[id = {k}; id = {k2}]",
                "failing label": f'?{var}[id = {k}; label = "no such label"]',
                "label": f'?{var}[label = "{k}"; id <= {k2}]',
                "bare": f"?{var}",
            }[case]

        bgp = '(?a, "a", ?c), ' if rng.random() < 0.5 else ""
        text = f"(?w, ?u) :- {bgp}({member('a')}, {member('b')}, TREE ?w), ({member('b')}, TREE ?u)"
        vq = validate_query(parse_query(text))
        tables = [evaluate_bgp(g, b, vq.ast.synthetic) for b in vq.ast.bgps]
        expected = _scan_seed_sets(g, vq, tables)
        got = compute_seed_sets(g, vq, tables)
        assert [s and (s.sets, s.universal) for s in got] == expected, text
        plan = plan_query(g, vq)
        assert plan.empty == (any(len(t) == 0 for t in tables) or None in expected), text
    assert seen == {"present", "absent", "conflicting", "failing label", "label", "bare"}


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


@pytest.mark.parametrize("uni", [False, True], ids=["plain", "UNI"])
def test_bare_member_rows_do_not_depend_on_the_algorithm(uni):
    # a bare member binds to the tree's root, which run_search picks by one
    # rule for both drivers: the complete algorithms return equal results
    rng = random.Random(1313)
    rows = 0
    for _ in range(40):
        g, _ = gen_random_instance(rng, max_nodes=8, max_edges=11, n_labels=2, m=2, max_set_size=1)
        i, j = rng.sample(sorted(g.nodes), 2)
        text = f"(?a, ?b, ?u, ?t) :- (?a[id = {i}], ?b[id = {j}], ?u, TREE ?t)" + (" UNI" if uni else "")
        vq = validate_query(parse_query(text))
        expected = evaluate_query(g, vq, algorithm="bft")
        rows += len(expected.rows)
        for algo in ("bft_m", "bft_am", "gam"):
            assert evaluate_query(g, vq, algorithm=algo) == expected, (text, algo)
        for algo in EDGE_SET_PRUNED:
            assert set(evaluate_query(g, vq, algorithm=algo).rows) <= set(expected.rows), (text, algo)
    assert rows > 0


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


@pytest.mark.parametrize("timeout_ms", [0, -5])
def test_plan_rejects_budgets_below_one(fig1, timeout_ms):
    with pytest.raises(EngineError, match="timeout_ms must be positive"):
        plan_query(fig1, validate_query(parse_query(Q1_TEXT)), timeout_ms=timeout_ms)


# a query with no tree pattern, one behind an empty pattern table, one behind
# an empty seed set, and one whose search runs
_PLANS = {
    "no-tree-pattern": '(?x) :- (?x, "citizenOf", ?y)',
    "empty-table": '(?x, ?w) :- (?x, "notALabel", ?y), (?x, ?z, TREE ?w)',
    "empty-seed-set": '(?w) :- (?p[type = "astronaut"], ?q, TREE ?w)',
    "search": '(?w) :- (?a[label = "Elon"], ?b[label = "Doug"], TREE ?w)',
}


@pytest.mark.parametrize("name", _PLANS)
def test_unknown_algorithm_fails_whatever_the_data(fig1, name):
    vq = validate_query(parse_query(_PLANS[name]))
    with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
        plan_query(fig1, vq, algorithm="bogus")
    with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
        evaluate_query(fig1, vq, algorithm="bogus")


@pytest.mark.parametrize("name", [name for name in _PLANS if name != "no-tree-pattern"])
def test_unknown_score_fails_whatever_the_data(fig1, name):
    vq = validate_query(parse_query(_PLANS[name] + " SCORE bogus"))
    with pytest.raises(ValueError, match="^unknown score function 'bogus'$"):
        plan_query(fig1, vq)
    with pytest.raises(ValueError, match="^unknown score function 'bogus'$"):
        evaluate_query(fig1, vq)
