"""Query language: predicate semantics, parsing, printing, validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeq.lang import (
    Bgp,
    Condition,
    Ctp,
    CtpFilters,
    EdgePattern,
    Predicate,
    PredicateError,
    QueryAst,
    QuerySyntaxError,
    QueryValidationError,
    format_query,
    glob_match,
    parse_query,
    satisfies,
    validate_query,
)

from conftest import Q1_TEXT


# ---------------------------------------------------------------------------
# predicates


def test_two_condition_predicate_matches_only_alice(fig1):
    pred = Predicate("v", (Condition("label", "~", "*lice"), Condition("type", "=", "entrepreneur")))
    for nid in fig1.nodes:
        assert satisfies(pred, fig1, nid, "node") == (nid == 3)
    # false on every edge: the label condition already fails, so the
    # conjunction never reaches the type condition
    for eid in fig1.edges:
        assert not satisfies(pred, fig1, eid, "edge")


def test_empty_predicate_matches_everything(fig1):
    pred = Predicate("v")
    assert all(satisfies(pred, fig1, nid, "node") for nid in fig1.nodes)
    assert all(satisfies(pred, fig1, eid, "edge") for eid in fig1.edges)


def test_label_equality(fig1):
    pred = Predicate("v", (Condition("label", "=", "Alice"),))
    assert not satisfies(pred, fig1, 2, "node")
    assert satisfies(pred, fig1, 3, "node")


def test_id_comparisons(fig1):
    assert satisfies(Predicate("v", (Condition("id", "<=", 3),)), fig1, 3, "node")
    assert not satisfies(Predicate("v", (Condition("id", "<", 3),)), fig1, 3, "node")


def test_type_condition_on_edge_is_an_error(fig1):
    with pytest.raises(PredicateError):
        satisfies(Predicate("v", (Condition("type", "=", "company"),)), fig1, 1, "edge")


def test_glob_star_only():
    assert glob_match("*lice", "Alice")
    assert glob_match("*lice", "lice")
    assert not glob_match("*lice", "Alice ")
    assert glob_match("a*c*", "abcd")
    assert not glob_match("a?c", "abc")  # '?' is a literal character


def _naive_glob(pattern: str, text: str) -> bool:
    if not pattern:
        return not text
    if pattern[0] == "*":
        return any(_naive_glob(pattern[1:], text[i:]) for i in range(len(text) + 1))
    return bool(text) and text[0] == pattern[0] and _naive_glob(pattern[1:], text[1:])


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="ab*", max_size=6),
    st.text(alphabet="ab", max_size=8),
)
def test_glob_agrees_with_naive_matcher(pattern, text):
    assert glob_match(pattern, text) == _naive_glob(pattern, text)


# ---------------------------------------------------------------------------
# parsing


def test_parse_q1_shape():
    ast = parse_query(Q1_TEXT)
    assert ast.head == ("x", "y", "z", "w")
    assert len(ast.bgps) == 3 and all(len(b.patterns) == 1 for b in ast.bgps)
    assert len(ast.ctps) == 1
    assert len(ast.ctps[0].members) == 3
    assert ast.ctps[0].tree_var == "w"
    # shorthand terms became fresh predicates with a label-equality condition
    first = ast.bgps[0].patterns[0]
    assert first.edge.conditions == (Condition("label", "=", "citizenOf"),)
    assert first.edge.var in ast.synthetic


def test_shorthand_is_equivalent_to_explicit_label_equality(fig1):
    shorthand = parse_query('(?x) :- (?x, "citizenOf", ?y)').bgps[0].patterns[0].edge
    explicit = Predicate("e", (Condition("label", "=", "citizenOf"),))
    for eid in fig1.edges:
        assert satisfies(shorthand, fig1, eid, "edge") == satisfies(explicit, fig1, eid, "edge")


def test_parse_errors_carry_position():
    with pytest.raises(QuerySyntaxError, match=r"1:14"):
        parse_query("(?x) :- (?a, &, ?b)")
    with pytest.raises(QuerySyntaxError):
        parse_query("(?x) :- ")
    with pytest.raises(QuerySyntaxError, match="unknown property"):
        parse_query('(?x) :- (?x[color = "red"], ?e, ?y)')
    with pytest.raises(QuerySyntaxError, match="unknown filter keyword"):
        parse_query("(?w) :- (?a, ?b, TREE ?w) FASTEST")
    with pytest.raises(QuerySyntaxError, match="exactly 3 terms"):
        parse_query("(?a) :- (?a, ?b)")
    with pytest.raises(QuerySyntaxError, match="only allowed after a tree pattern"):
        parse_query("(?a) :- (?a, ?b, ?c) UNI")


def test_parse_filters():
    ast = parse_query(
        '(?w) :- (?a, ?b, TREE ?w) UNI LABEL("x", "y") MAX 3 SCORE edgecount TOP 2 TIMEOUT 50'
    )
    f = ast.ctps[0].filters
    assert f.uni and f.labels == frozenset({"x", "y"})
    assert (f.max_edges, f.score, f.top_k, f.timeout_ms) == (3, "edgecount", 2, 50)


def test_parse_single_member_tree_pattern():
    ast = parse_query("(?w) :- (?a, TREE ?w)")
    assert len(ast.ctps[0].members) == 1


def test_tree_variable_reuse_rejected():
    ast = parse_query("(?w) :- (?a, ?b, TREE ?w), (?c, ?d, TREE ?w)")
    with pytest.raises(QueryValidationError, match="exactly once"):
        validate_query(ast)


# ---------------------------------------------------------------------------
# validation


def test_validate_q1():
    vq = validate_query(parse_query(Q1_TEXT))
    assert len(vq.ast.bgps) == 3  # nothing shares variables, so no merge


def test_patterns_sharing_variables_merge_into_one_group():
    vq = validate_query(parse_query('(?x) :- (?x, "citizenOf", "USA"), (?x, "founded", "OrgB")'))
    assert len(vq.ast.bgps) == 1
    assert len(vq.ast.bgps[0].patterns) == 2


def test_directly_built_disconnected_group_rejected():
    bgp = Bgp(
        (
            EdgePattern(Predicate("a"), Predicate("b"), Predicate("c")),
            EdgePattern(Predicate("d"), Predicate("e"), Predicate("f")),
        )
    )
    ast = QueryAst(("a",), (bgp,), ())
    with pytest.raises(QueryValidationError, match="not connected"):
        validate_query(ast)


def test_ctp_distinctness():
    ctp = Ctp((Predicate("x"), Predicate("x")), "w")
    with pytest.raises(QueryValidationError, match="pairwise distinct"):
        validate_query(QueryAst(("w",), (), (ctp,)))


def test_empty_body_rejected():
    with pytest.raises(QueryValidationError, match="body is empty"):
        validate_query(QueryAst(("x",), (), ()))


def test_unbound_head_variable():
    with pytest.raises(QueryValidationError, match="head variable"):
        validate_query(parse_query("(?q) :- (?a, ?b, ?c)"))


def test_top_requires_score():
    ctp = Ctp((Predicate("x"),), "w", CtpFilters(top_k=2))
    with pytest.raises(QueryValidationError, match="TOP requires SCORE"):
        validate_query(QueryAst(("w",), (), (ctp,)))


def test_pattern_matching_only_on_label():
    with pytest.raises(QueryValidationError, match="pattern matching"):
        validate_query(parse_query('(?x) :- (?x[type ~ "e*"], ?e, ?y)'))


def test_validation_yields_exactly_one_primary_error():
    # several violations at once still raise a single deterministic error
    ctp = Ctp((Predicate("x"), Predicate("x")), "w", CtpFilters(top_k=2))
    ast = QueryAst(("nope",), (), (ctp,))
    with pytest.raises(QueryValidationError) as e1:
        validate_query(ast)
    with pytest.raises(QueryValidationError) as e2:
        validate_query(ast)
    assert str(e1.value) == str(e2.value)


# ---------------------------------------------------------------------------
# printing


def _random_ast(rng: random.Random) -> QueryAst:
    def predicate(name: str) -> Predicate:
        conds = []
        for _ in range(rng.randint(0, 2)):
            prop = rng.choice(["label", "type", "id"])
            if prop == "id":
                conds.append(Condition("id", rng.choice(["=", "<", "<="]), rng.randint(0, 9)))
            elif prop == "type":
                conds.append(Condition("type", "=", rng.choice(["t1", "t2"])))
            else:
                conds.append(Condition("label", rng.choice(["=", "~"]), rng.choice(["a", "b*", "*c"])))
        return Predicate(name, tuple(conds))

    names = iter(f"v{i}" for i in range(100))
    bgps = tuple(
        Bgp((EdgePattern(predicate(next(names)), predicate(next(names)), predicate(next(names))),))
        for _ in range(rng.randint(0, 3))
    )
    ctps = []
    for _ in range(rng.randint(0, 2)):
        members = tuple(predicate(next(names)) for _ in range(rng.randint(1, 3)))
        filters = CtpFilters(
            uni=rng.random() < 0.3,
            labels=frozenset({"a", "b"}) if rng.random() < 0.3 else None,
            max_edges=rng.randint(1, 5) if rng.random() < 0.3 else None,
            score="edgecount" if rng.random() < 0.3 else None,
            timeout_ms=100 if rng.random() < 0.2 else None,
        )
        ctps.append(Ctp(members, next(names), filters))
    if not bgps and not ctps:
        bgps = (Bgp((EdgePattern(predicate(next(names)), predicate(next(names)), predicate(next(names))),)),)
    body_vars = [p.var for b in bgps for pat in b.patterns for p in pat.predicates]
    body_vars += [m.var for c in ctps for m in c.members] + [c.tree_var for c in ctps]
    head = tuple(rng.sample(body_vars, rng.randint(1, min(3, len(body_vars)))))
    return QueryAst(head, bgps, tuple(ctps))


def test_parse_print_parse_fixpoint_on_generated_queries():
    rng = random.Random(42)
    for _ in range(60):
        ast = _random_ast(rng)
        text = format_query(ast)
        first = parse_query(text)
        again = parse_query(format_query(first))
        assert again == first


def test_q1_print_parse_fixpoint():
    first = parse_query(Q1_TEXT)
    assert parse_query(format_query(first)) == first
