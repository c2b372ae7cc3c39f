"""Query language front-end: predicates, patterns, parser, validator, printer.

A query has a head of projection variables and a body mixing edge patterns
(conjunctive graph patterns) with connecting-tree patterns. Connecting-tree
patterns mark their tree variable with the keyword ``TREE`` and may carry
filters (UNI, LABEL, MAX, SCORE, TOP, TIMEOUT) after the closing parenthesis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .graph import Graph

PROPERTIES = ("label", "type", "id")
OPERATORS = ("=", "<", "<=", "~")
FILTER_KEYWORDS = ("UNI", "LABEL", "MAX", "SCORE", "TOP", "TIMEOUT")


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class QueryValidationError(ValueError):
    pass


class PredicateError(ValueError):
    """A condition applied to an element it is not defined on."""


# ---------------------------------------------------------------------------
# AST types


@dataclass(frozen=True)
class Condition:
    prop: str  # label | type | id
    op: str  # = | < | <= | ~
    value: str | int


@dataclass(frozen=True)
class Predicate:
    var: str
    conditions: tuple[Condition, ...] = ()


@dataclass(frozen=True)
class EdgePattern:
    source: Predicate
    edge: Predicate
    target: Predicate

    @property
    def predicates(self) -> tuple[Predicate, Predicate, Predicate]:
        return (self.source, self.edge, self.target)


@dataclass(frozen=True)
class Bgp:
    patterns: tuple[EdgePattern, ...]


@dataclass(frozen=True)
class CtpFilters:
    uni: bool = False
    labels: frozenset[str] | None = None
    max_edges: int | None = None
    score: str | None = None
    top_k: int | None = None
    timeout_ms: int | None = None


@dataclass(frozen=True)
class Ctp:
    members: tuple[Predicate, ...]
    tree_var: str
    filters: CtpFilters = field(default_factory=CtpFilters)


@dataclass(frozen=True)
class QueryAst:
    head: tuple[str, ...]
    bgps: tuple[Bgp, ...]
    ctps: tuple[Ctp, ...]
    synthetic: frozenset[str] = frozenset()  # variables invented for label shorthands


# ---------------------------------------------------------------------------
# Predicate evaluation


@lru_cache(maxsize=1024)
def _glob_regex(pattern: str) -> re.Pattern[str]:
    # '*' matches any (possibly empty) substring; everything else is literal
    return re.compile("".join(".*" if ch == "*" else re.escape(ch) for ch in pattern))


def glob_match(pattern: str, text: str) -> bool:
    return _glob_regex(pattern).fullmatch(text) is not None


def _check_condition(cond: Condition, g: Graph, elem_id: int, elem_kind: str) -> bool:
    if cond.prop == "type":
        if elem_kind != "node":
            raise PredicateError("type condition applied to an edge")
        if cond.op != "=":
            raise PredicateError(f"operator {cond.op!r} not defined on type")
        return cond.value in g.nodes[elem_id].types
    if cond.prop == "id":
        if not isinstance(cond.value, int):
            raise PredicateError("id condition needs an integer constant")
        if cond.op == "=":
            return elem_id == cond.value
        if cond.op == "<":
            return elem_id < cond.value
        if cond.op == "<=":
            return elem_id <= cond.value
        raise PredicateError(f"operator {cond.op!r} not defined on id")
    # label
    if not isinstance(cond.value, str):
        raise PredicateError("label condition needs a string constant")
    label = g.nodes[elem_id].label if elem_kind == "node" else g.edges[elem_id].label
    if cond.op == "=":
        return label == cond.value
    if cond.op == "<":
        return label < cond.value
    if cond.op == "<=":
        return label <= cond.value
    return glob_match(cond.value, label)


def satisfies(pred: Predicate, g: Graph, elem_id: int, elem_kind: str = "node") -> bool:
    """True iff every condition of ``pred`` holds for the element.

    The empty predicate is satisfied by every node and edge.
    """
    return all(_check_condition(c, g, elem_id, elem_kind) for c in pred.conditions)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<string>"[^"\n]*")
      | (?P<int>\d+)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<implies>:-)
      | (?P<le><=)
      | (?P<punct>[()\[\],;=<~])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # string | int | var | ident | sym | end
    value: str | int
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind == "ws":
            for i, ch in enumerate(raw):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        elif kind == "string":
            tokens.append(_Token("string", raw[1:-1], line, col))
        elif kind == "int":
            tokens.append(_Token("int", int(raw), line, col))
        elif kind == "var":
            tokens.append(_Token("var", raw[1:], line, col))
        elif kind == "ident":
            tokens.append(_Token("ident", raw, line, col))
        else:  # implies, le, punct
            tokens.append(_Token("sym", raw, line, col))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._fresh = 0
        self.synthetic: set[str] = set()

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None) -> QuerySyntaxError:
        tok = tok or self._peek()
        return QuerySyntaxError(message, tok.line, tok.col)

    def _expect_sym(self, sym: str) -> _Token:
        tok = self._next()
        if tok.kind != "sym" or tok.value != sym:
            raise self._error(f"expected {sym!r}, got {tok.value!r}", tok)
        return tok

    def _at_sym(self, sym: str) -> bool:
        tok = self._peek()
        return tok.kind == "sym" and tok.value == sym

    def _fresh_var(self) -> str:
        # no variable token contains "#", so a shorthand never captures a user variable
        name = f"#{self._fresh}"
        self._fresh += 1
        self.synthetic.add(name)
        return name

    # grammar entry -----------------------------------------------------
    def parse(self) -> QueryAst:
        head = self._parse_head()
        self._expect_sym(":-")
        bgps: list[Bgp] = []
        ctps: list[Ctp] = []
        while True:
            item = self._parse_item()
            if isinstance(item, Ctp):
                ctps.append(item)
            else:
                bgps.append(Bgp((item,)))
            if self._at_sym(","):
                self._next()
                continue
            break
        tok = self._peek()
        if tok.kind != "end":
            raise self._error(f"unexpected trailing input {tok.value!r}", tok)
        return QueryAst(tuple(head), tuple(bgps), tuple(ctps), frozenset(self.synthetic))

    def _parse_head(self) -> list[str]:
        self._expect_sym("(")
        head: list[str] = []
        while True:
            tok = self._next()
            if tok.kind != "var":
                raise self._error("expected head variable", tok)
            head.append(str(tok.value))
            if self._at_sym(","):
                self._next()
                continue
            self._expect_sym(")")
            return head

    def _parse_item(self) -> EdgePattern | Ctp:
        self._expect_sym("(")
        terms: list[Predicate] = []
        tree_var: str | None = None
        while True:
            tok = self._peek()
            if tok.kind == "ident" and tok.value == "TREE":
                self._next()
                var_tok = self._next()
                if var_tok.kind != "var":
                    raise self._error("expected tree variable after TREE", var_tok)
                tree_var = str(var_tok.value)
                self._expect_sym(")")
                break
            terms.append(self._parse_term())
            if self._at_sym(","):
                self._next()
                continue
            self._expect_sym(")")
            break
        if tree_var is not None:
            if not terms:
                raise self._error("tree pattern needs at least one member")
            return Ctp(tuple(terms), tree_var, self._parse_filters())
        if len(terms) != 3:
            raise self._error(f"edge pattern must have exactly 3 terms, got {len(terms)}")
        tok = self._peek()
        if tok.kind == "ident" and tok.value in FILTER_KEYWORDS:
            raise self._error(f"filter {tok.value} only allowed after a tree pattern", tok)
        return EdgePattern(terms[0], terms[1], terms[2])

    def _parse_term(self) -> Predicate:
        tok = self._next()
        if tok.kind == "string":
            # label shorthand: the constant denotes a fresh-variable predicate
            return Predicate(self._fresh_var(), (Condition("label", "=", str(tok.value)),))
        if tok.kind == "var":
            var = str(tok.value)
            if self._at_sym("["):
                self._next()
                conds = [self._parse_condition()]
                while self._at_sym(";"):
                    self._next()
                    conds.append(self._parse_condition())
                self._expect_sym("]")
                return Predicate(var, tuple(conds))
            return Predicate(var)
        raise self._error("expected variable, string constant, or TREE", tok)

    def _parse_condition(self) -> Condition:
        tok = self._next()
        if tok.kind != "ident" or tok.value not in PROPERTIES:
            raise self._error(f"unknown property {tok.value!r}", tok)
        prop = str(tok.value)
        op_tok = self._next()
        if op_tok.kind != "sym" or op_tok.value not in OPERATORS:
            raise self._error(f"unknown operator {op_tok.value!r}", op_tok)
        val_tok = self._next()
        if val_tok.kind == "string":
            value: str | int = str(val_tok.value)
        elif val_tok.kind == "int":
            value = int(val_tok.value)
        else:
            raise self._error("expected string or integer constant", val_tok)
        return Condition(prop, str(op_tok.value), value)

    def _parse_filters(self) -> CtpFilters:
        filters = CtpFilters()
        while True:
            tok = self._peek()
            if tok.kind != "ident":
                return filters
            keyword = str(tok.value)
            if keyword not in FILTER_KEYWORDS:
                raise self._error(f"unknown filter keyword {keyword!r}", tok)
            self._next()
            if keyword == "UNI":
                filters = replace(filters, uni=True)
            elif keyword == "LABEL":
                self._expect_sym("(")
                labels = []
                while True:
                    s = self._next()
                    if s.kind != "string":
                        raise self._error("expected string label", s)
                    labels.append(str(s.value))
                    if self._at_sym(","):
                        self._next()
                        continue
                    self._expect_sym(")")
                    break
                filters = replace(filters, labels=frozenset(labels))
            else:
                arg = self._next()
                if keyword == "SCORE":
                    if arg.kind != "ident":
                        raise self._error("expected score function name", arg)
                    filters = replace(filters, score=str(arg.value))
                else:
                    if arg.kind != "int":
                        raise self._error(f"expected integer after {keyword}", arg)
                    value = int(arg.value)
                    if keyword == "MAX":
                        filters = replace(filters, max_edges=value)
                    elif keyword == "TOP":
                        filters = replace(filters, top_k=value)
                    else:
                        filters = replace(filters, timeout_ms=value)


def parse_query(text: str) -> QueryAst:
    """Parse query text into an AST, one single-pattern group per edge pattern.

    Bare string terms desugar into fresh-variable predicates with a
    label-equality condition; the fresh variables are recorded in
    ``QueryAst.synthetic`` and never surface in results.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer


def _format_value(value: str | int) -> str:
    return str(value) if isinstance(value, int) else f'"{value}"'


def _format_predicate(pred: Predicate, synthetic: frozenset[str] = frozenset()) -> str:
    if pred.var in synthetic and len(pred.conditions) == 1:
        c = pred.conditions[0]
        if c.prop == "label" and c.op == "=":
            return f'"{c.value}"'  # restore the label shorthand
    if not pred.conditions:
        return f"?{pred.var}"
    conds = "; ".join(f"{c.prop} {c.op} {_format_value(c.value)}" for c in pred.conditions)
    return f"?{pred.var}[{conds}]"


def _format_filters(f: CtpFilters) -> str:
    parts = []
    if f.uni:
        parts.append("UNI")
    if f.labels is not None:
        parts.append("LABEL(" + ", ".join(f'"{l}"' for l in sorted(f.labels)) + ")")
    if f.max_edges is not None:
        parts.append(f"MAX {f.max_edges}")
    if f.score is not None:
        parts.append(f"SCORE {f.score}")
    if f.top_k is not None:
        parts.append(f"TOP {f.top_k}")
    if f.timeout_ms is not None:
        parts.append(f"TIMEOUT {f.timeout_ms}")
    return ("" if not parts else " ") + " ".join(parts)


def format_query(ast: QueryAst) -> str:
    head = "(" + ", ".join(f"?{v}" for v in ast.head) + ")"
    items = []
    for bgp in ast.bgps:
        for pat in bgp.patterns:
            items.append(
                "(" + ", ".join(_format_predicate(p, ast.synthetic) for p in pat.predicates) + ")"
            )
    for ctp in ast.ctps:
        members = ", ".join(_format_predicate(p, ast.synthetic) for p in ctp.members)
        items.append(f"({members}, TREE ?{ctp.tree_var})" + _format_filters(ctp.filters))
    return head + " :- " + ", ".join(items)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidatedQuery:
    """Checked query with its edge patterns merged into connected groups."""

    ast: QueryAst


def _check_condition_types(pred: Predicate, where: str) -> None:
    for c in pred.conditions:
        if c.prop not in PROPERTIES:
            raise QueryValidationError(f"{where}: unknown property {c.prop!r}")
        if c.op not in OPERATORS:
            raise QueryValidationError(f"{where}: unknown operator {c.op!r}")
        if c.op == "~" and c.prop != "label":
            raise QueryValidationError(f"{where}: pattern matching only applies to label")
        if c.prop == "id" and not isinstance(c.value, int):
            raise QueryValidationError(f"{where}: id condition needs an integer constant")
        if c.prop in ("label", "type") and not isinstance(c.value, str):
            raise QueryValidationError(f"{where}: {c.prop} condition needs a string constant")
        if c.prop == "type" and c.op != "=":
            raise QueryValidationError(f"{where}: only equality is defined on type")


def _connected_components(patterns: list[EdgePattern]) -> list[list[int]]:
    parent = list(range(len(patterns)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[str, int] = {}
    for i, pat in enumerate(patterns):
        for pred in pat.predicates:
            if pred.var in by_var:
                ra, rb = find(by_var[pred.var]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                by_var[pred.var] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(patterns)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda idxs: idxs[0])


def validate_query(ast: QueryAst) -> ValidatedQuery:
    """Check all structural invariants and return the query annotated for evaluation.

    Edge patterns from separate groups that share a variable are merged into
    one connected group; a directly-constructed group whose patterns do not
    all share variables is rejected.
    """
    if not ast.head:
        raise QueryValidationError("query head is empty")
    if not ast.bgps and not ast.ctps:
        raise QueryValidationError("query body is empty")

    all_patterns: list[EdgePattern] = []
    for bi, bgp in enumerate(ast.bgps):
        if not bgp.patterns:
            raise QueryValidationError(f"group {bi}: no edge patterns")
        for pi, pat in enumerate(bgp.patterns):
            where = f"pattern {bi}.{pi}"
            vars3 = [p.var for p in pat.predicates]
            if len(set(vars3)) != 3:
                raise QueryValidationError(f"{where}: source, edge and target variables must be distinct")
            for pred in pat.predicates:
                _check_condition_types(pred, where)
            if any(c.prop == "type" for c in pat.edge.conditions):
                raise QueryValidationError(f"{where}: type is defined on nodes, not on the edge ?{pat.edge.var}")
        if len(bgp.patterns) > 1 and len(_connected_components(list(bgp.patterns))) > 1:
            raise QueryValidationError(f"group {bi} is not connected")
        all_patterns.extend(bgp.patterns)

    for ci, ctp in enumerate(ast.ctps):
        where = f"tree pattern {ci}"
        if not ctp.members:
            raise QueryValidationError(f"{where}: needs at least one member")
        names = [m.var for m in ctp.members] + [ctp.tree_var]
        if len(set(names)) != len(names):
            raise QueryValidationError(f"{where}: member and tree variables must be pairwise distinct")
        for m in ctp.members:
            _check_condition_types(m, where)
        f = ctp.filters
        for label, value in (("MAX", f.max_edges), ("TOP", f.top_k), ("TIMEOUT", f.timeout_ms)):
            if value is not None and value < 1:
                raise QueryValidationError(f"{where}: {label} must be positive")
        if f.top_k is not None and f.score is None:
            raise QueryValidationError(f"{where}: TOP requires SCORE")

    # tree variables occur exactly once in the body
    body_vars: list[str] = []
    for pat in all_patterns:
        body_vars.extend(p.var for p in pat.predicates)
    for ctp in ast.ctps:
        body_vars.extend(m.var for m in ctp.members)
        body_vars.append(ctp.tree_var)
    for ctp in ast.ctps:
        if body_vars.count(ctp.tree_var) != 1:
            raise QueryValidationError(f"tree variable ?{ctp.tree_var} must occur exactly once")

    for v in ast.head:
        if v not in body_vars:
            raise QueryValidationError(f"head variable ?{v} is not bound in the body")

    # merge edge patterns into connected groups
    merged = tuple(
        Bgp(tuple(all_patterns[i] for i in comp)) for comp in _connected_components(all_patterns)
    )
    return ValidatedQuery(QueryAst(ast.head, merged, ast.ctps, ast.synthetic))
