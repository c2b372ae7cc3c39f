"""Query language front-end: predicates, patterns, parser, validator, printer.

A query has a head of projection variables and a body mixing edge patterns
(conjunctive graph patterns) with connecting-tree patterns. Connecting-tree
patterns mark their tree variable with the keyword ``TREE`` and may carry
filters (UNI, LABEL, MAX, SCORE, TOP, TIMEOUT) after the closing parenthesis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, contains, eq, le, lt
from typing import Any, Callable, NamedTuple

from .graph import Graph

# filter keyword -> CtpFilters field, in printing order
FILTER_KEYWORDS = {
    "UNI": "uni",
    "LABEL": "labels",
    "MAX": "max_edges",
    "SCORE": "score",
    "TOP": "top_k",
    "TIMEOUT": "timeout_ms",
}


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


#: the condition rules: property -> (constant type, {operator: test(the element's
#: value, the constant)}, element -> value, whether edges carry the property)
CONDITIONS: dict[str, tuple[type, dict[str, Callable[[Any, Any], bool]], Callable[[Any], Any], bool]] = {
    "label": (str, {"=": eq, "<": lt, "<=": le, "~": lambda v, glob: glob_match(glob, v)}, attrgetter("label"), True),
    "type": (str, {"=": contains}, attrgetter("types"), False),  # "=" is set membership
    "id": (int, {"=": eq, "<": lt, "<=": le}, attrgetter("id"), True),
}
OPERATORS = tuple(CONDITIONS["label"][1])  # label takes every operator
_UNDEFINED = (None, {}, None, False)  # the rule of an unknown property


def predicate_error(pred: Predicate, kind: str = "node") -> str | None:
    """The message for the first condition of ``pred`` that ``CONDITIONS`` does not
    define on a node (or an edge), or None; of several rules, the first below wins."""
    for c in pred.conditions:
        if c.prop not in CONDITIONS:
            return f"unknown property {c.prop!r}"
        const, tests, _, on_edges = CONDITIONS[c.prop]
        if c.op not in OPERATORS:
            return f"unknown operator {c.op!r}"
        if c.op == "~" and "~" not in tests:
            return "pattern matching only applies to label"
        if not isinstance(c.value, const):
            return f"{c.prop} condition needs {'an integer' if const is int else 'a string'} constant"
        if c.op not in tests:
            return f"only equality is defined on {c.prop}"
        if kind != "node" and not on_edges:
            return f"{c.prop} is defined on nodes, not on the edge ?{pred.var}"
    return None


def satisfies(pred: Predicate, g: Graph, elem_id: int, elem_kind: str = "node") -> bool:
    """True iff every condition of ``pred`` holds for the element; the empty predicate
    holds everywhere. Conditions are tested in order up to the first false one, and
    one that ``CONDITIONS`` does not define on the element raises ``PredicateError``.
    """
    on_node = elem_kind == "node"
    elem = g.nodes[elem_id] if on_node else g.edges[elem_id]
    for c in pred.conditions:
        const, tests, read, on_edges = CONDITIONS.get(c.prop, _UNDEFINED)
        test = tests.get(c.op)
        if test is None or not isinstance(c.value, const) or not (on_node or on_edges):
            raise PredicateError(predicate_error(pred, elem_kind))
        if not test(read(elem), c.value):
            return False
    return True


# ---------------------------------------------------------------------------
# Tokenizer

# leading ASCII whitespace is skipped; the last two alternatives never fail to match
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"[^"\n]*")
      | (?P<int>\d+)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>:-|<=|[()\[\],;=<~])
      | (?P<end>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.ASCII,
)


class _Token(NamedTuple):
    kind: str  # string | int | var | ident | sym | end
    value: str | int
    pos: int  # offset into the query text


def _syntax_error(text: str, pos: int, message: str) -> QuerySyntaxError:
    return QuerySyntaxError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup or ""
        value: str | int = m[kind]
        if kind == "bad":
            raise _syntax_error(text, m.start(kind), f"unexpected character {value!r}")
        if kind == "string":
            value = value[1:-1]
        elif kind == "var":
            value = value[1:]
        elif kind == "int":
            value = int(value)
        tokens.append(_Token(kind, value, m.start(kind)))
        if kind == "end":
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
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
        return _syntax_error(self._text, (tok or self._peek()).pos, message)

    def _expect(self, kind: str, message: str) -> Any:
        tok = self._next()
        if tok.kind != kind:
            raise self._error(message, tok)
        return tok.value

    def _expect_sym(self, sym: str) -> None:
        if not self._accept(sym):
            raise self._error(f"expected {sym!r}, got {self._peek().value!r}")

    def _accept(self, value: str, kind: str = "sym") -> bool:
        tok = self._tokens[self._pos]
        if tok.kind == kind and tok.value == value:
            self._pos += 1
            return True
        return False

    def _list(self, item: Callable[[], Any], sep: str, close: str) -> list:
        """``item (sep item)* close``, after the opening symbol."""
        items = [item()]
        while self._accept(sep):
            items.append(item())
        self._expect_sym(close)
        return items

    def _fresh_var(self) -> str:
        # no variable token contains "#", so a shorthand never captures a user variable
        name = f"#{self._fresh}"
        self._fresh += 1
        self.synthetic.add(name)
        return name

    # grammar entry -----------------------------------------------------
    def parse(self) -> QueryAst:
        self._expect_sym("(")
        head = self._list(lambda: self._expect("var", "expected head variable"), ",", ")")
        self._expect_sym(":-")
        items = [self._parse_item()]
        while self._accept(","):
            items.append(self._parse_item())
        tok = self._peek()
        if tok.kind != "end":
            raise self._error(f"unexpected trailing input {tok.value!r}", tok)
        bgps = tuple(Bgp((item,)) for item in items if isinstance(item, EdgePattern))
        ctps = tuple(item for item in items if isinstance(item, Ctp))
        return QueryAst(tuple(head), bgps, ctps, frozenset(self.synthetic))

    def _parse_item(self) -> EdgePattern | Ctp:
        self._expect_sym("(")
        terms: list[Predicate] = []
        while True:
            if self._accept("TREE", "ident"):
                tree_var = self._expect("var", "expected tree variable after TREE")
                self._expect_sym(")")
                if not terms:
                    raise self._error("tree pattern needs at least one member")
                return Ctp(tuple(terms), tree_var, self._parse_filters())
            terms.append(self._parse_term())
            if not self._accept(","):
                self._expect_sym(")")
                break
        if len(terms) != 3:
            raise self._error(f"edge pattern must have exactly 3 terms, got {len(terms)}")
        tok = self._peek()
        if tok.kind == "ident" and tok.value in FILTER_KEYWORDS:
            raise self._error(f"filter {tok.value} only allowed after a tree pattern", tok)
        return EdgePattern(*terms)

    def _parse_term(self) -> Predicate:
        tok = self._next()
        if tok.kind == "string":
            # label shorthand: the constant denotes a fresh-variable predicate
            return Predicate(self._fresh_var(), (Condition("label", "=", tok.value),))
        if tok.kind != "var":
            raise self._error("expected variable, string constant, or TREE", tok)
        if self._accept("["):
            return Predicate(str(tok.value), tuple(self._list(self._parse_condition, ";", "]")))
        return Predicate(str(tok.value))

    def _parse_condition(self) -> Condition:
        prop = self._next()
        if prop.kind != "ident" or prop.value not in CONDITIONS:
            raise self._error(f"unknown property {prop.value!r}", prop)
        op = self._next()
        if op.kind != "sym" or op.value not in OPERATORS:
            raise self._error(f"unknown operator {op.value!r}", op)
        const = self._next()
        if const.kind not in ("string", "int"):
            raise self._error("expected string or integer constant", const)
        return Condition(str(prop.value), str(op.value), const.value)

    def _parse_filters(self) -> CtpFilters:
        values: dict[str, Any] = {}
        while self._peek().kind == "ident":
            tok = self._next()
            keyword = str(tok.value)
            if keyword == "UNI":
                value: Any = True
            elif keyword == "LABEL":
                self._expect_sym("(")
                labels = self._list(lambda: self._expect("string", "expected string label"), ",", ")")
                value = frozenset(labels)
            elif keyword == "SCORE":
                value = self._expect("ident", "expected score function name")
            elif keyword in FILTER_KEYWORDS:
                value = self._expect("int", f"expected integer after {keyword}")
            else:
                raise self._error(f"unknown filter keyword {keyword!r}", tok)
            values[FILTER_KEYWORDS[keyword]] = value  # a repeated keyword: the last one wins
        return CtpFilters(**values)


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
    out = ""
    for keyword, name in FILTER_KEYWORDS.items():
        value = getattr(f, name)
        if value is None or value is False:
            continue
        if keyword == "UNI":
            out += " UNI"
        elif keyword == "LABEL":
            out += " LABEL(" + ", ".join(f'"{l}"' for l in sorted(value)) + ")"
        else:
            out += f" {keyword} {value}"
    return out


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


def _check_predicate(pred: Predicate, kind: str, where: str) -> None:
    error = predicate_error(pred, kind)
    if error:
        raise QueryValidationError(f"{where}: {error}")


def _connected_components(patterns: list[EdgePattern]) -> list[list[int]]:
    """Pattern indices grouped by shared variables, each group and the groups in index order."""
    groups: list[tuple[set[str], list[int]]] = []
    for i, pat in enumerate(patterns):
        names, members = {pat.source.var, pat.edge.var, pat.target.var}, [i]
        for group in [g for g in groups if not names.isdisjoint(g[0])]:
            groups.remove(group)
            names |= group[0]
            members += group[1]
        groups.append((names, sorted(members)))
    return sorted((members for _, members in groups), key=lambda idxs: idxs[0])


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
                _check_predicate(pred, "node", where)
            _check_predicate(pat.edge, "edge", where)  # a rule of any position wins over this one
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
            _check_predicate(m, "node", where)
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
