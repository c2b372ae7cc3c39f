"""Relational tables of variable bindings and conjunctive pattern evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from .graph import Graph
from .lang import Bgp, EdgePattern, Predicate, PredicateError, predicate_error, satisfies


class JoinKindError(ValueError):
    """A shared column binds nodes on one side and edges on the other."""


@dataclass(frozen=True)
class BindingTable:
    """Duplicate-free table of bindings; each column carries an element kind."""

    columns: tuple[str, ...]
    kinds: tuple[str, ...]  # "node" | "edge" | "tree"
    rows: frozenset[tuple[Any, ...]]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.kinds):
            raise ValueError("columns and kinds must have the same length")

    def __len__(self) -> int:
        return len(self.rows)

    def kind_of(self, column: str) -> str:
        return self.kinds[self.columns.index(column)]

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        return sorted(self.rows, key=row_sort_key)


def cell_sort_key(cell: Any) -> tuple:
    if isinstance(cell, int):
        return (0, cell)
    return (1, cell.edges, cell.nodes)  # result trees sort by their edge set


def row_sort_key(row: tuple) -> tuple:
    return tuple(cell_sort_key(c) for c in row)


#: Join identity: zero columns, a single empty row.
UNIT_TABLE = BindingTable((), (), frozenset({()}))


def _key(idx: Sequence[int]) -> Callable[[tuple], Any]:
    """Row -> join key: the cell at ``idx`` if it holds one index, else the tuple of cells."""
    return itemgetter(*idx) if idx else lambda row: ()


def _cells(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """Row -> tuple of the cells at ``idx``."""
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return _key(idx)


def natural_join(a: BindingTable, b: BindingTable) -> BindingTable:
    """Natural join on shared column names; Cartesian product when none are shared.

    The output has ``a``'s columns followed by the columns of ``b`` that
    ``a`` lacks. The hash index is built on the smaller input and probed
    with the larger one.
    """
    shared = [c for c in a.columns if c in b.columns]
    for c in shared:
        if a.kind_of(c) != b.kind_of(c):
            raise JoinKindError(
                f"column {c!r} binds {a.kind_of(c)}s on one side and {b.kind_of(c)}s on the other"
            )
    a_key = _key([a.columns.index(c) for c in shared])
    b_key = _key([b.columns.index(c) for c in shared])
    b_rest = [i for i, c in enumerate(b.columns) if c not in shared]
    b_tail = _cells(b_rest)

    columns = a.columns + tuple(b.columns[i] for i in b_rest)
    kinds = a.kinds + tuple(b.kinds[i] for i in b_rest)

    index: dict[Any, list[tuple]] = {}
    if len(b.rows) <= len(a.rows):
        for row in b.rows:
            index.setdefault(b_key(row), []).append(b_tail(row))
        rows = {row + tail for row in a.rows for tail in index.get(a_key(row), ())}
    else:
        for row in a.rows:
            index.setdefault(a_key(row), []).append(row)
        rows = {match + b_tail(row) for row in b.rows for match in index.get(b_key(row), ())}
    return BindingTable(columns, kinds, frozenset(rows))


def project(t: BindingTable, variables: Iterable[str]) -> BindingTable:
    """Duplicate-eliminated projection onto the given columns."""
    variables = list(variables)
    for v in variables:
        if v not in t.columns:
            raise KeyError(f"unknown column {v!r}")
    idx = [t.columns.index(v) for v in variables]
    cells = _cells(idx)
    return BindingTable(
        tuple(variables),
        tuple(t.kinds[i] for i in idx),
        frozenset(map(cells, t.rows)),
    )


def join_all(tables: Sequence[BindingTable], keep: Iterable[str]) -> BindingTable:
    """Natural join of ``tables`` projected onto ``keep``.

    The smallest table comes first; each later step joins the smallest
    remaining table that shares a column with the tables joined so far, and
    forms a Cartesian product only when none does. After each step the
    columns that neither ``keep`` nor a remaining table uses are dropped.
    Under set semantics the result equals projecting the join of the tables
    in any order onto ``keep``.
    """
    keep = tuple(keep)
    if not tables:
        return project(UNIT_TABLE, keep)
    remaining = sorted(tables, key=len)
    joined = remaining.pop(0)
    while True:
        needed = set(keep).union(*(t.columns for t in remaining))
        if not needed.issuperset(joined.columns):
            joined = project(joined, [c for c in joined.columns if c in needed])
        if not remaining:
            return project(joined, keep)
        i = next((i for i, t in enumerate(remaining) if not set(t.columns).isdisjoint(joined.columns)), 0)
        joined = natural_join(joined, remaining.pop(i))


_KINDS = ("node", "edge", "node")  # of an edge pattern's source, edge and target


def candidates(g: Graph, pred: Predicate, kind: str) -> Collection[int] | None:
    """The smallest id set an index gives for ``pred``, or ``None`` when none applies.

    An ``id =`` condition admits at most one element (none when the id is not
    in the graph); on an edge, a ``label =`` condition admits the edges of its
    label-index entry. Other conditions are not indexed: ``satisfies`` stays
    the final test on every candidate.
    """
    best = None
    for c in pred.conditions:
        if c.op != "=":
            continue
        if c.prop == "id" and isinstance(c.value, int):
            found = (c.value,) if c.value in (g.nodes if kind == "node" else g.edges) else ()
        elif c.prop == "label" and kind == "edge" and isinstance(c.value, str):
            found = g.edges_with_label(c.value)
        else:
            continue
        if best is None or len(found) < len(best):
            best = found
    return best


def _anchor(g: Graph, pattern: EdgePattern) -> tuple[int, Collection[int]]:
    """(candidate count, edge ids to probe) of the pattern's cheapest index.

    A constant ``id`` admits at most one candidate, a label-index entry its
    size; with neither the pattern scans every edge. A node candidate is
    probed through its incoming edges (target) or adjacent edges (source).
    """
    src, edge, tgt = pattern.predicates
    options = [(len(g.edges), g.edges)]
    for pred, probe in ((edge, None), (tgt, g.incoming_edges), (src, g.adjacent_edges)):
        found = candidates(g, pred, "edge" if probe is None else "node")
        if found is not None:
            options.append((len(found), found if probe is None else [eid for n in found for eid in probe(n)]))
    return min(options, key=itemgetter(0))


def _extend(
    g: Graph, pattern: EdgePattern, row: tuple, slot: dict[str, int], anchor: Collection[int]
) -> Iterator[tuple]:
    """The cells of the variables ``pattern`` adds to ``row``, one tuple per matching edge.

    Probes the bound edge, else the smallest of ``anchor``, the incoming edges
    of a bound target and the adjacent edges of a bound source; each probed
    edge must then agree with every bound variable and satisfy every predicate.
    """
    src, edge, tgt = pattern.predicates
    if edge.var in slot:
        probe = (row[slot[edge.var]],)
    else:
        probe = anchor
        if tgt.var in slot:
            probe = min(probe, g.incoming_edges(row[slot[tgt.var]]), key=len)
        if src.var in slot:
            probe = min(probe, g.adjacent_edges(row[slot[src.var]]), key=len)
    for eid in probe:
        e = g.edges[eid]
        new: dict[str, int] = {}
        for pred, kind, value in zip(pattern.predicates, _KINDS, (e.source, eid, e.target)):
            i = slot.get(pred.var)
            if (row[i] if i is not None else new.get(pred.var, value)) != value:
                break
            if pred.conditions and not satisfies(pred, g, value, kind):
                break
            if i is None:
                new[pred.var] = value
        else:
            yield tuple(new.values())


def evaluate_bgp(g: Graph, bgp: Bgp, synthetic: frozenset[str] = frozenset()) -> BindingTable:
    """All embeddings of a pattern group, by index nested loops.

    The first pattern is the one whose index admits the fewest candidates
    (see ``_anchor``): a constant ``id``, then the smallest label-index
    entry, then a full scan. Each later pattern is the cheapest one that
    shares a variable with the patterns matched so far, matched by probing
    from every partial row (see ``_extend``), so no pattern is scanned on its
    own and joined afterwards. Synthetic shorthand variables are hidden;
    columns follow the variables' first occurrence. A condition that
    ``satisfies`` does not define on its position raises ``PredicateError``
    before any edge is probed, whatever the graph.
    """
    kinds: dict[str, str] = {}
    for pattern in bgp.patterns:
        for pred, kind in zip(pattern.predicates, _KINDS):
            error = predicate_error(pred, kind)
            if error:
                raise PredicateError(error)
            if kinds.setdefault(pred.var, kind) != kind:
                raise JoinKindError(
                    f"variable {pred.var!r} binds {kinds[pred.var]}s in one pattern and {kind}s in another"
                )
    pending = {i: (_anchor(g, p), p) for i, p in enumerate(bgp.patterns)}
    slot: dict[str, int] = {}
    rows: list[tuple] = [()]
    while pending:
        connected = [i for i, (_, p) in pending.items() if any(q.var in slot for q in p.predicates)]
        (_, anchor), pattern = pending.pop(min(connected or pending, key=lambda i: pending[i][0][0]))
        rows = [row + cells for row in rows for cells in _extend(g, pattern, row, slot, anchor)]
        for pred in pattern.predicates:
            slot.setdefault(pred.var, len(slot))
    columns = tuple(v for v in kinds if v not in synthetic)
    cells = _cells([slot[v] for v in columns])
    return BindingTable(columns, tuple(kinds[v] for v in columns), frozenset(map(cells, rows)))
