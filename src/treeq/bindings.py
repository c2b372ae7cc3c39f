"""Relational tables of variable bindings and conjunctive pattern evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from .graph import Graph
from .lang import Bgp, EdgePattern, satisfies


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


def match_edge_pattern(g: Graph, pattern: EdgePattern) -> BindingTable:
    """All directed edge embeddings of one pattern, one row per matching edge."""
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


def evaluate_bgp(g: Graph, bgp: Bgp, synthetic: frozenset[str] = frozenset()) -> BindingTable:
    """Join all per-pattern match tables (see ``join_all``).

    Synthetic shorthand variables are projected away so only user variables
    surface in the result; columns follow the variables' first occurrence.
    """
    tables = [match_edge_pattern(g, p) for p in bgp.patterns]
    visible = dict.fromkeys(c for t in tables for c in t.columns if c not in synthetic)
    return join_all(tables, visible)
