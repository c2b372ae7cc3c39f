"""Relational tables of variable bindings and conjunctive pattern evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

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
    for eid in sorted(g.edges):
        e = g.edges[eid]
        if (
            satisfies(pattern.edge, g, eid, "edge")
            and satisfies(pattern.source, g, e.source, "node")
            and satisfies(pattern.target, g, e.target, "node")
        ):
            rows.add((e.source, eid, e.target))
    return BindingTable(columns, ("node", "edge", "node"), frozenset(rows))


def natural_join(a: BindingTable, b: BindingTable) -> BindingTable:
    """Natural join on shared column names; Cartesian product when none are shared."""
    shared = [c for c in a.columns if c in b.columns]
    for c in shared:
        if a.kind_of(c) != b.kind_of(c):
            raise JoinKindError(
                f"column {c!r} binds {a.kind_of(c)}s on one side and {b.kind_of(c)}s on the other"
            )
    a_idx = [a.columns.index(c) for c in shared]
    b_idx = [b.columns.index(c) for c in shared]
    b_rest = [i for i in range(len(b.columns)) if b.columns[i] not in shared]

    columns = a.columns + tuple(b.columns[i] for i in b_rest)
    kinds = a.kinds + tuple(b.kinds[i] for i in b_rest)

    index: dict[tuple, list[tuple]] = {}
    for row in b.rows:
        index.setdefault(tuple(row[i] for i in b_idx), []).append(row)
    rows = set()
    for row in a.rows:
        key = tuple(row[i] for i in a_idx)
        for match in index.get(key, ()):
            rows.add(row + tuple(match[i] for i in b_rest))
    return BindingTable(columns, kinds, frozenset(rows))


def project(t: BindingTable, variables: Iterable[str]) -> BindingTable:
    """Duplicate-eliminated projection onto the given columns."""
    variables = list(variables)
    for v in variables:
        if v not in t.columns:
            raise KeyError(f"unknown column {v!r}")
    idx = [t.columns.index(v) for v in variables]
    return BindingTable(
        tuple(variables),
        tuple(t.kinds[i] for i in idx),
        frozenset(tuple(row[i] for i in idx) for row in t.rows),
    )


def evaluate_bgp(g: Graph, bgp: Bgp, synthetic: frozenset[str] = frozenset()) -> BindingTable:
    """Join all per-pattern match tables; cheapest (fewest matches) first.

    Synthetic shorthand variables are projected away so only user variables
    surface in the result.
    """
    tables = [match_edge_pattern(g, p) for p in bgp.patterns]
    tables.sort(key=len)
    result = tables[0]
    for t in tables[1:]:
        result = natural_join(result, t)
    visible = [c for c in result.columns if c not in synthetic]
    return project(result, visible)
