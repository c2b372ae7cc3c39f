"""In-memory directed multigraph with labels, node types and adjacency caches."""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple


class GraphLoadError(ValueError):
    """Malformed or inconsistent node/edge input."""


class Node(NamedTuple):
    id: int
    label: str = ""
    kind: str = "uri"  # "uri" or "literal"
    types: frozenset[str] = frozenset()


class Edge(NamedTuple):
    id: int
    source: int
    target: int
    label: str = ""


class Graph:
    """Immutable node/edge store. Safe to share between concurrent searches.

    Parallel edges between the same endpoints are allowed; edges are
    identified by their integer id.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]) -> None:
        self.nodes: dict[int, Node] = {}
        self.edges: dict[int, Edge] = {}
        self._in: dict[int, list[int]] = {}
        self._both: dict[int, list[int]] = {}
        #: self-loops per node that has any; ``degree`` counts each twice
        self._loops: dict[int, int] = {}
        self._by_label: dict[str, list[int]] = {}
        by_id, incoming, both = self.nodes, self._in, self._both
        for n in nodes:
            nid = n.id
            if nid in by_id:
                raise GraphLoadError(f"duplicate node id {nid}")
            if n.kind not in ("uri", "literal"):
                raise GraphLoadError(f"node {nid}: unknown kind {n.kind!r}")
            by_id[nid] = n
            incoming[nid] = []
            both[nid] = []
        by_eid, loops, by_label = self.edges, self._loops, self._by_label
        for e in edges:
            eid, source, target, label = e
            if eid in by_eid:
                raise GraphLoadError(f"duplicate edge id {eid}")
            source_node = by_id.get(source)
            if source_node is None:
                raise GraphLoadError(f"edge {eid} references unknown node {source}")
            if target not in by_id:
                raise GraphLoadError(f"edge {eid} references unknown node {target}")
            if source_node.kind == "literal":
                raise GraphLoadError(f"edge {eid} leaves literal node {source}")
            by_eid[eid] = e
            incoming[target].append(eid)
            both[source].append(eid)
            if target != source:
                both[target].append(eid)
            else:
                loops[source] = loops.get(source, 0) + 1
            by_label.setdefault(label, []).append(eid)
        for nid in by_id:
            incoming[nid].sort()
            both[nid].sort()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, nid: int) -> int:
        """Number of adjacent edges, counting both directions (a self-loop twice)."""
        return len(self._both[nid]) + self._loops.get(nid, 0)

    def adjacent_edges(self, nid: int) -> list[int]:
        """Edge ids adjacent to ``nid`` in either direction, ascending."""
        return self._both[nid]

    def incoming_edges(self, nid: int) -> list[int]:
        return self._in[nid]

    def edges_with_label(self, label: str) -> list[int]:
        """Edge ids carrying ``label``, in insertion order; empty for an unused label."""
        return self._by_label.get(label, [])

    def other_endpoint(self, eid: int, nid: int) -> int:
        """The endpoint of edge ``eid`` opposite to ``nid`` (``nid`` for self-loops)."""
        e = self.edges[eid]
        return e.target if e.source == nid else e.source


# int() alone would also read "1_0", " 2 ", "+3" and non-ASCII digits
_NODE_ROW = re.compile(r"(-?[0-9]+)\t([^\t]*)\t([^\t]*)\t([^\t]*)").fullmatch
_EDGE_ROW = re.compile(r"(-?[0-9]+)\t(-?[0-9]+)\t([^\t]*)\t(-?[0-9]+)").fullmatch


def _fields(line: str) -> list[str]:
    """The fields of a row; a wrong field count is reported before any bad field."""
    parts = line.split("\t")
    if len(parts) != 4:
        raise GraphLoadError(f"expected 4 tab-separated fields, got {len(parts)}")
    return parts


def load_graph(node_rows: Iterable[str], edge_rows: Iterable[str]) -> Graph:
    """Build a graph from TSV rows (no header, UTF-8).

    Node rows: ``id<TAB>label<TAB>kind<TAB>types`` with comma-separated types.
    Edge rows: ``id<TAB>source<TAB>label<TAB>target``.
    Ids, sources and targets are ASCII decimal integers (``-?[0-9]+``).
    Nodes with the same ``types`` field share one frozenset.
    Rows are parsed here and checked by ``Graph``; every error, from either,
    is reported with the file and 1-based line of the row that caused it.
    """
    where = ["nodes.tsv", 0]

    def parsed_nodes():
        type_sets: dict[str, frozenset[str]] = {}
        for lineno, line in enumerate(node_rows, start=1):
            line = line.rstrip("\n")
            if line:
                where[1] = lineno
                row = _NODE_ROW(line)
                if row is None:
                    raise GraphLoadError(f"bad node id {_fields(line)[0]!r}")
                raw_id, label, kind, raw_types = row.groups()
                try:
                    nid = int(raw_id)
                except ValueError:  # more digits than int() converts
                    raise GraphLoadError(f"bad node id {raw_id!r}") from None
                types = type_sets.get(raw_types)
                if types is None:
                    types = type_sets[raw_types] = frozenset(t for t in raw_types.split(",") if t)
                yield Node(nid, label, kind, types)

    def parsed_edges():
        where[0] = "edges.tsv"
        for lineno, line in enumerate(edge_rows, start=1):
            line = line.rstrip("\n")
            if line:
                where[1] = lineno
                row = _EDGE_ROW(line)
                if row is None:
                    _fields(line)
                    raise GraphLoadError("bad integer field")
                raw_id, raw_src, label, raw_tgt = row.groups()
                try:
                    eid, source, target = int(raw_id), int(raw_src), int(raw_tgt)
                except ValueError:  # more digits than int() converts
                    raise GraphLoadError("bad integer field") from None
                yield Edge(eid, source, target, label)

    try:
        return Graph(parsed_nodes(), parsed_edges())
    except GraphLoadError as exc:
        raise GraphLoadError(f"{where[0]} line {where[1]}: {exc}") from None


def load_graph_files(nodes_path: str, edges_path: str) -> Graph:
    with open(nodes_path, encoding="utf-8") as nf, open(edges_path, encoding="utf-8") as ef:
        return load_graph(nf, ef)


def nodes_tsv(g: Graph) -> str:
    lines = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        lines.append(f"{n.id}\t{n.label}\t{n.kind}\t{','.join(sorted(n.types))}")
    return "".join(line + "\n" for line in lines)


def edges_tsv(g: Graph) -> str:
    lines = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        lines.append(f"{e.id}\t{e.source}\t{e.label}\t{e.target}")
    return "".join(line + "\n" for line in lines)
