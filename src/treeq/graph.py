"""In-memory directed multigraph with labels, node types and adjacency caches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class GraphLoadError(ValueError):
    """Malformed or inconsistent node/edge input."""


@dataclass(frozen=True)
class Node:
    id: int
    label: str = ""
    kind: str = "uri"  # "uri" or "literal"
    types: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Edge:
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
        self._degree: dict[int, int] = {}
        self._by_label: dict[str, list[int]] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise GraphLoadError(f"duplicate node id {n.id}")
            if n.kind not in ("uri", "literal"):
                raise GraphLoadError(f"node {n.id}: unknown kind {n.kind!r}")
            self.nodes[n.id] = n
            self._in[n.id] = []
            self._both[n.id] = []
            self._degree[n.id] = 0
        for e in edges:
            if e.id in self.edges:
                raise GraphLoadError(f"duplicate edge id {e.id}")
            for endpoint in (e.source, e.target):
                if endpoint not in self.nodes:
                    raise GraphLoadError(f"edge {e.id} references unknown node {endpoint}")
            if self.nodes[e.source].kind == "literal":
                raise GraphLoadError(f"edge {e.id} leaves literal node {e.source}")
            self.edges[e.id] = e
            self._in[e.target].append(e.id)
            self._both[e.source].append(e.id)
            if e.target != e.source:
                self._both[e.target].append(e.id)
            # a self-loop counts twice, once per direction
            self._degree[e.source] += 1
            self._degree[e.target] += 1
            self._by_label.setdefault(e.label, []).append(e.id)
        for nid in self.nodes:
            self._in[nid].sort()
            self._both[nid].sort()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, nid: int) -> int:
        """Number of adjacent edges, counting both directions."""
        return self._degree[nid]

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


def _parse_node_row(line: str) -> Node:
    parts = line.split("\t")
    if len(parts) != 4:
        raise GraphLoadError(f"expected 4 tab-separated fields, got {len(parts)}")
    raw_id, label, kind, raw_types = parts
    try:
        nid = int(raw_id)
    except ValueError:
        raise GraphLoadError(f"bad node id {raw_id!r}") from None
    return Node(nid, label, kind, frozenset(t for t in raw_types.split(",") if t))


def _parse_edge_row(line: str) -> Edge:
    parts = line.split("\t")
    if len(parts) != 4:
        raise GraphLoadError(f"expected 4 tab-separated fields, got {len(parts)}")
    raw_id, raw_src, label, raw_tgt = parts
    try:
        eid, src, tgt = int(raw_id), int(raw_src), int(raw_tgt)
    except ValueError:
        raise GraphLoadError("bad integer field") from None
    return Edge(eid, src, tgt, label)


def load_graph(node_rows: Iterable[str], edge_rows: Iterable[str]) -> Graph:
    """Build a graph from TSV rows (no header, UTF-8).

    Node rows: ``id<TAB>label<TAB>kind<TAB>types`` with comma-separated types.
    Edge rows: ``id<TAB>source<TAB>label<TAB>target``.
    Rows are parsed here and checked by ``Graph``; every error, from either,
    is reported with the file and 1-based line of the row that caused it.
    """
    where = ["nodes.tsv", 0]

    def parsed(name, rows, parse):
        for lineno, line in enumerate(rows, start=1):
            line = line.rstrip("\n")
            if line:
                where[:] = name, lineno
                yield parse(line)

    try:
        return Graph(
            parsed("nodes.tsv", node_rows, _parse_node_row), parsed("edges.tsv", edge_rows, _parse_edge_row)
        )
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
