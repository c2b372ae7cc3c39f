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
        out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise GraphLoadError(f"duplicate node id {n.id}")
            if n.kind not in ("uri", "literal"):
                raise GraphLoadError(f"node {n.id}: unknown kind {n.kind!r}")
            self.nodes[n.id] = n
            out[n.id] = []
            self._in[n.id] = []
        for e in edges:
            if e.id in self.edges:
                raise GraphLoadError(f"duplicate edge id {e.id}")
            for endpoint in (e.source, e.target):
                if endpoint not in self.nodes:
                    raise GraphLoadError(f"edge {e.id} references unknown node {endpoint}")
            if self.nodes[e.source].kind == "literal":
                raise GraphLoadError(f"edge {e.id} leaves literal node {e.source}")
            self.edges[e.id] = e
            out[e.source].append(e.id)
            self._in[e.target].append(e.id)
        for nid in self.nodes:
            self._in[nid].sort()
        self._degree = {nid: len(out[nid]) + len(self._in[nid]) for nid in self.nodes}
        self._both: dict[int, list[int]] = {
            nid: sorted(set(out[nid]) | set(self._in[nid])) for nid in self.nodes
        }

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, nid: int) -> int:
        """Number of adjacent edges, counting both directions."""
        if nid not in self.nodes:
            raise KeyError(f"unknown node id {nid}")
        return self._degree[nid]

    def adjacent_edges(self, nid: int) -> list[int]:
        """Edge ids adjacent to ``nid`` in either direction, ascending."""
        if nid not in self.nodes:
            raise KeyError(f"unknown node id {nid}")
        return self._both[nid]

    def incoming_edges(self, nid: int) -> list[int]:
        if nid not in self.nodes:
            raise KeyError(f"unknown node id {nid}")
        return self._in[nid]

    def other_endpoint(self, eid: int, nid: int) -> int:
        """The endpoint of edge ``eid`` opposite to ``nid`` (``nid`` for self-loops)."""
        e = self.edges[eid]
        return e.target if e.source == nid else e.source


def _parse_node_row(line: str, lineno: int) -> Node:
    parts = line.split("\t")
    if len(parts) != 4:
        raise GraphLoadError(f"nodes.tsv line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
    raw_id, label, kind, raw_types = parts
    try:
        nid = int(raw_id)
    except ValueError:
        raise GraphLoadError(f"nodes.tsv line {lineno}: bad node id {raw_id!r}") from None
    if kind not in ("uri", "literal"):
        raise GraphLoadError(f"nodes.tsv line {lineno}: kind must be uri or literal, got {kind!r}")
    types = frozenset(t for t in raw_types.split(",") if t)
    return Node(nid, label, kind, types)


def _parse_edge_row(line: str, lineno: int) -> Edge:
    parts = line.split("\t")
    if len(parts) != 4:
        raise GraphLoadError(f"edges.tsv line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
    raw_id, raw_src, label, raw_tgt = parts
    try:
        eid, src, tgt = int(raw_id), int(raw_src), int(raw_tgt)
    except ValueError:
        raise GraphLoadError(f"edges.tsv line {lineno}: bad integer field") from None
    return Edge(eid, src, tgt, label)


def load_graph(node_rows: Iterable[str], edge_rows: Iterable[str]) -> Graph:
    """Build a graph from TSV rows (no header, UTF-8).

    Node rows: ``id<TAB>label<TAB>kind<TAB>types`` with comma-separated types.
    Edge rows: ``id<TAB>source<TAB>label<TAB>target``.
    Errors are reported with their 1-based line number.
    """
    nodes: list[Node] = []
    seen_nodes: set[int] = set()
    for lineno, line in enumerate(node_rows, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        n = _parse_node_row(line, lineno)
        if n.id in seen_nodes:
            raise GraphLoadError(f"nodes.tsv line {lineno}: duplicate node id {n.id}")
        seen_nodes.add(n.id)
        nodes.append(n)
    edges: list[Edge] = []
    seen_edges: set[int] = set()
    for lineno, line in enumerate(edge_rows, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        e = _parse_edge_row(line, lineno)
        if e.id in seen_edges:
            raise GraphLoadError(f"edges.tsv line {lineno}: duplicate edge id {e.id}")
        for endpoint in (e.source, e.target):
            if endpoint not in seen_nodes:
                raise GraphLoadError(f"edges.tsv line {lineno}: unknown node {endpoint}")
        seen_edges.add(e.id)
        edges.append(e)
    return Graph(nodes, edges)


def load_graph_files(nodes_path: str, edges_path: str) -> Graph:
    with open(nodes_path, encoding="utf-8") as nf:
        node_rows = nf.readlines()
    with open(edges_path, encoding="utf-8") as ef:
        edge_rows = ef.readlines()
    return load_graph(node_rows, edge_rows)


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
