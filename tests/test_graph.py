"""Graph store: loading, adjacency, degrees, round-trip, error reporting."""

from __future__ import annotations

import random

import pytest

from treeq.graph import Edge, Graph, GraphLoadError, Node, edges_tsv, load_graph, nodes_tsv

from conftest import FIG1_EDGES, FIG1_NODES


def test_fig1_counts(fig1):
    assert fig1.num_nodes == 12
    assert fig1.num_edges == 19


def test_empty_graph():
    g = load_graph([], [])
    assert g.num_nodes == 0 and g.num_edges == 0


def test_adjacency_modes(fig1):
    assert fig1.adjacent_edges(7) == [9, 10, 19]
    assert fig1.incoming_edges(7) == [9, 10, 19]
    assert fig1.adjacent_edges(2) == [1, 3, 5]
    assert fig1.incoming_edges(2) == []


def test_isolated_node_has_no_edges():
    g = load_graph(["1\ta\turi\t"], [])
    assert g.adjacent_edges(1) == []
    assert g.degree(1) == 0


def test_unknown_node_errors(fig1):
    with pytest.raises(KeyError):
        fig1.adjacent_edges(99)
    with pytest.raises(KeyError):
        fig1.degree(99)
    with pytest.raises(KeyError):
        fig1.incoming_edges(99)


def test_edge_referencing_missing_node():
    with pytest.raises(GraphLoadError, match="line 1.*unknown node 99"):
        load_graph(["1\ta\turi\t"], ["1\t1\tx\t99"])


def test_duplicate_ids_reported_with_line():
    with pytest.raises(GraphLoadError, match="line 2.*duplicate node id 1"):
        load_graph(["1\ta\turi\t", "1\tb\turi\t"], [])
    with pytest.raises(GraphLoadError, match="line 2.*duplicate edge id 1"):
        load_graph(
            ["1\ta\turi\t", "2\tb\turi\t"],
            ["1\t1\tx\t2", "1\t2\tx\t1"],
        )


def test_malformed_row_reported_with_line():
    with pytest.raises(GraphLoadError, match="line 1"):
        load_graph(["1\ta\turi"], [])
    with pytest.raises(GraphLoadError, match="line 1"):
        load_graph(["x\ta\turi\t"], [])
    with pytest.raises(GraphLoadError, match="line 2"):
        load_graph(["1\ta\turi\t", "2\tb\turi\t"], ["1\t1\tx\t2", "2\t1\tx"])


def test_literal_node_cannot_have_outgoing_edges():
    with pytest.raises(GraphLoadError, match="literal"):
        Graph([Node(1, "a", "literal"), Node(2, "b")], [Edge(1, 1, 2, "x")])


def test_parallel_edges_allowed():
    g = load_graph(
        ["1\ta\turi\t", "2\tb\turi\t"],
        ["1\t1\tx\t2", "2\t1\ty\t2", "3\t1\tx\t2"],
    )
    assert g.num_edges == 3
    assert g.adjacent_edges(1) == [1, 2, 3]


def test_types_parse_and_membership(fig1):
    assert "entrepreneur" in fig1.nodes[3].types
    assert fig1.nodes[11].types == frozenset()
    assert fig1.nodes[11].kind == "literal"


def test_round_trip(fig1):
    again = load_graph(nodes_tsv(fig1).splitlines(), edges_tsv(fig1).splitlines())
    assert {(n.id, n.label, n.kind, n.types) for n in again.nodes.values()} == {
        (n.id, n.label, n.kind, n.types) for n in fig1.nodes.values()
    }
    assert {(e.id, e.source, e.target, e.label) for e in again.edges.values()} == {
        (e.id, e.source, e.target, e.label) for e in fig1.edges.values()
    }
    assert nodes_tsv(again) == nodes_tsv(fig1)
    assert edges_tsv(again) == edges_tsv(fig1)


def test_round_trip_includes_fig1_text(fig1):
    assert nodes_tsv(fig1) == FIG1_NODES
    assert edges_tsv(fig1) == FIG1_EDGES


def test_degree_matches_recomputed_adjacency_on_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 10)
        nodes = [Node(i + 1, str(i + 1)) for i in range(n)]
        edges = [
            Edge(k + 1, rng.randint(1, n), rng.randint(1, n), "x")
            for k in range(rng.randint(0, 15))
        ]
        g = Graph(nodes, edges)
        for nid in g.nodes:
            out_count = sum(1 for e in g.edges.values() if e.source == nid)
            in_count = sum(1 for e in g.edges.values() if e.target == nid)
            assert g.degree(nid) == out_count + in_count
            for eid in g.adjacent_edges(nid):
                e = g.edges[eid]
                assert nid in (e.source, e.target)
            assert len(g.incoming_edges(nid)) == in_count
            for eid in g.incoming_edges(nid):
                assert g.edges[eid].target == nid
