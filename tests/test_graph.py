"""Graph store: loading, adjacency, degrees, round-trip, error reporting."""

from __future__ import annotations

import random
import sys

import pytest

from treeq.graph import Edge, Graph, GraphLoadError, Node, edges_tsv, load_graph, load_graph_files, nodes_tsv

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
    with pytest.raises(GraphLoadError, match="nodes.tsv line 2: duplicate node id 1"):
        load_graph(["1\ta\turi\t", "1\tb\turi\t"], [])
    with pytest.raises(GraphLoadError, match="edges.tsv line 2: duplicate edge id 1"):
        load_graph(
            ["1\ta\turi\t", "2\tb\turi\t"],
            ["1\t1\tx\t2", "1\t2\tx\t1"],
        )


TWO_NODES = ["1\ta\turi\t", "2\tb\turi\tt1,t2"]


# One row per load error; the "then" rows hold two faults and pin which check
# fires first. The "id-" rows hold ids that int() alone would read but that are
# no ASCII decimals.
@pytest.mark.parametrize(
    "node_rows, edge_rows, message",
    [
        (["1\ta\turi\t", "", "2\tb\tblank\t"], [], "nodes.tsv line 3: node 2: unknown kind 'blank'"),
        (["1\ta\turi\t"], ["1\t1\tx\t1", "2\t7\tx\t1"], "edges.tsv line 2: edge 2 references unknown node 7"),
        (["1\ta\turi\t"], ["1\t1\tx\t7"], "edges.tsv line 1: edge 1 references unknown node 7"),
        (
            ["1\ta\turi\t", "2\tb\tliteral\t"],
            ["1\t1\tx\t2", "", "2\t2\tx\t1"],
            "edges.tsv line 3: edge 2 leaves literal node 2",
        ),
        (["1\ta\turi"], [], "nodes.tsv line 1: expected 4 tab-separated fields, got 3"),
        (["1\ta\turi\t\tx"], [], "nodes.tsv line 1: expected 4 tab-separated fields, got 5"),
        (TWO_NODES, ["1\t1\tx\t2", "2\t1\tx"], "edges.tsv line 2: expected 4 tab-separated fields, got 3"),
        (["x\ta\turi\t"], [], "nodes.tsv line 1: bad node id 'x'"),
        (["\ta\turi\t"], [], "nodes.tsv line 1: bad node id ''"),
        (TWO_NODES, ["e\t1\tx\t2"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES, ["1\ts\tx\t2"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES, ["1\t1\tx\t2.0"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES + ["1\tc\turi\t"], [], "nodes.tsv line 3: duplicate node id 1"),
        (TWO_NODES, ["1\t1\tx\t2", "1\t2\tx\t1"], "edges.tsv line 2: duplicate edge id 1"),
        (["1\ta\t\t"], [], "nodes.tsv line 1: node 1: unknown kind ''"),
        (["x\ta\turi"], [], "nodes.tsv line 1: expected 4 tab-separated fields, got 3"),
        (TWO_NODES, ["x\t1\tx"], "edges.tsv line 1: expected 4 tab-separated fields, got 3"),
        (TWO_NODES + ["1\tc\tblank\t"], [], "nodes.tsv line 3: duplicate node id 1"),
        (TWO_NODES + ["1\tz\turi\t"], ["1\t1\tx\t9"], "nodes.tsv line 3: duplicate node id 1"),
        (TWO_NODES, ["1\t1\tx\t2", "1\t9\tx\t1"], "edges.tsv line 2: duplicate edge id 1"),
        (TWO_NODES, ["1\t8\tx\t7"], "edges.tsv line 1: edge 1 references unknown node 8"),
        (["1\ta\tliteral\t"], ["1\t1\tx\t9"], "edges.tsv line 1: edge 1 references unknown node 9"),
        (["1_0\tx\turi\t"], [], "nodes.tsv line 1: bad node id '1_0'"),
        ([" 2 \tx\turi\t"], [], "nodes.tsv line 1: bad node id ' 2 '"),
        (["+3\tx\turi\t"], [], "nodes.tsv line 1: bad node id '+3'"),
        (["\u0663\tx\turi\t"], [], "nodes.tsv line 1: bad node id '\u0663'"),
        (TWO_NODES, ["1_0\t1\tx\t2"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES, ["1\t 2 \tx\t1"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES, ["1\t1\tx\t+2"], "edges.tsv line 1: bad integer field"),
        (TWO_NODES, ["1\t1\tx\t\u0662"], "edges.tsv line 1: bad integer field"),
    ],
    ids=[
        "kind", "unknown-source", "unknown-target", "literal-source",
        "node-fields", "node-fields-5", "edge-fields", "node-id", "node-id-empty",
        "edge-id", "edge-source-id", "edge-target-id", "duplicate-node", "duplicate-edge", "kind-empty",
        "fields-then-id", "edge-fields-then-ids", "duplicate-node-then-kind", "node-then-edge",
        "duplicate-edge-then-unknown", "unknown-source-then-target", "unknown-then-literal",
        "id-underscore", "id-spaces", "id-plus", "id-non-ascii",
        "id-underscore-edge", "id-spaces-source", "id-plus-target", "id-non-ascii-target",
    ],
)
def test_graph_rejections_reported_with_file_and_line(node_rows, edge_rows, message):
    with pytest.raises(GraphLoadError) as err:
        load_graph(node_rows, edge_rows)
    assert str(err.value) == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() converts any number of digits"
)
def test_ids_beyond_the_int_digit_limit_are_load_errors():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(GraphLoadError) as err:
        load_graph(["9" * digits + "\tx\turi\t"], [])
    assert str(err.value) == f"nodes.tsv line 1: bad node id '{'9' * digits}'"
    with pytest.raises(GraphLoadError) as err:
        load_graph(["1\ta\turi\t"], ["1\t1\tx\t" + "1" * digits])
    assert str(err.value) == "edges.tsv line 1: bad integer field"


@pytest.mark.parametrize("bad_file, line", [("nodes.tsv", 3), ("edges.tsv", 2)])
def test_bytes_that_are_not_utf8_are_reported_with_file_and_line(tmp_path, bad_file, line):
    rows = {
        "nodes.tsv": ["1\ta\turi\t", "2\tb\u00e9\turi\t", "3\tc\turi\t", "4\td\turi\t"],
        "edges.tsv": ["1\t1\tx\t2", "2\t2\tx\t3", "3\t3\tx\t4"],
    }
    for name, lines in rows.items():
        encoded = [row.encode("utf-8") for row in lines]
        if name == bad_file:
            encoded[line - 1] += b"\x80"  # a continuation byte with no lead byte
        # CRLF line ends are counted as text mode counts them
        (tmp_path / name).write_bytes(b"\r\n".join(encoded))
    with pytest.raises(GraphLoadError) as err:
        load_graph_files(str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    assert str(err.value) == f"{bad_file} line {line}: not valid UTF-8"


def test_negative_and_zero_padded_ids_load():
    g = load_graph(["-1\ta\turi\t", "-0\tb\turi\t", "007\tc\turi\t"], ["-5\t-1\tx\t007"])
    assert sorted(g.nodes) == [-1, 0, 7]
    assert g.edges[-5] == Edge(-5, -1, 7, "x")


def test_malformed_row_reported_with_line():
    with pytest.raises(GraphLoadError, match="nodes.tsv line 1: expected 4"):
        load_graph(["1\ta\turi"], [])
    with pytest.raises(GraphLoadError, match="nodes.tsv line 1: bad node id"):
        load_graph(["x\ta\turi\t"], [])
    with pytest.raises(GraphLoadError, match="edges.tsv line 2: expected 4"):
        load_graph(["1\ta\turi\t", "2\tb\turi\t"], ["1\t1\tx\t2", "2\t1\tx"])
    with pytest.raises(GraphLoadError, match="edges.tsv line 1: bad integer field"):
        load_graph(["1\ta\turi\t"], ["1\t1\tx\ty"])


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([Node(1), Node(1)], [], "duplicate node id 1"),
        ([Node(1, kind="blank")], [], "node 1: unknown kind 'blank'"),
        ([Node(1), Node(2)], [Edge(1, 1, 2), Edge(1, 2, 1)], "duplicate edge id 1"),
        ([Node(1)], [Edge(1, 1, 99)], "edge 1 references unknown node 99"),
    ],
)
def test_graph_constructor_rejects_inconsistent_input(nodes, edges, message):
    with pytest.raises(GraphLoadError, match=message):
        Graph(nodes, edges)


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


def test_equal_types_fields_share_one_frozenset():
    g = load_graph(["1\ta\turi\tt1,t2", "2\tb\turi\tt1,t2", "3\tc\turi\tt2", "4\td\turi\t", "5\te\turi\t"], [])
    assert g.nodes[1].types == {"t1", "t2"} and g.nodes[3].types == {"t2"}
    assert g.nodes[1].types is g.nodes[2].types
    assert g.nodes[4].types is g.nodes[5].types == frozenset()


def test_records_are_named_tuples():
    n = Node(3, "c", types=frozenset({"t"}))
    assert n == (3, "c", "uri", frozenset({"t"}))
    assert n._replace(id=4) == Node(4, "c", "uri", frozenset({"t"}))
    assert Edge(1, 2, 3)._replace(label="x") == Edge(1, 2, 3, "x")


def test_degree_counts_a_self_loop_twice():
    g = load_graph(["1\ta\turi\t", "2\tb\turi\t"], ["1\t1\tx\t1", "2\t1\tx\t2", "3\t1\ty\t1"])
    assert g.adjacent_edges(1) == [1, 2, 3]
    assert g.degree(1) == 5
    assert g.degree(2) == 1


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
    loops = 0
    for _ in range(100):
        n = rng.randint(1, 10)
        nodes = [Node(i + 1, str(i + 1)) for i in range(n)]
        edges = [
            Edge(k + 1, rng.randint(1, n), rng.randint(1, n), "x")
            for k in range(rng.randint(0, 15))
        ]
        rng.shuffle(edges)  # ids reach the constructor out of order
        loops += sum(e.source == e.target for e in edges)
        g = Graph(nodes, edges)
        for nid in g.nodes:
            out_count = sum(1 for e in edges if e.source == nid)
            incoming = sorted(e.id for e in edges if e.target == nid)
            assert g.degree(nid) == out_count + len(incoming)
            assert g.adjacent_edges(nid) == sorted(e.id for e in edges if nid in (e.source, e.target))
            assert g.incoming_edges(nid) == incoming
    assert loops


def test_label_index_matches_a_recount_on_random_graphs():
    rng = random.Random(11)
    loops = parallel = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        nodes = [Node(i + 1, str(i + 1)) for i in range(n)]
        edges = []
        for k in range(rng.randint(0, 15)):
            if edges and rng.random() < 0.2:  # a parallel copy of an earlier edge
                e = rng.choice(edges)
                edges.append(Edge(k + 1, e.source, e.target, rng.choice([e.label, "z"])))
            else:
                edges.append(Edge(k + 1, rng.randint(1, n), rng.randint(1, n), rng.choice("xyz")))
        g = Graph(nodes, edges)
        loops += sum(e.source == e.target for e in edges)
        parallel += len(edges) - len({(e.source, e.target, e.label) for e in edges})
        for label in ("x", "y", "z", "", "absent"):
            recount = sorted(e.id for e in edges if e.label == label)
            assert sorted(g.edges_with_label(label)) == recount
    assert loops and parallel
