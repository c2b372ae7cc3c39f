"""Workload generators: topology formulas, determinism, manifests, oracle checks."""

from __future__ import annotations

import random

import pytest

from treeq.graph import edges_tsv, nodes_tsv
from treeq.search import SearchConfig, run_search
from treeq.synth import (
    GenError,
    gen_cdf,
    gen_chain,
    gen_comb,
    gen_line,
    gen_random_instance,
    gen_star,
    load_workload,
    write_workload,
)

from oracles import result_identities


def test_chain_shapes():
    w1 = gen_chain(1)
    assert w1.graph.num_nodes == 2 and w1.graph.num_edges == 2
    assert w1.expected_results == 2
    w3 = gen_chain(3)
    assert w3.graph.num_nodes == 4 and w3.graph.num_edges == 6
    assert w3.expected_results == 8
    assert gen_chain(8).expected_results == 256
    with pytest.raises(GenError):
        gen_chain(0)


def test_chain_has_parallel_edges():
    g = gen_chain(1).graph
    endpoints = {(e.source, e.target) for e in g.edges.values()}
    assert endpoints == {(1, 2)}


def test_line_shapes():
    w = gen_line(3, 1)
    assert w.graph.num_nodes == 5 and w.graph.num_edges == 4
    assert [w.graph.nodes[s[0]].label for s in w.seed_sets] == ["A", "B", "C"]
    assert gen_line(2, 0).graph.num_edges == 1
    w5 = gen_line(5, 2)
    assert w5.graph.num_nodes == 13 and w5.graph.num_edges == 12
    assert w5.expected_results == 1


def test_comb_shapes():
    w = gen_comb(3, 1, 2, 3)
    assert len(w.seed_sets) == 6  # nA * (nS + 1)
    assert w.graph.num_nodes == 3 + 2 * 3 + 3 * 1 * 2
    assert w.graph.num_edges == 2 * 4 + 3 * 1 * 2
    tiny = gen_comb(1, 1, 1, 1)
    assert len(tiny.seed_sets) == 2 and tiny.graph.num_edges == 1
    assert len(gen_comb(2, 2, 2, 1).seed_sets) == 6


def test_star_shapes():
    w = gen_star(4, 2)
    assert w.graph.num_nodes == 9 and w.graph.num_edges == 8
    assert w.graph.degree(1) == 4  # the center
    assert gen_star(2, 1).graph.num_edges == 2
    w6 = gen_star(6, 2)
    assert w6.graph.num_nodes == 13 and w6.graph.num_edges == 12


def test_cdf_formula_counts():
    for m, nt, nl, sl in [(2, 1, 2, 2), (3, 1, 2, 3), (2, 3, 5, 4), (3, 4, 6, 5)]:
        w = gen_cdf(m, nt, nl, sl, 3)
        assert w.graph.num_edges == 12 * nt + nl * sl, (m, nt, nl, sl)
        expected_nodes = 14 * nt + nl * (sl - 1) if m == 2 else 14 * nt + nl * sl
        assert w.graph.num_nodes == expected_nodes, (m, nt, nl, sl)


def test_cdf_carries_query():
    w = gen_cdf(2, 1, 2, 2, 0)
    assert w.seed_sets is None and "TREE" in w.query_text
    assert gen_cdf(3, 1, 2, 3, 0).query_text.endswith("UNI")


def test_cdf_parameter_validation():
    with pytest.raises(GenError):
        gen_cdf(4, 1, 1, 2, 0)
    with pytest.raises(GenError):
        gen_cdf(3, 1, 1, 1, 0)
    with pytest.raises(GenError):
        gen_cdf(2, 0, 1, 1, 0)


def test_formula_counts_on_random_parameter_draws():
    rng = random.Random(5)
    for _ in range(50):
        family = rng.choice(["chain", "line", "comb", "star", "cdf"])
        if family == "chain":
            n = rng.randint(1, 10)
            w = gen_chain(n)
            assert w.graph.num_nodes == n + 1 and w.graph.num_edges == 2 * n
        elif family == "line":
            m, nl = rng.randint(2, 6), rng.randint(0, 3)
            w = gen_line(m, nl)
            assert w.graph.num_nodes == m + (m - 1) * nl
            assert w.graph.num_edges == (m - 1) * (nl + 1)
        elif family == "comb":
            na, ns, sl, dba = (rng.randint(1, 4) for _ in range(4))
            w = gen_comb(na, ns, sl, dba)
            assert w.graph.num_nodes == na + (na - 1) * dba + na * ns * sl
            assert w.graph.num_edges == (na - 1) * (dba + 1) + na * ns * sl
            assert len(w.seed_sets) == na * (ns + 1)
        elif family == "star":
            m, sl = rng.randint(2, 6), rng.randint(1, 3)
            w = gen_star(m, sl)
            assert w.graph.num_nodes == 1 + m * sl and w.graph.num_edges == m * sl
        else:
            m, nt, nl = rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 5)
            sl = rng.randint(2 if m == 3 else 1, 4)
            w = gen_cdf(m, nt, nl, sl, rng.randint(0, 99))
            assert w.graph.num_edges == 12 * nt + nl * sl
            assert w.graph.num_nodes == 14 * nt + nl * (sl - 1 if m == 2 else sl)


def test_expected_results_verified_by_exhaustive_search():
    for w in [gen_chain(5), gen_line(3, 1), gen_line(4, 2), gen_comb(2, 1, 2, 1), gen_star(4, 2)]:
        results, stats = run_search(w.graph, w.seeds(), SearchConfig(algorithm="bft"))
        assert not stats.timed_out
        assert len(results) == w.expected_results, w.family


def test_cdf_expected_results_verified_end_to_end():
    from treeq.engine import evaluate_query
    from treeq.lang import parse_query

    for m in (2, 3):
        for nt, nl in [(1, 2), (2, 4)]:
            w = gen_cdf(m, nt, nl, 3, 9)
            result = evaluate_query(w.graph, parse_query(w.query_text))
            assert len(result.rows) == w.expected_results, (m, nt, nl)


def test_generators_are_deterministic(tmp_path):
    a = gen_cdf(3, 2, 4, 3, 77)
    b = gen_cdf(3, 2, 4, 3, 77)
    assert nodes_tsv(a.graph) == nodes_tsv(b.graph)
    assert edges_tsv(a.graph) == edges_tsv(b.graph)
    c = gen_cdf(3, 2, 4, 3, 78)
    assert edges_tsv(a.graph) != edges_tsv(c.graph)  # the seed moves the links

    d1, d2 = tmp_path / "one", tmp_path / "two"
    write_workload(a, d1)
    write_workload(b, d2)
    for name in ("nodes.tsv", "edges.tsv", "workload.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_workload_round_trip(tmp_path):
    w = gen_line(3, 2)
    write_workload(w, tmp_path / "wl")
    again = load_workload(tmp_path / "wl")
    assert again.family == "line"
    assert again.parameters == {"m": 3, "nL": 2}
    assert again.seed_sets == w.seed_sets
    assert again.expected_results == 1
    assert nodes_tsv(again.graph) == nodes_tsv(w.graph)


def test_random_instance_is_deterministic_per_rng_state():
    g1, s1 = gen_random_instance(random.Random(3))
    g2, s2 = gen_random_instance(random.Random(3))
    assert nodes_tsv(g1) == nodes_tsv(g2) and edges_tsv(g1) == edges_tsv(g2)
    assert s1.sets == s2.sets


def test_random_instance_seed_sets_disjoint():
    rng = random.Random(8)
    for _ in range(20):
        _, seeds = gen_random_instance(rng, m=3, max_set_size=2)
        all_nodes = [n for s in seeds.sets for n in s]
        assert len(all_nodes) == len(set(all_nodes))


def test_seed_labels_continue_past_the_alphabet():
    w = gen_comb(9, 2, 1, 1)  # 27 seed sets
    labels = [w.graph.nodes[s[0]].label for s in w.seed_sets]
    assert labels[0] == "A" and "S27" in labels and len(labels) == 27
