"""Acceptance suite: every published criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The random suites are built once per session and shared
between criteria.
"""

from __future__ import annotations

import time

from treeq.engine import evaluate_query
from treeq.graph import edges_tsv, nodes_tsv
from treeq.lang import CtpFilters, parse_query, validate_query
from treeq.search import ALGORITHMS, SearchConfig, guaranteed_found, run_search
from treeq.synth import gen_cdf, gen_chain, gen_comb, gen_line, gen_star
from treeq.trees import SeedSets, classify_result

from conftest import Q1_TEXT
from oracles import comparable_cell, def14_rows, post_filter_identities, result_identities


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_worked_example(fig1):
    start = time.perf_counter()
    vq = validate_query(parse_query(Q1_TEXT))
    result = evaluate_query(fig1, vq)
    rows = {(r[0], r[1], r[2], r[3].edges) for r in result.rows}
    ok = (4, 6, 9, (9, 10, 11)) in rows and (2, 3, 9, (1, 2, 16, 17)) in rows
    ours = {tuple(comparable_cell(c) for c in row) for row in result.rows}
    ok = ok and ours == def14_rows(fig1, vq)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "worked example rows and exact row-set equality", ok, f"{elapsed:.2f}s, {len(rows)} rows")


def test_criterion_2_chain_counts():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        w = gen_chain(n)
        for algo in ("bft", "molesp"):
            results, _ = run_search(w.graph, w.seeds(), SearchConfig(algorithm=algo))
            ok = ok and len(results) == 2**n
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, "chain workloads report exactly 2^N results (N=1..8)", ok, f"{elapsed:.1f}s")


def test_criterion_3_complete_up_to_three_sets(suite_m3):
    start = time.perf_counter()
    bad = 0
    for g, seeds, baseline in suite_m3:
        found, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
        if result_identities(found) != result_identities(baseline):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 300.0
    _report(3, "pruned search equals the exhaustive baseline on 200 random instances (m<=3)",
            ok, f"{bad} mismatches, {elapsed:.1f}s")


def test_criterion_4_guaranteed_classes_beyond_three(suite_m456):
    start = time.perf_counter()
    missing = 0
    checked = 0
    for g, seeds, baseline in suite_m456:
        found = result_identities(run_search(g, seeds, SearchConfig(algorithm="molesp"))[0])
        for rt in baseline:
            cls = classify_result(g, rt.edges, seeds)
            if guaranteed_found("molesp", seeds.m, cls):
                checked += 1
                if rt.identity() not in found:
                    missing += 1
    elapsed = time.perf_counter() - start
    ok = missing == 0 and elapsed < 600.0
    _report(4, "every guaranteed-class result is reported on 100 random instances (m=4..6)",
            ok, f"{checked} guaranteed results, {missing} missing, {elapsed:.1f}s")


def _minimality_violations(g, seeds, rt) -> bool:
    try:
        classify_result(g, rt.edges, seeds)  # tree-ness, leaves are seeds, one per set
    except ValueError:
        return True
    # removing any edge must leave no component that still covers every set
    edge_list = list(rt.edges)
    for removed in edge_list:
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid in edge_list:
            if eid == removed:
                continue
            e = g.edges[eid]
            adj.setdefault(e.source, []).append((e.target, eid))
            adj.setdefault(e.target, []).append((e.source, eid))
        e = g.edges[removed]
        for side in (e.source, e.target):
            seen = {side}
            stack = [side]
            while stack:
                n = stack.pop()
                for nxt, _ in adj.get(n, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if all(seen & seeds.sets[i] for i in seeds.active):
                return True
    return False


def test_criterion_5_soundness_everywhere(suite_m3, suite_m456, capsys):
    synthetic = [gen_line(3, 1), gen_comb(2, 2, 2, 1), gen_star(4, 2), gen_chain(4)]
    instances = [(g, s, b) for g, s, b in suite_m3]
    instances += [(g, s, b) for g, s, b in suite_m456]
    for w in synthetic:
        baseline, _ = run_search(w.graph, w.seeds(), SearchConfig(algorithm="bft"))
        instances.append((w.graph, w.seeds(), baseline))
    violations = 0
    checked = 0
    for g, seeds, baseline in instances:
        base_ids = result_identities(baseline)
        for algo in ALGORITHMS:
            results, _ = run_search(g, seeds, SearchConfig(algorithm=algo))
            ids = result_identities(results)
            if len(ids) != len(results):
                violations += 1
            if not ids <= base_ids:
                violations += 1
            for rt in results:
                checked += 1
                if _minimality_violations(g, seeds, rt):
                    violations += 1
    _report(5, "all algorithms report only minimal, duplicate-free subsets of the baseline",
            violations == 0, f"{checked} results checked across {len(instances)} instances")


def test_criterion_6_single_result_workloads():
    start = time.perf_counter()
    ok = True
    detail = []
    cases = []
    for m in (3, 5):
        for nl in (1, 2):
            cases.append((gen_line(m, nl), ("molesp", "moesp")))
    for na in (2, 3):
        cases.append((gen_comb(na, 2, 2, 1), ("molesp", "moesp")))
    for m in (3, 4, 5, 6):
        cases.append((gen_star(m, 2), ("molesp", "lesp")))
    for w, algos in cases:
        for algo in algos:
            results, _ = run_search(w.graph, w.seeds(), SearchConfig(algorithm=algo))
            if len(results) != 1:
                ok = False
                detail.append(f"{w.family}{w.parameters}:{algo}={len(results)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(6, "line/comb/star workloads yield exactly one result under their guarantees",
            ok, "; ".join(detail) or f"{len(cases)} workloads, {elapsed:.1f}s")


def test_criterion_7_pruning_reduces_provenances():
    start = time.perf_counter()
    ok = True
    detail = []
    for w in (gen_comb(4, 2, 2, 1), gen_star(6, 2)):
        _, gam_stats = run_search(w.graph, w.seeds(), SearchConfig(algorithm="gam"))
        _, molesp_stats = run_search(w.graph, w.seeds(), SearchConfig(algorithm="molesp"))
        detail.append(
            f"{w.family}: molesp {molesp_stats.provenances_built} vs gam {gam_stats.provenances_built}"
        )
        ok = ok and molesp_stats.provenances_built < gam_stats.provenances_built
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(7, "pruned search builds strictly fewer provenances than plain rooted search",
            ok, "; ".join(detail))


def test_criterion_8_cdf_end_to_end():
    start = time.perf_counter()
    ok = True
    detail = []
    for m in (2, 3):
        for nl in (16, 32):
            w = gen_cdf(m, 8, nl, 3, 4)
            edges_expected = 12 * 8 + nl * 3
            nodes_expected = 14 * 8 + nl * (2 if m == 2 else 3)
            counts_ok = w.graph.num_edges == edges_expected and w.graph.num_nodes == nodes_expected
            result = evaluate_query(w.graph, parse_query(w.query_text))
            rows_ok = len(result.rows) == nl
            ok = ok and counts_ok and rows_ok
            detail.append(f"m={m},NL={nl}:rows={len(result.rows)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(8, "forest workloads have exact formula counts and one row per link",
            ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_9_pushed_filters_equal_post_filtering(suite_m3):
    labels_cycle = [frozenset({"a"}), frozenset({"a", "b"}), frozenset({"a", "b", "c"})]
    bad = 0
    for i, (g, seeds, baseline) in enumerate(suite_m3):
        expected = post_filter_identities(g, baseline, uni=True)
        for algorithm in ("molesp", "bft", "bft_m", "bft_am"):
            uni, _ = run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=CtpFilters(uni=True)))
            if result_identities(uni) != expected:
                bad += 1
        labels = labels_cycle[i % 3]
        lab, _ = run_search(g, seeds, SearchConfig(algorithm="molesp", filters=CtpFilters(labels=labels)))
        if result_identities(lab) != post_filter_identities(g, baseline, labels=labels):
            bad += 1
        cap = 1 + i % 6
        capped, _ = run_search(g, seeds, SearchConfig(algorithm="molesp", filters=CtpFilters(max_edges=cap)))
        if result_identities(capped) != post_filter_identities(g, baseline, max_edges=cap):
            bad += 1
    _report(9, "pushed UNI/LABEL/MAX equal post-filtered baseline results on all 200 instances",
            bad == 0, f"{bad} mismatches")


def test_criterion_10_determinism(fig1, suite_m3):
    ok = True
    for g, seeds, _ in suite_m3[:30]:
        for algo in ("bft", "gam", "molesp"):
            first = run_search(g, seeds, SearchConfig(algorithm=algo))
            second = run_search(g, seeds, SearchConfig(algorithm=algo))
            ok = ok and first == second
    a, b = gen_cdf(3, 2, 6, 3, 77), gen_cdf(3, 2, 6, 3, 77)
    ok = ok and nodes_tsv(a.graph) == nodes_tsv(b.graph) and edges_tsv(a.graph) == edges_tsv(b.graph)
    c, d = gen_comb(3, 1, 2, 3), gen_comb(3, 1, 2, 3)
    ok = ok and edges_tsv(c.graph) == edges_tsv(d.graph)
    q1 = parse_query(Q1_TEXT)
    ok = ok and evaluate_query(fig1, q1) == evaluate_query(fig1, q1)
    _report(10, "repeated runs produce identical results, stats, and generated files", ok)
