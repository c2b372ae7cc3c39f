"""Search algorithms: step semantics, pruning, completeness, filters, determinism."""

from __future__ import annotations

import random

import pytest

from treeq import search
from treeq.graph import Graph
from treeq.lang import CtpFilters
from treeq.search import (
    ALGORITHMS,
    RootedTree,
    SearchConfig,
    _drain,
    admissible_edges,
    apply_score_topk,
    guaranteed_found,
    init_search,
    _union,
    is_new,
    merge_all,
    merge_partners,
    process_tree,
    record_for_merging,
    record_partner,
    run_search,
    try_grow,
)
from treeq.synth import gen_chain, gen_random_instance
from treeq.trees import SeedSetError, SeedSets, classify_result, minimize

from conftest import make_graph
from oracles import brute_ctp, oracle_identities, post_filter_identities, reaches_all, result_identities


def _tree(key, root, nodes, covered, gained=False):
    return RootedTree(tuple(sorted(key)), root, frozenset(nodes), covered, None, gained)


def _root_edges(state, t):
    return [e for e, _, _ in admissible_edges(state, t, (t.root,))]


def _grow(state, t, e):
    """``try_grow`` on edge ``e`` at ``t``'s root, with the far node that ``admissible_edges`` yields."""
    ((far, far_bits),) = [(f, b) for x, f, b in admissible_edges(state, t, (t.root,)) if x == e]
    return try_grow(state, t, e, far, far_bits)


def _pending_pairs(state):
    return sum(len(q) for q in state.queues.values())


def _recorded(state, root=None):
    """The merge partners recorded at ``root`` (at any root when None), in record order."""
    entries = sorted(entry for buckets in state.by_root.values() for records in buckets.values() for entry in records)
    return [t for _, t in entries if root is None or t.root == root]


class _RootedSpy:
    """Collects the trees handed to ``process_tree``, ``record_partner``,
    ``try_grow`` and ``RootedState.push_pair`` while rooted search runs."""

    def __init__(self, monkeypatch):
        self.processed, self.recorded, self.grown, self.queued = [], [], [], []
        for owner, name, seen in (
            (search, "process_tree", self.processed),
            (search, "record_partner", self.recorded),
            (search, "try_grow", self.grown),
            (search.RootedState, "push_pair", self.queued),
        ):
            monkeypatch.setattr(owner, name, self._wrap(getattr(owner, name), seen))

    @staticmethod
    def _wrap(fn, seen):
        def spy(state, t, *rest):
            seen.append(t)
            return fn(state, t, *rest)

        return spy

    def copies(self):
        """The merge partners filed without passing ``process_tree``: the re-rooted copies."""
        return [t for t in self.recorded if not any(t is p for p in self.processed)]


def _merge(state, t1, t2):
    """Merge ``t1`` with ``t2`` as the only tree recorded anywhere; None when refused."""
    state.by_root = {}
    record_partner(state, t2)
    partners = merge_partners(state, t1)
    assert partners in ([], [t2])
    return _union(t1, t2, tuple(sorted(t1.key + t2.key))) if partners else None


# ---------------------------------------------------------------------------
# start trees


def test_init_creates_one_tree_per_seed(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert sorted(state.by_root) == [1, 4, 6]
    # queued grow pairs: one for A, two for B, one for C
    assert _pending_pairs(state) == 4


def test_init_same_node_in_two_sets_is_a_result(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(1,), (1,)])
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert len(state.results) == 1
    (rt,), _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert rt.edges == () and rt.seed_tuple == (1, 1)


def test_init_skips_universal_sets(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(1,), ()], universal=[False, True])
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert sorted(state.by_root) == []  # the single start tree was already a result
    assert len(state.results) == 1
    (rt,), _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert rt.seed_tuple == (1, 1)  # the universal set is represented by the root


def test_all_universal_rejected(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(), ()], universal=[True, True])
    with pytest.raises(SeedSetError):
        init_search(g, seeds, SearchConfig())


# ---------------------------------------------------------------------------
# grow steps


def test_grow_b_with_adjacent_edge(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    init_b = _recorded(state, 4)[0]
    grown = _grow(state, init_b, 4)  # edge B -> "3"
    assert grown is not None
    assert grown.key == (4,) and grown.root == 5
    assert grown.covered == init_b.covered


def test_grow_rejects_node_already_in_tree(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t = _tree((1,), 2, {1, 2}, 0b001)
    assert _root_edges(state, t) == [2]  # edge 1 leads back to A


def test_grow_rejects_seed_from_covered_set(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(1,), (4, 6)])  # B and C in one set
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t = _tree((4,), 5, {4, 5}, 0b010)  # contains B, covered set 2
    assert _root_edges(state, t) == []  # edge 5 would reach C, same set


def test_grow_respects_max_edges_and_labels(path_abc):
    g, seeds = path_abc
    cfg = SearchConfig(algorithm="molesp", filters=CtpFilters(max_edges=1))
    state = init_search(g, seeds, cfg)
    t = _tree((1,), 2, {1, 2}, 0b001)
    assert _root_edges(state, t) == []  # edge 2 would exceed MAX 1
    cfg2 = SearchConfig(algorithm="molesp", filters=CtpFilters(labels=frozenset({"zzz"})))
    state2 = init_search(g, seeds, cfg2)
    init_a = _recorded(state2, 1)[0]
    assert _root_edges(state2, init_a) == []
    assert not any(state2.queues.values())


def test_grow_never_applies_to_rerooted_trees(path_abc, monkeypatch):
    g, seeds = path_abc
    spy = _RootedSpy(monkeypatch)
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    _drain(state)
    copies = spy.copies()
    assert copies and spy.grown
    assert not any(t is c for t in spy.grown for c in copies)
    # each copy is filed at a seed of the tree it copies, never as a result
    assert all(seeds.bits(c.root) and c.covered != seeds.full_mask for c in copies)


# ---------------------------------------------------------------------------
# merge steps


def test_merge_at_shared_root(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    left = _tree((4,), 5, {4, 5}, 0b010)   # B-3 rooted "3"
    right = _tree((5,), 5, {5, 6}, 0b100)  # C-3 rooted "3"
    merged = _merge(state, left, right)
    assert merged is not None
    assert merged.key == (4, 5) and merged.root == 5
    assert merged.covered == 0b110
    assert merged.gained


def test_merge_rejects_different_roots(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert _merge(state, _tree((4,), 5, {4, 5}, 0b010), _tree((5,), 6, {5, 6}, 0b100)) is None


def test_merge_rejects_two_seeds_from_one_set(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(1, 6), (4,)])
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t1 = _tree((1, 2), 3, {1, 2, 3}, 0b001)          # holds seed A
    t2 = _tree((3, 4, 5), 3, {3, 4, 5, 6}, 0b011)    # holds B and the other set-1 seed C
    assert _merge(state, t1, t2) is None


def test_merge_allows_overlap_through_shared_seed_root(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t1 = _tree((1, 2, 3), 4, {1, 2, 3, 4}, 0b011)  # A-1-2-B rooted B
    t2 = _tree((4, 5), 4, {4, 5, 6}, 0b110)        # B-3-C rooted B
    merged = _merge(state, t1, t2)
    assert merged is not None
    assert merged.covered == 0b111  # one B seed, shared through the root


def test_merge_rejects_extra_shared_nodes(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t1 = _tree((1, 2), 3, {1, 2, 3}, 0b001)
    t2 = _tree((2, 3), 3, {2, 3, 4}, 0b010)  # shares node 2 besides root 3
    assert _merge(state, t1, t2) is None


def test_merge_partners_filter_recorded_trees_in_record_order():
    # star around node 1; A = {2}, B = {3, 4}; edge i joins leaf i + 1 to node 1
    g = make_graph(["x", "A", "B", "B", "1", "2"], [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1)])
    seeds = SeedSets([(2,), (3, 4)])
    t1 = _tree((2, 4), 1, {1, 3, 5}, 0b10)  # B via 3, plus leaf 5
    d = _tree((1,), 1, {1, 2}, 0b01)         # A: merges
    b = _tree((3,), 1, {1, 4}, 0b10)         # B via another seed: clash
    c = _tree((4,), 1, {1, 5}, 0)            # shares leaf 5 besides the root
    a = _tree((5,), 1, {1, 6}, 0)            # merges
    e = _tree((1, 5), 1, {1, 2, 6}, 0b01)    # merges within budget 4, not 3
    both = _tree((1, 2), 1, {1, 2, 3}, 0b11)  # clashes with every bucket but mask 0
    recorded = [_tree((), 1, {1}, 0), d, b, c, a, e]
    for max_edges, expected in ((None, [d, a, e]), (4, [d, a, e]), (3, [d, a])):
        cfg = SearchConfig(algorithm="molesp", filters=CtpFilters(max_edges=max_edges))
        state = init_search(g, seeds, cfg)
        state.by_root = {}
        for t in recorded:
            record_partner(state, t)
        assert len(state.by_root[1]) == 3  # buckets of masks 0, 0b01 and 0b10
        assert merge_partners(state, t1) == expected, max_edges
        assert merge_partners(state, both) == [c, a], max_edges
        assert _recorded(state) == recorded


def test_merge_covered_algebra(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    t1 = _tree((1, 2), 3, {1, 2, 3}, 0b001)
    t2 = _tree((3,), 3, {3, 4}, 0b010)
    merged = _merge(state, t1, t2)
    assert merged.covered == t1.covered | t2.covered
    assert (t1.covered & t2.covered) & ~state.seeds.bits(3) == 0


# ---------------------------------------------------------------------------
# deduplication


def test_edge_set_pruning_discards_second_root(path_abc):
    g, seeds = path_abc
    for algo, expected in (("esp", False), ("moesp", False), ("gam", True)):
        state = init_search(g, seeds, SearchConfig(algorithm=algo))
        first = _tree((1, 2), 3, {1, 2, 3}, 0b001)
        assert process_tree(state, first) is True
        second = _tree((1, 2), 2, {1, 2, 3}, 0b001)
        assert is_new(state, second.key, second.root, merge=False) is expected, algo


def test_spare_condition_rescues_merge_trees(tee_abc):
    g, seeds = tee_abc
    for algo, expected in (("lesp", True), ("molesp", True), ("esp", False), ("moesp", False)):
        state = init_search(g, seeds, SearchConfig(algorithm=algo))
        state.hist.add((1, 2, 4, 6))  # A-1-x-3-C seen under some other root
        state.signatures[3] = 0b111  # three seed-rooted paths reached x
        assert g.degree(3) >= 3
        spared = _tree((1, 2, 4, 6), 3, {1, 2, 3, 6, 7}, 0b101)
        assert is_new(state, spared.key, spared.root, merge=True) is expected, algo
        if expected:
            # an identical recorded rooted tree blocks the spare
            record_for_merging(state, spared)
            assert is_new(state, spared.key, spared.root, merge=True) is False


def test_spare_needs_enough_signature_bits(tee_abc):
    g, seeds = tee_abc
    state = init_search(g, seeds, SearchConfig(algorithm="lesp"))
    state.hist.add((1, 2))
    state.signatures[3] = 0b011  # only two bits
    assert is_new(state, (1, 2), 3, merge=True) is False


def test_grow_trees_never_spared(tee_abc):
    g, seeds = tee_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    state.hist.add((1, 2))
    state.signatures[3] = 0b111
    assert is_new(state, (1, 2), 3, merge=False) is False


def test_first_tree_over_any_edge_set_is_new(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert is_new(state, (2, 3), 2, merge=False)


def test_rooted_search_builds_only_trees_that_survive_deduplication(monkeypatch):
    # every tree built is counted in provenances_built: a pruned grow step or
    # merge product is rejected on its edge set before anything is built
    built, unions, pairs = [], [], []
    rooted_tree, union, partners = search.RootedTree, search._union, search.merge_partners

    def spy_partners(state, t1):
        found = partners(state, t1)
        pairs.extend(found)
        return found

    monkeypatch.setattr(search, "RootedTree", lambda *a, **k: built.append(rooted_tree(*a, **k)) or built[-1])
    monkeypatch.setattr(search, "_union", lambda *a: unions.append(union(*a)) or unions[-1])
    monkeypatch.setattr(search, "merge_partners", spy_partners)
    w = gen_chain(10)
    _, stats = run_search(w.graph, SeedSets([(1,), (10,)]), SearchConfig(algorithm="molesp"))
    assert stats.trees_pruned == 4608  # chain10_span9 in test_search_pins
    assert len(built) == stats.provenances_built
    assert all(any(u is t for t in built) for u in unions)
    assert len(pairs) > len(unions)


# ---------------------------------------------------------------------------
# recording, re-rooted copies, merge fixpoint


def test_reroot_copies_created_at_new_seeds(path_abc, monkeypatch):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="moesp"))
    spy = _RootedSpy(monkeypatch)
    merged = _union(_tree((4,), 5, {4, 5}, 0b010), _tree((5,), 5, {5, 6}, 0b100), (4, 5))
    assert search.process_tree(state, merged) is True
    # the merge gained set C over B-3 and set B over 3-C: copies at both other seeds
    assert [(c.key, c.root) for c in spy.copies()] == [((4, 5), 4), ((4, 5), 6)]
    assert all(c.nodes == merged.nodes and c.covered == merged.covered for c in spy.copies())
    assert spy.recorded[0] is merged


def test_no_reroot_without_seed_gain(path_abc, monkeypatch):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="moesp"))
    grown = _grow(state, _recorded(state, 1)[0], 1)  # A-1, no new seed
    assert not grown.gained
    spy = _RootedSpy(monkeypatch)
    search.process_tree(state, grown)
    assert spy.recorded == [grown] and spy.copies() == []


def test_no_reroot_under_plain_esp(path_abc, monkeypatch):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="esp"))
    merged = _union(_tree((4,), 5, {4, 5}, 0b010), _tree((5,), 5, {5, 6}, 0b100), (4, 5))
    assert merged.gained
    spy = _RootedSpy(monkeypatch)
    search.process_tree(state, merged)
    assert spy.recorded == [merged] and spy.copies() == []


def test_process_tree_outcomes(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    full = _tree((1, 2, 3, 4, 5), 6, {1, 2, 3, 4, 5, 6}, 0b111)
    queued_before = _pending_pairs(state)
    assert process_tree(state, full) is False
    assert len(state.results) == 1
    assert _pending_pairs(state) == queued_before  # results are never grown
    assert not is_new(state, full.key, full.root, merge=False)


def test_process_tree_reports_only_trees_covering_every_set(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    state = init_search(fig1, seeds, SearchConfig(algorithm="gam"))
    assert process_tree(state, _tree((9, 10, 11), 9, {4, 7, 6, 9}, 0b111)) is False
    assert state.results == {((9, 10, 11), (4, 6, 7, 9))}
    assert process_tree(state, _tree((1,), 2, {1, 2}, 0b001)) is True
    assert len(state.results) == 1
    one_set = SeedSets([(2,)])
    state = init_search(fig1, one_set, SearchConfig(algorithm="gam"))
    assert state.results == {((), (2,))}  # a start tree can cover every set


def test_pruned_grow_step_builds_nothing_and_is_counted(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    init_a = _recorded(state, 1)[0]
    assert process_tree(state, _grow(state, init_a, 1)) is True  # A-1
    pruned_before = state.stats.trees_pruned
    assert _grow(state, init_a, 1) is None
    assert state.stats.trees_pruned == pruned_before + 1


def test_rerooted_trees_are_not_enqueued(path_abc, monkeypatch):
    g, seeds = path_abc
    spy = _RootedSpy(monkeypatch)
    state = init_search(g, seeds, SearchConfig(algorithm="moesp"))
    _drain(state)
    copies = spy.copies()
    assert copies and spy.queued
    assert not any(t is c for t in spy.queued for c in copies)


def test_merge_all_with_no_partners_is_noop(path_abc):
    g, seeds = path_abc
    state = init_search(g, seeds, SearchConfig(algorithm="molesp"))
    results_before = len(state.results)
    merge_all(state, _tree((2,), 2, {2, 3}, 0))
    assert len(state.results) == results_before


# ---------------------------------------------------------------------------
# full searches


def test_path_graph_results_per_algorithm(path_abc):
    g, seeds = path_abc
    full_path = (1, 2, 3, 4, 5)
    for algo in ALGORITHMS:
        found = {rt.edges for rt in run_search(g, seeds, SearchConfig(algorithm=algo))[0]}
        if algo in ("bft", "bft_m", "bft_am", "gam", "moesp", "molesp"):
            assert found == {full_path}, algo
        else:
            assert found <= {full_path}, algo  # pruning may lose the path


def test_tee_graph_molesp_finds_three_leaf_result(tee_abc):
    g, seeds = tee_abc
    results, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert {rt.edges for rt in results} == {(1, 2, 3, 4, 5, 6)}


def test_fig1_molesp_contains_both_worked_trees(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    results, _ = run_search(fig1, seeds, SearchConfig(algorithm="molesp"))
    found = {rt.edges: rt.seed_tuple for rt in results}
    assert found[(9, 10, 11)] == (4, 6, 9)
    assert found[(1, 2, 16, 17)] == (2, 3, 9)


def test_chain_counts_small():
    for n in (1, 2, 3, 4):
        w = gen_chain(n)
        for algo in ("bft", "gam", "molesp"):
            results, _ = run_search(w.graph, w.seeds(), SearchConfig(algorithm=algo))
            assert len(results) == 2**n, (n, algo)


def test_single_seed_set_yields_node_results(fig1):
    results, _ = run_search(fig1, SeedSets([(2, 4)]), SearchConfig(algorithm="molesp"))
    assert {(rt.edges, rt.seed_tuple) for rt in results} == {((), (2,)), ((), (4,))}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_universal_set_ignores_coverage(path_abc, algorithm):
    g, _ = path_abc
    with_universal = SeedSets([(1,), (6,), ()], universal=[False, False, True])
    plain = SeedSets([(1,), (6,)])
    r1, _ = run_search(g, with_universal, SearchConfig(algorithm=algorithm))
    r2, _ = run_search(g, plain, SearchConfig(algorithm=algorithm))
    assert {rt.edges for rt in r1} == {rt.edges for rt in r2}
    assert all(rt.seed_tuple[2] == rt.root == min(rt.nodes) for rt in r1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_universal_set_binds_the_directed_root_under_uni(algorithm):
    # 3 -> 1 and 3 -> 2: node 3 reaches both seeds, so it is the root, not node 1
    g = make_graph(["a", "b", "c"], [(3, 1), (3, 2)])
    seeds = SeedSets([(1,), (2,), ()], universal=[False, False, True])
    results, _ = run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=CtpFilters(uni=True)))
    assert [(rt.edges, rt.seed_tuple, rt.root) for rt in results] == [((1, 2), (1, 2, 3), 3)]


def test_results_are_minimal_without_minimization(six_seed_tree):
    g, seeds = six_seed_tree
    for algo in ("gam", "molesp"):
        results, _ = run_search(g, seeds, SearchConfig(algorithm=algo))
        for rt in results:
            assert minimize(g, rt.edges, seeds) == frozenset(rt.edges), algo


def _filtered_oracle(g, edge_sets, singles, filters):
    """The ``brute_ctp`` results that satisfy the tree-level filters ``UNI``, ``LABEL`` and ``MAX``."""
    kept = {
        es
        for es in edge_sets
        if (not filters.uni or reaches_all(g, es))
        and (filters.labels is None or all(g.edges[e].label in filters.labels for e in es))
        and (filters.max_edges is None or len(es) <= filters.max_edges)
    }
    return oracle_identities(kept, singles)


def test_bft_agrees_with_subset_enumeration_oracle():
    # so do the merging variants, and bft under each tree-level filter
    runs = [("bft", CtpFilters()), ("bft_m", CtpFilters()), ("bft_am", CtpFilters())]
    runs += [("bft", f) for f in (CtpFilters(uni=True), CtpFilters(labels=frozenset({"a"})), CtpFilters(max_edges=3))]
    rng = random.Random(4242)
    for _ in range(30):
        m = rng.choice([2, 2, 3])
        g, seeds = gen_random_instance(rng, max_nodes=7, max_edges=11, n_labels=2, m=m, max_set_size=2)
        edge_sets, singles = brute_ctp(g, seeds)
        for algo, filters in runs:
            results, _ = run_search(g, seeds, SearchConfig(algorithm=algo, filters=filters))
            assert result_identities(results) == _filtered_oracle(g, edge_sets, singles, filters), (algo, filters)


@pytest.mark.parametrize("algorithm", ["bft", "bft_m", "bft_am"])
def test_generation_search_minimizes_only_what_it_reports(monkeypatch, algorithm):
    # a full-cover tree with a leaf that is no seed is skipped, not minimized:
    # its minimization is generated and reported on its own
    calls = []
    monkeypatch.setattr(search, "minimize", lambda *a: calls.append(a) or minimize(*a))
    built = []
    gen_tree = search._GenTree
    monkeypatch.setattr(search, "_GenTree", lambda *fields: built.append(gen_tree(*fields)) or built[-1])
    rng = random.Random(3131)
    reported = full_cover = 0
    for _ in range(15):
        g, seeds = gen_random_instance(rng, max_nodes=10, max_edges=15, n_labels=2, m=rng.choice([2, 3]))
        calls.clear()
        built.clear()
        results, stats = run_search(g, seeds, SearchConfig(algorithm=algorithm))
        assert len(calls) == len(results) == stats.results_found
        reported += len(results)
        full_cover += len({t.key for t in built if t.covered == seeds.full_mask})
    # the instances do keep full-cover trees that are not minimal
    assert full_cover > reported > 0


def test_molesp_complete_on_random_m3_sample():
    rng = random.Random(515)
    for _ in range(40):
        m = rng.choice([2, 3])
        g, seeds = gen_random_instance(rng, max_nodes=10, max_edges=16, n_labels=3, m=m, max_set_size=2)
        baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
        found, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
        assert result_identities(found) == result_identities(baseline)


def test_molesp_complete_under_largest_first_order(monkeypatch):
    monkeypatch.setattr(search, "_priority", lambda t, e: (-len(t.key), t.key, t.root, e))
    rng = random.Random(616)
    for _ in range(25):
        g, seeds = gen_random_instance(rng, max_nodes=9, max_edges=14, n_labels=3, m=3, max_set_size=2)
        baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
        found, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
        assert result_identities(found) == result_identities(baseline)


def test_multi_queue_mode_changes_nothing_semantically(fig1):
    for seeds in (SeedSets([tuple(range(1, 11)), (11,)]), SeedSets([tuple(range(1, 11)), (11,), (9,)])):
        assert init_search(fig1, seeds, SearchConfig(algorithm="molesp")).multi_queue
        baseline, _ = run_search(fig1, seeds, SearchConfig(algorithm="bft"))
        found, _ = run_search(fig1, seeds, SearchConfig(algorithm="molesp"))
        assert result_identities(found) == result_identities(baseline)


def test_multi_queue_engages_automatically_on_skewed_sets(fig1):
    skewed = SeedSets([tuple(range(1, 11)), (11,)])
    state = init_search(fig1, skewed, SearchConfig(algorithm="molesp"))
    assert state.multi_queue
    even = SeedSets([(2, 4), (3, 6)])
    state2 = init_search(fig1, even, SearchConfig(algorithm="molesp"))
    assert not state2.multi_queue


def test_timeout_is_flagged_and_partial():
    w = gen_chain(18)
    results, stats = run_search(
        w.graph, w.seeds(), SearchConfig(algorithm="molesp", filters=CtpFilters(timeout_ms=1))
    )
    assert stats.timed_out
    assert len(results) < 2**18


def test_determinism_results_and_stats(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    for algo in ALGORITHMS:
        cfg = SearchConfig(algorithm=algo)
        r1, s1 = run_search(fig1, seeds, cfg)
        r2, s2 = run_search(fig1, seeds, cfg)
        assert r1 == r2 and s1 == s2, algo


# ---------------------------------------------------------------------------
# scores and guarantees


def test_score_topk(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    results, _ = run_search(fig1, seeds, SearchConfig(algorithm="molesp"))
    top2 = apply_score_topk(results, CtpFilters(score="edgecount", top_k=2), fig1)
    sizes = sorted(len(rt.edges) for rt in results)
    assert [len(rt.edges) for rt in top2] == sizes[:2]
    assert all(rt.score == -len(rt.edges) for rt in top2)
    assert apply_score_topk(results, CtpFilters(), fig1) == results
    assert all(rt.score is None for rt in results)
    three = results[:3]
    assert len(apply_score_topk(three, CtpFilters(score="unit", top_k=10), fig1)) == 3
    with pytest.raises(ValueError, match="unknown score"):
        apply_score_topk(results, CtpFilters(score="nope"), fig1)


def test_score_applied_inside_run_search(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    cfg = SearchConfig(algorithm="molesp", filters=CtpFilters(score="edgecount", top_k=1))
    results, _ = run_search(fig1, seeds, cfg)
    assert len(results) == 1 and results[0].edges == (9, 10, 11)


def test_guaranteed_found_classes(path_abc, tee_abc, six_seed_tree):
    g3, s3 = path_abc
    path_cls = classify_result(g3, (1, 2, 3, 4, 5), s3)
    gt, st = tee_abc
    tee_cls = classify_result(gt, (1, 2, 3, 4, 5, 6), st)
    g6, s6 = six_seed_tree
    six_cls = classify_result(g6, (1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 16), s6)
    assert guaranteed_found("bft", 5, six_cls)
    assert guaranteed_found("gam", 5, six_cls)
    assert guaranteed_found("esp", 2, path_cls) and not guaranteed_found("esp", 3, path_cls)
    assert guaranteed_found("moesp", 3, path_cls)  # a path is two-leaf piecewise
    assert guaranteed_found("moesp", 6, six_cls)
    assert not guaranteed_found("moesp", 3, tee_cls)
    assert guaranteed_found("lesp", 3, tee_cls)  # single spider piece
    assert not guaranteed_found("lesp", 6, six_cls)
    assert guaranteed_found("molesp", 3, tee_cls)
    assert guaranteed_found("molesp", 6, six_cls)  # every piece is a spider


def test_guarantees_hold_on_counterexample_shapes(four_seed_cross):
    g, seeds = four_seed_cross
    baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
    assert len(baseline) == 1
    cls = classify_result(g, baseline[0].edges, seeds)
    # one piece with two branch nodes: outside every pruning guarantee
    assert len(cls.pieces) == 1 and not cls.all_spiders and cls.max_piece_leaves == 4
    assert not guaranteed_found("molesp", seeds.m, cls)
    found, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
    assert result_identities(found) <= result_identities(baseline)


# ---------------------------------------------------------------------------
# pushed filters


def test_pushed_filters_match_post_filtered_baseline():
    rng = random.Random(717)
    for _ in range(25):
        g, seeds = gen_random_instance(rng, max_nodes=10, max_edges=15, n_labels=3, m=rng.choice([2, 3]), max_set_size=2)
        baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
        uni, _ = run_search(g, seeds, SearchConfig(algorithm="molesp", filters=CtpFilters(uni=True)))
        assert result_identities(uni) == post_filter_identities(g, baseline, uni=True)
        labels = frozenset({"a", "b"})
        lab, _ = run_search(g, seeds, SearchConfig(algorithm="molesp", filters=CtpFilters(labels=labels)))
        assert result_identities(lab) == post_filter_identities(g, baseline, labels=labels)
        cap = rng.randint(1, 6)
        capped, _ = run_search(g, seeds, SearchConfig(algorithm="molesp", filters=CtpFilters(max_edges=cap)))
        assert result_identities(capped) == post_filter_identities(g, baseline, max_edges=cap)


def test_invalid_configs(fig1):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_search(fig1, SeedSets([(2,)]), SearchConfig(algorithm="dijkstra"))
    with pytest.raises(SeedSetError, match="not a graph node"):
        run_search(fig1, SeedSets([(99,)]), SearchConfig())
    with pytest.raises(ValueError, match="TOP requires SCORE"):
        run_search(fig1, SeedSets([(2,)]), SearchConfig(filters=CtpFilters(top_k=1)))


def test_lesp_finds_single_spider_results(tee_abc):
    g, seeds = tee_abc
    results, _ = run_search(g, seeds, SearchConfig(algorithm="lesp"))
    assert {rt.edges for rt in results} == {(1, 2, 3, 4, 5, 6)}


def test_batch_score_with_wrong_count_is_an_error():
    from treeq.search import register_score

    register_score("short", lambda results, g: [1.0], batch=True)
    w = gen_chain(3)
    with pytest.raises(ValueError, match=r"score 'short' returned 1 scores for 8 results"):
        run_search(w.graph, w.seeds(), SearchConfig(algorithm="bft", filters=CtpFilters(score="short")))


def test_batch_score_hook(fig1):
    from treeq.search import register_score

    register_score("spread", lambda results, g: [float(len(r.nodes)) for r in results], batch=True)
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    results, _ = run_search(fig1, seeds, SearchConfig(algorithm="molesp"))
    scored = apply_score_topk(results, CtpFilters(score="spread", top_k=1), fig1)
    assert len(scored) == 1
    assert scored[0].score == max(len(r.nodes) for r in results)


def test_overlapping_seed_sets_match_subset_oracle():
    # a node belonging to two sets satisfies both at once
    g = make_graph(["A", "x", "B", "y", "C"], [(1, 2), (2, 3), (3, 4), (4, 5)])
    seeds = SeedSets([(1, 3), (3, 5)])  # node 3 sits in both sets
    from oracles import brute_ctp, oracle_identities

    edge_sets, singles = brute_ctp(g, seeds)
    expected = oracle_identities(edge_sets, singles)
    assert ("node", 3) in expected  # the shared node alone is a result
    for algo in ("bft", "gam", "molesp"):
        results, _ = run_search(g, seeds, SearchConfig(algorithm=algo))
        assert result_identities(results) == expected, algo
    rng = random.Random(9090)
    for _ in range(15):
        g, base = gen_random_instance(rng, max_nodes=9, max_edges=12, n_labels=2, m=2, max_set_size=2)
        shared = min(base.sets[0])
        seeds = SeedSets([base.sets[0], base.sets[1] | {shared}])
        edge_sets, singles = brute_ctp(g, seeds)
        expected = oracle_identities(edge_sets, singles)
        for algo in ("bft", "molesp"):
            results, _ = run_search(g, seeds, SearchConfig(algorithm=algo))
            assert result_identities(results) == expected, algo


def test_moesp_reports_all_path_and_two_leaf_results_any_m():
    # the re-rooting guarantee is independent of the number of seed sets
    rng = random.Random(2468)
    checked = 0
    for i in range(30):
        m = [4, 5, 6][i % 3]
        g, seeds = gen_random_instance(rng, max_nodes=12, max_edges=18, n_labels=3, m=m, max_set_size=2)
        baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
        found = result_identities(run_search(g, seeds, SearchConfig(algorithm="moesp"))[0])
        for rt in baseline:
            cls = classify_result(g, rt.edges, seeds)
            if cls.max_piece_leaves <= 2:
                checked += 1
                assert rt.identity() in found
    assert checked > 0


def test_merging_variants_stay_complete():
    rng = random.Random(1357)
    for _ in range(20):
        g, seeds = gen_random_instance(rng, max_nodes=9, max_edges=13, n_labels=2, m=rng.choice([2, 3]), max_set_size=2)
        baseline = result_identities(run_search(g, seeds, SearchConfig(algorithm="bft"))[0])
        for algo in ("bft_m", "bft_am", "gam"):
            found = result_identities(run_search(g, seeds, SearchConfig(algorithm=algo))[0])
            assert found == baseline, algo


def test_generation_node_bits_follow_the_search_not_the_node_ids(monkeypatch):
    # merge partners are chosen on per-search node bitsets: node ids of 10**12
    # and more must neither change an outcome nor widen the bitsets; every
    # built tree carries one bit per edge and the bits of its non-seed leaves
    built = []
    gen_tree = search._GenTree
    monkeypatch.setattr(search, "_GenTree", lambda *fields: built.append(gen_tree(*fields)) or built[-1])
    rng = random.Random(4242)
    for _ in range(12):
        small, seeds = gen_random_instance(rng, max_nodes=10, max_edges=15, n_labels=2, m=rng.choice([2, 3]))
        big_id = {n: 10**12 + 7919 * n for n in small.nodes}  # increasing, so every order is kept
        small_id = {b: n for n, b in big_id.items()}
        big = Graph(
            [node._replace(id=big_id[node.id]) for node in small.nodes.values()],
            [e._replace(source=big_id[e.source], target=big_id[e.target]) for e in small.edges.values()],
        )
        big_seeds = SeedSets([{big_id[n] for n in s} for s in seeds.sets])
        for algo in ("bft_m", "bft_am"):
            expected, expected_stats = run_search(small, seeds, SearchConfig(algorithm=algo))
            built.clear()
            found, stats = run_search(big, big_seeds, SearchConfig(algorithm=algo))
            assert stats == expected_stats
            relabelled = [
                (rt.edges, tuple(small_id[n] for n in rt.nodes), tuple(small_id[n] for n in rt.seed_tuple),
                 small_id[rt.root])
                for rt in found
            ]
            assert relabelled == [(rt.edges, rt.nodes, rt.seed_tuple, rt.root) for rt in expected]
            reached = len(frozenset().union(*(t.nodes for t in built)))
            bit = {}  # node -> its bit: a tree is built after the trees it grows or merges from
            for t in built:
                assert t.nbits.bit_count() == len(t.nodes) and t.nbits.bit_length() <= reached
                assert t.ebits.bit_count() == len(t.key)
                unknown = [n for n in t.nodes if n not in bit]
                assert len(unknown) <= 1
                if unknown:
                    bit[unknown[0]] = t.nbits & ~sum(bit[n] for n in t.nodes if n in bit)
                degree = dict.fromkeys(t.nodes, 0)
                for eid in t.key:
                    degree[big.edges[eid].source] += 1
                    degree[big.edges[eid].target] += 1
                leaves = [n for n, d in degree.items() if d == 1 and not big_seeds.bits(n)]
                assert t.loose == sum(bit[n] for n in leaves)
