"""Search algorithms: step semantics, pruning, completeness, filters, determinism."""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import pytest

from treeq import search
from treeq.graph import Graph
from treeq.lang import CtpFilters
from treeq.search import ALGORITHMS, SearchConfig, apply_score_topk, guaranteed_found, run_search
from treeq.engine import evaluate_query, plan_query
from treeq.lang import parse_query, validate_query
from treeq.synth import gen_cdf, gen_chain, gen_comb, gen_random_instance, gen_star
from treeq.trees import SeedSetError, SeedSets, classify_result, minimize

from conftest import make_graph, random_suite
from oracles import (
    brute_ctp, dead_nodes, oracle_identities, post_filter_identities, reaches_all, result_identities, set_distances,
)

ROOTED = ("gam", "esp", "moesp", "lesp", "molesp")


class _Trace:
    """Records rooted search through the names ``_rooted_search`` looks up
    when it runs: every tree it builds (``_new_rooted_tree``), every grow
    pair it queues (``heappush``) and every pair it pops (``heappop``, with
    the queue it came from), in order."""

    def __init__(self, monkeypatch):
        self.events: list[tuple] = []
        tree, push, pop = search._new_rooted_tree, search.heappush, search.heappop

        def built(fields):
            t = tree(fields)
            self.events.append(("built", t))
            return t

        def queued(queue, entry):
            self.events.append(("queued", queue, entry))
            push(queue, entry)

        def popped(queue):
            entry = pop(queue)
            self.events.append(("popped", entry, queue))
            return entry

        monkeypatch.setattr(search, "_new_rooted_tree", built)
        monkeypatch.setattr(search, "heappush", queued)
        monkeypatch.setattr(search, "heappop", popped)

    def run(self, g, seeds, algorithm, **filters):
        self.events.clear()
        self.seeds = seeds
        return run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=CtpFilters(**filters)))

    @property
    def built(self):
        return [ev[1] for ev in self.events if ev[0] == "built"]

    @property
    def queued(self):
        """``(tree, edge)`` of every queued grow pair."""
        return [(ev[2][4], ev[2][3]) for ev in self.events if ev[0] == "queued"]

    def queued_edges(self, key, root):
        return [e for t, e in self.queued if (t.key, t.root) == (key, root)]

    @property
    def steps(self):
        """``(tree, edge, grown tree or None when pruned)`` of every pop: the
        grown tree is the first tree built after the pop."""
        steps = []
        for i, ev in enumerate(self.events):
            if ev[0] == "popped":
                nxt = next((later for later in self.events[i + 1 :] if later[0] != "queued"), None)
                grown = nxt[1] if nxt is not None and nxt[0] == "built" else None
                steps.append((ev[1][4], ev[1][3], grown))
        return steps

    def position(self, t):
        """The index of ``t`` itself (not of an equal tree) among the built trees."""
        return next(i for i, b in enumerate(self.built) if b is t)

    def later_trees(self):
        """``(index, tree)`` of the built trees that are neither start trees nor grown."""
        grown = [id(t) for _, _, t in self.steps if t is not None]
        return [(i, t) for i, t in enumerate(self.built) if t.key and id(t) not in grown]

    def copies(self):
        """The re-rooted copies: later trees whose edge set was built before.

        Only valid where no merge tree is spared (no spare under ``gam``,
        ``esp`` and ``moesp``; none either without three seed sets meeting
        at a node of degree three or more).
        """
        built = self.built
        return [t for i, t in self.later_trees() if any(p.key == t.key for p in built[:i])]

    def merge_inputs(self, i):
        """Two trees recorded before ``built[i]`` at its root whose merge it is, or None."""
        t, full = self.built[i], self.seeds.full_mask
        here = [p for p in self.built[:i] if p.root == t.root and p.key and p.covered != full]
        for a, p1 in enumerate(here):
            for p2 in here[a + 1 :]:
                if (
                    tuple(sorted(p1.key + p2.key)) == t.key
                    and p1.nodes & p2.nodes == {t.root}
                    and p1.nodes | p2.nodes == t.nodes
                ):
                    return p1, p2
        return None


def _check_trace(trace, g, seeds, algorithm, **filters):
    """Run the search and check every tree it built against the step rules."""
    results, stats = trace.run(g, seeds, algorithm, **filters)
    built, bits, full = trace.built, seeds.node_bits.get, seeds.full_mask
    assert len(built) == stats.provenances_built
    max_edges, labels = filters.get("max_edges"), filters.get("labels")
    for t in built:
        # a tree: connected by its edges, with one node more than edges
        reached, frontier = {t.root}, [t.root]
        while frontier:
            n = frontier.pop()
            for e in t.key:
                _, source, target, _ = g.edges[e]
                far = target if source == n else source if target == n else None
                if far is not None and far not in reached:
                    reached.add(far)
                    frontier.append(far)
        assert reached == t.nodes and len(t.nodes) == len(t.key) + 1
        # one seed of each covered set and no other
        assert sum(bits(n, 0).bit_count() for n in t.nodes) == t.covered.bit_count()
        assert max_edges is None or len(t.key) <= max_edges
        assert labels is None or all(g.edges[e].label in labels for e in t.key)
    for i, t in trace.later_trees():
        inputs = trace.merge_inputs(i)
        if inputs is None or not t.gained:  # a re-rooted copy of a tree whose step gained a set
            assert algorithm in ("moesp", "molesp") and bits(t.root) and not t.gained and t.path_anchor is None
            assert any(p.key == t.key and p.nodes == t.nodes and p.gained and p.root != t.root for p in built[:i])
            continue
        p1, p2 = inputs
        assert t.covered == p1.covered | p2.covered
        assert (p1.covered & p2.covered) & ~bits(t.root, 0) == 0
        assert t.gained == (t.covered.bit_count() > max(p1.covered.bit_count(), p2.covered.bit_count()))
    assert {(t.key, tuple(sorted(t.nodes))) for t in built if t.covered == full} == {
        (rt.edges, rt.nodes) for rt in results
    }
    return results, stats


def _random_instances(rng_seed, count, m_choices=(2, 3)):
    rng = random.Random(rng_seed)
    for _ in range(count):
        yield gen_random_instance(rng, max_nodes=9, max_edges=13, n_labels=2, m=rng.choice(m_choices), max_set_size=2)


# ---------------------------------------------------------------------------
# start trees


def test_init_creates_one_tree_per_seed(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "molesp")
    starts = [t for t in trace.built if not t.key]
    assert [(t.root, t.nodes, t.covered, t.path_anchor) for t in starts] == [
        (1, {1}, 0b001, 1), (4, {4}, 0b010, 4), (6, {6}, 0b100, 6)
    ]
    assert trace.built[:3] == starts  # built before any grow step
    # queued grow pairs: one for A, two for B, one for C
    assert sorted((t.root, e) for t, e in trace.queued if not t.key) == [(1, 1), (4, 3), (4, 4), (6, 5)]


def test_init_same_node_in_two_sets_is_a_result(path_abc, monkeypatch):
    g, _ = path_abc
    seeds = SeedSets([(1,), (1,)])
    trace = _Trace(monkeypatch)
    (rt,), _ = trace.run(g, seeds, "molesp")
    assert [(t.key, t.root, t.covered) for t in trace.built] == [((), 1, 0b11)]
    assert trace.queued == []  # a result is never grown
    assert rt.edges == () and rt.seed_tuple == (1, 1)


def test_init_skips_universal_sets(path_abc, monkeypatch):
    g, _ = path_abc
    seeds = SeedSets([(1,), ()], universal=[False, True])
    trace = _Trace(monkeypatch)
    (rt,), _ = trace.run(g, seeds, "molesp")
    assert [(t.key, t.root) for t in trace.built] == [((), 1)]  # the single start tree is a result
    assert trace.queued == []
    assert rt.seed_tuple == (1, 1)  # the universal set is represented by the root


def test_all_universal_rejected(path_abc):
    g, _ = path_abc
    seeds = SeedSets([(), ()], universal=[True, True])
    for algorithm in ("molesp", "bft"):
        with pytest.raises(SeedSetError):
            run_search(g, seeds, SearchConfig(algorithm=algorithm))


# ---------------------------------------------------------------------------
# grow steps


def test_grow_b_with_adjacent_edge(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "molesp")
    ((init_b, grown),) = [(t, new) for t, e, new in trace.steps if (t.key, t.root, e) == ((), 4, 4)]  # B -> "3"
    assert grown == ((4,), 5, frozenset({4, 5}), init_b.covered, 4, False)


def test_grow_rejects_node_already_in_tree(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "molesp")
    assert trace.queued_edges((1,), 2) == [2]  # edge 1 leads back to A


def test_grow_rejects_seed_from_covered_set(path_abc, monkeypatch):
    g, _ = path_abc
    trace = _Trace(monkeypatch)
    # B and C in one set: node 5 lies on a chain between them, so no tree holds it
    trace.run(g, SeedSets([(1,), (4, 6)]), "molesp")
    assert trace.built and not any(5 in t.nodes for t in trace.built)
    # a copy where 5 has a third live neighbour, a seed C' of the same set
    forked = make_graph(["A", "1", "2", "B", "3", "C", "C'"], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)])
    seeds = SeedSets([(1,), (4, 6, 7)])  # B, C and C' in one set
    trace.run(forked, seeds, "molesp")
    assert ((4,), 5, frozenset({4, 5}), 0b10) in [t[:4] for t in trace.built]  # holds B
    assert trace.queued_edges((4,), 5) == []  # edges 5 and 6 would reach C and C', same set


def test_grow_respects_max_edges_and_labels(path_abc, monkeypatch):
    # x(1) with seeds A(2), B(3), C(4) around it: the one result has 3 edges
    star = make_graph(["x", "A", "B", "C"], [(2, 1), (3, 1), (4, 1)])
    trace = _Trace(monkeypatch)
    for algorithm in ROOTED:
        trace.run(star, SeedSets([(2,), (3,), (4,)]), algorithm, max_edges=2)
        # every set lies one hop from x, so the bound lets each first edge through
        assert {(t.key, t.root) for t in trace.built if len(t.key) == 1} == {((1,), 1), ((2,), 1), ((3,), 1)}
        # two of them merge at x into trees of MAX 2 edges that are no result and grow no further
        assert any(len(t.key) == 2 for t in trace.built), algorithm
        assert trace.queued and all(len(t.key) < 2 for t, _ in trace.queued), algorithm
    g, seeds = path_abc
    for algorithm in ROOTED:
        # the one result has 5 edges, and a tree of one edge is 3 or more hops from some set
        trace.run(g, seeds, algorithm, max_edges=2)
        assert all(not t.key for t in trace.built), algorithm
    # from x(3), A is 2 hops away and C 3: gam skips B-x under MAX 3; the
    # re-rooting variants let it through, since B itself is 2 hops from C
    trace.run(g, seeds, "gam", max_edges=3)
    assert all(not t.key for t in trace.built)
    trace.run(g, seeds, "molesp", max_edges=3)
    assert [(t.key, t.root) for t in trace.built if t.key] == [((3,), 3)]
    trace.run(g, seeds, "molesp", labels=frozenset({"zzz"}))
    assert trace.queued == []
    assert all(not t.key for t in trace.built)


def test_grow_never_applies_to_rerooted_trees(path_abc, monkeypatch):
    g, seeds = path_abc
    assert max(g.degree(n) for n in g.nodes) < 3  # no merge tree is spared
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "molesp")
    copies, steps = trace.copies(), trace.steps
    assert copies and steps
    assert not any(t is c for t, _, _ in steps for c in copies)
    # each copy is filed at a seed of the tree it copies, never as a result
    assert all(c.root in seeds.node_bits and c.root in c.nodes and c.covered != seeds.full_mask for c in copies)


# ---------------------------------------------------------------------------
# merge steps


def test_merge_at_shared_root(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _check_trace(trace, g, seeds, "molesp")
    merged = ((4, 5), 5, frozenset({4, 5, 6}), 0b110, None, True)  # B-3 and C-3, both rooted "3"
    i = trace.built.index(merged)
    assert {(t.key, t.root) for t in trace.merge_inputs(i)} == {((4,), 5), ((5,), 5)}


def test_merge_rejects_different_roots(monkeypatch):
    # every merge tree is the union of two trees recorded at its own root
    trace = _Trace(monkeypatch)
    for g, seeds in _random_instances(8080, 12):
        for algorithm in ROOTED:
            _check_trace(trace, g, seeds, algorithm)


def test_merge_rejects_two_seeds_from_one_set(path_abc, monkeypatch):
    g, _ = path_abc
    seeds = SeedSets([(1, 6), (4,)])
    trace = _Trace(monkeypatch)
    for algorithm in ROOTED:
        results, _ = _check_trace(trace, g, seeds, algorithm)
        assert not any({1, 6} <= t.nodes for t in trace.built), algorithm  # A and C share a set
        assert {rt.edges for rt in results} == {(1, 2, 3), (4, 5)}, algorithm


def test_merge_allows_overlap_through_shared_seed_root(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _check_trace(trace, g, seeds, "gam")
    # A-1-2-B and B-3-C, both rooted B: one B seed, shared through the root
    i = [(t.key, t.root) for t in trace.built].index(((1, 2, 3, 4, 5), 4))
    p1, p2 = trace.merge_inputs(i)
    assert {(p1.key, p1.covered), (p2.key, p2.covered)} == {((1, 2, 3), 0b011), ((4, 5), 0b110)}
    assert trace.built[i].covered == 0b111


def test_merge_rejects_extra_shared_nodes(fig1, monkeypatch):
    # fig1 has cycles, so trees at one root often share nodes besides it;
    # _check_trace finds every built tree to be a tree
    trace = _Trace(monkeypatch)
    for algorithm in ROOTED:
        _check_trace(trace, fig1, SeedSets([(2, 4), (3, 6), (9,)]), algorithm)
        assert trace.later_trees(), algorithm


def test_merge_partners_filter_recorded_trees_in_record_order(monkeypatch):
    # star around x = node 1; edge i joins leaf i + 1 to x. The start trees
    # grow to x in node order, so the trees recorded at x before A's are
    # B2 (rec 1), C3 (2), B2C3 (3), B4 (4), C3B4 (5): record order is not
    # the order of their covered-mask buckets
    g = make_graph(["x", "B", "C", "B", "A"], [(2, 1), (3, 1), (4, 1), (5, 1)])
    seeds = SeedSets([(5,), (2, 4), (3,)])
    trace = _Trace(monkeypatch)
    for max_edges, expected in ((None, [(1, 4), (2, 4), (1, 2, 4), (3, 4), (2, 3, 4)]), (2, [(1, 4), (2, 4), (3, 4)])):
        _check_trace(trace, g, seeds, "gam", max_edges=max_edges)
        keys = [t.key for t in trace.built]
        after_a = trace.built[keys.index((4,)) + 1 :][: len(expected)]
        assert [t.key for t in after_a] == expected, max_edges
        assert all(t.root == 1 for t in after_a)


def test_merge_covered_algebra(fig1, monkeypatch):
    # _check_trace: a merge tree covers the union of its inputs' sets, which
    # overlap only in the root's own seed bits, and gains when the union is larger
    trace = _Trace(monkeypatch)
    for seeds in (SeedSets([(2, 4), (3, 6), (9,)]), SeedSets([(2, 3), (3, 6), (9, 2)])):
        for algorithm in ROOTED:
            _check_trace(trace, fig1, seeds, algorithm)


def test_skipped_merges_had_no_partner(fig1, tee_abc, monkeypatch):
    # a grown tree is merged only when its root holds a bucket besides its
    # own (or it covers no set outside the root): every tree recorded at the
    # root before it that passes the clash test, shares only the root and
    # fits MAX still has the union of their edge sets built, now or earlier
    trace = _Trace(monkeypatch)
    fig1_seeds = SeedSets([(2, 4), (3, 6), (9,)])
    cases = [(fig1, fig1_seeds), tee_abc, *_three_set_seeds(), *_random_instances(2727, 20, m_choices=(2, 3, 4))]
    runs = [(g, seeds, {}) for g, seeds in cases] + [(fig1, fig1_seeds, {"max_edges": 4})]
    skipped = partnered = 0
    for g, seeds, filters in runs:
        max_edges = filters.get("max_edges")
        bits, full = seeds.node_bits.get, seeds.full_mask
        for algorithm in ROOTED:
            trace.run(g, seeds, algorithm, **filters)
            built = trace.built
            keys = {t.key for t in built}
            for _, _, t in trace.steps:
                if t is None or t.covered == full:
                    continue
                i = trace.position(t)
                earlier = [p for p in built[:i] if p.root == t.root and p.covered != full]
                clash = t.covered & ~bits(t.root, 0)
                passing = [p for p in earlier if not p.covered & clash]
                if not passing and all(p.covered == t.covered for p in earlier):
                    skipped += 1  # only its own bucket, which it clashes with
                for p in passing:
                    if p.key and p.nodes & t.nodes == {t.root} and (
                        max_edges is None or len(p.key) + len(t.key) <= max_edges
                    ):
                        partnered += 1
                        assert tuple(sorted(p.key + t.key)) in keys, (algorithm, t, p)
    # the rule engages, and the check has merges to look at
    assert skipped > 0 and partnered > 0


# ---------------------------------------------------------------------------
# deduplication


def test_edge_set_pruning_discards_second_root(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    for algorithm in ("gam", "esp", "moesp"):
        trace.run(g, seeds, algorithm)
        copies = trace.copies() if algorithm == "moesp" else []
        keys = [t.key for t in trace.built if t.key and not any(t is c for c in copies)]
        if algorithm == "gam":
            # B-3-C grown to "3", to C and to B: one edge set under three roots
            assert sorted(t.root for t in trace.built if t.key == (4, 5)) == [4, 5, 6]
        else:
            assert len(keys) == len(set(keys)), algorithm


def _spared(trace):
    """The merge trees built over an edge set that was built before (copies have no gain)."""
    built = trace.built
    return [
        t for i, t in trace.later_trees()
        if t.gained and any(p.key == t.key for p in built[:i]) and trace.merge_inputs(i)
    ]


def _three_set_seeds():
    """Graphs where a node sits in three seed sets: its own sets fill its signature."""
    pairs1 = [(2, 3), (5, 4), (6, 5), (1, 5), (1, 4), (3, 5), (2, 7), (6, 4), (5, 7), (4, 7), (6, 2), (2, 6)]
    pairs2 = [(6, 7), (7, 1), (7, 3), (5, 2), (1, 4), (4, 1), (1, 2), (3, 4), (5, 4), (4, 2)]
    g1 = make_graph(["n"] * 7, pairs1 + [(2, 5), (4, 6)])
    g2 = make_graph(["n"] * 7, pairs2)
    return [
        (g1, SeedSets([(1, 4), (1, 4), (1, 4), (5,), (3,)])),
        (g2, SeedSets([(4, 6), (4,), (4,), (1,), (7,), (5,)])),
    ]


def test_spare_condition_rescues_merge_trees(monkeypatch):
    # a spider at x(3): A(2) -> 1(4) -> x, B(5) -> x and x -> C(1). The path
    # A-1-x-B is built at another root first, and its merge at x is spared
    g = make_graph(["C", "A", "x", "1", "B"], [(5, 3), (2, 4), (4, 3), (3, 1)])
    seeds = SeedSets([(2,), (5,), (1,)])
    trace = _Trace(monkeypatch)
    for algorithm, spares in (("lesp", True), ("molesp", True), ("esp", False), ("moesp", False)):
        _check_trace(trace, g, seeds, algorithm)
        spared = _spared(trace)
        assert [(t.key, t.root) for t in spared] == ([((1, 2, 3), 3)] if spares else []), algorithm
        # only at x, where paths from A, B and C meet and three edges touch
        assert all(t.root == 3 for t in spared) and g.degree(3) >= 3
    # node 4 is a seed of three sets: no path marks it, its own sets do
    g, seeds = _three_set_seeds()[1]
    _check_trace(trace, g, seeds, "molesp")
    assert 4 in {t.root for t in _spared(trace)} and g.degree(4) >= 3


def test_each_edge_set_is_built_at_most_once_per_root(path_abc, tee_abc, six_seed_tree, four_seed_cross, fig1,
                                                      monkeypatch):
    # a spared merge never rebuilds a tree, a result included, at a root its
    # edge set was already built or copied at
    trace = _Trace(monkeypatch)
    cases = [path_abc, tee_abc, six_seed_tree, four_seed_cross, (fig1, SeedSets([(2, 4), (3, 6), (9,)]))]
    cases += [*_three_set_seeds(), *_random_instances(9191, 20, m_choices=(3, 4))]
    for g, seeds in cases:
        for algorithm in ROOTED:
            trace.run(g, seeds, algorithm)
            rooted = [(t.key, t.root) for t in trace.built]
            assert len(rooted) == len(set(rooted)), algorithm


def test_spare_needs_enough_signature_bits():
    # with two seed sets no node is reached from three sets, so nothing is spared
    for g, seeds in _random_instances(5151, 20, m_choices=(2,)):
        for spared, plain in (("lesp", "esp"), ("molesp", "moesp")):
            assert run_search(g, seeds, SearchConfig(algorithm=spared)) == run_search(
                g, seeds, SearchConfig(algorithm=plain)
            )


def test_grow_trees_never_spared(tee_abc, monkeypatch):
    trace = _Trace(monkeypatch)
    cases = [tee_abc, *_three_set_seeds(), *_random_instances(6161, 12, m_choices=(3,))]
    for g, seeds in cases:
        for algorithm in ("lesp", "molesp"):
            trace.run(g, seeds, algorithm)
            built = trace.built
            for _, _, grown in trace.steps:
                if grown is not None:
                    assert all(p.key != grown.key for p in built[: trace.position(grown)])


def test_first_tree_over_any_edge_set_is_new(monkeypatch):
    # a grow step is pruned exactly when its edge set (with its root under gam) was built before
    trace = _Trace(monkeypatch)
    for g, seeds in _random_instances(7171, 10):
        for algorithm in ROOTED:
            trace.run(g, seeds, algorithm)
            seen: set = set()
            steps = iter(trace.steps)
            for ev in trace.events:
                if ev[0] == "built":
                    seen.add(ev[1].key if algorithm != "gam" else (ev[1].key, ev[1].root))
                elif ev[0] == "popped":
                    t, e, grown = next(steps)
                    key = tuple(sorted(t.key + (e,)))
                    assert (grown is None) is ((key if algorithm != "gam" else (key, ev[1][5])) in seen)


def test_rooted_search_builds_only_trees_that_survive_deduplication(monkeypatch):
    # every tree built is counted in provenances_built: a pruned grow step or
    # merge product is rejected on its edge set before anything is built
    trace = _Trace(monkeypatch)
    w = gen_chain(10)
    _, stats = trace.run(w.graph, SeedSets([(1,), (10,)]), "molesp")
    assert stats.trees_pruned == 4608  # chain10_span9 in test_search_pins
    assert len(trace.built) == stats.provenances_built
    pruned_steps = [t for t, _, grown in trace.steps if grown is None]
    assert 0 < len(pruned_steps) < stats.trees_pruned  # the rest are merge products


# ---------------------------------------------------------------------------
# recording, re-rooted copies, merge fixpoint


def test_reroot_copies_created_at_new_seeds(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _check_trace(trace, g, seeds, "moesp")
    built = trace.built
    i = [(t.key, t.root) for t in built].index(((4, 5), 5))
    merged = built[i]
    # the merge gained set C over B-3 and set B over 3-C: copies at both other seeds
    assert merged.gained
    assert [(c.key, c.root) for c in built[i + 1 : i + 3]] == [((4, 5), 4), ((4, 5), 6)]
    assert all(c.nodes == merged.nodes and c.covered == merged.covered for c in built[i + 1 : i + 3])
    assert all(any(c is t for t in built[i + 1 : i + 3]) for c in trace.copies() if c.key == (4, 5))


def test_no_reroot_without_seed_gain(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _check_trace(trace, g, seeds, "moesp")
    a1 = next(t for t in trace.built if (t.key, t.root) == ((1,), 2))  # A-1, no new seed
    assert not a1.gained
    assert [t.root for t in trace.built if t.key == (1,)] == [2]
    # every copy repeats a tree whose step gained a set
    built = trace.built
    assert trace.copies()
    for c in trace.copies():
        assert any(p.key == c.key and p.gained for p in built[: trace.position(c)])


def test_no_reroot_under_plain_esp(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _check_trace(trace, g, seeds, "esp")
    assert ((4, 5), 5, frozenset({4, 5, 6}), 0b110, None, True) in trace.built  # a gained merge
    assert trace.copies() == []


def test_process_tree_outcomes(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    results, _ = _check_trace(trace, g, seeds, "molesp")
    full = [t for t in trace.built if t.covered == seeds.full_mask]
    assert [t.key for t in full] == [(1, 2, 3, 4, 5)]
    assert [rt.edges for rt in results] == [(1, 2, 3, 4, 5)]
    assert not any(t is full[0] for t, _ in trace.queued)  # results are never grown


def test_process_tree_reports_only_trees_covering_every_set(fig1, monkeypatch):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    trace = _Trace(monkeypatch)
    results, _ = _check_trace(trace, fig1, seeds, "gam")
    assert ((9, 10, 11), (4, 6, 7, 9)) in {(rt.edges, rt.nodes) for rt in results}
    assert trace.queued and all(t.covered != seeds.full_mask for t, _ in trace.queued)
    results, _ = _check_trace(trace, fig1, SeedSets([(2,)]), "gam")
    assert [(rt.edges, rt.nodes) for rt in results] == [((), (2,))]  # a start tree can cover every set
    assert trace.queued == []


def test_pruned_grow_step_builds_nothing_and_is_counted(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    _, stats = trace.run(g, seeds, "molesp")
    seen: set = set()
    steps = iter(trace.steps)
    pruned = 0
    for ev in trace.events:
        if ev[0] == "built":
            seen.add(ev[1].key)
        elif ev[0] == "popped":
            t, e, grown = next(steps)
            if grown is None:  # nothing was built before the next pop
                pruned += 1
                assert tuple(sorted(t.key + (e,))) in seen
    # four grow steps and one merge are pruned on path_abc
    assert (pruned, stats.trees_pruned) == (4, 5)


def test_rerooted_trees_are_not_enqueued(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "moesp")
    copies = trace.copies()
    assert copies and trace.queued
    assert not any(t is c for t, _ in trace.queued for c in copies)


def test_merge_all_with_no_partners_is_noop(path_abc, monkeypatch):
    g, seeds = path_abc
    trace = _Trace(monkeypatch)
    trace.run(g, seeds, "molesp")
    # A-1 is the first grown tree and nothing is recorded at "1" yet: after
    # queueing its grow pairs, the search pops the next pair
    i = next(i for i, ev in enumerate(trace.events) if ev[0] == "built" and ev[1].key)
    assert (trace.events[i][1].key, trace.events[i][1].root) == ((1,), 2)
    after = [ev[0] for ev in trace.events[i + 1 :]]
    assert after[: after.index("popped")] == ["queued"]


def _raises_seed_set_error(call):
    try:
        call()
    except SeedSetError:
        return
    raise AssertionError("no SeedSetError")


def test_search_leaves_no_cyclic_garbage(fig1):
    # a search that left reference cycles would hand the collector its whole
    # state; run_search and evaluate_query keep the collector off while they
    # run, so such cycles would pile up until it ran again
    chain6, chain14 = gen_chain(6), gen_chain(14)
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    skewed = SeedSets([tuple(range(1, 11)), (11,)])  # one queue per covered mask
    filtered = (
        CtpFilters(uni=True),
        CtpFilters(labels=frozenset({"founded", "investsIn", "citizenOf"})),
        CtpFilters(max_edges=3),
        CtpFilters(score="edgecount", top_k=2),
    )
    cases = {}
    for algorithm in ALGORITHMS:
        for name, g, s, filters in [
            ("fig1", fig1, seeds, CtpFilters()),
            ("chain6", chain6.graph, chain6.seeds(), CtpFilters()),
            *((f"fig1 {f}", fig1, seeds, f) for f in filtered),
        ]:
            cases[name, algorithm] = partial(run_search, g, s, SearchConfig(algorithm, filters))
    for algorithm in ("bft_m", "bft_am", "molesp"):
        cfg = SearchConfig(algorithm, CtpFilters(timeout_ms=5))
        cases["chain14 deadline", algorithm] = lambda cfg=cfg: run_search(chain14.graph, chain14.seeds(), cfg)[1].timed_out
    for algorithm in ROOTED:
        cases["fig1 skewed", algorithm] = partial(run_search, fig1, skewed, SearchConfig(algorithm))
    cases["no graph node", "molesp"] = partial(_raises_seed_set_error, partial(run_search, fig1, SeedSets([(2,), (99,)]), SearchConfig()))
    for w in (gen_cdf(2, 8, 16, 3, 1), gen_cdf(3, 4, 8, 3, 1)):  # the m=3 query is under UNI
        cases[f"cdf m={w.parameters['m']}", "query"] = partial(evaluate_query, w.graph, parse_query(w.query_text))
    # each case's check walks only what the case allocated: what lived before
    # it is frozen out of the collector's reach
    try:
        for case, call in cases.items():
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                assert call() is not False, case  # each deadline case does hit its deadline
                assert gc.collect() == 0, case
            finally:
                gc.enable()
    finally:
        gc.unfreeze()


def test_searches_pause_the_cyclic_collector(fig1):
    w = gen_cdf(2, 24, 48, 3, 1)
    query = parse_query(w.query_text)
    started_inside = []

    def started(phase, info):
        # a collection starts at an allocation; a frame of treeq below this
        # callback means that allocation was made inside the query
        f = sys._getframe(1)
        while f is not None and not f.f_globals.get("__name__", "").startswith("treeq."):
            f = f.f_back
        if phase == "start" and f is not None:
            started_inside.append(info["generation"])

    gc.callbacks.append(started)
    try:
        ((_, seeds, cfg),) = plan_query(w.graph, validate_query(query)).searches
        run_search(w.graph, seeds, cfg)
        evaluate_query(w.graph, query)
    finally:
        gc.callbacks.remove(started)
    assert started_inside == []
    assert gc.isenabled()

    with pytest.raises(SeedSetError):
        run_search(fig1, SeedSets([(99,)]), SearchConfig())
    assert gc.isenabled()
    with pytest.raises(ValueError):
        evaluate_query(fig1, query, algorithm="dijkstra")
    assert gc.isenabled()

    gc.disable()
    try:
        run_search(fig1, SeedSets([(2, 4), (3, 6)]), SearchConfig())
        evaluate_query(w.graph, query)
        assert not gc.isenabled()
    finally:
        gc.enable()

    chain = gen_chain(6)
    done = []

    def searches():
        for _ in range(20):
            done.append(len(run_search(chain.graph, chain.seeds(), SearchConfig())[0]))

    threads = [threading.Thread(target=searches) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [64] * 80
    assert gc.isenabled()


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
    # so do the merging variants, with and without each tree-level filter
    filters = (
        CtpFilters(),
        CtpFilters(uni=True),
        CtpFilters(labels=frozenset({"a"})),
        CtpFilters(max_edges=3),
        CtpFilters(uni=True, max_edges=3),
        CtpFilters(uni=True, labels=frozenset({"a"})),
    )
    runs = [(algo, f) for algo in ("bft", "bft_m", "bft_am") for f in filters]
    rng = random.Random(4242)
    for _ in range(30):
        m = rng.choice([2, 2, 3])
        g, seeds = gen_random_instance(rng, max_nodes=7, max_edges=11, n_labels=2, m=m, max_set_size=2)
        edge_sets, singles = brute_ctp(g, seeds)
        for algo, filters in runs:
            results, _ = run_search(g, seeds, SearchConfig(algorithm=algo, filters=filters))
            assert result_identities(results) == _filtered_oracle(g, edge_sets, singles, filters), (algo, filters)
            if filters.uni:
                # the root is the one tree node that no tree edge enters
                for rt in results:
                    entered = {g.edges[e].target for e in rt.edges}
                    assert set(rt.nodes) - entered == {rt.root}, (algo, filters, rt)


@pytest.mark.parametrize("algorithm", ["bft", "bft_m", "bft_am"])
def test_generation_search_minimizes_only_what_it_reports(monkeypatch, algorithm):
    # a full-cover tree with a leaf that is no seed is skipped, not minimized:
    # its minimization is generated and reported on its own
    calls = []
    monkeypatch.setattr(search, "minimize", lambda *a: calls.append(a) or minimize(*a))
    built = []
    gen_tree = search._new_gen_tree
    monkeypatch.setattr(search, "_new_gen_tree", lambda fields: built.append(gen_tree(fields)) or built[-1])
    rng = random.Random(3131)
    reported = full_cover = 0
    for _ in range(15):
        g, seeds = gen_random_instance(rng, max_nodes=10, max_edges=15, n_labels=2, m=rng.choice([2, 3]))
        calls.clear()
        built.clear()
        results, stats = run_search(g, seeds, SearchConfig(algorithm=algorithm))
        assert len(calls) == len(results) == stats.results_found
        reported += len(results)
        full_cover += len({t.ebits for t in built if t.covered == seeds.full_mask})
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
    # a grow pair's entry starts with its tree's edge count; negating it pops the largest tree first
    push = search.heappush
    monkeypatch.setattr(search, "heappush", lambda queue, entry: push(queue, (-entry[0],) + entry[1:]))
    rng = random.Random(616)
    for _ in range(25):
        g, seeds = gen_random_instance(rng, max_nodes=9, max_edges=14, n_labels=3, m=3, max_set_size=2)
        baseline, _ = run_search(g, seeds, SearchConfig(algorithm="bft"))
        found, _ = run_search(g, seeds, SearchConfig(algorithm="molesp"))
        assert result_identities(found) == result_identities(baseline)


def _queue_masks(trace):
    """The covered masks of the pairs queued on each queue, by queue identity."""
    masks: dict[int, set[int]] = {}
    for ev in trace.events:
        if ev[0] == "queued":
            masks.setdefault(id(ev[1]), set()).add(ev[2][4].covered)
    return list(masks.values())


def test_multi_queue_mode_changes_nothing_semantically(fig1, monkeypatch):
    trace = _Trace(monkeypatch)
    for seeds in (SeedSets([tuple(range(1, 11)), (11,)]), SeedSets([tuple(range(1, 11)), (11,), (9,)])):
        baseline, _ = run_search(fig1, seeds, SearchConfig(algorithm="bft"))
        found, _ = trace.run(fig1, seeds, "molesp")
        assert len(_queue_masks(trace)) > 1
        assert result_identities(found) == result_identities(baseline)


def test_multi_queue_engages_automatically_on_skewed_sets(fig1, monkeypatch):
    trace = _Trace(monkeypatch)
    trace.run(fig1, SeedSets([tuple(range(1, 11)), (11,)]), "molesp")
    queues = _queue_masks(trace)
    assert len(queues) > 1 and all(len(masks) == 1 for masks in queues)  # one queue per covered mask
    trace.run(fig1, SeedSets([(2, 4), (3, 6)]), "molesp")
    assert len(_queue_masks(trace)) == 1


def test_multi_queue_pops_the_fewest_pairs_and_creates_queues_on_push(fig1, monkeypatch):
    # a queue is created only when a pair is pushed into it and deleted when
    # drained: an empty queue would have the fewest pairs, win the next pop
    # and be popped empty. Replayed from the trace, every pop takes the
    # nonempty queue with the fewest pairs, then the smallest covered mask
    trace = _Trace(monkeypatch)
    cases = [
        (SeedSets([tuple(range(1, 11)), (11,)]), {}),
        (SeedSets([tuple(range(1, 11)), (11,), (12,)]), {}),
        (SeedSets([tuple(range(1, 11)), (11,), (12,)]), {"labels": frozenset({"founded", "investsIn", "affiliation"})}),
    ]
    without_pairs = 0
    for seeds, filters in cases:
        trace.run(fig1, seeds, "molesp", **filters)
        pending: dict[int, int] = {}  # queue identity -> pairs in it
        mask_of: dict[int, int] = {}
        queued_by = {id(ev[2][4]) for ev in trace.events if ev[0] == "queued"}
        grown = {id(t) for _, _, t in trace.steps if t is not None}
        for ev in trace.events:
            if ev[0] == "queued":
                q = id(ev[1])
                pending[q] = pending.get(q, 0) + 1
                mask_of[q] = ev[2][4].covered
            elif ev[0] == "popped":
                q = id(ev[2])
                live = [(n, mask_of[k], k) for k, n in pending.items() if n]
                assert min(live)[2] == q
                pending[q] -= 1
            elif id(ev[1]) in grown and ev[1].covered != seeds.full_mask and id(ev[1]) not in queued_by:
                # a recorded tree that queues nothing: creating its queue up
                # front would leave an empty one behind when none is live
                without_pairs += not any(n and mask_of[k] == ev[1].covered for k, n in pending.items())
        assert len(mask_of) > 1
    assert without_pairs > 0


def test_timeout_is_flagged_and_partial():
    w = gen_chain(18)
    results, stats = run_search(
        w.graph, w.seeds(), SearchConfig(algorithm="molesp", filters=CtpFilters(timeout_ms=1))
    )
    assert stats.timed_out
    assert len(results) < 2**18


def test_deadline_stops_merging_at_the_next_round(fig1, monkeypatch):
    # the clock passes the deadline as soon as a merge tree that merges again
    # in the next round is built: its round finishes, the next round reads
    # the clock and stops, and the pop loop reads it and stops
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    expire_at: list[tuple] = []
    passed: list[int] = []
    reads_after: list[float] = []

    def monotonic():
        if not passed:
            return 0.0
        reads_after.append(1e9)
        return 1e9

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=monotonic))
    trace = _Trace(monkeypatch)
    traced = search._new_rooted_tree

    def built(fields):
        t = traced(fields)
        if (t.key, t.root) in expire_at:
            passed.append(len(trace.built) - 1)
        return t

    monkeypatch.setattr(search, "_new_rooted_tree", built)
    trace.run(fig1, seeds, "gam", timeout_ms=1000)
    pops = [sum(ev[0] == "popped" for ev in trace.events[:i]) for i, ev in enumerate(trace.events) if ev[0] == "built"]
    # a tree merged again before the next pop: in the next round of the same merge
    again = next(
        t for i, t in trace.later_trees()
        for j in range(i + 1, len(trace.built))
        if pops[j] == pops[i] and t in (trace.merge_inputs(j) or ())
    )
    expire_at.append((again.key, again.root))
    _, stats = trace.run(fig1, seeds, "gam", timeout_ms=1000)
    assert stats.timed_out
    (first,) = passed
    assert len(reads_after) == 2
    built_events = [i for i, ev in enumerate(trace.events) if ev[0] == "built"]
    assert not any(ev[0] == "popped" for ev in trace.events[built_events[first] :])


@pytest.mark.parametrize("algorithm", ["bft_m", "bft_am"])
def test_generation_deadline_is_read_before_each_merge_step(monkeypatch, algorithm):
    # the clock is read before each tree is grown and before each tree a
    # merge builds: bft_m merges each grown tree it keeps, bft_am each tree it
    # keeps but the start trees. Once a read finds the deadline passed the
    # search ends: it builds nothing more and reads no more
    events: list[tuple] = []
    expire_at: list[int] = []  # the read, counted from 1, from which on the clock is past any deadline

    def monotonic():
        events.append(("read", sys._getframe(1).f_code.co_name))
        return 1e9 if expire_at and sum(ev[0] == "read" for ev in events) >= expire_at[0] else 0.0

    gen_tree = search._new_gen_tree

    def built(fields):
        t = gen_tree(fields)
        events.append(("built", sys._getframe(1).f_code.co_name, t))
        return t

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(search, "_new_gen_tree", built)
    g, seeds = gen_random_instance(random.Random(19), max_nodes=9, max_edges=14, n_labels=2, m=3, max_set_size=2)
    expected = run_search(g, seeds, SearchConfig(algorithm=algorithm))
    assert not any(ev[0] == "read" for ev in events)  # no budget, no clock
    events.clear()
    budget = SearchConfig(algorithm=algorithm, filters=CtpFilters(timeout_ms=1000))
    assert run_search(g, seeds, budget) == expected  # a budget that does not run out changes nothing
    kept = [(where, t) for ev, where, *t in events if ev == "built" and t[0].covered != seeds.full_mask]
    merged = sum(where == "merge_round" for where, _ in kept)
    merge_builds = sum(ev == "built" and where == "merge_round" for ev, where, *_ in events)
    reads = [where for ev, where, *_ in events if ev == "read"]
    assert merged > 0 and reads.count("run_search") == 1
    assert reads.count("_run_generations") == len(kept)
    assert reads.count("merge_round") == merge_builds
    full = list(events)
    read_at = [i for i, ev in enumerate(full) if ev[0] == "read"]
    for k in range(2, len(read_at) + 1):
        expire_at[:] = [k]
        events.clear()
        _, stats = run_search(g, seeds, budget)
        assert stats.timed_out
        assert events == full[: read_at[k - 1] + 1], k


def test_generation_merges_stop_soon_after_the_deadline():
    # one bft_am merge fixpoint on this instance builds about 65,000 trees in
    # about a second; a budget of 20 ms ends the search long before that
    rng = random.Random(3)
    for _ in range(19):
        g, seeds = gen_random_instance(rng, max_nodes=16, max_edges=40, n_labels=2, m=4, max_set_size=2)
    for algorithm in ("bft_m", "bft_am"):
        start = time.perf_counter()
        _, stats = run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=CtpFilters(timeout_ms=20)))
        assert stats.timed_out
        assert time.perf_counter() - start < 0.5, algorithm


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
    # built tree carries one bit per edge and the bits of its non-seed leaves.
    # Each node's grow steps are listed once per search, from one read of its
    # adjacency, and only the edges listed get a bit
    built = []
    gen_tree = search._new_gen_tree
    monkeypatch.setattr(search, "_new_gen_tree", lambda fields: built.append(gen_tree(fields)) or built[-1])
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
        reads = []
        big.adjacent_edges = lambda n: reads.append(n) or Graph.adjacent_edges(big, n)
        for algo in ("bft", "bft_m", "bft_am"):
            expected, expected_stats = run_search(small, seeds, SearchConfig(algorithm=algo))
            built.clear()
            reads.clear()
            found, stats = run_search(big, big_seeds, SearchConfig(algorithm=algo))
            assert stats == expected_stats
            assert len(reads) == len(set(reads))
            relabelled = [
                (rt.edges, tuple(small_id[n] for n in rt.nodes), tuple(small_id[n] for n in rt.seed_tuple),
                 small_id[rt.root])
                for rt in found
            ]
            assert relabelled == [(rt.edges, rt.nodes, rt.seed_tuple, rt.root) for rt in expected]
            reached = frozenset().union(*(t.nodes for t in built))
            assert set(reads) <= reached
            nearby = len({e for n in reached for e in Graph.adjacent_edges(big, n)})
            # edge bits are numbered as the grow steps list the edges: adjacency
            # reads in order, self-loops and edges toward dead nodes left out,
            # each edge at its first listing
            dropped = dead_nodes(big, big_seeds)
            edge_at = list(dict.fromkeys(
                e for n in reads for e in Graph.adjacent_edges(big, n)
                if big.edges[e].source != big.edges[e].target and big.other_endpoint(e, n) not in dropped
            ))
            assert len(edge_at) <= nearby
            bit = {}  # node -> its bit: a tree is built after the trees it grows or merges from
            seen_ebits = 0  # likewise, a tree holds at most one edge bit that no earlier tree holds
            for t in built:
                assert t.nbits.bit_count() == len(t.nodes) and t.nbits.bit_length() <= len(reached)
                key = [e for i, e in enumerate(edge_at) if t.ebits >> i & 1]
                assert t.ebits.bit_count() == len(key) == len(t.nodes) - 1 and t.ebits.bit_length() <= len(edge_at)
                assert (t.ebits & ~seen_ebits).bit_count() <= 1
                seen_ebits |= t.ebits
                unknown = [n for n in t.nodes if n not in bit]
                assert len(unknown) <= 1
                if unknown:
                    bit[unknown[0]] = t.nbits & ~sum(bit[n] for n in t.nodes if n in bit)
                degree = dict.fromkeys(t.nodes, 0)
                for eid in key:
                    degree[big.edges[eid].source] += 1
                    degree[big.edges[eid].target] += 1
                leaves = [n for n, d in degree.items() if d == 1 and n not in big_seeds.node_bits]
                assert t.loose == sum(bit[n] for n in leaves)


def test_no_tree_holds_a_node_the_peel_drops(fig1, monkeypatch):
    # every leaf of a result is a seed, and no result holds two seeds of one
    # set, so no tree that either driver builds may hold a node the
    # brute-force peel drops, or a chain of nodes with two live neighbours
    # each between seeds of one set; the nodes a search leaves dead are
    # exactly those, in every component
    built = []
    for name in ("_new_rooted_tree", "_new_gen_tree"):
        new = getattr(search, name)
        monkeypatch.setattr(search, name, lambda fields, new=new: built.append(new(fields)) or built[-1])
    # a triangle 1-2-3 with a dangling tree at 3 (4 under 3; 5 and 6 under 4;
    # 7, with a self-loop, under 6), node 8 tied to 2 by two parallel edges,
    # and a second component that is a tree (9-10-11-12, 13 under 10)
    hung = make_graph(
        [str(i) for i in range(1, 14)],
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (4, 6), (6, 7), (7, 7), (2, 8), (8, 2),
         (9, 10), (10, 11), (11, 12), (10, 13)],
    )
    # a core cycle 1-2-3-4-5-1 with a second chain 1-6-5; 2 tied to 1 twice,
    # 3 with a self-loop and 7 hanging from it; a triangle 8-9-10 tied to 1;
    # a tree component (11 above 12, 13 and 14 under 12); 15 and 16 hanging
    # from 5
    chained = make_graph(
        [str(i) for i in range(1, 17)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (6, 5), (2, 1), (3, 3), (3, 7),
         (1, 8), (8, 9), (9, 10), (10, 8), (11, 12), (12, 13), (12, 14), (5, 15), (15, 16)],
    )
    w = gen_cdf(2, 16, 64, 3, 7)
    ((_, cdf16_seeds, _),) = plan_query(w.graph, validate_query(parse_query(w.query_text))).searches
    chain, comb, star = gen_chain(6), gen_comb(2, 1, 2, 1), gen_star(3, 2)
    cases = [
        (hung, SeedSets([(5,), (1,)])),  # a seed inside the dangling tree
        (hung, SeedSets([(7, 12), (8, 10)])),  # seeds in both components
        (hung, SeedSets([(11,), (9, 13)], [False, False])),
        (hung, SeedSets([(1,), (), (5,)], [False, True, False])),
        (chained, SeedSets([(1, 5), (8,)])),  # chains of one set, and a cycle through a seed
        (chained, SeedSets([(1,), (5,)])),  # chains between sets, and a cycle through no seed
        (chained, SeedSets([(1, 3), (5,)])),  # a seed inside a core chain
        (chained, SeedSets([(1, 7), (5,)])),  # a chain node with a live dangling branch
        (chained, SeedSets([(8,), (1,)])),  # a cycle through one seed
        (chained, SeedSets([(1, 3), (3, 5)])),  # a node in two sets
        (chained, SeedSets([(1, 5), (), (16,)], [False, True, False])),  # a universal set
        (chained, SeedSets([(5, 16), (1,)])),  # a dangling chain up to a seed in the core
        (chained, SeedSets([(13, 14), (1,)])),  # a chain through the top of a tree component
        (chained, SeedSets([(13, 14), (11,)])),
        (chain.graph, SeedSets([(2,), (5,)])),  # a tree with parallel edges
        (comb.graph, comb.seeds()),
        (star.graph, SeedSets(star.seed_sets[:2])),
        (fig1, SeedSets([(2, 4), (3, 6), (9,)])),
        (w.graph, cdf16_seeds),  # dangling forest trees that hang from seeds
        *random_suite(12, [1, 2, 3, 2, 3, 3], rng_seed=20250811),
        *random_suite(6, [4, 5, 6], rng_seed=20250812),
    ]
    for g, seeds in cases:
        dropped = dead_nodes(g, seeds)
        dead = search._dead_test(g, seeds)
        assert {n for n in g.nodes if dead(n)} == dropped
        labels = frozenset(g.edges[e].label for e in sorted(g.edges)[::2])
        for filters in (CtpFilters(), CtpFilters(uni=True), CtpFilters(labels=labels)):
            for algorithm in ALGORITHMS if g is not w.graph else ROOTED:
                built.clear()
                run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=filters))
                assert built and not any(dropped & t.nodes for t in built), algorithm
    for algorithm in ALGORITHMS:
        with pytest.raises(SeedSetError):
            run_search(hung, SeedSets([(5,), (99,)]), SearchConfig(algorithm=algorithm))


# ---------------------------------------------------------------------------
# the MAX distance bound


def test_hop_reach_agrees_with_breadth_first_oracle():
    # the cycle B(1)-A(2)-3-4-A'(5)-6-7-8-9-10-11-B(1): 3 and 4 form a chain
    # between two seeds of one set, so they are dead, and B reaches A' the
    # long way round, 7 hops against 4 through the dead chain
    ring = make_graph([str(i) for i in range(1, 12)], [*((i, i + 1) for i in range(1, 11)), (11, 1)])
    ring_seeds = SeedSets([(2, 5), (1,)])
    assert dead_nodes(ring, ring_seeds) == {3, 4}
    cases = [(ring, ring_seeds, None), (ring, SeedSets([(2,), (), (1,)], [False, True, False]), None)]
    for g, seeds in [*random_suite(30, [1, 2, 3], rng_seed=20250811), *random_suite(10, [4, 5, 6], rng_seed=20250812)]:
        cases += [(g, seeds, None), (g, seeds, frozenset({"a"})), (g, seeds, frozenset({"a", "c"}))]
    longer = 0
    for g, seeds, labels in cases:
        dead = search._dead_test(g, seeds)
        live = set_distances(g, seeds, labels, frozenset(dead_nodes(g, seeds)))
        plain = set_distances(g, seeds, labels)
        for max_edges in (1, 2, 4, 8, 10**9):
            reach = search._hop_reach(g, seeds, labels, dead, max_edges, None)
            for bit in range(len(seeds.active)):
                table = reach[bit]
                assert table == {n: d for n, d in live[bit].items() if d <= max_edges - 1}
                # a lower bound on the distance in the whole graph as well
                assert all(plain[bit][n] <= d for n, d in table.items())
                longer += sum(plain[bit][n] < d for n, d in table.items())
    ring_reach = search._hop_reach(ring, ring_seeds, None, search._dead_test(ring, ring_seeds), 8, None)
    assert ring_reach[1][5] == 7
    assert longer > 0


def test_max_bound_keeps_the_rows_it_must():
    # under MAX the bound skips trees that lead to no result: gam still finds
    # every result, moesp and molesp every result they guarantee, and the
    # others only results
    instances = [
        *random_suite(200, [1, 2, 3, 2, 3, 3], rng_seed=20250811)[::3],
        *random_suite(100, [4, 5, 6], rng_seed=20250812)[::3],
    ]
    guaranteed = 0
    for g, seeds in instances:
        for max_edges in (2, 3, 4, 6):
            filters = CtpFilters(max_edges=max_edges)
            baseline = run_search(g, seeds, SearchConfig("bft", filters))[0]
            expected = result_identities(baseline)
            rows = {a: result_identities(run_search(g, seeds, SearchConfig(a, filters))[0]) for a in ROOTED}
            assert rows["gam"] == expected
            for algorithm in ROOTED:
                assert rows[algorithm] <= expected, algorithm
            for rt in baseline:
                cls = classify_result(g, rt.edges, seeds)
                for algorithm in ("moesp", "molesp"):
                    if guaranteed_found(algorithm, seeds.m, cls):
                        guaranteed += 1
                        assert rt.identity() in rows[algorithm], algorithm
    assert guaranteed > 500


def test_max_prepass_reads_the_clock_once_per_level(fig1, monkeypatch):
    # under MAX 4 each of the three sets is searched to radius 3: the clock
    # is read before each of its levels, and a clock that has passed the
    # deadline there ends the search before any tree is built, partial
    reads = []

    def monotonic():
        reads.append(sys._getframe(1).f_code.co_name)
        return 1e9 if expired and reads[-1] == "_hop_reach" else 0.0

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=monotonic))
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    cfg = SearchConfig("molesp", CtpFilters(max_edges=4, timeout_ms=1000))
    expired = False
    expected = run_search(fig1, seeds, SearchConfig("molesp", CtpFilters(max_edges=4)))
    assert run_search(fig1, seeds, cfg) == expected
    assert reads.count("_hop_reach") == 3 * 3
    reads.clear()
    expired = True
    results, stats = run_search(fig1, seeds, cfg)
    assert stats.timed_out and not results and stats.provenances_built == 0
    assert reads.count("_hop_reach") == 1 and reads[-1] == "_hop_reach"
    query = '(?t) :- (?x[id = 2], ?y[id = 3], ?z[id = 9], TREE ?t) MAX 4 TIMEOUT 1000'
    assert evaluate_query(fig1, parse_query(query)).partial


def test_a_huge_max_finds_what_no_max_finds(fig1):
    # MAX 10**9 states no real limit: every rooted search and the query
    # find what they find with no MAX
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    for algorithm in ROOTED:
        unbounded = run_search(fig1, seeds, SearchConfig(algorithm))[0]
        assert run_search(fig1, seeds, SearchConfig(algorithm, CtpFilters(max_edges=10**9)))[0] == unbounded
    query = '(?t) :- (?x[id = 2], ?y[id = 3], ?z[id = 9], TREE ?t)'
    expected = evaluate_query(fig1, parse_query(query)).rows
    assert expected and evaluate_query(fig1, parse_query(query + ' MAX 1000000000')).rows == expected
