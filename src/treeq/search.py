"""Best-first tree search over seed sets: the full algorithm family.

Two families share the soundness conditions (a tree never repeats a node,
and never holds two seeds from one set):

* generation-based search (``bft``, ``bft_m``, ``bft_am``): unrooted edge
  sets grown breadth-first from any tree node, reported once every leaf is
  a seed;
* rooted search (``gam``, ``esp``, ``moesp``, ``lesp``, ``molesp``): trees
  grow only at their root via a priority queue of (tree, edge) pairs and
  merge with previously recorded trees sharing that root.

The pruned variants deduplicate by edge set alone (``esp``), optionally
re-root newly completed trees at their seeds to keep merge opportunities
alive (``moesp``), and spare merge trees from pruning at well-connected
nodes unless that tree was already built at that root (``lesp``);
``molesp`` combines all three.

Each family runs as one driver function whose queues, seen edge sets and
merge partners are local variables: ``_run_generations`` and
``_rooted_search``.
A rooted tree does not record how it was built: the pruned variants read
only ``gained`` and ``path_anchor``, and a re-rooted copy is merged at once
and never queued for growing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import chain, count
from types import MethodType
from typing import Callable, Iterator, NamedTuple

from .graph import Graph
from .lang import CtpFilters
from .trees import Classification, ResultTree, SeedSetError, SeedSets, directed_root, minimize

ALGORITHMS = ("bft", "bft_m", "bft_am", "gam", "esp", "moesp", "lesp", "molesp")
GENERATION_ALGORITHMS = ("bft", "bft_m", "bft_am")
EDGE_SET_PRUNED = ("esp", "moesp", "lesp", "molesp")

#: seed-set size ratio beyond which one queue per coverage mask is used
MULTI_QUEUE_RATIO = 10


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = "molesp"
    filters: CtpFilters = field(default_factory=CtpFilters)


@dataclass
class SearchStats:
    provenances_built: int = 0
    trees_pruned: int = 0
    results_found: int = 0
    queue_pops: int = 0
    timed_out: bool = False


# ---------------------------------------------------------------------------
# Search trees


class RootedTree(NamedTuple):
    """A tree of rooted search: it grows only at its root and merges there.

    ``covered`` is the mask of non-universal seed sets that already have their
    one chosen seed inside the tree. ``path_anchor`` is set while the tree is
    still a root-ended path from a single seed; it drives the per-node seed
    signatures. ``gained`` records whether the grow or merge step that built
    the tree covered strictly more seed sets than each of its inputs; start
    trees and re-rooted copies have it unset.
    """

    key: tuple[int, ...]  # sorted edge ids: the canonical edge-set identity
    root: int
    nodes: frozenset[int]
    covered: int
    path_anchor: int | None
    gained: bool


class _GenTree(NamedTuple):
    nodes: frozenset[int]
    covered: int
    nbits: int  # one bit per node, numbered by when the search first reached it
    # one bit per edge, numbered as the grow steps list them: the edge set
    # itself; sorted edge ids are formed only for a reported result
    ebits: int
    loose: int  # the nbits of the leaves that are no seeds


# The drivers build their records from one tuple of every field through these
# names, which skip the generated keyword-handling ``__new__`` (about half the
# cost of a record).
_new_rooted_tree = MethodType(tuple.__new__, RootedTree)
_new_gen_tree = MethodType(tuple.__new__, _GenTree)


# ---------------------------------------------------------------------------
# Score functions

_SCORES: dict[str, Callable] = {}  # name -> batch score function


def register_score(name: str, fn: Callable, batch: bool = False) -> None:
    """Register a score function.

    Per-result functions take ``(result, graph)`` and return a float. Batch
    functions (``batch=True``) take the full result list after the search
    ends and return one float per result, for scores that can only be
    computed once all results are known. A per-result function is kept as
    the batch function that maps it over the list.
    """
    _SCORES[name] = fn if batch else lambda results, g: [fn(rt, g) for rt in results]


register_score("edgecount", lambda rt, g: float(-len(rt.edges)))
register_score("unit", lambda rt, g: 0.0)


def apply_score_topk(results: list[ResultTree], filters: CtpFilters, g: Graph | None = None) -> list[ResultTree]:
    """Attach scores and keep the k best; ties break on the edge-set key."""
    if filters.score is None:
        return list(results)
    if filters.score not in _SCORES:
        raise ValueError(f"unknown score function {filters.score!r}")
    scores = list(_SCORES[filters.score](list(results), g))
    if len(scores) != len(results):
        raise ValueError(f"score {filters.score!r} returned {len(scores)} scores for {len(results)} results")
    scored = [replace(rt, score=float(s)) for rt, s in zip(results, scores)]
    scored.sort(key=lambda rt: (-rt.score, rt.edges, rt.nodes))
    if filters.top_k is not None:
        scored = scored[: filters.top_k]
    return scored


# ---------------------------------------------------------------------------
# Rooted search driver


def _start_nodes(g: Graph, seeds: SeedSets) -> Iterator[int]:
    """Every seed of the non-universal sets once, set by set, ascending."""
    started: set[int] = set()
    for orig in seeds.active:
        for s in sorted(seeds.sets[orig]):
            if s in started:
                continue
            if s not in g.nodes:
                raise SeedSetError(f"seed {s} is not a graph node")
            started.add(s)
            yield s


def _dead_test(g: Graph, seeds: SeedSets) -> Callable[[int], bool]:
    """A test of whether a node is dead: no result of this search can hold it.

    Every leaf of a result is a seed, so no result holds a node that falls
    away when nodes that are no seed and have at most one distinct
    neighbour are removed again and again. Such nodes lie in the ``hang``
    of ``g.dangling()``, and the peel keeps a dangling node exactly when a
    seed hangs below it and, in a component that is a tree, the node also
    lies on a path between two seeds. Walking up from each seed marks the
    first; then the top of each tree component the walks reached is cut
    down while it is no seed and has one marked child. The core and the
    dangling nodes kept are live.

    A node that is no seed and has exactly two live neighbours is in a
    result only with both of them, so a result that holds one node of a
    chain of such nodes holds the whole chain and the nodes at both its
    ends. When the ends are seeds that share a set, or one seed, no result
    holds the chain: it would hold two seeds of that set, or close a cycle.
    Such chains are cut in one round; their ends are seeds, so the cut
    leaves no node with fewer live neighbours that a second round would
    test. A chain lies wholly in the core, where a node has two live
    neighbours when it is in ``links`` and has no marked dangling child, or
    wholly among the dangling nodes. A core chain is walked from a seed in
    ``links`` both ways, and from any other core seed along each of its
    runs (``beside``) whose far end is a seed of one of its sets; a chain
    that ends at a seed inside a run is walked from that seed. A dangling
    chain is walked up from each dangling seed while each node has one
    marked child; a walk that stops at a tree component's top that is no
    seed and has exactly two marked children meets the walk up the other
    child there. All of this costs about seeds times depth and chain
    length, never a pass over the graph.
    """
    hang, links, beside = g.dangling()
    bits = seeds.node_bits
    bit = bits.get
    live: set[int] = set()
    only: dict[int, int | None] = {}  # marked node -> its one marked child, None for several
    forks: dict[int, int] = {}  # marked node with several marked children -> how many
    tops = []
    for n in bits:
        while n in hang and n not in live:
            live.add(n)
            up = hang[n]
            if up is None:
                tops.append(n)
            elif up in only:
                only[up] = None
                forks[up] = forks.get(up, 1) + 1
            else:
                only[up] = n
            n = up
    heads = set()  # the tops left that are no seed: forks with no live parent
    for n in tops:
        while n not in bits and only[n] is not None:
            live.discard(n)
            n = only[n]
        if n not in bits:
            heads.add(n)
    cut: set[int] = set()
    met: dict[int, tuple[int, list[int]]] = {}  # head -> (seed bits, chain) of the first walk up to it
    for s, mask in bits.items():
        if s in hang:
            chain, up = [], hang[s]
            while up in live and up not in bits and only[up] is not None:
                chain.append(up)
                up = hang[up]
            if bit(up, 0) & mask:
                cut.update(chain)
            elif up in heads and forks[up] == 2:
                if up not in met:
                    met[up] = (mask, chain)
                elif met[up][0] & mask:
                    cut.update(chain, met[up][1], (up,))
            continue
        if s in links:
            # s stands in for the far ends, which a seed inside a run does
            # not know, so both ways are walked
            a, b = links[s]
            runs = ((a, s), (b, s))
        else:
            runs = beside.get(s, ())
        for n, end in runs:
            if not bit(end, 0) & mask:
                continue
            chain, back = [], s
            while n in links and n not in bits and n not in only:
                chain.append(n)
                a, b = links[n]
                back, n = n, b if a == back else a
            if bit(n, 0) & mask:
                cut.update(chain)
    return lambda n: n in cut or n in hang and n not in live


def _rooted_search(
    g: Graph, seeds: SeedSets, algorithm: str, filters: CtpFilters, deadline: float | None, stats: SearchStats
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Run ``gam``, ``esp``, ``moesp``, ``lesp`` or ``molesp`` to exhaustion or
    deadline; return the ascending ``(edges, nodes)`` of every result.

    One start tree per seed (a node in several sets covers them all at
    once) is settled first. Then the best grow pair is popped, and the tree
    it grows is settled and merged, until the queues run dry.

    * Grow: a pair ``(t, e)`` is queued when ``e`` may extend ``t`` at its
      root: ``t`` is below ``MAX``, ``e`` passes ``LABEL`` (and points into
      the root under ``UNI``), and its far node is not dead (a seedless
      dangling node, or a node of a chain between seeds of one set: see
      ``_dead_test``), new to ``t`` and no seed of a set ``t`` covers. The
      first time a tree settles at a root, the root's grow steps ``(edge,
      far node, far seed bits)`` that pass the first three tests are listed
      for the rest of the search; the last two depend on the tree. Every
      tree grown, merged or copied from a tree that holds a dead node holds
      it too, and no result does, so the skipped steps could lead to no
      result. Pairs pop smallest tree first, ties broken on ``(key, root,
      edge)``. With skewed seed sets there is one queue per covered mask,
      and the queue with the fewest pairs (then the smallest mask) is
      popped; those lengths leave out the skipped steps, so pops there may
      come in another order than without the skip.
    * Deduplicate: one map files each edge set with the roots it was built
      or copied at, results included. Before a grown or merged tree is
      built, plain ``gam`` discards it when its edge set was built at the
      same root; the pruned variants discard any edge set built at any
      root. The limited variants spare a merge tree whose root already has
      seed-rooted paths from three or more sets and three or more adjacent
      edges, unless that tree was already built at that root. A pruned
      step builds nothing and is counted in ``trees_pruned``.
    * Settle: a built tree is counted in ``provenances_built``; if it
      covers every set it is a result, otherwise it is recorded as a merge
      partner at its root and its grow pairs are queued. Under re-rooting,
      a tree whose step covered strictly more sets than each input is also
      copied to every seed node in it that its edge set was not built or
      copied at; a copy is recorded and merged at once, and never grows.
    * Merge: a recorded tree merges, round by round to a fixpoint, with
      the trees recorded at its root before the scan started, in record
      order. A partner has an edge, shares no node but the root, covers no
      set the tree covers other than through the root (the clash test,
      made per covered-mask bucket), and keeps the union within ``MAX``.
      A grown tree is merged only when its root holds a bucket besides its
      own, or it covers no set outside the root's bits. It covers the seed
      it grew from, so its own bucket fails the clash test: the skipped
      merge would build and count nothing. Copies land on seeds, beside
      the start tree's bucket, so they are always merged.

    The deadline is checked before every pop and every merge round.
    """
    uni, labels_ok, max_edges = filters.uni, filters.labels, filters.max_edges
    edges, full_mask, bits = g.edges, seeds.full_mask, seeds.node_bits.get
    around = g.incoming_edges if uni else g.adjacent_edges
    sizes = [len(seeds.sets[i]) for i in seeds.active]
    multi_queue = max(sizes) >= MULTI_QUEUE_RATIO * min(sizes)
    # re-rooted copies break the root-reaches-all invariant of UNI trees
    reroot = algorithm in ("moesp", "molesp") and not uni
    edge_set_pruned = algorithm in EDGE_SET_PRUNED
    spares_merges = algorithm in ("lesp", "molesp")
    new_tree = _new_rooted_tree
    dead = _dead_test(g, seeds)
    steps_of: dict[int, list[tuple[int, int, int]]] = {}  # root -> its grow steps, listed on first use

    # grow pairs (len(key), key, root, edge, tree, far node, far seed bits);
    # (key, root, edge) is unique, so entries never compare past the edge
    heap: list[tuple] = []
    queues: dict[int, list[tuple]] = {}  # covered mask -> pairs, when multi_queue
    # edge-set key -> the roots it was built or copied at, results included
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    # root -> covered mask -> [(record number, tree), ...] in record order
    by_root: dict[int, dict[int, list[tuple[int, RootedTree]]]] = {}
    signatures: dict[int, int] = {}  # node -> sets whose seed-rooted paths reached it
    next_record = count().__next__
    results: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def settle(t: RootedTree) -> bool:
        """Count ``t``; file it as a result, or record it, merge its copies
        and queue its grow pairs. True when it was recorded and a tree
        recorded at its root may pass its clash test."""
        key, root, nodes, covered, _, gained = t
        stats.provenances_built += 1
        # deduplication lets a tree through only at a root new to its edge
        # set; the start trees share the empty key, which no step looks up
        if key:
            roots = seen[key] = seen.get(key, ()) + (root,)
        if covered == full_mask:
            results.add((key, tuple(sorted(nodes))))
            return False
        entry = (next_record(), t)
        buckets = by_root.get(root)
        if buckets is None:
            buckets = by_root[root] = {covered: [entry]}
        else:
            buckets.setdefault(covered, []).append(entry)
        if reroot and gained:
            for n in sorted(nodes):
                if not bits(n) or n in roots:
                    continue
                copy = new_tree((key, n, nodes, covered, None, False))
                stats.provenances_built += 1
                by_root.setdefault(n, {}).setdefault(covered, []).append((next_record(), copy))
                roots = seen[key] = roots + (n,)
                merge(copy)
        # t's own bucket fails t's clash test unless t covers nothing outside
        # the root (the copies' merges above may have filed other buckets)
        partnered = len(buckets) > 1 or not covered & ~bits(root, 0)
        if max_edges is not None and len(key) >= max_edges:
            return partnered
        steps = steps_of.get(root)
        if steps is None:
            steps = steps_of[root] = []
            for e in around(root):
                _, source, target, label = edges[e]
                far = source if target == root else target
                if (labels_ok is None or label in labels_ok) and not dead(far):
                    steps.append((e, far, bits(far, 0)))
        size = len(key)
        for e, far, far_bits in steps:
            if far in nodes or far_bits & covered:
                continue
            queue = queues.setdefault(covered, []) if multi_queue else heap
            heappush(queue, (size, key, root, e, t, far, far_bits))
        return partnered

    def merge(t: RootedTree) -> None:
        """Merge ``t`` and every merge product with the recorded trees, to fixpoint."""
        root = t.root
        buckets, root_bits = by_root[root], bits(root, 0)
        # every merge tree has t's root, and signatures change only at pops,
        # so the spare rule gives one answer all through the merge
        prune_seen = edge_set_pruned and not (
            spares_merges and signatures.get(root, 0).bit_count() >= 3 and g.degree(root) >= 3
        )
        pending = [t]
        while pending:
            if deadline is not None and time.monotonic() > deadline:
                return
            current, pending = pending, []
            for t1 in current:
                key1, _, nodes1, covered1, _, _ = t1
                clash = covered1 & ~root_bits
                lists = [records for mask, records in buckets.items() if not mask & clash]
                if not lists:
                    continue
                # every tree recorded at the root while t1 merges contains t1, so
                # the shared-node test skips the records this loop appends
                partners = lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
                away = nodes1 - {root}
                room = None if max_edges is None else max_edges - len(key1)
                for _, t2 in partners:
                    key2, _, nodes2, covered2, _, _ = t2
                    if not key2 or not away.isdisjoint(nodes2) or (room is not None and len(key2) > room):
                        continue
                    key = tuple(sorted(key1 + key2))
                    roots = seen.get(key)
                    if roots is not None and (root in roots or prune_seen):
                        stats.trees_pruned += 1
                        continue
                    # each input holds a seed besides the root, of a set the other
                    # does not cover, so a merge always gains
                    merged = new_tree((key, root, nodes1 | nodes2, covered1 | covered2, None, True))
                    if settle(merged):
                        pending.append(merged)

    try:
        for s in _start_nodes(g, seeds):
            signatures[s] = signatures.get(s, 0) | bits(s)
            settle(new_tree(((), s, frozenset((s,)), bits(s), s, False)))
        while True:
            if deadline is not None and time.monotonic() > deadline:
                stats.timed_out = True
                break
            if not multi_queue:
                if not heap:
                    break
                _, key, _, e, t, far, far_bits = heappop(heap)
            elif queues:
                # the queue with the fewest pending pairs; a drained queue is deleted
                if len(queues) == 1:
                    bucket = next(iter(queues))
                else:
                    _, bucket = min((len(q), b) for b, q in queues.items())
                q = queues[bucket]
                _, key, _, e, t, far, far_bits = heappop(q)
                if not q:
                    del queues[bucket]
            else:
                break
            stats.queue_pops += 1
            _, _, nodes, covered, anchor, _ = t
            key = tuple(sorted(key + (e,)))
            if far_bits:
                anchor = None
            elif anchor is not None:
                # a nonempty root-ended path from a single seed marks its root as reached
                signatures[far] = signatures.get(far, 0) | bits(anchor)
            # a grown tree is never spared; under gam it is always new, since
            # its root is a leaf that only the tree it grows from reaches
            if edge_set_pruned and key in seen:
                stats.trees_pruned += 1
                continue
            # far's seed sets are not covered by t yet, so any seed bit is a gain
            grown = new_tree((key, far, nodes | {far}, covered | far_bits, anchor, far_bits != 0))
            if settle(grown):
                merge(grown)
    finally:
        # settle and merge call each other: clear their cells, or every
        # search would leave a reference cycle for the garbage collector
        del settle, merge
    return results


# ---------------------------------------------------------------------------
# Generation-based driver


def _run_generations(
    g: Graph, seeds: SeedSets, algorithm: str, filters: CtpFilters, deadline: float | None, stats: SearchStats
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Run ``bft``, ``bft_m`` or ``bft_am`` to exhaustion or deadline; return
    the ascending ``(edges, nodes)`` of every result.

    Each generation grows every tree of the last one by one edge at any of
    its nodes, node by node in edge-id order. An edge may extend a tree
    below ``MAX`` when it passes ``LABEL`` and its far node is new to the
    tree and no seed of a set the tree covers; a step toward a dead node (a
    seedless dangling node, or a node of a chain between seeds of one set:
    see ``_dead_test``) is never made, since every tree grown or merged from
    a tree that holds one holds it too, and no result does. The first time a
    node is grown at, its grow steps ``(far node, far seed bits, edge
    bit)`` are listed once for the search, ``LABEL``, self-loops and dead
    far nodes left out; the other two tests depend on the tree and are
    made per step. A tree's edge
    bits are its edge set: a tree whose edge bits were seen before is pruned
    before it is built, and sorted edge ids are formed only for a tree that
    is reported. ``bft_m`` merges each grown tree once with the kept trees
    it can join at one shared node; ``bft_am`` merges the merge products
    too. The deadline is checked before each tree is grown and before each
    tree a merge builds; once it has passed, the search ends.
    """
    edges, adjacent, full_mask, bits = g.edges, g.adjacent_edges, seeds.full_mask, seeds.node_bits.get
    labels_ok, max_edges = filters.labels, filters.max_edges
    merging = algorithm in ("bft_m", "bft_am")
    aggressive = algorithm == "bft_am"
    new_tree = _new_gen_tree
    dead = _dead_test(g, seeds)
    results: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    # the edge sets seen so far; start trees have none and are all distinct
    memory: set[int] = set()
    # merge partners filed under each of their nodes by covered mask, in
    # descending mask order, then grouped by node set: a merge walks only
    # the masks that cannot clash outside the shared node, and reads only
    # the groups that share that node alone
    by_node: dict[int, dict[int, dict[int, list[tuple[int, _GenTree]]]]] = {}
    next_record = count().__next__
    # per-search node and edge bits stay as wide as the reached part of the graph
    bit_of: dict[int, int] = {}
    ebit_of: dict[int, int] = {}  # edge -> its bit; the edges are listed in bit order
    steps_of: dict[int, list[tuple[int, int, int]]] = {}  # node -> its grow steps, listed on first use

    def keep(t: _GenTree) -> bool:
        """Count a tree that passed deduplication; report it if it covers every set, else keep it."""
        stats.provenances_built += 1
        if t.covered != full_mask:
            return True
        # A full-cover tree T with a leaf that is no seed (a bit in loose) is
        # skipped, since M = minimize(T) is generated and reported on its own.
        # The nodes of T have pairwise disjoint seed masks (the grow step and
        # the merge filters enforce this), and M is a subtree of T whose
        # leaves are all seeds. So growing from one seed leaf along M's edges
        # passes the grow test at every step: M is no larger than T for MAX
        # and LABEL, the far node is new, and its seed bits are not covered
        # yet. No proper subtree of M covers every set (a missing seed leaf
        # would repeat a set it covers), so no step of that growth stops
        # early; memory keeps the first sighting of each step, and that
        # sighting is grown in the next generation. Under a deadline bft_m and
        # bft_am may miss M (the result is partial): a merge can build T in an
        # earlier generation than M. bft cannot, since M is smaller and comes
        # first.
        if not t.loose:
            # bin() lists the edge bits highest first; ebit_of lists the edges lowest bit first
            key = tuple(sorted(e for e, b in zip(ebit_of, bin(t.ebits)[:1:-1]) if b == "1"))
            # minimize is the tree check: a tree whose leaves are all seeds comes back unchanged
            minimize(g, key, seeds)
            results.add((key, tuple(sorted(t.nodes))))
        return False

    def index(t: _GenTree) -> None:
        entry = (next_record(), t)
        nodes, covered, nbits, _, _ = t
        for n in nodes:
            masks = by_node.get(n, {})
            groups = masks.get(covered)
            if groups is None:
                # a new mask: the node's map is rebuilt, never changed in place,
                # since a merge may be walking it
                by_node[n] = dict(sorted({**masks, covered: {nbits: [entry]}}.items(), reverse=True))
            else:
                groups.setdefault(nbits, []).append(entry)

    def merge_round(t: _GenTree, generation: list[_GenTree]) -> bool:
        """Merge ``t`` (and, under ``bft_am``, its merge products); False once the deadline has passed."""
        queue = [t]
        for cur in queue:  # bft_am appends merge products while iterating
            cur_nodes, cur_covered, cur_nbits, cur_ebits, cur_loose = cur
            room = None if max_edges is None else max_edges - cur_ebits.bit_count()
            for n in sorted(cur_nodes):
                n_bit = bit_of[n]
                clash = cur_covered & ~bits(n, 0)
                for mask, groups in by_node[n].items():
                    if mask & clash:
                        continue
                    # the trees of one node set have as many edges, so one of them stands for all
                    lists = [
                        records
                        for nbits, records in groups.items()
                        if nbits & cur_nbits == n_bit and (room is None or records[0][1].ebits.bit_count() <= room)
                    ]
                    if not lists:
                        continue
                    for _, partner in list(lists[0]) if len(lists) == 1 else sorted(chain.from_iterable(lists)):
                        ebits = cur_ebits | partner.ebits
                        if ebits in memory:
                            stats.trees_pruned += 1
                            continue
                        # one fixpoint can build thousands of trees: read the clock before each
                        if deadline is not None and time.monotonic() > deadline:
                            stats.timed_out = True
                            return False
                        memory.add(ebits)
                        merged = new_tree((
                            cur_nodes | partner.nodes,
                            cur_covered | partner.covered,
                            cur_nbits | partner.nbits,
                            ebits,
                            (cur_loose | partner.loose) & ~n_bit,  # n has an edge on both sides
                        ))
                        if keep(merged):
                            generation.append(merged)
                            index(merged)
                            if aggressive:
                                queue.append(merged)
        return True

    current: list[_GenTree] = []
    for s in _start_nodes(g, seeds):
        t = new_tree((frozenset((s,)), bits(s), bit_of.setdefault(s, 1 << len(bit_of)), 0, 0))
        if keep(t):
            current.append(t)

    while current:
        nxt: list[_GenTree] = []
        for t in current:
            if deadline is not None and time.monotonic() > deadline:
                stats.timed_out = True
                return results
            nodes, covered, nbits, t_ebits, loose = t
            if max_edges is not None and t_ebits.bit_count() >= max_edges:
                continue
            for n in sorted(nodes):
                steps = steps_of.get(n)
                if steps is None:
                    steps = steps_of[n] = []
                    for e in adjacent(n):
                        _, source, target, label = edges[e]
                        far = source if target == n else target
                        if far != n and (labels_ok is None or label in labels_ok) and not dead(far):
                            steps.append((far, bits(far, 0), ebit_of.setdefault(e, 1 << len(ebit_of))))
                # the near end stops being a leaf; a start tree's only node is a seed
                near_loose = loose & ~bit_of[n]
                for far, far_bits, e_bit in steps:
                    if far in nodes or far_bits & covered:
                        continue
                    ebits = t_ebits | e_bit
                    if ebits in memory:
                        stats.trees_pruned += 1
                        continue
                    memory.add(ebits)
                    far_bit = bit_of.setdefault(far, 1 << len(bit_of))
                    grown = new_tree((
                        nodes | {far},
                        covered | far_bits,
                        nbits | far_bit,
                        ebits,
                        near_loose if far_bits else near_loose | far_bit,
                    ))
                    if keep(grown):
                        nxt.append(grown)
                        if merging:
                            index(grown)
                            if not merge_round(grown, nxt):
                                return results
        current = nxt
    return results


# ---------------------------------------------------------------------------
# Entry point


def check_config(cfg: SearchConfig) -> None:
    """Raise ``ValueError`` for an unknown algorithm or score name, or TOP without SCORE."""
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.filters.top_k is not None and cfg.filters.score is None:
        raise ValueError("TOP requires SCORE")
    if cfg.filters.score is not None and cfg.filters.score not in _SCORES:
        raise ValueError(f"unknown score function {cfg.filters.score!r}")


def run_search(g: Graph, seeds: SeedSets, cfg: SearchConfig) -> tuple[list[ResultTree], SearchStats]:
    """Run the configured algorithm to exhaustion (or deadline) and report results.

    Returns the deduplicated results in canonical order (scored and top-k
    restricted when the filters ask for it) together with the run counters.
    A result's root, whichever driver found it, reaches every other node
    under UNI and is its smallest node otherwise; it fills every universal
    seed-set cell. A timeout is a normal outcome flagged in ``stats.timed_out``.
    """
    check_config(cfg)
    algorithm, filters = cfg.algorithm, cfg.filters
    if not seeds.active:
        raise SeedSetError("all seed sets are universal")
    deadline = None if filters.timeout_ms is None else time.monotonic() + filters.timeout_ms / 1000.0
    stats = SearchStats()
    driver = _run_generations if algorithm in GENERATION_ALGORITHMS else _rooted_search
    found = driver(g, seeds, algorithm, filters, deadline, stats)
    results = []
    for edges, nodes in found:
        if filters.uni and edges:
            # rooted trees under UNI grow away from their root; a generation
            # tree, grown in any direction, is dropped when it has no such root
            root = directed_root(g, edges)
            if root is None:
                continue
        else:
            root = nodes[0]
        chosen = seeds.chosen_seeds(nodes)  # every non-universal set, and no other
        seed_tuple = tuple(chosen.get(i, root) for i in range(seeds.m))
        results.append(ResultTree(edges, nodes, seed_tuple, root))
    stats.results_found = len(results)
    results.sort(key=lambda rt: (len(rt.edges), rt.edges, rt.nodes))
    results = apply_score_topk(results, filters, g)
    return results, stats


# ---------------------------------------------------------------------------
# Completeness guarantees


def guaranteed_found(algorithm: str, m: int, cls: Classification) -> bool:
    """Whether the algorithm is guaranteed to report a result of this shape.

    The unpruned algorithms find everything. Edge-set pruning is complete
    for up to two seed sets; re-rooting extends that to results whose pieces
    are all paths; sparing extends it to single-piece spiders; the combined
    algorithm is complete for up to three seed sets and finds every result
    whose pieces all have at most three leaves or are all spiders.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm in GENERATION_ALGORITHMS or algorithm == "gam":
        return True
    if algorithm == "esp":
        return m <= 2
    if algorithm == "moesp":
        return m <= 2 or cls.max_piece_leaves <= 2
    if algorithm == "lesp":
        return m <= 2 or (len(cls.pieces) == 1 and cls.piece_is_spider[0])
    # molesp
    return m <= 3 or cls.max_piece_leaves <= 3 or cls.all_spiders
