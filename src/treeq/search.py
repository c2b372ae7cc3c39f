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
nodes (``lesp``); ``molesp`` combines all three.

A rooted tree does not record how it was built: the pruned variants read
only ``gained`` and ``path_anchor``, and a re-rooted copy goes straight to
``merge_all``, so it is never queued for growing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import chain, count
from typing import Callable, Iterable, Iterator, NamedTuple

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
    path_anchor: int | None = None
    gained: bool = False


class _GenTree(NamedTuple):
    key: tuple[int, ...]
    nodes: frozenset[int]
    covered: int
    nbits: int  # one bit per node, numbered by when the search first reached it
    ebits: int  # one bit per edge, numbered the same way; the deduplication identity
    loose: int  # the nbits of the leaves that are no seeds


# ---------------------------------------------------------------------------
# Score functions

_SCORES: dict[str, tuple[Callable, bool]] = {}


def register_score(name: str, fn: Callable, batch: bool = False) -> None:
    """Register a score function.

    Per-result functions take ``(result, graph)`` and return a float. Batch
    functions (``batch=True``) take the full result list after the search
    ends and return one float per result, for scores that can only be
    computed once all results are known.
    """
    _SCORES[name] = (fn, batch)


register_score("edgecount", lambda rt, g: float(-len(rt.edges)))
register_score("unit", lambda rt, g: 0.0)


def apply_score_topk(results: list[ResultTree], filters: CtpFilters, g: Graph | None = None) -> list[ResultTree]:
    """Attach scores and keep the k best; ties break on the edge-set key."""
    if filters.score is None:
        return list(results)
    if filters.score not in _SCORES:
        raise ValueError(f"unknown score function {filters.score!r}")
    fn, batch = _SCORES[filters.score]
    if batch:
        scores = list(fn(list(results), g))
        if len(scores) != len(results):
            raise ValueError(f"score {filters.score!r} returned {len(scores)} scores for {len(results)} results")
        scored = [replace(rt, score=float(s)) for rt, s in zip(results, scores, strict=True)]
    else:
        scored = [replace(rt, score=float(fn(rt, g))) for rt in results]
    scored.sort(key=lambda rt: (-rt.score, rt.edges, rt.nodes))
    if filters.top_k is not None:
        scored = scored[: filters.top_k]
    return scored


def _priority(t: RootedTree, e: int) -> tuple:
    """Queue order of a grow pair: smaller trees first, ties broken canonically."""
    return (len(t.key), t.key, t.root, e)


# ---------------------------------------------------------------------------
# Search state


class SearchState:
    """The bookkeeping both search drivers share; owned by a single execution."""

    def __init__(self, g: Graph, seeds: SeedSets, cfg: SearchConfig) -> None:
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
        if not seeds.active:
            raise SeedSetError("all seed sets are universal")
        if cfg.filters.top_k is not None and cfg.filters.score is None:
            raise ValueError("TOP requires SCORE")
        if cfg.filters.score is not None and cfg.filters.score not in _SCORES:
            raise ValueError(f"unknown score function {cfg.filters.score!r}")
        self.graph = g
        self.seeds = seeds
        self.cfg = cfg
        self.stats = SearchStats()

        f = cfg.filters
        self.uni = f.uni
        self.labels_ok = f.labels
        self.max_edges = f.max_edges
        self.deadline: float | None = (
            time.monotonic() + f.timeout_ms / 1000.0 if f.timeout_ms is not None else None
        )
        #: the ascending (edges, nodes) of every tree that covers all seed sets
        self.results: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def deadline_passed(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


class RootedState(SearchState):
    """Adds the grow queues, the pruning history and the merge partners of rooted search."""

    def __init__(self, g: Graph, seeds: SeedSets, cfg: SearchConfig) -> None:
        super().__init__(g, seeds, cfg)
        sizes = [len(seeds.sets[i]) for i in seeds.active]
        self.multi_queue = max(sizes) >= MULTI_QUEUE_RATIO * min(sizes)
        # re-rooted copies break the root-reaches-all invariant of UNI trees
        self.reroot_enabled = cfg.algorithm in ("moesp", "molesp") and not self.uni
        self.edge_set_pruned = cfg.algorithm in EDGE_SET_PRUNED
        self.spares_merges = cfg.algorithm in ("lesp", "molesp")

        self.queues: dict[int, list[tuple]] = {}
        self.hist: set = set()
        # root -> covered mask -> [(record number, tree), ...] in record order
        self.by_root: dict[int, dict[int, list[tuple[int, RootedTree]]]] = {}
        self.records = 0
        self.rooted_keys: set[tuple] = set()
        self.signatures: dict[int, int] = {}

    def push_pair(self, t: RootedTree, e: int, far: int, far_bits: int) -> None:
        """Queue growing ``t`` by ``e`` to ``far``, as ``admissible_edges`` yielded them."""
        bucket = t.covered if self.multi_queue else 0
        # (key, root, e) is unique per pair, so entries never compare past e
        heappush(self.queues.setdefault(bucket, []), _priority(t, e) + (t, far, far_bits))

    def pop_pair(self) -> tuple[RootedTree, int, int, int] | None:
        """Pop ``(t, e, far, far_bits)`` from the queue with the fewest pending
        pairs (ties on the bucket), best entry first.

        A drained queue is deleted, so a lone queue is taken without a scan.
        """
        queues = self.queues
        if len(queues) == 1:
            bucket = next(iter(queues))
        elif queues:
            _, bucket = min((len(q), b) for b, q in queues.items())
        else:
            return None
        q = queues[bucket]
        entry = heappop(q)
        if not q:
            del queues[bucket]
        return entry[-3], entry[-4], entry[-2], entry[-1]


# ---------------------------------------------------------------------------
# Tree construction steps


def admissible_edges(
    state: SearchState, t: RootedTree | _GenTree, at: Iterable[int], incoming_only: bool = False
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(edge, far node, far node's seed bits)`` for every edge that may
    extend ``t`` at one of the nodes ``at``, node by node in edge-id order.

    The tree must be below the edge budget; the edge must pass the label
    filter; its far endpoint must be a new node and must not be a seed from
    an already covered set. ``incoming_only`` keeps only edges pointing into
    the node: rooted search under UNI grows at the root this way, so every
    tree stays a directed tree away from its root.
    """
    if state.max_edges is not None and len(t.key) >= state.max_edges:
        return
    g, labels_ok, bits = state.graph, state.labels_ok, state.seeds.node_bits.get
    for n in at:
        for e in g.incoming_edges(n) if incoming_only else g.adjacent_edges(n):
            edge = g.edges[e]
            if labels_ok is not None and edge.label not in labels_ok:
                continue
            far = edge.source if edge.target == n else edge.target
            if far in t.nodes:
                continue
            far_bits = bits(far, 0)
            if far_bits & t.covered:
                continue
            yield e, far, far_bits


def try_grow(state: RootedState, t: RootedTree, e: int, far: int, far_bits: int) -> RootedTree | None:
    """Extend ``t`` at its root with edge ``e`` to node ``far`` (seed bits
    ``far_bits``), as ``admissible_edges`` admitted them.

    Returns None, and builds nothing, when deduplication prunes the grown
    tree. The far node's seed signature is updated either way.
    """
    key = tuple(sorted(t.key + (e,)))
    anchor = None if far_bits else t.path_anchor
    if anchor is not None:
        # a nonempty root-ended path from a single seed marks its root as reached
        state.signatures[far] = state.signatures.get(far, 0) | state.seeds.node_bits.get(anchor, 0)
    if not is_new(state, key, far, merge=False):
        state.stats.trees_pruned += 1
        return None
    # far's seed sets are not covered by t yet, so any seed bit is a gain
    return RootedTree(key, far, t.nodes | {far}, t.covered | far_bits, anchor, far_bits != 0)


def mergeable(state: SearchState, t1: RootedTree | _GenTree, t2: RootedTree | _GenTree) -> bool:
    """Whether the union of two trees stays within the edge budget.

    Each driver first keeps only partners that share the merge node alone and
    whose covered seed sets overlap at most in that node's own seed bits. The
    seed sets are tested first, on integer masks, since most partners fail
    there (a set covered through two different nodes would put two of its
    seeds in the union).
    """
    return state.max_edges is None or len(t1.key) + len(t2.key) <= state.max_edges


def _union(t1: RootedTree, t2: RootedTree, key: tuple[int, ...]) -> RootedTree:
    """The merge of ``t1`` and ``t2`` at ``t1``'s root; ``key`` is their sorted edge union."""
    covered = t1.covered | t2.covered
    return RootedTree(
        key=key,
        root=t1.root,
        nodes=t1.nodes | t2.nodes,
        covered=covered,
        gained=covered.bit_count() > max(t1.covered.bit_count(), t2.covered.bit_count()),
    )


def merge_partners(state: RootedState, t1: RootedTree) -> list[RootedTree]:
    """The trees recorded at ``t1``'s root that ``t1`` may merge with, in record order.

    A partner must have an edge, may share seed sets with ``t1`` only through
    the root, must share no node but the root, and must pass ``mergeable``.
    Only the covered-mask buckets with no clashing seed set are scanned;
    the records of several buckets are sorted back into record order. The
    list is a snapshot: merging records more trees at the root.
    """
    root, nodes = t1.root, t1.nodes
    clash = t1.covered & ~state.seeds.node_bits.get(root, 0)
    lists = [records for mask, records in state.by_root.get(root, {}).items() if not mask & clash]
    records = lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))
    return [t2 for _, t2 in records if t2.key and len(nodes & t2.nodes) == 1 and mergeable(state, t1, t2)]


# ---------------------------------------------------------------------------
# Deduplication and bookkeeping


def is_new(state: RootedState, key: tuple[int, ...], root: int, merge: bool) -> bool:
    """Decide whether a grown or merged tree would survive deduplication.

    It is asked before the tree is built. Plain rooted search discards a
    tree only when the identical rooted tree (same edge set and root) was
    seen before. Edge-set pruning discards any tree whose edge set was seen
    under any root. The limited variants spare a merge tree when its root
    already has seed-rooted paths from three or more sets and three or more
    adjacent graph edges, unless the identical rooted tree is already
    recorded.
    """
    if not state.edge_set_pruned:
        return (key, root) not in state.hist
    if key not in state.hist:
        return True
    return (
        state.spares_merges
        and merge
        and state.signatures.get(root, 0).bit_count() >= 3
        and state.graph.degree(root) >= 3
        and (key, root) not in state.rooted_keys
    )


def _record_result(state: SearchState, edges: tuple[int, ...], nodes: frozenset[int]) -> None:
    """File a tree covering every seed set (``edges`` ascending); ``run_search`` builds the results."""
    state.results.add((edges, tuple(sorted(nodes))))


def record_for_merging(state: RootedState, t: RootedTree) -> None:
    """Make ``t`` available as a merge partner; inject re-rooted copies.

    When re-rooting is on and the step that built ``t`` covered strictly more
    seed sets than each of its inputs, a copy of the tree rooted at every
    other seed node is recorded and immediately merged; such copies merge
    but never grow.
    """
    record_partner(state, t)
    if not (state.reroot_enabled and t.gained):
        return
    for n in sorted(t.nodes):
        if n == t.root or not state.seeds.bits(n):
            continue
        if (t.key, n) in state.rooted_keys:
            continue
        copy = RootedTree(t.key, n, t.nodes, t.covered)
        state.stats.provenances_built += 1
        record_partner(state, copy)
        merge_all(state, copy)


def record_partner(state: RootedState, t: RootedTree) -> None:
    """File ``t`` as a merge partner at its root, after every earlier record."""
    state.records += 1
    entry = (state.records, t)
    buckets = state.by_root.get(t.root)
    if buckets is None:
        state.by_root[t.root] = {t.covered: [entry]}
    else:
        buckets.setdefault(t.covered, []).append(entry)
    state.rooted_keys.add((t.key, t.root))


def process_tree(state: RootedState, t: RootedTree) -> bool:
    """Report a tree that survived deduplication, or record it and queue its grow steps.

    Returns True when the tree was recorded, so the caller merges it.
    """
    state.stats.provenances_built += 1
    state.hist.add(t.key if state.edge_set_pruned else (t.key, t.root))
    if t.covered == state.seeds.full_mask:
        _record_result(state, t.key, t.nodes)
        return False
    record_for_merging(state, t)
    for e, far, far_bits in admissible_edges(state, t, (t.root,), incoming_only=state.uni):
        state.push_pair(t, e, far, far_bits)
    return True


def merge_all(state: RootedState, t: RootedTree) -> None:
    """Merge ``t`` and every merge product against the recorded trees, to fixpoint."""
    pending = [t]
    while pending:
        if state.deadline_passed():
            return
        current = pending
        pending = []
        for t1 in current:
            for t2 in merge_partners(state, t1):
                key = tuple(sorted(t1.key + t2.key))
                if not is_new(state, key, t1.root, merge=True):
                    state.stats.trees_pruned += 1
                    continue
                merged = _union(t1, t2, key)
                if process_tree(state, merged):
                    pending.append(merged)


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


def init_search(g: Graph, seeds: SeedSets, cfg: SearchConfig) -> RootedState:
    """Create a search state with one start tree per seed of each non-universal set.

    A node belonging to several seed sets gets a single start tree covering
    all of them at once. Start trees need no deduplication: their nodes are
    distinct.
    """
    state = RootedState(g, seeds, cfg)
    for s in _start_nodes(g, seeds):
        state.signatures[s] = state.signatures.get(s, 0) | seeds.bits(s)
        process_tree(state, RootedTree((), s, frozenset((s,)), seeds.bits(s), path_anchor=s))
    return state


def _drain(state: RootedState) -> None:
    while True:
        if state.deadline_passed():
            state.stats.timed_out = True
            return
        entry = state.pop_pair()
        if entry is None:
            return
        state.stats.queue_pops += 1
        grown = try_grow(state, *entry)
        if grown is not None and process_tree(state, grown):
            merge_all(state, grown)


# ---------------------------------------------------------------------------
# Generation-based driver


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _run_generations(state: SearchState) -> None:
    g, seeds, cfg, stats = state.graph, state.seeds, state.cfg, state.stats
    full_mask = seeds.full_mask
    merging = cfg.algorithm in ("bft_m", "bft_am")
    aggressive = cfg.algorithm == "bft_am"
    # the edge sets seen so far; start trees have none and are all distinct
    memory: set[int] = set()
    # merge partners bucketed by (shared node, covered mask), then grouped by
    # node set: only buckets whose covered sets cannot collide outside the
    # shared node are reached, and only groups sharing that node alone are read
    by_node_cov: dict[tuple[int, int], dict[int, list[tuple[int, _GenTree]]]] = {}
    record_numbers = count()
    # per-search node and edge bits stay as wide as the reached part of the graph
    bit_of: dict[int, int] = {}
    ebit_of: dict[int, int] = {}

    def report(t: _GenTree) -> None:
        # A full-cover tree T with a leaf that is no seed (a bit in loose) is
        # skipped, since M = minimize(T) is generated and reported on its own.
        # The nodes of T have pairwise disjoint seed masks (the grow step and
        # the merge filters enforce this), and M is a subtree of T whose
        # leaves are all seeds. So growing from one seed leaf along M's edges
        # passes admissible_edges at every step: M is no larger than T for MAX
        # and LABEL, the far node is new, and its seed bits are not covered
        # yet. No proper subtree of M covers every set (a missing seed leaf
        # would repeat a set it covers), so no step of that growth stops
        # early; memory keeps the first sighting of each step, and that
        # sighting is grown in the next generation. Under a deadline bft_m and
        # bft_am may miss M (the result is partial): a merge can build T in an
        # earlier generation than M. bft cannot, since M is smaller and comes
        # first.
        if t.loose:
            return
        # minimize is the tree check: a tree whose leaves are all seeds comes back unchanged
        minimize(g, t.key, seeds)
        _record_result(state, t.key, t.nodes)

    def keep(t: _GenTree) -> bool:
        """Count a tree that passed deduplication; report it if it covers every set, else keep it."""
        stats.provenances_built += 1
        if t.covered == full_mask:
            report(t)
            return False
        return True

    def index(t: _GenTree) -> None:
        entry = (next(record_numbers), t)
        for n in t.nodes:
            by_node_cov.setdefault((n, t.covered), {}).setdefault(t.nbits, []).append(entry)

    def merge_round(t: _GenTree, generation: list[_GenTree]) -> None:
        queue = [t]
        for cur in queue:  # bft_am appends merge products while iterating
            cur_nbits, cur_ebits = cur.nbits, cur.ebits
            for n in sorted(cur.nodes):
                n_bit = bit_of[n]
                allowed = full_mask & ~(cur.covered & ~seeds.bits(n))
                for mask in _submasks(allowed):
                    groups = by_node_cov.get((n, mask))
                    if groups is None:
                        continue
                    # the trees of one node set have as many edges, so one of them stands for all
                    lists = [
                        records
                        for nbits, records in groups.items()
                        if nbits & cur_nbits == n_bit and mergeable(state, cur, records[0][1])
                    ]
                    if not lists:
                        continue
                    for _, partner in list(lists[0]) if len(lists) == 1 else sorted(chain.from_iterable(lists)):
                        ebits = cur_ebits | partner.ebits
                        if ebits in memory:
                            stats.trees_pruned += 1
                            continue
                        memory.add(ebits)
                        merged = _GenTree(
                            tuple(sorted(cur.key + partner.key)),
                            cur.nodes | partner.nodes,
                            cur.covered | partner.covered,
                            cur_nbits | partner.nbits,
                            ebits,
                            (cur.loose | partner.loose) & ~n_bit,  # n has an edge on both sides
                        )
                        if keep(merged):
                            generation.append(merged)
                            index(merged)
                            if aggressive:
                                queue.append(merged)

    current: list[_GenTree] = []
    for s in _start_nodes(g, seeds):
        t = _GenTree((), frozenset((s,)), seeds.bits(s), bit_of.setdefault(s, 1 << len(bit_of)), 0, 0)
        if keep(t):
            current.append(t)

    edges = g.edges
    while current:
        nxt: list[_GenTree] = []
        for t in current:
            if state.deadline_passed():
                stats.timed_out = True
                return
            for e, far, far_bits in admissible_edges(state, t, sorted(t.nodes)):
                ebits = t.ebits | ebit_of.setdefault(e, 1 << len(ebit_of))
                if ebits in memory:
                    stats.trees_pruned += 1
                    continue
                memory.add(ebits)
                far_bit = bit_of.setdefault(far, 1 << len(bit_of))
                edge = edges[e]
                # the near end stops being a leaf; a start tree's only node is a seed
                loose = t.loose & ~bit_of[edge.source if edge.target == far else edge.target]
                grown = _GenTree(
                    tuple(sorted(t.key + (e,))),
                    t.nodes | {far},
                    t.covered | far_bits,
                    t.nbits | far_bit,
                    ebits,
                    loose if far_bits else loose | far_bit,
                )
                if keep(grown):
                    nxt.append(grown)
                    if merging:
                        index(grown)
                        merge_round(grown, nxt)
        current = nxt


# ---------------------------------------------------------------------------
# Entry point


def run_search(g: Graph, seeds: SeedSets, cfg: SearchConfig) -> tuple[list[ResultTree], SearchStats]:
    """Run the configured algorithm to exhaustion (or deadline) and report results.

    Returns the deduplicated results in canonical order (scored and top-k
    restricted when the filters ask for it) together with the run counters.
    A result's root, whichever driver found it, reaches every other node
    under UNI and is its smallest node otherwise; it fills every universal
    seed-set cell. A timeout is a normal outcome flagged in ``stats.timed_out``.
    """
    if cfg.algorithm in GENERATION_ALGORITHMS:
        state = SearchState(g, seeds, cfg)
        _run_generations(state)
    else:
        state = init_search(g, seeds, cfg)
        _drain(state)
    results = []
    for edges, nodes in state.results:
        if state.uni and edges:
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
    state.stats.results_found = len(results)
    results.sort(key=lambda rt: (len(rt.edges), rt.edges, rt.nodes))
    results = apply_score_topk(results, cfg.filters, g)
    return results, state.stats


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
