"""Best-first tree search over seed sets: the full algorithm family.

Two families share the soundness conditions (a tree never repeats a node,
and never holds two seeds from one set):

* generation-based search (``bft``, ``bft_m``, ``bft_am``): unrooted edge
  sets grown breadth-first from any tree node, minimized before reporting;
* rooted search (``gam``, ``esp``, ``moesp``, ``lesp``, ``molesp``): trees
  grow only at their root via a priority queue of (tree, edge) pairs and
  merge with previously recorded trees sharing that root.

The pruned variants deduplicate by edge set alone (``esp``), optionally
re-root newly completed trees at their seeds to keep merge opportunities
alive (``moesp``), and spare merge trees from pruning at well-connected
nodes (``lesp``); ``molesp`` combines all three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import Graph
from .lang import CtpFilters
from .trees import (
    GROW,
    INIT,
    MERGE,
    REROOT,
    Classification,
    ResultTree,
    RootedTree,
    SeedSetError,
    SeedSets,
    directed_root,
    is_result,
    minimize,
)

ALGORITHMS = ("bft", "bft_m", "bft_am", "gam", "esp", "moesp", "lesp", "molesp")
GENERATION_ALGORITHMS = ("bft", "bft_m", "bft_am")
EDGE_SET_PRUNED = ("esp", "moesp", "lesp", "molesp")

# process_tree outcomes
PRUNED = "pruned"
RESULT = "result"
RECORDED = "recorded"

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
        scores = fn(list(results), g)
        scored = [replace(rt, score=float(s)) for rt, s in zip(results, scores)]
    else:
        scored = [replace(rt, score=float(fn(rt, g))) for rt in results]
    scored.sort(key=lambda rt: (-rt.score, rt.edges, rt.nodes))
    if filters.top_k is not None:
        scored = scored[: filters.top_k]
    return scored


def _priority(t: RootedTree, e: int) -> tuple:
    """Queue order of a grow pair: smaller trees first, ties broken canonically."""
    return (t.size(), t.key, t.root, e)


# ---------------------------------------------------------------------------
# Search state


class SearchState:
    """The bookkeeping both search drivers share; owned by a single execution."""

    def __init__(self, g: Graph, seeds: SeedSets, cfg: SearchConfig) -> None:
        if cfg.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
        if not seeds.active:
            raise SeedSetError("all seed sets are universal")
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
        self.results: dict[tuple, ResultTree] = {}

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

        self.queues: dict[int, list[tuple]] = {}
        self.hist: set = set()
        self.by_root: dict[int, list[RootedTree]] = {}
        self.rooted_keys: set[tuple] = set()
        self.signatures: dict[int, int] = {}

    def push_pair(self, t: RootedTree, e: int) -> None:
        bucket = t.covered if self.multi_queue else 0
        # (key, root, e) is unique per pair, so entries never compare trees
        heappush(self.queues.setdefault(bucket, []), _priority(t, e) + (t,))

    def pop_pair(self) -> tuple[RootedTree, int] | None:
        """Pop from the queue with the fewest pending pairs, best entry first."""
        live = [(len(q), bucket) for bucket, q in self.queues.items() if q]
        if not live:
            return None
        _, bucket = min(live)
        entry = heappop(self.queues[bucket])
        return entry[-1], entry[-2]


# ---------------------------------------------------------------------------
# Tree construction steps


def _make_init(seeds: SeedSets, node: int) -> RootedTree:
    return RootedTree(
        key=(),
        root=node,
        nodes=frozenset((node,)),
        covered=seeds.bits(node),
        kind=INIT,
        path_anchor=node,
    )


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
    g, labels_ok, bits = state.graph, state.labels_ok, state.seeds.bits
    for n in at:
        for e in g.incoming_edges(n) if incoming_only else g.adjacent_edges(n):
            edge = g.edges[e]
            if labels_ok is not None and edge.label not in labels_ok:
                continue
            far = edge.source if edge.target == n else edge.target
            if far in t.nodes:
                continue
            far_bits = bits(far)
            if far_bits & t.covered:
                continue
            yield e, far, far_bits


def try_grow(state: SearchState, t: RootedTree, e: int) -> RootedTree:
    """Extend ``t`` at its root with edge ``e``, which ``admissible_edges`` admitted."""
    far = state.graph.other_endpoint(e, t.root)
    far_bits = state.seeds.bits(far)
    covered = t.covered | far_bits
    return RootedTree(
        key=tuple(sorted(t.key + (e,))),
        root=far,
        nodes=t.nodes | {far},
        covered=covered,
        kind=GROW,
        path_anchor=t.path_anchor if far_bits == 0 else None,
        gained=covered.bit_count() > t.covered.bit_count(),
    )


def mergeable(state: SearchState, t1: RootedTree | _GenTree, t2: RootedTree | _GenTree) -> bool:
    """Whether the union of two trees stays within the edge budget.

    Each driver first keeps only partners that share the merge node alone and
    whose covered seed sets overlap at most in that node's own seed bits. The
    seed sets are tested first, on integer masks, since most partners fail
    there (a set covered through two different nodes would put two of its
    seeds in the union).
    """
    return state.max_edges is None or len(t1.key) + len(t2.key) <= state.max_edges


def _union(t1: RootedTree, t2: RootedTree) -> RootedTree:
    covered = t1.covered | t2.covered
    return RootedTree(
        key=tuple(sorted(t1.key + t2.key)),
        root=t1.root,
        nodes=t1.nodes | t2.nodes,
        covered=covered,
        kind=MERGE,
        path_anchor=None,
        gained=covered.bit_count() > max(t1.covered.bit_count(), t2.covered.bit_count()),
    )


def merge_partners(state: RootedState, t1: RootedTree) -> list[RootedTree]:
    """The trees recorded at ``t1``'s root that ``t1`` may merge with, in record order.

    A partner must have an edge, may share seed sets with ``t1`` only through
    the root, must share no node but the root, and must pass ``mergeable``.
    The list is a snapshot: merging records more trees at the root.
    """
    root, nodes = t1.root, t1.nodes
    clash = t1.covered & ~state.seeds.bits(root)
    return [
        t2
        for t2 in state.by_root.get(root, ())
        if t2.key and not t2.covered & clash and len(nodes & t2.nodes) == 1 and mergeable(state, t1, t2)
    ]


# ---------------------------------------------------------------------------
# Deduplication and bookkeeping


def is_new(state: RootedState, t: RootedTree) -> bool:
    """Decide whether a freshly built tree survives deduplication.

    Plain rooted search discards a tree only when the identical rooted tree
    (same edge set and root) was seen before. Edge-set pruning discards any
    tree whose nonempty edge set was seen under any root. The limited
    variants spare a merge tree when its root already has seed-rooted paths
    from three or more sets and three or more adjacent graph edges, unless
    the identical rooted tree is already recorded.
    """
    algo = state.cfg.algorithm
    if algo not in EDGE_SET_PRUNED:
        return (t.key, t.root) not in state.hist
    if not t.key:
        return True
    if t.key not in state.hist:
        return True
    if algo in ("lesp", "molesp") and t.kind == MERGE:
        if (
            state.signatures.get(t.root, 0).bit_count() >= 3
            and state.graph.degree(t.root) >= 3
            and (t.key, t.root) not in state.rooted_keys
        ):
            return True
    return False


def _hist_add(state: RootedState, t: RootedTree) -> None:
    if state.cfg.algorithm in EDGE_SET_PRUNED:
        if t.key:
            state.hist.add(t.key)
    else:
        state.hist.add((t.key, t.root))


def _update_signature(state: RootedState, t: RootedTree) -> None:
    # a nonempty root-ended path from a single seed marks its root as reached
    if t.path_anchor is not None and t.key:
        bits = state.seeds.bits(t.path_anchor)
        state.signatures[t.root] = state.signatures.get(t.root, 0) | bits


def _record_result(state: SearchState, edges: tuple[int, ...], nodes: Iterable[int], rep: int) -> None:
    """Report a tree covering every seed set, once per identity.

    ``edges`` is ascending; ``rep`` is the tree's root and stands in for
    every universal seed set in the seed tuple.
    """
    seeds = state.seeds
    nodes = tuple(sorted(nodes))
    chosen = seeds.chosen_seeds(nodes)
    seed_tuple = tuple(chosen[i] if not seeds.universal[i] else rep for i in range(seeds.m))
    rt = ResultTree(edges, nodes, seed_tuple, rep)
    ident = rt.identity()
    if ident not in state.results:
        state.results[ident] = rt
        state.stats.results_found += 1


def record_for_merging(state: RootedState, t: RootedTree) -> None:
    """Make ``t`` available as a merge partner; inject re-rooted copies.

    When re-rooting is on and this step covered strictly more seed sets than
    each of its inputs, a copy of the tree rooted at every other seed node
    is recorded and immediately merged; such copies merge but never grow.
    """
    state.by_root.setdefault(t.root, []).append(t)
    state.rooted_keys.add((t.key, t.root))
    if not (state.reroot_enabled and t.gained and t.kind in (GROW, MERGE)):
        return
    for n in sorted(t.nodes):
        if n == t.root or not state.seeds.bits(n):
            continue
        if (t.key, n) in state.rooted_keys:
            continue
        copy = RootedTree(t.key, n, t.nodes, t.covered, REROOT)
        state.stats.provenances_built += 1
        state.by_root.setdefault(n, []).append(copy)
        state.rooted_keys.add((t.key, n))
        merge_all(state, copy)


def _enqueue_grow_pairs(state: RootedState, t: RootedTree) -> None:
    for e, _, _ in admissible_edges(state, t, (t.root,), incoming_only=state.uni):
        state.push_pair(t, e)


def process_tree(state: RootedState, t: RootedTree) -> str:
    """Deduplicate, then report or record a tree and queue its grow steps."""
    if not is_new(state, t):
        state.stats.trees_pruned += 1
        return PRUNED
    state.stats.provenances_built += 1
    _hist_add(state, t)
    if is_result(t, state.seeds):
        _record_result(state, t.key, t.nodes, t.root)
        return RESULT
    record_for_merging(state, t)
    if t.kind != REROOT:
        _enqueue_grow_pairs(state, t)
    return RECORDED


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
                merged = _union(t1, t2)
                if process_tree(state, merged) == RECORDED:
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
    all of them at once.
    """
    state = RootedState(g, seeds, cfg)
    for s in _start_nodes(g, seeds):
        state.signatures[s] = state.signatures.get(s, 0) | seeds.bits(s)
        process_tree(state, _make_init(seeds, s))
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
        t, e = entry
        grown = try_grow(state, t, e)
        _update_signature(state, grown)
        if process_tree(state, grown) == RECORDED and grown.key:
            merge_all(state, grown)


# ---------------------------------------------------------------------------
# Generation-based driver


class _GenTree(NamedTuple):
    key: tuple[int, ...]
    nodes: frozenset[int]
    covered: int
    nbits: int  # one bit per node, numbered by when the search first reached it

    def identity(self) -> tuple:
        return self.key if self.key else ("node", min(self.nodes))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _run_generations(state: SearchState) -> None:
    g, seeds, cfg = state.graph, state.seeds, state.cfg
    merging = cfg.algorithm in ("bft_m", "bft_am")
    aggressive = cfg.algorithm == "bft_am"
    memory: set = set()
    # merge partners bucketed by (shared node, covered mask): only partners
    # whose covered sets cannot collide outside the shared node are scanned
    by_node_cov: dict[tuple[int, int], list[_GenTree]] = {}
    # per-search node bits stay as wide as the reached part of the graph
    bit_of: dict[int, int] = {}

    def report(t: _GenTree) -> None:
        minimized = minimize(g, t.key, seeds)
        nodes: set[int] = set()
        for eid in minimized:
            e = g.edges[eid]
            nodes.update((e.source, e.target))
        if not minimized:
            nodes = set(t.nodes) & seeds.seed_nodes()
        _record_result(state, tuple(sorted(minimized)), nodes, min(nodes))

    def keep(t: _GenTree) -> bool:
        ident = t.identity()
        if ident in memory:
            state.stats.trees_pruned += 1
            return False
        memory.add(ident)
        state.stats.provenances_built += 1
        if t.covered == seeds.full_mask:
            report(t)
            return False
        return True

    def index(t: _GenTree) -> None:
        for n in t.nodes:
            by_node_cov.setdefault((n, t.covered), []).append(t)

    def merge_round(t: _GenTree, generation: list[_GenTree]) -> None:
        queue = [t]
        for cur in queue:  # bft_am appends merge products while iterating
            cur_nbits = cur.nbits
            for n in sorted(cur.nodes):
                n_bit = bit_of[n]
                allowed = seeds.full_mask & ~(cur.covered & ~seeds.bits(n))
                for mask in _submasks(allowed):
                    for partner in list(by_node_cov.get((n, mask), ())):
                        if (
                            not partner.key
                            or partner.nbits & cur_nbits != n_bit  # shares more nodes than n
                            or not mergeable(state, cur, partner)
                        ):
                            continue
                        merged = _GenTree(
                            tuple(sorted(cur.key + partner.key)),
                            cur.nodes | partner.nodes,
                            cur.covered | partner.covered,
                            cur.nbits | partner.nbits,
                        )
                        if keep(merged):
                            generation.append(merged)
                            index(merged)
                            if aggressive:
                                queue.append(merged)

    current: list[_GenTree] = []
    for s in _start_nodes(g, seeds):
        t = _GenTree((), frozenset((s,)), seeds.bits(s), bit_of.setdefault(s, 1 << len(bit_of)))
        if keep(t):
            current.append(t)

    while current:
        if state.deadline_passed():
            state.stats.timed_out = True
            return
        nxt: list[_GenTree] = []
        for t in current:
            if state.deadline_passed():
                state.stats.timed_out = True
                return
            for e, far, far_bits in admissible_edges(state, t, sorted(t.nodes)):
                far_bit = bit_of.setdefault(far, 1 << len(bit_of))
                grown = _GenTree(
                    tuple(sorted(t.key + (e,))), t.nodes | {far}, t.covered | far_bits, t.nbits | far_bit
                )
                if keep(grown):
                    nxt.append(grown)
                    index(grown)
                    if merging:
                        merge_round(grown, nxt)
        current = nxt


# ---------------------------------------------------------------------------
# Entry point


def run_search(g: Graph, seeds: SeedSets, cfg: SearchConfig) -> tuple[list[ResultTree], SearchStats]:
    """Run the configured algorithm to exhaustion (or deadline) and report results.

    Returns the deduplicated results in canonical order (scored and top-k
    restricted when the filters ask for it) together with the run counters.
    A timeout is a normal outcome flagged in ``stats.timed_out``.
    """
    if cfg.algorithm in GENERATION_ALGORITHMS:
        state = SearchState(g, seeds, cfg)
        _run_generations(state)
        results = list(state.results.values())
        if state.uni:
            # generation trees grow from any node in any direction, so the
            # directed-tree restriction is applied on the reported results
            kept = []
            for rt in results:
                if not rt.edges:
                    kept.append(rt)
                    continue
                root = directed_root(g, rt.edges)
                if root is not None:
                    kept.append(replace(rt, root=root))
            results = kept
            state.stats.results_found = len(results)
    else:
        state = init_search(g, seeds, cfg)
        _drain(state)
        results = list(state.results.values())
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
