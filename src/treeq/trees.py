"""Seed sets, result trees, and the classification and minimization of results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .graph import Graph


class SeedSetError(ValueError):
    pass


class SeedSets:
    """The m groups of candidate leaf nodes a connecting tree must touch.

    A set flagged universal stands for all graph nodes: it imposes no
    constraint on results and contributes no start trees; the tree's root
    represents it in a result tuple. Non-universal sets are mapped to bit
    positions so tree bookkeeping can use integer masks.
    """

    def __init__(self, sets: Sequence[Iterable[int]], universal: Sequence[bool] | None = None) -> None:
        self.sets: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in sets)
        self.universal: tuple[bool, ...] = tuple(universal) if universal is not None else (False,) * len(self.sets)
        if len(self.universal) != len(self.sets):
            raise SeedSetError("universal flags must match the number of seed sets")
        if not self.sets:
            raise SeedSetError("at least one seed set is required")
        for i, (s, u) in enumerate(zip(self.sets, self.universal)):
            if not u and not s:
                raise SeedSetError(f"seed set {i} is empty")
        self.m = len(self.sets)
        #: original indices of the non-universal sets, in order
        self.active: tuple[int, ...] = tuple(i for i, u in enumerate(self.universal) if not u)
        self.full_mask = (1 << len(self.active)) - 1
        #: seed node -> mask of the non-universal sets holding it; read
        #: ``node_bits.get(n, 0)``, which is 0 for a node that is no seed
        self.node_bits: dict[int, int] = {}
        for bit, orig in enumerate(self.active):
            for n in self.sets[orig]:
                self.node_bits[n] = self.node_bits.get(n, 0) | (1 << bit)
        self._seed_nodes = frozenset(self.node_bits)

    def seed_nodes(self) -> frozenset[int]:
        """Every node of a non-universal set."""
        return self._seed_nodes

    def sets_of_mask(self, mask: int) -> list[int]:
        """Original indices of the non-universal sets whose bits are set in ``mask``."""
        return [orig for bit, orig in enumerate(self.active) if mask >> bit & 1]

    def chosen_seeds(self, nodes: Iterable[int]) -> dict[int, int]:
        """Map original set index -> the unique member node among ``nodes``."""
        chosen: dict[int, int] = {}
        bits = self.node_bits.get
        for n in nodes:
            mask = bits(n, 0)
            if not mask:
                continue
            for orig in self.sets_of_mask(mask):
                chosen[orig] = n
        return chosen


@dataclass(frozen=True)
class ResultTree:
    """A reported connecting tree: edge set plus its seed tuple."""

    edges: tuple[int, ...]  # ascending
    nodes: tuple[int, ...]  # ascending
    seed_tuple: tuple[int, ...]  # one node per seed set (universal: the root)
    root: int  # reaches every other node under UNI, else the smallest node
    score: float | None = None

    def identity(self) -> tuple:
        return self.edges if self.edges else ("node", self.nodes[0])


def _tree_adjacency(g: Graph, edges: Iterable[int]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for eid in edges:
        e = g.edges[eid]
        adj.setdefault(e.source, set()).add(eid)
        adj.setdefault(e.target, set()).add(eid)
    return adj


def _check_tree(g: Graph, edges: Collection[int], adj: dict[int, set[int]]) -> None:
    if not edges:
        return
    if len(adj) != len(edges) + 1:
        raise ValueError("edge set is not a tree")
    # connectivity: walk from any node
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for eid in adj[n]:
            other = g.other_endpoint(eid, n)
            if other not in seen:
                seen.add(other)
                stack.append(other)
    if len(seen) != len(adj):
        raise ValueError("edge set is not connected")


def minimize(g: Graph, edges: Iterable[int], seeds: SeedSets) -> frozenset[int]:
    """Iteratively drop non-seed leaves until every leaf is a seed.

    Leaf pruning on a tree is confluent, so the result is unique regardless
    of removal order.
    """
    edge_set = set(edges)
    adj = _tree_adjacency(g, edge_set)
    _check_tree(g, edge_set, adj)
    seed_nodes = seeds.seed_nodes()
    leaves = [n for n, eids in adj.items() if len(eids) == 1 and n not in seed_nodes]
    while leaves:
        leaf = leaves.pop()
        if not adj[leaf]:
            continue  # the single node left of a tree without seeds
        (eid,) = adj.pop(leaf)
        edge_set.discard(eid)
        other = g.other_endpoint(eid, leaf)
        adj[other].discard(eid)
        if len(adj[other]) == 1 and other not in seed_nodes:
            leaves.append(other)
    return frozenset(edge_set)


@dataclass(frozen=True)
class Classification:
    """Decomposition of a result into simple pieces split at internal seeds."""

    pieces: tuple[tuple[int, ...], ...]  # edge ids per piece
    piece_is_spider: tuple[bool, ...]  # piece is paths merged at one non-seed center
    max_piece_leaves: int  # 0 for single-node results

    @property
    def all_spiders(self) -> bool:
        return all(self.piece_is_spider)


def classify_result(g: Graph, edges: Iterable[int], seeds: SeedSets) -> Classification:
    """Split a result at its internal seed nodes and describe the pieces.

    Each piece is a simple edge set: its leaves are seeds and its internal
    nodes are not. A piece counts as a spider when it consists of paths
    radiating from a single non-seed center (a path piece of two or more
    edges qualifies; a single shared edge between two seeds does not).
    """
    edge_list = tuple(sorted(set(edges)))
    adj = _tree_adjacency(g, edge_list)
    _check_tree(g, edge_list, adj)
    seed_nodes = seeds.seed_nodes()
    if edge_list:
        chosen = seeds.chosen_seeds(adj.keys())
        if len(chosen) != len(seeds.active):
            raise ValueError("not a result tree: some seed set has no seed in it")
        for n, eids in adj.items():
            if len(eids) == 1 and n not in seed_nodes:
                raise ValueError("not a result tree: a leaf is not a seed")
        counts: dict[int, int] = {}
        for n in adj:
            for orig in seeds.sets_of_mask(seeds.node_bits.get(n, 0)):
                counts[orig] = counts.get(orig, 0) + 1
        if any(c > 1 for c in counts.values()):
            raise ValueError("not a result tree: two seeds from one set")

    # group edges into pieces: edges sharing a non-seed node belong together
    parent: dict[int, int] = {eid: eid for eid in edge_list}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for n, eids in adj.items():
        if n in seed_nodes:
            continue
        first, *rest = eids
        for other in rest:
            ra, rb = find(first), find(other)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for eid in edge_list:
        groups.setdefault(find(eid), []).append(eid)
    pieces = tuple(tuple(sorted(grp)) for grp in sorted(groups.values(), key=min))

    piece_leaves = []
    piece_is_spider = []
    for piece in pieces:
        degree: dict[int, int] = {}
        for eid in piece:
            e = g.edges[eid]
            degree[e.source] = degree.get(e.source, 0) + 1
            degree[e.target] = degree.get(e.target, 0) + 1
        leaves = sum(1 for d in degree.values() if d == 1)
        branch_nodes = sum(1 for d in degree.values() if d >= 3)
        if branch_nodes == 1:
            spider = True  # the single branch node is internal, hence not a seed
        elif branch_nodes == 0:
            spider = len(piece) >= 2  # a path needs an interior non-seed as center
        else:
            spider = False
        piece_leaves.append(leaves)
        piece_is_spider.append(spider)

    return Classification(
        pieces=pieces,
        piece_is_spider=tuple(piece_is_spider),
        max_piece_leaves=max(piece_leaves, default=0),
    )
