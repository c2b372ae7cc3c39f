"""Brute-force reference implementations used as independent test oracles.

These deliberately avoid the package's search and join machinery: connecting
trees are found by enumerating edge subsets, embeddings by trying all
assignments, reachability by per-root traversal.
"""

from __future__ import annotations

import itertools

from treeq.graph import Graph
from treeq.lang import EdgePattern, ValidatedQuery, satisfies
from treeq.search import SearchConfig, run_search
from treeq.trees import SeedSets


def brute_ctp(g: Graph, seeds: SeedSets) -> tuple[set[frozenset[int]], set[int]]:
    """All minimal connecting trees by exhaustive edge-subset enumeration.

    Returns (nonempty results as edge-id frozensets, single-node results).
    Only usable on small graphs (2**edges subsets).
    """
    eids = sorted(g.edges)
    seed_union = seeds.seed_nodes()
    singles = {
        n
        for n in g.nodes
        if all(len({n} & seeds.sets[i]) == 1 for i in seeds.active)
    }
    edge_sets: set[frozenset[int]] = set()
    for r in range(1, len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            nodes: set[int] = set()
            parent: dict[int, int] = {}

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            degree: dict[int, int] = {}
            for eid in combo:
                e = g.edges[eid]
                for endpoint in (e.source, e.target):
                    if endpoint not in nodes:
                        nodes.add(endpoint)
                        parent[endpoint] = endpoint
                    degree[endpoint] = degree.get(endpoint, 0) + 1
                ra, rb = find(e.source), find(e.target)
                if ra == rb:
                    acyclic = False
                    break
                parent[rb] = ra
            if not acyclic:
                continue
            if len({find(n) for n in nodes}) != 1:
                continue
            if any(len(nodes & seeds.sets[i]) != 1 for i in seeds.active):
                continue
            if any(d == 1 and n not in seed_union for n, d in degree.items()):
                continue
            edge_sets.add(frozenset(combo))
    return edge_sets, singles


def peeled_nodes(g: Graph, seeds: SeedSets) -> set[int]:
    """The nodes no result of the search can hold, by brute force.

    Nodes that are no seed of a non-universal set and have at most one
    distinct neighbour (self-loops aside) among the nodes left are dropped,
    round by round, until none is.
    """
    seed_nodes = seeds.seed_nodes()
    left = set(g.nodes)
    while True:
        drop = set()
        for n in left - seed_nodes:
            neighbours = {g.other_endpoint(e, n) for e in g.adjacent_edges(n)} & left
            if len(neighbours - {n}) <= 1:
                drop.add(n)
        if not drop:
            return set(g.nodes) - left
        left -= drop


def dead_nodes(g: Graph, seeds: SeedSets) -> set[int]:
    """The nodes a search leaves dead, by brute force: ``peeled_nodes``, and
    every maximal path of nodes that are no seed of a non-universal set and
    have exactly two distinct neighbours (self-loops aside) among the nodes
    left, when both ends of the path are seeds sharing a set. One seed at
    both ends closes a cycle; a seed shares its sets with itself. The paths
    are dropped in one round; since their ends are seeds, a second round
    would drop nothing more.
    """
    dropped = peeled_nodes(g, seeds)
    left = set(g.nodes) - dropped
    bits = seeds.node_bits

    def neighbours(n: int) -> set[int]:
        return ({g.other_endpoint(e, n) for e in g.adjacent_edges(n)} - {n}) & left

    inner = {n for n in left if n not in bits and len(neighbours(n)) == 2}
    done: set[int] = set()
    for start in inner:
        if start in done:
            continue
        path, stack = set(), [start]
        while stack:
            n = stack.pop()
            if n not in path:
                path.add(n)
                stack.extend(neighbours(n) & inner)
        done |= path
        # a path has two ends outside it (a cycle of inner nodes has none)
        ends = [x for n in path for x in neighbours(n) - inner]
        if len(ends) == 2 and bits.get(ends[0], 0) & bits.get(ends[1], 0):
            dropped |= path
    return dropped


def result_identities(results) -> set:
    return {rt.identity() for rt in results}


def oracle_identities(edge_sets: set[frozenset[int]], singles: set[int]) -> set:
    out: set = {tuple(sorted(es)) for es in edge_sets}
    out |= {("node", n) for n in singles}
    return out


def brute_bgp_rows(g: Graph, patterns: list[EdgePattern]) -> tuple[list[str], set[tuple[int, ...]]]:
    """All embeddings of the pattern list by direct assignment enumeration."""
    columns: list[str] = []
    for pat in patterns:
        for pred in pat.predicates:
            if pred.var not in columns:
                columns.append(pred.var)
    rows: set[tuple[int, ...]] = set()

    def assign(i: int, binding: dict[str, tuple[str, int]]) -> None:
        if i == len(patterns):
            rows.add(tuple(binding[v][1] for v in columns))
            return
        pat = patterns[i]
        for eid in g.edges:
            e = g.edges[eid]
            triple = ((pat.source, "node", e.source), (pat.edge, "edge", eid), (pat.target, "node", e.target))
            ok = True
            for pred, kind, value in triple:
                bound = binding.get(pred.var)
                if bound is not None and bound != (kind, value):
                    ok = False
                    break
                if not satisfies(pred, g, value, kind):
                    ok = False
                    break
            if not ok:
                continue
            extra = {}
            for pred, kind, value in triple:
                if pred.var not in binding:
                    extra[pred.var] = (kind, value)
            binding.update(extra)
            assign(i + 1, binding)
            for v in extra:
                del binding[v]

    assign(0, {})
    return columns, rows


def comparable_cell(cell) -> tuple:
    if isinstance(cell, int):
        return ("elem", cell)
    return ("tree", cell.edges, cell.nodes)


def def14_rows(g: Graph, vq: ValidatedQuery) -> set[tuple]:
    """Query semantics computed directly: brute-force embeddings, exhaustive
    baseline searches for the tree patterns, then a nested-loop join."""
    ast = vq.ast
    patterns = [p for b in ast.bgps for p in b.patterns]
    if patterns:
        phi_columns, phi_rows = brute_bgp_rows(g, patterns)
    else:
        phi_columns, phi_rows = [], {()}

    joined: list[dict[str, tuple]] = []
    for row in phi_rows:
        joined.append({v: ("elem", val) for v, val in zip(phi_columns, row)})

    for ctp in ast.ctps:
        sets = []
        universal = []
        for member in ctp.members:
            if member.var in phi_columns:
                idx = phi_columns.index(member.var)
                nodes = {row[idx] for row in phi_rows}
                if member.conditions:
                    nodes = {n for n in nodes if satisfies(member, g, n, "node")}
                sets.append(nodes)
                universal.append(False)
            elif member.conditions:
                sets.append({n for n in g.nodes if satisfies(member, g, n, "node")})
                universal.append(False)
            else:
                sets.append(set())
                universal.append(True)
        if any(not s and not u for s, u in zip(sets, universal)):
            return set()
        seeds = SeedSets(sets, universal)
        results, _ = run_search(g, seeds, SearchConfig(algorithm="bft", filters=ctp.filters))
        new_joined = []
        for binding in joined:
            for rt in results:
                merged = dict(binding)
                ok = True
                for member, value in zip(ctp.members, rt.seed_tuple):
                    prior = merged.get(member.var)
                    if prior is not None and prior != ("elem", value):
                        ok = False
                        break
                    merged[member.var] = ("elem", value)
                if not ok:
                    continue
                merged[ctp.tree_var] = ("tree", rt.edges, rt.nodes)
                new_joined.append(merged)
        joined = new_joined

    return {tuple(binding[v] for v in ast.head) for binding in joined}


def reaches_all(g: Graph, edges: frozenset[int] | tuple[int, ...]) -> bool:
    """Some tree node has directed paths (within the tree) to every other node."""
    edge_list = list(edges)
    if not edge_list:
        return True
    nodes: set[int] = set()
    out: dict[int, list[int]] = {}
    for eid in edge_list:
        e = g.edges[eid]
        nodes.update((e.source, e.target))
        out.setdefault(e.source, []).append(e.target)
    for root in nodes:
        seen = {root}
        stack = [root]
        while stack:
            n = stack.pop()
            for nxt in out.get(n, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen == nodes:
            return True
    return False


def post_filter_identities(g: Graph, results, uni=False, labels=None, max_edges=None) -> set:
    """Apply the tree-level filter semantics to unfiltered results."""
    out = set()
    for rt in results:
        if uni and not reaches_all(g, rt.edges):
            continue
        if labels is not None and any(g.edges[e].label not in labels for e in rt.edges):
            continue
        if max_edges is not None and len(rt.edges) > max_edges:
            continue
        out.add(rt.identity())
    return out
