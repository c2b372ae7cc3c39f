"""Workload inputs and their references, generated from the workload seed.

Runs in the parent process only: nothing here is timed. Each generator writes
the graph the program will load (TSV, or plain instance lists for
random-oracle) into the work directory and returns a JSON-serializable spec:
the generator parameters, the operation pool, and the reference each
operation's output is checked against. The references are computed from the
generated edges by this module, never by the layer under measurement.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from treeq.search import SearchConfig, run_search
from treeq.synth import gen_cdf, gen_chain, gen_random_instance, write_workload

#: operations are drawn in blocks with a fixed mix, so that the pool has
#: nearly the same cost distribution whatever the seed. A run cycles through
#: the whole pool many times (about 15 passes in 25 s), so the pool is one
#: block.
BLOCK = 10
POOL_BLOCKS = 1

CDF_JOIN = {"m": 2, "NT": 96, "NL": 384, "SL": 3}
CHAIN = {"N": 10}
# one block of (i, j) seed pairs on the chain's nodes 1..11: p50 falls among
# the span-9 pairs and p90 among the span-10 ones, whatever the order
CHAIN_PAIRS = ((1, 10),) * 4 + ((2, 11),) * 4 + ((1, 11),) * 2
POINT = {"m": 2, "NT": 1024, "NL": 4096, "SL": 3, "MAX": 4}
ORACLE = {"max_nodes": 9, "max_edges": 12, "m_cycle": [1, 2, 3], "pool": 300, "candidates": 1200, "reference_seed": 0}


def _links(g) -> list[list]:
    """Every link chain of a cdf m=2 graph: [x, tl, v, sorted edge ids].

    ``x -c-> tl`` is the top-forest edge the chain starts under and
    ``v -g-> bl`` the bottom-forest edge it ends under.
    """
    x_of = {e.target: e.source for e in g.edges.values() if e.label == "c"}
    v_of = {e.target: e.source for e in g.edges.values() if e.label == "g"}
    link_out: dict[int, list[int]] = {}
    for e in g.edges.values():
        if e.label == "link":
            link_out.setdefault(e.source, []).append(e.id)
    links = []
    for tl in sorted(x_of):
        for first in sorted(link_out.get(tl, ())):
            chain = [first]
            node = g.edges[first].target
            while node not in v_of:
                (nxt,) = link_out[node]  # inner chain nodes have one outgoing link
                chain.append(nxt)
                node = g.edges[nxt].target
            links.append([x_of[tl], tl, v_of[node], sorted(chain)])
    return links


def _cdf_join(seed: int, out: Path) -> dict:
    nt = CDF_JOIN["NT"]
    w = gen_cdf(CDF_JOIN["m"], nt, CDF_JOIN["NL"], CDF_JOIN["SL"], seed)
    write_workload(w, out)
    links = _links(w.graph)
    if len(links) != w.expected_results:
        raise RuntimeError(f"reference found {len(links)} links, generator expects {w.expected_results}")
    # the two "c" sources of top tree t are xs[2t] and xs[2t + 1]; bounding ?x
    # by id < xs[2k] admits exactly trees 0..k-1, so no tree is cut in half
    xs = sorted(e.source for e in w.graph.edges.values() if e.label == "c")
    # admitting fewer top trees moves work from the join into the search
    # (tl leaves that are no seeds open longer paths), so the bounds stay in
    # [3NT/4, NT] and the join stays the largest layer
    rng = random.Random(seed)
    lowest = 3 * nt // 4
    ops = []
    for _ in range(POOL_BLOCKS):
        block = []
        for j in range(BLOCK):
            if j == BLOCK - 1:
                block.append(None)  # the unbounded query, whose rows the generator states
                continue
            lo = lowest + j * (nt - lowest) // (BLOCK - 1)
            hi = lowest + (j + 1) * (nt - lowest) // (BLOCK - 1)
            block.append(xs[2 * rng.randrange(lo, hi)])
        rng.shuffle(block)
        for bound in block:
            text = w.query_text
            if bound is not None:
                text = text.replace('(?x, "c", ?tl)', f'(?x[id < {bound}], "c", ?tl)')
            ops.append({"query": text, "bound": bound})
    return {
        "generator": {"family": "cdf", **CDF_JOIN, "admitted_trees": [lowest, nt], "seed": seed},
        "ops": ops,
        "links": links,
        "expected_unbounded": w.expected_results,
    }


def _chain_search(seed: int, out: Path) -> dict:
    write_workload(gen_chain(CHAIN["N"]), out)
    rng = random.Random(seed)
    ops = []
    for _ in range(POOL_BLOCKS):
        pairs = list(CHAIN_PAIRS)
        rng.shuffle(pairs)
        for i, j in pairs:
            ops.append({"query": f"(?t) :- (?a[id = {i}], ?b[id = {j}], TREE ?t)", "i": i, "j": j})
    return {"generator": {"family": "chain", **CHAIN, "pairs": CHAIN_PAIRS, "seed": seed}, "ops": ops}


def _paths_within(adj: dict[int, list[tuple[int, int]]], a: int, b: int, max_len: int) -> list[list[int]]:
    """Sorted edge ids of every simple undirected path from a to b with at most max_len edges."""
    found = []

    def walk(node: int, visited: set[int], edges: list[int]) -> None:
        if node == b:
            found.append(sorted(edges))
            return
        if len(edges) == max_len:
            return
        for eid, nxt in adj[node]:
            if nxt not in visited:
                visited.add(nxt)
                edges.append(eid)
                walk(nxt, visited, edges)
                edges.pop()
                visited.remove(nxt)

    walk(a, {a}, [])
    return sorted(found)


def _point_lookups(seed: int, out: Path) -> dict:
    w = gen_cdf(POINT["m"], POINT["NT"], POINT["NL"], POINT["SL"], seed)
    write_workload(w, out)
    g = w.graph
    links = _links(g)
    adj: dict[int, list[tuple[int, int]]] = {n: [] for n in g.nodes}
    parent: dict[int, int] = {}
    for e in g.edges.values():
        adj[e.source].append((e.id, e.target))
        adj[e.target].append((e.id, e.source))
        parent[e.target] = e.source
    c_targets = sorted(e.target for e in g.edges.values() if e.label == "c")
    rng = random.Random(seed)
    ops = []
    for _ in range(POOL_BLOCKS):
        kinds = ["linked"] * (BLOCK // 2) + ["random"] * (BLOCK - BLOCK // 2)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "linked":
                _, k1, _, chain = rng.choice(links)
                k2 = g.edges[chain[-1]].target
            else:
                k1 = rng.choice(c_targets)
                k2 = k1
                while k2 == k1:
                    k2 = rng.randint(1, g.num_nodes)
            text = (
                f'(?r, ?l) :- (?r, ?p, ?c), (?c, "c", ?tl[id = {k1}]), '
                f"(?tl, ?bl[id = {k2}], TREE ?l) MAX {POINT['MAX']}"
            )
            ops.append({
                "query": text,
                "kind": kind,
                "root": parent[parent[k1]],
                "paths": _paths_within(adj, k1, k2, POINT["MAX"]),
            })
    return {"generator": {"family": "cdf", **POINT, "seed": seed}, "ops": ops}


def _random_instances(rng: random.Random, count: int) -> list:
    cycle = ORACLE["m_cycle"]
    return [
        gen_random_instance(rng, max_nodes=ORACLE["max_nodes"], max_edges=ORACLE["max_edges"], m=cycle[i % len(cycle)])
        for i in range(count)
    ]


def _instance_cost(g, seeds) -> int:
    """Provenances the three searches of one oracle check build: a count that tracks its time."""
    return sum(
        run_search(g, seeds, SearchConfig(algorithm=algo))[1].provenances_built for algo in ("bft", "bft_m", "molesp")
    )


def _random_oracle(seed: int, out: Path) -> dict:
    # The cost of one instance is heavy-tailed, so plain random pools of a
    # few hundred instances differ in cost by 10-20% from seed to seed. Each
    # instance of the fixed reference pool is therefore replaced by the
    # seed's candidate of the same m whose cost is closest to it: every
    # seed gets other graphs with nearly the same cost profile.
    reference = _random_instances(random.Random(ORACLE["reference_seed"]), ORACLE["pool"])
    candidates: dict[int, list] = {}
    for g, seeds in _random_instances(random.Random(seed), ORACLE["candidates"]):
        candidates.setdefault(seeds.m, []).append((_instance_cost(g, seeds), g, seeds))
    instances = []
    for g_ref, seeds_ref in reference:
        target = _instance_cost(g_ref, seeds_ref)
        pool = candidates[seeds_ref.m]
        cost, g, seeds = pool.pop(min(range(len(pool)), key=lambda k: abs(pool[k][0] - target)))
        instances.append({
            "nodes": [[n.id, n.label, n.kind, sorted(n.types)] for n in g.nodes.values()],
            "edges": [[e.id, e.source, e.target, e.label] for e in g.edges.values()],
            "seed_sets": [sorted(s) for s in seeds.sets],
            "cost": cost,
            "reference_cost": target,
        })
    (out / "instances.json").write_text(json.dumps(instances), encoding="utf-8")
    return {"generator": {"family": "random", **ORACLE, "seed": seed}}


GENERATORS = {
    "cdf-join": _cdf_join,
    "chain-search": _chain_search,
    "point-lookups": _point_lookups,
    "random-oracle": _random_oracle,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    spec = GENERATORS[workload](seed, out)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
