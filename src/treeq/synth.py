"""Deterministic benchmark graph generators with seed-set manifests.

Five families: chain (parallel-edge path with exponentially many connecting
trees), line / comb / star (single-result topologies of increasing merge
difficulty), and cdf (two forests of small trees joined by labeled links,
bundled with a query). Each generator returns the graph together with either
the seed sets or the query text to run on it, plus the known result count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .graph import Edge, Graph, Node, edges_tsv, load_graph_files, nodes_tsv
from .trees import SeedSets


class GenError(ValueError):
    pass


@dataclass(frozen=True)
class Workload:
    family: str
    parameters: dict
    graph: Graph
    seed_sets: tuple[tuple[int, ...], ...] | None
    query_text: str | None
    expected_results: int

    def seeds(self) -> SeedSets:
        if self.seed_sets is None:
            raise GenError("workload carries a query, not seed sets")
        return SeedSets(self.seed_sets)


def _seed_label(k: int) -> str:
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return alphabet[k] if k < len(alphabet) else f"S{k + 1}"


class _Builder:
    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []

    def node(self, label: str | None = None, types: tuple[str, ...] = ()) -> int:
        nid = len(self._nodes) + 1
        self._nodes.append(Node(nid, str(nid) if label is None else label, "uri", frozenset(types)))
        return nid

    def edge(self, source: int, label: str, target: int) -> int:
        eid = len(self._edges) + 1
        self._edges.append(Edge(eid, source, target, label))
        return eid

    def path(self, start: int, label: str, length: int, last: str | None = None) -> int:
        """Chain ``length`` fresh nodes after ``start`` along ``label`` edges; return the last.

        ``last``, when given, labels the last node in place of its id.
        """
        for i in range(length):
            nxt = self.node(last if i == length - 1 else None)
            self.edge(start, label, nxt)
            start = nxt
        return start

    def graph(self) -> Graph:
        return Graph(self._nodes, self._edges)


def gen_chain(n: int) -> Workload:
    """Path of n+1 nodes with two parallel edges per gap; 2**n connecting trees."""
    if n < 1:
        raise GenError("chain needs n >= 1")
    b = _Builder()
    ids = [b.node() for _ in range(n + 1)]
    for i in range(n):
        b.edge(ids[i], "a", ids[i + 1])
        b.edge(ids[i], "b", ids[i + 1])
    return Workload(
        family="chain",
        parameters={"N": n},
        graph=b.graph(),
        seed_sets=((ids[0],), (ids[-1],)),
        query_text=None,
        expected_results=2**n,
    )


def gen_line(m: int, nl: int) -> Workload:
    """m seeds in a row, nl intermediary nodes per gap; exactly one result."""
    if m < 2 or nl < 0:
        raise GenError("line needs m >= 2 and nl >= 0")
    b = _Builder()
    seeds = [b.node(_seed_label(0))]
    for k in range(1, m):
        seeds.append(b.path(seeds[-1], "e", nl + 1, _seed_label(k)))
    return Workload(
        family="line",
        parameters={"m": m, "nL": nl},
        graph=b.graph(),
        seed_sets=tuple((s,) for s in seeds),
        query_text=None,
        expected_results=1,
    )


def gen_comb(na: int, ns: int, sl: int, dba: int) -> Workload:
    """Spine of na seeds, each sprouting a bristle of ns segments of sl edges.

    Each bristle segment ends in a seed, so there are na * (ns + 1) seed sets.
    dba intermediary nodes separate consecutive spine seeds. One result: the
    whole comb.
    """
    if min(na, ns, sl, dba) < 1:
        raise GenError("comb needs all parameters >= 1")
    b = _Builder()
    label = iter(range(na * (ns + 1)))
    spine = [b.node(_seed_label(next(label)))]
    for _ in range(na - 1):
        spine.append(b.path(spine[-1], "e", dba + 1, _seed_label(next(label))))
    seeds = list(spine)
    for anchor in spine:
        prev = anchor
        for _ in range(ns):
            prev = b.path(prev, "e", sl, _seed_label(next(label)))
            seeds.append(prev)
    return Workload(
        family="comb",
        parameters={"nA": na, "nS": ns, "sL": sl, "dBA": dba},
        graph=b.graph(),
        seed_sets=tuple((s,) for s in seeds),
        query_text=None,
        expected_results=1,
    )


def gen_star(m: int, sl: int) -> Workload:
    """Central node with m arms of sl edges, a seed at each arm end; one result."""
    if m < 2 or sl < 1:
        raise GenError("star needs m >= 2 and sl >= 1")
    b = _Builder()
    center = b.node()
    seeds = [b.path(center, "e", sl, _seed_label(k)) for k in range(m)]
    return Workload(
        family="star",
        parameters={"m": m, "sL": sl},
        graph=b.graph(),
        seed_sets=tuple((s,) for s in seeds),
        query_text=None,
        expected_results=1,
    )


_CDF_QUERY_M2 = '(?v, ?tl, ?l) :- (?x, "c", ?tl), (?v, "g", ?bl), (?bl, ?tl, TREE ?l)'
_CDF_QUERY_M3 = (
    '(?v, ?tl, ?l) :- (?x, "c", ?tl), (?v, "g", ?bl1), (?v, "h", ?bl2), '
    "(?tl, ?bl1, ?bl2, TREE ?l) UNI"
)


def _forest(b: _Builder, nt: int, level1: tuple[str, str], level2: tuple[str, str]):
    """nt two-level binary trees; returns (left level-2 targets, leaf pairs)."""
    first_targets = []
    pairs = []
    for _ in range(nt):
        root = b.node()
        for child_label in level1:
            child = b.node()
            b.edge(root, child_label, child)
            left = b.node()
            b.edge(child, level2[0], left)
            right = b.node()
            b.edge(child, level2[1], right)
            first_targets.append(left)
            pairs.append((left, right))
    return first_targets, pairs


def gen_cdf(m: int, nt: int, nl: int, sl: int, random_seed: int) -> Workload:
    """Two forests of nt small binary trees, joined by nl links of sl edges.

    For m=2, a link is a chain from an eligible top leaf to an eligible
    bottom leaf. For m=3, a link forks from a top leaf to the two leaves of
    an eligible bottom sibling pair; two padding nodes per link keep the
    published node-count formula exact. Half of the candidate leaves are
    eligible; links are spread evenly over the eligible combinations
    (``random_seed`` picks the leaves and the assignment), so each link
    yields one query row whenever the capacity allows distinct
    combinations. When m=3 links must double up on a combination, the c
    parallel forks of that combination combine into c*c distinct rows;
    ``expected_results`` accounts for that.
    """
    if m not in (2, 3):
        raise GenError("cdf needs m in {2, 3}")
    if nt < 1 or nl < 1:
        raise GenError("cdf needs nt >= 1 and nl >= 1")
    if (m == 2 and sl < 1) or (m == 3 and sl < 2):
        raise GenError("cdf link length too small for this m")
    rng = random.Random(random_seed)
    b = _Builder()
    top_c_targets, _ = _forest(b, nt, ("a", "b"), ("c", "d"))
    bottom_g_targets, bottom_pairs = _forest(b, nt, ("e", "f"), ("g", "h"))

    eligible_top = sorted(rng.sample(sorted(top_c_targets), len(top_c_targets) // 2))
    if not eligible_top:
        raise GenError("no eligible top leaves")
    expected = nl
    if m == 2:
        eligible_bottom = sorted(rng.sample(sorted(bottom_g_targets), len(bottom_g_targets) // 2))
        combos = [(tl, bl) for tl in eligible_top for bl in eligible_bottom]
        rng.shuffle(combos)
        for i in range(nl):
            tl, bl = combos[i % len(combos)]
            b.edge(b.path(tl, "link", sl - 1), "link", bl)
        query = _CDF_QUERY_M2
    else:
        eligible_pairs = sorted(rng.sample(sorted(bottom_pairs), len(bottom_pairs) // 2))
        combos = [(tl, pair) for tl in eligible_top for pair in eligible_pairs]
        rng.shuffle(combos)
        multiplicity: dict[tuple, int] = {}
        for i in range(nl):
            combo = combos[i % len(combos)]
            multiplicity[combo] = multiplicity.get(combo, 0) + 1
            tl, (bl1, bl2) = combo
            fork = b.path(tl, "link", sl - 2)
            b.edge(fork, "link", bl1)
            b.edge(fork, "link", bl2)
            b.node()  # padding, keeps the node-count formula exact
            b.node()
        expected = sum(c * c for c in multiplicity.values())
        query = _CDF_QUERY_M3
    return Workload(
        family="cdf",
        parameters={"m": m, "NT": nt, "NL": nl, "SL": sl, "seed": random_seed},
        graph=b.graph(),
        seed_sets=None,
        query_text=query,
        expected_results=expected,
    )


def gen_random_instance(
    rng: random.Random,
    max_nodes: int = 12,
    max_edges: int = 20,
    n_labels: int = 3,
    m: int = 3,
    max_set_size: int = 2,
) -> tuple[Graph, SeedSets]:
    """A small random multigraph with m pairwise-disjoint seed sets.

    Used for oracle comparisons between algorithms; not part of the
    published families.
    """
    labels = [chr(ord("a") + i) for i in range(n_labels)]
    low = max(2, m * max_set_size)
    if low > max_nodes:
        raise GenError("max_nodes too small for the requested seed sets")
    n = rng.randint(low, max_nodes)
    b = _Builder()
    ids = [b.node() for _ in range(n)]
    n_edges = rng.randint(min(n - 1, max_edges), max_edges)
    for _ in range(n_edges):
        src = rng.choice(ids)
        tgt = rng.choice(ids)
        while tgt == src:
            tgt = rng.choice(ids)
        b.edge(src, rng.choice(labels), tgt)
    pool = rng.sample(ids, m * max_set_size)
    sets = []
    pos = 0
    for _ in range(m):
        size = rng.randint(1, max_set_size)
        sets.append(tuple(sorted(pool[pos : pos + size])))
        pos += size
    return b.graph(), SeedSets(sets)


# ---------------------------------------------------------------------------
# Workload files


def write_workload(w: Workload, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "nodes.tsv").write_text(nodes_tsv(w.graph), encoding="utf-8")
    (out / "edges.tsv").write_text(edges_tsv(w.graph), encoding="utf-8")
    manifest = {
        "family": w.family,
        "parameters": w.parameters,
        "seedSets": [list(s) for s in w.seed_sets] if w.seed_sets is not None else None,
        "query": w.query_text,
        "expectedResults": w.expected_results,
    }
    (out / "workload.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_workload(in_dir: str | Path) -> Workload:
    """Read a workload written by ``write_workload``; a malformed manifest
    raises a ``GenError`` that names ``workload.json`` and the field."""
    src = Path(in_dir)
    try:
        manifest = json.loads((src / "workload.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GenError(f"workload.json: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise GenError(f"workload.json: expected a JSON object, got {type(manifest).__name__}")
    for name, kind, what in (("family", str, "a string"), ("parameters", dict, "an object"),
                             ("expectedResults", int, "an integer")):
        if name not in manifest:
            raise GenError(f"workload.json: missing field {name!r}")
        if not isinstance(manifest[name], kind):
            raise GenError(f"workload.json: field {name!r} must be {what}")
    seed_sets, query = manifest.get("seedSets"), manifest.get("query")
    if seed_sets is not None and not (
        isinstance(seed_sets, list) and all(isinstance(s, list) and all(type(n) is int for n in s) for s in seed_sets)
    ):
        raise GenError("workload.json: field 'seedSets' must be null or a list of lists of node ids")
    if query is not None and not isinstance(query, str):
        raise GenError("workload.json: field 'query' must be null or a string")
    if seed_sets is None and query is None:
        raise GenError("workload.json: field 'seedSets' or 'query' must be set")
    graph = load_graph_files(str(src / "nodes.tsv"), str(src / "edges.tsv"))
    return Workload(
        family=manifest["family"],
        parameters=manifest["parameters"],
        graph=graph,
        seed_sets=tuple(tuple(s) for s in seed_sets) if seed_sets is not None else None,
        query_text=query,
        expected_results=manifest["expectedResults"],
    )
