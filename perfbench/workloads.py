"""The operations of each workload, their traced replay, and their checks.

Runs in the measuring child process. ``run`` is one untraced operation.
``replay`` performs the same operation step by step through treeq's public
functions, with a span around each call. ``check`` compares an output with
the reference the parent generated and returns a message when they differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

from treeq.bindings import UNIT_TABLE, BindingTable, evaluate_bgp, natural_join, project
from treeq.cli import main as cli_main
from treeq.engine import QueryResult, compute_seed_sets, evaluate_query
from treeq.graph import Edge, Graph, Node, load_graph_files
from treeq.lang import parse_query, validate_query
from treeq.search import SearchConfig, guaranteed_found, run_search
from treeq.trees import SeedSets, classify_result

ALGORITHM = "molesp"


def _count_search(tracer, stats) -> None:
    tracer.add("search.provenances_built", stats.provenances_built)
    tracer.add("search.trees_pruned", stats.trees_pruned)
    tracer.add("search.queue_pops", stats.queue_pops)
    tracer.add("search.results_found", stats.results_found)


class QueryWorkload:
    """Operations that evaluate one query text over one graph loaded from TSV."""

    count_ops = 10  # one block of the operation pool

    def __init__(self, spec: dict, work: Path) -> None:
        self.spec = spec
        self.work = work
        self.ops = spec["ops"]
        self.distinct_ops = len(self.ops)
        self.graph: Graph | None = None

    def setup(self) -> None:
        self.graph = None  # one graph alive at a time, so set-up does not set the peak memory
        self.graph = load_graph_files(str(self.work / "nodes.tsv"), str(self.work / "edges.tsv"))

    def _op(self, i: int) -> dict:
        return self.ops[i % len(self.ops)]

    def run(self, i: int) -> QueryResult:
        vq = validate_query(parse_query(self._op(i)["query"]))
        return evaluate_query(self.graph, vq, algorithm=ALGORITHM)

    def replay(self, i: int, tracer) -> QueryResult:
        """``evaluate_query`` taken apart: the same calls in the same order."""
        g = self.graph
        ast = tracer.call("lang.parse", parse_query, self._op(i)["query"])
        vq = tracer.call("lang.validate", validate_query, ast)
        ast = vq.ast
        head = tuple(ast.head)
        tables = []
        for bgp in ast.bgps:
            table = tracer.call("bindings.bgp", evaluate_bgp, g, bgp, ast.synthetic)
            tracer.add("bindings.bgp_rows", len(table))
            tables.append(table)
        if any(len(t) == 0 for t in tables):
            return QueryResult(head, (), False)
        per_ctp_seeds = tracer.call("engine.seeds", compute_seed_sets, g, vq, tables)
        if any(s is None for s in per_ctp_seeds):
            return QueryResult(head, (), False)
        partial = False
        for ctp, seeds in zip(ast.ctps, per_ctp_seeds):
            tracer.add("engine.seed_nodes", sum(len(s) for s in seeds.sets))
            cfg = SearchConfig(algorithm=ALGORITHM, filters=ctp.filters)
            results, stats = tracer.call("search." + ALGORITHM, run_search, g, seeds, cfg)
            _count_search(tracer, stats)
            partial = partial or stats.timed_out
            with tracer.span("engine.ctp_table"):
                columns = tuple(m.var for m in ctp.members) + (ctp.tree_var,)
                kinds = ("node",) * len(ctp.members) + ("tree",)
                tables.append(BindingTable(columns, kinds, frozenset(rt.seed_tuple + (rt,) for rt in results)))
        joined = UNIT_TABLE
        for table in tables:
            joined = tracer.call("bindings.join", natural_join, joined, table)
            tracer.peak("bindings.join_rows_max", len(joined))
        tracer.add("bindings.join_rows_out", len(joined))
        with tracer.span("bindings.project"):
            rows = tuple(project(joined, head).sorted_rows())
        return QueryResult(head, rows, partial)

    def digest(self, out: QueryResult) -> int:
        return hash((out.columns, out.rows, out.partial))

    def check(self, i: int, out: QueryResult) -> str | None:
        if out.partial:
            return "result is partial"
        return self._check_rows(self._op(i), out)

    def cli_run(self) -> tuple[float, str | None]:
        """One ``treeq run`` in process on the first operation: (ms, problem)."""
        query = self.work / "query-0.eql"
        query.write_text(self.ops[0]["query"], encoding="utf-8")
        argv = [
            "run",
            "--graph-nodes", str(self.work / "nodes.tsv"),
            "--graph-edges", str(self.work / "edges.tsv"),
            "--query", str(query),
            "--algo", ALGORITHM,
            "--output", "json",
        ]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        ms = (time.perf_counter() - start) * 1000
        if code != 0:
            return ms, f"treeq run exited {code}"
        doc = json.loads(buf.getvalue())
        checked = self.run(0)
        problem = self.check(0, checked)
        if problem is None and (doc["partial"] or len(doc["rows"]) != len(checked.rows)):
            problem = f"treeq run gave {len(doc['rows'])} rows, partial={doc['partial']}; expected {len(checked.rows)}"
        return ms, problem


class CdfJoin(QueryWorkload):
    def _check_rows(self, op: dict, out: QueryResult) -> str | None:
        bound = op["bound"]
        expected = sorted(
            (v, tl, tuple(chain)) for x, tl, v, chain in self.spec["links"] if bound is None or x < bound
        )
        if bound is None and len(expected) != self.spec["expected_unbounded"]:
            return f"reference has {len(expected)} links, generator states {self.spec['expected_unbounded']}"
        got = sorted((v, tl, tree.edges) for v, tl, tree in out.rows)
        if got != expected:
            return f"{len(got)} rows, expected the {len(expected)} admitted links"
        return None


class ChainSearch(QueryWorkload):
    def _check_rows(self, op: dict, out: QueryResult) -> str | None:
        span = op["j"] - op["i"]
        nodes = tuple(range(op["i"], op["j"] + 1))
        if len(out.rows) != 2**span:
            return f"{len(out.rows)} rows, expected 2**{span}"
        for (tree,) in out.rows:
            if len(tree.edges) != span or tree.nodes != nodes:
                return f"tree {tree.edges} is not a path from {op['i']} to {op['j']}"
        return None


class PointLookups(QueryWorkload):
    def _check_rows(self, op: dict, out: QueryResult) -> str | None:
        got = sorted((r, list(tree.edges)) for r, tree in out.rows)
        expected = [(op["root"], path) for path in op["paths"]]
        if got != expected:
            return f"{len(got)} rows, expected {len(expected)} paths of at most 4 edges"
        return None


class RandomOracle:
    """The ``treeq oracle-check`` flow: exhaustive ``bft``, then ``bft_m`` and ``molesp``.

    Every ``bft`` result is classified, so the guarantee check does not
    depend on which results ``molesp`` happened to return.
    """

    count_ops = 30  # ten instances of each m

    def __init__(self, spec: dict, work: Path) -> None:
        self.instances_data = json.loads((work / "instances.json").read_text(encoding="utf-8"))
        self.seed_sets = [SeedSets(inst["seed_sets"]) for inst in self.instances_data]
        self.distinct_ops = len(self.instances_data)
        self.graphs: list[Graph] = []

    def setup(self) -> None:
        self.graphs = []
        self.graphs = [
            Graph(
                [Node(nid, label, kind, frozenset(types)) for nid, label, kind, types in inst["nodes"]],
                [Edge(*e) for e in inst["edges"]],
            )
            for inst in self.instances_data
        ]

    def _flow(self, i: int, call):
        k = i % len(self.graphs)
        g, seeds = self.graphs[k], self.seed_sets[k]
        ids, stats = {}, []
        for algo in ("bft", "bft_m", "molesp"):
            results, st = call("search." + algo, run_search, g, seeds, SearchConfig(algorithm=algo))
            ids[algo] = frozenset(rt.identity() for rt in results)
            stats.append(st)
            if algo == "bft":
                oracle = results
        guaranteed = frozenset(
            rt.identity()
            for rt in oracle
            if guaranteed_found("molesp", seeds.m, call("trees.classify", classify_result, g, rt.edges, seeds))
        )
        return ids, guaranteed, stats

    def run(self, i: int):
        ids, guaranteed, stats = self._flow(i, lambda _name, fn, *args: fn(*args))
        return ids, guaranteed, any(st.timed_out for st in stats)

    def replay(self, i: int, tracer):
        ids, guaranteed, stats = self._flow(i, tracer.call)
        for st in stats:
            _count_search(tracer, st)
        return ids, guaranteed, any(st.timed_out for st in stats)

    def digest(self, out) -> int:
        ids, guaranteed, timed_out = out
        return hash((tuple(sorted(ids.items())), guaranteed, timed_out))

    def check(self, i: int, out) -> str | None:
        ids, guaranteed, timed_out = out
        if timed_out:
            return "a search timed out"
        if not ids["molesp"] <= ids["bft"]:
            return "molesp returned results bft did not"
        if ids["bft_m"] != ids["bft"]:
            return "bft_m and bft disagree"
        if not guaranteed <= ids["molesp"]:
            return "molesp missed a guaranteed result"
        return None

    cli_run = None  # oracle-check runs no query, so there is no treeq run to time


WORKLOADS = {
    "cdf-join": CdfJoin,
    "chain-search": ChainSearch,
    "point-lookups": PointLookups,
    "random-oracle": RandomOracle,
}
