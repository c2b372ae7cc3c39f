"""Command-line surface: run queries, generate workloads, benchmark, oracle-check."""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from .engine import evaluate_query, plan_query
from .graph import load_graph_files
from .lang import CtpFilters, parse_query, validate_query
from .search import ALGORITHMS, SearchConfig, guaranteed_found, run_search
from .synth import (
    GenError,
    Workload,
    gen_cdf,
    gen_chain,
    gen_comb,
    gen_line,
    gen_random_instance,
    gen_star,
    load_workload,
    write_workload,
)
from .trees import ResultTree, SeedSets, classify_result

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_ORACLE_BUDGET = 3


def _positive_int(text: str) -> int:
    """Argparse type for budgets, repetition, instance counts and instance sizes."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _default_timeout_ms(value: int | None) -> int | None:
    if value is not None:
        return value
    env = os.environ.get("CTP_DEFAULT_TIMEOUT_MS")
    if not env:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CTP_DEFAULT_TIMEOUT_MS {exc}") from None


def _tree_cell(rt: ResultTree, with_root: bool) -> dict:
    cell = {"edges": list(rt.edges), "nodes": list(rt.nodes)}
    if with_root:
        cell["root"] = rt.root
    return cell


def cmd_run(args: argparse.Namespace) -> int:
    g = load_graph_files(args.graph_nodes, args.graph_edges)
    text = Path(args.query).read_text(encoding="utf-8")
    vq = validate_query(parse_query(text))
    uni_by_tree_var = {c.tree_var: c.filters.uni for c in vq.ast.ctps}
    result = evaluate_query(
        g, vq, algorithm=args.algo, timeout_ms=_default_timeout_ms(args.timeout_ms)
    )
    rows = []
    for row in result.rows:
        cells = []
        for col, cell in zip(result.columns, row):
            if isinstance(cell, ResultTree):
                cells.append(_tree_cell(cell, uni_by_tree_var.get(col, False)))
            else:
                cells.append(cell)
        rows.append(cells)
    if args.output == "json":
        print(json.dumps({"columns": list(result.columns), "rows": rows, "partial": result.partial}))
    else:
        print("\t".join(result.columns))
        for row in rows:
            print("\t".join(json.dumps(c) if isinstance(c, dict) else str(c) for c in row))
    return EXIT_PARTIAL if result.partial else EXIT_OK


# family -> (generator, its options in argument order); only --seed has a default
_FAMILIES = {
    "chain": (gen_chain, ("N",)),
    "line": (gen_line, ("m", "nL")),
    "comb": (gen_comb, ("nA", "nS", "sL", "dBA")),
    "star": (gen_star, ("m", "sL")),
    "cdf": (gen_cdf, ("m", "NT", "NL", "SL", "seed")),
}


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    generator, params = _FAMILIES[family]
    missing = [p for p in params if getattr(args, p) is None]
    if missing:
        raise GenError(f"{family} needs {', '.join('--' + p for p in missing)}")
    w = generator(*(getattr(args, p) for p in params))
    write_workload(w, args.out)
    print(f"wrote {family} workload to {args.out}: {w.graph.num_nodes} nodes, {w.graph.num_edges} edges")
    return EXIT_OK


def _workload_searches(w: Workload, timeout_ms: int | None):
    """(seeds, filters) per tree search of a workload, planned like ``treeq run``."""
    if w.seed_sets is not None:
        return [(w.seeds(), CtpFilters(timeout_ms=timeout_ms))], w.seeds().m
    plan = plan_query(w.graph, validate_query(parse_query(w.query_text)), timeout_ms=timeout_ms)
    searches = [(seeds, cfg.filters) for _, seeds, cfg in plan.searches]
    return searches, max((seeds.m for seeds, _ in searches), default=0)


#: the ``SearchStats`` counters a bench record sums over a workload's searches
BENCH_COUNTERS = ("provenances_built", "trees_pruned", "queue_pops", "results_found")


def cmd_bench(args: argparse.Namespace) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError(f"--algos names no algorithm: {args.algos!r}")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"--algos: unknown algorithm {a!r}")
    w = load_workload(args.workload)
    workload_id = Path(args.workload).name
    searches, m = _workload_searches(w, _default_timeout_ms(args.timeout_ms))
    if not searches:
        raise ValueError(f"{workload_id}: the query plans no tree search, nothing to time")

    records = []
    for algo in algos:
        runtimes = []
        for rep in range(args.reps):
            total_ms = 0.0
            counts = dict.fromkeys(BENCH_COUNTERS, 0)
            timed_out = False
            for seeds, filters in searches:
                cfg = SearchConfig(algorithm=algo, filters=filters)
                start = time.perf_counter()
                results, stats = run_search(w.graph, seeds, cfg)
                total_ms += (time.perf_counter() - start) * 1000.0
                for name in BENCH_COUNTERS:
                    counts[name] += getattr(stats, name)
                timed_out = timed_out or stats.timed_out
            runtimes.append(total_ms)
            records.append(
                {
                    "algo": algo,
                    "workload": workload_id,
                    "m": m,
                    "rep": rep,
                    "runtime_ms": f"{total_ms:.3f}",
                    **counts,
                    "timed_out": str(timed_out).lower(),
                }
            )
        print(
            f"{algo}: median {statistics.median(runtimes):.3f} ms, "
            f"mean {statistics.fmean(runtimes):.3f} ms over {args.reps} reps"
        )
    fieldnames = ["algo", "workload", "m", "rep", "runtime_ms", *BENCH_COUNTERS, "timed_out"]
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(records)
    return EXIT_OK


def _result_identities(results: list[ResultTree]) -> set:
    return {rt.identity() for rt in results}


def _check_instance(g, seeds: SeedSets, filters: CtpFilters, algo: str, budget_ms: int) -> tuple[str, str]:
    """Returns (status, message); status in {"pass", "fail", "budget"}.

    Both runs search under the ``UNI``/``LABEL``/``MAX`` filters of
    ``filters``; only the exhaustive oracle has a time budget.
    """
    checked = CtpFilters(uni=filters.uni, labels=filters.labels, max_edges=filters.max_edges)
    oracle_cfg = SearchConfig(algorithm="bft", filters=replace(checked, timeout_ms=budget_ms))
    oracle_results, oracle_stats = run_search(g, seeds, oracle_cfg)
    if oracle_stats.timed_out:
        return "budget", "exhaustive oracle exceeded its budget"
    algo_results, _ = run_search(g, seeds, SearchConfig(algorithm=algo, filters=checked))
    oracle_ids = _result_identities(oracle_results)
    algo_ids = _result_identities(algo_results)
    extra = algo_ids - oracle_ids
    if extra:
        return "fail", f"{len(extra)} results not in the oracle collection: {sorted(extra)[:5]}"
    missing = []
    for rt in oracle_results:
        if rt.identity() in algo_ids:
            continue
        cls = classify_result(g, rt.edges, seeds)
        if guaranteed_found(algo, seeds.m, cls):
            missing.append(rt.identity())
    if missing:
        return "fail", f"missing guaranteed results: {sorted(missing)[:5]}"
    return "pass", f"{len(algo_ids)}/{len(oracle_ids)} oracle results found, all guarantees met"


def cmd_oracle_check(args: argparse.Namespace) -> int:
    instances = []
    if args.workload:
        w = load_workload(args.workload)
        name = Path(args.workload).name
        searches, _ = _workload_searches(w, None)
        if not searches:
            print(f"EMPTY {name}: the query plans no tree search, nothing was checked")
            return EXIT_ERROR
        for seeds, filters in searches:
            instances.append((w.graph, seeds, filters, name))
    else:
        rng = random.Random(args.rng_seed)
        for i in range(args.random):
            g, seeds = gen_random_instance(
                rng, max_nodes=args.max_nodes, max_edges=args.max_edges, m=args.m
            )
            instances.append((g, seeds, CtpFilters(), f"random-{i}"))
    failures = 0
    for g, seeds, filters, name in instances:
        status, message = _check_instance(g, seeds, filters, args.algo, args.oracle_budget_ms)
        if status == "budget":
            print(f"BUDGET {name}: {message}")
            return EXIT_ORACLE_BUDGET
        print(f"{status.upper()} {name}: {message}")
        failures += status == "fail"
    return EXIT_ERROR if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input and exit 1; argparse's 2 means a partial result here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a query over a TSV graph")
    p_run.add_argument("--graph-nodes", required=True)
    p_run.add_argument("--graph-edges", required=True)
    p_run.add_argument("--query", required=True)
    p_run.add_argument("--algo", default="molesp", choices=ALGORITHMS)
    p_run.add_argument("--timeout-ms", type=_positive_int, default=None)
    p_run.add_argument("--output", default="json", choices=("json", "tsv"))
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="generate a benchmark workload")
    p_gen.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p_gen.add_argument("--N", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--nL", type=int)
    p_gen.add_argument("--nA", type=int)
    p_gen.add_argument("--nS", type=int)
    p_gen.add_argument("--sL", type=int)
    p_gen.add_argument("--dBA", type=int)
    p_gen.add_argument("--NT", type=int)
    p_gen.add_argument("--NL", type=int)
    p_gen.add_argument("--SL", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time algorithms on a workload")
    p_bench.add_argument("--workload", required=True)
    p_bench.add_argument("--algos", required=True)
    p_bench.add_argument("--reps", type=_positive_int, default=3)
    p_bench.add_argument("--timeout-ms", type=_positive_int, default=None)
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle-check", help="compare an algorithm against the exhaustive baseline")
    p_oracle.add_argument("--workload")
    p_oracle.add_argument("--random", type=_positive_int, default=0)
    p_oracle.add_argument("--max-nodes", type=_positive_int, default=12)
    p_oracle.add_argument("--max-edges", type=_positive_int, default=20)
    p_oracle.add_argument("--m", type=_positive_int, default=3)
    p_oracle.add_argument("--rng-seed", type=int, default=0)
    p_oracle.add_argument("--algo", default="molesp", choices=ALGORITHMS)
    p_oracle.add_argument("--oracle-budget-ms", type=_positive_int, default=60000)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle-check" and not args.workload and not args.random:
        parser.error("oracle-check needs --workload or --random N")
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
