"""Query orchestration: pattern tables, seed-set derivation, tree searches, final join."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from .bindings import BindingTable, candidates, evaluate_bgp, join_all
from .graph import Graph
from .lang import Ctp, Predicate, QueryAst, ValidatedQuery, satisfies, validate_query
from .search import SearchConfig, _gc_paused, check_config, run_search
from .trees import SeedSets


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class QueryResult:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]  # node/edge ids and ResultTree values
    partial: bool = False


def compute_seed_sets(
    g: Graph, query: ValidatedQuery, bgp_tables: Sequence[BindingTable]
) -> list[SeedSets | None]:
    """Derive one seed-set group per tree pattern from the pattern tables.

    A member variable bound in some pattern table contributes the projection
    of that table (restricted by the member's own predicate when present).
    An unbound member contributes the nodes satisfying every condition placed
    on its variable anywhere in the query (an embedding must satisfy them
    all, so a variable shared between tree patterns is constrained by each
    occurrence), drawn from its ``id =`` candidate when it has one (see
    ``bindings.candidates``); with no conditions at all it is universal.
    ``None`` marks a tree pattern with an empty non-universal seed set,
    which empties the whole query result.
    """
    ast = query.ast
    conditions_on: dict[str, list] = {}
    for ctp in ast.ctps:
        for member in ctp.members:
            conditions_on.setdefault(member.var, []).extend(member.conditions)
    out: list[SeedSets | None] = []
    for ci, ctp in enumerate(ast.ctps):
        sets: list[frozenset[int]] = []
        universal: list[bool] = []
        empty = False
        for member in ctp.members:
            bound: BindingTable | None = None
            for table in bgp_tables:
                if member.var in table.columns:
                    bound = table
                    break
            if bound is not None:
                if bound.kind_of(member.var) != "node":
                    raise EngineError(
                        f"tree pattern {ci}: member ?{member.var} is bound to edges, seeds must be nodes"
                    )
                nodes = {row[bound.columns.index(member.var)] for row in bound.rows}
                if member.conditions:
                    nodes = {n for n in nodes if satisfies(member, g, n, "node")}
                sets.append(frozenset(nodes))
                universal.append(False)
                empty = empty or not nodes
            else:
                combined = Predicate(member.var, tuple(conditions_on[member.var]))
                if combined.conditions:
                    pool = candidates(g, combined, "node")
                    nodes = frozenset(
                        n for n in (g.nodes if pool is None else pool) if satisfies(combined, g, n, "node")
                    )
                    sets.append(nodes)
                    universal.append(False)
                    empty = empty or not nodes
                else:
                    sets.append(frozenset())
                    universal.append(True)
        out.append(None if empty else SeedSets(sets, universal))
    return out


@dataclass(frozen=True)
class QueryPlan:
    """The work a query needs: its pattern tables and one search per tree pattern.

    ``empty`` is set when a pattern table or a non-universal seed set is
    empty; the query result is then empty and ``searches`` holds nothing.
    """

    tables: tuple[BindingTable, ...]
    searches: tuple[tuple[Ctp, SeedSets, SearchConfig], ...]
    empty: bool = False


def plan_query(
    g: Graph, vq: ValidatedQuery, *, algorithm: str = "molesp", timeout_ms: int | None = None
) -> QueryPlan:
    """Evaluate the pattern tables, derive the seed sets, and configure each search.

    A tree pattern without its own ``TIMEOUT`` takes the first budget stated
    anywhere in the query, so one stated budget covers every tree pattern;
    ``timeout_ms`` is the default when the query states none and must be
    positive. An unknown algorithm or score name fails here, before any
    pattern is evaluated, whatever the data.
    """
    if timeout_ms is not None and timeout_ms < 1:
        raise EngineError(f"timeout_ms must be positive, got {timeout_ms}")
    ast = vq.ast
    stated = [c.filters.timeout_ms for c in ast.ctps if c.filters.timeout_ms is not None]
    query_timeout = stated[0] if stated else timeout_ms
    configs = []
    for ctp in ast.ctps:
        budget = ctp.filters.timeout_ms if ctp.filters.timeout_ms is not None else query_timeout
        configs.append(SearchConfig(algorithm, replace(ctp.filters, timeout_ms=budget)))
    for cfg in configs or [SearchConfig(algorithm)]:  # with no tree pattern, still check the algorithm
        check_config(cfg)
    tables = tuple(evaluate_bgp(g, b, ast.synthetic) for b in ast.bgps)
    if any(len(t) == 0 for t in tables):
        return QueryPlan(tables, (), empty=True)
    per_ctp_seeds = compute_seed_sets(g, vq, tables)
    if any(s is None for s in per_ctp_seeds):
        return QueryPlan(tables, (), empty=True)
    return QueryPlan(tables, tuple(zip(ast.ctps, per_ctp_seeds, configs)))


@_gc_paused
def evaluate_query(
    g: Graph,
    query: QueryAst | ValidatedQuery,
    *,
    algorithm: str = "molesp",
    timeout_ms: int | None = None,
) -> QueryResult:
    """Evaluate a query: pattern tables, then seed sets, then one search per
    tree pattern with its filters pushed, then the natural join of all
    tables projected on the head (see ``join_all``).

    ``timeout_ms`` is the per-search default used when the query states no
    budget (see ``plan_query``); a search hitting its budget marks the result
    partial. The cyclic garbage collector is off while it runs (see
    ``search._gc_paused``).
    """
    vq = query if isinstance(query, ValidatedQuery) else validate_query(query)
    head = tuple(vq.ast.head)
    plan = plan_query(g, vq, algorithm=algorithm, timeout_ms=timeout_ms)
    if plan.empty:
        return QueryResult(head, (), False)

    tables = list(plan.tables)
    partial = False
    for ctp, seeds, cfg in plan.searches:
        results, stats = run_search(g, seeds, cfg)
        partial = partial or stats.timed_out
        columns = tuple(m.var for m in ctp.members) + (ctp.tree_var,)
        kinds = ("node",) * len(ctp.members) + ("tree",)
        rows = frozenset(rt.seed_tuple + (rt,) for rt in results)
        tables.append(BindingTable(columns, kinds, rows))

    rows = tuple(join_all(tables, head).sorted_rows())
    return QueryResult(head, rows, partial)
