"""Graph query engine with connecting-tree search.

Queries combine conjunctive edge patterns with connecting-tree patterns that
bind a variable to the minimal trees linking one node from each of several
seed sets, found by a family of best-first search algorithms with edge-set
pruning.
"""

from .bindings import BindingTable, evaluate_bgp, match_edge_pattern, natural_join, project
from .engine import QueryPlan, QueryResult, evaluate_query, plan_query
from .graph import Edge, Graph, GraphLoadError, Node, load_graph, load_graph_files
from .lang import (
    Bgp,
    Condition,
    Ctp,
    CtpFilters,
    EdgePattern,
    Predicate,
    QueryAst,
    QuerySyntaxError,
    QueryValidationError,
    ValidatedQuery,
    format_query,
    parse_query,
    satisfies,
    validate_query,
)
from .search import (
    ALGORITHMS,
    SearchConfig,
    SearchStats,
    apply_score_topk,
    guaranteed_found,
    register_score,
    run_search,
)
from .synth import Workload, gen_cdf, gen_chain, gen_comb, gen_line, gen_star, load_workload, write_workload
from .trees import Classification, ResultTree, RootedTree, SeedSets, classify_result, minimize

__all__ = [
    "ALGORITHMS",
    "BindingTable",
    "Bgp",
    "Classification",
    "Condition",
    "Ctp",
    "CtpFilters",
    "Edge",
    "EdgePattern",
    "Graph",
    "GraphLoadError",
    "Node",
    "Predicate",
    "QueryAst",
    "QueryPlan",
    "QueryResult",
    "QuerySyntaxError",
    "QueryValidationError",
    "ResultTree",
    "RootedTree",
    "SearchConfig",
    "SearchStats",
    "SeedSets",
    "ValidatedQuery",
    "Workload",
    "apply_score_topk",
    "classify_result",
    "evaluate_bgp",
    "evaluate_query",
    "format_query",
    "gen_cdf",
    "gen_chain",
    "gen_comb",
    "gen_line",
    "gen_star",
    "guaranteed_found",
    "load_graph",
    "load_graph_files",
    "load_workload",
    "match_edge_pattern",
    "minimize",
    "natural_join",
    "parse_query",
    "plan_query",
    "project",
    "register_score",
    "run_search",
    "satisfies",
    "validate_query",
    "write_workload",
]
