"""Search counters and result order pinned to recorded values.

A refactor of the search must leave every counter and the order of the
reported results unchanged. Criterion 10 only compares two runs of the same
code, so these values were recorded once and are compared on every run.
Each entry is ``(provenances_built, trees_pruned, queue_pops, results_found,
digest of the ordered result identities)``.
"""

from __future__ import annotations

import hashlib

import pytest

from treeq.engine import plan_query
from treeq.graph import load_graph
from treeq.lang import CtpFilters, parse_query, validate_query
from treeq.search import ALGORITHMS, SearchConfig, run_search
from treeq.synth import gen_cdf, gen_chain, gen_comb, gen_star
from treeq.trees import SeedSets

from conftest import FIG1_EDGES, FIG1_NODES, random_suite

PINNED = {
    ("fig1", "bft"): (1268, 1364, 0, 22, "da6c717b99683bc1"),
    ("fig1", "bft_m"): (1346, 2568, 0, 22, "da6c717b99683bc1"),
    ("fig1", "bft_am"): (1434, 7163, 0, 22, "da6c717b99683bc1"),
    ("fig1", "gam"): (329, 4, 208, 22, "da6c717b99683bc1"),
    ("fig1", "esp"): (63, 44, 71, 3, "8d49895709a532c4"),
    ("fig1", "moesp"): (107, 45, 71, 22, "da6c717b99683bc1"),
    ("fig1", "lesp"): (72, 43, 75, 3, "8d49895709a532c4"),
    ("fig1", "molesp"): (117, 43, 75, 22, "da6c717b99683bc1"),
    ("fig1_max4", "bft"): (250, 279, 0, 4, "e862ba2d684d29dc"),
    ("fig1_max4", "bft_m"): (250, 505, 0, 4, "e862ba2d684d29dc"),
    ("fig1_max4", "bft_am"): (250, 759, 0, 4, "e862ba2d684d29dc"),
    ("fig1_max4", "gam"): (166, 0, 128, 4, "e862ba2d684d29dc"),
    ("fig1_max4", "esp"): (60, 35, 68, 0, "4f53cda18c2baa0c"),
    ("fig1_max4", "moesp"): (89, 35, 68, 4, "e862ba2d684d29dc"),
    ("fig1_max4", "lesp"): (65, 30, 68, 0, "4f53cda18c2baa0c"),
    ("fig1_max4", "molesp"): (94, 30, 68, 4, "e862ba2d684d29dc"),
    ("fig1_labels", "bft"): (76, 59, 0, 3, "7d7ca381b14938af"),
    ("fig1_labels", "bft_m"): (76, 113, 0, 3, "7d7ca381b14938af"),
    ("fig1_labels", "bft_am"): (78, 200, 0, 3, "7d7ca381b14938af"),
    ("fig1_labels", "gam"): (59, 0, 42, 3, "7d7ca381b14938af"),
    ("fig1_labels", "esp"): (24, 9, 24, 0, "4f53cda18c2baa0c"),
    ("fig1_labels", "moesp"): (36, 9, 24, 3, "7d7ca381b14938af"),
    ("fig1_labels", "lesp"): (24, 9, 24, 0, "4f53cda18c2baa0c"),
    ("fig1_labels", "molesp"): (36, 9, 24, 3, "7d7ca381b14938af"),
    ("chain6", "bft"): (190, 64, 0, 64, "081c28265884df53"),
    ("chain6", "bft_m"): (190, 384, 0, 64, "081c28265884df53"),
    ("chain6", "bft_am"): (190, 384, 0, 64, "081c28265884df53"),
    ("chain6", "gam"): (574, 0, 252, 64, "081c28265884df53"),
    ("chain6", "esp"): (190, 384, 252, 64, "081c28265884df53"),
    ("chain6", "moesp"): (190, 384, 252, 64, "081c28265884df53"),
    ("chain6", "lesp"): (190, 384, 252, 64, "081c28265884df53"),
    ("chain6", "molesp"): (190, 384, 252, 64, "081c28265884df53"),
    ("chain6_uni", "bft"): (190, 64, 0, 64, "081c28265884df53"),
    ("chain6_uni", "bft_m"): (190, 384, 0, 64, "081c28265884df53"),
    ("chain6_uni", "bft_am"): (190, 384, 0, 64, "081c28265884df53"),
    ("chain6_uni", "gam"): (128, 0, 126, 64, "081c28265884df53"),
    ("chain6_uni", "esp"): (128, 0, 126, 64, "081c28265884df53"),
    ("chain6_uni", "moesp"): (128, 0, 126, 64, "081c28265884df53"),
    ("chain6_uni", "lesp"): (128, 0, 126, 64, "081c28265884df53"),
    ("chain6_uni", "molesp"): (128, 0, 126, 64, "081c28265884df53"),
    ("star3x2", "bft"): (25, 14, 0, 1, "32c5954a8c7f88ef"),
    ("star3x2", "bft_m"): (25, 36, 0, 1, "32c5954a8c7f88ef"),
    ("star3x2", "bft_am"): (25, 41, 0, 1, "32c5954a8c7f88ef"),
    ("star3x2", "gam"): (40, 2, 24, 1, "32c5954a8c7f88ef"),
    ("star3x2", "esp"): (22, 20, 24, 1, "32c5954a8c7f88ef"),
    ("star3x2", "moesp"): (28, 20, 24, 1, "32c5954a8c7f88ef"),
    ("star3x2", "lesp"): (22, 20, 24, 1, "32c5954a8c7f88ef"),
    ("star3x2", "molesp"): (28, 20, 24, 1, "32c5954a8c7f88ef"),
    ("comb2111", "bft"): (14, 8, 0, 1, "8142e49b43bb29ce"),
    ("comb2111", "bft_m"): (14, 14, 0, 1, "8142e49b43bb29ce"),
    ("comb2111", "bft_am"): (14, 18, 0, 1, "8142e49b43bb29ce"),
    ("comb2111", "gam"): (28, 0, 16, 1, "8142e49b43bb29ce"),
    ("comb2111", "esp"): (9, 4, 8, 0, "4f53cda18c2baa0c"),
    ("comb2111", "moesp"): (20, 5, 8, 1, "8142e49b43bb29ce"),
    ("comb2111", "lesp"): (9, 4, 8, 0, "4f53cda18c2baa0c"),
    ("comb2111", "molesp"): (20, 5, 8, 1, "8142e49b43bb29ce"),
    ("m3_0", "bft"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "bft_m"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "bft_am"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "gam"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "esp"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "moesp"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "lesp"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_0", "molesp"): (2, 0, 0, 2, "7f9699b29cf52499"),
    ("m3_1", "bft"): (6880, 1940, 0, 52, "fed758a39a19482f"),
    ("m3_1", "bft_m"): (6880, 6879, 0, 52, "fed758a39a19482f"),
    ("m3_1", "bft_am"): (10463, 14584, 0, 52, "fed758a39a19482f"),
    ("m3_1", "gam"): (331, 0, 192, 52, "fed758a39a19482f"),
    ("m3_1", "esp"): (142, 189, 192, 52, "fed758a39a19482f"),
    ("m3_1", "moesp"): (142, 189, 192, 52, "fed758a39a19482f"),
    ("m3_1", "lesp"): (142, 189, 192, 52, "fed758a39a19482f"),
    ("m3_1", "molesp"): (142, 189, 192, 52, "fed758a39a19482f"),
    ("m3_2", "bft"): (586, 505, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "bft_m"): (586, 1092, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "bft_am"): (614, 1983, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "gam"): (421, 18, 249, 33, "e64ad14f2a0581d4"),
    ("m3_2", "esp"): (119, 144, 143, 20, "b8632c21c73311eb"),
    ("m3_2", "moesp"): (172, 154, 143, 33, "e64ad14f2a0581d4"),
    ("m3_2", "lesp"): (179, 126, 167, 20, "b8632c21c73311eb"),
    ("m3_2", "molesp"): (238, 130, 167, 33, "e64ad14f2a0581d4"),
    ("m3_3", "bft"): (804, 396, 0, 31, "9528721a5508094c"),
    ("m3_3", "bft_m"): (804, 1499, 0, 31, "9528721a5508094c"),
    ("m3_3", "bft_am"): (826, 1735, 0, 31, "9528721a5508094c"),
    ("m3_3", "gam"): (192, 0, 128, 31, "9528721a5508094c"),
    ("m3_3", "esp"): (101, 91, 128, 31, "9528721a5508094c"),
    ("m3_3", "moesp"): (101, 91, 128, 31, "9528721a5508094c"),
    ("m3_3", "lesp"): (101, 91, 128, 31, "9528721a5508094c"),
    ("m3_3", "molesp"): (101, 91, 128, 31, "9528721a5508094c"),
    ("m3_4", "bft"): (267, 247, 0, 35, "47e461445d7095ac"),
    ("m3_4", "bft_m"): (268, 512, 0, 35, "47e461445d7095ac"),
    ("m3_4", "bft_am"): (271, 873, 0, 35, "47e461445d7095ac"),
    ("m3_4", "gam"): (340, 24, 205, 35, "47e461445d7095ac"),
    ("m3_4", "esp"): (100, 126, 128, 23, "bb4b6db93ec18585"),
    ("m3_4", "moesp"): (152, 137, 128, 35, "47e461445d7095ac"),
    ("m3_4", "lesp"): (143, 110, 143, 23, "bb4b6db93ec18585"),
    ("m3_4", "molesp"): (203, 113, 143, 35, "47e461445d7095ac"),
    ("m3_2_uni", "bft"): (586, 505, 0, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "bft_m"): (586, 1092, 0, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "bft_am"): (614, 1983, 0, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "gam"): (26, 0, 22, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "esp"): (26, 0, 22, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "moesp"): (26, 0, 22, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "lesp"): (26, 0, 22, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "molesp"): (26, 0, 22, 4, "6451b39587ad3c76"),
}


def _cases(fig1):
    fig1_seeds = SeedSets([(2, 4), (3, 6), (9,)])
    labels = frozenset({"citizenOf", "parentOf", "investsIn", "founded"})
    cases = {
        "fig1": (fig1, fig1_seeds, CtpFilters()),
        "fig1_max4": (fig1, fig1_seeds, CtpFilters(max_edges=4)),
        "fig1_labels": (fig1, fig1_seeds, CtpFilters(labels=labels)),
    }
    chain = gen_chain(6)
    cases["chain6"] = (chain.graph, chain.seeds(), CtpFilters())
    cases["chain6_uni"] = (chain.graph, chain.seeds(), CtpFilters(uni=True))
    star = gen_star(3, 2)
    cases["star3x2"] = (star.graph, star.seeds(), CtpFilters())
    comb = gen_comb(2, 1, 1, 1)
    cases["comb2111"] = (comb.graph, comb.seeds(), CtpFilters())
    suite = random_suite(5, [1, 2, 3, 2, 3, 3], rng_seed=20250811)
    for i, (g, seeds) in enumerate(suite):
        cases[f"m3_{i}"] = (g, seeds, CtpFilters())
    g, seeds = suite[2]
    cases["m3_2_uni"] = (g, seeds, CtpFilters(uni=True))
    return cases


def observe(g, seeds, filters, algorithm) -> tuple:
    results, stats = run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=filters))
    order = repr([rt.identity() for rt in results]).encode()
    return (
        stats.provenances_built,
        stats.trees_pruned,
        stats.queue_pops,
        stats.results_found,
        hashlib.sha256(order).hexdigest()[:16],
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_counters_and_result_order_match_recorded_values(fig1, algorithm):
    for name, (g, seeds, filters) in _cases(fig1).items():
        assert observe(g, seeds, filters, algorithm) == PINNED[name, algorithm], name


#: Heavy or order-sensitive cases, pinned for the listed algorithms only. The
#: m=4..6 instances change their counters when merge partners are visited out
#: of record order; m3_53 is the slowest bft_m instance of the m<=3 suite;
#: fig1_skewed, fig1_skewed_ties and cdf8_skewed have seed sets skewed enough
#: to turn on one queue per mask; cdf16 is a small cdf m=2 forest query.
EXTRA_PINNED = {
    ("chain10_span9", "gam"): (6142, 0, 2044, 512, "30361bb9b08b6c30"),
    ("chain10_span9", "esp"): (1534, 4608, 2044, 512, "30361bb9b08b6c30"),
    ("chain10_span9", "molesp"): (1534, 4608, 2044, 512, "30361bb9b08b6c30"),
    ("chain10_span10", "esp"): (3070, 10240, 4092, 1024, "6eee48148abee937"),
    ("chain10_span10", "molesp"): (3070, 10240, 4092, 1024, "6eee48148abee937"),
    ("fig1_skewed", "gam"): (21, 0, 9, 1, "c82da1453eed771d"),
    ("fig1_skewed", "esp"): (17, 4, 9, 1, "c82da1453eed771d"),
    ("fig1_skewed", "moesp"): (19, 4, 9, 1, "c82da1453eed771d"),
    ("fig1_skewed", "lesp"): (17, 4, 9, 1, "c82da1453eed771d"),
    ("fig1_skewed", "molesp"): (19, 4, 9, 1, "c82da1453eed771d"),
    ("fig1_skewed_ties", "gam"): (29, 0, 14, 3, "a97921bab8029504"),
    ("fig1_skewed_ties", "esp"): (18, 8, 12, 2, "3183ef102897e49a"),
    ("fig1_skewed_ties", "moesp"): (23, 8, 12, 3, "a97921bab8029504"),
    ("fig1_skewed_ties", "lesp"): (18, 8, 12, 2, "3183ef102897e49a"),
    ("fig1_skewed_ties", "molesp"): (23, 8, 12, 3, "a97921bab8029504"),
    ("cdf8_skewed", "gam"): (743, 0, 683, 2, "3e8c2d268f0617df"),
    ("cdf8_skewed", "esp"): (635, 52, 627, 2, "3e8c2d268f0617df"),
    ("cdf8_skewed", "moesp"): (643, 52, 627, 2, "3e8c2d268f0617df"),
    ("cdf8_skewed", "lesp"): (635, 52, 627, 2, "3e8c2d268f0617df"),
    ("cdf8_skewed", "molesp"): (643, 52, 627, 2, "3e8c2d268f0617df"),
    ("cdf16", "gam"): (576, 0, 384, 64, "7684550037207385"),
    ("cdf16", "esp"): (384, 192, 384, 64, "7684550037207385"),
    ("cdf16", "moesp"): (384, 192, 384, 64, "7684550037207385"),
    ("cdf16", "lesp"): (384, 192, 384, 64, "7684550037207385"),
    ("cdf16", "molesp"): (384, 192, 384, 64, "7684550037207385"),
    ("m456_50", "moesp"): (2951, 1479, 554, 42, "6fe431d49d7383c5"),
    ("m456_50", "molesp"): (3446, 1406, 735, 42, "6fe431d49d7383c5"),
    ("m456_70", "moesp"): (817, 602, 301, 69, "f49702cb10ce57ee"),
    ("m456_70", "molesp"): (959, 634, 378, 69, "f49702cb10ce57ee"),
    ("m456_80", "moesp"): (415, 332, 154, 10, "695cb635f102a85e"),
    ("m456_80", "molesp"): (415, 332, 154, 10, "695cb635f102a85e"),
    ("m456_6", "bft_m"): (5283, 11824, 0, 164, "2cd92d0252e183c0"),
    ("m456_79", "bft_m"): (1511, 4387, 0, 52, "ae0c84f8e4f60650"),
    ("m3_53", "bft_m"): (10471, 40837, 0, 67, "47426fd4cd1b439b"),
}


def _extra_case(name):
    if name == "chain10_span9":  # the span-9 and span-10 queries of perfbench's chain-search
        return gen_chain(10).graph, SeedSets([(1,), (10,)])
    if name == "chain10_span10":
        return gen_chain(10).graph, SeedSets([(1,), (11,)])
    if name == "fig1_skewed":
        return load_graph(FIG1_NODES.splitlines(), FIG1_EDGES.splitlines()), SeedSets([range(1, 11), (11,), (9,)])
    if name == "fig1_skewed_ties":  # queues of equal length: the smaller mask is popped first
        return load_graph(FIG1_NODES.splitlines(), FIG1_EDGES.splitlines()), SeedSets([range(1, 11), (11,), (12,)])
    if name.startswith("cdf"):  # the seed sets its query plan derives; cdf16: 64 seeds among 352 nodes
        w = gen_cdf(2, 16 if name == "cdf16" else 8, 64 if name == "cdf16" else 32, 3, 7)
        ((_, seeds, _),) = plan_query(w.graph, validate_query(parse_query(w.query_text))).searches
        if name == "cdf8_skewed":  # one queue per mask, and their lengths decide most pops
            top, bottom = sorted(seeds.sets[0]), sorted(seeds.sets[1])
            seeds = SeedSets([top, bottom[:1], bottom[-1:]])
        return w.graph, seeds
    suite, index = name.split("_")
    index = int(index)
    if suite == "m456":
        return random_suite(index + 1, [4, 5, 6], rng_seed=20250812)[index]
    return random_suite(index + 1, [1, 2, 3, 2, 3, 3], rng_seed=20250811)[index]


@pytest.mark.parametrize("name, algorithm", list(EXTRA_PINNED))
def test_heavy_and_order_sensitive_cases_match_recorded_values(name, algorithm):
    g, seeds = _extra_case(name)
    assert observe(g, seeds, CtpFilters(), algorithm) == EXTRA_PINNED[name, algorithm]


#: Cases pinned on every reported field: the digest covers the ordered
#: ``(edges, nodes, seed_tuple, root, score)`` of the results, so the root
#: rule, the universal seed-set cells and the scores are checked as well.
FULL_PINNED = {
    ("fig1_universal", "bft"): (9645, 8436, 0, 61, "842244c92fd5c389"),
    ("fig1_universal", "bft_m"): (9645, 30301, 0, 61, "842244c92fd5c389"),
    ("fig1_universal", "bft_am"): (11273, 46076, 0, 61, "842244c92fd5c389"),
    ("fig1_universal", "gam"): (760, 0, 392, 61, "842244c92fd5c389"),
    ("fig1_universal", "esp"): (334, 426, 392, 61, "842244c92fd5c389"),
    ("fig1_universal", "moesp"): (334, 426, 392, 61, "842244c92fd5c389"),
    ("fig1_universal", "lesp"): (334, 426, 392, 61, "842244c92fd5c389"),
    ("fig1_universal", "molesp"): (334, 426, 392, 61, "842244c92fd5c389"),
    ("chain4_universal_uni", "bft"): (46, 16, 0, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "bft_m"): (46, 64, 0, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "bft_am"): (46, 64, 0, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "gam"): (32, 0, 30, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "esp"): (32, 0, 30, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "moesp"): (32, 0, 30, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "lesp"): (32, 0, 30, 16, "519dba71fbee619e"),
    ("chain4_universal_uni", "molesp"): (32, 0, 30, 16, "519dba71fbee619e"),
    ("fig1_top3", "bft"): (1268, 1364, 0, 22, "05229f6033700c5e"),
    ("fig1_top3", "bft_m"): (1346, 2568, 0, 22, "05229f6033700c5e"),
    ("fig1_top3", "bft_am"): (1434, 7163, 0, 22, "05229f6033700c5e"),
    ("fig1_top3", "gam"): (329, 4, 208, 22, "05229f6033700c5e"),
    ("fig1_top3", "esp"): (63, 44, 71, 3, "ca28f1062b68b94d"),
    ("fig1_top3", "moesp"): (107, 45, 71, 22, "05229f6033700c5e"),
    ("fig1_top3", "lesp"): (72, 43, 75, 3, "ca28f1062b68b94d"),
    ("fig1_top3", "molesp"): (117, 43, 75, 22, "05229f6033700c5e"),
    ("m3_2_universal", "bft"): (586, 505, 0, 33, "03e4866887a274ee"),
    ("m3_2_universal", "bft_m"): (586, 1092, 0, 33, "03e4866887a274ee"),
    ("m3_2_universal", "bft_am"): (614, 1983, 0, 33, "03e4866887a274ee"),
    ("m3_2_universal", "gam"): (421, 18, 249, 33, "03e4866887a274ee"),
    ("m3_2_universal", "esp"): (119, 144, 143, 20, "698144f42b674ef7"),
    ("m3_2_universal", "moesp"): (172, 154, 143, 33, "03e4866887a274ee"),
    ("m3_2_universal", "lesp"): (179, 126, 167, 20, "698144f42b674ef7"),
    ("m3_2_universal", "molesp"): (238, 130, 167, 33, "03e4866887a274ee"),
}


def _full_cases(fig1):
    fig1_seeds = SeedSets([(2, 4), (3, 6), (9,)])
    universal = SeedSets([(2, 4), (), (9,)], [False, True, False])
    chain = gen_chain(4)
    chain_universal = SeedSets([*chain.seed_sets, ()], [False, False, True])
    g, seeds = random_suite(3, [1, 2, 3], rng_seed=20250811)[2]
    return {
        "fig1_universal": (fig1, universal, CtpFilters()),
        "chain4_universal_uni": (chain.graph, chain_universal, CtpFilters(uni=True)),
        "fig1_top3": (fig1, fig1_seeds, CtpFilters(score="edgecount", top_k=3)),
        "m3_2_universal": (g, SeedSets(list(seeds.sets) + [()], [False] * seeds.m + [True]), CtpFilters()),
    }


def observe_full(g, seeds, filters, algorithm) -> tuple:
    results, stats = run_search(g, seeds, SearchConfig(algorithm=algorithm, filters=filters))
    rows = repr([(rt.edges, rt.nodes, rt.seed_tuple, rt.root, rt.score) for rt in results]).encode()
    return (
        stats.provenances_built,
        stats.trees_pruned,
        stats.queue_pops,
        stats.results_found,
        hashlib.sha256(rows).hexdigest()[:16],
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_roots_seed_tuples_and_scores_match_recorded_values(fig1, algorithm):
    for name, (g, seeds, filters) in _full_cases(fig1).items():
        assert observe_full(g, seeds, filters, algorithm) == FULL_PINNED[name, algorithm], name
