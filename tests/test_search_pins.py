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

from treeq.lang import CtpFilters
from treeq.search import ALGORITHMS, SearchConfig, run_search
from treeq.synth import gen_chain, gen_comb, gen_star
from treeq.trees import SeedSets

from conftest import random_suite

PINNED = {
    ("fig1", "bft"): (1268, 1364, 0, 22, "da6c717b99683bc1"),
    ("fig1", "bft_m"): (1346, 2568, 0, 22, "da6c717b99683bc1"),
    ("fig1", "bft_am"): (1434, 7163, 0, 22, "da6c717b99683bc1"),
    ("fig1", "gam"): (329, 4, 208, 22, "da6c717b99683bc1"),
    ("fig1", "esp"): (63, 44, 71, 3, "8d49895709a532c4"),
    ("fig1", "moesp"): (107, 45, 71, 22, "da6c717b99683bc1"),
    ("fig1", "lesp"): (76, 39, 75, 3, "8d49895709a532c4"),
    ("fig1", "molesp"): (121, 39, 75, 22, "da6c717b99683bc1"),
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
    ("star3x2", "lesp"): (24, 18, 24, 1, "32c5954a8c7f88ef"),
    ("star3x2", "molesp"): (30, 18, 24, 1, "32c5954a8c7f88ef"),
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
    ("m3_2", "bft"): (1035, 1008, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "bft_m"): (1035, 2118, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "bft_am"): (1084, 3755, 0, 33, "e64ad14f2a0581d4"),
    ("m3_2", "gam"): (474, 18, 302, 33, "e64ad14f2a0581d4"),
    ("m3_2", "esp"): (147, 144, 171, 20, "b8632c21c73311eb"),
    ("m3_2", "moesp"): (200, 154, 171, 33, "e64ad14f2a0581d4"),
    ("m3_2", "lesp"): (229, 108, 199, 20, "b8632c21c73311eb"),
    ("m3_2", "molesp"): (288, 112, 199, 33, "e64ad14f2a0581d4"),
    ("m3_3", "bft"): (1308, 673, 0, 31, "9528721a5508094c"),
    ("m3_3", "bft_m"): (1308, 2580, 0, 31, "9528721a5508094c"),
    ("m3_3", "bft_am"): (1350, 3032, 0, 31, "9528721a5508094c"),
    ("m3_3", "gam"): (205, 0, 141, 31, "9528721a5508094c"),
    ("m3_3", "esp"): (114, 91, 141, 31, "9528721a5508094c"),
    ("m3_3", "moesp"): (114, 91, 141, 31, "9528721a5508094c"),
    ("m3_3", "lesp"): (114, 91, 141, 31, "9528721a5508094c"),
    ("m3_3", "molesp"): (114, 91, 141, 31, "9528721a5508094c"),
    ("m3_4", "bft"): (1123, 1272, 0, 35, "47e461445d7095ac"),
    ("m3_4", "bft_m"): (1127, 2634, 0, 35, "47e461445d7095ac"),
    ("m3_4", "bft_am"): (1155, 4879, 0, 35, "47e461445d7095ac"),
    ("m3_4", "gam"): (466, 24, 331, 35, "47e461445d7095ac"),
    ("m3_4", "esp"): (167, 126, 195, 23, "bb4b6db93ec18585"),
    ("m3_4", "moesp"): (219, 137, 195, 35, "47e461445d7095ac"),
    ("m3_4", "lesp"): (258, 86, 234, 23, "bb4b6db93ec18585"),
    ("m3_4", "molesp"): (318, 89, 234, 35, "47e461445d7095ac"),
    ("m3_2_uni", "bft"): (1035, 1008, 0, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "bft_m"): (1035, 2118, 0, 4, "6451b39587ad3c76"),
    ("m3_2_uni", "bft_am"): (1084, 3755, 0, 4, "6451b39587ad3c76"),
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
#: of record order; m3_53 is the slowest bft_m instance of the m<=3 suite.
EXTRA_PINNED = {
    ("chain10_span9", "gam"): (6144, 0, 2046, 512, "30361bb9b08b6c30"),
    ("chain10_span9", "esp"): (1536, 4608, 2046, 512, "30361bb9b08b6c30"),
    ("chain10_span9", "molesp"): (1536, 4608, 2046, 512, "30361bb9b08b6c30"),
    ("m456_50", "moesp"): (2951, 1479, 554, 42, "6fe431d49d7383c5"),
    ("m456_50", "molesp"): (3460, 1392, 735, 42, "6fe431d49d7383c5"),
    ("m456_70", "moesp"): (817, 602, 301, 69, "f49702cb10ce57ee"),
    ("m456_70", "molesp"): (987, 606, 378, 69, "f49702cb10ce57ee"),
    ("m456_80", "moesp"): (415, 332, 154, 10, "695cb635f102a85e"),
    ("m456_80", "molesp"): (415, 332, 154, 10, "695cb635f102a85e"),
    ("m3_53", "bft_m"): (17690, 71505, 0, 67, "47426fd4cd1b439b"),
}


def _extra_case(name):
    if name == "chain10_span9":  # the span-9 query of perfbench's chain-search
        return gen_chain(10).graph, SeedSets([(1,), (10,)])
    suite, index = name.split("_")
    index = int(index)
    if suite == "m456":
        return random_suite(index + 1, [4, 5, 6], rng_seed=20250812)[index]
    return random_suite(index + 1, [1, 2, 3, 2, 3, 3], rng_seed=20250811)[index]


@pytest.mark.parametrize("name, algorithm", list(EXTRA_PINNED))
def test_heavy_and_order_sensitive_cases_match_recorded_values(name, algorithm):
    g, seeds = _extra_case(name)
    assert observe(g, seeds, CtpFilters(), algorithm) == EXTRA_PINNED[name, algorithm]
