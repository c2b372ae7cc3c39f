"""Seed sets, minimization and result classification."""

from __future__ import annotations

import pytest

from treeq.trees import (
    Classification,
    SeedSetError,
    SeedSets,
    classify_result,
    minimize,
)

from conftest import make_graph


def test_seed_sets_validation():
    with pytest.raises(SeedSetError):
        SeedSets([])
    with pytest.raises(SeedSetError):
        SeedSets([(1,), ()])
    SeedSets([(1,), ()], universal=[False, True])  # universal sets may be empty


def test_seed_bits_and_multimembership():
    seeds = SeedSets([(1, 2), (2, 3)])
    assert seeds.node_bits == {1: 0b01, 2: 0b11, 3: 0b10}  # node 4 is no seed
    assert seeds.full_mask == 0b11
    assert seeds.chosen_seeds([2, 4]) == {0: 2, 1: 2}


def test_universal_sets_do_not_get_bits():
    seeds = SeedSets([(1,), (), (2,)], universal=[False, True, False])
    assert seeds.active == (0, 2)
    assert seeds.full_mask == 0b11
    assert seeds.node_bits == {1: 0b01, 2: 0b10}


def test_minimize_drops_dead_branch(fig1):
    seeds = SeedSets([(2,), (4,)])
    assert minimize(fig1, {5, 4, 6}, seeds) == frozenset({5, 6})


def test_minimize_is_identity_on_minimal_tree(fig1):
    seeds = SeedSets([(2, 4), (3, 6), (9,)])
    assert minimize(fig1, {9, 10, 11}, seeds) == frozenset({9, 10, 11})


def test_minimize_prunes_trailing_path():
    # path s(1) - s(2) - 3 - 4 - 5 - 6 with seeds at 1 and 2: three trailing edges go
    g = make_graph(["a", "b", "c", "d", "e", "f"], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    seeds = SeedSets([(1,), (2,)])
    assert minimize(g, {1, 2, 3, 4, 5}, seeds) == frozenset({1})


def test_minimize_drops_every_edge_of_a_tree_without_seeds():
    g = make_graph(["a", "b", "c", "d"], [(1, 2), (2, 3), (3, 4)])
    seeds = SeedSets([(4,)])
    assert minimize(g, {1}, seeds) == frozenset()
    assert minimize(g, {1, 2}, seeds) == frozenset()
    assert minimize(g, {1, 2, 3}, seeds) == frozenset()


def test_minimize_rejects_non_tree():
    g = make_graph(["a", "b", "c"], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        minimize(g, {1, 2, 3}, SeedSets([(1,), (2,)]))


def test_minimize_empty_edge_set(fig1):
    assert minimize(fig1, (), SeedSets([(2,)])) == frozenset()


def test_classify_six_seed_result(six_seed_tree):
    g, seeds = six_seed_tree
    result_edges = (1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 16)
    cls = classify_result(g, result_edges, seeds)
    assert len(cls.pieces) == 5
    assert cls.max_piece_leaves == 2
    assert set(cls.pieces) == {
        (6, 12),  # A-4-D
        (1, 2, 3),  # A-1-2-B
        (4, 5),  # B-3-C
        (9, 15),  # B-7-E
        (10, 16),  # B-8-F
    }
    # every piece is a two-edge path: an interior non-seed center exists
    assert cls.all_spiders


def test_classify_three_leaf_star(tee_abc):
    g, seeds = tee_abc
    cls = classify_result(g, (1, 2, 3, 4, 5, 6), seeds)
    assert len(cls.pieces) == 1
    assert cls.max_piece_leaves == 3
    assert cls.piece_is_spider == (True,)
    assert cls.all_spiders


def test_classify_single_edge_between_two_seeds():
    g = make_graph(["A", "B"], [(1, 2)])
    cls = classify_result(g, (1,), SeedSets([(1,), (2,)]))
    assert cls.pieces == ((1,),)
    assert cls.max_piece_leaves == 2
    assert cls.piece_is_spider == (False,)


def test_classify_path_result(path_abc):
    g, seeds = path_abc
    cls = classify_result(g, (1, 2, 3, 4, 5), seeds)
    assert cls.max_piece_leaves == 2
    assert len(cls.pieces) == 2  # split at the internal seed


def test_classify_rejects_non_results(path_abc):
    g, seeds = path_abc
    with pytest.raises(ValueError, match="no seed"):
        classify_result(g, (1,), seeds)  # A-1 covers only one set
    g2 = make_graph(["A", "B", "x", "C"], [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="leaf"):
        classify_result(g2, (1, 2), SeedSets([(1,), (2,)]))  # x is a non-seed leaf
    with pytest.raises(ValueError, match="two seeds"):
        classify_result(g2, (1, 2, 3), SeedSets([(1, 4), (2,)]))


def test_classify_empty_result_is_trivially_guaranteed(fig1):
    cls = classify_result(fig1, (), SeedSets([(2,)]))
    assert cls.pieces == ()
    assert cls.max_piece_leaves == 0
    assert cls.all_spiders
