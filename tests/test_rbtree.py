"""Tests for the red-black tree, including model-based property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.rbtree import RedBlackTree


class TestBasics:
    def test_empty(self):
        tree = RedBlackTree()
        assert len(tree) == 0
        assert not tree
        assert 1 not in tree
        assert tree.get(1) is None
        assert tree.get(1, "d") == "d"

    def test_insert_and_get(self):
        tree = RedBlackTree()
        assert tree.insert(1, "one")
        assert tree.get(1) == "one"
        assert 1 in tree
        assert len(tree) == 1

    def test_insert_replaces_value(self):
        tree = RedBlackTree()
        tree.insert(1, "one")
        assert not tree.insert(1, "uno")
        assert tree.get(1) == "uno"
        assert len(tree) == 1

    def test_delete(self):
        tree = RedBlackTree()
        tree.insert(1, "one")
        assert tree.delete(1)
        assert 1 not in tree
        assert not tree.delete(1)

    def test_min_max(self):
        tree = RedBlackTree()
        for key in [5, 2, 8, 1, 9]:
            tree.insert(key, key * 10)
        assert tree.min_item() == (1, 10)

    def test_min_max_empty_raise(self):
        with pytest.raises(KeyError):
            RedBlackTree().min_item()

    def test_items_sorted(self):
        tree = RedBlackTree()
        keys = [5, 2, 8, 1, 9, 3]
        for key in keys:
            tree.insert(key, None)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_values_follow_keys(self):
        tree = RedBlackTree()
        for key in [3, 1, 2]:
            tree.insert(key, key * 2)
        assert list(tree.values()) == [2, 4, 6]


class TestItemsBelow:
    def setup_method(self):
        self.tree = RedBlackTree()
        for key in range(0, 20, 2):  # 0, 2, ..., 18
            self.tree.insert(key, key)

    def test_exclusive_bound(self):
        assert [k for k, _ in self.tree.items_below(6)] == [0, 2, 4]

    def test_bound_on_present_key_excluded(self):
        assert [k for k, _ in self.tree.items_below(4)] == [0, 2]

    def test_inclusive_bound(self):
        assert [k for k, _ in self.tree.items_below(4, inclusive=True)] == [0, 2, 4]

    def test_bound_below_min(self):
        assert list(self.tree.items_below(-1)) == []

    def test_bound_above_max(self):
        assert [k for k, _ in self.tree.items_below(100)] == list(range(0, 20, 2))

    def test_empty_tree(self):
        assert list(RedBlackTree().items_below(10)) == []


class TestInvariantsUnderChurn:
    def test_random_churn_keeps_invariants(self):
        rng = random.Random(42)
        tree = RedBlackTree()
        model = {}
        for step in range(3000):
            key = rng.randrange(300)
            if rng.random() < 0.55:
                tree.insert(key, step)
                model[key] = step
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            if step % 250 == 0:
                tree.check_invariants()
                assert list(tree.items()) == sorted(model.items())
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())

    def test_ascending_insert_then_full_delete(self):
        tree = RedBlackTree()
        for key in range(500):
            tree.insert(key, key)
        tree.check_invariants()
        for key in range(500):
            assert tree.delete(key)
        assert len(tree) == 0
        tree.check_invariants()

    def test_descending_insert(self):
        tree = RedBlackTree()
        for key in range(500, 0, -1):
            tree.insert(key, key)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(1, 501))

    def test_black_height_logarithmic(self):
        tree = RedBlackTree()
        for key in range(2048):
            tree.insert(key, None)
        black_height = tree.check_invariants()
        # A red-black tree with n nodes has black height <= log2(n+1).
        assert black_height <= 12


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_model_equivalence(ops):
    """Property: the tree behaves exactly like a sorted dict."""
    tree = RedBlackTree()
    model = {}
    for op, key in ops:
        if op == "ins":
            tree.insert(key, key)
            model[key] = key
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == len(model)


@settings(max_examples=100)
@given(
    keys=st.sets(st.integers(-1000, 1000), max_size=80),
    bound=st.integers(-1000, 1000),
)
def test_items_below_matches_filter(keys, bound):
    tree = RedBlackTree()
    for key in keys:
        tree.insert(key, None)
    expected = sorted(k for k in keys if k < bound)
    assert [k for k, _ in tree.items_below(bound)] == expected
    expected_inc = sorted(k for k in keys if k <= bound)
    assert [k for k, _ in tree.items_below(bound, inclusive=True)] == expected_inc


class TestDeleteBelow:
    """The PR 8 range-delete: one ordered walk, not N single deletes."""

    def test_deletes_prefix(self):
        tree = RedBlackTree()
        for key in range(20):
            tree.insert(key, key * 10)
        assert tree.delete_below(7) == 7
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(7, 20))

    def test_bound_is_exclusive(self):
        tree = RedBlackTree()
        for key in (1, 2, 3):
            tree.insert(key, None)
        assert tree.delete_below(2) == 1
        assert [k for k, _ in tree.items()] == [2, 3]

    def test_keep_predicate_retains(self):
        tree = RedBlackTree()
        for key in range(10):
            tree.insert(key, key)
        kept = tree.delete_below(10, keep=lambda k, v: k % 3 == 0)
        assert kept == 6  # 1,2,4,5,7,8 deleted; 0,3,6,9 kept
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == [0, 3, 6, 9]

    def test_empty_and_out_of_range(self):
        tree = RedBlackTree()
        assert tree.delete_below(100) == 0
        tree.insert(50, None)
        assert tree.delete_below(10) == 0
        assert len(tree) == 1


class TestExtractRangeAndBetween:
    def test_clear_empties_and_reuses(self):
        tree = RedBlackTree()
        for key in range(100):
            tree.insert(key, None)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.insert(1, "back")
        assert tree.get(1) == "back"
        tree.check_invariants()


@settings(max_examples=150)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["ins", "del", "below"]),
            st.integers(0, 60),
        ),
        max_size=100,
    )
)
def test_range_ops_model_equivalence(ops):
    """Property: interleaved inserts, deletes and delete_below behave
    exactly like a sorted dict, with invariants holding throughout."""
    tree = RedBlackTree()
    model = {}
    for op, key in ops:
        if op == "ins":
            tree.insert(key, key)
            model[key] = key
        elif op == "del":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            expected = sorted(k for k in model if k < key)
            assert tree.delete_below(key) == len(expected)
            for k in expected:
                del model[k]
    tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == len(model)


@settings(max_examples=100)
@given(
    keys=st.sets(st.integers(-100, 100), max_size=60),
    bound=st.integers(-100, 100),
    mod=st.integers(2, 5),
)
def test_delete_below_keep_matches_filter(keys, bound, mod):
    tree = RedBlackTree()
    for key in keys:
        tree.insert(key, key)
    deleted = tree.delete_below(bound, keep=lambda k, v: k % mod == 0)
    expected_gone = sorted(k for k in keys if k < bound and k % mod != 0)
    assert deleted == len(expected_gone)
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(k for k in keys if k not in expected_gone)
