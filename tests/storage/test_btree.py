"""Unit and property tests for the B-tree clustered index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage.btree import BTree


class TestBasicOperations:
    def test_empty_tree(self):
        tree = BTree()
        assert len(tree) == 0
        assert tree.min_key() is None
        assert tree.max_key() is None
        assert tree.get(1) is None
        assert 1 not in tree
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree = BTree()
        tree.insert(5, "five")
        tree.insert(3, "three")
        tree.insert(8, "eight")
        assert len(tree) == 3
        assert tree.get(5) == "five"
        assert tree.get(3) == "three"
        assert tree.get(8) == "eight"
        assert tree.get(4) is None
        assert 3 in tree and 4 not in tree

    def test_insert_duplicate_raises(self):
        tree = BTree()
        tree.insert(1, "a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(1, "b")
        assert tree.get(1) == "a"
        assert len(tree) == 1

    def test_duplicate_raised_in_deep_tree(self):
        tree = BTree(order=3)
        for i in range(100):
            tree.insert(i, i)
        for i in range(100):
            with pytest.raises(DuplicateKeyError):
                tree.insert(i, -1)
        assert len(tree) == 100

    def test_upsert(self):
        tree = BTree()
        assert tree.upsert(1, "a") is True
        assert tree.upsert(1, "b") is False
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_min_max(self):
        tree = BTree(order=3)
        for i in [50, 10, 90, 30, 70]:
            tree.insert(i, i)
        assert tree.min_key() == 10
        assert tree.max_key() == 90

    def test_items_sorted(self):
        tree = BTree(order=3)
        keys = random.Random(1).sample(range(1000), 300)
        for k in keys:
            tree.insert(k, k * 2)
        assert [k for k, _ in tree.items()] == sorted(keys)
        assert all(v == k * 2 for k, v in tree.items())

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BTree(order=2)

    def test_height_grows_logarithmically(self):
        tree = BTree(order=7)
        for i in range(500):
            tree.insert(i, i)
        # 500 keys at fan-out >= 4 must fit in few levels.
        assert tree.height() <= 6

    def test_string_keys(self):
        tree = BTree()
        tree.insert("db-2", 2)
        tree.insert("db-1", 1)
        tree.insert("db-10", 10)
        assert [k for k, _ in tree.items()] == ["db-1", "db-10", "db-2"]


class TestDelete:
    def test_delete_from_leaf(self):
        tree = BTree()
        tree.insert(1, "a")
        tree.insert(2, "b")
        assert tree.delete(1) == "a"
        assert len(tree) == 1
        assert tree.get(1) is None
        assert tree.get(2) == "b"

    def test_delete_missing_raises(self):
        tree = BTree()
        tree.insert(1, "a")
        with pytest.raises(KeyNotFoundError):
            tree.delete(2)

    def test_discard_missing_returns_none(self):
        tree = BTree()
        tree.insert(1, "a")
        assert tree.discard(2) is None
        assert tree.discard(1) == "a"
        assert len(tree) == 0

    def test_delete_all_ascending(self):
        tree = BTree(order=3)
        for i in range(200):
            tree.insert(i, i)
        for i in range(200):
            assert tree.delete(i) == i
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_all_descending(self):
        tree = BTree(order=3)
        for i in range(200):
            tree.insert(i, i)
        for i in reversed(range(200)):
            assert tree.delete(i) == i
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_shuffled(self):
        rng = random.Random(7)
        tree = BTree(order=5)
        keys = list(range(300))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, str(k))
        rng.shuffle(keys)
        for k in keys:
            assert tree.delete(k) == str(k)
            tree.check_invariants()
        assert len(tree) == 0


class TestRangeOperations:
    def _tree(self, keys):
        tree = BTree(order=5)
        for k in keys:
            tree.insert(k, k)
        return tree

    def test_range_inclusive(self):
        tree = self._tree(range(0, 100, 10))
        assert [k for k, _ in tree.range_items(20, 50)] == [20, 30, 40, 50]

    def test_range_exclusive_bounds(self):
        tree = self._tree(range(0, 100, 10))
        got = [k for k, _ in tree.range_items(20, 50, include_lo=False, include_hi=False)]
        assert got == [30, 40]

    def test_range_open_ended(self):
        tree = self._tree(range(5))
        assert [k for k, _ in tree.range_items(lo=3)] == [3, 4]
        assert [k for k, _ in tree.range_items(hi=1)] == [0, 1]
        assert [k for k, _ in tree.range_items()] == [0, 1, 2, 3, 4]

    def test_range_no_match(self):
        tree = self._tree([10, 20, 30])
        assert list(tree.range_items(11, 19)) == []
        assert list(tree.range_items(40, 50)) == []


# ---------------------------------------------------------------------------
# Property-based tests against a dict + sorted-list model
# ---------------------------------------------------------------------------


@st.composite
def operations(draw):
    """A random sequence of (op, key) pairs."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n):
        op = draw(st.sampled_from(["insert", "delete", "get", "upsert"]))
        key = draw(st.integers(min_value=0, max_value=60))
        ops.append((op, key))
    return ops


@settings(max_examples=200, deadline=None)
@given(operations(), st.integers(min_value=3, max_value=9))
def test_btree_matches_dict_model(ops, order):
    tree = BTree(order=order)
    model = {}
    for op, key in ops:
        if op == "insert":
            if key in model:
                with pytest.raises(DuplicateKeyError):
                    tree.insert(key, key)
            else:
                tree.insert(key, key)
                model[key] = key
        elif op == "upsert":
            tree.upsert(key, key * 10)
            model[key] = key * 10
        elif op == "delete":
            if key in model:
                assert tree.delete(key) == model.pop(key)
            else:
                with pytest.raises(KeyNotFoundError):
                    tree.delete(key)
        else:
            assert tree.get(key) == model.get(key)
    tree.check_invariants()
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), unique=True, min_size=0, max_size=200),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_range_items_matches_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = BTree(order=5)
    for k in keys:
        tree.insert(k, k)
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [k for k, _ in tree.range_items(lo, hi)] == expected


# ---------------------------------------------------------------------------
# Bottom-up bulk build
# ---------------------------------------------------------------------------


def _leaf_depths_and_fills(tree):
    """Depth of every leaf, and (is_root, key count) of every node."""
    depths, fills = [], []
    stack = [(tree._root, 1, True)]
    while stack:
        node, depth, is_root = stack.pop()
        fills.append((is_root, len(node.keys)))
        if node.is_leaf:
            depths.append(depth)
        stack.extend((child, depth + 1, False) for child in node.children)
    return depths, fills


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 6, 7, 63]),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=2**32),
)
def test_from_sorted_builds_a_valid_tree(order, size, seed):
    rng = random.Random(seed)
    keys, key = [], -rng.randrange(100)
    for _ in range(size):
        key += rng.randrange(1, 5)
        keys.append(key)
    items = [(k, k * 3) for k in keys]
    tree = BTree.from_sorted(items, order=order)

    depths, fills = _leaf_depths_and_fills(tree)
    assert len(set(depths)) == 1
    for is_root, count in fills:
        assert count <= order
        if not is_root:
            assert tree._min_keys <= count
    assert len(tree) == size
    assert list(tree.items()) == items
    tree.check_invariants()

    # The built tree keeps working as a B-tree under inserts and deletes.
    model = dict(items)
    low, high = (keys[0] - 10, keys[-1] + 10) if keys else (0, 50)
    for _ in range(300):
        k = rng.randrange(low, high)
        if k in model and rng.random() < 0.6:
            assert tree.delete(k) == model.pop(k)
        elif k not in model:
            tree.insert(k, -k)
            model[k] = -k
    tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())


def test_from_sorted_counts_inserts_under_obs():
    from repro.observability.runtime import OBS, observed
    from repro.observability.tracer import NULL_TRACER

    items = [(i, i) for i in range(500)]
    with observed(tracer=NULL_TRACER):
        BTree.from_sorted(items, order=5)
        bulk = OBS.metrics.counter("btree.inserts").value
    with observed(tracer=NULL_TRACER):
        tree = BTree(order=5)
        for key, value in items:
            tree.insert(key, value)
        loop = OBS.metrics.counter("btree.inserts").value
    assert bulk == loop == 500
