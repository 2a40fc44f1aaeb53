"""An in-memory B-tree used as the clustered index of every table.

The paper stores database history in a table with "a clustered B-tree-based
index" on ``time_snapshot`` (Section 5) and relies on its O(log n) point and
range operations for the complexity analysis of Algorithms 2-4.  This module
implements that index from scratch:

* ``insert`` / ``delete`` / ``get`` in O(log n),
* ``range_items(lo, hi)`` returning key-ordered items in O(log n + m),
* ``min_key`` / ``max_key`` in O(log n),
* ``from_sorted`` building a tree bottom-up from ascending items in O(n).

Keys may be any totally ordered type; in this project they are integers
(epoch seconds) or strings (database identifiers).
"""

from __future__ import annotations

import bisect
from typing import Any, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.observability.runtime import OBS

K = TypeVar("K")
V = TypeVar("V")

#: Default maximum number of keys per node.  2*t - 1 with minimum degree
#: t = 32; large fan-out keeps trees shallow for the history sizes the
#: paper reports (hundreds to thousands of tuples, Figure 10(a)).
DEFAULT_ORDER = 63


class _Node(Generic[K, V]):
    """One B-tree node: sorted keys with payloads and (for internal nodes)
    child pointers, with ``len(children) == len(keys) + 1``."""

    __slots__ = ("keys", "values", "children")

    def __init__(self) -> None:
        self.keys: List[K] = []
        self.values: List[V] = []
        self.children: List["_Node[K, V]"] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree(Generic[K, V]):
    """A classic (not B+) B-tree mapping unique keys to values."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 3:
            raise ValueError(f"B-tree order must be >= 3, got {order}")
        self._order = order
        # Minimum number of keys in a non-root node.
        self._min_keys = (order - 1) // 2
        self._root: _Node[K, V] = _Node()
        self._size = 0

    @classmethod
    def from_sorted(
        cls, items: Sequence[Tuple[K, V]], order: int = DEFAULT_ORDER
    ) -> "BTree[K, V]":
        """Build a tree from items in strictly ascending key order (not
        re-checked), bottom-up in O(n).

        Each level splits its keys evenly into the fewest nodes of at most
        ``order`` keys, and the key between two neighbours moves up as
        their separator: with two or more nodes, each gets at least
        ``(order + 1) // 2 - 1`` keys, the non-root minimum.  A level that
        fits one node is the root.  Counted as ``len(items)`` inserts.
        """
        tree: BTree[K, V] = cls(order)
        keys = [key for key, _ in items]
        values = [value for _, value in items]
        children: List[_Node[K, V]] = []
        while True:
            # A node with k keys spans k + 1 slots: its keys, then the
            # separator after it (the last node's slot is the level's end).
            slots = len(keys) + 1
            count = -(-slots // (order + 1))
            share, extra = divmod(slots, count)
            level: List[_Node[K, V]] = []
            up_keys: List[K] = []
            up_values: List[V] = []
            lo = 0
            for i in range(count):
                hi = lo + share - 1 + (i < extra)
                node: _Node[K, V] = _Node()
                node.keys, node.values = keys[lo:hi], values[lo:hi]
                if children:
                    node.children = children[lo : hi + 1]
                level.append(node)
                if hi < len(keys):
                    up_keys.append(keys[hi])
                    up_values.append(values[hi])
                lo = hi + 1
            if count == 1:
                break
            keys, values, children = up_keys, up_values, level
        tree._root = level[0]
        tree._size = len(items)
        if OBS.enabled and items:
            OBS.metrics.counter("btree.inserts").inc(len(items))
        return tree

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: K) -> bool:
        return self._find(key) is not None

    @property
    def order(self) -> int:
        return self._order

    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the value for ``key`` or ``default`` if absent."""
        found = self._find(key)
        return default if found is None else found

    def _find(self, key: K) -> Optional[V]:
        node = self._root
        while True:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                return node.values[idx]
            if node.is_leaf:
                return None
            node = node.children[idx]

    def min_key(self) -> Optional[K]:
        """Smallest key, or None when empty (Algorithm 3's MIN query)."""
        if self._size == 0:
            return None
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> Optional[K]:
        """Largest key, or None when empty."""
        if self._size == 0:
            return None
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: K, value: V) -> None:
        """Insert a unique key.  Raises DuplicateKeyError if present."""
        if OBS.enabled:
            OBS.metrics.counter("btree.inserts").inc()
        root = self._root
        if len(root.keys) == self._order:
            new_root: _Node[K, V] = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)
        self._size += 1

    def upsert(self, key: K, value: V) -> bool:
        """Insert or overwrite; returns True if the key was newly inserted."""
        node = self._root
        while True:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return False
            if node.is_leaf:
                break
            node = node.children[idx]
        self.insert(key, value)
        return True

    def _split_child(self, parent: _Node[K, V], idx: int) -> None:
        child = parent.children[idx]
        mid = len(child.keys) // 2
        sibling: _Node[K, V] = _Node()
        sibling.keys = child.keys[mid + 1 :]
        sibling.values = child.values[mid + 1 :]
        if not child.is_leaf:
            sibling.children = child.children[mid + 1 :]
            child.children = child.children[: mid + 1]
        parent.keys.insert(idx, child.keys[mid])
        parent.values.insert(idx, child.values[mid])
        parent.children.insert(idx + 1, sibling)
        child.keys = child.keys[:mid]
        child.values = child.values[:mid]

    def _insert_nonfull(self, node: _Node[K, V], key: K, value: V) -> None:
        while True:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                raise DuplicateKeyError(f"duplicate key {key!r}")
            if node.is_leaf:
                node.keys.insert(idx, key)
                node.values.insert(idx, value)
                return
            child = node.children[idx]
            if len(child.keys) == self._order:
                self._split_child(node, idx)
                if key == node.keys[idx]:
                    raise DuplicateKeyError(f"duplicate key {key!r}")
                if key > node.keys[idx]:
                    idx += 1
            node = node.children[idx]

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, key: K) -> V:
        """Delete ``key`` and return its value; raises KeyNotFoundError."""
        if OBS.enabled:
            OBS.metrics.counter("btree.deletes").inc()
        try:
            value = self._delete(self._root, key)
        finally:
            # Collapse a key-less root even when the key was absent: the
            # descent may still have merged the root's children, and a
            # later delete must not find a 0-key internal root.
            if not self._root.keys and self._root.children:
                self._root = self._root.children[0]
        self._size -= 1
        return value

    def discard(self, key: K) -> Optional[V]:
        """Delete ``key`` if present; return its value or None."""
        try:
            return self.delete(key)
        except KeyNotFoundError:
            return None

    def _delete(self, node: _Node[K, V], key: K) -> V:
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            if node.is_leaf:
                node.keys.pop(idx)
                return node.values.pop(idx)
            return self._delete_internal(node, idx)
        if node.is_leaf:
            raise KeyNotFoundError(f"key {key!r} not found")
        child_idx = idx
        self._ensure_child_fill(node, child_idx)
        # _ensure_child_fill may have merged children / moved keys; redo the
        # descent decision against the updated separator keys.
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return self._delete_internal(node, idx)
        return self._delete(node.children[idx], key)

    def _delete_internal(self, node: _Node[K, V], idx: int) -> V:
        """Delete the separator key at ``idx`` of an internal node."""
        key = node.keys[idx]
        value = node.values[idx]
        left, right = node.children[idx], node.children[idx + 1]
        if len(left.keys) > self._min_keys:
            pred_key, pred_val = self._pop_max(left)
            node.keys[idx], node.values[idx] = pred_key, pred_val
        elif len(right.keys) > self._min_keys:
            succ_key, succ_val = self._pop_min(right)
            node.keys[idx], node.values[idx] = succ_key, succ_val
        else:
            # Both children are minimal: merge them around the separator and
            # re-delete the separator key inside the merged child.
            self._merge_children(node, idx)
            self._delete(node.children[idx], key)
        return value

    def _pop_max(self, node: _Node[K, V]) -> Tuple[K, V]:
        while not node.is_leaf:
            self._ensure_child_fill(node, len(node.children) - 1)
            node = node.children[-1]
        return node.keys.pop(), node.values.pop()

    def _pop_min(self, node: _Node[K, V]) -> Tuple[K, V]:
        while not node.is_leaf:
            self._ensure_child_fill(node, 0)
            node = node.children[0]
        key = node.keys.pop(0)
        return key, node.values.pop(0)

    def _ensure_child_fill(self, node: _Node[K, V], idx: int) -> None:
        """Guarantee children[idx] has more than the minimum keys so a
        recursive delete cannot underflow it."""
        child = node.children[idx]
        if len(child.keys) > self._min_keys:
            return
        if idx > 0 and len(node.children[idx - 1].keys) > self._min_keys:
            self._rotate_right(node, idx - 1)
        elif (
            idx + 1 < len(node.children)
            and len(node.children[idx + 1].keys) > self._min_keys
        ):
            self._rotate_left(node, idx)
        elif idx > 0:
            self._merge_children(node, idx - 1)
        else:
            self._merge_children(node, idx)

    def _rotate_right(self, node: _Node[K, V], idx: int) -> None:
        """Move a key from children[idx] through the separator into
        children[idx + 1]."""
        left, right = node.children[idx], node.children[idx + 1]
        right.keys.insert(0, node.keys[idx])
        right.values.insert(0, node.values[idx])
        node.keys[idx] = left.keys.pop()
        node.values[idx] = left.values.pop()
        if not left.is_leaf:
            right.children.insert(0, left.children.pop())

    def _rotate_left(self, node: _Node[K, V], idx: int) -> None:
        """Move a key from children[idx + 1] through the separator into
        children[idx]."""
        left, right = node.children[idx], node.children[idx + 1]
        left.keys.append(node.keys[idx])
        left.values.append(node.values[idx])
        node.keys[idx] = right.keys.pop(0)
        node.values[idx] = right.values.pop(0)
        if not right.is_leaf:
            left.children.append(right.children.pop(0))

    def _merge_children(self, node: _Node[K, V], idx: int) -> None:
        """Merge children[idx], separator idx, children[idx + 1]."""
        left, right = node.children[idx], node.children[idx + 1]
        left.keys.append(node.keys.pop(idx))
        left.values.append(node.values.pop(idx))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        node.children.pop(idx + 1)

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[K, V]]:
        """All items in key order."""
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _Node[K, V]) -> Iterator[Tuple[K, V]]:
        if node.is_leaf:
            yield from zip(node.keys, node.values)
            return
        for i, key in enumerate(node.keys):
            yield from self._iter_node(node.children[i])
            yield key, node.values[i]
        yield from self._iter_node(node.children[-1])

    def range_items(
        self,
        lo: Optional[K] = None,
        hi: Optional[K] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[K, V]]:
        """Items with lo <= key <= hi (bounds optional / exclusivizable).

        This is the range query used by Algorithm 3 (delete range) and
        Algorithm 4 (MIN/MAX over a window of a previous day).
        """
        # Counted eagerly (not in the generator body) so a scan that is
        # requested but never consumed still shows up in the registry.
        if OBS.enabled:
            OBS.metrics.counter("btree.range_scans").inc()
        return self._range_node(self._root, lo, hi, include_lo, include_hi)

    def _range_node(
        self,
        node: _Node[K, V],
        lo: Optional[K],
        hi: Optional[K],
        include_lo: bool,
        include_hi: bool,
    ) -> Iterator[Tuple[K, V]]:
        if lo is None:
            start = 0
        elif include_lo:
            start = bisect.bisect_left(node.keys, lo)
        else:
            start = bisect.bisect_right(node.keys, lo)
        if hi is None:
            stop = len(node.keys)
        elif include_hi:
            stop = bisect.bisect_right(node.keys, hi)
        else:
            stop = bisect.bisect_left(node.keys, hi)
        if node.is_leaf:
            for i in range(start, stop):
                yield node.keys[i], node.values[i]
            return
        for i in range(start, stop):
            yield from self._range_node(
                node.children[i], lo, hi, include_lo, include_hi
            )
            yield node.keys[i], node.values[i]
        yield from self._range_node(
            node.children[stop], lo, hi, include_lo, include_hi
        )

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural B-tree invariants; raises AssertionError."""
        size = self._check_node(self._root, is_root=True, lo=None, hi=None)
        assert size == self._size, f"size mismatch: counted {size}, recorded {self._size}"

    def _check_node(
        self,
        node: _Node[K, V],
        is_root: bool,
        lo: Optional[K],
        hi: Optional[K],
    ) -> int:
        assert len(node.keys) == len(node.values)
        assert len(node.keys) <= self._order
        if not is_root:
            assert len(node.keys) >= self._min_keys, (
                f"underfull node: {len(node.keys)} < {self._min_keys}"
            )
        for a, b in zip(node.keys, node.keys[1:]):
            assert a < b, f"keys out of order: {a!r} >= {b!r}"
        if node.keys:
            if lo is not None:
                assert node.keys[0] > lo
            if hi is not None:
                assert node.keys[-1] < hi
        if node.is_leaf:
            return len(node.keys)
        assert len(node.children) == len(node.keys) + 1
        total = len(node.keys)
        bounds = [lo] + list(node.keys) + [hi]
        depths = set()
        for i, child in enumerate(node.children):
            total += self._check_node(child, False, bounds[i], bounds[i + 1])
            depths.add(_depth(child))
        assert len(depths) == 1, "children at different depths"
        return total


def _depth(node: _Node[Any, Any]) -> int:
    d = 1
    while not node.is_leaf:
        node = node.children[0]
        d += 1
    return d
