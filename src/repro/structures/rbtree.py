"""A CLRS-style red-black tree.

Implemented from scratch because the in2t/in3t merge indexes (Fig. 1 of the
paper) are specified over red-black trees and no third-party ordered
container is assumed.  Supports insert, delete, exact lookup, ordered
iteration, and bounded iteration (``items_below`` drives the
``FindHalfFrozen`` scans in algorithms R3/R4).

Keys must be mutually orderable; values are arbitrary.  Duplicate keys are
not stored — inserting an existing key replaces its value (callers that
need multiplicity, like in3t's Ve tier, store counts as values).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple

RED = True
BLACK = False


class _Node:
    """A tree node.  ``_NIL`` is the shared black sentinel leaf."""

    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any, color: bool):
        self.key = key
        self.value = value
        self.color = color
        self.left: "_Node" = _NIL
        self.right: "_Node" = _NIL
        self.parent: "_Node" = _NIL

    def __repr__(self) -> str:  # pragma: no cover
        colour = "R" if self.color == RED else "B"
        return f"_Node({self.key!r}, {colour})"


class _Sentinel(_Node):
    """The NIL leaf: always black, self-parented, compares as empty."""

    def __init__(self) -> None:  # noqa: D401 - trivial
        self.key = None
        self.value = None
        self.color = BLACK
        self.left = self
        self.right = self
        self.parent = self

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return "NIL"


_NIL = _Sentinel.__new__(_Sentinel)
_Sentinel.__init__(_NIL)


class RedBlackTree:
    """An ordered map on a red-black tree.

    >>> tree = RedBlackTree()
    >>> for k in [5, 1, 9]:
    ...     tree.insert(k, str(k))
    >>> [k for k, _ in tree.items()]
    [1, 5, 9]
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: _Node = _NIL
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not _NIL

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _find(self, key: Any) -> _Node:
        node = self._root
        while node is not _NIL:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node
        return _NIL

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under *key*, or *default*."""
        node = self._find(key)
        return default if node is _NIL else node.value

    def min_item(self) -> Tuple[Any, Any]:
        """The smallest ``(key, value)``; raises KeyError when empty."""
        if self._root is _NIL:
            raise KeyError("min of empty tree")
        node = self._minimum(self._root)
        return node.key, node.value

    def max_item(self) -> Tuple[Any, Any]:
        """The largest ``(key, value)``; raises KeyError when empty."""
        if self._root is _NIL:
            raise KeyError("max of empty tree")
        node = self._root
        while node.right is not _NIL:
            node = node.right
        return node.key, node.value

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """In-order iteration over ``(key, value)`` pairs.

        Iterative (explicit stack) so deep trees cannot hit the recursion
        limit; mutation during iteration is not supported.
        """
        stack: List[_Node] = []
        node = self._root
        while stack or node is not _NIL:
            while node is not _NIL:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        return (k for k, _ in self.items())

    def values(self) -> Iterator[Any]:
        return (v for _, v in self.items())

    def items_below(self, bound: Any, inclusive: bool = False) -> Iterator[Tuple[Any, Any]]:
        """In-order ``(key, value)`` pairs with ``key < bound``.

        With ``inclusive=True``, ``key <= bound``.  This is the
        ``FindHalfFrozen(t)`` scan of algorithms R3/R4: in-order traversal
        that stops at the first key past the bound, so cost is proportional
        to the affected prefix (plus one root-to-leaf path).
        """
        stack: List[_Node] = []
        node = self._root
        while stack or node is not _NIL:
            while node is not _NIL:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if node.key < bound or (inclusive and not (bound < node.key)):
                yield node.key, node.value
                node = node.right
            else:
                return

    def _range_nodes(self, lo: Any, hi: Any) -> Iterator[_Node]:
        """Nodes with ``lo <= key < hi`` in order (``lo=None`` = no floor,
        ``hi=None`` = no ceiling).

        The descent skips subtrees entirely below *lo*, so cost is
        O(lg n + k) for k yielded nodes.  The tree must not be mutated
        while the iterator is live — callers materialize first.
        """
        stack: List[_Node] = []
        node = self._root
        while node is not _NIL:
            if lo is not None and node.key < lo:
                node = node.right
            else:
                stack.append(node)
                node = node.left
        while stack:
            node = stack.pop()
            if hi is not None and not (node.key < hi):
                return
            yield node
            node = node.right
            while node is not _NIL:
                if lo is not None and node.key < lo:
                    node = node.right
                else:
                    stack.append(node)
                    node = node.left

    def items_between(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        """In-order ``(key, value)`` pairs with ``lo <= key < hi``."""
        return ((n.key, n.value) for n in self._range_nodes(lo, hi))

    # ------------------------------------------------------------------
    # Bulk range deletion (PR 8: CTI-driven settled-run reclamation)
    # ------------------------------------------------------------------

    def delete_below(
        self,
        bound: Any,
        keep: Optional[Callable[[Any, Any], bool]] = None,
    ) -> int:
        """Bulk-delete every entry with ``key < bound``; returns the count.

        One in-order walk over the doomed prefix collects the condemned
        node objects, then each is unlinked directly by node pointer — no
        per-key root-to-leaf search, so reclaiming k settled keys costs
        O(lg n + k) walk steps plus amortized O(1) fixups per unlink,
        versus k full ``delete(key)`` descents.

        ``keep(key, value)`` (called during the walk, before any
        mutation) returning True retains an entry — this is where the
        merge's reconciliation/settlement predicate runs; it may mutate
        values and emit output but must not touch the tree.
        """
        doomed: List[_Node] = []
        for node in self._range_nodes(None, bound):
            if keep is None or not keep(node.key, node.value):
                doomed.append(node)
        for node in doomed:
            self._delete_node(node)
        return len(doomed)

    def extract_range(self, lo: Any, hi: Any) -> List[Tuple[Any, Any]]:
        """Remove and return all ``(key, value)`` with ``lo <= key < hi``.

        Same collect-then-unlink discipline as :meth:`delete_below`; the
        pairs come back in key order.  This is the eviction primitive of
        the cold-run spill: a run's nodes leave the tree in one walk.
        """
        doomed = list(self._range_nodes(lo, hi))
        pairs = [(node.key, node.value) for node in doomed]
        for node in doomed:
            self._delete_node(node)
        return pairs

    def clear(self) -> None:
        """Drop every entry."""
        self._root = _NIL
        self._size = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> bool:
        """Insert ``key -> value``; returns True when the key was new.

        An existing key has its value replaced (size unchanged).
        """
        parent = _NIL
        node = self._root
        while node is not _NIL:
            parent = node
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                node.value = value
                return False
        fresh = _Node(key, value, RED)
        fresh.parent = parent
        if parent is _NIL:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return True

    def get_or_insert(self, key: Any, factory: Any) -> Tuple[Any, bool]:
        """Return ``(value, inserted)`` for *key*, creating it if absent.

        A single root-to-leaf descent serves both the lookup and the
        insertion — the batched merge paths use this in place of a
        ``get`` followed by ``insert``, which would descend twice.  When
        *key* is absent, ``factory()`` supplies the new value and the
        second element of the result is True; an existing key keeps its
        current value (factory is not called).
        """
        node, created = self.get_or_reserve(key)
        if created:
            node.value = factory()
        return node.value, created

    def get_or_reserve(self, key: Any) -> Tuple[_Node, bool]:
        """The node for *key*, inserted with a ``None`` value if absent.

        Returns ``(node, created)``; when *created*, the caller must set
        ``node.value`` before the next tree operation.  This is the
        core of :meth:`get_or_insert` — the hottest merge paths use it
        directly to avoid building a factory closure per element.
        """
        parent = _NIL
        node = self._root
        while node is not _NIL:
            parent = node
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node, False
        fresh = _Node(key, None, RED)
        fresh.parent = parent
        if parent is _NIL:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return fresh, True

    def _insert_fixup(self, node: _Node) -> None:
        while node.parent.color == RED:
            parent = node.parent
            grand = parent.parent
            if parent is grand.left:
                uncle = grand.right
                if uncle.color == RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is parent.right:
                        node = parent
                        self._rotate_left(node)
                        parent = node.parent
                        grand = parent.parent
                    parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if uncle.color == RED:
                    parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is parent.left:
                        node = parent
                        self._rotate_right(node)
                        parent = node.parent
                        grand = parent.parent
                    parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        self._root.color = BLACK

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, key: Any) -> bool:
        """Remove *key*; returns True when it was present."""
        node = self._find(key)
        if node is _NIL:
            return False
        self._delete_node(node)
        return True

    def pop(self, key: Any, default: Any = ...) -> Any:
        """Remove *key* and return its value; KeyError if absent (no default)."""
        node = self._find(key)
        if node is _NIL:
            if default is ...:
                raise KeyError(key)
            return default
        value = node.value
        self._delete_node(node)
        return value

    def _delete_node(self, node: _Node) -> None:
        removed_color = node.color
        if node.left is _NIL:
            fixup_at = node.right
            self._transplant(node, node.right)
        elif node.right is _NIL:
            fixup_at = node.left
            self._transplant(node, node.left)
        else:
            successor = self._minimum(node.right)
            removed_color = successor.color
            fixup_at = successor.right
            if successor.parent is node:
                # fixup_at may be _NIL; its parent pointer must still lead
                # back into the tree for the fixup walk.
                fixup_at.parent = successor
            else:
                self._transplant(successor, successor.right)
                successor.right = node.right
                successor.right.parent = successor
            self._transplant(node, successor)
            successor.left = node.left
            successor.left.parent = successor
            successor.color = node.color
        self._size -= 1
        if removed_color == BLACK:
            self._delete_fixup(fixup_at)
        _NIL.parent = _NIL  # undo any temporary sentinel wiring

    def _transplant(self, old: _Node, new: _Node) -> None:
        if old.parent is _NIL:
            self._root = new
        elif old is old.parent.left:
            old.parent.left = new
        else:
            old.parent.right = new
        new.parent = old.parent

    def _delete_fixup(self, node: _Node) -> None:
        while node is not self._root and node.color == BLACK:
            parent = node.parent
            if node is parent.left:
                sibling = parent.right
                if sibling.color == RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    sibling = parent.right
                if sibling.left.color == BLACK and sibling.right.color == BLACK:
                    sibling.color = RED
                    node = parent
                else:
                    if sibling.right.color == BLACK:
                        sibling.left.color = BLACK
                        sibling.color = RED
                        self._rotate_right(sibling)
                        sibling = parent.right
                    sibling.color = parent.color
                    parent.color = BLACK
                    sibling.right.color = BLACK
                    self._rotate_left(parent)
                    node = self._root
            else:
                sibling = parent.left
                if sibling.color == RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    sibling = parent.left
                if sibling.right.color == BLACK and sibling.left.color == BLACK:
                    sibling.color = RED
                    node = parent
                else:
                    if sibling.left.color == BLACK:
                        sibling.right.color = BLACK
                        sibling.color = RED
                        self._rotate_left(sibling)
                        sibling = parent.left
                    sibling.color = parent.color
                    parent.color = BLACK
                    sibling.left.color = BLACK
                    self._rotate_right(parent)
                    node = self._root
        node.color = BLACK

    # ------------------------------------------------------------------
    # Rotations and helpers
    # ------------------------------------------------------------------

    def _rotate_left(self, node: _Node) -> None:
        pivot = node.right
        node.right = pivot.left
        if pivot.left is not _NIL:
            pivot.left.parent = node
        pivot.parent = node.parent
        if node.parent is _NIL:
            self._root = pivot
        elif node is node.parent.left:
            node.parent.left = pivot
        else:
            node.parent.right = pivot
        pivot.left = node
        node.parent = pivot

    def _rotate_right(self, node: _Node) -> None:
        pivot = node.left
        node.left = pivot.right
        if pivot.right is not _NIL:
            pivot.right.parent = node
        pivot.parent = node.parent
        if node.parent is _NIL:
            self._root = pivot
        elif node is node.parent.right:
            node.parent.right = pivot
        else:
            node.parent.left = pivot
        pivot.right = node
        node.parent = pivot

    @staticmethod
    def _minimum(node: _Node) -> _Node:
        while node.left is not _NIL:
            node = node.left
        return node

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> int:
        """Verify red-black and BST invariants; returns black height.

        Raises AssertionError on violation.  O(n); intended for tests.
        """
        if self._root.color != BLACK:
            raise AssertionError("root must be black")
        count, black_height = self._check(self._root, None, None)
        if count != self._size:
            raise AssertionError(f"size {self._size} != node count {count}")
        return black_height

    def _check(self, node: _Node, low: Any, high: Any) -> Tuple[int, int]:
        if node is _NIL:
            return 0, 1
        if low is not None and not (low < node.key):
            raise AssertionError(f"BST order violated at {node.key!r}")
        if high is not None and not (node.key < high):
            raise AssertionError(f"BST order violated at {node.key!r}")
        if node.color == RED:
            if node.left.color == RED or node.right.color == RED:
                raise AssertionError(f"red node {node.key!r} has red child")
        left_count, left_black = self._check(node.left, low, node.key)
        right_count, right_black = self._check(node.right, node.key, high)
        if left_black != right_black:
            raise AssertionError(f"black-height mismatch at {node.key!r}")
        return left_count + right_count + 1, left_black + (node.color == BLACK)
