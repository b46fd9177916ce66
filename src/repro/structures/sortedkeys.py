"""An ordered set of keys held as sorted chunks — order without a tree.

For an index that finds its entries by hash and needs order only to walk
a key range: in3t's distinct Vs values, and only those.  In2t on the
same layout was prototyped and loses while LMR3+'s ``stable()`` still
walks every live node (EXPERIMENTS.md, PR 19, "Tried and rejected"); it
needs an O(changed) frontier for LMR3+ first.  Keys live in sorted
lists of bounded length, each chunk's largest key mirrored in a flat list,
so locating a key is two bisections.  A key above the maximum is an
append, any other new key an ``insort`` into one chunk: O(lg n + chunk).
Removal is bulk, and costs the chunks it touches, not the keys it takes.

Membership is the caller's to know: :meth:`add` and :meth:`update` take
absent keys, :meth:`discard` present ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain
from typing import Any, Iterable, Iterator, List


class SortedKeys:
    """Distinct, mutually orderable keys in ascending order."""

    __slots__ = ("_load", "_chunks", "_maxes")

    def __init__(self, load: int = 512):
        #: Chunks are cut to at most *load* keys, grow to twice that
        #: before splitting, and join the next one when under half.
        self._load = load
        self._chunks: List[list] = []
        #: ``_maxes[c] == _chunks[c][-1]``; no chunk is ever empty.
        self._maxes: list = []

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self._chunks)

    def _recut(self, c0: int, c1: int, keys: list) -> None:
        """Chunks ``c0:c1`` now hold the sorted *keys*: cut them evenly."""
        pieces = -(-len(keys) // self._load)
        size = -(-len(keys) // pieces) if pieces else 1
        cut = [keys[i:i + size] for i in range(0, len(keys), size)]
        self._chunks[c0:c1] = cut
        self._maxes[c0:c1] = [piece[-1] for piece in cut]

    def add(self, key: Any) -> None:
        """Insert the absent *key*."""
        chunks, maxes = self._chunks, self._maxes
        if maxes and key < maxes[-1]:
            c = bisect_left(maxes, key)
            chunk = chunks[c]
            insort(chunk, key)
            if len(chunk) > 2 * self._load:
                self._recut(c, c + 1, chunk)
        elif maxes and len(chunks[-1]) < self._load:
            chunks[-1].append(key)
            maxes[-1] = key
        else:
            chunks.append([key])
            maxes.append(key)

    def update(self, keys: Iterable[Any]) -> None:
        """Insert the absent *keys* in one merge with the chunks they span."""
        keys = sorted(keys)
        if not keys:
            return
        maxes = self._maxes
        c0 = min(bisect_left(maxes, keys[0]), max(len(maxes) - 1, 0))
        c1 = min(bisect_left(maxes, keys[-1]) + 1, len(maxes))
        # Two ascending runs: the sort is one merge pass.
        keys.extend(chain.from_iterable(self._chunks[c0:c1]))
        keys.sort()
        self._recut(c0, c1, keys)

    def discard(self, keys: Iterable[Any]) -> None:
        """Remove the present *keys*: from each chunk one slice where they
        are neighbours, and a chunk left under half full joins the next."""
        keys = sorted(keys)
        chunks, maxes = self._chunks, self._maxes
        i = 0
        while i < len(keys):
            c = bisect_left(maxes, keys[i])
            chunk = chunks[c]
            j = bisect_right(keys, maxes[c], i)
            at, end = bisect_left(chunk, keys[i]), bisect_right(chunk, keys[j - 1])
            if end - at == j - i:
                del chunk[at:end]
            else:
                gone = set(keys[i:j])
                chunk[at:end] = [key for key in chunk[at:end] if key not in gone]
            if 2 * len(chunk) < self._load:
                self._recut(c, c + 2, list(chain.from_iterable(chunks[c:c + 2])))
            else:
                maxes[c] = chunk[-1]
            i = j

    def between(self, lo: Any, hi: Any) -> list:
        """The keys with ``lo <= key < hi``, ascending."""
        c0, c1 = bisect_left(self._maxes, lo), bisect_left(self._maxes, hi)
        if c0 == c1 < len(self._chunks):
            keys = self._chunks[c0]  # the usual short range: no copy but the slice
        else:
            keys = list(chain.from_iterable(self._chunks[c0:c1 + 1]))
        return keys[bisect_left(keys, lo):bisect_left(keys, hi)]
