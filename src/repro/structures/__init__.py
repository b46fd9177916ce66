"""Index structures used by the LMerge algorithms.

The paper's R3 and R4 algorithms rely on two custom structures (Fig. 1):

* :class:`~repro.structures.in2t.In2T` — a red-black tree keyed on
  ``(Vs, payload)`` whose nodes hold one event plus a hash table mapping each
  input stream (and the output, key ``OUTPUT``) to its current Ve;
* :class:`~repro.structures.in3t.In3T` — the same keys, but each hash
  entry holds a small ordered index of ``Ve -> count`` so multiple events
  with the same ``(Vs, payload)`` and duplicates are supported.

In2T is built on :class:`~repro.structures.rbtree.RedBlackTree`, a
from-scratch CLRS-style red-black tree; In3T finds its keys by hash and
orders only their distinct Vs values, in
:class:`~repro.structures.sortedkeys.SortedKeys` (no third-party ordered
containers are used anywhere in this repository).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.structures.rbtree import RedBlackTree
    from repro.structures.in2t import In2T, In2TNode, OUTPUT
    from repro.structures.in3t import In3T, In3TNode
    from repro.structures.sizing import (
        HASH_ENTRY_OVERHEAD,
        TREE_NODE_OVERHEAD,
        payload_bytes,
    )
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
