"""The Logical Merge (LMerge) operator family.

LMerge consumes multiple *logically consistent* physical streams and emits
one physical stream compatible with all of them — a duplicate-eliminating
union over physically divergent, fallible inputs (Sections III-V).

The family, by input restriction (Section III-C / IV):

======  ==========================  ===========================================
Case    Class                       State
======  ==========================  ===========================================
R0      :class:`LMergeR0`           MaxVs + MaxStable only
R1      :class:`LMergeR1`           + one counter per input
R2      :class:`LMergeR2`           + hash of payloads at the current MaxVs
R3      :class:`LMergeR3`           in2t two-tier index (LMR3+ of Section VI)
R3-     :class:`LMergeR3Naive`      per-input indexes, no payload sharing
R4      :class:`LMergeR4`           in3t three-tier index
======  ==========================  ===========================================

:func:`create_lmerge` picks the cheapest algorithm admitted by a
:class:`~repro.streams.properties.StreamProperties` (Section IV-G);
:func:`shard` wraps any variant in an N-shard hash-partitioned plan on a
serial, thread, or process backend (``create_lmerge(..., shards=N)``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lmerge.base import LMergeBase, MergeStats
    from repro.lmerge.policies import (
        AdjustPropagation,
        InsertPropagation,
        OutputPolicy,
    )
    from repro.lmerge.r0 import LMergeR0
    from repro.lmerge.r1 import LMergeR1
    from repro.lmerge.r2 import LMergeR2
    from repro.lmerge.r3 import LMergeR3
    from repro.lmerge.r3_naive import LMergeR3Naive
    from repro.lmerge.r4 import LMergeR4
    from repro.lmerge.reclaim import ReclamationPolicy
    from repro.lmerge.selector import algorithm_for, create_lmerge
    from repro.lmerge.feedback import FeedbackSignal, FeedbackPolicy
    from repro.lmerge.counting import CountingMerge
    from repro.lmerge.sharded import ShardedLMerge, shard
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
