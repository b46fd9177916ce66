"""Streaming operators for the mini-DSMS.

These are the query-plan building blocks the paper composes around LMerge:

* :class:`StreamSource` — replayable source with stipulated properties;
* :class:`Filter` / :class:`MapPayload` — stateless select/project;
* :class:`Union` — the multi-input merge-by-arrival that *creates* disorder;
* :class:`TemporalJoin` — symmetric interval join (revises its output when
  inputs are revised);
* :class:`WindowedCount` / :class:`GroupedCount` / :class:`TopK` — the
  aggregates of Section IV-G whose outputs exhibit the R0/R1/R2/R3
  properties (each in ``CONSERVATIVE`` or ``AGGRESSIVE`` mode);
* :class:`Cleanse` — the buffering reorder operator of Section VI-D used
  by the C+LMR1 enforcement strategy;
* :class:`AlterLifetime` — lifetime modification (the paper's adjust()
  factory when chained after an aggregate);
* :class:`UdfFilter` — a selection UDF with a value-dependent cost model
  (the Figure 10 plan-switching workload);
* :func:`partition_batch` / :class:`ShardUnion` — the CTI-aligned
  exchange for partition-parallel plans (stables broadcast on the way
  out, min-frontier punctuation on the way back).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.operators.source import StreamSource
    from repro.operators.select import Filter, MapPayload
    from repro.operators.union import Union
    from repro.operators.join import TemporalJoin
    from repro.operators.aggregate import (
        AggregateMode,
        GroupedCount,
        TopK,
        WindowedCount,
    )
    from repro.operators.cleanse import Cleanse
    from repro.operators.alter_lifetime import AlterLifetime
    from repro.operators.udf import UdfFilter, ValueBandCost
    from repro.operators.sample import Sample
    from repro.operators.exchange import ShardUnion, partition_batch
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
