"""A push-based temporal mini-DSMS.

The substrate standing in for StreamInsight: enough engine to host LMerge
in realistic query plans —

* :mod:`repro.engine.operator` — the push-based :class:`Operator` protocol
  (insert/adjust/stable handlers, subscriptions, feedback hooks, property
  declaration);
* :mod:`repro.engine.simulation` — a discrete-event clock, delay channels
  (lag, bursts, congestion windows), and single-server plan queues used by
  the timing experiments (Figures 5, 8, 9, 10);
* :mod:`repro.engine.query` — query-graph assembly, compile-time stream
  property inference (Section IV-G), and offline execution.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.operator import Operator, CallbackSink, CollectorSink
    from repro.engine.simulation import (
        BurstyDelay,
        CongestionWindows,
        DelayModel,
        FixedLag,
        NoDelay,
        Simulation,
        SimulatedChannel,
        SimulatedPlan,
    )
    from repro.engine.query import Query, infer_properties
    from repro.engine.runtime import QueuedEdge, Runtime
    from repro.engine.parallel import ParallelRuntime, ShardError, merge_factory
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
