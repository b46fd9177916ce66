"""repro — Physically Independent Stream Merging.

A from-scratch reproduction of *Physically Independent Stream Merging*
(Chandramouli, Maier, Goldstein; ICDE 2012): the **LMerge** operator
family over a temporal mini-DSMS.

Quickstart::

    from repro import (
        GeneratorConfig, StreamGenerator, diverge, LMergeR3,
    )

    ref = StreamGenerator(GeneratorConfig(count=10_000, seed=1)).generate()
    inputs = [diverge(ref, seed=i, speculate_fraction=0.3) for i in range(3)]
    merge = LMergeR3()
    merged = merge.merge(inputs)
    assert merged.tdb() == ref.tdb()      # one clean logical stream

See :mod:`repro.lmerge` for the algorithm family, :mod:`repro.engine` for
query plans and simulation, and :mod:`repro.ha` for high availability,
jumpstart, and cutover built on LMerge.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.query import Query
    from repro.ha.checkpoint import Checkpoint, checkpoint_of, replay_stream
    from repro.ha.replica import ReplicatedDeployment
    from repro.lmerge.base import MergeStats
    from repro.lmerge.feedback import FeedbackSignal
    from repro.lmerge.policies import OutputPolicy
    from repro.lmerge.r0 import LMergeR0
    from repro.lmerge.r1 import LMergeR1
    from repro.lmerge.r2 import LMergeR2
    from repro.lmerge.r3 import LMergeR3
    from repro.lmerge.r3_naive import LMergeR3Naive
    from repro.lmerge.r4 import LMergeR4
    from repro.lmerge.selector import algorithm_for, create_lmerge
    from repro.obs.export import RunReport, prometheus_text
    from repro.obs.lmerge_obs import LMergeObserver
    from repro.obs.registry import MetricRegistry
    from repro.obs.trace import RingTracer
    from repro.streams.divergence import diverge
    from repro.streams.generator import GeneratorConfig, StreamGenerator
    from repro.streams.properties import (
        Restriction,
        StreamProperties,
        classify,
        measure_properties,
    )
    from repro.streams.stream import PhysicalStream
    from repro.temporal.elements import Adjust, Insert, Stable
    from repro.temporal.event import Event, FreezeStatus
    from repro.temporal.tdb import TDB, reconstitute
    from repro.temporal.time import INFINITY
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
    __all__.append("__version__")

__version__ = "1.0.0"
