"""Physical streams, stream properties, and workload generation.

* :mod:`repro.streams.stream` — :class:`PhysicalStream`, a concrete element
  sequence with prefix/TDB helpers;
* :mod:`repro.streams.properties` — the compile-time property lattice of
  Section IV-G and the R0–R4 restriction classification of Section III-C;
* :mod:`repro.streams.generator` — the synthetic stream generator of
  Section VI-B (StableFreq / EventDuration / MaxGap / Disorder knobs);
* :mod:`repro.streams.divergence` — transforms that derive physically
  different but logically equivalent presentations of a reference stream
  (reordering, speculation/revision, stable thinning, gaps, duplication).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.streams.stream import PhysicalStream
    from repro.streams.properties import (
        Restriction,
        StreamProperties,
        classify,
        measure_properties,
    )
    from repro.streams.generator import GeneratorConfig, StreamGenerator
    from repro.streams.analyze import DisorderStats, measure_disorder
    from repro.streams.punctuation import (
        WatermarkTracker,
        strip_stables,
        with_heartbeats,
    )
    from repro.streams.divergence import (
        diverge,
        inject_gap,
        reorder_within_stability,
        speculate,
        thin_stables,
    )
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
