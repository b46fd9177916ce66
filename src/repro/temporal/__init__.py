"""Temporal stream model: events, stream elements, and temporal databases.

This package implements the logical/physical stream model of Section III of
the paper.  A *logical* stream is a temporal database (:class:`~repro.temporal.tdb.TDB`):
a multiset of events, each an interval-stamped payload ``<p, Vs, Ve)``.  A
*physical* stream is a sequence of stream elements (:mod:`repro.temporal.elements`)
that can be *reconstituted* into a TDB instance.

Two physically different streams are logically equivalent when their
reconstituted TDBs are equal; the LMerge operator (:mod:`repro.lmerge`)
consumes several such streams and produces one output compatible with all of
them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.temporal.time import (
        INFINITY,
        MINUS_INFINITY,
        Timestamp,
        is_finite,
        validate_timestamp,
    )
    from repro.temporal.event import Event, FreezeStatus, freeze_status
    from repro.temporal.elements import (
        Adjust,
        Close,
        Element,
        Insert,
        Open,
        Stable,
        element_sort_key,
    )
    from repro.temporal.tdb import TDB, reconstitute, reconstitute_prefix
    from repro.temporal.dialects import (
        elements_to_open_close,
        open_close_to_elements,
    )
else:
    __getattr__, __dir__, __all__ = lazy_exports(__name__, __file__)
