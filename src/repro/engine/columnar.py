"""Struct-of-arrays stream batches: the columnar hot-path currency.

PR 3's shard sweep recorded the cost of shipping micro-batches as lists
of per-element ``Insert``/``Adjust`` objects: the process backend paid a
pickle round-trip per element and collapsed to 0.09-0.41x of the batched
baseline.  :class:`ColumnBatch` replaces the object envelope with
parallel columns — one ``array``/``memoryview`` per field — plus a
payload arena, so that

* slicing a batch is (near) zero-copy: numeric columns are sliced
  ``memoryview``\\ s, payloads are shared by reference;
* crossing a process boundary is a fixed-header binary encode into a
  shared-memory ring (:mod:`repro.engine.shm`) — a memcpy per column,
  never a pickle of an object graph (payload bytes are encoded once per
  batch into the arena);
* the receiving merge decodes a batch to element objects once, in bulk
  (``LMergeBase.process_columns`` is ``to_elements`` plus
  ``process_batch``): columns are the wire format and the partitioner's
  gather, not a second execution engine.

Layout
------
A batch of ``n`` rows carries:

=========  =====================================================
column     contents
=========  =====================================================
kinds      ``bytes`` of :data:`KIND_INSERT` / :data:`KIND_ADJUST`
           / :data:`KIND_STABLE`, one per row
vs         primary timestamp: ``Vs`` for data rows, ``Vc`` for
           stables
ve         ``Ve`` for data rows (0 for stables)
v_old      ``Vold`` for adjust rows; the column is absent when
           the batch contains no adjusts
payloads   payload *objects* by reference (in-process), or one
           pickled payload-list blob — the arena — decoded
           lazily in a single ``pickle.loads`` (wire form)
=========  =====================================================

Timestamp columns use typecode ``'q'`` (exact int64) when every
timestamp in the batch is a finite ``int``, else ``'d'`` (float64 —
exact for ints up to 2**53; infinities are representable natively).
``to_elements`` after a float64 round trip may therefore return ``5.0``
where ``5`` went in; the two compare and hash equal everywhere the
engine cares (index keys, TDB reconstitution, element ``__eq__``).

The binary encoding (``encode``/``decode``) is versioned and
self-describing — it is the designated wire format for the future
``repro.serve`` front door; see docs/COLUMNAR.md.
"""

from __future__ import annotations

import pickle
from array import array
from struct import Struct
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.temporal.elements import (
    KIND_ADJUST,
    KIND_INSERT,
    KIND_STABLE,
    Adjust,
    Element,
    Insert,
    Stable,
)

__all__ = [
    "KIND_INSERT",
    "KIND_ADJUST",
    "KIND_STABLE",
    "ColumnBatch",
    "ColumnarError",
]

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Fixed frame header: magic, version, timestamp typecode, flags, row
#: count, arena byte length.
_HEADER = Struct("<4sBBHIQ")
_MAGIC = b"RCB1"
_VERSION = 1
_FLAG_HAS_VOLD = 1
#: A u64 trace id follows the fixed header.  Flag-gated so batches
#: without trace context (the default) keep the PR 6 wire form
#: byte-for-byte — old frames decode unchanged, and the 8 bytes are
#: only paid when a tracer is actually stamping lineage.
_FLAG_HAS_TRACE = 2
_TRACE = Struct("<Q")

#: int64 bounds for the exact-integer column representation.
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

_EMPTY_Q = memoryview(array("q"))

#: For each kind byte, the two other kind bytes (run-boundary scan).
_OTHER_KINDS = {
    KIND_INSERT: (KIND_ADJUST, KIND_STABLE),
    KIND_ADJUST: (KIND_INSERT, KIND_STABLE),
    KIND_STABLE: (KIND_INSERT, KIND_ADJUST),
}


class ColumnarError(ValueError):
    """A batch that cannot be represented or decoded columnarly."""


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


class ColumnBatch:
    """An immutable struct-of-arrays slice of one stream's elements.

    Build with :meth:`from_elements` (in-process, payloads by reference)
    or :meth:`decode` (wire form, payloads lazily unpickled from the
    arena).  ``slice`` shares the parent's column storage.
    """

    __slots__ = (
        "n",
        "kinds",
        "tcode",
        "vs",
        "ve",
        "v_old",
        "_payloads",
        "_pstart",
        "_arena",
        "_arena_rows",
        "_hashes",
        "_elements",
        "_estart",
        "trace_id",
    )

    def __init__(
        self,
        n: int,
        kinds: bytes,
        tcode: str,
        vs: memoryview,
        ve: memoryview,
        v_old: Optional[memoryview],
        payloads: Optional[list],
        pstart: int = 0,
        arena: Optional[bytes] = None,
        arena_rows: int = 0,
    ):
        self.n = n
        self.kinds = kinds
        self.tcode = tcode
        self.vs = vs
        self.ve = ve
        self.v_old = v_old
        self._payloads = payloads
        #: Row 0's index into the (shared) payload list — the arena
        #: decodes to the *parent* batch's full list, so slices keep an
        #: offset instead of copying.
        self._pstart = pstart
        self._arena = arena
        self._arena_rows = arena_rows
        self._hashes: Optional[array] = None
        self._elements: Optional[Sequence[Element]] = None
        self._estart = 0
        #: Causal trace context (0 = none): a compact span id stamped by
        #: the driver at submit and carried through partition/exchange so
        #: cross-process span events stitch into one trace.
        self.trace_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_elements(cls, elements: Sequence[Element]) -> "ColumnBatch":
        """Columnarize a slice of elements; payloads stay by reference.

        One pass collects the raw columns; a second pass freezes them
        into ``'q'`` (exact int64) or ``'d'`` (float64) arrays.  The
        original element objects are retained so ``to_elements`` on an
        unsliced batch is free.
        """
        n = len(elements)
        kinds = bytearray(n)
        vs_raw: List = [0] * n
        ve_raw: List = [0] * n
        vold_raw: Optional[List] = None
        payloads: List = [None] * n
        all_int = True
        for i, element in enumerate(elements):
            c = element.__class__
            if c is Insert:
                vs = element.vs
                ve = element.ve
                vs_raw[i] = vs
                ve_raw[i] = ve
                payloads[i] = element.payload
                if all_int and not (
                    type(vs) is int and type(ve) is int
                ):
                    all_int = False
            elif c is Stable:
                kinds[i] = KIND_STABLE
                vc = element.vc
                vs_raw[i] = vc
                if all_int and type(vc) is not int:
                    all_int = False
            elif c is Adjust:
                kinds[i] = KIND_ADJUST
                if vold_raw is None:
                    vold_raw = [0] * n
                vs = element.vs
                ve = element.ve
                v_old = element.v_old
                vs_raw[i] = vs
                ve_raw[i] = ve
                vold_raw[i] = v_old
                payloads[i] = element.payload
                if all_int and not (
                    type(vs) is int
                    and type(ve) is int
                    and type(v_old) is int
                ):
                    all_int = False
            else:
                raise TypeError(f"not a stream element: {element!r}")
        tcode = "q" if all_int else "d"
        try:
            vs_col = array(tcode, vs_raw)
            ve_col = array(tcode, ve_raw)
            vold_col = array(tcode, vold_raw) if vold_raw is not None else None
        except OverflowError:
            # Integers beyond int64: fall back to float64 (documented
            # precision caveat past 2**53).
            tcode = "d"
            vs_col = array(tcode, [float(v) for v in vs_raw])
            ve_col = array(tcode, [float(v) for v in ve_raw])
            vold_col = (
                array(tcode, [float(v) for v in vold_raw])
                if vold_raw is not None
                else None
            )
        batch = cls(
            n,
            bytes(kinds),
            tcode,
            memoryview(vs_col),
            memoryview(ve_col),
            memoryview(vold_col) if vold_col is not None else None,
            payloads,
        )
        batch._elements = elements
        return batch

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    def __iter__(self) -> Iterator[Element]:
        """Iterate rows as element objects (a boundary conversion: hot
        paths should walk the columns or :meth:`runs` instead)."""
        return iter(self.to_elements())

    @property
    def payloads(self) -> list:
        """Every row's payload object; lazily decoded from the arena."""
        payloads = self._payloads
        if payloads is None:
            payloads = self._materialize_payloads()
        start = self._pstart
        if start or len(payloads) != self.n:
            return payloads[start : start + self.n]
        return payloads

    def _materialize_payloads(self) -> list:
        arena = self._arena
        assert arena is not None
        # One loads() rebuilds the parent batch's whole payload list;
        # _pstart indexes this slice's rows into it.
        decoded: List = pickle.loads(arena)
        self._payloads = decoded
        return decoded

    def elements_slice(self, start: int, stop: int) -> Sequence[Element]:
        """Rows ``[start, stop)`` as element objects (boundary converter).

        Bulk conversion: per same-kind run, the numeric columns drop to
        lists in one C-level ``tolist`` each and the constructors run
        under ``map`` — measured ~2x faster than building elements row
        by row, which matters because every wire-decoded batch crosses
        this boundary.
        """
        elements = self._elements
        if elements is not None:
            base = self._estart
            return elements[base + start : base + stop]
        out: List[Element] = []
        extend = out.extend
        payloads = self.payloads
        kinds = self.kinds
        find = kinds.find
        i = start
        while i < stop:
            kind = kinds[i]
            j = stop
            for other in _OTHER_KINDS[kind]:
                f = find(other, i + 1, j)
                if f != -1:
                    j = f
            vs = self.vs[i:j].tolist()
            if kind == KIND_INSERT:
                extend(map(Insert, payloads[i:j], vs, self.ve[i:j].tolist()))
            elif kind == KIND_STABLE:
                extend(map(Stable, vs))
            else:
                v_old = self.v_old
                assert v_old is not None
                extend(
                    map(
                        Adjust,
                        payloads[i:j],
                        vs,
                        v_old[i:j].tolist(),
                        self.ve[i:j].tolist(),
                    )
                )
            i = j
        return out

    def to_elements(self) -> Sequence[Element]:
        """The whole batch as element objects (boundary converter)."""
        result = self.elements_slice(0, self.n)
        if self._elements is None:
            self._elements = result
            self._estart = 0
        return result

    def counts(self) -> Tuple[int, int, int]:
        """``(inserts, adjusts, stables)`` row counts."""
        kinds = self.kinds
        return (
            kinds.count(KIND_INSERT),
            kinds.count(KIND_ADJUST),
            kinds.count(KIND_STABLE),
        )

    def runs(self) -> Iterator[Tuple[int, int, int]]:
        """Yield maximal same-kind runs as ``(kind, start, stop)``.

        Run boundaries are found with C-level ``bytes.find`` over the
        other two kind values, so a long homogeneous batch costs two
        scans, not a Python loop per row.
        """
        kinds = self.kinds
        n = self.n
        find = kinds.find
        i = 0
        while i < n:
            kind = kinds[i]
            j = n
            for other in _OTHER_KINDS[kind]:
                f = find(other, i + 1, j)
                if f != -1:
                    j = f
            yield kind, i, j
            i = j

    # ------------------------------------------------------------------
    # Slicing & selection
    # ------------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``[start, stop)`` sharing this batch's column storage.

        Numeric columns are sliced memoryviews (zero-copy); payloads are
        shared by reference (or by arena view when not yet decoded).
        """
        if start == 0 and stop == self.n:
            return self
        v_old = self.v_old
        child = ColumnBatch(
            stop - start,
            self.kinds[start:stop],
            self.tcode,
            self.vs[start:stop],
            self.ve[start:stop],
            v_old[start:stop] if v_old is not None else None,
            self._payloads,
            self._pstart + start,
            self._arena,
            self._arena_rows,
        )
        if self._elements is not None:
            child._elements = self._elements
            child._estart = self._estart + start
        child.trace_id = self.trace_id
        return child

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch of the given rows, in the given order."""
        kinds = self.kinds
        vs = self.vs
        ve = self.ve
        v_old = self.v_old
        tcode = self.tcode
        payloads = self.payloads  # materializes once if arena-backed
        new_kinds = bytes(kinds[i] for i in indices)
        new_vs = array(tcode, (vs[i] for i in indices))
        new_ve = array(tcode, (ve[i] for i in indices))
        new_vold = (
            memoryview(array(tcode, (v_old[i] for i in indices)))
            if v_old is not None and KIND_ADJUST in new_kinds
            else None
        )
        child = ColumnBatch(
            len(indices),
            new_kinds,
            tcode,
            memoryview(new_vs),
            memoryview(new_ve),
            new_vold,
            [payloads[i] for i in indices],
        )
        elements = self._elements
        if elements is not None:
            # Keep the already-materialized element objects: consumers
            # with an object fast path then skip re-materialization.
            base = self._estart
            child._elements = [elements[base + i] for i in indices]
        child.trace_id = self.trace_id
        return child

    def key_hashes(self) -> array:
        """Per-row ``hash(payload)`` (0 for stables), cached.

        The identity-key partition column: computed once in the routing
        process and never shipped across a process boundary (``hash`` is
        salted per interpreter for str/bytes payloads).
        """
        hashes = self._hashes
        if hashes is None:
            kinds = self.kinds
            payloads = self.payloads
            hashes = array(
                "q",
                (
                    hash(payloads[i]) if kinds[i] != KIND_STABLE else 0
                    for i in range(self.n)
                ),
            )
            self._hashes = hashes
        return hashes

    # ------------------------------------------------------------------
    # Wire encoding (the future repro.serve format)
    # ------------------------------------------------------------------

    def _build_arena(self) -> bytes:
        """The payload arena: one pickle of the row-aligned payload list.

        A single ``dumps``/``loads`` pair per batch (stables hold
        ``None``) — per-slot pickling costs a fixed overhead per *row*
        and was measured slower than the object envelope it replaces.
        An undecoded whole-batch wire arena is reused byte-for-byte.
        """
        if (
            self._payloads is None
            and self._pstart == 0
            and self._arena_rows == self.n
        ):
            arena = self._arena
            assert arena is not None
            return arena
        payloads = self.payloads
        return pickle.dumps(payloads, _PICKLE_PROTOCOL)

    def encoded_size(self) -> Tuple[int, bytes]:
        """Total wire bytes plus the prebuilt arena blob.

        The blob is handed back to :meth:`encode_into` so the arena is
        built exactly once per transmission.
        """
        arena = self._build_arena()
        n = self.n
        size = _HEADER.size + n + _pad8(n) + 16 * n + len(arena)
        if self.v_old is not None:
            size += 8 * n
        if self.trace_id:
            size += _TRACE.size
        return size, arena

    def encode_into(
        self,
        buffer: memoryview,
        prebuilt: Optional[bytes] = None,
    ) -> int:
        """Write the wire form into *buffer*; returns bytes written.

        Column bytes land via memcpy (``memoryview`` assignment from the
        underlying arrays); only the header is packed field-by-field.
        """
        arena = prebuilt if prebuilt is not None else self._build_arena()
        n = self.n
        flags = _FLAG_HAS_VOLD if self.v_old is not None else 0
        if self.trace_id:
            flags |= _FLAG_HAS_TRACE
        _HEADER.pack_into(
            buffer,
            0,
            _MAGIC,
            _VERSION,
            ord(self.tcode),
            flags,
            n,
            len(arena),
        )
        position = _HEADER.size
        if self.trace_id:
            _TRACE.pack_into(buffer, position, self.trace_id)
            position += _TRACE.size
        buffer[position : position + n] = self.kinds
        position += n + _pad8(n)
        for column in (self.vs, self.ve):
            buffer[position : position + 8 * n] = column.cast("B")
            position += 8 * n
        if self.v_old is not None:
            buffer[position : position + 8 * n] = self.v_old.cast("B")
            position += 8 * n
        buffer[position : position + len(arena)] = arena
        return position + len(arena)

    def encode(self) -> bytes:
        """The complete wire frame as one bytes object."""
        size, prebuilt = self.encoded_size()
        buffer = bytearray(size)
        self.encode_into(memoryview(buffer), prebuilt)
        return bytes(buffer)

    @classmethod
    def decode(cls, buffer: Union[bytes, memoryview]) -> "ColumnBatch":
        """Rebuild a batch from its wire form.

        Numeric columns are copied out of *buffer* in one ``frombytes``
        each (the buffer may be ring storage about to be reused);
        payloads stay encoded in the arena until first touched.
        """
        view = memoryview(buffer)
        try:
            magic, version, tcode_byte, flags, n, arena_len = _HEADER.unpack_from(
                view, 0
            )
        except Exception as exc:  # struct.error on short frames
            raise ColumnarError(f"truncated column batch frame: {exc}")
        if magic != _MAGIC:
            raise ColumnarError(f"bad column batch magic {magic!r}")
        if version != _VERSION:
            raise ColumnarError(f"unsupported column batch version {version}")
        tcode = chr(tcode_byte)
        if tcode not in ("q", "d"):
            raise ColumnarError(f"unknown timestamp typecode {tcode!r}")
        position = _HEADER.size
        trace_id = 0
        if flags & _FLAG_HAS_TRACE:
            (trace_id,) = _TRACE.unpack_from(view, position)
            position += _TRACE.size
        kinds = bytes(view[position : position + n])
        position += n + _pad8(n)
        columns: List[memoryview] = []
        column_count = 3 if flags & _FLAG_HAS_VOLD else 2
        for _ in range(column_count):
            column = array(tcode)
            column.frombytes(view[position : position + 8 * n])
            columns.append(memoryview(column))
            position += 8 * n
        arena = bytes(view[position : position + arena_len])
        if len(arena) != arena_len:
            raise ColumnarError("truncated column batch arena")
        batch = cls(
            n,
            kinds,
            tcode,
            columns[0],
            columns[1],
            columns[2] if column_count == 3 else None,
            None,
            0,
            arena,
            n,
        )
        batch.trace_id = trace_id
        return batch

    def __repr__(self) -> str:  # pragma: no cover
        inserts, adjusts, stables = self.counts()
        return (
            f"<ColumnBatch n={self.n} tcode={self.tcode!r} "
            f"ins={inserts} adj={adjusts} stb={stables}>"
        )
