"""The columnar envelope is semantically invisible (PR6 satellite).

Three claims about :mod:`repro.engine.columnar`:

1. ``ColumnBatch`` is a faithful carrier: ``from_elements`` →
   ``to_elements`` is the identity, and the binary wire round trip
   (``encode``/``decode``) preserves every element — including mixed
   kinds, ``+inf`` lifetimes, and zero-copy slices.
2. Swapping the exchange envelope (``columnar`` vs the PR3-era
   ``object`` lists) under a sharded LMR3+/LMR4 changes nothing
   observable (``oracle.check_sharded``) on the thread AND the process
   backend (the latter exercising the shared-memory rings).
3. A columnar batch delivered to a bounded edge keeps prefix admission:
   the edge materializes it (``Operator.receive_columns``) and admits
   like ``receive_batch`` — on overflow the fitting prefix is enqueued,
   the raised :class:`QueueFullError` carries ``accepted``/``rejected``
   row counts, and the producer resumes from
   ``batch.slice(accepted, len(batch))``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.engine.columnar import ColumnBatch
from repro.engine.operator import CollectorSink
from repro.engine.runtime import QueuedEdge, QueueFullError
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.operators.exchange import partition_batch, partition_columns
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream
from oracle import SHAPES, check_sharded

# ----------------------------------------------------------------------
# Element strategies: mixed kinds, int and infinite timestamps, payload
# types spanning the pickle arena's common cases.
# ----------------------------------------------------------------------

_payloads = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.text(max_size=4),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=2)),
)
_vs = st.integers(min_value=0, max_value=1000)
_ve = st.one_of(st.integers(min_value=1, max_value=2000), st.just(INFINITY))

_inserts = st.builds(Insert, _payloads, _vs, _ve)
_adjusts = st.builds(Adjust, _payloads, _vs, _ve, _ve)
_stables = st.builds(Stable, st.integers(min_value=0, max_value=2000))

_element_lists = st.lists(
    st.one_of(_inserts, _adjusts, _stables), max_size=60
)


class TestRoundTrip:
    @settings(max_examples=60)
    @given(elements=_element_lists)
    def test_from_elements_to_elements_identity(self, elements):
        batch = ColumnBatch.from_elements(elements)
        assert len(batch) == len(elements)
        assert list(batch.to_elements()) == elements

    @settings(max_examples=60)
    @given(elements=_element_lists)
    def test_wire_round_trip_preserves_elements(self, elements):
        batch = ColumnBatch.from_elements(elements)
        decoded = ColumnBatch.decode(batch.encode())
        assert decoded.n == batch.n
        assert decoded.kinds == batch.kinds
        # Float64 round trips may return 5.0 for 5; element __eq__ treats
        # them as equal, which is the documented contract.
        assert list(decoded.to_elements()) == elements

    @settings(max_examples=40)
    @given(
        elements=_element_lists,
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_slices_round_trip_on_the_wire(self, elements, cut):
        batch = ColumnBatch.from_elements(elements)
        cut = min(cut, batch.n)
        for piece in (batch.slice(0, cut), batch.slice(cut, batch.n)):
            decoded = ColumnBatch.decode(piece.encode())
            assert list(decoded.to_elements()) == list(piece.to_elements())

    def test_double_encode_from_decoded_arena(self):
        """Re-encoding an arena-backed batch (decode → slice → encode)
        rebases the payload offsets rather than re-pickling."""
        elements = [Insert("a", 1, 5), Stable(2), Adjust("b", 3, 9, 7)]
        decoded = ColumnBatch.decode(
            ColumnBatch.from_elements(elements).encode()
        )
        again = ColumnBatch.decode(decoded.slice(1, 3).encode())
        assert list(again.to_elements()) == elements[1:]

    def test_typecode_selection(self):
        ints = ColumnBatch.from_elements([Insert("p", 1, 2), Stable(3)])
        assert ints.tcode == "q"
        inf = ColumnBatch.from_elements([Insert("p", 1, INFINITY)])
        assert inf.tcode == "d"
        assert inf.to_elements()[0].ve == INFINITY
        wide = ColumnBatch.from_elements([Insert("p", 1, 2**70)])
        assert wide.tcode == "d"  # beyond int64: documented float fallback

    def test_take_materializes_selected_rows(self):
        elements = [Insert(i, i, i + 10) for i in range(8)]
        batch = ColumnBatch.from_elements(elements)
        picked = batch.take([6, 1, 3])
        assert list(picked.to_elements()) == [
            elements[6], elements[1], elements[3],
        ]


# ----------------------------------------------------------------------
# Envelope equivalence: columnar vs object exchange under sharded LMR3+.
# ----------------------------------------------------------------------

BACKENDS = ["thread", "process"]


class TestEnvelopeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("variant", [LMergeR3, LMergeR4])
    def test_columnar_matches_object_tdb(self, backend, variant):
        for envelope in ("columnar", "object"):
            check_sharded(variant.algorithm, seed=11, backend=backend,
                          envelope=envelope)

    @settings(max_examples=6)
    @given(
        num_shards=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=30),
        shape=st.sampled_from(sorted(SHAPES)),
    )
    def test_columnar_serial_equivalence_random(self, num_shards, seed, shape):
        """The columnar plan on the cheap backend, for random shard
        counts and shapes."""
        check_sharded("LMR3+", shape, seed, shards=num_shards,
                      backend="serial", envelope="columnar")

    def test_custom_key_fn_columnar(self):
        """A non-identity key takes partition_columns' per-row hash path; it
        must route every row where partition_batch routes its element."""
        reference = small_stream(count=120, seed=3, disorder=0.25)
        elements = list(divergent_inputs(reference, n=1)[0])
        batch = ColumnBatch.from_elements(elements)
        for num_shards in (2, 4):
            columnar = partition_columns(batch, num_shards, repr)
            assert [list(b.to_elements()) for b in columnar] == (
                partition_batch(elements, num_shards, repr)
            )


# ----------------------------------------------------------------------
# Bounded-edge admission for columnar batches.
# ----------------------------------------------------------------------


def _edge(capacity):
    sink = CollectorSink(name="sink")
    return QueuedEdge(sink, capacity=capacity, name="edge"), sink


class TestColumnarAdmission:
    def test_overflow_admits_prefix_and_reports_counts(self):
        edge, sink = _edge(capacity=5)
        elements = [Insert(i, i, i + 1) for i in range(8)]
        batch = ColumnBatch.from_elements(elements)
        with pytest.raises(QueueFullError) as err:
            edge.receive_columns(batch)
        assert err.value.accepted == 5
        assert err.value.rejected == 3
        assert err.value.accepted + err.value.rejected == len(batch)
        assert edge.depth == 5
        edge.drain(100)
        assert list(sink.stream) == elements[:5]

    def test_producer_resumes_from_accepted(self):
        edge, sink = _edge(capacity=4)
        elements = [Insert(i, i, i + 1) for i in range(10)]
        batch = ColumnBatch.from_elements(elements)
        delivered = 0
        while delivered < len(batch):
            rest = batch.slice(delivered, len(batch))
            try:
                edge.receive_columns(rest)
                delivered = len(batch)
            except QueueFullError as err:
                delivered += err.accepted
            edge.drain(100)
        assert list(sink.stream) == elements

    def test_full_edge_accepts_nothing(self):
        edge, _ = _edge(capacity=2)
        edge.receive_columns(
            ColumnBatch.from_elements([Insert("a", 1, 2), Insert("b", 2, 3)])
        )
        with pytest.raises(QueueFullError) as err:
            edge.receive_columns(
                ColumnBatch.from_elements([Insert("c", 3, 4)])
            )
        assert err.value.accepted == 0
        assert err.value.rejected == 1
        assert edge.depth == 2

    def test_admission_matches_object_path_accounting(self):
        """A columnar delivery leaves the same observable edge state as
        receive_batch of the same slice (counters included)."""
        elements = [Insert(i, i, i + 2) for i in range(7)]
        col_edge, col_sink = _edge(capacity=4)
        obj_edge, obj_sink = _edge(capacity=4)
        with pytest.raises(QueueFullError) as col_err:
            col_edge.receive_columns(ColumnBatch.from_elements(elements))
        with pytest.raises(QueueFullError) as obj_err:
            obj_edge.receive_batch(elements)
        assert col_err.value.accepted == obj_err.value.accepted
        assert col_err.value.rejected == obj_err.value.rejected
        assert col_edge.depth == obj_edge.depth
        assert col_edge.elements_in == obj_edge.elements_in
        assert col_edge.enqueued == obj_edge.enqueued
        col_edge.drain(100)
        obj_edge.drain(100)
        assert list(col_sink.stream) == list(obj_sink.stream)

    def test_partial_drain_slices_batch(self):
        """A drain budget smaller than the queued batch delivers a prefix
        and leaves the remainder queued."""
        edge, sink = _edge(capacity=None)
        elements = [Insert(i, i, i + 1) for i in range(6)] + [Stable(9)]
        edge.receive_columns(ColumnBatch.from_elements(elements))
        assert edge.drain(4) == 4
        assert list(sink.stream) == elements[:4]
        assert edge.depth == 3
        assert edge.drain(10) == 3
        assert list(sink.stream) == elements
        assert edge.depth == 0
