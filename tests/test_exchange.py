"""Exchange operators: hash routing, stable broadcast, CTI alignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import ColumnBatch
from repro.engine.operator import CollectorSink
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.sharded import shard
from repro.operators.exchange import (
    ShardUnion,
    identity_key,
    partition_batch,
    partition_columns,
)
from repro.streams.properties import StreamProperties
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import MINUS_INFINITY


def routes(elements, num_shards, key_fn=identity_key):
    """Per-shard lists from partition_batch and from partition_columns."""
    columns = partition_columns(ColumnBatch.from_elements(elements), num_shards, key_fn)
    batched = partition_batch(elements, num_shards, key_fn)
    return batched, [list(bucket.to_elements()) for bucket in columns]


class TestHashPartition:
    """Routing by payload hash: ``partition_batch`` and its columnar twin
    ``partition_columns``."""

    def test_same_key_same_shard(self):
        elements = [Insert("hot", vs + 1, vs + 10) for vs in range(20)]
        for buckets in routes(elements, 4):
            assert [bucket for bucket in buckets if bucket] == [elements]

    def test_adjust_follows_its_insert(self):
        elements = [Insert("k", 1, 5), Adjust("k", 1, 5, 9)]
        for buckets in routes(elements, 8):
            assert [bucket for bucket in buckets if bucket] == [elements]

    def test_stable_broadcast_to_all_shards(self):
        stables = [Stable(5), Stable(9)]
        elements = [Insert("a", 1), stables[0], Insert("b", 7), stables[1]]
        for buckets in routes(elements, 3):
            for bucket in buckets:  # every stable, in place among the shard's data
                assert bucket == [e for e in elements if e in stables or e in bucket]

    def test_batch_matches_per_element(self):
        elements = [Insert((i % 7, i), i + 1, i + 50) for i in range(40)]
        elements.insert(10, Stable(8))
        elements.append(Stable(60))

        one_by_one = [[] for _ in range(4)]
        for element in elements:
            for index, bucket in enumerate(partition_batch([element], 4)):
                one_by_one[index].extend(bucket)

        batched, columnar = routes(elements, 4)
        assert batched == columnar == one_by_one

    def test_partition_batch_preserves_per_shard_order(self):
        elements = [Insert((i % 5, i), i + 1) for i in range(30)]
        buckets = partition_batch(elements, 3)
        flattened = [e for bucket in buckets for e in bucket]
        assert sorted(e.vs for e in flattened) == [e.vs for e in elements]
        for bucket in buckets:
            vss = [e.vs for e in bucket]
            assert vss == sorted(vss)  # input order kept within a shard

    def test_partition_batch_single_shard_is_identity(self):
        elements = [Insert("a", 1), Stable(2), Insert("b", 3)]
        assert partition_batch(elements, 1) == [elements]

    def test_custom_key_fn(self):
        elements = [Insert((0, i), i + 1) for i in range(10)]
        for buckets in routes(elements, 2, key_fn=lambda payload: payload[0]):
            assert [b for b in buckets if b] == [elements]  # one key, one shard

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard(LMergeR3, 0, backend="serial")


class TestShardUnion:
    def test_data_forwarded_in_arrival_order(self):
        union = ShardUnion(2)
        sink = CollectorSink()
        union.subscribe(sink)
        union.receive(Insert("a", 1), 0)
        union.receive(Insert("b", 2), 1)
        union.receive(Insert("c", 3), 0)
        assert [e.payload for e in sink.stream] == ["a", "b", "c"]

    def test_stable_waits_for_slowest_shard(self):
        union = ShardUnion(3)
        sink = CollectorSink()
        union.subscribe(sink)
        union.receive(Stable(10), 0)
        union.receive(Stable(20), 1)
        assert sink.stream.count_stables() == 0  # port 2 still at -inf
        union.receive(Stable(5), 2)
        stables = [e for e in sink.stream if isinstance(e, Stable)]
        assert [s.vc for s in stables] == [5]

    def test_frontier_is_pointwise_minimum(self):
        union = ShardUnion(2)
        sink = CollectorSink()
        union.subscribe(sink)
        script = [(0, 4), (1, 2), (0, 9), (1, 7), (1, 12), (0, 11)]
        expected = []
        frontiers = [MINUS_INFINITY, MINUS_INFINITY]
        emitted = MINUS_INFINITY
        for port, vc in script:
            union.receive(Stable(vc), port)
            frontiers[port] = max(frontiers[port], vc)
            if min(frontiers) > emitted:
                emitted = min(frontiers)
                expected.append(emitted)
        stables = [e.vc for e in sink.stream if isinstance(e, Stable)]
        assert stables == expected == [2, 7, 9, 11]
        assert union.frontiers == (11, 12)
        assert union.emitted_stable == 11

    @settings(max_examples=60)
    @given(
        script=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=60
        )
    )
    def test_output_ctis_are_exactly_min_of_frontiers(self, script):
        """Property: the emitted CTI sequence is exactly the strictly
        increasing trace of min(shard frontiers) over the script."""
        union = ShardUnion(4)
        sink = CollectorSink()
        union.subscribe(sink)
        frontiers = [MINUS_INFINITY] * 4
        expected = []
        emitted = MINUS_INFINITY
        for port, vc in script:
            union.receive(Stable(vc), port)
            frontiers[port] = max(frontiers[port], vc)
            if min(frontiers) > emitted:
                emitted = min(frontiers)
                expected.append(emitted)
        assert [e.vc for e in sink.stream] == expected
        assert union.frontiers == tuple(frontiers)

    def test_batched_delivery_equals_per_element(self):
        elements = [
            Insert("a", 1),
            Stable(3),
            Insert("b", 4),
            Insert("c", 5),
            Stable(9),
        ]
        single = ShardUnion(2)
        single_sink = CollectorSink()
        single.subscribe(single_sink)
        batched = ShardUnion(2)
        batched_sink = CollectorSink()
        batched.subscribe(batched_sink)

        for element in elements:
            single.receive(element, 0)
        single.receive(Stable(9), 1)
        batched.receive_batch(elements, 0)
        batched.receive_batch([Stable(9)], 1)
        assert list(single_sink.stream) == list(batched_sink.stream)

    def test_unexpected_port_rejected(self):
        with pytest.raises(ValueError):
            ShardUnion(2).receive(Stable(1), 5)

    def test_ordering_guarantees_dropped(self):
        strong = StreamProperties.unknown().weaken(
            insert_only=True,
            ordered=True,
            strictly_increasing=True,
            deterministic_same_vs_order=True,
            key_vs_payload=True,
        )
        derived = ShardUnion(2).derive_properties([strong, strong])
        assert not derived.ordered
        assert not derived.strictly_increasing
        assert not derived.deterministic_same_vs_order
        assert derived.key_vs_payload  # disjoint partition keeps keys
        assert derived.insert_only


def test_identity_key_is_payload():
    assert identity_key(("a", 1)) == ("a", 1)
