"""Tests for the in2t and in3t merge indexes (Fig. 1)."""

import pytest

from repro.structures.in2t import In2T, OUTPUT
from repro.structures.in3t import In3T
from repro.structures.sizing import PayloadKey, payload_bytes
from repro.temporal.event import Event
from repro.temporal.time import INFINITY, MINUS_INFINITY


class TestPayloadBytes:
    def test_string(self):
        assert payload_bytes("abcd") == 4

    def test_int(self):
        assert payload_bytes(7) == 8

    def test_none(self):
        assert payload_bytes(None) == 0

    def test_bool(self):
        assert payload_bytes(True) == 1

    def test_paper_payload_about_1kb(self):
        payload = (123, 45, "x" * 1000)
        assert 1000 <= payload_bytes(payload) <= 1100

    def test_unknown_object_default(self):
        class Thing:
            pass

        assert payload_bytes(Thing()) == 16

    def test_object_with_declared_size(self):
        class Sized:
            payload_bytes = 512

        assert payload_bytes(Sized()) == 512


class TestPayloadKey:
    def test_natural_order(self):
        assert PayloadKey(1) < PayloadKey(2)
        assert not PayloadKey(2) < PayloadKey(1)

    def test_equality(self):
        assert PayloadKey("a") == PayloadKey("a")
        assert PayloadKey("a") != PayloadKey("b")

    def test_hashable(self):
        assert hash(PayloadKey((1, "x"))) == hash(PayloadKey((1, "x")))

    def test_unorderable_payloads_fall_back(self):
        # int vs str are not mutually orderable: repr order applies.
        left, right = PayloadKey(1), PayloadKey("a")
        assert (left < right) != (right < left)


class TestIn2T:
    def test_add_and_find(self):
        index = In2T()
        node = index.add(Event(5, "A", 10))
        assert index.find(5, "A") is node
        assert index.find(5, "B") is None
        assert index.find(6, "A") is None
        assert len(index) == 1

    def test_add_duplicate_raises(self):
        index = In2T()
        index.add(Event(5, "A", 10))
        with pytest.raises(KeyError):
            index.add(Event(5, "A", 12))

    def test_entries(self):
        index = In2T()
        node = index.add(Event(5, "A", 10))
        node.add_entry(0, 10)
        node.add_entry(OUTPUT, 10)
        assert node.get_entry(0) == 10
        assert node.get_entry(1) is None
        node.update_entry(0, 12)
        assert node.get_entry(0) == 12
        node.remove_entry(0)
        assert node.get_entry(0) is None
        assert node.get_entry(OUTPUT) == 10

    def test_half_frozen_bound_is_exclusive_on_vs(self):
        index = In2T()
        index.add(Event(5, "A", 10))
        index.add(Event(7, "B", 12))
        index.add(Event(7, "C", 12))
        assert [n.payload for n in index.half_frozen(5)] == []
        assert [n.payload for n in index.half_frozen(6)] == ["A"]
        assert [n.payload for n in index.half_frozen(7)] == ["A"]
        assert len(index.half_frozen(8)) == 3

    def test_delete(self):
        index = In2T()
        node = index.add(Event(5, "A", 10))
        index.delete(node)
        assert index.find(5, "A") is None
        with pytest.raises(KeyError):
            index.delete(node)

    def test_memory_shares_payload_across_streams(self):
        """One node holds the payload once however many streams report it."""
        blob = "x" * 1000
        one_stream = In2T()
        node = one_stream.add(Event(5, blob, 10))
        node.add_entry(0, 10)
        many_streams = In2T()
        node = many_streams.add(Event(5, blob, 10))
        for stream in range(10):
            node.add_entry(stream, 10)
        extra = many_streams.memory_bytes() - one_stream.memory_bytes()
        # Nine extra hash entries, not nine extra kilobyte payloads.
        assert extra < 9 * 100


class TestIn3T:
    def test_multiset_counts(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        node.increment(0, 10)
        node.increment(0, 10)
        node.increment(0, 15)
        assert node.total_count(0) == 3
        assert node.count_of(0, 10) == 2
        assert node.ve_counts(0) == [(10, 2), (15, 1)]
        assert node.max_ve(0) == 15

    def test_decrement(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        node.increment(0, 10, by=2)
        node.decrement(0, 10)
        assert node.count_of(0, 10) == 1
        node.decrement(0, 10)
        assert node.count_of(0, 10) == 0
        with pytest.raises(KeyError):
            node.decrement(0, 10)

    def test_decrement_unknown_ve_raises(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        with pytest.raises(KeyError):
            node.decrement(0, 99)

    def test_streams_listing(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        node.increment(0, 10)
        node.increment(2, 12)
        assert set(node.streams()) == {0, 2}
        node.decrement(2, 12)
        assert set(node.streams()) == {0}

    def test_max_ve_empty(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        assert node.max_ve(0) == MINUS_INFINITY

    def test_find_or_add_reuses(self):
        index = In3T()
        first = index.find_or_add(Event(5, "A", 10))
        second = index.find_or_add(Event(5, "A", 99))
        assert first is second
        assert len(index) == 1

    def test_half_frozen_and_delete(self):
        index = In3T()
        node_a = index.find_or_add(Event(5, "A", 10))
        index.find_or_add(Event(8, "B", 12))
        assert [n.payload for n in index.half_frozen(6)] == ["A"]
        index.delete(node_a)
        assert index.find(5, "A") is None

    def test_retiring_the_oldest_half_costs_chunks_not_keys(self):
        """4,096 in-order Vs, then one ``remove`` of the oldest 2,048: the
        ordered Vs set gives them up a chunk at a time, not one
        front-of-list shift per key."""
        writes = []

        class Counted(list):
            def __delitem__(self, at):
                writes.append(at)
                super().__delitem__(at)

            def __setitem__(self, at, value):
                writes.append(at)
                super().__setitem__(at, value)

        index = In3T()
        nodes = [index.find_or_add(Event(vs, "A", vs + 1)) for vs in range(4096)]
        order = index._order
        order._chunks = Counted(Counted(chunk) for chunk in order._chunks)
        order._maxes = Counted(order._maxes)
        chunks_touched = 2048 // order._load + 1
        index.remove(nodes[:2048])
        assert [node.vs for node in index.nodes()] == list(range(2048, 4096))
        assert len(index) == 2048
        assert 0 < len(writes) <= 4 * chunks_touched

    def test_infinite_ve_supported(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", INFINITY))
        node.increment(0, INFINITY)
        assert node.max_ve(0) == INFINITY

    def test_remove_stream(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        node.increment(0, 10)
        node.remove_stream(0)
        assert node.total_count(0) == 0
        assert node.is_empty()

    def test_memory_grows_with_distinct_ves(self):
        index = In3T()
        node = index.find_or_add(Event(5, "A", 10))
        node.increment(0, 10)
        small = index.memory_bytes()
        for ve in range(11, 30):
            node.increment(0, ve)
        assert index.memory_bytes() > small
