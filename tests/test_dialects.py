"""Dialect converters: open/close <-> insert/adjust (Example 3 bridge)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge.r3 import LMergeR3
from repro.streams.stream import PhysicalStream
from repro.temporal.dialects import (
    elements_to_open_close,
    open_close_to_elements,
)
from repro.temporal.elements import Adjust, Close, Insert, Open, Stable
from repro.temporal.tdb import (
    StreamViolationError,
    reconstitute,
    reconstitute_open_close,
)
from repro.temporal.time import INFINITY


class TestOpenCloseToElements:
    def test_open_becomes_infinite_insert(self):
        assert open_close_to_elements([Open("A", 1)]) == [
            Insert("A", 1, INFINITY)
        ]

    def test_close_becomes_adjust(self):
        elements = open_close_to_elements([Open("A", 1), Close("A", 5)])
        assert elements == [
            Insert("A", 1, INFINITY),
            Adjust("A", 1, INFINITY, 5),
        ]

    def test_close_revision(self):
        """W[6]'s pattern: a second close revises the first."""
        elements = open_close_to_elements(
            [Open("B", 2), Close("B", 6), Close("B", 5)]
        )
        assert reconstitute(elements) == reconstitute([Insert("B", 2, 5)])

    def test_example3_streams_translate_equivalently(self):
        s5 = [Open("A", 1), Open("B", 2), Open("C", 3), Close("A", 4), Close("B", 5)]
        u5 = [Open("A", 1), Close("A", 4), Open("B", 2), Close("B", 5), Open("C", 3)]
        left = reconstitute(open_close_to_elements(s5))
        right = reconstitute(open_close_to_elements(u5))
        assert left == right == reconstitute_open_close(s5)

    def test_double_open_rejected(self):
        with pytest.raises(StreamViolationError):
            open_close_to_elements([Open("A", 1), Open("A", 2)])

    def test_close_without_open_rejected(self):
        with pytest.raises(StreamViolationError):
            open_close_to_elements([Close("A", 2)])

    def test_non_element_rejected(self):
        with pytest.raises(TypeError):
            open_close_to_elements([Insert("A", 1)])


class TestElementsToOpenClose:
    def test_infinite_insert_becomes_open(self):
        assert elements_to_open_close([Insert("A", 1)]) == [Open("A", 1)]

    def test_finite_insert_becomes_open_close(self):
        assert elements_to_open_close([Insert("A", 1, 5)]) == [
            Open("A", 1),
            Close("A", 5),
        ]

    def test_adjust_becomes_revising_close(self):
        converted = elements_to_open_close(
            [Insert("A", 1, 5), Adjust("A", 1, 5, 9)]
        )
        assert converted == [Open("A", 1), Close("A", 5), Close("A", 9)]
        assert reconstitute_open_close(converted) == reconstitute(
            [Insert("A", 1, 9)]
        )

    def test_stables_dropped(self):
        assert elements_to_open_close([Stable(5), Insert("A", 6)]) == [
            Open("A", 6)
        ]

    def test_cancel_unrepresentable(self):
        with pytest.raises(StreamViolationError):
            elements_to_open_close([Insert("A", 1, 5), Adjust("A", 1, 5, 1)])

    def test_concurrent_same_payload_rejected(self):
        with pytest.raises(StreamViolationError):
            elements_to_open_close([Insert("A", 1, 5), Insert("A", 2, 6)])


class TestRoundTrip:
    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_open_close_round_trip_preserves_tdb(self, seed):
        """open/close -> elements -> open/close keeps the logical TDB."""
        rng = random.Random(seed)
        stream = []
        active = []
        clock = 0
        for payload_id in range(rng.randint(1, 15)):
            clock += rng.randint(0, 3)
            payload = f"p{payload_id}"
            stream.append(Open(payload, clock))
            active.append((payload, clock))
            if rng.random() < 0.7 and active:
                who, vs = active.pop(rng.randrange(len(active)))
                stream.append(Close(who, vs + rng.randint(1, 10)))
        translated = open_close_to_elements(stream)
        back = elements_to_open_close(translated)
        assert reconstitute_open_close(back) == reconstitute_open_close(stream)
        assert reconstitute(translated) == reconstitute_open_close(stream)


class TestMergingOpenCloseSources:
    def test_lmerge_over_translated_streams(self):
        """The point of the bridge: LMerge applies to open/close sources."""
        s5 = [Open("A", 1), Open("B", 2), Open("C", 3), Close("A", 4), Close("B", 5)]
        u5 = [Open("A", 1), Close("A", 4), Open("B", 2), Close("B", 5), Open("C", 3)]
        inputs = [
            PhysicalStream(open_close_to_elements(s) + [Stable(INFINITY)])
            for s in (s5, u5)
        ]
        merge = LMergeR3()
        output = merge.merge(inputs, schedule="round_robin")
        expected = reconstitute_open_close(s5)
        expected.stable_point = INFINITY
        assert output.tdb() == expected
