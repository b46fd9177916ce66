"""Tests for physical-divergence transforms: every equivalence-preserving
transform must leave the logical TDB unchanged."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.divergence import (
    diverge,
    duplicate_inserts,
    inject_gap,
    reorder_within_stability,
    speculate,
    thin_stables,
)
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.temporal.elements import Stable
from repro.temporal.time import INFINITY


def make_reference(seed=0, count=600, disorder=0.2, stable_freq=0.05):
    config = GeneratorConfig(
        count=count,
        seed=seed,
        disorder=disorder,
        stable_freq=stable_freq,
        payload_blob_bytes=4,
        event_duration=100,
    )
    return StreamGenerator(config).generate()


class TestReorder:
    def test_preserves_tdb(self):
        reference = make_reference()
        shuffled = reorder_within_stability(reference, random.Random(1))
        assert shuffled.tdb() == reference.tdb()

    def test_changes_physical_order(self):
        reference = make_reference()
        shuffled = reorder_within_stability(reference, random.Random(1))
        assert shuffled != reference

    def test_prefixes_stay_valid(self):
        """Every prefix of the reordered stream is a legal stream."""
        reference = make_reference(count=200)
        shuffled = reorder_within_stability(reference, random.Random(3))
        shuffled.tdb()  # strict reconstitution validates prefixes implicitly

    def test_stable_positions_fixed(self):
        reference = make_reference()
        shuffled = reorder_within_stability(reference, random.Random(1))
        original_positions = [
            i for i, e in enumerate(reference) if isinstance(e, Stable)
        ]
        shuffled_positions = [
            i for i, e in enumerate(shuffled) if isinstance(e, Stable)
        ]
        assert original_positions == shuffled_positions


class TestSpeculate:
    def test_preserves_tdb(self):
        reference = make_reference()
        speculated = speculate(reference, random.Random(2), fraction=0.5)
        assert speculated.tdb() == reference.tdb()

    def test_introduces_adjusts(self):
        reference = make_reference()
        speculated = speculate(reference, random.Random(2), fraction=0.5)
        assert speculated.count_adjusts() > 0
        assert reference.count_adjusts() == 0

    def test_fraction_zero_is_identity(self):
        reference = make_reference()
        unchanged = speculate(reference, random.Random(2), fraction=0.0)
        assert list(unchanged) == list(reference)

    def test_stream_remains_valid(self):
        reference = make_reference()
        speculated = speculate(reference, random.Random(7), fraction=1.0)
        speculated.tdb()  # strict

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            speculate(make_reference(), random.Random(0), fraction=1.5)


class TestThinStables:
    def test_preserves_tdb(self):
        reference = make_reference(stable_freq=0.2)
        thinned = thin_stables(reference, random.Random(4), keep_probability=0.3)
        assert thinned.tdb() == reference.tdb()

    def test_removes_stables(self):
        reference = make_reference(stable_freq=0.2)
        thinned = thin_stables(reference, random.Random(4), keep_probability=0.1)
        assert thinned.count_stables() < reference.count_stables()

    def test_keeps_final_infinity(self):
        reference = make_reference(stable_freq=0.2)
        thinned = thin_stables(reference, random.Random(4), keep_probability=0.0)
        assert thinned[-1] == Stable(INFINITY)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            thin_stables(make_reference(), random.Random(0), keep_probability=2.0)


class TestGap:
    def test_gap_removes_elements(self):
        reference = make_reference()
        gapped = inject_gap(reference, random.Random(5), gap_fraction=0.2)
        assert gapped.count_inserts() < reference.count_inserts()

    def test_gap_stream_remains_internally_valid(self):
        reference = make_reference()
        gapped = inject_gap(reference, random.Random(5), gap_fraction=0.2)
        gapped.tdb()  # no dangling adjusts

    def test_gap_not_equivalent(self):
        reference = make_reference()
        gapped = inject_gap(reference, random.Random(5), gap_fraction=0.2)
        assert gapped.tdb() != reference.tdb()

    def test_zero_fraction_identity(self):
        reference = make_reference()
        gapped = inject_gap(reference, random.Random(5), gap_fraction=0.0)
        assert list(gapped) == list(reference)


class TestDuplicates:
    def test_duplicates_added(self):
        reference = make_reference()
        duplicated = duplicate_inserts(reference, random.Random(6), fraction=0.3)
        assert duplicated.count_inserts() > reference.count_inserts()

    def test_duplicated_stream_valid_as_multiset(self):
        reference = make_reference()
        duplicated = duplicate_inserts(reference, random.Random(6), fraction=0.3)
        tdb = duplicated.tdb()
        assert not tdb.key_is_unique()


class TestDivergeComposition:
    def test_composed_preserves_tdb(self):
        reference = make_reference()
        for seed in range(5):
            divergent = diverge(
                reference,
                seed=seed,
                speculate_fraction=0.4,
                stable_keep_probability=0.5,
            )
            assert divergent.tdb() == reference.tdb(), f"seed {seed}"

    def test_distinct_seeds_distinct_streams(self):
        reference = make_reference()
        first = diverge(reference, seed=0, speculate_fraction=0.4)
        second = diverge(reference, seed=1, speculate_fraction=0.4)
        assert first != second


@settings(max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    fraction=st.floats(0.0, 1.0),
    keep=st.floats(0.0, 1.0),
)
def test_diverge_always_equivalent(seed, fraction, keep):
    """Property: any composition of the equivalence-preserving transforms
    yields a stream with the same logical TDB."""
    reference = make_reference(seed=seed % 7, count=150)
    divergent = diverge(
        reference,
        seed=seed,
        speculate_fraction=fraction,
        stable_keep_probability=keep,
    )
    assert divergent.tdb() == reference.tdb()
