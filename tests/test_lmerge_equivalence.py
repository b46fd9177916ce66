"""Cross-algorithm property tests: every LMerge algorithm, fed inputs
satisfying its restriction, produces a logically equivalent output.

Hypothesis draws the scenario (seed, shape, roster); the oracle
(``oracle.py``) builds the divergent replicas and the delivery script and
checks the output against the reference TDB and C1-C3 at every stable.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r2 import LMergeR2
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Insert, Stable
from repro.temporal.time import INFINITY

from oracle import SHAPES, VARIANTS, Shape, check

seeds = st.integers(0, 10**6)
shapes = st.sampled_from(sorted(SHAPES))
ONCE = dict(paths=("process",), policies=("none",))


@settings(max_examples=8)
@given(
    seed=seeds,
    shape=shapes,
    roster=st.booleans(),
    speculate=st.floats(0.0, 0.8),
    stable_keep=st.floats(0.2, 1.0),
)
def test_r3_always_equivalent(seed, shape, roster, speculate, stable_keep):
    shape = replace(SHAPES[shape], speculate=speculate, stable_keep=stable_keep)
    check("LMR3+", shape, seed, roster=roster, **ONCE)


@settings(max_examples=6)
@given(seed=seeds, shape=shapes, roster=st.booleans())
def test_r4_always_equivalent(seed, shape, roster):
    check("LMR4", shape, seed, roster=roster, **ONCE)


@settings(max_examples=4)
@given(seed=seeds, shape=shapes)
def test_naive_matches_r3plus(seed, shape):
    """LMR3- and LMR3+ are different implementations of the same spec."""
    assert check("LMR3-", shape, seed, **ONCE) == check("LMR3+", shape, seed, **ONCE)


@settings(max_examples=10)
@given(seed=seeds, shape=shapes)
def test_r0_on_strict_streams(seed, shape):
    check("LMR0", shape, seed, **ONCE)


@settings(max_examples=10)
@given(seed=seeds, shape=shapes)
def test_r2_reordered_same_vs(seed, shape):
    """R2 inputs: identical logical batches per Vs, per-input shuffles."""
    check("LMR2", shape, seed, **ONCE)


@pytest.mark.parametrize(
    "algorithm", list(VARIANTS.values()), ids=lambda cls: cls.algorithm
)
class TestHierarchy:
    """Every algorithm handles inputs from any *stronger* restriction."""

    def test_r0_inputs_accepted_by_all(self, algorithm):
        check("LMR0", "divergent", 4, make=algorithm, roster=False, **ONCE)

    def test_identical_replicas(self, algorithm):
        check("LMR0", Shape(stable_keep=1.0), 5, make=algorithm, **ONCE)


class TestGeneralBeatsSpecialOnWeakInputs:
    """Sanity check of the restriction boundaries: R0 *mis-merges* inputs
    that only satisfy R2 (it deduplicates by Vs alone)."""

    def test_r0_loses_same_vs_events(self):
        stream = PhysicalStream(
            [Insert("X", 5), Insert("Y", 5), Stable(INFINITY)]
        )
        output = LMergeR0().merge([stream, stream])
        assert len(output.tdb()) == 1  # Y was (incorrectly for R2) dropped

    def test_r2_keeps_them(self):
        stream = PhysicalStream(
            [Insert("X", 5), Insert("Y", 5), Stable(INFINITY)]
        )
        output = LMergeR2().merge([stream, stream])
        assert len(output.tdb()) == 2
