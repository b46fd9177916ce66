"""The oracle's own suite: the scenario differential over every variant,
shape, ingest path and reclamation policy, the frozen digests, the seeded
mutants and the process-backend arm (see tests/oracle.py)."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    DIGESTS,
    GRID_SEEDS,
    MUTANTS,
    POLICIES,
    SHAPES,
    VARIANTS,
    assert_mutant_fails,
    check,
    check_grid,
    check_sharded,
    digest,
)

from conftest import divergent_inputs, small_stream

#: Tested beside the differential they break, in test_r4_memoized.py.
FRONTIER_MUTANTS = {
    "no reset on detach",
    "no touch on decrement",
    "trim drops current entries",
    "woken set left unsorted",
}


@settings(max_examples=6)
@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(0, 10**6),
    roster=st.booleans(),
)
def test_every_path_and_policy_agrees(variant, shape, seed, roster):
    check(variant, shape, seed, roster=roster)


def test_digest_table_covers_every_variant_and_shape():
    assert set(DIGESTS) == set(product(GRID_SEEDS, SHAPES, VARIANTS))


def test_clean_code_passes_the_grid():
    check_grid()


@pytest.mark.parametrize("name", sorted(set(MUTANTS) - FRONTIER_MUTANTS))
def test_seeded_mutant_fails_the_grid(name, monkeypatch):
    assert_mutant_fails(name, monkeypatch)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", ["LMR3+", "LMR3-", "LMR4"])
def test_reference_point_recorded_before_the_oracle(name, policy):
    """Three replicas of one 300-element stream, batched at random: the
    element count and digest prefix measured on the tree before this
    suite existed."""
    inputs = divergent_inputs(small_stream(300, seed=3, disorder=0.3), n=3)
    merge = VARIANTS[name](reclamation=POLICIES[policy])
    merge.merge(inputs, schedule="random", seed=3, batch_size=16)
    count, prefix = digest(merge.output)
    assert (count, prefix[:12]) == (369, "90680de3ad3f")


@pytest.mark.parametrize("name", ["LMR1", "LMR4"])
def test_process_plan_matches_unsharded(name):
    check_sharded(name, shards=2, backend="process")
