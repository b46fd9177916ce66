"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence

import pytest

from repro.lmerge.base import LMergeBase, interleave
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Stable
from repro.temporal.tdb import TDB
from repro.theory.compatibility import (
    check_r3_compatibility,
    check_r4_conformance,
)


def small_stream(
    count: int = 400,
    seed: int = 0,
    disorder: float = 0.2,
    stable_freq: float = 0.05,
    event_duration: int = 100,
    blob: int = 4,
    min_gap: int = 0,
) -> PhysicalStream:
    """A small generated stream for fast tests."""
    config = GeneratorConfig(
        count=count,
        seed=seed,
        disorder=disorder,
        stable_freq=stable_freq,
        event_duration=event_duration,
        payload_blob_bytes=blob,
        min_gap=min_gap,
    )
    return StreamGenerator(config).generate()


def divergent_inputs(
    reference: PhysicalStream,
    n: int = 3,
    speculate_fraction: float = 0.3,
    stable_keep_probability: float = 1.0,
) -> List[PhysicalStream]:
    """n physically different, logically equivalent presentations."""
    return [
        diverge(
            reference,
            seed=i,
            speculate_fraction=speculate_fraction,
            stable_keep_probability=stable_keep_probability,
        )
        for i in range(n)
    ]


def data_by_key(elements) -> dict:
    """Per-(Vs, payload) element sequences, ignoring punctuation — the
    sharded-equivalence notion of element-identical output."""
    ordered: dict = {}
    for element in elements:
        if not isinstance(element, Stable):
            ordered.setdefault((element.vs, element.payload), []).append(element)
    return ordered


def merge_with_oracle(
    merge: LMergeBase,
    inputs: Sequence[PhysicalStream],
    schedule: str = "round_robin",
    seed: int = 0,
    check_r3: bool = True,
    check_r4: bool = False,
    check_every: int = 1,
) -> LMergeBase:
    """Drive *merge* while asserting the Section III-D oracle throughout.

    After each element the output prefix is reconstituted strictly (so any
    output-stream contract violation raises) and, every *check_every*
    steps, checked against the R3 compatibility conditions C1-C3 and/or
    the R4 conformance rule.
    """
    streams = list(inputs)
    for stream_id in range(len(streams)):
        if not merge.is_attached(stream_id):
            merge.attach(stream_id)
    input_tdbs = [TDB() for _ in streams]
    output_tdb = TDB()  # strict: raises on any output contract violation
    cursor = 0
    step = 0
    for element, stream_id in interleave(streams, schedule, seed):
        merge.process(element, stream_id)
        input_tdbs[stream_id].apply(element)
        while cursor < len(merge.output):
            output_tdb.apply(merge.output[cursor])
            cursor += 1
        step += 1
        if step % check_every:
            continue
        if check_r3:
            violations = check_r3_compatibility(input_tdbs, output_tdb)
            assert not violations, "; ".join(str(v) for v in violations)
        if check_r4 and isinstance(element, Stable):
            violations = check_r4_conformance(input_tdbs, output_tdb)
            assert not violations, "; ".join(str(v) for v in violations)
    return merge


def assert_merge_equivalent(
    merge: LMergeBase,
    inputs: Sequence[PhysicalStream],
    reference_tdb: Optional[TDB] = None,
    schedule: str = "round_robin",
    seed: int = 0,
) -> LMergeBase:
    """Merge *inputs* and assert logical equivalence with the reference."""
    output = merge.merge(inputs, schedule=schedule, seed=seed)
    expected = reference_tdb if reference_tdb is not None else inputs[0].tdb()
    assert output.tdb() == expected
    return merge


@pytest.fixture
def reference_stream() -> PhysicalStream:
    return small_stream()


@pytest.fixture
def keyed_inputs(reference_stream) -> List[PhysicalStream]:
    return divergent_inputs(reference_stream)
