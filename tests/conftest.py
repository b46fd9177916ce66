"""Shared stream helpers and the hypothesis profile for the test suite.

Merge-equivalence scenarios live in ``oracle.py``.
"""

from __future__ import annotations

from typing import List

from hypothesis import settings

from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Stable

# Tier-1 fails only when the code is wrong, never because a busy host ran
# one example slowly: no property test has a deadline.  ``max_examples``
# stays with each test.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


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
