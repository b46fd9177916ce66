"""Ablation — output-policy trade-offs (Section V-A, Table II at scale).

Not a paper figure, but the design-choice study DESIGN.md calls out: the
same R3 merge under the paper's policy spectrum, measuring chattiness
(adjusts emitted), deletions (cancels emitted — the risk the conservative
policy eliminates), and eagerness (how many elements are on the output by
the time the inputs are half done).
"""

import pytest

from repro.lmerge.policies import (
    CONSERVATIVE_POLICY,
    DEFAULT_POLICY,
    EAGER_POLICY,
    InsertPropagation,
    OutputPolicy,
)
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.base import interleave_batches
from repro.streams.divergence import diverge
from repro.temporal.elements import Adjust

from conftest import disordered_workload, series_benchmark

POLICIES = {
    "default (first/lazy)": DEFAULT_POLICY,
    "eager adjusts": EAGER_POLICY,
    "half-frozen wait": CONSERVATIVE_POLICY,
    "quorum 2/3": OutputPolicy(
        insert=InsertPropagation.QUORUM, quorum_fraction=0.67
    ),
    "stable lag 500": OutputPolicy(stable_lag=500),
}


def build_inputs(n=3, count=4000):
    base = disordered_workload(
        count=count, seed=61, disorder=0.3, blob=20, event_duration=500
    )
    return [diverge(base, seed=i, speculate_fraction=0.4) for i in range(n)]


def run_policy(policy, inputs):
    merge = LMergeR3(policy=policy)
    for stream_id in range(len(inputs)):
        merge.attach(stream_id)
    total = sum(len(stream) for stream in inputs)
    halfway_emitted = None
    for index, ((element,), stream_id) in enumerate(
        interleave_batches(list(inputs), "round_robin", 0, 1)
    ):
        merge.process(element, stream_id)
        if halfway_emitted is None and index >= total // 2:
            halfway_emitted = merge.stats.inserts_out
    cancels = sum(
        1
        for element in merge.output
        if isinstance(element, Adjust) and element.is_cancel
    )
    return {
        "adjusts": merge.stats.adjusts_out,
        "cancels": cancels,
        "halfway": halfway_emitted,
        "merge": merge,
    }


@series_benchmark
def test_policy_ablation(report):
    inputs = build_inputs()
    expected = inputs[0].tdb()
    report("Policy ablation (3 inputs, 30% disorder, 40% speculation):")
    report(f"{'policy':>22}{'adjusts out':>13}{'cancels':>9}{'emitted@50%':>13}")
    results = {}
    for name, policy in POLICIES.items():
        stats = run_policy(policy, inputs)
        results[name] = stats
        assert stats["merge"].output.tdb() == expected, name
        report(
            f"{name:>22}{stats['adjusts']:>13,}{stats['cancels']:>9,}"
            f"{stats['halfway']:>13,}"
        )
    # Eager is the chattiest; half-frozen never cancels; the withholding
    # policies trade eagerness (fewer events emitted by the halfway mark).
    assert results["eager adjusts"]["adjusts"] >= results[
        "default (first/lazy)"
    ]["adjusts"]
    assert results["half-frozen wait"]["cancels"] == 0
    assert (
        results["half-frozen wait"]["halfway"]
        < results["default (first/lazy)"]["halfway"]
    )
    assert (
        results["quorum 2/3"]["halfway"]
        <= results["default (first/lazy)"]["halfway"]
    )
    # Lagging the stable point can only reduce corrective adjusts.
    assert (
        results["stable lag 500"]["adjusts"]
        <= results["default (first/lazy)"]["adjusts"]
    )


@pytest.mark.parametrize("name", list(POLICIES))
def test_policy_benchmark(benchmark, name):
    inputs = build_inputs(count=2000)

    def run():
        stats = run_policy(POLICIES[name], inputs)
        return stats["adjusts"]

    benchmark(run)
