"""Figure 6 — Memory and throughput as StableFreq varies.

Paper shape: raising StableFreq from 0.001% to 1% *decreases* memory for
every variant (more frequent cleanup of frozen state) while *decreasing*
throughput for the general algorithms LMR3+/LMR4 (each stable() triggers
compatibility checks over the half-frozen region); the simple schemes'
throughput is essentially unaffected.  LMR4 here departs from the paper
on purpose: its stable() looks at what changed, not at the whole
half-frozen region, so its scan work stops growing with the frequency
(EXPERIMENTS.md, Fig. 6).
"""

import statistics

import pytest

from repro.lmerge.r0 import LMergeR0
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator

from conftest import fmt_bytes, run_merge, series_benchmark

STABLE_FREQS = [0.00001, 0.0001, 0.001, 0.01]
N_INPUTS = 3


def build_inputs(stable_freq, count=5000, ordered=False):
    config = GeneratorConfig(
        count=count,
        seed=29,
        disorder=0.0 if ordered else 0.2,
        min_gap=1 if ordered else 0,
        stable_freq=stable_freq,
        payload_blob_bytes=100,
        # Lifetimes span several punctuation intervals at the highest
        # frequency, so half-frozen regions are rescanned by later stables.
        event_duration=5000,
    )
    base = StreamGenerator(config).generate()
    if ordered:
        return [base] * N_INPUTS
    return [diverge(base, seed=i) for i in range(N_INPUTS)]


def measure(variant_cls, inputs, repeats=3):
    import gc

    # Memory probing walks the whole index (O(state)), so peak memory is
    # taken from a separate untimed pass.
    probe = variant_cls()
    peak = run_merge(probe, inputs, memory_every=200)["peak_memory"]
    scan_nodes = getattr(probe, "stable_scan_nodes", 0)
    rates = []
    for _ in range(repeats):
        gc.collect()
        merge = variant_cls()
        rates.append(run_merge(merge, inputs)["throughput"])
    return statistics.median(rates), peak, scan_nodes


@series_benchmark
def test_fig6_memory_and_throughput_series(report):
    report("Figure 6: memory (peak) and throughput vs StableFreq")
    report(
        f"{'freq':>9}{'mem R3+':>12}{'mem R4':>12}"
        f"{'thpt R0':>12}{'thpt R3+':>12}{'thpt R4':>12}"
    )
    memory_r3, memory_r4 = [], []
    scans_r3, scans_r4 = [], []
    throughput = {"R0": [], "R3+": [], "R4": []}
    for freq in STABLE_FREQS:
        general_inputs = build_inputs(freq)
        ordered_inputs = build_inputs(freq, ordered=True)
        rate_r0, _, _ = measure(LMergeR0, ordered_inputs)
        rate_r3, peak_r3, scan_r3 = measure(LMergeR3, general_inputs)
        rate_r4, peak_r4, scan_r4 = measure(LMergeR4, general_inputs)
        memory_r3.append(peak_r3)
        memory_r4.append(peak_r4)
        scans_r3.append(scan_r3)
        scans_r4.append(scan_r4)
        throughput["R0"].append(rate_r0)
        throughput["R3+"].append(rate_r3)
        throughput["R4"].append(rate_r4)
        report(
            f"{freq:>9.3%}{fmt_bytes(peak_r3):>12}{fmt_bytes(peak_r4):>12}"
            f"{rate_r0:>12,.0f}{rate_r3:>12,.0f}{rate_r4:>12,.0f}"
        )
    # Paper shape 1: more frequent punctuation -> less retained state.
    assert memory_r3[-1] < memory_r3[0] / 2
    assert memory_r4[-1] < memory_r4[0] / 2
    # Paper shape 2: the general algorithms pay for frequent stables.
    # The deterministic mechanism — nodes looked at by per-stable
    # reconciliation — grows with punctuation frequency for LMR3+, which
    # walks every half-frozen node on every stable (the wall-clock decline
    # it causes in StreamInsight is muted here because Python per-element
    # overhead dominates; the series above records it).
    report(f"  per-stable scan work (nodes), R3+: {scans_r3}")
    report(f"  per-stable scan work (nodes), R4:  {scans_r4}")
    assert scans_r3[-1] > 2 * scans_r3[0]
    # LMR4 looks only at nodes whose answer can have changed (its
    # reconcile frontier): a key when it first half-freezes and again
    # when a stable passes its end, plus once per revision in between —
    # set by the events, not by how often punctuation arrives.  With one
    # stable per run the two looks coincide, so the stated factor is 2: a
    # thousandfold StableFreq costs LMR4 less than twice the looks
    # (measured 1.90x; LMR3+ 4.73x and growing with the frequency).
    assert scans_r4[-1] < 2 * scans_r4[0]
    assert scans_r4[-1] * 2 < scans_r3[-1]
    # Paper shape 3: the simple scheme is essentially unaffected
    # (generous tolerance — wall-clock noise).
    assert throughput["R0"][-1] > 0.5 * throughput["R0"][0]


@pytest.mark.parametrize("freq", [0.0001, 0.01])
def test_fig6_benchmark(benchmark, freq):
    inputs = build_inputs(freq, count=2500)

    def run():
        merge = LMergeR3()
        return run_merge(merge, inputs)["elements"]

    benchmark(run)
