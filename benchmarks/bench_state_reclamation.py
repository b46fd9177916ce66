"""Bounded merge state (PR 8) — settled-run reclamation vs the seed.

Not a paper figure: the paper's evaluation (Section VI) runs workloads
whose events expire, so the seed index self-cleans once output Ve
freezes.  The HA deployments the paper targets (Section II) are not so
kind: point events with open lifetimes (``Ve = INFINITY``) and replicas
that trail each other keep every half-frozen node resident forever, and
— worse — every CTI re-walks the whole settled prefix, so the seed's
stable path degrades from O(window) to O(stream).

The workload here is that adversary: two replicas of an infinite-Ve
point stream, replica 1 trailing replica 0 by a fixed element window.
Three configurations per variant:

* ``seed``     — ``reclamation=None``, the pre-PR-8 behaviour;
* ``reclaim``  — CTI-driven settled-prefix pruning (bounded state);
* ``spill``    — pruning plus cold-run spill of output-agreed runs the
  trailing replica has not confirmed yet (bounded *resident* state even
  for the not-yet-settled tail).

Asserted shape: all three produce element-identical output; the
reclaimed resident index is O(lag window) while the seed's is O(stream);
reclamation is >= 1.1x seed throughput (the settled prefix is walked
once instead of once per stable).  The table goes into the run's
``--benchmark-json`` file (CI: ``bench-state.json``).
"""

import os
import platform
import statistics
import time

import pytest

from repro.lmerge import ReclamationPolicy
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.temporal.elements import Insert, Stable
from repro.temporal.time import INFINITY

from conftest import series_benchmark

VARIANTS = {"LMR3+": LMergeR3, "LMR4": LMergeR4}


def policies():
    return {
        "seed": None,
        "reclaim": ReclamationPolicy(),
        # run_width x hot_runs must undershoot the lag window or nothing
        # is ever cold: 2 hot runs of 128 vs a 1000-element lag leaves a
        # ~750-element cold tail to evict.  store_dir stays None so every
        # merge gets a private self-cleaning spill directory — repeated
        # rounds must not append to each other's store logs.
        "spill": ReclamationPolicy(spill=True, run_width=128, hot_runs=2),
    }


def lagged_schedule(n, run, window):
    """The adversarial delivery order, materialized once so every
    configuration replays the identical element sequence."""
    schedule = []
    backlog = []
    for i in range(n):
        element = Insert(f"p{i}", float(i), INFINITY)
        schedule.append((element, 0))
        backlog.append(element)
        if i % run == run - 1:
            schedule.append((Stable(float(i)), 0))
        if len(backlog) > window:
            trailing = backlog.pop(0)
            schedule.append((trailing, 1))
            if trailing.vs % run == run - 1:
                schedule.append((Stable(trailing.vs), 1))
    return schedule


def drive(variant, policy, schedule, sample_every=500):
    """Replay *schedule* into a fresh merge, sampling resident index size."""
    output = []
    merge = variant(sink=output.append, reclamation=policy)
    merge.attach(0)
    merge.attach(1)
    peak_nodes = 0
    peak_bytes = 0
    processed = 0
    start = time.perf_counter()
    for element, stream_id in schedule:
        merge.process(element, stream_id)
        processed += 1
        if processed % sample_every == 0:
            nodes = merge.index_nodes
            if nodes > peak_nodes:
                peak_nodes = nodes
            size = merge.index_bytes
            if size > peak_bytes:
                peak_bytes = size
    elapsed = time.perf_counter() - start
    return {
        "elements": processed,
        "seconds": elapsed,
        "throughput": processed / elapsed if elapsed > 0 else float("inf"),
        "peak_index_nodes": max(peak_nodes, merge.index_nodes),
        "peak_index_bytes": max(peak_bytes, merge.index_bytes),
        "final_index_nodes": merge.index_nodes,
        "pruned_nodes": merge.pruned_nodes,
        "spilled_runs": merge.spilled_runs,
        "faulted_runs": merge.faulted_runs,
        "dropped_runs": merge.dropped_runs,
        "output": output,
    }


@series_benchmark
def test_state_reclamation_series(report):
    n, run, window = 12_000, 50, 1_000
    schedule = lagged_schedule(n, run, window)
    report("Bounded state: settled-run reclamation on the lagged-replica "
           f"workload (n={n}, stable every {run}, lag window {window})")
    report(f"{'variant':>9}{'mode':>9}{'kelem/s':>10}{'speedup':>9}"
           f"{'peak nodes':>12}{'pruned':>9}{'spill/fault':>13}")
    results = {
        "pr": 8,
        "title": "Bounded merge state: reclamation, spill",
        "environment": {
            "python": platform.python_version(),
            "cores_visible": os.cpu_count() or 1,
        },
        "workload": {
            "elements": n,
            "replicas": 2,
            "stable_every": run,
            "lag_window_elements": window,
            "event_lifetime": "infinite",
        },
        "variants": {},
    }
    for name, variant in VARIANTS.items():
        entries = {}
        outputs = {}
        for mode, policy in policies().items():
            samples = []
            for _ in range(3):
                stats = drive(variant, policy, schedule)
                samples.append(stats)
            best = max(samples, key=lambda s: s["throughput"])
            outputs[mode] = best["output"]
            entries[mode] = {
                "elements_per_sec": round(best["throughput"]),
                "peak_index_nodes": best["peak_index_nodes"],
                "final_index_nodes": best["final_index_nodes"],
                "peak_index_bytes": best["peak_index_bytes"],
                "pruned_nodes": best["pruned_nodes"],
                "spilled_runs": best["spilled_runs"],
                "faulted_runs": best["faulted_runs"],
                "dropped_runs": best["dropped_runs"],
            }
        seed_eps = entries["seed"]["elements_per_sec"]
        for mode, entry in entries.items():
            entry["speedup_vs_seed"] = round(
                entry["elements_per_sec"] / seed_eps, 2
            )
            report(f"{name:>9}{mode:>9}"
                   f"{entry['elements_per_sec'] / 1e3:>10.1f}"
                   f"{entry['speedup_vs_seed']:>9.2f}"
                   f"{entry['peak_index_nodes']:>12}"
                   f"{entry['pruned_nodes']:>9}"
                   f"{entry['spilled_runs']:>6}/"
                   f"{entry['faulted_runs']:<6}")

        # 1. Reclamation is a pure optimization on this workload: the
        #    merged output is element-identical in all three modes.
        assert list(outputs["reclaim"]) == list(outputs["seed"])
        assert list(outputs["spill"]) == list(outputs["seed"])
        entries["reclaim"]["outputs_equal_seed"] = True
        entries["spill"]["outputs_equal_seed"] = True
        # 2. Resident state: the seed retains every infinite-Ve node
        #    (O(stream)); reclamation holds O(lag window).
        assert entries["seed"]["peak_index_nodes"] > 0.8 * n
        assert entries["reclaim"]["peak_index_nodes"] < 2 * window
        assert entries["spill"]["peak_index_nodes"] < 2 * window
        # 3. The settled prefix is walked once, not once per CTI:
        #    >= 1.1x throughput (acceptance bar; actual is far higher).
        assert entries["reclaim"]["speedup_vs_seed"] >= 1.1, entries
        # 4. The spill path actually exercised the store on this shape.
        assert entries["spill"]["spilled_runs"] > 0
        assert entries["spill"]["faulted_runs"] > 0
        results["variants"][name] = entries

    return results


@pytest.mark.parametrize("mode", ["seed", "reclaim", "spill"])
def test_state_smoke_benchmark(benchmark, mode):
    """CI smoke: the lagged workload per mode at a small n; any spill or
    pruning corruption fails loudly via the output-length check."""
    schedule = lagged_schedule(3_000, 50, 400)

    def run():
        policy = policies()[mode]
        stats = drive(LMergeR3, policy, schedule)
        assert len(stats["output"]) > 0
        return stats["elements"]

    assert benchmark.pedantic(run, rounds=3, iterations=1) == len(schedule)
