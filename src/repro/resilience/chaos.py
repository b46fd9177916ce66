"""The seeded chaos matrix: supervised runs under injected faults must
be TDB-equivalent to clean runs.

One **cell** is ``(variant, fault kind, seed)``: build a seeded
workload, merge it once on a clean serial sharded plan (the baseline)
and once on a supervised process plan with a seeded
:class:`~repro.resilience.faults.FaultPlan`, then check the two oracles
from the paper's correctness story:

* **equivalence** — both outputs (and the reference stream) reconstitute
  to the same TDB (``tdb(S) == tdb(U)``, Section III);
* **no loss / no duplication** — the faulty run's output is the same
  element *multiset* as the clean run's (deterministic replay plus the
  driver's emitted-count dedup make recovery exact, which is strictly
  stronger than TDB equivalence).

:func:`run_fault_matrix` sweeps variants x fault kinds and returns a
JSON-ready report (the CI ``chaos-smoke`` artifact);
``python -m repro chaos`` is the CLI face.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lmerge.r1 import LMergeR1
from repro.lmerge.r3 import LMergeR3
from repro.lmerge.r4 import LMergeR4
from repro.lmerge.sharded import shard
from repro.resilience.faults import FaultPlan
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Stable

__all__ = ["run_chaos_cell", "run_fault_matrix", "VARIANTS", "FAULT_KINDS"]

VARIANTS = {"r1": LMergeR1, "r3": LMergeR3, "r4": LMergeR4}

#: FaultPlan.random keyword and site count per fault kind.  Stalls cost
#: a heartbeat timeout (``supervisor.HEARTBEAT_TIMEOUT``) each, so one
#: per run keeps cells fast.
FAULT_KINDS: Dict[str, Tuple[str, int]] = {
    "kill": ("kills", 2),
    "stall": ("stalls", 1),
    "drop": ("drops", 2),
    "duplicate": ("duplicates", 2),
    "delay": ("delays", 2),
}


def _workload(
    variant_key: str, seed: int, count: int
) -> Tuple[PhysicalStream, List[PhysicalStream]]:
    """Reference stream + merge inputs legal for the variant (R1 takes
    ordered adjust-free replicas; R3/R4 take divergent speculative
    presentations)."""
    if variant_key == "r1":
        config = GeneratorConfig(
            count=count,
            seed=seed,
            disorder=0.0,
            stable_freq=0.08,
            payload_blob_bytes=4,
            min_gap=1,
        )
        reference = StreamGenerator(config).generate()
        return reference, [reference, reference]
    config = GeneratorConfig(
        count=count,
        seed=seed,
        disorder=0.25,
        stable_freq=0.08,
        payload_blob_bytes=4,
    )
    reference = StreamGenerator(config).generate()
    inputs = [
        diverge(reference, seed=seed * 31 + i, speculate_fraction=0.25)
        for i in range(2)
    ]
    return reference, inputs


def _data_multiset(stream: PhysicalStream) -> Counter:
    """The output's data elements (punctuation timing is allowed to
    differ between runs; data must not)."""
    return Counter(e for e in stream if not isinstance(e, Stable))


def run_chaos_cell(
    variant_key: str,
    fault_kind: str,
    seed: int,
    *,
    num_shards: int = 2,
    count: int = 160,
    batch_size: int = 16,
    durable_dir: Optional[str] = None,
) -> dict:
    """Run one cell and return its JSON-ready verdict."""
    if variant_key not in VARIANTS:
        raise ValueError(f"unknown variant {variant_key!r}")
    if fault_kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {fault_kind!r}")
    reference, inputs = _workload(variant_key, seed, count)

    baseline = shard(VARIANTS[variant_key], num_shards, backend="serial")
    baseline_out = baseline.merge_batched(inputs, batch_size=batch_size)

    # Sequence numbers count per-shard frames (attach ops + batch
    # buckets); aiming sites at the first half of the batch range keeps
    # them inside the actual run so the faults really fire.
    total_batches = sum(len(s) for s in inputs) // batch_size
    horizon = max(4, total_batches // 2)
    keyword, sites = FAULT_KINDS[fault_kind]
    plan = FaultPlan.random(
        seed, num_shards, horizon, **{"kills": 0, keyword: sites}
    )

    with tempfile.TemporaryDirectory(
        prefix=f"chaos-{variant_key}-{fault_kind}-", dir=durable_dir
    ) as state_dir:
        supervised = shard(
            VARIANTS[variant_key],
            num_shards,
            backend="process",
            supervised=True,
            durable_dir=state_dir,
            fault_plan=plan,
        )
        supervised_out = supervised.merge_batched(
            inputs, batch_size=batch_size
        )
        runtime = supervised.runtime

        equivalent = (
            supervised_out.tdb()
            == baseline_out.tdb()
            == reference.tdb()
        )
        no_loss = _data_multiset(supervised_out) == _data_multiset(
            baseline_out
        )
        return {
            "variant": variant_key,
            "fault": fault_kind,
            "seed": seed,
            "equivalent": bool(equivalent),
            "no_loss_no_duplication": bool(no_loss),
            "ok": bool(equivalent and no_loss),
            "restarts": sum(runtime.restarts),
            "replayed_elements": runtime.replayed_elements,
            "recovery_seconds": [
                round(r.seconds, 4) for r in runtime.recoveries
            ],
            "recoveries": [r.as_dict() for r in runtime.recoveries],
            "fault_plan": plan.describe(),
            "elements_out": len(supervised_out),
        }


def run_fault_matrix(
    seed: int,
    *,
    variants: Sequence[str] = ("r1", "r3"),
    fault_kinds: Sequence[str] = tuple(FAULT_KINDS),
    num_shards: int = 2,
    count: int = 160,
    batch_size: int = 16,
    durable_dir: Optional[str] = None,
) -> dict:
    """Sweep ``variants x fault_kinds`` from one seed.

    The returned report is JSON-ready; ``report["all_ok"]`` is the CI
    gate (every cell TDB-equivalent with no loss or duplication).
    """
    cells = []
    for offset, variant_key in enumerate(variants):
        for fault_kind in fault_kinds:
            cells.append(
                run_chaos_cell(
                    variant_key,
                    fault_kind,
                    seed + offset,
                    num_shards=num_shards,
                    count=count,
                    batch_size=batch_size,
                    durable_dir=durable_dir,
                )
            )
    return {
        "seed": seed,
        "num_shards": num_shards,
        "count": count,
        "batch_size": batch_size,
        "cells": cells,
        "total_restarts": sum(cell["restarts"] for cell in cells),
        "all_ok": all(cell["ok"] for cell in cells),
    }
