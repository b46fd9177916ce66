"""The four named workloads: definitions, input generation, input cache.

A workload fixes *what is fed* (replica streams and their delivery
schedule, a pure function of ``--seed``) and *what it is fed to* (an
LMerge variant behind one ingest path, in process or sharded).  The
program under test only ever sees the generated element lists.

Inputs are generated once per ``(workload, seed, config-hash)`` into
``.cache/``, validated against the stream contract and the variant's
restriction, and identified by a SHA-256 of the delivery sequence so two
runs can prove they fed the same elements.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import string
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.lmerge import LMergeR1, LMergeR3, LMergeR4, ReclamationPolicy, shard
from repro.lmerge.base import interleave_batches
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.properties import classify, measure_joint_properties
from repro.temporal.elements import Adjust, Element, Insert, Stable
from repro.temporal.tdb import reconstitute
from repro.temporal.time import INFINITY
from repro.temporal.validate import validate_stream

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".cache")
#: Input files kept in the cache; a driver run uses a new seed every time,
#: so without a cap the cache would grow by one file per run.
CACHE_KEEP = 8

REPLICAS = 3
BATCH = 64
#: Elements per replica checked by the slow validators (see
#: :func:`validate_inputs`).
VALIDATE_PREFIX = 5_000

VARIANTS = {"r1": LMergeR1, "r3": LMergeR3, "r4": LMergeR4}

#: One segment of a step: consecutive elements of one input stream.
Segment = Tuple[int, List[Element]]
#: One pacing unit (``BATCH`` deliveries): what one due time submits.
Step = List[Segment]


@dataclass(frozen=True)
class Workload:
    """One named workload; every field is part of the config hash."""

    name: str
    why: str
    #: Which input family feeds it; workloads sharing a family (and seed)
    #: are fed the very same elements.
    family: str
    variant: str
    #: ``"batch"`` = ``process_batch`` per step, ``"element"`` = one
    #: ``process`` call per element.
    ingest: str
    #: ``None`` = in-process merge; else the sharded plan's backend.
    backend: Optional[str] = None
    shards: int = 1
    reclaim: bool = False
    params: Dict[str, float] = field(default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def merge_kwargs(self) -> dict:
        return {"reclamation": ReclamationPolicy()} if self.reclaim else {}

    def build_plan(self):
        """A fresh, attached plan (workers started for sharded plans)."""
        cls = VARIANTS[self.variant]
        if self.backend is None:
            plan = cls(**self.merge_kwargs())
        else:
            plan = shard(
                cls,
                self.shards,
                backend=self.backend,
                coalesce_stables=True,
                **self.merge_kwargs(),
            )
        for stream_id in range(REPLICAS):
            plan.attach(stream_id)
        return plan

    def finish(self, plan) -> None:
        """Drain the plan (joins shard workers; inside the clock)."""
        if self.backend is not None:
            plan.close()


_DISORDER = {
    "count": 25_000,
    "disorder": 0.2,
    "stable_freq": 0.01,
    "event_duration": 100_000,
    "speculate_fraction": 0.2,
    "payload_blob_bytes": 100,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="inorder_r1_batch",
            why=(
                "LMR1 via process_batch on in-order insert-only replicas: no "
                "index, so batch dispatch and the R1 counter scan are all the "
                "work; an index or exchange change must show no change here"
            ),
            family="inorder",
            variant="r1",
            ingest="batch",
            params={
                "count": 150_000,
                "stable_freq": 0.01,
                "payload_blob_bytes": 100,
            },
        ),
        Workload(
            name="disorder_r3_batch",
            why=(
                "LMR3+ via process_batch, unsharded, 20% disorder and ~10k live "
                "events: rbtree/In2T plus the insert/adjust/stable hooks "
                "dominate; the single-threaded baseline for parallel numbers"
            ),
            family="disorder",
            variant="r3",
            ingest="batch",
            params=_DISORDER,
        ),
        Workload(
            name="disorder_r3_proc2",
            why=(
                "the same input through shard(LMergeR3, 2, process): partition, "
                "RCB1 encode, ShmRing, worker, decode, ShardUnion; the exchange "
                "does the work and pacing exposes ring wake-up latency"
            ),
            family="disorder",
            variant="r3",
            ingest="batch",
            backend="process",
            shards=2,
            params=_DISORDER,
        ),
        Workload(
            name="openclose_r4_lagged",
            why=(
                "LMR4 with reclamation fed one element at a time: open/close "
                "stream, adjust path, In3T, prune on every CTI, one replica "
                "lagging; catches gains for batch/insert that cost this path"
            ),
            family="openclose",
            variant="r4",
            ingest="element",
            reclaim=True,
            params={
                "count": 10_000,
                "close_share": 0.6,
                "stable_every": 50,
                "max_close_delay": 200,
                "lag": 2_000,
                "payload_blob_bytes": 100,
            },
        ),
    )
}


def derive_seed(seed: int, label: str) -> int:
    """A per-family generator seed: ``--seed`` changes every workload."""
    return (seed * 1_000_003 + zlib.crc32(label.encode())) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Input families
# ----------------------------------------------------------------------


def _inorder(params: dict, seed: int):
    generator = StreamGenerator(
        GeneratorConfig(
            count=int(params["count"]),
            disorder=0.0,
            min_gap=1,
            stable_freq=params["stable_freq"],
            payload_blob_bytes=int(params["payload_blob_bytes"]),
            seed=seed,
        )
    )
    base = generator.generate()
    replicas = [_drop_every_third_stable(base, i) for i in range(REPLICAS)]
    return replicas, _round_robin(replicas), generator.stats.achieved_disorder


def _drop_every_third_stable(base, replica: int) -> List[Element]:
    """Replica *i* lacks every stable whose ordinal is ``i`` modulo 3.

    The replicas differ only in punctuation, as with ``thin_stables``, but
    stay in lockstep: each has dropped the same number of elements at any
    point, so round-robin batch *k* covers the same events on all three
    and replica 0's step always carries the new data.  Two CTIs in three
    then arrive with a step that emits, one in three with a step of pure
    duplicates — a fixed mix.  Random thinning lets the replicas drift
    apart, the leader change, and the mix (hence the median CTI latency,
    which sits between a 10 us and an 80 us mode) move with the seed.
    """
    out: List[Element] = []
    ordinal = 0
    for element in base:
        if element.__class__ is Stable and element.vc != INFINITY:
            ordinal += 1
            if ordinal % REPLICAS == replica:
                continue
        out.append(element)
    return out


def _disorder(params: dict, seed: int):
    generator = StreamGenerator(
        GeneratorConfig(
            count=int(params["count"]),
            disorder=params["disorder"],
            stable_freq=params["stable_freq"],
            event_duration=int(params["event_duration"]),
            payload_blob_bytes=int(params["payload_blob_bytes"]),
            seed=seed,
        )
    )
    base = generator.generate()
    replicas = [
        list(
            diverge(
                base,
                seed=seed * 31 + i,
                speculate_fraction=params["speculate_fraction"],
            )
        )
        for i in range(REPLICAS)
    ]
    return replicas, _round_robin(replicas), generator.stats.achieved_disorder


def _openclose(params: dict, seed: int):
    """Example-3-shaped stream: point inserts open an event (``Ve = inf``),
    a share of them is closed later by an ``Adjust``, a ``Stable`` every
    few events.  Replicas 0 and 1 deliver in step, replica 2 trails by
    ``lag`` elements, so settled-prefix reclamation has work on every CTI.
    """
    rng = random.Random(seed)
    count = int(params["count"])
    every = int(params["stable_every"])
    max_delay = int(params["max_close_delay"])
    blob = "".join(
        rng.choices(string.ascii_letters, k=int(params["payload_blob_bytes"]))
    )
    base: List[Element] = []
    closes: Dict[int, List[Insert]] = {}
    for i in range(count):
        opened = Insert((rng.randint(0, 400), i, blob), i, INFINITY)
        base.append(opened)
        if rng.random() < params["close_share"]:
            closes.setdefault(i + rng.randint(1, max_delay), []).append(opened)
        for event in closes.pop(i, ()):
            base.append(Adjust(event.payload, event.vs, INFINITY, i + 1))
        if i % every == every - 1:
            base.append(Stable(i))
    for at in sorted(closes):
        for event in closes[at]:
            base.append(Adjust(event.payload, event.vs, INFINITY, at + 1))
    base.append(Stable(INFINITY))
    lag = int(params["lag"])
    deliveries: List[Tuple[int, Element]] = []
    for k, element in enumerate(base):
        deliveries.append((0, element))
        deliveries.append((1, element))
        if k >= lag:
            deliveries.append((2, base[k - lag]))
    deliveries.extend((2, element) for element in base[max(0, len(base) - lag):])
    steps: List[Step] = []
    for start in range(0, len(deliveries), BATCH):
        step: Step = []
        for stream_id, element in deliveries[start : start + BATCH]:
            if step and step[-1][0] == stream_id:
                step[-1][1].append(element)
            else:
                step.append((stream_id, [element]))
        steps.append(step)
    return [base] * REPLICAS, steps, 0.0


def _round_robin(replicas: List[List[Element]]) -> List[Step]:
    return [
        [(stream_id, chunk)]
        for chunk, stream_id in interleave_batches(
            replicas, "round_robin", 0, BATCH
        )
    ]


_FAMILIES = {"inorder": _inorder, "disorder": _disorder, "openclose": _openclose}


# ----------------------------------------------------------------------
# Build, validate, cache
# ----------------------------------------------------------------------


def step_elements(step: Step) -> int:
    return sum(len(elements) for _, elements in step)


def step_max_stable(step: Step) -> Optional[float]:
    """Largest ``stable()`` timestamp submitted by *step*, if any."""
    best = None
    for _, elements in step:
        for element in elements:
            if element.__class__ is Stable and (best is None or element.vc > best):
                best = element.vc
    return best


def canonical_tdb(elements) -> Tuple[Counter, float]:
    """A TDB as plain picklable data: ``{(vs, payload, ve): count}`` plus
    the stable point — what the per-rep oracle compares."""
    tdb = reconstitute(elements)
    return Counter((e.vs, e.payload, e.ve) for e in tdb), tdb.stable_point


def cache_path(workload: Workload, seed: int) -> str:
    return os.path.join(
        CACHE_DIR, f"{workload.name}-s{seed}-{workload.config_hash()}.pkl"
    )


def build_inputs(workload: Workload, seed: int) -> dict:
    """Generate, validate and describe one workload's inputs."""
    started = perf_counter()
    replicas, steps, disorder = _FAMILIES[workload.family](
        workload.params, derive_seed(seed, workload.family)
    )
    generate_s = perf_counter() - started

    started = perf_counter()
    validate_inputs(workload, replicas)
    reference, reference_stable = canonical_tdb(replicas[0])
    for replica in replicas[1:]:
        if replica is not replicas[0] and canonical_tdb(replica)[0] != reference:
            raise ValueError(
                f"{workload.name}: replicas are not logically equivalent"
            )
    validate_s = perf_counter() - started

    kinds: Counter = Counter()
    for step in steps:
        for _, elements in step:
            for element in elements:
                kinds[element.__class__] += 1
    total = sum(kinds.values())
    blob = pickle.dumps(steps, protocol=4)
    inputs = {
        "workload": workload.name,
        "seed": seed,
        "config_hash": workload.config_hash(),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "steps": steps,
        "reference": reference,
        "reference_stable": reference_stable,
        "distinct_events": len(reference),
        "expected_data_out": None,
        "streams": {
            "generate_s": generate_s,
            "validate_s": validate_s,
            "elements": total,
            "adjust_share": kinds[Adjust] / total,
            "stable_share": kinds[Stable] / total,
            "disorder_achieved": disorder,
        },
    }
    if workload.backend is not None:
        inputs["expected_data_out"] = unsharded_data_out(workload, steps)
    return inputs


def validate_inputs(workload: Workload, replicas: List[List[Element]]) -> None:
    """Check the generated replicas before anything is measured.

    ``repro.temporal.validate`` and the restriction measurement walk every
    live key on each ``stable()``, which at ~10k live events costs more
    than the benchmark's whole time budget — so they run on the first
    :data:`VALIDATE_PREFIX` elements of each replica (any prefix of a
    valid stream is a valid stream).  The *whole* of every replica is
    then covered by the strict reconstitution in :func:`build_inputs`,
    which raises on the same contract violations and additionally proves
    the replicas logically equivalent.
    """
    variant = VARIANTS[workload.variant]
    distinct = [replicas[0]] + [r for r in replicas[1:] if r is not replicas[0]]
    prefixes = [replica[:VALIDATE_PREFIX] for replica in distinct]
    for prefix in prefixes:
        validate_stream(prefix, enforce_key=workload.variant != "r4")
    measured = classify(measure_joint_properties(prefixes))
    if measured > variant.restriction:
        raise ValueError(
            f"{workload.name}: inputs measure as {measured.name}, beyond "
            f"{variant.algorithm}'s restriction {variant.restriction.name}"
        )


def unsharded_data_out(workload: Workload, steps: List[Step]) -> int:
    """Data elements the *unsharded* variant emits on these steps — what a
    sharded run of the same input must emit too (the partition is
    lossless, so chattiness may not depend on the shard count)."""
    merge = VARIANTS[workload.variant](**workload.merge_kwargs())
    for stream_id in range(REPLICAS):
        merge.attach(stream_id)
    for step in steps:
        for stream_id, elements in step:
            merge.process_batch(elements, stream_id, coalesce_stables=True)
    return merge.stats.inserts_out + merge.stats.adjusts_out


def load_or_build(workload: Workload, seed: int) -> Tuple[str, dict]:
    """The cache file for ``(workload, seed, config-hash)`` and its
    metadata (everything but the element lists), building it on a miss."""
    path = cache_path(workload, seed)
    meta_path = path + ".meta.json"
    if os.path.exists(path) and os.path.exists(meta_path):
        with open(meta_path) as fp:
            meta = json.load(fp)
        os.utime(path)
        return path, meta
    os.makedirs(CACHE_DIR, exist_ok=True)
    inputs = build_inputs(workload, seed)
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "wb") as fp:
        pickle.dump(inputs, fp, protocol=4)
    os.replace(temporary, path)
    meta = {
        key: value
        for key, value in inputs.items()
        if key not in ("steps", "reference")
    }
    with open(meta_path, "w") as fp:
        json.dump(meta, fp)
    _prune_cache()
    return path, meta


def _prune_cache() -> None:
    files = [
        os.path.join(CACHE_DIR, name)
        for name in os.listdir(CACHE_DIR)
        if name.endswith(".pkl")
    ]
    files.sort(key=os.path.getmtime, reverse=True)
    for stale in files[CACHE_KEEP:]:
        for path in (stale, stale + ".meta.json"):
            try:
                os.remove(path)
            except OSError:
                pass


def load_inputs(path: str) -> dict:
    """Read a cache file written by :func:`load_or_build` (and by nobody
    else: unpickling runs code, so only the harness's own files)."""
    with open(path, "rb") as fp:
        return pickle.load(fp)
