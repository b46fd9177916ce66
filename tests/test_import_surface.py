"""The package hubs' export surface, and what a merge process imports.

A hub (``repro``, ``repro.lmerge``, ...) resolves its exports on first
access, so two things are pinned here, each in a fresh interpreter:

* every name a hub exported when its imports were eager still resolves
  to its defining module's object, whether the hub or the submodule is
  imported first (a submodule named like an export would shadow it);
* the modules lmbench's import line loads are a frozen tuple; an
  unsharded plan never loads the process exchange; and running a built
  plan of each lmbench shape loads no further ``repro`` module, so no
  compile lands inside a timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

#: Hub -> defining module -> exported names: every hub's ``__all__`` as it
#: was when the hubs imported eagerly.  Adding an export adds it here.
EXPORTS = {
    "repro": {
        "repro": "__version__",
        "repro.engine.query": "Query",
        "repro.ha.checkpoint": "Checkpoint checkpoint_of replay_stream",
        "repro.ha.replica": "ReplicatedDeployment",
        "repro.lmerge.base": "MergeStats",
        "repro.lmerge.feedback": "FeedbackSignal",
        "repro.lmerge.policies": "OutputPolicy",
        "repro.lmerge.r0": "LMergeR0",
        "repro.lmerge.r1": "LMergeR1",
        "repro.lmerge.r2": "LMergeR2",
        "repro.lmerge.r3": "LMergeR3",
        "repro.lmerge.r3_naive": "LMergeR3Naive",
        "repro.lmerge.r4": "LMergeR4",
        "repro.lmerge.selector": "algorithm_for create_lmerge",
        "repro.obs.export": "RunReport prometheus_text",
        "repro.obs.lmerge_obs": "LMergeObserver",
        "repro.obs.registry": "MetricRegistry",
        "repro.obs.trace": "RingTracer",
        "repro.streams.divergence": "diverge",
        "repro.streams.generator": "GeneratorConfig StreamGenerator",
        "repro.streams.properties": (
            "Restriction StreamProperties classify measure_properties"
        ),
        "repro.streams.stream": "PhysicalStream",
        "repro.temporal.elements": "Adjust Insert Stable",
        "repro.temporal.event": "Event FreezeStatus",
        "repro.temporal.tdb": "TDB reconstitute",
        "repro.temporal.time": "INFINITY",
    },
    "repro.engine": {
        "repro.engine.operator": "CallbackSink CollectorSink Operator",
        "repro.engine.parallel": "ParallelRuntime ShardError merge_factory",
        "repro.engine.query": "Query infer_properties",
        "repro.engine.runtime": "QueuedEdge Runtime",
        "repro.engine.simulation": (
            "BurstyDelay CongestionWindows DelayModel FixedLag NoDelay "
            "SimulatedChannel SimulatedPlan Simulation"
        ),
    },
    "repro.ha": {
        "repro.ha.checkpoint": "Checkpoint checkpoint_of replay_stream",
        "repro.ha.hierarchy": "FragmentChain ReplicatedFragment",
        "repro.ha.replica": "FailureEvent ReplicatedDeployment",
        "repro.ha.switchover": "cutover",
    },
    "repro.lmerge": {
        "repro.lmerge.base": "LMergeBase MergeStats",
        "repro.lmerge.counting": "CountingMerge",
        "repro.lmerge.feedback": "FeedbackPolicy FeedbackSignal",
        "repro.lmerge.policies": "AdjustPropagation InsertPropagation OutputPolicy",
        "repro.lmerge.r0": "LMergeR0",
        "repro.lmerge.r1": "LMergeR1",
        "repro.lmerge.r2": "LMergeR2",
        "repro.lmerge.r3": "LMergeR3",
        "repro.lmerge.r3_naive": "LMergeR3Naive",
        "repro.lmerge.r4": "LMergeR4",
        "repro.lmerge.reclaim": "ReclamationPolicy",
        "repro.lmerge.selector": "algorithm_for create_lmerge",
        "repro.lmerge.sharded": "ShardedLMerge shard",
    },
    "repro.metrics": {
        "repro.metrics.collector": "AppTimeLatencyProbe ThroughputTimeline",
    },
    "repro.obs": {
        "repro.obs.export": "RunReport instrument_value prometheus_text write_jsonl",
        "repro.obs.http": "MetricsServer",
        "repro.obs.lmerge_obs": (
            "LMergeObserver ShardObserver count_feedback frontier_lag"
        ),
        "repro.obs.registry": "Counter Gauge Histogram MetricRegistry TimeSeries",
        "repro.obs.telemetry": (
            "FlightRecorder TelemetryAggregator TelemetryEmitter make_trace_id "
            "trace_seq trace_shard"
        ),
        "repro.obs.trace": "NULL_TRACER NullTracer RingTracer",
    },
    "repro.operators": {
        "repro.operators.aggregate": "AggregateMode GroupedCount TopK WindowedCount",
        "repro.operators.alter_lifetime": "AlterLifetime",
        "repro.operators.cleanse": "Cleanse",
        "repro.operators.exchange": "ShardUnion partition_batch",
        "repro.operators.join": "TemporalJoin",
        "repro.operators.sample": "Sample",
        "repro.operators.select": "Filter MapPayload",
        "repro.operators.source": "StreamSource",
        "repro.operators.udf": "UdfFilter ValueBandCost",
        "repro.operators.union": "Union",
    },
    "repro.resilience": {
        "repro.resilience.faults": "FaultPlan KILL_EXIT_CODE",
        "repro.resilience.snapshot": "SNAPSHOT_KEY load_snapshot save_snapshot",
        "repro.resilience.store": "CorruptStateError StateStore StateStoreError",
        "repro.resilience.supervisor": "RecoveryRecord SupervisedRuntime",
    },
    "repro.streams": {
        "repro.streams.analyze": "DisorderStats measure_disorder",
        "repro.streams.divergence": (
            "diverge inject_gap reorder_within_stability speculate thin_stables"
        ),
        "repro.streams.generator": "GeneratorConfig StreamGenerator",
        "repro.streams.properties": (
            "Restriction StreamProperties classify measure_properties"
        ),
        "repro.streams.punctuation": "WatermarkTracker strip_stables with_heartbeats",
        "repro.streams.stream": "PhysicalStream",
    },
    "repro.structures": {
        "repro.structures.in2t": "In2T In2TNode OUTPUT",
        "repro.structures.in3t": "In3T In3TNode",
        "repro.structures.rbtree": "RedBlackTree",
        "repro.structures.sizing": (
            "HASH_ENTRY_OVERHEAD TREE_NODE_OVERHEAD payload_bytes"
        ),
    },
    "repro.temporal": {
        "repro.temporal.dialects": "elements_to_open_close open_close_to_elements",
        "repro.temporal.elements": (
            "Adjust Close Element Insert Open Stable element_sort_key"
        ),
        "repro.temporal.event": "Event FreezeStatus freeze_status",
        "repro.temporal.tdb": "TDB reconstitute reconstitute_prefix",
        "repro.temporal.time": (
            "INFINITY MINUS_INFINITY Timestamp is_finite validate_timestamp"
        ),
    },
    "repro.theory": {
        "repro.theory.compatibility": (
            "CompatibilityViolation check_r3_compatibility check_r4_conformance "
            "is_r3_compatible"
        ),
        "repro.theory.equivalence": (
            "equivalent_prefixes open_close_compatible prefix_equivalent_open_close"
        ),
    },
}

#: Reads ``[exports, submodules_first]`` on stdin; prints every mismatch
#: between a hub's names and its defining modules' objects as JSON.
RESOLVE = """
import importlib, json, pkgutil, sys, types
exports, submodules_first = json.load(sys.stdin)
if submodules_first:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
problems = []
for hub_name, origins in exports.items():
    hub = importlib.import_module(hub_name)
    names = [name for listed in origins.values() for name in listed.split()]
    for module_name, listed in origins.items():
        for name in listed.split():
            value = getattr(hub, name)
            if isinstance(value, types.ModuleType):
                problems.append(f"{hub_name}.{name} is module {value.__name__}")
            elif value is not getattr(importlib.import_module(module_name), name):
                problems.append(f"{hub_name}.{name} is not {module_name}.{name}")
    if sorted(hub.__all__) != sorted(names):
        problems.append(f"{hub_name}.__all__ == {sorted(hub.__all__)}")
    missing = set(names) - set(dir(hub))
    if missing:
        problems.append(f"dir({hub_name}) lacks {sorted(missing)}")
    starred = {}
    exec(f"from {hub_name} import *", starred)
    for name in names:
        if starred.get(name) is not getattr(hub, name):
            problems.append(f"from {hub_name} import * binds {name} wrongly")
print(json.dumps(problems))
"""


def run_python(code: str, stdin: str = "") -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def resolve_problems(exports: dict, submodules_first: bool) -> list:
    return json.loads(run_python(RESOLVE, json.dumps([exports, submodules_first])))


@pytest.mark.parametrize("hub", sorted(EXPORTS))
def test_hub_first_resolves_to_defining_objects(hub):
    # A fresh interpreter per hub: the hub is imported before any of the
    # modules that define its names.
    assert resolve_problems({hub: EXPORTS[hub]}, submodules_first=False) == []


def test_submodules_first_resolve_to_defining_objects():
    # Every module of the package is imported before any hub name is read:
    # a submodule that shares an export's name would now be what the hub
    # hands out.
    assert resolve_problems(EXPORTS, submodules_first=True) == []


#: The ``repro`` import lines of benchmarks/lmbench/workloads.py.
LMBENCH_IMPORTS = """
from repro.lmerge import LMergeR1, LMergeR3, LMergeR4, ReclamationPolicy, shard
from repro.lmerge.base import interleave_batches
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.properties import classify, measure_joint_properties
from repro.temporal.elements import Adjust, Element, Insert, Stable
from repro.temporal.tdb import reconstitute
from repro.temporal.time import INFINITY
from repro.temporal.validate import validate_stream
"""

#: What those lines load.  A new eager import shows up here in review.
LMBENCH_MODULES = (
    "repro",
    "repro._lazy",
    "repro.lmerge",
    "repro.lmerge.base",
    "repro.lmerge.policies",
    "repro.lmerge.r1",
    "repro.lmerge.r3",
    "repro.lmerge.r4",
    "repro.lmerge.reclaim",
    "repro.lmerge.sharded",
    "repro.obs",
    "repro.obs.trace",
    "repro.streams",
    "repro.streams.divergence",
    "repro.streams.generator",
    "repro.streams.properties",
    "repro.streams.stream",
    "repro.structures",
    "repro.structures.frontier",
    "repro.structures.in2t",
    "repro.structures.in3t",
    "repro.structures.rbtree",
    "repro.structures.sizing",
    "repro.structures.sortedkeys",
    "repro.temporal",
    "repro.temporal.elements",
    "repro.temporal.event",
    "repro.temporal.tdb",
    "repro.temporal.time",
    "repro.temporal.validate",
)

#: What only a sharded plan may load: the process exchange and the stdlib
#: trees behind its worker backends.
EXCHANGE_PREFIXES = (
    "repro.engine",
    "repro.operators",
    "multiprocessing",
    "concurrent.futures",
)

LOADED = "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))"

#: One small plan of each lmbench shape, fed and drained the way
#: benchmarks/lmbench/rep.py does, after the import line above.  The
#: first three shapes are unsharded.  ``loaded_while_running`` collects
#: the modules a plan loads after it is built: a sharded plan loads the
#: exchange while it is built, which lmbench counts as set-up.
RUN_SHAPES = f"""
base = StreamGenerator(GeneratorConfig(count=400, seed=5)).generate()
ordered = StreamGenerator(
    GeneratorConfig(count=400, seed=5, min_gap=1, disorder=0.0)
).generate_ordered()
disordered = [list(diverge(base, seed=i, speculate_fraction=0.2)) for i in range(3)]
for replica in disordered:
    validate_stream(replica)
classify(measure_joint_properties(disordered))
shapes = [
    (lambda: LMergeR1(), [list(ordered)] * 3, "batch"),
    (lambda: LMergeR3(), disordered, "batch"),
    (lambda: LMergeR4(reclamation=ReclamationPolicy()), disordered, "element"),
    (
        lambda: shard(LMergeR3, 2, backend="serial", coalesce_stables=True),
        disordered,
        "batch",
    ),
    (
        lambda: shard(LMergeR3, 2, backend="process", coalesce_stables=True),
        disordered,
        "batch",
    ),
][:SHAPES]
loaded_while_running = []
for build, replicas, ingest in shapes:
    plan = build()
    built = set({LOADED})
    for stream_id in range(3):
        plan.attach(stream_id)
    for chunk, stream_id in interleave_batches(replicas, "round_robin", 0, 64):
        if ingest == "batch":
            plan.process_batch(chunk, stream_id, coalesce_stables=True)
        else:
            for element in chunk:
                plan.process(element, stream_id)
    if hasattr(plan, "close"):
        plan.queue_depths()
        plan.close()
    assert plan.stats.inserts_out + plan.stats.adjusts_out > 0
    assert reconstitute(plan.output) == reconstitute(replicas[0]), plan
    loaded_while_running += sorted(set({LOADED}) - built)
"""


def test_import_repro_loads_only_the_hub():
    code = f"import sys, json, repro\nprint(json.dumps({LOADED}))"
    loaded = json.loads(run_python(code))
    assert len(loaded) <= 3, loaded


def test_lmbench_import_line_loads_the_frozen_modules():
    code = f"import sys, json\n{LMBENCH_IMPORTS}\nprint(json.dumps({LOADED}))"
    loaded = tuple(json.loads(run_python(code)))
    assert len(LMBENCH_MODULES) <= 30
    assert loaded == LMBENCH_MODULES


def test_unsharded_shapes_load_no_process_exchange():
    code = (
        f"import sys, json\n{LMBENCH_IMPORTS}\nSHAPES = 3\n{RUN_SHAPES}\n"
        f"print(json.dumps(sorted(m for m in sys.modules "
        f"if m.startswith({EXCHANGE_PREFIXES!r}))))"
    )
    assert json.loads(run_python(code)) == []


def test_running_each_lmbench_shape_loads_no_further_module():
    code = (
        f"import sys, json\n{LMBENCH_IMPORTS}\nSHAPES = 5\n{RUN_SHAPES}\n"
        "print(json.dumps(loaded_while_running))"
    )
    assert json.loads(run_python(code)) == []
