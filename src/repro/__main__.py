"""Command-line interface: ``python -m repro <command>``.

Commands operate on JSON-lines stream files (see
:mod:`repro.streams.io`):

* ``generate`` — produce a synthetic workload (Section VI-B knobs);
* ``diverge`` — derive a physically divergent, logically equivalent copy;
* ``merge`` — LMerge several stream files into one (algorithm selected
  from measured properties, or forced with ``--algorithm``); with
  ``--metrics-out``/``--trace-out``/``--prom-out`` the run is
  instrumented through :mod:`repro.obs` and leaves a
  :class:`~repro.obs.export.RunReport` / trace JSONL / Prometheus text
  behind;
* ``report`` — render a saved RunReport JSON as a human-readable table;
* ``top`` — scrape a live ``--serve-metrics`` endpoint and render the
  per-shard telemetry as a refreshing terminal table
  (:mod:`repro.obs.top`);
* ``validate`` — check the element contract (and optionally the key
  property) of a stream file;
* ``inspect`` — summarize a stream file (counts, properties, TDB size);
* ``analysis`` — static analysis: repo lint, plan soundness checking,
  lint rule catalog (delegates to :mod:`repro.analysis.cli`);
* ``chaos`` — run the seeded fault-injection matrix (supervised shard
  workers under kills/stalls/drops/duplicates/delays) and check every
  cell for TDB equivalence and no loss/duplication
  (:mod:`repro.resilience.chaos`).

``merge --checked`` validates every input against the selected
algorithm's assumed properties (:mod:`repro.analysis.checked`) before
merging.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.engine.operator import Operator
from repro.engine.runtime import Runtime
from repro.lmerge.base import interleave
from repro.lmerge.selector import algorithm_for, create_lmerge
from repro.obs.export import RunReport, prometheus_text
from repro.obs.lmerge_obs import LMergeObserver
from repro.obs.registry import MetricRegistry
from repro.obs.trace import NULL_TRACER, RingTracer
from repro.streams.divergence import diverge
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.io import read_stream, save_stream
from repro.streams.properties import Restriction, classify, measure_properties
from repro.temporal.validate import validate_stream
from repro.temporal.tdb import StreamViolationError


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        count=args.count,
        seed=args.seed,
        disorder=args.disorder,
        stable_freq=args.stable_freq,
        event_duration=args.event_duration,
        max_gap=args.max_gap,
        payload_blob_bytes=args.payload_bytes,
    )
    generator = StreamGenerator(config)
    stream = generator.generate()
    written = save_stream(stream, args.output)
    print(
        f"wrote {written} elements to {args.output} "
        f"({generator.stats.inserts} inserts, "
        f"{generator.stats.stables} stables, "
        f"{generator.stats.achieved_disorder:.0%} disordered)"
    )
    return 0


def _cmd_diverge(args: argparse.Namespace) -> int:
    stream = read_stream(args.input)
    divergent = diverge(
        stream,
        seed=args.seed,
        speculate_fraction=args.speculate,
        stable_keep_probability=args.stable_keep,
    )
    written = save_stream(divergent, args.output)
    print(f"wrote {written} elements to {args.output}")
    return 0


class _MergeInput(Operator):
    """Presents one LMerge input port as an operator, so the instrumented
    CLI run can stand behind queued edges (real queue-depth dynamics)."""

    kind = "lmerge-input"

    def __init__(self, merge, stream_id: int):
        super().__init__(f"{merge.name}[{stream_id}]")
        self.merge = merge
        self.stream_id = stream_id
        adapters = getattr(merge, "input_adapters", None)
        if adapters is not None:
            adapters.append(self)

    def receive(self, element, port: int = 0) -> None:
        self.elements_in += 1
        self.merge.process(element, self.stream_id)

    def receive_batch(self, elements, port: int = 0) -> None:
        self.elements_in += len(elements)
        self.merge.process_batch(elements, self.stream_id)


def _print_stats(merge) -> None:
    stats = merge.stats
    per_input = ""
    input_ids = getattr(merge, "input_ids", ())
    if input_ids:
        per_input = f" from {len(input_ids)} inputs"
    print(
        f"stats: in {stats.elements_in}{per_input} "
        f"(inserts {stats.inserts_in}, adjusts {stats.adjusts_in}, "
        f"stables {stats.stables_in})"
    )
    print(
        f"       out {stats.elements_out} "
        f"(inserts {stats.inserts_out}, adjusts {stats.adjusts_out}, "
        f"stables {stats.stables_out}); chattiness {stats.chattiness}"
    )
    if stats.inserts_in:
        dropped = max(0, stats.inserts_in - stats.inserts_out)
        print(
            f"       duplicates dropped {dropped} "
            f"({dropped / stats.inserts_in:.1%} of input inserts)"
        )


def _instrumented_merge(args: argparse.Namespace, merge, inputs) -> None:
    """Drive the merge through queued edges with repro.obs attached,
    leaving the requested report/trace/Prometheus artifacts behind."""
    total = sum(len(stream) for stream in inputs)
    registry = MetricRegistry()
    server = None
    if args.serve_metrics is not None:
        from repro.obs.http import MetricsServer

        server = MetricsServer(registry, port=args.serve_metrics).start()
        print(f"serving metrics at {server.url}/metrics (repro top "
              f"{server.host}:{server.port})")
    tracer = (
        RingTracer(capacity=args.trace_capacity)
        if args.trace_out
        else NULL_TRACER
    )
    merge.set_tracer(tracer)
    observer = LMergeObserver(
        merge, registry, bucket=max(1.0, total / 64)
    )
    runtime = Runtime(batch=64, tracer=tracer, registry=registry)
    edges = [
        runtime.edge_to(_MergeInput(merge, stream_id).set_tracer(tracer))
        for stream_id in range(len(inputs))
    ]
    for stream_id in range(len(inputs)):
        merge.attach(stream_id)

    sample_every = max(1, total // 128)
    processed = 0
    start = time.perf_counter()
    for element, stream_id in interleave(list(inputs), args.schedule, args.seed):
        edges[stream_id].receive(element)
        processed += 1
        if processed % 64 == 0:
            runtime.pump()
        if processed % sample_every == 0:
            observer.sample(clock=processed)
    runtime.run()
    observer.sample(clock=processed)
    elapsed = time.perf_counter() - start

    report = RunReport.build(
        merge=merge,
        registry=registry,
        observer=observer,
        runtime=runtime,
        tracer=tracer,
        wall_seconds=elapsed,
        inputs=list(args.inputs),
    )
    if args.metrics_out:
        report.save(args.metrics_out)
        print(f"run report -> {args.metrics_out}")
    if args.trace_out:
        with open(args.trace_out, "w") as fp:
            lines = tracer.export_jsonl(fp)
        print(
            f"trace -> {args.trace_out} ({lines} events, "
            f"{tracer.dropped} dropped)"
        )
    if args.prom_out:
        with open(args.prom_out, "w") as fp:
            fp.write(prometheus_text(registry))
        print(f"prometheus metrics -> {args.prom_out}")
    if server is not None:
        if args.serve_hold > 0:
            print(f"holding /metrics open {args.serve_hold:.0f}s for "
                  f"final scrapes (ctrl-c to stop early)")
            try:
                time.sleep(args.serve_hold)
            except KeyboardInterrupt:
                pass
        server.stop()


def _checked_inputs(merge, inputs) -> int:
    """Validate that every input upholds the guarantees *merge* assumes
    (``repro merge --checked``); returns 0 when clean, 1 on violation."""
    from repro.analysis.checked import MergeCheck, PropertyViolationError
    from repro.lmerge.selector import restriction_of

    restriction = restriction_of(merge)
    check = MergeCheck.for_restriction(
        restriction, len(inputs), name="merge-check"
    )
    try:
        for stream_id, stream in enumerate(inputs):
            check.wrap(stream_id, stream)
    except PropertyViolationError as exc:
        print(f"CHECK FAILED for {merge.algorithm}: {exc}")
        return 1
    observed = check.observed_restriction()
    print(
        f"checked: inputs uphold {merge.algorithm}'s {restriction.name} "
        f"assumptions (observed {observed.name})"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    inputs = [read_stream(path) for path in args.inputs]
    if args.algorithm:
        merge = create_lmerge(Restriction[args.algorithm.upper()])
    else:
        properties = [measure_properties(stream) for stream in inputs]
        merge = create_lmerge(properties)
    if args.checked and _checked_inputs(merge, inputs):
        return 1
    instrumented = (
        args.metrics_out or args.trace_out or args.prom_out
        or args.serve_metrics is not None
    )
    if instrumented:
        _instrumented_merge(args, merge, inputs)
        output = merge.output
    else:
        output = merge.merge(inputs, schedule=args.schedule, seed=args.seed)
    written = save_stream(output, args.output)
    print(
        f"{merge.algorithm}: merged {merge.stats.elements_in} elements "
        f"from {len(inputs)} inputs into {written} "
        f"({merge.stats.adjusts_out} adjusts) -> {args.output}"
    )
    if args.stats:
        _print_stats(merge)
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as analysis_main

    return analysis_main(args.rest)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.chaos import FAULT_KINDS, VARIANTS, run_fault_matrix

    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    faults = [f.strip() for f in args.faults.split(",") if f.strip()]
    for variant in variants:
        if variant not in VARIANTS:
            print(f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
            return 2
    for fault in faults:
        if fault not in FAULT_KINDS:
            print(f"unknown fault {fault!r}; choose from {sorted(FAULT_KINDS)}")
            return 2
    started = time.perf_counter()
    report = run_fault_matrix(
        args.seed,
        variants=variants,
        fault_kinds=faults,
        num_shards=args.shards,
        count=args.count,
        batch_size=args.batch_size,
    )
    report["wall_seconds"] = round(time.perf_counter() - started, 3)
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
        print(f"chaos report -> {args.out}")
    for cell in report["cells"]:
        verdict = "ok" if cell["ok"] else "FAILED"
        print(
            f"  {cell['variant']:>3} x {cell['fault']:<9} seed "
            f"{cell['seed']}: {verdict} (restarts {cell['restarts']}, "
            f"replayed {cell['replayed_elements']})"
        )
    status = "equivalent" if report["all_ok"] else "NOT EQUIVALENT"
    print(
        f"chaos matrix: {len(report['cells'])} cells, "
        f"{report['total_restarts']} restarts, {status}"
    )
    return 0 if report["all_ok"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.load(args.report)
    print(report.render())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import top

    return top(
        args.url, interval=args.interval, iterations=args.iterations
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    stream = read_stream(args.input)
    try:
        checker = validate_stream(stream, enforce_key=args.keyed)
    except StreamViolationError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(
        f"valid: {checker.elements_checked} elements, stable point "
        f"{checker.stable_point}, {checker.stable_regressions} stable "
        f"regressions, {checker.live_keys} keys still live"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    stream = read_stream(args.input)
    properties = measure_properties(stream)
    print(f"{args.input}: {len(stream)} elements")
    print(
        f"  inserts {stream.count_inserts()}, adjusts "
        f"{stream.count_adjusts()}, stables {stream.count_stables()}"
    )
    print(f"  measured properties: {properties}")
    print(f"  restriction class: {classify(properties).name} "
          f"(algorithm {algorithm_for(properties).algorithm})")
    try:
        tdb = stream.tdb()
    except StreamViolationError as exc:
        print(f"  TDB: INVALID STREAM ({exc})")
        return 1
    print(f"  TDB: {len(tdb)} events, stable point {tdb.stable_point}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Physically independent stream merging (LMerge) tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a workload")
    generate.add_argument("output")
    generate.add_argument("--count", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--disorder", type=float, default=0.2)
    generate.add_argument("--stable-freq", type=float, default=0.01)
    generate.add_argument("--event-duration", type=int, default=1_000)
    generate.add_argument("--max-gap", type=int, default=20)
    generate.add_argument("--payload-bytes", type=int, default=100)
    generate.set_defaults(func=_cmd_generate)

    divergent = commands.add_parser(
        "diverge", help="derive an equivalent physical variant"
    )
    divergent.add_argument("input")
    divergent.add_argument("output")
    divergent.add_argument("--seed", type=int, default=1)
    divergent.add_argument("--speculate", type=float, default=0.3)
    divergent.add_argument("--stable-keep", type=float, default=1.0)
    divergent.set_defaults(func=_cmd_diverge)

    merge = commands.add_parser("merge", help="LMerge stream files")
    merge.add_argument("inputs", nargs="+")
    merge.add_argument("--output", "-o", required=True)
    merge.add_argument(
        "--algorithm",
        choices=["r0", "r1", "r2", "r3", "r4"],
        help="force an algorithm (default: select from measured properties)",
    )
    merge.add_argument(
        "--schedule",
        choices=["round_robin", "sequential", "random"],
        default="round_robin",
    )
    merge.add_argument("--seed", type=int, default=0)
    merge.add_argument(
        "--checked",
        action="store_true",
        help="validate each input against the selected algorithm's "
        "assumed properties before merging (fails fast on violation)",
    )
    merge.add_argument(
        "--stats",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="print a MergeStats summary on completion (default on)",
    )
    merge.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="instrument the run and write a RunReport JSON here",
    )
    merge.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record pipeline trace events and write JSONL here",
    )
    merge.add_argument(
        "--prom-out",
        metavar="PATH",
        help="write the metric registry in Prometheus text format here",
    )
    merge.add_argument(
        "--trace-capacity",
        type=int,
        default=65536,
        help="trace ring-buffer capacity (oldest events drop beyond it)",
    )
    merge.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        help="serve live /metrics + /health on this port during the run "
        "(scrape with `repro top 127.0.0.1:PORT`)",
    )
    merge.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the /metrics endpoint up this long after the merge "
        "finishes (default 0: stop immediately)",
    )
    merge.set_defaults(func=_cmd_merge)

    report = commands.add_parser(
        "report", help="render a RunReport JSON as a table"
    )
    report.add_argument("report", help="path to a --metrics-out JSON file")
    report.set_defaults(func=_cmd_report)

    top = commands.add_parser(
        "top", help="live terminal view of a --serve-metrics endpoint"
    )
    top.add_argument(
        "url",
        nargs="?",
        default="127.0.0.1:9464",
        help="metrics endpoint (host:port or full URL; default "
        "127.0.0.1:9464)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="refresh seconds"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="render this many frames then exit (0: until interrupted)",
    )
    top.set_defaults(func=_cmd_top)

    validate = commands.add_parser("validate", help="check stream contract")
    validate.add_argument("input")
    validate.add_argument(
        "--keyed", action="store_true",
        help="also enforce the (Vs, payload) key property",
    )
    validate.set_defaults(func=_cmd_validate)

    inspect = commands.add_parser("inspect", help="summarize a stream file")
    inspect.add_argument("input")
    inspect.set_defaults(func=_cmd_inspect)

    analysis = commands.add_parser(
        "analysis",
        help="static analysis: lint / check-plan / rules "
        "(see `repro analysis --help`)",
        add_help=False,
    )
    analysis.add_argument("rest", nargs=argparse.REMAINDER)
    analysis.set_defaults(func=_cmd_analysis)

    chaos = commands.add_parser(
        "chaos",
        help="seeded fault-injection matrix over supervised shard workers",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--variants",
        default="r1,r3",
        help="comma-separated LMerge variants (r1,r3,r4)",
    )
    chaos.add_argument(
        "--faults",
        default="kill,stall,drop,duplicate,delay",
        help="comma-separated fault kinds to inject",
    )
    chaos.add_argument("--shards", type=int, default=2)
    chaos.add_argument("--count", type=int, default=160)
    chaos.add_argument("--batch-size", type=int, default=16)
    chaos.add_argument(
        "--out", metavar="PATH", help="write the JSON recovery report here"
    )
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
