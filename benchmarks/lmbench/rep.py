"""One rep of one workload, run in a fresh child interpreter.

``run.py`` starts this file once per *(workload, rep)*: module-global
state in ``repro`` (``NODE_POOL``, the freelists) and CPython's adaptive
interpreter would make reps that share a process depend on each other.

A rep has three parts (see README.md, "Run shape"):

* **setup** — import ``repro``, build/start/attach the plan, warm up a
  throw-away plan on the first steps.  Reading the cached inputs is not
  part of it.
* **saturation phase** (closed loop) — replay the input as fast as the
  plan accepts it; whole passes, each on a fresh plan, until the phase's
  time is used.  Draining the plan (``close``) is inside the clock.
* **paced phase** (open loop) — the same steps on a fixed schedule; each
  CTI latency sample runs from the *due* time of the step that enabled
  it, and how late the pacer ran is recorded.

Every output is checked against the reference TDB outside the clock.  The
result goes to a JSON file; a rep that raises writes ``ok: false`` with
its reason instead of a traceback, so the parent can count it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Steps fed to the throw-away warm-up plan during setup.
WARMUP_STEPS = 200
#: Timed slices per saturation pass.
SLICES = 21
#: A paced phase that ends this far behind schedule has a growing backlog.
BACKLOG_LIMIT_S = 0.050
#: Waiting for a due time: in process the pacer busy-waits (an idle core's
#: wake-up and frequency ramp are the host's, not the program's, and one
#: spinning process leaves the second core free); with shard workers it
#: sleeps in slices of this length, collecting shard output between them,
#: so the workers keep their cores (every wake-up of the driver can
#: preempt a worker; a CTI is seen at most one slice late).
WAIT_SLICE_S = 0.001


def own_peak_rss_kib() -> int:
    """This process's resident high-water mark.

    ``VmHWM`` rather than ``getrusage``: Linux carries ``ru_maxrss`` across
    ``exec``, so a child starts at whatever its parent weighed when it
    forked — here ``run.py`` holding every workload's generated inputs.
    """
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def feed_batch(plan, step) -> None:
    for stream_id, elements in step:
        plan.process_batch(elements, stream_id, coalesce_stables=True)


def feed_each(plan, step) -> None:
    process = plan.process
    for stream_id, elements in step:
        for element in elements:
            process(element, stream_id)


def replay(plan, steps, feed, handicap_s: float = 0.0) -> None:
    """The closed loop: every step, back to back."""
    if handicap_s:
        for step in steps:
            feed(plan, step)
            time.sleep(handicap_s)
    else:
        for step in steps:
            feed(plan, step)


def check_output(output, inputs) -> str:
    """Why *output* is not TDB-equivalent to the reference ('' if it is)."""
    from workloads import canonical_tdb

    try:
        events, stable_point = canonical_tdb(output)
    except ValueError as exc:  # StreamViolationError: not even a valid stream
        return f"output violates the stream contract: {exc}"
    if stable_point != inputs["reference_stable"]:
        return (
            f"output stable point {stable_point} != reference "
            f"{inputs['reference_stable']}"
        )
    if events != inputs["reference"]:
        return "output TDB differs from the reference TDB"
    return ""


def saturation_phase(workload, plan, steps, feed, seconds, handicap_s):
    """Whole passes: as many as fit *seconds*, judged by the first.

    An in-process pass is timed in :data:`SLICES` equal runs of steps, so
    the parent can put a pass together from the slices no burst of host
    noise hit (see ``report.clean_pass``).  A sharded pass is one slice:
    its driver runs ahead of the workers, so how long a run of steps
    takes depends on the queue the earlier ones left, and only whole
    passes (drain included) are the same work.  Returns the per-pass slice
    times, the slices' element counts and the last pass's plan (for the
    oracle).
    """
    from workloads import step_elements

    count = 1 if workload.backend is not None else SLICES
    bounds = [len(steps) * k // count for k in range(count + 1)]
    slices = [steps[bounds[k] : bounds[k + 1]] for k in range(count)]
    sizes = [sum(step_elements(step) for step in chunk) for chunk in slices]
    passes = []
    planned = 1
    while True:
        times = []
        mark = perf_counter()
        for chunk in slices:
            replay(plan, chunk, feed, handicap_s)
            now = perf_counter()
            times.append(now - mark)
            mark = now
        workload.finish(plan)
        times[-1] += perf_counter() - mark
        passes.append(times)
        if len(passes) == 1:
            # Rounded, not "until the time is used": a pass that takes
            # about the phase's time would otherwise run once or twice
            # depending on the host's mood, and memory and run time with it.
            planned = max(1, round(seconds / sum(times)))
        if len(passes) >= planned:
            return passes, sizes, plan
        # Outside the clock: the finished plan's index is cyclic garbage
        # (tree nodes point at their parents); left to the collector's own
        # schedule it would make memory, and the odd slice, depend on when
        # a full collection happens to run.
        plan = None
        gc.collect()
        plan = workload.build_plan()


def paced_phase(workload, steps, feed, rate_eps, seconds, handicap_s):
    """Fast-forward to the paced window, then submit on schedule.

    Returns the plan plus CTI latency samples, pacer lags and the peak
    index size.
    """
    from pacing import (
        due_time,
        frontier_wait,
        paced_window,
        running_max_stable,
        step_interval,
    )
    from repro.temporal.elements import Stable
    from workloads import BATCH, step_max_stable

    plan = workload.build_plan()
    output = plan.output
    sharded = workload.backend is not None
    first = paced_window(len(steps), BATCH, rate_eps, seconds)
    interval = step_interval(BATCH, rate_eps)
    stable_so_far = running_max_stable(step_max_stable(step) for step in steps)

    peak_nodes = 0
    for step in steps[:first]:
        feed(plan, step)
        nodes = getattr(plan, "index_nodes", 0)
        if nodes > peak_nodes:
            peak_nodes = nodes
    if sharded:
        # The fast-forward left the rings full; the paced window must start
        # on drained queues or its first CTIs would time that backlog.
        while any(plan.queue_depths()):
            plan.process_batch((), 0)
            time.sleep(WAIT_SLICE_S)
        plan.process_batch((), 0)
    seen = len(output)

    latencies = []
    lags = []
    start = perf_counter() + interval

    def scan(now: float) -> None:
        nonlocal seen
        n = len(output)
        fresh = [output[i] for i in range(seen, n)]
        seen = n
        waited = frontier_wait(
            (e.vc for e in fresh if e.__class__ is Stable),
            stable_so_far, first, start, interval, now,
        )
        if waited is not None:
            latencies.append(waited)

    for index in range(first, len(steps)):
        due = due_time(start, index, first, interval)
        now = perf_counter()
        while now < due:
            if sharded:
                plan.process_batch((), 0)  # collect ready shard output
                scan(perf_counter())
                if due - perf_counter() > WAIT_SLICE_S:
                    time.sleep(WAIT_SLICE_S)
            now = perf_counter()
        lags.append(now - due)
        feed(plan, steps[index])
        if handicap_s:
            time.sleep(handicap_s)
        scan(perf_counter())
        nodes = getattr(plan, "index_nodes", 0)
        if nodes > peak_nodes:
            peak_nodes = nodes
    workload.finish(plan)
    scan(perf_counter())
    return plan, latencies, lags, peak_nodes


def run_rep(workload, inputs, args, import_s: float, progress: dict) -> dict:
    from pacing import summarize

    gc.freeze()  # the pre-built input lists are not the program's garbage
    steps = inputs["steps"]
    feed = feed_batch if workload.ingest == "batch" else feed_each
    handicap_s = args.handicap_ms / 1000.0

    progress["phase"] = "setup"
    started = perf_counter()
    plan = workload.build_plan()
    build_s = perf_counter() - started
    started = perf_counter()
    warm = workload.build_plan()
    replay(warm, steps[:WARMUP_STEPS], feed)
    workload.finish(warm)
    warmup_s = perf_counter() - started
    del warm

    progress["phase"] = "saturation phase"
    passes, slice_elements, sat_plan = saturation_phase(
        workload, plan, steps, feed, args.sat_seconds, handicap_s
    )
    stats = sat_plan.stats
    data_out = stats.inserts_out + stats.adjusts_out

    gc.collect()
    progress["phase"] = "paced phase"
    paced_plan, latencies, lags, peak_nodes = paced_phase(
        workload, steps, feed, args.rate, args.paced_seconds, handicap_s
    )

    # Memory is read before the oracle builds its TDBs: those are the
    # harness's, not the program's.
    usage_self = own_peak_rss_kib()
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # Outside every clock: the oracle.
    progress["phase"] = "oracle"
    started = perf_counter()
    reason = check_output(sat_plan.output, inputs) or check_output(
        paced_plan.output, inputs
    )
    oracle_s = perf_counter() - started
    expected = inputs["expected_data_out"]
    if not reason and expected is not None and data_out != expected:
        reason = f"sharded run emitted {data_out} data elements, unsharded {expected}"
    mismatch = bool(reason)
    final_lag = sorted(lags[-5:])[len(lags[-5:]) // 2]
    if not reason and final_lag > BACKLOG_LIMIT_S:
        reason = f"paced phase fell behind: final pacer lag {final_lag * 1e3:.1f} ms"
    if not reason and not latencies:
        reason = "paced phase produced no CTI latency sample"

    lat_p50 = summarize(latencies)[0] if latencies else 0.0
    lag_p50, lag_p95, _ = summarize(lags)
    return {
        "ok": not reason,
        "reason": reason,
        "mismatch": mismatch,
        "setup_s": import_s + build_s + warmup_s,
        "import_s": import_s,
        "build_s": build_s,
        "warmup_s": warmup_s,
        "slice_elements": slice_elements,
        "passes": passes,
        "cti_latency_p50_ms": lat_p50 * 1e3,
        "latencies_ms": [seconds * 1e3 for seconds in latencies],
        "pacer_lag_p50_ms": lag_p50 * 1e3,
        "pacer_lag_p95_ms": lag_p95 * 1e3,
        "pacer_lag_final_ms": final_lag * 1e3,
        "peak_index_nodes": peak_nodes,
        "peak_rss_mb": (usage_self + usage_children) / 1024.0,
        "data_out_per_event": data_out / inputs["distinct_events"],
        "oracle_s": oracle_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cache", help="input file written by workloads.load_or_build")
    parser.add_argument("out", help="where to write the rep's JSON result")
    parser.add_argument("--mode", choices=("rep", "traced"), default="rep")
    parser.add_argument("--sat-seconds", type=float, default=2.0)
    parser.add_argument("--paced-seconds", type=float, default=2.0)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--handicap-ms", type=float, default=0.0)
    parser.add_argument("--trace-dir", default=HERE)
    args = parser.parse_args(argv)

    progress = {"phase": "start-up"}
    try:
        sys.path.insert(0, SRC)
        started = perf_counter()
        import workloads  # pulls in repro: the import half of setup

        import_s = perf_counter() - started
        inputs = workloads.load_inputs(args.cache)
        workload = workloads.WORKLOADS[inputs["workload"]]
        if args.mode == "traced":
            import layers

            result = layers.run_traced(workload, inputs, args)
        else:
            result = run_rep(workload, inputs, args, import_s, progress)
    except Exception as exc:  # boundary: a failed rep is a counted outcome
        lines = str(exc).strip().splitlines()
        result = {
            "ok": False,
            "mismatch": False,
            "reason": (
                f"{progress['phase']}: {type(exc).__name__}: "
                f"{lines[-1] if lines else ''}"
            ),
            "traceback": traceback.format_exc(),
        }
    with open(args.out, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
