"""Turning rep results into named metrics, tables and verdicts.

Pure data handling (no ``repro`` import, no clock): aggregation of the
reps of one workload into the end-to-end and per-layer metric sets that
``BENCHMARK.json`` names, the printed tables, the environment block, and
the ``compare`` / ``calibrate`` verdicts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from pacing import iqr_share, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
CONFIG_JSON = os.path.join(HERE, "config.json")

#: Every end-to-end metric has a per-rep value under the same name.
END_TO_END_FIELDS = (
    "throughput_eps",
    "cti_latency_p50_ms",
    "peak_rss_mb",
    "data_out_per_event",
    "setup_s",
)


def load_contract() -> dict:
    with open(BENCHMARK_JSON) as fp:
        return json.load(fp)


def load_config() -> dict:
    with open(CONFIG_JSON) as fp:
        return json.load(fp)


def median_of(reps: List[dict], field: str) -> float:
    return statistics.median(rep[field] for rep in reps)


def clean_pass(passes: List[List[float]]) -> List[float]:
    """One saturation pass put together from the fastest observation of
    each slice.

    Host noise on a shared 2-core VM only ever *adds* time, in bursts
    shorter than a pass: whole-pass times of one rep spread 13 % (IQR)
    where the clean pass spreads 4 %.  Every pass replays the same steps,
    so slice *k* of one pass is the same work as slice *k* of another.
    """
    return [min(column) for column in zip(*passes)]


def rep_throughput(rep: dict) -> float:
    """One rep's own clean-pass throughput (spread and noise floor)."""
    return sum(rep["slice_elements"]) / sum(clean_pass(rep["passes"]))


def end_to_end(good_reps: List[dict]) -> Dict[str, float]:
    """The gated metrics over the reps that completed.

    Throughput and CTI latency are *clean-window* values — the clean pass
    over every pass of every rep, and the quietest rep's median latency —
    because the host's noise is one-sided; set-up time, memory and output
    size are medians over reps.
    """
    passes = [times for rep in good_reps for times in rep["passes"]]
    values = {
        "throughput_eps": sum(good_reps[0]["slice_elements"]) / sum(clean_pass(passes)),
        "cti_latency_p50_ms": min(r["cti_latency_p50_ms"] for r in good_reps),
    }
    for field in ("peak_rss_mb", "data_out_per_event", "setup_s"):
        values[field] = median_of(good_reps, field)
    return values


def leave_one_out_spread(good_reps: List[dict]) -> Dict[str, float]:
    """How far each end-to-end value moves when any one rep is left out,
    as a share of the value: the spread ``compare`` weighs a difference
    against.  (The rep-to-rep spread would be the wrong yardstick: the
    clean-window estimators exist precisely because single reps are far
    noisier than what is reported.)"""
    if len(good_reps) < 3:
        return {}
    full = end_to_end(good_reps)
    partial = [
        end_to_end(good_reps[:i] + good_reps[i + 1 :]) for i in range(len(good_reps))
    ]
    return {
        field: (max(p[field] for p in partial) - min(p[field] for p in partial))
        / full[field]
        for field in END_TO_END_FIELDS
        if full[field]
    }


def per_layer(
    good_reps: List[dict], all_reps: List[dict], meta: dict, traced: Optional[dict]
) -> Dict[str, float]:
    """The per-layer set: the traced child's cells plus what only the
    untraced reps and the input build can tell."""
    metrics: Dict[str, float] = dict(traced["metrics"]) if traced else {}
    streams = meta["streams"]
    for name in ("generate_s", "elements", "adjust_share", "stable_share", "disorder_achieved"):
        metrics[f"streams.{name}"] = float(streams[name])
    failed = sum(1 for rep in all_reps if not rep.get("ok"))
    metrics["driver.error_rate"] = failed / len(all_reps) if all_reps else 0.0
    if good_reps:
        metrics["temporal.oracle_s"] = median_of(good_reps, "oracle_s")
        metrics["lmerge.peak_index_nodes"] = median_of(good_reps, "peak_index_nodes")
        pooled = [ms for rep in good_reps for ms in rep["latencies_ms"]]
        if pooled:
            _, metrics["driver.cti_latency_p95_ms"], _ = summarize(pooled)
        metrics["driver.cti_samples"] = float(len(pooled))
        metrics["driver.pacer_lag_p50_ms"] = median_of(good_reps, "pacer_lag_p50_ms")
        metrics["driver.pacer_lag_p95_ms"] = median_of(good_reps, "pacer_lag_p95_ms")
        # Steady state = the last third of the clean pass (a pass starts on
        # an empty index); a one-slice (sharded) pass has no thirds.
        passes = [times for rep in good_reps for times in rep["passes"]]
        sizes = good_reps[0]["slice_elements"]
        third = len(sizes) * 2 // 3
        metrics["driver.tail_throughput_eps"] = sum(sizes[third:]) / sum(
            clean_pass(passes)[third:]
        )
        metrics["driver.noise_floor_pct"] = 100.0 * iqr_share(
            [rep["throughput_eps"] for rep in good_reps]
        )
    return metrics


def contract_metrics(values: Dict[str, float], declared: List[dict]) -> dict:
    """Exactly the declared metrics, each ``{"value", "unit"}``; a metric
    the run could not measure reads 0."""
    return {
        spec["name"]: {
            "value": float(values.get(spec["name"], 0.0)),
            "unit": spec["unit"],
        }
        for spec in declared
    }


def print_table(title: str, values: Dict[str, float], declared: List[dict]) -> None:
    print(f"\n{title}")
    for spec in declared:
        value = values.get(spec["name"])
        shown = "        n/a" if value is None else f"{value:>14,.4f}"
        print(f"  {spec['name']:<38} {shown} {spec['unit']}")


def environment() -> dict:
    """Where the numbers come from; ``noisy`` is set by the caller once
    the load averages before and after are known."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "python_build": " ".join(platform.python_build()),
        "platform": platform.platform(),
        "repro_git_sha": sha,
    }


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


# ----------------------------------------------------------------------
# compare / calibrate
# ----------------------------------------------------------------------


def _worse_by(spec: dict, base: float, other: float) -> float:
    """How much worse *other* is than *base*, as a share of *base*
    (negative = better), in the metric's own direction."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if spec["better"] == "lower" else -change


def compare_results(a: dict, b: dict, declared: List[dict]) -> List[dict]:
    """One row per (workload, end-to-end metric): ``better`` / ``worse`` /
    ``same``, or ``unresolved`` when either side's leave-one-out spread is
    wider than the metric's bound (the guide's rule: not "unchanged")."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for spec in declared:
            name = spec["name"]
            base = wa["end_to_end"].get(name)
            other = wb["end_to_end"].get(name)
            spread = max(wa["spread"].get(name, 0.0), wb["spread"].get(name, 0.0))
            measured = base is not None and other is not None
            worse = _worse_by(spec, base, other) if measured else 0.0
            if wb["failed"] > wa["failed"] or (base is not None and other is None):
                verdict = "worse"
            elif not measured:
                verdict = "unresolved"
            elif abs(worse) <= spec["bound"]:
                verdict = "same"
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > 0 else "better"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": base,
                    "b": other,
                    "worse_by": worse,
                    "spread": spread,
                    "bound": spec["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def print_comparison(rows: List[dict]) -> None:
    print(
        f"{'workload':<22} {'metric':<22} {'A':>14} {'B':>14} "
        f"{'B worse by':>11} {'spread':>8} {'bound':>7}  verdict"
    )
    for row in rows:
        a, b = (
            f"{value:>14,.4f}" if value is not None else f"{'n/a':>14}"
            for value in (row["a"], row["b"])
        )
        print(
            f"{row['workload']:<22} {row['metric']:<22} {a} {b} "
            f"{row['worse_by']:>+10.1%} {row['spread']:>8.1%} "
            f"{row['bound']:>7.0%}  {row['verdict']}"
        )


def calibration(a: dict, b: dict, declared: List[dict]) -> Dict[str, dict]:
    """Per workload and metric: how far two runs of the same code
    disagreed, next to the bound that disagreement must stay within."""
    table: Dict[str, dict] = {}
    for row in compare_results(a, b, declared):
        table.setdefault(row["workload"], {})[row["metric"]] = {
            "bound": row["bound"],
            "disagreement": abs(row["worse_by"]),
            "within_bound": abs(row["worse_by"]) <= row["bound"],
        }
    return table
