#!/usr/bin/env python3
"""lmbench: one harness for the LMerge pipeline's end-to-end and per-layer
numbers.

Driver mode (the ``BENCHMARK.json`` contract; one workload per call)::

    python3 benchmarks/lmbench/run.py --workload disorder_r3_batch \\
        --seed 7 --seconds 12 --trace 0

prints the metrics by name and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Suite mode (all four workloads, reps interleaved round-robin)::

    python3 benchmarks/lmbench/run.py --seed 7            # end to end
    python3 benchmarks/lmbench/run.py --seed 7 --traced   # + per layer
    python3 benchmarks/lmbench/run.py calibrate
    python3 benchmarks/lmbench/run.py compare A.json B.json

See README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REP = os.path.join(HERE, "rep.py")
SHM_DIR = "/dev/shm"

#: A rep is killed after this many times its planned measuring time plus a
#: fixed allowance for loading, fast-forwarding and the oracle.
REP_TIMEOUT_FACTOR = 4.0
REP_TIMEOUT_FLOOR_S = 25.0
TRACED_TIMEOUT_S = 80.0


def fail(message: str) -> None:
    print(f"lmbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    fail(f"no program to measure: {os.path.join(SRC, 'repro')} is missing")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import report  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# One child per rep
# ----------------------------------------------------------------------


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


#: A rep's measured time is split between its two phases: the paced phase
#: gets more, because CTIs are rarer than elements.
SATURATION_SHARE = 0.4


def run_child(cache: str, tag: str, mode: str, rate: float, rep_s: float,
              handicap_ms: float, timeout_s: float) -> dict:
    """Run one rep (or the traced pass) in a fresh interpreter with a hard
    timeout; whatever happens comes back as a result dict, never as an
    exception, and nothing the child started outlives this call."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{tag}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [
        sys.executable, REP, cache, out_path,
        "--mode", mode,
        "--rate", repr(rate),
        "--sat-seconds", repr(rep_s * SATURATION_SHARE),
        "--paced-seconds", repr(rep_s * (1.0 - SATURATION_SHARE)),
        "--handicap-ms", repr(handicap_ms),
        "--trace-dir", OUT_DIR,
    ]
    segments_before = _shm_segments()
    started = time.perf_counter()
    child = subprocess.Popen(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # its shard workers die with its group
    )
    try:
        _, stderr = child.communicate(timeout=timeout_s)
        failure = "" if child.returncode == 0 else f"exit code {child.returncode}"
    except subprocess.TimeoutExpired:
        failure = f"timeout after {timeout_s:.0f} s"
        stderr = b""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    result = None
    if not failure:
        try:
            with open(out_path) as fp:
                result = json.load(fp)
        except (OSError, ValueError):
            failure = "rep wrote no result"
    if result is None:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] if stderr else []
        result = {
            "ok": False,
            "mismatch": False,
            "reason": failure + (f": {tail[0]}" if tail else ""),
        }
    if not result.get("ok"):
        # A failed rep may leave ring segments behind: reap what appeared.
        for name in _shm_segments() - segments_before:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
    result["wall_s"] = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


class WorkloadRun:
    """The reps of one workload within one invocation."""

    def __init__(self, name: str, seed: int, config: dict, rep_s: float,
                 handicap_ms: float):
        self.workload = workloads.WORKLOADS[name]
        self.name = name
        self.rate = float(config["workloads"][name]["paced_rate_eps"])
        self.rep_s = rep_s
        self.handicap_ms = handicap_ms
        self.cache, self.meta = workloads.load_or_build(self.workload, seed)
        self.reps: list = []
        self.traced = None

    def _run(self, mode: str, label: str, handicap_ms: float, timeout: float) -> dict:
        result = run_child(self.cache, f"{self.name}-{label.replace(' ', '')}",
                           mode, self.rate, self.rep_s, handicap_ms, timeout)
        state = "ok" if result["ok"] else f"FAILED ({result['reason']})"
        print(f"  [{self.name}] {label}: {state} in {result['wall_s']:.1f} s",
              flush=True)
        return result

    def run_rep(self) -> None:
        timeout = max(REP_TIMEOUT_FLOOR_S, REP_TIMEOUT_FACTOR * self.rep_s + 10)
        result = self._run("rep", f"rep {len(self.reps) + 1}", self.handicap_ms, timeout)
        if result["ok"]:
            result["throughput_eps"] = report.rep_throughput(result)
        self.reps.append(result)

    def run_traced(self) -> None:
        self.traced = self._run("traced", "traced pass", 0.0, TRACED_TIMEOUT_S)

    @property
    def good(self) -> list:
        return [rep for rep in self.reps if rep["ok"]]

    def summary(self) -> dict:
        """Everything one workload contributes to a result file."""
        good = self.good
        attempts = self.reps + ([self.traced] if self.traced is not None else [])
        values = report.end_to_end(good) if good else {}
        layers = report.per_layer(
            good, self.reps, self.meta,
            self.traced if self.traced and "metrics" in self.traced else None,
        )
        return {
            "why": self.workload.why,
            "sha256": self.meta["sha256"],
            "config_hash": self.meta["config_hash"],
            "paced_rate_eps": self.rate,
            "attempted": len(attempts),
            "failed": sum(1 for a in attempts if not a["ok"]),
            "correct": not any(a.get("mismatch") for a in attempts),
            "reasons": [a["reason"] for a in attempts if not a["ok"]],
            "end_to_end": values,
            "spread": report.leave_one_out_spread(good),
            "per_layer": layers,
            "checks": self.traced.get("checks", {}) if self.traced else {},
            "trace_file": self.traced.get("trace_file") if self.traced else None,
        }


def print_workload(name: str, summary: dict, contract: dict, traced: bool) -> None:
    print(f"\n=== {name}  (inputs sha256 {summary['sha256'][:16]}, "
          f"paced at {summary['paced_rate_eps']:,.0f} el/s) ===")
    print(f"  reps attempted {summary['attempted']}, failed {summary['failed']}, "
          f"outputs {'correct' if summary['correct'] else 'NOT TDB-EQUIVALENT'}")
    for reason in summary["reasons"]:
        print(f"  failed: {reason}")
    report.print_table("end-to-end (tracing off)",
                       summary["end_to_end"], contract["end_to_end"])
    if traced:
        report.print_table("per layer (traced pass and replay cells)",
                           summary["per_layer"], contract["per_layer"])
        for check, passed in summary["checks"].items():
            print(f"  check {check}: {'pass' if passed else 'FAIL'}")
        if summary["trace_file"]:
            print(f"  spans: {os.path.relpath(summary['trace_file'], ROOT)}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def driver_mode(args, contract: dict, config: dict) -> int:
    """One workload, as ``BENCHMARK.json``'s command is called."""
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    reps = int(config["reps"])
    run = WorkloadRun(args.workload, args.seed, config,
                      args.seconds / reps, args.handicap_ms)
    for _ in range(reps):
        run.run_rep()
    if args.trace:
        run.run_traced()
    summary = run.summary()
    print_workload(args.workload, summary, contract, bool(args.trace))
    if not run.good:
        fail("every rep failed; no metric could be measured")
    if args.trace:
        metrics = report.contract_metrics(summary["per_layer"], contract["per_layer"])
    else:
        metrics = report.contract_metrics(summary["end_to_end"], contract["end_to_end"])
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def suite(seed: int, seconds: float, traced: bool, handicap_ms: float,
          contract: dict, config: dict) -> dict:
    """All workloads; reps interleaved round-robin so host drift hits
    every workload alike."""
    load_before = report.load_average()
    reps = int(config["reps"])
    runs = [
        WorkloadRun(spec["name"], seed, config, seconds / reps, handicap_ms)
        for spec in contract["workloads"]
    ]
    for _ in range(reps):
        for run in runs:
            run.run_rep()
    if traced:
        for run in runs:
            run.run_traced()
    env = report.environment()
    env["load_1min_before"] = load_before
    env["load_1min_after"] = report.load_average()
    env["noisy"] = load_before > (env["nproc"] or 1)
    return {
        "seed": seed,
        "seconds": seconds,
        "reps": reps,
        "handicap_ms": handicap_ms,
        "environment": env,
        "workloads": {run.name: run.summary() for run in runs},
    }


def print_suite(result: dict, contract: dict, traced: bool) -> None:
    env = result["environment"]
    print(f"\nlmbench seed {result['seed']}: {env['nproc']} x {env['cpu_model']}, "
          f"Python {env['python']}, repro {env['repro_git_sha'][:12]}, "
          f"load {env['load_1min_before']:.2f} -> {env['load_1min_after']:.2f}"
          + ("  ** NOISY: load above nproc at start **" if env["noisy"] else ""))
    for name, summary in result["workloads"].items():
        print_workload(name, summary, contract, traced)


def suite_mode(args, contract: dict, config: dict) -> int:
    result = suite(args.seed, args.seconds, args.traced, args.handicap_ms,
                   contract, config)
    print_suite(result, contract, args.traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = args.out or os.path.join(OUT_DIR, f"result-s{args.seed}.json")
    with open(out, "w") as fp:
        json.dump(result, fp, indent=1)
    print(f"\nresult written to {os.path.relpath(out)}")
    wrong = [n for n, s in result["workloads"].items() if not s["correct"]]
    if wrong:
        print(f"outputs NOT TDB-equivalent on: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


def compare_mode(args, contract: dict) -> int:
    with open(args.a) as fp:
        a = json.load(fp)
    with open(args.b) as fp:
        b = json.load(fp)
    rows = report.compare_results(a, b, contract["end_to_end"])
    report.print_comparison(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def calibrate_mode(args, contract: dict, config: dict) -> int:
    """Run the full set twice on the same code; record how far the two
    runs disagree next to each bound; fail if a gated metric disagrees by
    more than its bound."""
    first = suite(args.seed, args.seconds, False, 0.0, contract, config)
    second = suite(args.seed, args.seconds, False, 0.0, contract, config)
    table = report.calibration(first, second, contract["end_to_end"])
    config["calibration"] = {
        "seed": args.seed,
        "environment": second["environment"],
        "disagreement": table,
    }
    with open(report.CONFIG_JSON, "w") as fp:
        json.dump(config, fp, indent=2)
        fp.write("\n")
    report.print_comparison(
        report.compare_results(first, second, contract["end_to_end"])
    )
    outside = [
        f"{workload}.{metric}"
        for workload, metrics in table.items()
        for metric, row in metrics.items()
        if not row["within_bound"]
    ]
    if outside:
        print("disagree by more than their bound: " + ", ".join(outside),
              file=sys.stderr)
        return 1
    print("every gated metric agrees within its bound")
    return 0


def main(argv=None) -> int:
    contract = report.load_contract()
    config = report.load_config()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("mode", nargs="?", choices=("calibrate", "compare"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = report the per-layer set")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add the traced pass per workload")
    parser.add_argument("--handicap-ms", type=float, default=0.0,
                        help="sleep this long after every step (compare self-test)")
    parser.add_argument("--out", help="suite mode: result file")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two result files")
        args.a, args.b = args.files
        return compare_mode(args, contract)
    if args.files:
        parser.error("unexpected positional arguments")
    if args.mode == "calibrate":
        return calibrate_mode(args, contract, config)
    if args.workload:
        return driver_mode(args, contract, config)
    return suite_mode(args, contract, config)


if __name__ == "__main__":
    sys.exit(main())
