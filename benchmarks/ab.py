"""Paired A/B of two source trees on one lmbench workload.

Runs each tree's own ``benchmarks/lmbench/run.py --workload W --seed S
--seconds T`` in alternation: pair *i* runs the parent first when *i* is
even and the change first when it is odd, so drift on the host hits both
sides alike.  Every run is a fresh interpreter, and each tree's
``__pycache__`` directories are deleted before it (a tree with cached
bytecode reads a lower ``setup_s`` and a different ``peak_rss_mb``).

For every end-to-end metric of the parent's ``BENCHMARK.json`` it
reports both medians, the median of the paired ratios change/parent,
in how many pairs the change was better, each side's IQR as a share of
its median, and a bootstrap 90 % interval for the median ratio.  Read
the first four: a gain holds when the change is better in nearly every
pair and the medians differ by more than the parent's IQR.  The
interval is indicative only; over ten pairs it is too narrow, and an
A/A can exclude 1.0.  Failed runs (a non-zero exit, no result line, or
more than ``RUN_TIMEOUT`` seconds) and failed reps are counted per side,
not dropped.  ``--aa`` runs the parent against itself: its spreads are
the noise floor a real A/B has to clear.

Build both trees with ``git clone`` or ``git archive`` of a commit (plus
the changed files copied over), not with a copy of ``git ls-files``::

    python benchmarks/ab.py --parent ../parent --change . \\
        --workload disorder_r3_proc2 --seed 7 --pairs 10
    python benchmarks/ab.py --parent ../parent --aa --workload disorder_r3_proc2
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

BOOTSTRAP_DRAWS = 2000
#: Seconds one ``run.py`` may take before it counts as a failed run.
RUN_TIMEOUT = 900.0


def clear_bytecode(tree: str) -> None:
    for top in ("src", "benchmarks"):
        for root, dirs, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(root, "__pycache__"), ignore_errors=True)
                dirs.remove("__pycache__")


def run_once(tree: str, args) -> dict:
    """One ``run.py`` invocation in *tree*; its result line, or a failure."""
    clear_bytecode(tree)
    command = [
        sys.executable, "benchmarks/lmbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        done = subprocess.run(
            command, cwd=tree, capture_output=True, text=True,
            timeout=RUN_TIMEOUT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
    except subprocess.TimeoutExpired:
        return {"run_failed": True, "reasons": [f"timeout after {RUN_TIMEOUT:g} s"]}
    lines = done.stdout.strip().splitlines()
    reasons = [line.strip() for line in lines if line.strip().startswith("failed:")]
    result: Optional[dict] = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if done.returncode != 0 or result is None:
        tail = (done.stderr.strip().splitlines() or lines or ["no output"])[-1]
        return {"run_failed": True, "reasons": reasons or [tail]}
    result["run_failed"] = False
    result["reasons"] = reasons
    return result


def quartile_spread(values: List[float]) -> float:
    """IQR / median (0 when there are too few values to have quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def bootstrap_interval(ratios: List[float], seed: int) -> List[float]:
    """A 90 % percentile interval for the median of *ratios* (indicative:
    a percentile bootstrap over ten pairs undercovers)."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_DRAWS)
    )
    return [medians[int(0.05 * BOOTSTRAP_DRAWS)], medians[int(0.95 * BOOTSTRAP_DRAWS) - 1]]


def summarize(pairs: List[Dict[str, dict]], contract: dict, seed: int) -> dict:
    sides = ("parent", "change")
    out: dict = {"pairs": len(pairs), "sides": {}, "metrics": {}}
    for side in sides:
        runs = [pair[side] for pair in pairs]
        good = [run for run in runs if not run["run_failed"]]
        out["sides"][side] = {
            "run_failed": len(runs) - len(good),
            "reps_attempted": sum(run.get("attempted", 0) for run in good),
            "reps_failed": sum(run.get("failed", 0) for run in good),
            "incorrect": sum(1 for run in good if not run.get("correct", False)),
            "reasons": sorted({r for run in runs for r in run["reasons"]}),
        }
    for metric in contract["end_to_end"]:
        name = metric["name"]
        lower_is_better = metric["better"] == "lower"
        both = [
            (pair["parent"]["metrics"][name]["value"], pair["change"]["metrics"][name]["value"])
            for pair in pairs
            if all(
                not pair[side]["run_failed"] and name in pair[side].get("metrics", {})
                for side in sides
            )
        ]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        ratios = [b / a for a, b in both if a]
        better = sum(1 for a, b in both if (b < a if lower_is_better else b > a))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "ratio_median": statistics.median(ratios) if ratios else None,
            "change_better": f"{better}/{len(both)}",
            "parent_iqr_share": quartile_spread(parent),
            "change_iqr_share": quartile_spread(change),
            "ratio_interval_90": bootstrap_interval(ratios, seed) if ratios else None,
        }
    return out


def print_report(report: dict, title: str) -> None:
    print(f"\n{title}: {report['pairs']} pairs")
    for side, counts in report["sides"].items():
        print(
            f"  {side:>6}: runs failed {counts['run_failed']}, reps failed "
            f"{counts['reps_failed']}/{counts['reps_attempted']}, "
            f"incorrect {counts['incorrect']}"
        )
        for reason in counts["reasons"]:
            print(f"          {reason}")
    print(
        f"  {'metric':<20} {'parent':>11} {'change':>11} {'ratio':>7} "
        f"{'better':>7} {'IQR p/c':>13} {'90% (indicative)':>17}"
    )
    for name, row in report["metrics"].items():
        low, high = row["ratio_interval_90"] or (float("nan"), float("nan"))
        ratio = row["ratio_median"] if row["ratio_median"] is not None else float("nan")
        interval = f"[{low:.3f}, {high:.3f}]"
        spread = f"{row['parent_iqr_share']:.1%}/{row['change_iqr_share']:.1%}"
        print(
            f"  {name:<20} {row['parent_median']:>11.4g} {row['change_median']:>11.4g} "
            f"{ratio:>7.3f} {row['change_better']:>7} {spread:>13} {interval:>17}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's source tree")
    parser.add_argument("--change", help="the change's source tree")
    parser.add_argument("--aa", action="store_true", help="run the parent against itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="write the report (and every run) as JSON")
    args = parser.parse_args(argv)
    if args.aa == bool(args.change):
        parser.error("give exactly one of --change and --aa")
    parent = os.path.abspath(args.parent)
    change = parent if args.aa else os.path.abspath(args.change)
    with open(os.path.join(parent, "BENCHMARK.json")) as fp:
        contract = json.load(fp)
    trees = {"parent": parent, "change": change}
    pairs: List[Dict[str, dict]] = []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], args)
            state = "FAILED" if pair[side]["run_failed"] else "ok"
            print(f"  pair {index + 1}/{args.pairs} {side}: {state}", flush=True)
        pairs.append(pair)
    report = summarize(pairs, contract, args.seed)
    kind = "A/A" if args.aa else "A/B"
    print_report(report, f"{kind} {args.workload} seed {args.seed} at {args.seconds:g} s")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"args": vars(args), "report": report, "runs": pairs}, fp, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
