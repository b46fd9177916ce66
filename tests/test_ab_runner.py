"""``benchmarks/ab.py`` counts a failed run instead of losing the A/B."""

import importlib.util
import subprocess
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).parents[1] / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

CONTRACT = {"end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.25}]}


class _Args:
    workload = "w"
    seed = 7
    seconds = 1.0


def test_a_hung_run_is_a_failed_run(monkeypatch, tmp_path):
    def hang(command, **options):
        raise subprocess.TimeoutExpired(command, options["timeout"])

    monkeypatch.setattr(ab.subprocess, "run", hang)
    run = ab.run_once(str(tmp_path), _Args())
    assert run["run_failed"]
    assert run["reasons"] == [f"timeout after {ab.RUN_TIMEOUT:g} s"]


def test_failed_runs_are_counted_and_left_out_of_the_ratios():
    def good(value):
        return {"run_failed": False, "reasons": [], "attempted": 1, "failed": 0,
                "correct": True, "metrics": {"m": {"value": value}}}

    failed = {"run_failed": True, "reasons": ["timeout after 900 s"]}
    pairs = [
        {"parent": good(2.0), "change": good(1.0)},
        {"parent": good(2.0), "change": failed},
        {"parent": good(2.0), "change": good(3.0)},
    ]
    report = ab.summarize(pairs, CONTRACT, seed=1)
    assert report["sides"]["change"]["run_failed"] == 1
    assert report["sides"]["change"]["reasons"] == ["timeout after 900 s"]
    row = report["metrics"]["m"]
    assert row["change_better"] == "1/2"
    assert row["ratio_median"] == 1.0
