"""Aggregation and the compare / calibrate verdicts, on synthetic results."""

import copy

import pytest

import report

DECLARED = [
    {"name": "throughput_eps", "unit": "el/s", "better": "higher", "bound": 0.10},
    {"name": "cti_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
]
WORKLOADS = ("inorder_r1_batch", "disorder_r3_batch")


def result(throughput=1000.0, latency=2.0, spread=0.02, failed=0):
    return {
        "workloads": {
            name: {
                "end_to_end": {
                    "throughput_eps": throughput,
                    "cti_latency_p50_ms": latency,
                },
                "spread": {
                    "throughput_eps": spread,
                    "cti_latency_p50_ms": spread,
                },
                "failed": failed,
            }
            for name in WORKLOADS
        }
    }


def verdicts(rows):
    return {(row["workload"], row["metric"]): row["verdict"] for row in rows}


def test_clean_pass_takes_each_slice_from_its_quietest_pass():
    passes = [[1.0, 5.0, 1.0], [3.0, 1.0, 1.5], [1.2, 1.1, 9.0]]
    assert report.clean_pass(passes) == [1.0, 1.0, 1.0]
    rep = {"slice_elements": [100, 100, 100], "passes": passes}
    assert report.rep_throughput(rep) == pytest.approx(100.0)


def test_end_to_end_is_clean_window_for_time_and_median_for_the_rest():
    reps = [
        {
            "slice_elements": [50, 50],
            "passes": [[1.0, 3.0]],
            "cti_latency_p50_ms": 9.0,
            "peak_rss_mb": 50.0,
            "data_out_per_event": 1.2,
            "setup_s": 0.3,
            "throughput_eps": 25.0,
        },
        {
            "slice_elements": [50, 50],
            "passes": [[2.0, 1.0]],
            "cti_latency_p50_ms": 4.0,
            "peak_rss_mb": 52.0,
            "data_out_per_event": 1.2,
            "setup_s": 0.5,
            "throughput_eps": 33.3,
        },
        {
            "slice_elements": [50, 50],
            "passes": [[4.0, 4.0]],
            "cti_latency_p50_ms": 6.0,
            "peak_rss_mb": 51.0,
            "data_out_per_event": 1.2,
            "setup_s": 0.4,
            "throughput_eps": 12.5,
        },
    ]
    values = report.end_to_end(reps)
    assert values["throughput_eps"] == pytest.approx(100 / 2.0)
    assert values["cti_latency_p50_ms"] == 4.0
    assert values["peak_rss_mb"] == 51.0
    assert values["setup_s"] == 0.4


def test_a_a_pair_flags_nothing():
    a = result()
    b = result(throughput=1030.0, latency=1.95)  # inside the 10 % bounds
    rows = report.compare_results(a, b, DECLARED)
    assert len(rows) == len(WORKLOADS) * len(DECLARED)
    assert set(verdicts(rows).values()) == {"same"}


def test_a_handicapped_run_is_flagged_on_every_workload():
    a = result()
    b = result(throughput=600.0, latency=3.5)
    rows = report.compare_results(a, b, DECLARED)
    assert set(verdicts(rows).values()) == {"worse"}
    # ...and the other way round it is a gain, in each metric's direction.
    assert set(verdicts(report.compare_results(b, a, DECLARED)).values()) == {"better"}


def test_a_move_inside_a_wide_spread_is_unresolved_not_unchanged():
    a = result(spread=0.30)
    b = result(throughput=800.0, spread=0.02)
    found = verdicts(report.compare_results(a, b, DECLARED))
    assert found[("inorder_r1_batch", "throughput_eps")] == "unresolved"
    assert found[("inorder_r1_batch", "cti_latency_p50_ms")] == "same"


def test_more_failed_reps_is_worse_whatever_the_numbers_say():
    rows = report.compare_results(result(), result(throughput=2000.0, failed=1), DECLARED)
    assert set(verdicts(rows).values()) == {"worse"}


def test_calibration_records_disagreement_next_to_the_bound():
    a = result()
    b = copy.deepcopy(a)
    b["workloads"]["disorder_r3_batch"]["end_to_end"]["throughput_eps"] = 850.0
    table = report.calibration(a, b, DECLARED)
    cell = table["disorder_r3_batch"]["throughput_eps"]
    assert cell["bound"] == 0.10
    assert cell["disagreement"] == pytest.approx(0.15)
    assert cell["within_bound"] is False
    assert table["inorder_r1_batch"]["throughput_eps"]["within_bound"] is True


def test_contract_metrics_reports_exactly_the_declared_names():
    metrics = report.contract_metrics({"throughput_eps": 12.5, "extra": 1.0}, DECLARED)
    assert metrics == {
        "throughput_eps": {"value": 12.5, "unit": "el/s"},
        "cti_latency_p50_ms": {"value": 0.0, "unit": "ms"},
    }


def test_a_workload_that_stopped_producing_numbers_is_worse():
    a = result()
    b = result(failed=4)
    b["workloads"]["inorder_r1_batch"]["end_to_end"] = {}
    found = verdicts(report.compare_results(a, b, DECLARED))
    assert found[("inorder_r1_batch", "throughput_eps")] == "worse"
    # Nothing measured on either side: nothing can be said.
    a["workloads"]["inorder_r1_batch"]["end_to_end"] = {}
    b["workloads"]["inorder_r1_batch"]["failed"] = 0
    found = verdicts(report.compare_results(a, b, DECLARED))
    assert found[("inorder_r1_batch", "throughput_eps")] == "unresolved"


def test_leave_one_out_spread_is_small_when_one_noisy_rep_is_ignored_anyway():
    def rep(pass_time, latency):
        return {
            "slice_elements": [100],
            "passes": [[pass_time]],
            "cti_latency_p50_ms": latency,
            "peak_rss_mb": 50.0,
            "data_out_per_event": 1.2,
            "setup_s": 0.3,
        }

    quiet = [rep(1.0, 5.0), rep(1.01, 5.05), rep(1.02, 5.1), rep(3.0, 15.0)]
    spread = report.leave_one_out_spread(quiet)
    # Dropping the noisy rep changes nothing; dropping the best one moves
    # the clean-window values by 1 %.
    assert spread["throughput_eps"] < 0.02
    assert spread["cti_latency_p50_ms"] < 0.02
    assert report.leave_one_out_spread(quiet[:2]) == {}
