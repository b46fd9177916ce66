"""The paced phase's arithmetic, pinned down with hand-computed numbers."""

import pytest

import pacing


class TestDueTimes:
    def test_schedule_is_fixed_by_rate_alone(self):
        interval = pacing.step_interval(batch=64, rate_eps=16_000)
        assert interval == pytest.approx(0.004)
        # Step k of a window that began at t=100 with step 10 is due at
        # 100 + (k - 10) * interval, however late earlier steps ran.
        assert pacing.due_time(100.0, 10, 10, interval) == 100.0
        assert pacing.due_time(100.0, 15, 10, interval) == pytest.approx(100.02)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            pacing.step_interval(64, 0)

    def test_window_is_the_tail_of_the_stream(self):
        # 16k el/s for 2 s = 32k elements = 500 steps of 64.
        assert pacing.paced_window(1497, 64, 16_000, 2.0) == 997
        # A stream shorter than the window is paced from its first step.
        assert pacing.paced_window(300, 64, 16_000, 2.0) == 0
        # Never an empty window.
        assert pacing.paced_window(10, 64, 1.0, 0.001) == 9


class TestEnablingStep:
    def test_running_max_ignores_regressions_and_gaps(self):
        stables = [None, 5, None, 3, 9, None]
        assert pacing.running_max_stable(stables) == [
            float("-inf"), 5, 5, 5, 9, 9
        ]

    def test_first_step_whose_inputs_promise_t(self):
        so_far = pacing.running_max_stable([None, 5, None, 3, 9, None])
        assert pacing.enabling_step(so_far, 5) == 1   # promised at step 1
        assert pacing.enabling_step(so_far, 4) == 1   # 5 >= 4 already
        assert pacing.enabling_step(so_far, 6) == 4   # needs the 9
        assert pacing.enabling_step(so_far, 9) == 4
        assert pacing.enabling_step(so_far, 10) is None  # never promised

    def test_latency_runs_from_the_enabling_steps_due_time(self):
        # Output Stable(6) becomes visible at t=100.030; its enabling step
        # (4) was due at 100.016, so the CTI waited 14 ms — not the 2 ms
        # since the step that happened to surface it.
        interval = 0.004
        so_far = pacing.running_max_stable([None, 5, None, 3, 9, None, None, None])
        due = pacing.due_time(100.0, pacing.enabling_step(so_far, 6), 0, interval)
        assert 100.030 - due == pytest.approx(0.014)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert pacing.percentile(values, 50) == 50
        assert pacing.percentile(values, 95) == 95
        assert pacing.percentile(values, 100) == 100
        assert pacing.percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            pacing.percentile([], 50)

    def test_a_percentile_needs_ten_samples_beyond_it(self):
        # p95 of 200 is rank 190: exactly 10 beyond.
        assert pacing.highest_supported_percentile(200) == 95.0
        assert pacing.highest_supported_percentile(199) == 90.0
        # p50 of 20 is rank 10: 10 beyond; of 19, rank 10: 9 beyond.
        assert pacing.highest_supported_percentile(20) == 50.0
        assert pacing.highest_supported_percentile(19) is None

    def test_summarize_degrades_the_tail_not_the_count(self):
        p50, tail, n = pacing.summarize([float(v) for v in range(1, 87)])
        assert (p50, n) == (43.0, 86)
        assert tail == 43.0  # 86 samples cannot support p90, let alone p95
        p50, tail, n = pacing.summarize([float(v) for v in range(1, 401)])
        assert (p50, tail, n) == (200.0, 380.0, 400)


def test_iqr_share_matches_the_contract_formula():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert pacing.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert pacing.iqr_share([5.0]) == 0.0
    assert pacing.iqr_share([2.0, 2.0, 2.0]) == 0.0


class TestFrontierWait:
    SO_FAR = pacing.running_max_stable([None, 5, None, 3, 9, None, None, None])

    def wait(self, stables, now=100.030, first=0):
        return pacing.frontier_wait(stables, self.SO_FAR, first, 100.0, 0.004, now)

    def test_one_sample_per_call_the_oldest_promise(self):
        # Stable(4) was enabled by step 1 (due 100.004), Stable(9) by step 4
        # (due 100.016); both became visible at 100.030: one sample, 26 ms.
        assert self.wait([4, 9]) == pytest.approx(0.026)
        assert self.wait([9]) == pytest.approx(0.014)

    def test_no_stable_no_sample(self):
        assert self.wait([]) is None

    def test_promises_from_before_the_window_have_no_due_time(self):
        # Window starts at step 2: Stable(4) (step 1) is skipped, Stable(9)
        # is due at 100.0 + (4 - 2) * 0.004.
        assert self.wait([4], first=2) is None
        assert self.wait([4, 9], first=2) == pytest.approx(0.022)
