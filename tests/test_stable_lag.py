"""The stable-lag policy (Section V-A's closing observation)."""

from functools import partial

import pytest

from repro.lmerge.policies import OutputPolicy
from repro.lmerge.r3 import LMergeR3
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream
from oracle import check


class TestStableLag:
    def test_output_stable_trails_inputs(self):
        merge = LMergeR3(policy=OutputPolicy(stable_lag=10))
        merge.attach(0)
        merge.process(Insert("a", 1, 5), 0)
        merge.process(Stable(50), 0)
        assert merge.max_stable == 40

    def test_infinity_not_lagged(self):
        merge = LMergeR3(policy=OutputPolicy(stable_lag=10))
        merge.attach(0)
        merge.process(Stable(INFINITY), 0)
        assert merge.max_stable == INFINITY

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            OutputPolicy(stable_lag=-1)

    def test_lag_avoids_adjusts(self):
        """An input revision landing between t-lag and t costs the lagged
        merge nothing, while the prompt merge must correct itself."""
        def drive(policy):
            merge = LMergeR3(policy=policy)
            merge.attach(0)
            merge.attach(1)
            merge.process(Insert("a", 1, 8), 0)
            merge.process(Stable(10), 0)  # freezes a at Ve=8 if prompt
            # Input 1 (still below its own stable) holds a different
            # transient end, then converges.
            merge.process(Insert("a", 1, 9), 1)
            merge.process(Adjust("a", 1, 9, 8), 1)
            merge.process(Stable(10), 1)
            merge.process(Stable(INFINITY), 0)
            merge.process(Stable(INFINITY), 1)
            return merge

        prompt = drive(OutputPolicy())
        lagged = drive(OutputPolicy(stable_lag=5))
        assert prompt.output.tdb() == lagged.output.tdb()
        assert lagged.stats.adjusts_out <= prompt.stats.adjusts_out

    def test_equivalence_end_to_end(self):
        lagged = partial(LMergeR3, policy=OutputPolicy(stable_lag=200))
        check("LMR3+", seed=160, make=lagged, roster=False, paths=("process",))

    def test_oracle_compliance(self):
        lagged = partial(LMergeR3, policy=OutputPolicy(stable_lag=100))
        check("LMR3+", seed=161, make=lagged, paths=("process",))

    def test_lag_retains_more_state(self):
        reference = small_stream(
            count=400, seed=162, stable_freq=0.05, event_duration=50
        )
        inputs = divergent_inputs(reference, n=2)

        def peak(policy):
            merge = LMergeR3(policy=policy)
            from repro.lmerge.base import interleave

            for stream_id in range(2):
                merge.attach(stream_id)
            peak_keys = 0
            for element, stream_id in interleave(list(inputs), "round_robin", 0):
                merge.process(element, stream_id)
                peak_keys = max(peak_keys, merge.live_keys)
            return peak_keys

        assert peak(OutputPolicy(stable_lag=500)) > peak(OutputPolicy())
