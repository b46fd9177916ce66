"""Randomized failure sequences.

The oracle's roster script (``oracle.py``) drops a straggler mid-stream
and brings it back:

* with PAUSE recovery (the replica resumes where it stopped, guaranteeing
  from the current output stable) every input prefix remains a true
  prefix of the reference stream, so C1-C3 (R4: conformance) hold at
  every stable — the dropped replica's final prefix included;
* with GAP recovery (the replica loses a backlog and rejoins with an
  infinite guarantee) the gapped prefix is no longer a reference prefix,
  so only the end-to-end guarantee is checked: the anchor never leaves,
  and the merged output is the logical stream.  Gaps run on revision-free
  inputs (the paper's Section V-C regime).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import SHAPES, Shape, check

seeds = st.integers(0, 10**6)
shapes = st.sampled_from(sorted(SHAPES))
ONCE = dict(paths=("process",), policies=("none",))


@settings(max_examples=8)
@given(seed=seeds, shape=shapes)
def test_r3_pause_failures_with_oracle(seed, shape):
    check("LMR3+", shape, seed, recover="pause", **ONCE)


@settings(max_examples=15)
@given(seed=seeds)
def test_r3_gap_failures_final_equivalence(seed):
    check("LMR3+", Shape(speculate=0.0), seed, recover="gap", **ONCE)


@settings(max_examples=6)
@given(seed=seeds, shape=shapes)
def test_r4_pause_failures(seed, shape):
    check("LMR4", shape, seed, recover="pause", **ONCE)
