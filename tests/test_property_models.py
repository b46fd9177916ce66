"""Model-based property tests for the merge indexes and key operators.

Each structure is checked against a brute-force model under randomized
operation sequences driven by hypothesis.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operator import CollectorSink
from repro.operators.cleanse import Cleanse
from repro.operators.join import TemporalJoin
from repro.structures.in2t import In2T
from repro.structures.in3t import In3T
from repro.temporal.elements import Insert, Stable
from repro.temporal.event import Event
from repro.temporal.time import INFINITY

from conftest import divergent_inputs, small_stream


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "entry", "delete", "scan"]),
            st.integers(0, 8),   # vs
            st.integers(0, 3),   # payload id
            st.integers(0, 3),   # stream id
            st.integers(1, 20),  # ve / bound
        ),
        max_size=60,
    )
)
def test_in2t_matches_dict_model(ops):
    index = In2T()
    model = {}  # (vs, payload) -> {stream: ve}
    for op, vs, payload_id, stream, value in ops:
        payload = f"p{payload_id}"
        key = (vs, payload)
        if op == "add":
            if key not in model:
                node = index.add(Event(vs, payload, vs + value))
                model[key] = {}
            else:
                node = index.find(vs, payload)
            node.add_entry(stream, vs + value)
            model[key][stream] = vs + value
        elif op == "entry" and key in model:
            node = index.find(vs, payload)
            node.update_entry(stream, vs + value)
            model[key][stream] = vs + value
        elif op == "delete" and key in model:
            index.delete(index.find(vs, payload))
            del model[key]
        elif op == "scan":
            bound = value
            expected = sorted(k for k in model if k[0] < bound)
            got = [(n.vs, n.payload) for n in index.half_frozen(bound)]
            assert got == expected
    # Final coherence check.
    assert len(index) == len(model)
    for (vs, payload), entries in model.items():
        node = index.find(vs, payload)
        assert node is not None
        for stream, ve in entries.items():
            assert node.get_entry(stream) == ve


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["inc", "inc", "dec", "drop", "query"]),
            st.integers(0, 4),   # vs
            st.integers(0, 2),   # payload id
            st.integers(0, 2),   # stream id
            st.integers(1, 8),   # ve offset
            st.integers(1, 3),   # how many copies
        ),
        max_size=80,
    )
)
def test_in3t_matches_counter_model(ops):
    """The flat third tier against a plain ``{ve: count}`` model: counts,
    the maintained total, Ve order, and that every mutation forgets the
    verdicts LMR4 caches on the node."""
    from collections import Counter

    index = In3T()
    model = {}  # (vs, payload) -> {stream: Counter(ve)}
    for op, vs, payload_id, stream, offset, copies in ops:
        payload = f"p{payload_id}"
        key = (vs, payload)
        ve = vs + offset
        if op == "inc":
            node = index.find_or_add(Event(vs, payload, ve))
            node.reconciled, node.agreement = {stream: ve}, ()
            node.increment(stream, ve, copies)
            assert node.reconciled is None and node.agreement is None
            model.setdefault(key, {}).setdefault(stream, Counter())[ve] += copies
        elif op == "dec" and key in model:
            node = index.find(vs, payload)
            counters = model[key].get(stream, Counter())
            node.reconciled, node.agreement = {stream: ve}, ()
            if counters[ve] >= copies:
                node.decrement(stream, ve, copies)
                counters[ve] -= copies
                assert node.reconciled is None and node.agreement is None
            else:
                with pytest.raises(KeyError):
                    node.decrement(stream, ve, copies)
        elif op == "drop" and stream in model.get(key, {}):
            node = index.find(vs, payload)
            node.reconciled, node.agreement = {stream: ve}, ()
            node.remove_stream(stream)
            assert node.reconciled is None and node.agreement is None
            del model[key][stream]
        elif op == "query" and key in model:
            node = index.find(vs, payload)
            live_streams = []
            for sid, counters in model[key].items():
                live = +counters
                assert node.total_count(sid) == sum(live.values())
                assert node.ve_counts(sid) == sorted(live.items())
                assert node.count_of(sid, ve) == live[ve]
                assert node.max_ve(sid) == max(live, default=-INFINITY)
                if live:
                    live_streams.append(sid)
            assert sorted(node.streams()) == sorted(live_streams)
            assert node.is_empty() == (not live_streams)
    # The snapshot record is the model, Ve-ordered, emptied tiers included.
    assert index.snapshot() == [
        (
            vs,
            payload,
            {sid: sorted((+c).items()) for sid, c in model[(vs, payload)].items()},
        )
        for vs, payload in sorted(model)
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), disorder=st.floats(0.0, 0.6))
def test_cleanse_output_always_ordered_and_equivalent(seed, disorder):
    stream = small_stream(
        count=150, seed=seed % 23, disorder=disorder, blob=2
    )
    cleanse = Cleanse()
    sink = CollectorSink()
    cleanse.subscribe(sink)
    for element in stream:
        cleanse.receive(element, 0)
    out = sink.stream
    out.tdb()  # valid
    vs_values = [e.vs for e in out.data_elements()]
    assert vs_values == sorted(vs_values)
    assert out.tdb() == stream.tdb()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_join_matches_bruteforce_intersection(seed):
    """The join's final TDB equals the brute-force pairwise
    interval-intersection of the input TDBs."""
    rng = random.Random(seed)

    def make_side(tag):
        elements = []
        for index in range(rng.randint(1, 10)):
            vs = rng.randint(0, 30)
            ve = vs + rng.randint(1, 15)
            elements.append(Insert((tag, index), vs, ve))
        elements.append(Stable(INFINITY))
        return elements

    left, right = make_side("L"), make_side("R")
    join = TemporalJoin()
    sink = CollectorSink()
    join.subscribe(sink)
    merged = [(e, 0) for e in left] + [(e, 1) for e in right]
    rng.shuffle(merged)
    # Keep per-side element order (stables last is guaranteed by
    # construction only per side, so re-sort each side's order).
    left_iter = iter(left)
    right_iter = iter(right)
    for element, side in merged:
        actual = next(left_iter if side == 0 else right_iter)
        join.receive(actual, side)
    expected = set()
    for le in left:
        if isinstance(le, Stable):
            continue
        for re in right:
            if isinstance(re, Stable):
                continue
            vs = max(le.vs, re.vs)
            ve = min(le.ve, re.ve)
            if ve > vs:
                expected.add(Event(vs, (le.payload, re.payload), ve))
    got = set(sink.stream.tdb())
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    fail_points=st.lists(st.integers(10, 200), min_size=0, max_size=2),
)
def test_replication_random_failures_stay_correct(seed, fail_points):
    """Random pause-failures never corrupt the merged output as long as
    one replica survives."""
    from repro.ha.replica import FailureEvent, RecoveryMode, ReplicatedDeployment
    from repro.lmerge.r3 import LMergeR3

    reference = small_stream(count=250, seed=seed % 13)
    inputs = divergent_inputs(reference, n=3)
    failures = [
        FailureEvent(
            replica=1 + index,
            fail_after=point,
            down_for=40,
            mode=RecoveryMode.PAUSE,
        )
        for index, point in enumerate(fail_points[:2])
    ]
    deployment = ReplicatedDeployment(LMergeR3(), inputs, failures)
    output = deployment.run()
    assert output.tdb() == reference.tdb()
