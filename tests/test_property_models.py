"""Model-based property tests for the merge indexes and key operators.

Each structure is checked against a brute-force model under randomized
operation sequences driven by hypothesis.  Merge scenarios live in the
oracle (``oracle.py``).
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
from repro.structures.sizing import PayloadKey
from repro.structures.sortedkeys import SortedKeys
from repro.temporal.elements import Insert, Stable
from repro.temporal.event import Event
from repro.temporal.time import INFINITY

from conftest import small_stream
from oracle import check


@settings(max_examples=60)
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


def assert_sortedkeys_coherent(order, expected):
    """The chunks hold *expected* in order, none empty or past twice the
    load, each one's largest key mirrored."""
    assert list(order) == expected
    assert order._maxes == [chunk[-1] for chunk in order._chunks]
    assert all(0 < len(chunk) <= 2 * order._load for chunk in order._chunks)


@settings(max_examples=100)
@given(
    load=st.sampled_from([2, 3, 8]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "top", "update", "drop", "between"]),
            st.integers(0, 60),
            st.integers(0, 25),  # width of a run / range
            st.integers(1, 3),   # stride of a run
        ),
        max_size=60,
    ),
)
def test_sortedkeys_matches_set_model(load, ops):
    """SortedKeys against a plain set: appends, inserts inside the window,
    merged runs, removal of prefixes, whole chunks and scattered keys."""
    order = SortedKeys(load)
    model = set()
    for op, key, width, stride in ops:
        run = set(range(key, key + width * stride, stride))
        if op == "add" and key not in model:
            order.add(key)
            model.add(key)
        elif op == "top":
            key = max(model, default=0) + stride
            order.add(key)
            model.add(key)
        elif op == "update":
            order.update(run - model)
            model |= run
        elif op == "drop":
            order.discard(sorted(run & model, reverse=True))
            model -= run
        elif op == "between":
            assert order.between(key, key + width) == sorted(
                k for k in model if key <= k < key + width
            )
            assert order.between(-INFINITY, key) == sorted(
                k for k in model if k < key
            )
        assert_sortedkeys_coherent(order, sorted(model))
    order.discard(list(model))
    assert_sortedkeys_coherent(order, [])


#: Payloads that share a Vs in the In3T model test: natively ordered
#: ones, and ones only PayloadKey's fallback orders (str / int / tuple).
_PAYLOADS = ["p0", "p1", 7, 2.5, (1, "x")]


def _key_order(key):
    return key[0], PayloadKey(key[1])


def assert_in3t_coherent(index, model=None):
    """In3T's views agree: a Vs is in the ordered set iff it has a bucket,
    buckets file exactly the nodes a walk yields, the walk runs in
    ``(Vs, PayloadKey(payload))`` order — the model's, given one — and
    ``len`` counts it."""
    walked = list(index.nodes())
    assert_sortedkeys_coherent(index._order, sorted(index._nodes))
    hashed = sum(len(bucket) for bucket in index._nodes.values())
    assert hashed == len(walked) == len(index)
    keys = [(node.vs, node.payload) for node in walked]
    assert keys == sorted(keys, key=_key_order)
    if model is not None:
        assert keys == sorted(model, key=_key_order)
    for node in walked:
        bucket = index._nodes[node.vs]
        try:
            assert bucket[node.payload] is node
        except TypeError:  # unhashable: filed under the node itself
            assert bucket[node] is node


@settings(max_examples=100)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["inc", "inc", "inc", "dec", "drop", "query", "delete",
                 "remove", "restore", "prune", "prune_keep"]
            ),
            # Few enough Vs values that keys collide, enough for the
            # two-key chunks below to split and merge; a low draw after a
            # prune lands far behind the window.
            st.integers(0, 12),  # vs
            st.integers(0, 4),   # payload id
            st.integers(0, 2),   # stream id
            st.integers(1, 8),   # ve offset
            st.integers(1, 3),   # how many copies
        ),
        max_size=80,
    )
)
def test_in3t_matches_counter_model(ops):
    """The flat third tier against a plain ``{ve: count}`` model: counts,
    the maintained total, Ve order, that every mutation forgets the
    verdicts LMR4 caches on the node and logs the node as touched — and,
    after every operation, that the walk is the model in ``(Vs,
    PayloadKey)`` order and the ordered Vs set, the buckets and ``len``
    agree with it (:func:`assert_in3t_coherent`)."""
    from collections import Counter

    index = In3T()
    index._order = SortedKeys(2)  # every few Vs values a chunk boundary
    model = {}  # (vs, payload) -> {stream: Counter(ve)}

    def has_events(key, stream):
        return sum((+model[key].get(stream, Counter())).values()) > 0

    for op, vs, payload_id, stream, offset, copies in ops:
        payload = _PAYLOADS[payload_id]
        key = (vs, payload)
        ve = vs + offset
        if op == "inc":
            node = index.find_or_add(Event(vs, payload, ve))
            node.reconciled, node.agreement = {stream: ve}, ()
            del index.touched[:]
            node.increment(stream, ve, copies)
            assert node.reconciled is None and node.agreement is None
            node.increment(stream, ve, copies)  # nothing left to forget
            assert index.touched == [node]
            model.setdefault(key, {}).setdefault(stream, Counter())[ve] += 2 * copies
        elif op == "dec" and key in model:
            node = index.find(vs, payload)
            counters = model[key].get(stream, Counter())
            node.reconciled, node.agreement = {stream: ve}, ()
            del index.touched[:]
            if counters[ve] >= copies:
                node.decrement(stream, ve, copies)
                counters[ve] -= copies
                assert node.reconciled is None and node.agreement is None
                assert index.touched == [node]
            else:
                with pytest.raises(KeyError):
                    node.decrement(stream, ve, copies)
        elif op == "drop" and stream in model.get(key, {}):
            node = index.find(vs, payload)
            node.reconciled, node.agreement = {stream: ve}, ()
            del index.touched[:]
            node.remove_stream(stream)
            assert node.reconciled is None and node.agreement is None
            assert index.touched == [node]
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
        elif op == "delete" and key in model:
            node = index.find(vs, payload)
            index.delete(node)
            with pytest.raises(KeyError):
                index.delete(node)
            del model[key]
        elif op == "remove":
            # Every key of a Vs range at once: whole chunks go.
            doomed = [k for k in model if vs <= k[0] < ve]
            index.remove([index.find(*k) for k in doomed])
            for k in doomed:
                del model[k]
        elif op == "restore":
            index.restore(index.snapshot())
            assert [(n.vs, n.payload) for n in index.touched] == sorted(
                model, key=_key_order
            )
        elif op == "prune":
            doomed = [k for k in model if k[0] < vs]
            assert index.prune_below(vs) == len(doomed)
            for k in doomed:
                del model[k]
        elif op == "prune_keep":
            doomed = [
                k for k in model if k[0] < ve and not has_events(k, stream)
            ]
            removed = index.prune_below(
                ve, keep=lambda node: node.total_count(stream) > 0
            )
            assert removed == len(doomed)
            for k in doomed:
                del model[k]
        assert_in3t_coherent(index, model)
        assert (index.find(vs, payload) is not None) == (key in model)
        assert [(n.vs, n.payload) for n in index.nodes_between(vs, ve)] == sorted(
            (k for k in model if vs <= k[0] < ve), key=_key_order
        )
    # The snapshot record is the model, Ve-ordered, emptied tiers included.
    assert index.snapshot() == [
        (
            vs,
            payload,
            {sid: sorted((+c).items()) for sid, c in model[(vs, payload)].items()},
        )
        for vs, payload in sorted(model, key=_key_order)
    ]


def test_in3t_identity_is_the_trees_where_no_hash_can_tell():
    """What equals what is the call the tree used to make and ``_held``
    makes now (``==``, then order).  The hash only short-cuts it: equal
    payloads it cannot hash, or hashes apart, still name one node —
    found, not added twice, not a crash."""
    index = In3T()
    nan = float("nan")
    pairs = [
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),  # equal, reprs differ
        ([1, 2], [1.0, 2.0]),
        (nan, float("nan")),  # hashable, never equal; unordered
        (("sensor", nan), ("sensor", float("nan"))),
        (1, True),  # equal and hashed alike
    ]
    for vs, (ours, theirs) in enumerate(pairs):
        node = index.find_or_add(Event(vs, ours, vs + 5))
        assert index.find_or_add(Event(vs, theirs, vs + 5)) is node
        assert index.find(vs, theirs) is node
        assert index.find(vs, ours) is node
        with pytest.raises(KeyError):
            index.add(vs, theirs)
        assert index.find(vs + 100, theirs) is None
    assert len(index) == len(pairs)
    assert_in3t_coherent(index)
    index.restore(index.snapshot())
    assert_in3t_coherent(index)
    index.delete(index.find(0, pairs[0][1]))
    assert index.find(0, pairs[0][0]) is None
    assert_in3t_coherent(index)
    assert index.prune_below(3) == 2
    assert_in3t_coherent(index)
    assert index.prune_below(INFINITY) == 2
    assert index._nodes == {}


def test_r4_accepts_unhashable_payloads_like_r3():
    """A dict payload cannot key In3T's identity hash; the bucket search
    finds it — also when the replicas built equal dicts in different key
    order."""
    from repro.lmerge import LMergeR3, LMergeR4
    from repro.temporal.elements import Adjust

    run = [
        Insert({"a": 1}, 1, 5),
        Insert({"a": 2}, 1, 5),
        Insert({"b": 1, "c": 2}, 2, 9),
        Stable(3),
        Adjust({"b": 1, "c": 2}, 2, 9, 6),
        Insert({"a": 1}, 4, 8),
        Stable(7),
    ]
    shuffled = [run[1], run[0]] + run[2:]
    shuffled[2] = Insert({"c": 2, "b": 1}, 2, 9)
    shuffled[4] = Adjust({"c": 2, "b": 1}, 2, 9, 6)
    results = []
    for cls in (LMergeR3, LMergeR4):
        merge = cls()
        merge.attach(0)
        merge.attach(1)
        for sid, elements in ((0, run), (1, shuffled)):
            for element in elements:
                merge.process(element, sid)
        assert merge.stats.inserts_out == 4
        # reconstitute() hashes payloads, so the TDB is built by hand.
        tdb = {}
        for e in merge.output:
            if e.__class__ is Insert:
                tdb[e.vs, repr(e.payload)] = e.ve
            elif e.__class__ is Adjust:
                assert tdb[e.vs, repr(e.payload)] == e.v_old
                tdb[e.vs, repr(e.payload)] = e.ve
        results.append((tdb, merge.max_stable))
    assert results[0] == results[1]
    assert merge.index_nodes == 1  # ({"a": 1}, 4) is still half frozen
    assert merge._index.find(4, {"a": 1}).total_count(0) == 1


@settings(max_examples=30)
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


@settings(max_examples=30)
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


@settings(max_examples=3)
@given(seed=st.integers(0, 10**6))
def test_replication_random_failures_stay_correct(seed):
    """Pause-failures never corrupt the merged output while one replica
    survives (the oracle's roster script, replica 0 never leaving)."""
    check("LMR3+", seed=seed, recover="pause", paths=("process",))
