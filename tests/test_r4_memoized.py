"""LMR4's frontier-driven stable() against the full walk it replaced.

``LMergeR4._stable`` looks only at the nodes its frontier hands out —
new to the freezing stream, mutated, or past their recorded bound — and
on those skips the reconcile half while the recorded verdict still
holds.  ``oracle.FullVisitR4`` forgets every verdict and resets the
frontier before every ``stable()``: the walk as it was before either.
The oracle drives the two in lockstep on every LMR4 scenario (same
output elements in the same order, same resident index after every
step); the tests here add the frontier's own mutants, arbitrary
out-of-contract input, its work counts and its memory bound.
"""

from __future__ import annotations

import base64
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge import LMergeR4, ReclamationPolicy
from repro.lmerge.base import InputStateError
from repro.structures import frontier as frontier_module
from repro.structures.in3t import In3T
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.tdb import StreamViolationError
from repro.temporal.time import INFINITY

from oracle import (
    ALWAYS_TRIM,
    GRID_SEEDS,
    POLICIES,
    SHAPES,
    FullVisitR4,
    assert_mutant_fails,
    check,
    check_grid,
)


@settings(max_examples=15)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(sorted(SHAPES)),
    policy_name=st.sampled_from(sorted(POLICIES)),
    recover=st.sampled_from([None, "pause"]),
)
def test_frontier_stable_is_indistinguishable_from_the_full_walk(
    seed, shape, policy_name, recover
):
    check("LMR4", shape, seed, recover=recover, paths=("process",),
          policies=(policy_name,))


# Seeded mutations of the frontier (``oracle.MUTANTS``): each drops one of
# the reasons a node is looked at again, or the order it is looked at in,
# and each must fail the oracle's fixed grid.


@pytest.mark.parametrize(
    "mutation",
    [
        "no reset on detach",
        "no touch on decrement",
        "trim drops current entries",
        "woken set left unsorted",
    ],
)
def test_seeded_mutation_fails_the_differential(mutation, monkeypatch):
    assert_mutant_fails(mutation, monkeypatch)


def test_trimming_the_heaps_on_every_walk_changes_nothing(monkeypatch):
    """The scenarios are too small to outgrow ``2 * resident + SLACK``,
    so the trim is forced: what it drops must be what nobody waits on.
    The digest grid, then its scenarios again with a paused straggler."""
    monkeypatch.setattr(*ALWAYS_TRIM)
    check_grid("LMR4")
    for seed, shape in product(GRID_SEEDS, SHAPES):
        check("LMR4", shape, seed, recover="pause", paths=("process",))


def lockstep(fast, full, call):
    """Apply *call* to both merges; they must fail alike or not at all."""
    errors = []
    for merge in (fast, full):
        try:
            call(merge)
            errors.append(None)
        except (StreamViolationError, InputStateError) as exc:
            errors.append(type(exc))
    assert errors[0] == errors[1]
    return errors[0] is None


@settings(max_examples=300)
@given(
    seed=st.integers(0, 10**9), policy_name=st.sampled_from(sorted(POLICIES))
)
def test_frontier_stable_matches_the_full_walk_on_arbitrary_input(
    seed, policy_name
):
    """Not only on legal workloads: cancels and revisions of half-frozen
    events, inserts behind the stable point, revisions of events a stream
    never sent, a stream that leaves and rejoins with another guarantee.
    Whatever LMR4 makes of them, it makes the same of them with and
    without the frontier and the per-node verdicts.

    A seeded walk rather than a drawn op list: the interesting cases are
    chains (insert, freeze, revise *that* event, freeze again) that
    independent draws almost never line up.
    """
    rng = random.Random(seed)
    policy = POLICIES[policy_name]
    fast_out, full_out = [], []
    fast = LMergeR4(sink=fast_out.append, reclamation=policy)
    full = FullVisitR4(sink=full_out.append, reclamation=policy)
    streams = (0, 1, 2)
    for merge in (fast, full):
        for stream_id in streams:
            merge.attach(stream_id)
    held = {stream_id: [] for stream_id in streams}  # [payload, vs, ve]
    last_stable = dict.fromkeys(streams, 0)

    def some_ve(vs):
        return rng.choice([vs + 1, vs + 2, vs + 4, INFINITY])

    for _ in range(70):
        stream_id = rng.choice(streams)
        frontier = max(last_stable.values())
        kind = rng.choices(
            ["insert", "adjust", "stable", "roster"], [4, 4, 3, 1]
        )[0]
        if kind == "roster":
            if fast.is_attached(stream_id):
                call = lambda merge: merge.detach(stream_id)
            else:
                guarantee = rng.choice(
                    [-INFINITY, frontier - 2, frontier, frontier + 2]
                )
                call = lambda merge: merge.attach(stream_id, guarantee)
        elif not fast.is_attached(stream_id):
            continue
        elif kind == "insert":
            vs = max(0, frontier + rng.randint(-2, 3))
            event = [rng.randint(0, 1), vs, some_ve(vs)]
            held[stream_id].append(event)
            element = Insert(*event)
            call = lambda merge: merge.process(element, stream_id)
        elif kind == "adjust":
            if held[stream_id] and rng.random() < 0.9:
                event = rng.choice(held[stream_id])
            else:  # a version this stream never sent
                event = [rng.randint(0, 1), rng.randint(0, frontier + 1), 0]
                event[2] = some_ve(event[1])
            payload, vs, v_old = event
            event[2] = rng.choice([vs, some_ve(vs)])  # vs = cancel
            element = Adjust(payload, vs, v_old, event[2])
            call = lambda merge: merge.process(element, stream_id)
        else:
            last_stable[stream_id] += rng.randint(0, 2)
            element = Stable(last_stable[stream_id])
            call = lambda merge: merge.process(element, stream_id)
        if not lockstep(fast, full, call):
            return  # both refused the input; their state is now undefined
        assert fast_out == full_out, (kind, stream_id)
        assert fast._index.snapshot() == full._index.snapshot()
    assert fast.stable_scan_nodes <= full.stable_scan_nodes
    assert fast.pruned_nodes == full.pruned_nodes


# ----------------------------------------------------------------------
# How many nodes a stable looks at
# ----------------------------------------------------------------------

#: ``stable_scan_nodes`` of :func:`lagged_adversary` while the walk still
#: visited every half-frozen node (7dffe11 .. 4920b96).
HEAD_SCAN_NODES = 23_097
#: ... and now: exactly the nodes that had to be reconciled.
SCAN_NODES = 5_266


def lagged_adversary(count=3000, every=50, lag=1500, seed=3):
    """Open/close events, a stable every *every*; replicas 0 and 1 in
    step, replica 2 trailing by *lag* elements (lmbench's
    ``openclose_r4_lagged`` in miniature)."""
    rng = random.Random(seed)
    base = []
    closes = {}
    for i in range(count):
        opened = Insert((rng.randint(0, 9), i), i, INFINITY)
        base.append(opened)
        if rng.random() < 0.6:
            closes.setdefault(i + rng.randint(1, 120), []).append(opened)
        for event in closes.pop(i, ()):
            base.append(Adjust(event.payload, event.vs, INFINITY, i + 1))
        if i % every == every - 1:
            base.append(Stable(i))
    for k, element in enumerate(base):
        yield 0, element
        yield 1, element
        if k >= lag:
            yield 2, base[k - lag]


def test_only_changed_nodes_are_looked_at_on_the_lagged_adversary():
    merge = LMergeR4(reclamation=ReclamationPolicy())
    for stream_id in range(3):
        merge.attach(stream_id)
    touched = set()  # keys an input mutated since the last effective CTI
    t_prev = -INFINITY
    effective = 0
    for stream_id, element in lagged_adversary():
        if not isinstance(element, Stable):
            touched.add((element.vs, element.payload))
            merge.process(element, stream_id)
            continue
        t = element.vc
        if t <= merge.max_stable:
            merge.process(element, stream_id)
            continue
        allowed = set(touched)
        for node in merge._index.nodes():
            if node.vs >= t:
                break
            key = (node.vs, node.payload)
            if node.vs >= t_prev:
                allowed.add(key)  # newly half frozen
            elif any(
                t_prev <= ve <= t
                for tier in node.counts.values()
                for ve, _ in tier
            ):
                allowed.add(key)  # a version this CTI freezes
        before = merge.stable_reconciled_nodes
        scanned_before = merge.stable_scan_nodes
        merge.process(element, stream_id)
        reconciled = merge.stable_reconciled_nodes - before
        assert reconciled <= len(allowed), (t, reconciled, len(allowed))
        assert reconciled <= merge.stable_scan_nodes - scanned_before
        # The laggard never walks; what waits for it stays bounded.
        assert merge._frontier.pending() <= 2 * merge.index_nodes + 64
        touched.clear()
        t_prev = t
        effective += 1
    assert effective == 60
    # The laggard holds several times what a CTI changes, and none of
    # that is looked at.
    assert merge.stable_scan_nodes == SCAN_NODES
    assert merge.stable_scan_nodes * 4 < HEAD_SCAN_NODES


def worklists(frontier):
    return [*frontier._wake.values(), *frontier._due.values()]


def test_frontier_state_is_bounded_by_resident_nodes():
    """PR 8's guarantee, for the worklists: what they hold follows the
    resident nodes, not the input.  Events that end in the far future
    leave wake entries no walk will pass while the nodes are long pruned;
    a stream that walked once and then stalled never pops its own."""
    merge = LMergeR4(reclamation=ReclamationPolicy())
    for stream_id in range(3):
        merge.attach(stream_id)
    frontier = merge._frontier
    slack = frontier_module.SLACK
    for i in range(4000):
        element = Insert(("p", i), i, 10**9)
        for stream_id in range(3):
            merge.process(element, stream_id)
        if i % 10 == 9:
            # Stream 2 leads the first CTI and is silent from then on.
            for stream_id in (2, 0, 1) if i == 9 else (0, 1):
                merge.process(Stable(i), stream_id)
            assert merge.index_nodes <= 10
            for held in worklists(frontier):
                assert len(held) <= 2 * merge.index_nodes + slack
            assert frontier.pending() <= 6 * (2 * merge.index_nodes + slack)
    assert merge.pruned_nodes >= 3990


def test_frontier_state_is_bounded_on_a_key_revised_forever():
    """One node, revised on every CTI: each reconcile pushes a wake entry
    with a far-future bound and makes the last one stale."""
    merge = LMergeR4(reclamation=ReclamationPolicy())
    merge.attach(0)
    merge.attach(1)
    end = 10**9
    for stream_id in (0, 1):
        merge.process(Insert("p", 0, end), stream_id)
    for i in range(1, 500):
        # Every other revision returns to the same end: an entry equal to
        # the one the node carries can be stale too.
        new_end = 10**9 + (i % 2)
        for stream_id in (0, 1):
            merge.process(Adjust("p", 0, end, new_end), stream_id)
            merge.process(Stable(i), stream_id)
        end = new_end
        assert merge.index_nodes == 1
        for held in worklists(merge._frontier):
            assert len(held) <= 2 + frontier_module.SLACK
    assert merge.stable_reconciled_nodes >= 499


# ----------------------------------------------------------------------
# Snapshot format
# ----------------------------------------------------------------------

#: ``pickle.dumps(In3T.snapshot(), protocol=4)`` written by the commit
#: before the flat third tier (7dffe11), when each tier was a red-black
#: tree: duplicates, two versions on one stream, a tier emptied by a
#: cancel, float timestamps, a non-integer stream id.
HEAD_SNAPSHOT = base64.b64decode(
    """
    gASVLAEAAAAAAABdlChLAYwBQZR9lChLAF2UKEsFSwKGlEsJSwGGlGWMFXJlcHJvLnN0cnVj
    dHVyZXMuaW4ydJSMD19yZXN0b3JlX291dHB1dJSTlClSlF2UKEsFSwKGlEsJSwGGlGVLAV2U
    KEsFSwGGlEd/8AAAAAAAAEsBhpRldYeUSwKMAUKUSwKGlH2UKEsAXZRLB0sBhpRhaAldlEd/
    8AAAAAAAAEsBhpRhSwFdlEsHSwGGlGF1h5RLA4wBQ5R9lChLAF2UaAldlEsESwGGlGF1h5RH
    QBIAAAAAAACMAUWUfZQoSwFdlEdAGQAAAAAAAEsBhpRhaAldlEdAGQAAAAAAAEsBhpRhdYeU
    SwaMAUSUfZQojARsYXRllF2USwhLAYaUYWgJXZRLCEsBhpRhdYeUZS4=
    """
)


def test_head_format_snapshot_round_trips_byte_identically():
    records = pickle.loads(HEAD_SNAPSHOT)
    index = In3T()
    index.restore(records)
    assert len(index) == 5
    node = index.find(1, "A")
    assert node.ve_counts(0) == [(5, 2), (9, 1)]
    assert node.total_count(0) == 3
    assert node.max_ve(1) == INFINITY
    assert index.find(3, "C").total_count(0) == 0
    assert pickle.dumps(index.snapshot(), protocol=4) == HEAD_SNAPSHOT
