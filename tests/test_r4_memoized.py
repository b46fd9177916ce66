"""LMR4's frontier-driven stable() against the full walk it replaced.

``LMergeR4._stable`` looks only at the nodes its frontier hands out —
new to the freezing stream, mutated, past their recorded bound, or
released by the settle bound — and on those skips the reconcile half
while the recorded verdict still holds.  :class:`FullVisitR4` forgets
every verdict and resets the frontier before every ``stable()``, which is
the walk as it was before either: every half-frozen node visited and
re-derived on every CTI.  The two must be indistinguishable from outside
— same output elements in the same order, same resident index after
every step.
"""

from __future__ import annotations

import base64
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lmerge import LMergeR4, ReclamationPolicy
from repro.lmerge.base import InputStateError
from repro.streams.divergence import diverge, duplicate_inserts
from repro.structures import frontier as frontier_module
from repro.structures.frontier import Frontier
from repro.structures.in3t import In3T, In3TNode
from repro.temporal.elements import Adjust, Insert, Stable
from repro.temporal.tdb import StreamViolationError, reconstitute
from repro.temporal.time import INFINITY

from conftest import small_stream


class FullVisitR4(LMergeR4):
    """The reference: no verdict and no frontier survive from one
    stable() to the next, so each one visits every node below *t*."""

    def _stable(self, t, stream_id):
        for node in self._index.nodes():
            node.reconciled = node.agreement = None
        self._frontier.reset(self._inputs)
        super()._stable(t, stream_id)


POLICIES = {
    "none": None,
    "prune": ReclamationPolicy(),
    "prune_lagged": ReclamationPolicy(settle_lag=40),
    "spill": ReclamationPolicy(spill=True, run_width=16, hot_runs=1),
}

STRAGGLER = 1
LAGGARD = 2
JOINER = 3


def scenario(seed: int, disorder: float, duplicates: bool, lifetime: int = 100):
    """A delivery script — ``(op, stream_id, element)`` triples.

    Two leaders; a trailing replica that later races ahead (so a stream
    that never walked becomes the one that walks, and must see every node
    below *t*) and is detached at some point of that; a replica that
    attaches late and replays from scratch; a leader that stalls and is
    detached while the others' nodes wait on it (prunable from then on
    with no mutation to announce it); one snapshot/restore.
    """
    rng = random.Random(seed)
    reference = small_stream(
        count=140,
        seed=seed % 31,
        disorder=disorder,
        stable_freq=0.12,
        event_duration=lifetime,
    )
    if duplicates:
        reference = duplicate_inserts(reference, random.Random(seed), fraction=0.2)
    inputs = [
        list(
            diverge(
                reference,
                seed=seed * 7 + i,
                speculate_fraction=0.4,
                stable_keep_probability=0.8,
            )
        )
        for i in range(4)
    ]
    lag = rng.randint(20, 120)
    join_at = rng.randint(40, 200)
    overtake_at = rng.randint(80, 220)
    detach_at = rng.randint(150, 550)
    stall_at = rng.randint(120, 350)
    drop_at = stall_at + rng.randint(40, 200)
    snapshot_at = rng.randint(30, 400)
    cursors = [0, 0, 0, 0]
    live = [0, STRAGGLER, LAGGARD]
    script = [("attach", stream_id, None) for stream_id in live]
    step = 0

    def held_back(i):
        if i == LAGGARD:
            return step < overtake_at and cursors[i] + lag >= cursors[0]
        return i == STRAGGLER and step >= stall_at

    while any(cursors[i] < len(inputs[i]) for i in live):
        step += 1
        if step == join_at:
            script.append(("attach", JOINER, None))
            live.append(JOINER)
        if step == detach_at and LAGGARD in live:
            script.append(("detach", LAGGARD, None))
            live.remove(LAGGARD)
        if step == drop_at and STRAGGLER in live:
            script.append(("detach", STRAGGLER, None))
            live.remove(STRAGGLER)
        if step == snapshot_at:
            script.append(("snapshot", None, None))
        unfinished = [i for i in live if cursors[i] < len(inputs[i])]
        if not unfinished:
            break  # this step's detach dropped the last one with input left
        # Only held-back replicas have input left: let them drain.
        ready = [i for i in unfinished if not held_back(i)] or unfinished
        # The joiner replays history and the overtaking laggard has a lag
        # to make up (and then a lead to keep): fed faster until they have.
        weights = [
            3 if i == JOINER and cursors[i] < cursors[0]
            else 6 if i == LAGGARD and cursors[i] < cursors[0] + 15
            else 1
            for i in ready
        ]
        stream_id = rng.choices(ready, weights)[0]
        script.append(("feed", stream_id, inputs[stream_id][cursors[stream_id]]))
        cursors[stream_id] += 1
    return reference, script


def restored(merge, cls, policy, out):
    fresh = cls(sink=out.append, reclamation=policy)
    fresh.restore_state(pickle.loads(pickle.dumps(merge.snapshot_state())))
    return fresh


def run_scenario(
    seed, disorder, duplicates, policy_name, lifetime=100, fast_cls=LMergeR4
):
    """Drive :func:`scenario` through LMergeR4 and the full-walk
    reference in lockstep; any visible difference is an AssertionError."""
    policy = POLICIES[policy_name]
    reference, script = scenario(seed, disorder, duplicates, lifetime)
    fast_out, full_out = [], []
    fast = fast_cls(sink=fast_out.append, reclamation=policy)
    full = FullVisitR4(sink=full_out.append, reclamation=policy)
    checked = 0
    for op, stream_id, element in script:
        if op == "attach":
            # Replays everything from scratch; vouches from here on.
            guarantee = fast.max_stable if stream_id == JOINER else -INFINITY
            fast.attach(stream_id, guarantee)
            full.attach(stream_id, guarantee)
        elif op == "detach":
            fast.detach(stream_id)
            full.detach(stream_id)
        elif op == "snapshot":
            fast = restored(fast, fast_cls, policy, fast_out)
            full = restored(full, FullVisitR4, policy, full_out)
        else:
            fast.process(element, stream_id)
            full.process(element, stream_id)
        assert fast_out[checked:] == full_out[checked:], (op, stream_id, element)
        checked = len(fast_out)
        assert len(full_out) == checked
        assert fast.index_nodes == full.index_nodes, (op, stream_id, element)
    assert fast.stable_scan_nodes <= full.stable_scan_nodes
    assert fast.pruned_nodes == full.pruned_nodes
    assert fast.dropped_frozen == full.dropped_frozen
    assert fast.stable_reconciled_nodes <= full.stable_reconciled_nodes
    assert fast._index.snapshot() == full._index.snapshot()
    if policy is None:
        # The script is a legal R4 workload, not just a consistent one.
        assert reconstitute(fast_out) == reference.tdb()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    disorder=st.sampled_from([0.0, 0.3, 0.6]),
    duplicates=st.booleans(),
    policy_name=st.sampled_from(sorted(POLICIES)),
    lifetime=st.sampled_from([100, 600]),
)
def test_frontier_stable_is_indistinguishable_from_the_full_walk(
    seed, disorder, duplicates, policy_name, lifetime
):
    run_scenario(seed, disorder, duplicates, policy_name, lifetime)


# Seeded mutations of the frontier: each drops one of the reasons a node
# is looked at again (or the order it is looked at in), and each must make
# the differential above fail — on a fixed grid, so this cannot flake.
# FullVisitR4 resets the frontier before every stable and is immune.


_decrement = In3TNode.decrement


def _decrement_without_touch(self, stream, ve, by=1):
    log, self._touched = self._touched, []
    try:
        _decrement(self, stream, ve, by)
    finally:
        self._touched = log


class NoResetOnDetach(LMergeR4):
    def _on_detach(self, stream_id):
        pass


#: Every close trims every heap, not only the ones that outgrew the index.
ALWAYS_TRIM = (frontier_module, "SLACK", -(10**9))

MUTATIONS = {
    "no touch on decrement": (
        LMergeR4, [(In3TNode, "decrement", _decrement_without_touch)]
    ),
    "no reset on detach": (NoResetOnDetach, []),
    "no settle-lag wake": (
        LMergeR4, [(Frontier, "park", lambda self, node: None)]
    ),
    "woken set left unsorted": (
        LMergeR4, [(frontier_module, "sorted", lambda nodes, key: list(nodes))]
    ),
    "trim drops current entries": (
        LMergeR4,
        [ALWAYS_TRIM, (frontier_module, "_trim", lambda heap, current: heap.clear())],
    ),
}


def grid():
    return itertools.product(
        range(3), [0.0, 0.3, 0.6], [False, True], sorted(POLICIES), [100, 600]
    )


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_differential(mutation, monkeypatch):
    fast_cls, patches = MUTATIONS[mutation]
    for patch in patches:
        monkeypatch.setattr(*patch, raising=False)
    with pytest.raises(AssertionError):
        for args in grid():
            run_scenario(*args, fast_cls=fast_cls)


def test_trimming_the_heaps_on_every_walk_changes_nothing(monkeypatch):
    """The scenarios are too small to outgrow ``2 * resident + SLACK``,
    so the trim is forced: what it drops must be what nobody waits on."""
    monkeypatch.setattr(*ALWAYS_TRIM)
    for args in grid():
        run_scenario(*args)


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


@settings(max_examples=300, deadline=None)
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
    return [
        frontier._parked, *frontier._wake.values(), *frontier._due.values()
    ]


@pytest.mark.parametrize("settle_lag", [0, 50])
def test_frontier_state_is_bounded_by_resident_nodes(settle_lag):
    """PR 8's guarantee, for the worklists: what they hold follows the
    resident nodes, not the input.  Events that end in the far future
    leave wake entries no walk will pass while the nodes are long pruned;
    a stream that walked once and then stalled never pops its own."""
    merge = LMergeR4(reclamation=ReclamationPolicy(settle_lag=settle_lag))
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
            assert merge.index_nodes <= settle_lag + 10
            for held in worklists(frontier):
                assert len(held) <= 2 * merge.index_nodes + slack
            assert frontier.pending() <= 7 * (2 * merge.index_nodes + slack)
    assert merge.pruned_nodes >= 3990 - settle_lag


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
