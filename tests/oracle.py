"""The merge-equivalence oracle: one scenario, one step script, one runner.

LMerge's one guarantee — its output has the TDB of its inputs, however
they diverge physically — is checked here for every suite.
:func:`scenario` draws a reference stream and four replicas legal for a
variant's restriction; :func:`script` turns them into steps (feed a
chunk, deliver a stable run, attach with a guarantee, detach, snapshot)
under a batch-size schedule; :func:`check` runs one script through every
ingest path and reclamation setting, :func:`check_sharded` through a
sharded plan.  ``DIGESTS`` pins fixed cells' output by sha256, recorded
from an earlier tree (``python tests/oracle.py`` prints the current
table); ``MUTANTS`` are seeded bugs :func:`check_grid` must catch.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from collections import namedtuple
from dataclasses import dataclass
from itertools import cycle, groupby

import pytest

from repro.engine.columnar import ColumnBatch
from repro.lmerge import (
    LMergeBase,
    LMergeR0,
    LMergeR1,
    LMergeR2,
    LMergeR3,
    LMergeR3Naive,
    LMergeR4,
    ReclamationPolicy,
    shard,
)
from repro.streams.divergence import diverge, duplicate_inserts, thin_stables
from repro.streams.generator import GeneratorConfig, StreamGenerator
from repro.streams.properties import Restriction
from repro.structures import frontier as frontier_module
from repro.structures.in3t import _BY_KEY, In3T, In3TNode
from repro.temporal.elements import Insert, Stable
from repro.temporal.tdb import TDB, reconstitute
from repro.temporal.time import INFINITY, MINUS_INFINITY
from repro.theory.compatibility import (
    check_r3_compatibility,
    check_r4_conformance,
)

from conftest import data_by_key

VARIANTS = {
    "LMR0": LMergeR0,
    "LMR1": LMergeR1,
    "LMR2": LMergeR2,
    "LMR3+": LMergeR3,
    "LMR3-": LMergeR3Naive,
    "LMR4": LMergeR4,
}
POLICIES = {"none": None, "prune": ReclamationPolicy()}


def _wire(merge, chunk, sid, coalesce_stables=False):
    batch = ColumnBatch.decode(ColumnBatch.from_elements(list(chunk)).encode())
    merge.process_columns(batch, sid, coalesce_stables=coalesce_stables)


#: The ingest paths.  ``columns`` hands over what a worker gets off the
#: ring: a wire-decoded batch whose timestamps went through the column
#: typecodes (``5.0`` may come back for ``5``).  ``coalesce`` is the
#: same, coalescing stable runs as a sharded worker does.
FEEDS = {
    "process": lambda merge, chunk, sid: [merge.process(e, sid) for e in chunk],
    "batch": lambda merge, chunk, sid: merge.process_batch(chunk, sid),
    "coalesce": lambda merge, chunk, sid: _wire(merge, chunk, sid, True),
    "columns": _wire,
}


class FullVisitR4(LMergeR4):
    """LMR4's lockstep reference: no verdict and no frontier survive from
    one stable() to the next, so each one visits every node below *t*."""

    def _stable(self, t, stream_id):
        for node in self._index.nodes():
            node.reconciled = node.agreement = None
        self._frontier.reset(self._inputs)
        super()._stable(t, stream_id)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """How the reference stream is drawn and how far replicas diverge."""

    count: int = 140
    disorder: float = 0.3
    max_gap: int = 20
    stable_freq: float = 0.12
    lifetime: int = 100
    speculate: float = 0.4
    stable_keep: float = 0.8
    #: Fraction of inserts repeated in an R4 reference.
    duplicates: float = 0.2


SHAPES = {
    "divergent": Shape(),
    # Many same-Vs groups: In3T buckets, R1 counters, R2's hash.
    "ties": Shape(max_gap=1, lifetime=40),
    # Events outlive many CTIs: LMR4's frontier carries wake entries.
    "long": Shape(disorder=0.6, lifetime=600, stable_keep=1.0),
}


def _restriction(variant):
    # LMR3- declares none: it is the naive algorithm for R3 inputs.
    restriction = VARIANTS[variant].restriction
    return Restriction.R3 if restriction is None else restriction


Scenario = namedtuple("Scenario", "reference replicas")


def scenario(variant, shape="divergent", seed=0, replicas=4):
    """A reference stream and *replicas* presentations legal for
    *variant*'s restriction (*shape* is a ``SHAPES`` name or a Shape)."""
    shape = SHAPES.get(shape, shape)
    restriction = _restriction(variant)
    ordered = restriction <= Restriction.R2
    config = GeneratorConfig(
        count=shape.count,
        seed=seed,
        disorder=0.0 if ordered else shape.disorder,
        min_gap=1 if restriction is Restriction.R0 else 0,
        max_gap=shape.max_gap,
        stable_freq=shape.stable_freq,
        event_duration=shape.lifetime,
        payload_blob_bytes=2,
    )
    reference = StreamGenerator(config).generate()
    if restriction is Restriction.R4 and shape.duplicates:
        reference = duplicate_inserts(
            reference, random.Random(seed), fraction=shape.duplicates
        )
    streams = []
    for index in range(replicas):
        rng = random.Random(seed * 7 + index)
        if not ordered:
            replica = diverge(
                reference, seed * 7 + index, shape.speculate,
                stable_keep_probability=shape.stable_keep,
            )
            streams.append(list(replica))
            continue
        replica = list(thin_stables(reference, rng, shape.stable_keep))
        if restriction is Restriction.R2:
            # R2's freedom: each input orders a same-Vs group its own way.
            shuffled = []
            key = lambda e: e.vs if e.__class__ is Insert else id(e)
            for _, group in groupby(replica, key=key):
                group = list(group)
                rng.shuffle(group)
                shuffled.extend(group)
            replica = shuffled
        streams.append(replica)
    return Scenario(reference, streams)


# ----------------------------------------------------------------------
# Step scripts
# ----------------------------------------------------------------------

#: The batch-size schedule, cycled over every data chunk of a script.
BATCHES = (1, 5, 2, 16, 3, 64)
ANCHOR, STRAGGLER, LAGGARD, JOINER = range(4)
#: An attach guarantee resolved at run time to the merge's max_stable.
NOW = "now"


def _pieces(replica, sizes):
    """One replica as deliveries: data chunks sized by *sizes*, and each
    stable a step of its own, doubled into ``Stable(vc - 1), Stable(vc)``
    where that is a weaker promise (a run for coalescing to absorb)."""
    steps, data, last = [], [], MINUS_INFINITY

    def cut():
        while data:
            take = next(sizes)
            steps.append(("feed", data[:take]))
            del data[:take]

    for element in replica:
        if element.__class__ is not Stable:
            data.append(element)
            continue
        cut()
        vc = element.vc
        run = (Stable(vc - 1), element) if last < vc - 1 < vc else (element,)
        steps.append(("stable", run))
        last = vc
    cut()
    return steps


def script(
    replicas, seed, batches=BATCHES, roster=True, recover=None, lead=True
):
    """The delivery script of *replicas*: ``(kind, stream_id, elements)``
    deliveries, ``("attach", stream_id, guarantee)``, ``("detach",
    stream_id)`` and ``("snapshot",)``.

    Without *roster* all replicas attach up front and interleave at
    random.  With it the four roles play out at seeded points; *recover*
    (``"pause"`` or ``"gap"``) brings the dropped straggler back, either
    where it stopped with the current output stable as its guarantee, or
    past a lost backlog with an infinite one (it may then drive progress
    but vouches for nothing).  Without *lead* a replica leaves only from
    at or behind the anchor: LMR1 drops a departed input's same-Vs count,
    so one that leads the current group takes its high-water mark along.
    """
    rng = random.Random(seed)
    sizes = cycle(batches)
    queues = [_pieces(replica, sizes) for replica in replicas]
    cursors = [0] * len(queues)
    delivered = [0] * len(queues)  # data elements, per replica
    steps = []

    def deliver(sid):
        kind, elements = queues[sid][cursors[sid]]
        cursors[sid] += 1
        delivered[sid] += kind == "feed" and len(elements)
        steps.append((kind, sid, elements))

    if not roster:
        live = list(range(len(queues)))
        steps.extend(("attach", sid, MINUS_INFINITY) for sid in live)
        while live:
            sid = rng.choice(live)
            deliver(sid)
            if cursors[sid] == len(queues[sid]):
                live.remove(sid)
        return steps
    total = sum(map(len, queues))

    def at(lo, hi):
        return int(rng.uniform(lo, hi) * total)

    lag = rng.randint(2, 12)
    join_at, overtake_at, detach_at = at(0.05, 0.4), at(0.15, 0.45), at(0.3, 0.95)
    stall_at = at(0.2, 0.6)
    drop_at = stall_at + at(0.05, 0.35)
    rejoin_at = drop_at + at(0.05, 0.25)
    snapshot_at = at(0.05, 0.7)
    live = [ANCHOR, STRAGGLER, LAGGARD]
    steps.extend(("attach", sid, MINUS_INFINITY) for sid in live)
    stalled = dropped = False
    step = 0

    def held_back(sid):
        if sid == LAGGARD:
            return step < overtake_at and cursors[sid] + lag >= cursors[ANCHOR]
        return sid == STRAGGLER and stalled

    def leaves(sid, at):
        behind = lead or delivered[sid] <= delivered[ANCHOR]
        return step >= at and sid in live and behind

    while any(cursors[sid] < len(queues[sid]) for sid in live):
        step += 1
        if step == join_at:
            steps.append(("attach", JOINER, rng.choice([NOW, MINUS_INFINITY])))
            live.append(JOINER)
        if step == stall_at:
            stalled = True
        if leaves(LAGGARD, detach_at):
            steps.append(("detach", LAGGARD))
            live.remove(LAGGARD)
        if not dropped and leaves(STRAGGLER, drop_at):
            steps.append(("detach", STRAGGLER))
            live.remove(STRAGGLER)
            dropped = True
        if step >= rejoin_at and recover and dropped and STRAGGLER not in live:
            guarantee = NOW
            if recover == "gap":
                guarantee = INFINITY
                cursors[STRAGGLER] += rng.randint(1, 8)
            steps.append(("attach", STRAGGLER, guarantee))
            live.append(STRAGGLER)
            stalled = False
        if step == snapshot_at:
            steps.append(("snapshot",))
        unfinished = [sid for sid in live if cursors[sid] < len(queues[sid])]
        if not unfinished:
            break
        # Only held-back replicas have input left: let them drain.
        ready = [sid for sid in unfinished if not held_back(sid)] or unfinished
        # The joiner replays history and the overtaking laggard has a lag
        # to make up (and then a lead to keep): fed faster until they have.
        weights = [
            3 if sid == JOINER and cursors[sid] < cursors[ANCHOR]
            else 6 if sid == LAGGARD and cursors[sid] < cursors[ANCHOR] + 3
            else 1
            for sid in ready
        ]
        deliver(rng.choices(ready, weights)[0])
    return steps


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def apply(merge, step, feed, fresh):
    """Apply one script step; returns the merge (a restored one after a
    snapshot, or *merge* itself when *fresh* is None)."""
    kind = step[0]
    if kind == "attach":
        merge.attach(step[1], merge.max_stable if step[2] == NOW else step[2])
    elif kind == "detach":
        merge.detach(step[1])
    elif kind == "snapshot":
        if fresh is not None and restorable(merge):
            state = pickle.loads(pickle.dumps(merge.snapshot_state()))
            merge = fresh()
            merge.restore_state(state)
    else:
        feed(merge, step[2], step[1])
    return merge


def restorable(merge):
    """Whether *merge*'s snapshot carries its state.  LMR3- keeps
    per-input indexes but has no snapshot hooks, so the step skips it."""
    return type(merge)._snapshot_extra is not LMergeBase._snapshot_extra


def run(make, steps, path="process", policy="none", snapshots=True, watch=()):
    """Drive *steps* through ``make(sink=, reclamation=)`` on one ingest
    path; ``watch`` callables see ``(step, merge, output)`` after every
    step.  Returns the output and the last live merge."""
    out = []
    fresh = lambda: make(sink=out.append, reclamation=POLICIES[policy])
    merge = fresh()
    feed = FEEDS[path]
    for step in steps:
        merge = apply(merge, step, feed, fresh if snapshots else None)
        for watcher in watch:
            watcher(step, merge, out)
    return out, merge


class Conformance:
    """Section III-D at every stable step: each of *conditions* (C1-C3,
    R4 conformance) of the output prefix against every input prefix, the
    output applied to a strict TDB (which raises on any contract
    violation)."""

    def __init__(self, conditions):
        self.conditions = conditions
        self.inputs = {}
        self.output = TDB()
        self.seen = 0

    def __call__(self, step, merge, out):
        if step[0] in ("feed", "stable"):
            tdb = self.inputs.setdefault(step[1], TDB())
            for element in step[2]:
                tdb.apply(element)
        for element in out[self.seen :]:
            self.output.apply(element)
        self.seen = len(out)
        if step[0] == "stable":
            for condition in self.conditions:
                violations = condition(list(self.inputs.values()), self.output)
                assert not violations, "; ".join(map(str, violations))


class Lockstep:
    """FullVisitR4 driven beside an LMR4 run: the same output after every
    step and the same resident index, for no more reconcile work."""

    def __init__(self, policy):
        self.out = []
        self.fresh = lambda: FullVisitR4(
            sink=self.out.append, reclamation=POLICIES[policy]
        )
        self.full = self.fresh()
        self.fast = None
        self.seen = 0

    def __call__(self, step, merge, out):
        self.full = apply(self.full, step, FEEDS["process"], self.fresh)
        assert out[self.seen :] == self.out[self.seen :], step
        assert len(out) == len(self.out)
        self.seen = len(out)
        assert merge.index_nodes == self.full.index_nodes, step
        self.fast = merge

    def finish(self):
        fast, full = self.fast, self.full
        assert fast.stable_scan_nodes <= full.stable_scan_nodes
        assert fast.stable_reconciled_nodes <= full.stable_reconciled_nodes
        assert fast.pruned_nodes == full.pruned_nodes
        assert fast.dropped_frozen == full.dropped_frozen
        assert fast._index.snapshot() == full._index.snapshot()


def digest(output):
    """``(elements, sha256 prefix)`` of an output's element reprs."""
    text = "\n".join(repr(element) for element in output)
    return len(output), hashlib.sha256(text.encode()).hexdigest()[:16]


def check(
    variant,
    shape="divergent",
    seed=0,
    *,
    make=None,
    roster=True,
    recover=None,
    batches=BATCHES,
    paths=tuple(FEEDS),
    policies=tuple(POLICIES),
    digests=None,
):
    """Run one scenario's script through *paths* x *policies*.  The base
    (first) cell has the reference TDB and, unless a *recover* gap broke
    the input prefixes, C1-C3 at every stable (R4: conformance, and C1-C3
    too where the shape draws no duplicates); every other cell, and a
    process run without the snapshot step, has its output elements,
    MergeStats and max_stable (coalesced: its TDB, from no more stables);
    LMR4 keeps step with FullVisitR4.  *digests* is an expected
    ``(elements, sha256 prefix)``: it pins the output to one known to
    conform, so the conformance walk and the run without the snapshot
    step, which the hypothesis suites make, are skipped.  *make*
    replaces the class.
    """
    make = make or VARIANTS[variant]
    case = scenario(variant, shape, seed)
    lead = make().restriction is not Restriction.R1
    steps = script(case.replicas, seed, batches, roster, recover, lead)
    r4 = variant == "LMR4"
    # C1-C3 presume the key property, which R4's duplicate inserts break.
    conditions = [check_r4_conformance] if r4 else []
    if not (r4 and SHAPES.get(shape, shape).duplicates):
        conditions.append(check_r3_compatibility)
    straight = () if digests else (False,)
    base = None
    for policy in policies:
        for path in paths:
            for snapshots in (True, *straight) if path == "process" else (True,):
                watch = []
                if path == "process" and snapshots and r4:
                    watch.append(Lockstep(policy))
                if base is None and recover != "gap" and not digests:
                    watch.append(Conformance(conditions))
                out, merge = run(make, steps, path, policy, snapshots, watch)
                for watcher in watch:
                    getattr(watcher, "finish", lambda: None)()
                cell = (variant, shape, seed, policy, path, snapshots)
                if base is None:
                    assert reconstitute(out) == case.reference.tdb(), cell
                    base = out, merge.stats, merge.max_stable
                elif path == "coalesce":
                    assert reconstitute(out) == reconstitute(base[0]), cell
                    assert merge.stats.stables_out <= base[1].stables_out, cell
                    assert merge.stats.stables_in == base[1].stables_in, cell
                    continue
                else:
                    assert out == base[0], cell
                    assert (merge.stats, merge.max_stable) == base[1:], cell
                # Wire-decoded timestamps may come back as equal floats,
                # which print differently.
                if digests is not None and path != "columns":
                    assert digest(out) == digests, cell
    return base[0]


def check_sharded(
    variant, shape="divergent", seed=0, *, shards=3, batch_size=64, **options
):
    """A sharded plan over one scenario (round-robin batches of
    *batch_size*) has the reference TDB, and R3/R4 plans, whose decisions
    are key-local, the per-key output of the unsharded merge fed the same
    batches.  *options* go to ``shard()``; ``reclamation`` reaches the
    unsharded merge too."""
    case = scenario(variant, shape, seed)
    cls = VARIANTS[variant]
    out = shard(cls, shards, **options).merge(
        case.replicas, "round_robin", 0, batch_size
    )
    assert reconstitute(out) == case.reference.tdb()
    if _restriction(variant) >= Restriction.R3:
        flat = cls(reclamation=options.get("reclamation"))
        flat.merge_batched(case.replicas, "round_robin", 0, batch_size)
        assert data_by_key(out) == data_by_key(flat.output)


# ----------------------------------------------------------------------
# Frozen digests and seeded mutants
# ----------------------------------------------------------------------

#: The grid's seeds: every mutant fails at two or three of them on its
#: own.  The script is the default roster one.
GRID_SEEDS = (11, 12, 13)
#: ``(seed, shape, variant) -> (elements, sha256 prefix)`` of the
#: script's output, under either reclamation policy.  Re-record only in a
#: change whose CHANGES entry names the cells that moved and why.
DIGESTS = {
    (11, 'divergent', 'LMR0'): (150, '85eebbc590f9a48b'),
    (11, 'divergent', 'LMR1'): (149, '0daaad29ea799fd2'),
    (11, 'divergent', 'LMR2'): (149, '07519c41d3a1be3d'),
    (11, 'divergent', 'LMR3+'): (201, '62399aeb77a0d4cf'),
    (11, 'divergent', 'LMR3-'): (201, '62399aeb77a0d4cf'),
    (11, 'divergent', 'LMR4'): (242, '6fb89914cd275a8f'),
    (11, 'ties', 'LMR0'): (154, 'b938fd4ad33b9ebd'),
    (11, 'ties', 'LMR1'): (149, 'c609ec298364de73'),
    (11, 'ties', 'LMR2'): (149, 'b77a895edc7334a4'),
    (11, 'ties', 'LMR3+'): (209, 'b9cee25b564f4c4c'),
    (11, 'ties', 'LMR3-'): (209, 'b9cee25b564f4c4c'),
    (11, 'ties', 'LMR4'): (245, '5a0ec912e5895de4'),
    (11, 'long', 'LMR0'): (154, 'e69a0e1098a51fe7'),
    (11, 'long', 'LMR1'): (155, '194c3938e6ca9192'),
    (11, 'long', 'LMR2'): (155, '9cd7447de29f7e40'),
    (11, 'long', 'LMR3+'): (207, 'b085fa5d3c9c3cee'),
    (11, 'long', 'LMR3-'): (207, 'b085fa5d3c9c3cee'),
    (11, 'long', 'LMR4'): (239, '5eabf29df64ad2cb'),
    (12, 'divergent', 'LMR0'): (148, '2eb8f63230561df5'),
    (12, 'divergent', 'LMR1'): (148, 'b7c973ee3fd3973f'),
    (12, 'divergent', 'LMR2'): (148, 'e20b16099cdb0cb8'),
    (12, 'divergent', 'LMR3+'): (205, '08adb6fc7a73aeca'),
    (12, 'divergent', 'LMR3-'): (205, '08adb6fc7a73aeca'),
    (12, 'divergent', 'LMR4'): (250, 'dee372b91c939573'),
    (12, 'ties', 'LMR0'): (149, '911249e48612a88a'),
    (12, 'ties', 'LMR1'): (148, 'db63f467312a14cb'),
    (12, 'ties', 'LMR2'): (148, 'b709b012902159ac'),
    (12, 'ties', 'LMR3+'): (199, 'f25a32806709146a'),
    (12, 'ties', 'LMR3-'): (199, 'f25a32806709146a'),
    (12, 'ties', 'LMR4'): (244, 'bbbe83045efb14f4'),
    (12, 'long', 'LMR0'): (150, '01c6200a97c79ce1'),
    (12, 'long', 'LMR1'): (150, '8ca4b56a062f8f5d'),
    (12, 'long', 'LMR2'): (150, 'c13230495991eb81'),
    (12, 'long', 'LMR3+'): (200, '1091e452ab707e63'),
    (12, 'long', 'LMR3-'): (200, '1091e452ab707e63'),
    (12, 'long', 'LMR4'): (243, '568aa46999951025'),
    (13, 'divergent', 'LMR0'): (149, '48fbe6469a52993e'),
    (13, 'divergent', 'LMR1'): (149, 'e577633a8b00fd30'),
    (13, 'divergent', 'LMR2'): (149, 'e227232bb164e092'),
    (13, 'divergent', 'LMR3+'): (204, 'b13612a61ac24315'),
    (13, 'divergent', 'LMR3-'): (204, 'b13612a61ac24315'),
    (13, 'divergent', 'LMR4'): (242, 'c8c9b84db11ca072'),
    (13, 'ties', 'LMR0'): (147, 'c89930279c5b7cce'),
    (13, 'ties', 'LMR1'): (146, 'fdfe4241f6fb0411'),
    (13, 'ties', 'LMR2'): (146, 'f52953ce1be1ef98'),
    (13, 'ties', 'LMR3+'): (189, '0e11e2e0e28d6cd8'),
    (13, 'ties', 'LMR3-'): (189, '0e11e2e0e28d6cd8'),
    (13, 'ties', 'LMR4'): (235, 'bb41b7b622a62ab6'),
    (13, 'long', 'LMR0'): (155, 'cc69dd75e64ccb48'),
    (13, 'long', 'LMR1'): (155, '6fb6a35eb721a397'),
    (13, 'long', 'LMR2'): (155, '6373911f0ecd3bf1'),
    (13, 'long', 'LMR3+'): (212, '4625dc3c08f65401'),
    (13, 'long', 'LMR3-'): (212, '4625dc3c08f65401'),
    (13, 'long', 'LMR4'): (246, '9bcc34427b6d3ecb'),
}


def check_grid(variant=None):
    """Every digest cell (of *variant*, if given) through :func:`check`
    on the paths the digests pin (the hypothesis suites cover the rest)."""
    for (seed, shape_name, name), expected in sorted(DIGESTS.items()):
        if variant in (None, name):
            check(name, shape_name, seed, paths=("process", "batch"),
                  digests=expected)


def assert_mutant_fails(name, monkeypatch):
    """Install mutant *name* and require :func:`check_grid` to fail an
    assertion (the emptied-Vs mutant: to walk into the Vs it left)."""
    variant, cls, patches = MUTANTS[name]
    if cls is not None:
        monkeypatch.setitem(VARIANTS, variant, cls)
    for patch in patches:
        monkeypatch.setattr(*patch, raising=False)
    with pytest.raises((AssertionError, KeyError)):
        check_grid(variant)


_decrement = In3TNode.decrement


def _decrement_without_touch(self, stream, ve, by=1):
    log, self._touched = self._touched, []
    try:
        _decrement(self, stream, ve, by)
    finally:
        self._touched = log


class _NoResetOnDetach(LMergeR4):
    def _on_detach(self, stream_id):
        pass


def _walk_ties_reversed(self, keys):
    for vs in keys:
        yield from sorted(self._nodes[vs].values(), key=_BY_KEY, reverse=True)


def _unfile_keeping_emptied_vs(self, nodes):
    for node in nodes:
        bucket = self._nodes[node.vs]
        del bucket[node.payload]
        if not bucket:
            del self._nodes[node.vs]
    self._size -= len(nodes)


class _StuckTieCounterR1(LMergeR1):
    """A run's tie zone leaves the stream's same-Vs counter unmoved."""

    def _admit(self, vss, lo, hi, stream_id, rows):
        before = self._max_vs, self._same_vs_count[stream_id]
        super()._admit(vss, lo, hi, stream_id, rows)
        if self._max_vs == before[0]:
            self._same_vs_count[stream_id] = before[1]


class _ForgetfulR2(LMergeR2):
    """A run that moves MaxVs forgets the last group it emitted."""

    def _admit(self, vss, lo, hi, rows):
        moved = vss[hi - 1] > self._max_vs
        super()._admit(vss, lo, hi, rows)
        if moved:
            self._hash.clear()


#: Every close trims every heap, not only the ones that outgrew the index.
ALWAYS_TRIM = (frontier_module, "SLACK", -(10**9))

#: ``name -> (variant, replacement class or None, monkeypatches)``.
MUTANTS = {
    # LMR4's frontier: each drops a reason a node is looked at again, or
    # the order it is looked at in.  FullVisitR4 is immune to all four.
    "no touch on decrement": (
        "LMR4", None, [(In3TNode, "decrement", _decrement_without_touch)]
    ),
    "no reset on detach": ("LMR4", _NoResetOnDetach, []),
    "woken set left unsorted": (
        "LMR4", None, [(frontier_module, "sorted", lambda nodes, key: list(nodes))]
    ),
    "trim drops current entries": (
        "LMR4",
        None,
        [ALWAYS_TRIM, (frontier_module, "_trim", lambda heap, current: heap.clear())],
    ),
    # In3T: FullVisitR4 shares the index, so only the digests see these.
    "bucket ties reversed": ("LMR4", None, [(In3T, "_walk", _walk_ties_reversed)]),
    "emptied Vs left in the order": (
        "LMR4", None, [(In3T, "_unfile", _unfile_keeping_emptied_vs)]
    ),
    # The R0-R2 run kernels: only the batch paths take them.
    "R1 tie counter stuck": ("LMR1", _StuckTieCounterR1, []),
    "R2 last group forgotten": ("LMR2", _ForgetfulR2, []),
}


if __name__ == "__main__":
    for seed in GRID_SEEDS:
        for shape_name in SHAPES:
            for name in VARIANTS:
                case = scenario(name, shape_name, seed)
                lead = _restriction(name) is not Restriction.R1
                steps = script(case.replicas, seed, lead=lead)
                out, _ = run(VARIANTS[name], steps)
                print(f"    ({seed}, {shape_name!r}, {name!r}): {digest(out)},")
