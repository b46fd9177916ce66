"""LMerge for the unrestricted case R4 (Algorithm R4) — the paper's LMR4.

No constraints at all: all element kinds, arbitrary order (modulo stable()
semantics), and a *multiset* TDB — many events may share ``(Vs, payload)``
with different Ve values, and exact duplicates are allowed.  State is the
three-tier in3t index: per ``(Vs, payload)`` node, a per-stream ordered
multiset of ``Ve -> count``.

The stable() handler maintains the paper's two invariants before
propagating punctuation:

* when a key first becomes half frozen, the output holds exactly as many
  events for it as the freezing input (``AdjustOutputCount``);
* for every Ve the stable() fully freezes, the output holds exactly as
  many events at that ``(Vs, payload, Ve)`` as the freezing input
  (``AdjustOutput``), achieved by retiming previously output events.

Complexities (Table IV): insert/adjust O(lg w + lg d); stable
O(c lg w + h*d); space O(w (p + s*d)).  Here the key is found by hash, so
insert/adjust is expected O(1) — O(lg r + chunk) for an insert whose Vs is
new and inside the window, *r* the resident distinct Vs values (see
:mod:`repro.structures.in3t`).  The ``h*d`` term is the walk over the *h*
half-frozen keys; here a stable looks only at the *Δ* of them whose
answer can have changed since the freezing stream last reconciled them —
``Δ*d`` (see :meth:`LMergeR4._stable`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.lmerge.base import LMergeBase, StreamId, _InputState
from repro.streams.properties import Restriction
from repro.structures.frontier import Frontier
from repro.structures.in2t import OUTPUT
from repro.structures.in3t import In3T, In3TNode
from repro.temporal.elements import Adjust, Insert
from repro.temporal.tdb import StreamViolationError
from repro.temporal.time import INFINITY, MINUS_INFINITY, Timestamp


class LMergeR4(LMergeBase):
    """Fully general merge over the three-tier index (LMR4)."""

    algorithm = "LMR4"
    restriction = Restriction.R4
    supports_adjust = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._index = In3T()
        #: Which nodes the next stable() of each input has to look at.
        self._frontier = Frontier(self._index.touched)
        #: Inserts dropped because their key was already frozen out
        #: (the cheap path that speeds up merging lagging streams, Fig. 5).
        self.dropped_frozen = 0
        #: Nodes the stable() calls looked at (Fig. 6): those the frontier
        #: handed out, not all that were half frozen.  With reclamation
        #: enabled, resolved spilled runs are not looked at and do not
        #: count here.
        self.stable_scan_nodes = 0
        #: The looked-at nodes that had to be reconciled against the
        #: freezing input; the rest turned out to have nothing to do.
        self.stable_reconciled_nodes = 0
        self._setup_spill(self._index)

    # ------------------------------------------------------------------
    # Insert (Algorithm R4, lines 3-11)
    # ------------------------------------------------------------------

    def _insert(self, element: Insert, stream_id: StreamId) -> None:
        if element.vs < self.max_stable:
            # Keys behind MaxStable must not be materialized, and can
            # never reach the output (the Vs >= MaxStable guard of line 8).
            node = self._index.find(element.vs, element.payload)
            if node is None:
                self.dropped_frozen += 1
            else:
                node.increment(stream_id, element.ve)
            return
        node = self._index.find_or_add(element)
        node.increment(stream_id, element.ve)
        if node.total_count(stream_id) > node.total_count(OUTPUT):
            # This input now holds more events for the key than we have
            # output — the new event is not a duplicate of anything the
            # output already carries.
            self._output_insert(element.payload, element.vs, element.ve)
            node.increment(OUTPUT, element.ve)

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        # Fast path: one index probe per element (find_or_add instead of
        # find + add) and one bulk emit.  Keys behind MaxStable must not
        # be materialized, so they take the find-only branch — and can
        # never reach the output (the Vs >= MaxStable guard of line 8).
        self.stats.inserts_in += len(run)
        index = self._index
        find_or_add = index.find_or_add
        max_stable = self.max_stable
        out: List[Insert] = []
        for element in run:
            vs = element.vs
            ve = element.ve
            if vs < max_stable:
                node = index.find(vs, element.payload)
                if node is None:
                    self.dropped_frozen += 1
                    continue
                node.increment(stream_id, ve)
                continue
            node = find_or_add(element)
            node.increment(stream_id, ve)
            if node.total_count(stream_id) > node.total_count(OUTPUT):
                out.append(element)
                node.increment(OUTPUT, ve)
        if out:
            self.stats.inserts_out += len(out)
            self._emit_batch(out)

    # ------------------------------------------------------------------
    # Adjust (lines 12-15)
    # ------------------------------------------------------------------

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        node = self._index.find(element.vs, element.payload)
        if node is None:
            return
        try:
            node.decrement(stream_id, element.v_old)
        except KeyError:
            # The adjusted version was never tracked for this input (e.g.
            # a late joiner revising history it replayed before attach, or
            # state already retired); the revision is irrelevant here.
            return
        if not element.is_cancel:
            node.increment(stream_id, element.ve)

    # ------------------------------------------------------------------
    # Stable (lines 16-30)
    # ------------------------------------------------------------------

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        """Reconcile the half-frozen keys that need it with *stream_id*,
        then punctuate.

        What a stable does to a node with ``Vs < t`` is split in two.  The
        *reconcile* half (``AdjustOutputCount`` / ``AdjustOutput`` /
        retire) depends only on the node's own counts and *t*, so a visit
        that kept the node records on it how far *t* may advance before
        the answer can change.  The *settle* half (prune / spill
        candidate) also depends on the attached inputs, their guarantees
        and the settle lag; it reads the node's cached agreement, which
        like the bound is forgotten when the node mutates.

        Both halves are no-ops on a node that *stream_id* has walked past,
        that has not mutated since, whose recorded bound *t* has not
        passed and that was not waiting for the settle bound — so the
        :class:`~repro.structures.frontier.Frontier` hands out the others
        and only those are visited, in key order.  The visit is
        idempotent: an extra node costs a look, never an output element.
        """
        if t <= self.max_stable:
            return
        spiller = self._spiller
        index = self._index
        frontier = self._frontier
        if spiller is not None:
            # Covered, fully-frozen spilled runs die in the store without
            # faulting in; anything the summary cannot vouch for is
            # re-materialized so the walk below sees the exact seed state.
            self.pruned_nodes += spiller.resolve_stable(index, t, stream_id)
            # Spill candidates are whole runs: every node is due again.
            frontier.reset(self._inputs)
        guarantee = self.guarantee_of(stream_id)
        rec = self.reclamation
        prune_settled = rec is not None and rec.prune_settled
        prune_bound = t - rec.settle_lag if prune_settled else t
        # max_stable is only advanced by _output_stable at the end, so the
        # transition test below reads the same value the seed loop would.
        max_stable_before = self.max_stable
        scanned = 0
        reconciled = 0
        pruned = 0
        #: run id -> [min settle-Ve, max settle-Ve, covered streams], or
        #: None once a non-agreed node poisons the run.
        candidates = {} if spiller is not None else None
        inputs = self._inputs
        #: Visited nodes kept without a verdict for *stream_id*.
        unresolved: List[In3TNode] = []
        lo, early = frontier.open(stream_id, t, prune_bound)

        def visit(node: In3TNode) -> bool:
            nonlocal scanned, reconciled, pruned
            scanned += 1
            known = node.reconciled
            bound = (
                MINUS_INFINITY
                if known is None
                else known.get(stream_id, MINUS_INFINITY)
            )
            if t <= bound:
                # Still reconciled.  A node new to this stream's frontier
                # carries the verdict from before a reset: its wake entry
                # went with the old heaps.
                if node.vs >= lo and bound < INFINITY:
                    frontier.wake(stream_id, bound, node)
            elif (
                node.total_count(stream_id) == 0
                and node.max_ve(OUTPUT) < guarantee
            ):
                # A late joiner is silent about history entirely before
                # its guarantee point; other inputs will freeze this key.
                # Not recorded: the answer also depends on the guarantee.
                unresolved.append(node)
            else:
                reconciled += 1
                if node.vs >= max_stable_before:
                    # The key is transitioning unfrozen -> half frozen now:
                    # pin the output's event *count* to the freezing input's.
                    self._adjust_output_count(node, stream_id)
                self._adjust_output(node, t, stream_id)
                if node.max_ve(stream_id) < t:
                    # Every version on the freezing input is now fully
                    # frozen and mirrored on the output; retire the key.
                    return False
                self._note_reconciled(node, t, stream_id)
            if not prune_settled and candidates is None:
                return True
            agreement = node.agreement
            if agreement is None:
                agreement = node.agreement = self._agreement(node)
            if agreement and prune_settled:
                if node.vs < prune_bound:
                    _, max_out, covered_here = agreement
                    for sid, st in inputs.items():
                        if sid not in covered_here and not (
                            max_out < st.guarantee_from
                        ):
                            break
                    else:
                        pruned += 1
                        return False
                else:
                    # Too young to settle; look again when the bound
                    # passes it, whoever walks then.
                    frontier.park(node)
            if candidates is not None:
                run = spiller.run_of(node.vs)
                if run is not None and spiller.run_bounds(run)[1] <= t:
                    if not agreement:
                        candidates[run] = None
                    else:
                        min_out, max_out, covered_here = agreement
                        meta = candidates.get(run, False)
                        if meta is False:
                            candidates[run] = [
                                min_out, max_out, set(covered_here)
                            ]
                        elif meta is not None:
                            if min_out < meta[0]:
                                meta[0] = min_out
                            if max_out > meta[1]:
                                meta[1] = max_out
                            meta[2].intersection_update(covered_here)
            return True

        visited = early + index.nodes_between(lo, t)
        doomed = [
            node
            for node in visited
            # A wake entry can outlive its node; the dead are skipped.
            if node.counts is not None and not visit(node)
        ]
        index.remove(doomed)
        frontier.close(stream_id, t, visited, unresolved, doomed, len(index))
        self.stable_scan_nodes += scanned
        self.stable_reconciled_nodes += reconciled
        self.pruned_nodes += pruned
        self._output_stable(t)
        if candidates:
            spiller.evict(self._index, candidates)

    def _note_reconciled(
        self, node: In3TNode, t: Timestamp, stream_id: StreamId
    ) -> None:
        """Record that *node* is reconciled with *stream_id* up to *t*.

        The node survived, so nothing on the freezing input's or the
        output's tier below *t* disagrees and the input holds a version at
        or past *t*.  A later ``stable(t')`` constrains exactly the
        versions below *t'*: until *t'* passes the smallest version at or
        past *t* on either tier, that set is the one just reconciled, the
        key is past its half-freeze transition, and the input's largest
        version still survives — nothing to do.  Any mutation of the node
        drops the record (:class:`~repro.structures.in3t.In3TNode`).
        A finite bound goes on the stream's wake heap; an infinite one
        could never pop.
        """
        counts = node.counts
        bound = min(
            ve
            for tier in (counts[stream_id], counts.get(OUTPUT, ()))
            for ve, _ in tier
            if ve >= t
        )
        known = node.reconciled
        if known is None:
            node.reconciled = {stream_id: bound}
        else:
            known[stream_id] = bound
        if bound < INFINITY:
            self._frontier.wake(stream_id, bound, node)

    @staticmethod
    def _agreement(node: In3TNode) -> tuple:
        """``(min_out, max_out, covered_streams)`` when every nonempty
        per-stream multiset equals the output's, else ``()``.

        Such a node is *output-agreed*: a stable() from a covered stream
        reconciles to a no-op (all versions unfrozen) or a silent delete
        (all versions frozen) — the basis of both settled pruning and the
        spill's per-run summary.
        """
        counts = node.counts
        out_tier = counts.get(OUTPUT)
        if not out_tier:
            return ()
        covered = []
        for sid, tier in counts.items():
            if sid is OUTPUT or not tier:
                continue
            if tier != out_tier:
                return ()
            covered.append(sid)
        return out_tier[0][0], out_tier[-1][0], tuple(covered)

    # ------------------------------------------------------------------
    # AdjustOutputCount: equalize totals at the half-freeze transition
    # ------------------------------------------------------------------

    def _adjust_output_count(self, node: In3TNode, stream_id: StreamId) -> None:
        out_total = node.total_count(OUTPUT)
        in_total = node.total_count(stream_id)
        if out_total > in_total:
            self._cancel_surplus(node, stream_id, out_total - in_total)
        elif in_total > out_total:
            self._emit_missing(node, stream_id, in_total - out_total)

    def _cancel_surplus(
        self, node: In3TNode, stream_id: StreamId, surplus: int
    ) -> None:
        """Delete output events until counts match, preferring Ve values
        the freezing input lacks (they would need retiming anyway)."""
        candidates = sorted(
            node.ve_counts(OUTPUT),
            key=lambda item: node.count_of(stream_id, item[0]),
        )
        for ve, available in candidates:
            while surplus and available:
                self._output_adjust(node.payload, node.vs, ve, node.vs)
                node.decrement(OUTPUT, ve)
                available -= 1
                surplus -= 1
            if not surplus:
                return

    def _emit_missing(
        self, node: In3TNode, stream_id: StreamId, missing: int
    ) -> None:
        """Output new inserts with Ve values seen on the freezing input."""
        for ve, in_count in node.ve_counts(stream_id):
            while missing and node.count_of(OUTPUT, ve) < in_count:
                self._output_insert(node.payload, node.vs, ve)
                node.increment(OUTPUT, ve)
                missing -= 1
            if not missing:
                return
        if missing:
            raise StreamViolationError(
                f"cannot source {missing} events for "
                f"({node.vs}, {node.payload!r}) from stream {stream_id!r}"
            )

    # ------------------------------------------------------------------
    # AdjustOutput: mirror the freezing input's fully frozen versions
    # ------------------------------------------------------------------

    def _adjust_output(
        self, node: In3TNode, t: Timestamp, stream_id: StreamId
    ) -> None:
        counts = node.counts
        if counts.get(stream_id) == counts.get(OUTPUT):
            # Equal tiers: nothing below t disagrees, and a dying key
            # (every version below t) is mirrored whole.
            return
        in_counts: Dict[Timestamp, int] = dict(node.ve_counts(stream_id))
        out_counts: Dict[Timestamp, int] = dict(node.ve_counts(OUTPUT))
        # When the freezing input holds no version surviving past t the
        # whole key dies with this stable(): every output version, frozen
        # or not, must be reconciled away.
        dying = node.max_ve(stream_id) < t

        def constrained(ve: Timestamp) -> bool:
            return ve < t or dying

        deficits: List[List] = []
        surpluses: List[List] = []
        for ve in sorted(set(in_counts) | set(out_counts)):
            if not constrained(ve):
                continue
            need = in_counts.get(ve, 0) if ve < t else 0
            have = out_counts.get(ve, 0)
            if have < need:
                deficits.append([ve, need - have])
            elif have > need:
                surpluses.append([ve, have - need])
        if not deficits and not surpluses:
            return
        # Donor pool: surplus versions in the constrained region first,
        # then output versions in the free region (ve >= t, node alive).
        pool: List[List] = [
            [ve, out_counts[ve]]
            for ve in sorted(out_counts)
            if not constrained(ve)
        ]
        donors = surpluses + pool
        for ve, needed in deficits:
            while needed:
                donor = self._next_donor(donors)
                if donor is None:
                    raise StreamViolationError(
                        f"no donor version for ({node.vs}, {node.payload!r}) "
                        f"at Ve={ve}: inputs are not mutually consistent"
                    )
                self._retime(node, donor[0], ve)
                donor[1] -= 1
                needed -= 1
        # Remaining surpluses must vacate the frozen region: park them on
        # an input-supported future version, or cancel when none exists.
        future_ve = self._future_version(in_counts, t)
        for ve, extra in surpluses:
            while extra:
                if future_ve is not None:
                    self._retime(node, ve, future_ve)
                else:
                    self._output_adjust(node.payload, node.vs, ve, node.vs)
                    node.decrement(OUTPUT, ve)
                extra -= 1

    @staticmethod
    def _next_donor(donors: List[List]) -> Optional[List]:
        for donor in donors:
            if donor[1] > 0:
                return donor
        return None

    def _retime(self, node: In3TNode, old_ve: Timestamp, new_ve: Timestamp) -> None:
        self._output_adjust(node.payload, node.vs, old_ve, new_ve)
        node.decrement(OUTPUT, old_ve)
        node.increment(OUTPUT, new_ve)

    @staticmethod
    def _future_version(
        in_counts: Dict[Timestamp, int], t: Timestamp
    ) -> Optional[Timestamp]:
        future = [ve for ve in in_counts if ve >= t]
        return min(future) if future else None

    # ------------------------------------------------------------------
    # Lifecycle & accounting
    # ------------------------------------------------------------------

    # Section V-B: per-stream counts of a left stream are never consulted
    # again and retire with their nodes (see the R3 note).  The roster and
    # the guarantees feed the settle test, though, so a change to either
    # can make a waiting node prunable with no mutation: all is due again.

    def _on_attach(self, stream_id: StreamId) -> None:
        self._frontier.reset(self._inputs)

    def _on_detach(self, stream_id: StreamId) -> None:
        self._frontier.reset(self._inputs)

    def memory_bytes(self) -> int:
        return 16 + self._index.memory_bytes()

    def _snapshot_extra(self) -> dict:
        return {
            "index": self._index.snapshot(),
            "dropped_frozen": self.dropped_frozen,
            "stable_scan_nodes": self.stable_scan_nodes,
            "stable_reconciled_nodes": self.stable_reconciled_nodes,
            "pruned_nodes": self.pruned_nodes,
        }

    def _restore_extra(self, extra: dict) -> None:
        self._index.restore(extra["index"])
        self._frontier.reset(self._inputs)
        self.dropped_frozen = extra["dropped_frozen"]
        self.stable_scan_nodes = extra["stable_scan_nodes"]
        self.stable_reconciled_nodes = extra.get("stable_reconciled_nodes", 0)
        self.pruned_nodes = extra.get("pruned_nodes", 0)

    @property
    def live_keys(self) -> int:
        """Indexed ``(Vs, payload)`` keys, spilled runs included."""
        return self._index.live_nodes

    @property
    def index_nodes(self) -> int:
        """Resident index nodes (the bounded-state gauge of PR 8)."""
        return len(self._index)
