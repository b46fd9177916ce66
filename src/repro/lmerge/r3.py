"""LMerge for case R3 (Algorithm R3) — the paper's LMR3+.

Inputs may contain inserts, adjusts, and stables in any order (subject only
to stable() semantics); ``(Vs, payload)`` is a key of any prefix TDB.  State
is the two-tier in2t index: a red-black tree over live ``(Vs, payload)``
keys, each node holding the shared event payload and a per-stream hash of
current Ve values (plus the output's Ve under the OUTPUT sentinel).

The default policy matches the printed algorithm: emit the first insert
seen for a key immediately (location 2), never forward incoming adjusts,
and reconcile the output only when a stable() would otherwise freeze a
divergence (location 1) — which is what bounds chattiness (Theorem 1).
Alternative policies from Section V-A are selectable via
:class:`~repro.lmerge.policies.OutputPolicy`.

Complexities (Table IV): insert/adjust O(lg w); stable O(c lg w + h);
space O(w (p + s)).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lmerge.base import LMergeBase, StreamId, _InputState
from repro.streams.properties import Restriction
from repro.lmerge.policies import (
    DEFAULT_POLICY,
    AdjustPropagation,
    InsertPropagation,
    OutputPolicy,
)
from repro.structures.in2t import In2T, In2TNode, OUTPUT
from repro.temporal.elements import Adjust, Insert
from repro.temporal.time import INFINITY, Timestamp


class LMergeR3(LMergeBase):
    """General merge over the shared two-tier index (LMR3+)."""

    algorithm = "LMR3+"
    restriction = Restriction.R3
    supports_adjust = True

    def __init__(self, policy: OutputPolicy = DEFAULT_POLICY, **kwargs):
        super().__init__(**kwargs)
        self.policy = policy
        self._index = In2T()
        #: Inserts dropped because their key was already frozen out
        #: (the cheap path that speeds up merging lagging streams, Fig. 5).
        self.dropped_frozen = 0
        #: Nodes visited by stable() reconciliation scans (the per-stable
        #: cost that grows with punctuation frequency, Fig. 6).
        self.stable_scan_nodes = 0

    # ------------------------------------------------------------------
    # Insert (Algorithm R3, lines 3-10)
    # ------------------------------------------------------------------

    def _emit_now(self, node: In2TNode, stream_id: StreamId) -> bool:
        """Location-2 policy: should this key be placed on the output?"""
        insert_policy = self.policy.insert
        if insert_policy is InsertPropagation.FIRST:
            return True
        if insert_policy is InsertPropagation.LEADING:
            return stream_id == self.leading_stream()
        if insert_policy is InsertPropagation.HALF_FROZEN:
            return False  # emitted when a stable() half-freezes the key
        # QUORUM: count distinct inputs that have produced the key.
        produced = sum(1 for key in node.entries if key is not OUTPUT)
        return produced >= self.policy.quorum_needed(self.num_inputs)

    def _place_on_output(self, node: In2TNode, ve: Timestamp) -> None:
        self._output_insert(node.payload, node.vs, ve)
        node.add_entry(OUTPUT, ve)

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        # The default FIRST policy is short-circuited out of the loop,
        # hash entries are written directly, and survivors are emitted in
        # one extend.  A key with Vs < MaxStable was frozen and its node
        # retired; this input is merely behind (Section V-C: already
        # output, or dropped), and the key must not be materialized
        # again, so it takes the find-only branch.  An emitted input
        # element is value-equal to the Insert _place_on_output would
        # build.
        self.stats.inserts_in += len(run)
        index = self._index
        find = index.find
        find_or_add = index.find_or_add
        max_stable = self.max_stable
        emit_first = self.policy.insert is InsertPropagation.FIRST
        emit_now = self._emit_now
        output_key = OUTPUT
        dropped = 0
        out: List[Insert] = []
        emit = out.append
        for element in run:
            vs = element.vs
            if vs < max_stable:
                node = find(vs, element.payload)
                if node is None:
                    dropped += 1
                    continue
            else:
                node, _ = find_or_add(element)
            ve = element.ve
            entries = node.entries
            entries[stream_id] = ve
            if output_key not in entries and (
                emit_first or emit_now(node, stream_id)
            ):
                emit(element)
                entries[output_key] = ve
        if dropped:
            self.dropped_frozen += dropped
        if out:
            self.stats.inserts_out += len(out)
            self._emit_batch(out)

    # ------------------------------------------------------------------
    # Adjust (lines 11-14, plus the EAGER alternative of Section V-A)
    # ------------------------------------------------------------------

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        node = self._index.find(element.vs, element.payload)
        if node is None:
            return
        node.update_entry(stream_id, element.ve)
        if self.policy.adjust is AdjustPropagation.EAGER:
            self._forward_adjust(node, element.ve)

    def _forward_adjust(self, node: In2TNode, ve: Timestamp) -> None:
        """EAGER location-1 policy: reflect the revision immediately.

        Cancels (``ve == vs``) and revisions that would contradict the
        output's own stable contract stay lazy; the stable() handler
        reconciles them safely.
        """
        out_ve = node.get_entry(OUTPUT)
        if out_ve is None or out_ve == ve:
            return
        if ve <= node.vs or ve < self.max_stable or out_ve < self.max_stable:
            return
        self._output_adjust(node.payload, node.vs, out_ve, ve)
        node.update_entry(OUTPUT, ve)

    # ------------------------------------------------------------------
    # Stable (lines 15-29)
    # ------------------------------------------------------------------

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        if self.policy.stable_lag and t != INFINITY:
            # Hold the output's promise back: events inside the lag
            # window stay reconcilable for free (Section V-A's closing
            # observation), at the cost of freshness and node retention.
            t = t - self.policy.stable_lag
        if t <= self.max_stable:
            return
        reclaim = self.reclamation is not None
        scanned = 0
        pruned = 0
        out_key = OUTPUT
        inputs = self._inputs
        reconcile = self._reconcile

        def visit(node: In2TNode) -> bool:
            nonlocal scanned, pruned
            scanned += 1
            if not reconcile(node, t, stream_id):
                # Fully frozen on the freezing stream: output now matches
                # it forever; retire the node (lines 26-27).
                return False
            if not reclaim:
                return True
            # Half-frozen survivor: is it *output-agreed* (every present
            # per-stream Ve equals the output's)?
            entries = node.entries
            out_ve = entries.get(out_key)
            if out_ve is None:
                return True
            for key, ve in entries.items():
                if key is not out_key and ve != out_ve:
                    return True
            # *Settled* additionally requires that a stream with no entry
            # could never cancel the key: its silence must be covered by
            # its joining guarantee.
            for sid, st in inputs.items():
                if sid not in entries and not (out_ve < st.guarantee_from):
                    return True
            pruned += 1
            return False

        self._index.prune_below(t, visit)
        self.stable_scan_nodes += scanned
        self.pruned_nodes += pruned
        self._output_stable(t)

    def _reconcile(
        self, node: In2TNode, t: Timestamp, stream_id: StreamId
    ) -> bool:
        """Bring the output into line with input *stream_id* for *node*.

        Three compatibility violations are repaired (Section IV-D): the
        input lacks an event the output carries; the output event would
        fully freeze at a different Ve than the input's; the input event
        fully freezes while the output's diverges.

        Returns False when the node is fully frozen on the freezing
        stream and must be retired (the caller unlinks it).
        """
        out_ve = node.get_entry(OUTPUT)
        in_ve: Optional[Timestamp] = node.get_entry(stream_id)
        if in_ve is None:
            current = out_ve if out_ve is not None else node.vs
            if current < self.guarantee_of(stream_id):
                # A late joiner vouches only for events with Ve >= its
                # guarantee point; silence about older history carries no
                # information — keep following the output's value.
                in_ve = current
            else:
                # Line 20: the freezing stream never produced this key, so
                # the key's event must not survive (Ve down to Vs cancels).
                in_ve = node.vs
        if out_ve is None:
            # A withholding policy (HALF_FROZEN / QUORUM / LEADING) kept
            # the key off the output; it must appear before the stable()
            # if the freezing stream carries it.
            if in_ve > node.vs:
                self._place_on_output(node, in_ve)
        elif in_ve != out_ve and (in_ve < t or out_ve < t):
            self._output_adjust(node.payload, node.vs, out_ve, in_ve)
            node.update_entry(OUTPUT, in_ve)
        return not (in_ve < t)

    # ------------------------------------------------------------------
    # Lifecycle & accounting
    # ------------------------------------------------------------------

    # Section V-B: a leaving stream is simply marked as left (the base
    # class stops routing its elements); its second-tier entries are
    # never consulted again — reconciliation reads only the *freezing*
    # stream's entry — and retire with their nodes.  Eager purging would
    # erase the history a pause-resume replica already delivered.

    def memory_bytes(self) -> int:
        return 16 + self._index.memory_bytes()

    def _snapshot_extra(self) -> dict:
        return {
            "index": self._index.snapshot(),
            "dropped_frozen": self.dropped_frozen,
            "stable_scan_nodes": self.stable_scan_nodes,
            "pruned_nodes": self.pruned_nodes,
        }

    def _restore_extra(self, extra: dict) -> None:
        self._index.restore(extra["index"])
        self.dropped_frozen = extra["dropped_frozen"]
        self.stable_scan_nodes = extra["stable_scan_nodes"]
        self.pruned_nodes = extra.get("pruned_nodes", 0)

    @property
    def live_keys(self) -> int:
        """Number of ``(Vs, payload)`` keys currently indexed (w in Table
        IV)."""
        return len(self._index)

    @property
    def index_nodes(self) -> int:
        """Resident index nodes (the bounded-state gauge of PR 8)."""
        return len(self._index)
