"""Common machinery for every LMerge algorithm.

Responsibilities shared across R0-R4:

* input-stream lifecycle — dynamic attach/detach with the joining protocol
  of Section V-B (a joining stream supplies a timestamp *t* from which it
  guarantees the correct TDB; it counts as fully joined once the output
  stable point reaches *t*);
* output emission with statistics (the chattiness metric of Section VI-B
  is ``stats.adjusts_out``);
* feedback signalling hooks (Section V-D);
* the offline ``merge`` driver used by tests and benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import NULL_TRACER
from repro.streams.properties import Restriction
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Adjust, Element, Insert, Stable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.engine.columnar import ColumnBatch
    from repro.lmerge.reclaim import ReclamationPolicy
from repro.temporal.event import Payload
from repro.temporal.time import MINUS_INFINITY, Timestamp

StreamId = Hashable
#: Callback receiving each output element as it is emitted.
Sink = Callable[[Element], None]
#: Callback receiving feedback signals ("not interested before t").
FeedbackListener = Callable[["StreamId", Timestamp], None]


class UnsupportedElementError(TypeError):
    """An element kind the configured restriction forbids (e.g. adjust
    under R0-R2)."""


class InputStateError(RuntimeError):
    """An element arrived from a stream that is not attached."""


@dataclass
class MergeStats:
    """Element counts in and out; the basis of the paper's metrics."""

    inserts_in: int = 0
    adjusts_in: int = 0
    stables_in: int = 0
    inserts_out: int = 0
    adjusts_out: int = 0
    stables_out: int = 0
    #: Worker shutdowns that had to be escalated past ``join()`` to
    #: ``terminate()``/``kill()`` (see ``ParallelRuntime.close``); 0 on a
    #: clean run.
    escalations: int = 0

    @property
    def elements_in(self) -> int:
        return self.inserts_in + self.adjusts_in + self.stables_in

    @property
    def elements_out(self) -> int:
        return self.inserts_out + self.adjusts_out + self.stables_out

    @property
    def chattiness(self) -> int:
        """Output-size metric of Section VI-B: adjust() elements emitted."""
        return self.adjusts_out

    def merge(self, other: "MergeStats") -> "MergeStats":
        """Accumulate *other* into this record (returns ``self``).

        Lets a sharded plan fold per-shard statistics into one report —
        every field is a count, so aggregation is plain addition.
        """
        self.inserts_in += other.inserts_in
        self.adjusts_in += other.adjusts_in
        self.stables_in += other.stables_in
        self.inserts_out += other.inserts_out
        self.adjusts_out += other.adjusts_out
        self.stables_out += other.stables_out
        self.escalations += other.escalations
        return self

    def __add__(self, other: "MergeStats") -> "MergeStats":
        if not isinstance(other, MergeStats):
            return NotImplemented
        return MergeStats(
            inserts_in=self.inserts_in + other.inserts_in,
            adjusts_in=self.adjusts_in + other.adjusts_in,
            stables_in=self.stables_in + other.stables_in,
            inserts_out=self.inserts_out + other.inserts_out,
            adjusts_out=self.adjusts_out + other.adjusts_out,
            stables_out=self.stables_out + other.stables_out,
            escalations=self.escalations + other.escalations,
        )

    def __radd__(self, other) -> "MergeStats":
        if other == 0:  # so sum(per_shard_stats) works
            return MergeStats().merge(self)
        return self.__add__(other)

    def as_dict(self) -> Dict[str, int]:
        """The six counts plus the derived totals, JSON-ready (the shape
        embedded in :class:`repro.obs.export.RunReport`)."""
        return {
            "inserts_in": self.inserts_in,
            "adjusts_in": self.adjusts_in,
            "stables_in": self.stables_in,
            "inserts_out": self.inserts_out,
            "adjusts_out": self.adjusts_out,
            "stables_out": self.stables_out,
            "escalations": self.escalations,
            "elements_in": self.elements_in,
            "elements_out": self.elements_out,
            "chattiness": self.chattiness,
        }

    def to_state(self) -> Dict[str, int]:
        """The raw counter fields as a plain dict (snapshot payload)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_state(cls, state: Dict[str, int]) -> "MergeStats":
        return cls(**state)


@dataclass
class _InputState:
    """Lifecycle bookkeeping for one attached input."""

    stream_id: StreamId
    #: Timestamp from which this input guarantees a correct TDB.
    guarantee_from: Timestamp = MINUS_INFINITY
    #: Largest stable() received from this input.
    last_stable: Timestamp = MINUS_INFINITY
    leaving: bool = False


class _VsColumn:
    """The Vs column of a run of element objects, read on demand.

    Lets ``bisect`` search a run by ``Vs`` with O(lg b) element reads
    (``bisect(..., key=)`` needs Python 3.10); the ordered variants'
    insert kernels search a run through it.
    """

    __slots__ = ("_run",)

    def __init__(self, run: Sequence[Insert]):
        self._run = run

    def __len__(self) -> int:
        return len(self._run)

    def __getitem__(self, index: int) -> Timestamp:
        return self._run[index].vs


class LMergeBase:
    """Abstract LMerge operator.

    Subclasses implement ``_insert``, ``_adjust``, and ``_stable``; the
    base class handles dispatch, statistics, input lifecycle, and output.
    """

    #: Human-readable algorithm name (set by subclasses, e.g. "LMR3+").
    algorithm = "LM?"
    #: The input restriction (``Restriction.R0`` … ``R4``) this algorithm
    #: assumes, set by subclasses.  ``None`` on the abstract base.
    restriction: "Optional[Restriction]" = None
    #: Whether the algorithm accepts adjust() elements.
    supports_adjust = True
    #: Observability tracer (class default: the shared no-op).  Hot paths
    #: guard on ``tracer.enabled`` once per :meth:`process` /
    #: :meth:`process_batch` call; assign a
    #: :class:`repro.obs.trace.RingTracer` (or call :meth:`set_tracer`)
    #: to record per-call spans.
    tracer = NULL_TRACER

    def __init__(
        self,
        sink: Optional[Sink] = None,
        name: str = "lmerge",
        reclamation: "Optional[ReclamationPolicy]" = None,
    ):
        self.name = name
        self.stats = MergeStats()
        #: Bounded-state opt-in (PR 8).  ``None`` keeps the seed
        #: retain-everything behaviour; R0-R2 hold O(1) state and ignore
        #: it.  See :mod:`repro.lmerge.reclaim` for the semantics traded.
        self.reclamation = reclamation
        #: Settled nodes bulk-retired by CTI-driven pruning.
        self.pruned_nodes = 0
        #: Cold-run spill (attached lazily by R3/R4 when the policy asks).
        self._spiller = None
        self.output = PhysicalStream(name=f"{name}.out")
        self._sink = sink
        self._inputs: Dict[StreamId, _InputState] = {}
        self._feedback_listeners: List[FeedbackListener] = []
        #: Operator-graph bridges feeding this merge (adapters register
        #: themselves here so the static analyzer can traverse *through*
        #: the merge and see every replica of a plan from any root).
        self.input_adapters: List[object] = []
        #: Largest stable() emitted on the output.
        self.max_stable: Timestamp = MINUS_INFINITY
        # Incrementally maintained leading-stream cache (Section V-A).
        # Updated whenever an input's stable point advances; rescanned only
        # when the current leader detaches.  Replaces the O(inputs) scan
        # that the LEADING insert policy used to pay per insert.
        self._leader: Optional[StreamId] = None
        self._leader_stable: Timestamp = MINUS_INFINITY
        # Batched dispatch: element class -> handler for a run of
        # consecutive same-class elements.  No isinstance chain on the
        # batched hot path; subclasses override the handlers to install
        # fast paths (see process_batch).
        self._batch_dispatch: Dict[type, Callable] = {
            Insert: self._insert_batch,
            Adjust: self._adjust_batch,
            Stable: self._stable_batch,
        }

    def set_tracer(self, tracer) -> "LMergeBase":
        """Install an observability tracer on this merge (chainable)."""
        self.tracer = tracer
        return self

    # ------------------------------------------------------------------
    # Input lifecycle (Section V-B)
    # ------------------------------------------------------------------

    def attach(
        self, stream_id: StreamId, guarantee_from: Timestamp = MINUS_INFINITY
    ) -> None:
        """Attach an input stream.

        *guarantee_from* is the joining timestamp *t*: the stream promises
        to deliver the correct TDB for every event with ``Ve >= t``.  The
        stream is *joined* (able to sustain the output alone) once the
        output stable point reaches *t* — see :meth:`is_joined`.
        """
        if stream_id in self._inputs:
            raise InputStateError(f"stream {stream_id!r} already attached")
        self._inputs[stream_id] = _InputState(stream_id, guarantee_from)
        self._on_attach(stream_id)

    def detach(self, stream_id: StreamId) -> None:
        """Detach an input stream; its pending state is discarded.

        Safe at any time: the compatibility rules guarantee the output can
        continue from the remaining inputs (detaching the *last* input
        simply freezes progress until another attaches).
        """
        state = self._inputs.pop(stream_id, None)
        if state is None:
            raise InputStateError(f"stream {stream_id!r} is not attached")
        if stream_id == self._leader:
            self._rescan_leader()
        self._on_detach(stream_id)

    def is_attached(self, stream_id: StreamId) -> bool:
        return stream_id in self._inputs

    def is_joined(self, stream_id: StreamId) -> bool:
        """True when *stream_id* alone could sustain the output.

        Per Section V-B: the joining stream's guarantee point has been
        passed by the output stable point, so simultaneous failure of all
        other inputs is tolerable.
        """
        state = self._inputs.get(stream_id)
        if state is None:
            return False
        return self.max_stable >= state.guarantee_from

    @property
    def input_ids(self) -> Tuple[StreamId, ...]:
        return tuple(self._inputs)

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    def input_stable(self, stream_id: StreamId) -> Timestamp:
        """The largest stable() received from *stream_id*."""
        return self._inputs[stream_id].last_stable

    def guarantee_of(self, stream_id: StreamId) -> Timestamp:
        """The joining guarantee point of *stream_id* (Section V-B).

        The stream vouches for every event with ``Ve >= guarantee``;
        missing elements before it carry no information.
        """
        return self._inputs[stream_id].guarantee_from

    def leading_stream(self) -> Optional[StreamId]:
        """The input with the largest stable point (Section V-A), if any.

        O(1): served from a cache maintained as punctuation arrives.  On a
        tie the first input to *reach* the leading stable point keeps the
        lead (equally valid under Section V-A — any maximal input may
        lead).
        """
        return self._leader

    def _note_stable(self, state: _InputState, stream_id: StreamId, vc: Timestamp) -> None:
        """Record punctuation from *stream_id*, maintaining the leader cache."""
        if vc > state.last_stable:
            state.last_stable = vc
            if vc > self._leader_stable:
                self._leader_stable = vc
                self._leader = stream_id

    def _rescan_leader(self) -> None:
        """Recompute the leader cache (only needed when the leader detaches)."""
        best: Optional[StreamId] = None
        best_stable = MINUS_INFINITY
        for stream_id, state in self._inputs.items():
            if state.last_stable > best_stable:
                best_stable = state.last_stable
                best = stream_id
        self._leader = best
        self._leader_stable = best_stable

    def _on_attach(self, stream_id: StreamId) -> None:
        """Subclass hook: initialize per-input state."""

    def _on_detach(self, stream_id: StreamId) -> None:
        """Subclass hook: drop per-input state."""

    # ------------------------------------------------------------------
    # Element processing
    # ------------------------------------------------------------------

    def process(self, element: Element, stream_id: StreamId) -> None:
        """Feed one element from one input through the merge."""
        state = self._inputs.get(stream_id)
        if state is None:
            raise InputStateError(
                f"element from unattached stream {stream_id!r}: {element}"
            )
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                "process", self.name,
                stream=str(stream_id), cls=element.__class__.__name__,
            )
        if isinstance(element, Insert):
            self.stats.inserts_in += 1
            self._insert(element, stream_id)
        elif isinstance(element, Adjust):
            self.stats.adjusts_in += 1
            if not self.supports_adjust:
                raise UnsupportedElementError(
                    f"{self.algorithm} does not support adjust(): {element}"
                )
            self._adjust(element, stream_id)
        elif isinstance(element, Stable):
            self.stats.stables_in += 1
            self._note_stable(state, stream_id, element.vc)
            if self.is_joined(stream_id):
                self._stable(element.vc, stream_id)
            # A still-joining stream (Section V-B) may deliver data but
            # not drive the output frontier: its punctuation does not
            # vouch for history it may have missed before its guarantee
            # point.  Its stables are tracked (for leading-stream and
            # feedback purposes) but not forwarded.
        else:
            raise TypeError(f"not a stream element: {element!r}")

    def _insert(self, element: Insert, stream_id: StreamId) -> None:
        raise NotImplementedError

    def _adjust(self, element: Adjust, stream_id: StreamId) -> None:
        raise NotImplementedError

    def _stable(self, t: Timestamp, stream_id: StreamId) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batched element processing
    # ------------------------------------------------------------------

    def process_batch(
        self,
        elements: Sequence[Element],
        stream_id: StreamId,
        *,
        coalesce_stables: bool = False,
    ) -> None:
        """Feed a slice of consecutive elements from one input.

        Semantically equivalent to calling :meth:`process` element by
        element, but amortizes the per-element overhead: elements are
        grouped into runs of the same class and dispatched through a
        type-keyed table (no ``isinstance`` chain), statistics are updated
        once per run, and subclasses install run-level fast paths
        (:meth:`_insert_batch` overrides in R0-R4).  The equivalence
        holds for inputs that satisfy the variant's restriction: R0-R2
        decide a Vs-ordered run by zone, so which elements of an
        *unordered* run they drop differs from :meth:`process` (see
        docs/ALGORITHMS.md, "Batched execution").

        With ``coalesce_stables=True``, a run of consecutive ``stable()``
        elements triggers a *single* frontier advance to the run's maximum
        ``Vc`` (one reconciliation scan instead of one per stable).  The
        output is then logically equivalent to — but no longer
        element-for-element identical with — the per-element path: the
        intermediate punctuation is absorbed.  Leave it off where exact
        physical equality matters (it is asserted by the batch-equivalence
        property tests); turn it on for throughput.
        """
        state = self._inputs.get(stream_id)
        if state is None:
            raise InputStateError(
                f"batch from unattached stream {stream_id!r}"
            )
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            out_before = len(self.output)
        dispatch = self._batch_dispatch
        i = 0
        n = len(elements)
        while i < n:
            cls = elements[i].__class__
            j = i + 1
            while j < n and elements[j].__class__ is cls:
                j += 1
            handler = dispatch.get(cls)
            if handler is None:
                raise TypeError(f"not a stream element: {elements[i]!r}")
            handler(elements[i:j], stream_id, state, coalesce_stables)
            i = j
        if traced:
            tracer.record(
                "process_batch", self.name,
                stream=str(stream_id), n=n,
                out=len(self.output) - out_before,
                stable=self.max_stable,
            )

    def _insert_batch(
        self,
        run: Sequence[Insert],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        """Process a run of consecutive inserts; subclasses override with
        loop-hoisted fast paths."""
        self.stats.inserts_in += len(run)
        _insert = self._insert
        for element in run:
            _insert(element, stream_id)

    def _adjust_batch(
        self,
        run: Sequence[Adjust],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        """Process a run of consecutive adjusts."""
        if not self.supports_adjust:
            # Mirror the per-element path: the offending element is
            # counted, then rejected.
            self.stats.adjusts_in += 1
            raise UnsupportedElementError(
                f"{self.algorithm} does not support adjust(): {run[0]}"
            )
        self.stats.adjusts_in += len(run)
        _adjust = self._adjust
        for element in run:
            _adjust(element, stream_id)

    def _stable_batch(
        self,
        run: Sequence[Stable],
        stream_id: StreamId,
        state: _InputState,
        coalesce_stables: bool,
    ) -> None:
        """Process a run of consecutive stables, optionally coalesced.

        Coalescing is safe because no data element separates the run: the
        merge state reconciled at the run's maximum ``Vc`` is exactly the
        state every intermediate stable would have seen, so a single
        ``_stable`` call at the maximum freezes the same events to the
        same end times (see docs/ALGORITHMS.md, "Batched execution").
        """
        self.stats.stables_in += len(run)
        if coalesce_stables:
            vc = run[0].vc
            for element in run:
                if element.vc > vc:
                    vc = element.vc
            self._note_stable(state, stream_id, vc)
            if self.max_stable >= state.guarantee_from:
                self._stable(vc, stream_id)
            # A still-joining stream's punctuation is tracked but not
            # forwarded (same rule as the per-element path).
            return
        guarantee = state.guarantee_from
        _stable = self._stable
        for element in run:
            self._note_stable(state, stream_id, element.vc)
            if self.max_stable >= guarantee:
                _stable(element.vc, stream_id)

    # ------------------------------------------------------------------
    # Columnar element processing
    # ------------------------------------------------------------------

    def process_columns(
        self,
        batch: "ColumnBatch",
        stream_id: StreamId,
        *,
        coalesce_stables: bool = False,
    ) -> None:
        """Feed a :class:`~repro.engine.columnar.ColumnBatch` slice.

        Columns are the exchange's wire format, not a second way to run
        the merge: the batch is decoded once at this boundary
        (``to_elements`` — free for an in-process ``from_elements``
        envelope, one bulk conversion for a wire-decoded one) and handed
        to :meth:`process_batch`, the one batch path.
        """
        self.process_batch(
            batch.to_elements(), stream_id, coalesce_stables=coalesce_stables
        )

    # ------------------------------------------------------------------
    # Output emission
    # ------------------------------------------------------------------

    def _emit(self, element: Element) -> None:
        self.output.append(element)
        if self._sink is not None:
            self._sink(element)

    def _emit_batch(self, elements: Sequence[Element]) -> None:
        """Emit several elements at once (one list extend, not n appends).

        Used by the batched fast paths; callers update the output
        statistics themselves.
        """
        if not elements:
            return
        self.output.extend(elements)
        sink = self._sink
        if sink is not None:
            for element in elements:
                sink(element)

    def _output_insert(self, payload: Payload, vs: Timestamp, ve: Timestamp) -> None:
        self.stats.inserts_out += 1
        self._emit(Insert(payload, vs, ve))

    def _output_adjust(
        self, payload: Payload, vs: Timestamp, v_old: Timestamp, ve: Timestamp
    ) -> None:
        self.stats.adjusts_out += 1
        self._emit(Adjust(payload, vs, v_old, ve))

    def _output_stable(self, t: Timestamp) -> None:
        self.stats.stables_out += 1
        self.max_stable = t
        if self.tracer.enabled:
            self.tracer.record("stable_out", self.name, t=t)
        self._emit(Stable(t))
        self._signal_feedback(t)

    # ------------------------------------------------------------------
    # Feedback (Section V-D)
    # ------------------------------------------------------------------

    def add_feedback_listener(self, listener: FeedbackListener) -> None:
        """Register a callback invoked as ``listener(stream_id, t)`` when
        the merge decides elements before *t* from *stream_id* are no
        longer of interest."""
        self._feedback_listeners.append(listener)

    def _signal_feedback(self, t: Timestamp) -> None:
        """Fan a "fast-forward to *t*" signal to every lagging input.

        Called after the output stable point advances to *t*: any input
        whose own stable point trails the output cannot contribute events
        before *t* to the output any more, so its upstream work before *t*
        is wasted (Section V-D).
        """
        if not self._feedback_listeners:
            return
        for stream_id, state in self._inputs.items():
            if state.last_stable < t:
                for listener in self._feedback_listeners:
                    listener(stream_id, t)

    # ------------------------------------------------------------------
    # State accounting
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate bytes of merge state (see :mod:`repro.structures.sizing`)."""
        raise NotImplementedError

    @property
    def index_nodes(self) -> int:
        """Resident index nodes (0 for the O(1)-state variants R0-R2)."""
        return 0

    @property
    def index_bytes(self) -> int:
        """Resident index bytes; same estimate as :meth:`memory_bytes`."""
        try:
            return self.memory_bytes()
        except NotImplementedError:  # pragma: no cover - abstract base
            return 0

    @property
    def spilled_runs(self) -> int:
        spiller = self._spiller
        return spiller.spilled_runs_total if spiller is not None else 0

    @property
    def faulted_runs(self) -> int:
        spiller = self._spiller
        return spiller.faulted_runs_total if spiller is not None else 0

    @property
    def dropped_runs(self) -> int:
        spiller = self._spiller
        return spiller.dropped_runs_total if spiller is not None else 0

    @property
    def spilled_nodes(self) -> int:
        spiller = self._spiller
        return spiller.spilled_nodes if spiller is not None else 0

    def _setup_spill(self, index) -> None:
        """Attach a :class:`~repro.structures.spill.RunSpill` per the
        reclamation policy (no-op unless ``reclamation.spill``)."""
        rec = self.reclamation
        if rec is None or not rec.spill:
            return
        from repro.structures.spill import RunSpill  # lazy: optional path

        self._spiller = RunSpill(
            run_width=rec.run_width,
            hot_runs=rec.hot_runs,
            prefix=self.name,
            directory=rec.store_dir,
        )
        index.enable_spill(self._spiller)

    # ------------------------------------------------------------------
    # Durable state (snapshot/restore; see repro.resilience)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture this merge's full operator state as plain, picklable
        data.

        The snapshot covers everything :meth:`restore_state` needs to
        resume processing mid-stream with identical behaviour: the input
        roster (guarantee/stable/leaving per input), the output frontier,
        the leader cache, the statistics, and the variant's own state via
        :meth:`_snapshot_extra` (scalars for R0-R2, full index contents
        for R3/R4).  Past output *elements* are deliberately excluded —
        replay is deterministic, so recovery re-derives them (see
        docs/RESILIENCE.md).
        """
        return {
            "algorithm": self.algorithm,
            "max_stable": self.max_stable,
            "inputs": {
                stream_id: (state.guarantee_from, state.last_stable, state.leaving)
                for stream_id, state in self._inputs.items()
            },
            "leader": self._leader,
            "leader_stable": self._leader_stable,
            "stats": self.stats.to_state(),
            "extra": self._snapshot_extra(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Restore the state captured by :meth:`snapshot_state`.

        Must be called on a freshly constructed instance of the *same*
        variant (same constructor arguments); raises ``ValueError`` on an
        algorithm mismatch.
        """
        if snapshot["algorithm"] != self.algorithm:
            raise ValueError(
                f"snapshot is from {snapshot['algorithm']!r}, "
                f"cannot restore into {self.algorithm!r}"
            )
        self._inputs.clear()
        for stream_id, (guarantee, last_stable, leaving) in snapshot[
            "inputs"
        ].items():
            self._inputs[stream_id] = _InputState(
                stream_id, guarantee, last_stable, leaving
            )
            # Give the variant its per-input state (R1 counters); the
            # snapshot's extra payload overwrites the values below.
            self._on_attach(stream_id)
        self.max_stable = snapshot["max_stable"]
        self._leader = snapshot["leader"]
        self._leader_stable = snapshot["leader_stable"]
        self.stats = MergeStats.from_state(snapshot["stats"])
        self._restore_extra(snapshot["extra"])

    def _snapshot_extra(self) -> dict:
        """Subclass hook: the variant's own state, as picklable data."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: restore what :meth:`_snapshot_extra` captured."""

    # ------------------------------------------------------------------
    # Offline driver
    # ------------------------------------------------------------------

    def merge(
        self,
        streams: Iterable[PhysicalStream],
        schedule: str = "round_robin",
        seed: int = 0,
    ) -> PhysicalStream:
        """Merge complete physical streams offline and return the output.

        ``schedule`` interleaves the inputs: ``"round_robin"`` alternates
        element-by-element, ``"sequential"`` drains each stream in turn
        (the worst case for buffering), ``"random"`` interleaves by a
        seeded coin.  All inputs are attached as ids ``0..n-1``.
        """
        streams = list(streams)
        for index in range(len(streams)):
            if not self.is_attached(index):
                self.attach(index)
        for element, stream_id in interleave(streams, schedule, seed):
            self.process(element, stream_id)
        return self.output

    def merge_batched(
        self,
        streams: Iterable[PhysicalStream],
        schedule: str = "round_robin",
        seed: int = 0,
        batch_size: int = 64,
        coalesce_stables: bool = False,
    ) -> PhysicalStream:
        """Batched counterpart of :meth:`merge`.

        Feeds the same interleaving as :meth:`merge` (chunked into runs of
        up to *batch_size* consecutive elements per stream) through
        :meth:`process_batch`.  With ``coalesce_stables=False`` the output
        is element-for-element identical to :meth:`merge`.
        """
        streams = list(streams)
        for index in range(len(streams)):
            if not self.is_attached(index):
                self.attach(index)
        for chunk, stream_id in interleave_batches(
            streams, schedule, seed, batch_size
        ):
            self.process_batch(
                chunk, stream_id, coalesce_stables=coalesce_stables
            )
        return self.output


def interleave(
    streams: List[PhysicalStream], schedule: str = "round_robin", seed: int = 0
) -> Iterable[Tuple[Element, int]]:
    """Yield ``(element, stream_id)`` pairs per the named schedule."""
    if schedule == "sequential":
        for stream_id, stream in enumerate(streams):
            for element in stream:
                yield element, stream_id
        return
    lengths = [len(s) for s in streams]
    positions = [0] * len(streams)
    remaining = sum(lengths)
    rng = random.Random(seed)
    turn = 0
    while remaining:
        if schedule == "round_robin":
            stream_id = turn % len(streams)
            turn += 1
            if positions[stream_id] >= lengths[stream_id]:
                continue
        elif schedule == "random":
            live = [i for i in range(len(streams)) if positions[i] < lengths[i]]
            stream_id = rng.choice(live)
        else:
            raise ValueError(f"unknown schedule {schedule!r}")
        element = streams[stream_id][positions[stream_id]]
        positions[stream_id] += 1
        remaining -= 1
        yield element, stream_id


def interleave_batches(
    streams: List[PhysicalStream],
    schedule: str = "round_robin",
    seed: int = 0,
    batch_size: int = 64,
) -> Iterable[Tuple[List[Element], int]]:
    """Yield ``(elements, stream_id)`` chunks per the named schedule.

    Flattening the chunks reproduces exactly the per-element order of
    :func:`interleave` with the same schedule and seed *for the
    "sequential" schedule*; for "round_robin" and "random" the chunks are
    a coarser-grained interleaving (each turn hands over up to
    *batch_size* consecutive elements instead of one), which is itself a
    valid interleaving of the same inputs — the order within each stream
    is preserved.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    materialized = [list(s) for s in streams]
    if schedule == "sequential":
        for stream_id, elements in enumerate(materialized):
            for start in range(0, len(elements), batch_size):
                yield elements[start : start + batch_size], stream_id
        return
    lengths = [len(elements) for elements in materialized]
    positions = [0] * len(materialized)
    remaining = sum(lengths)
    rng = random.Random(seed)
    turn = 0
    while remaining:
        if schedule == "round_robin":
            stream_id = turn % len(materialized)
            turn += 1
            if positions[stream_id] >= lengths[stream_id]:
                continue
        elif schedule == "random":
            live = [
                i for i in range(len(materialized)) if positions[i] < lengths[i]
            ]
            stream_id = rng.choice(live)
        else:
            raise ValueError(f"unknown schedule {schedule!r}")
        start = positions[stream_id]
        chunk = materialized[stream_id][start : start + batch_size]
        positions[stream_id] = start + len(chunk)
        remaining -= len(chunk)
        yield chunk, stream_id
