"""Multicore execution of partitioned merge plans.

:class:`ParallelRuntime` runs N *shard programs* — factory-built
:class:`~repro.lmerge.base.LMergeBase` instances (or anything with the
same ``attach``/``detach``/``process_batch``/``stats`` surface) — each on
its own worker, fed through bounded per-shard input queues:

* ``backend="serial"`` — in-process, for baselines and debugging (the
  default: the thread backend buys no parallelism under the GIL);
* ``backend="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`
  worker per shard.  Cheap interop (elements are shared, not copied), but
  CPU-bound merges contend on the GIL;
* ``backend="process"`` — a persistent :mod:`multiprocessing` worker per
  shard exchanging pickled micro-batch envelopes.  Pays serialization per
  envelope to escape the GIL, which wins for CPU-bound R3/R4 merges on
  multicore hardware.

Orthogonally to the backend, ``envelope`` selects the exchange currency:

* ``envelope="object"`` — micro-batches travel as element lists (the
  PR3-era path; the process backend pickles the object graph per hop);
* ``envelope="columnar"`` — micro-batches travel as
  :class:`~repro.engine.columnar.ColumnBatch`.  Serial and thread
  backends pass the batch by reference; the process backend swaps the
  pickled queues for :class:`~repro.engine.shm.ShmRing` shared-memory
  rings and ships the batch's fixed-header binary encoding — a memcpy
  per column instead of a pickle per element.  Control messages travel
  the same ring, so per-shard ordering is preserved.

Two workers exist because two transports do.  :func:`_shard_loop` serves
the queues (thread backend, and process + object envelope): a message is
``("batch", stream_id, batch)`` by reference and the worker picks
``process_columns`` or ``process_batch`` from the batch's type.
:func:`_ring_shard_loop` serves the shm exchange, whose protocol is
sequenced for every plan: the driver numbers each shard's frames
(``BATCH`` is ``u64 seq | u16 len | sid | RCB1``), the worker applies
them behind a duplicate/gap gate, and every ``OUT`` frame leads with the
worker's cumulative ``u64 emitted_before`` so the driver can drop rows
it has already delivered.  ``OUT`` answers one BATCH by its seq, and a
row the merge re-emitted from that BATCH travels as its row index: the
driver keeps each in-flight BATCH's elements until the frame is
answered and hands back the caller's own objects, so a sharded merge
shares payloads the way an unsharded one does.  On a plain plan the
gate never fires and the slice is empty;
:class:`~repro.resilience.supervisor.SupervisedRuntime` is the layer
that makes them fire — it journals what the driver sends (and resolves
row references from that journal), hands the ring worker a supervision
object (durable store, checkpoints, flight recorder, fault sites) and
replays after a crash.

Backpressure reuses the engine's semantics in the blocking world: a full
bounded input queue (or input ring) blocks :meth:`ParallelRuntime.submit`
— the threaded analogue of a :class:`~repro.engine.runtime.QueuedEdge`
refusing elements — so an overwhelmed shard throttles the partitioner
instead of buffering without bound.  Queue-backed output is unbounded;
the shm output rings are bounded, so ``submit`` drains them while it
waits for input-ring room, which keeps the cycle deadlock-free.

When a :class:`~repro.obs.registry.MetricRegistry` is attached, the shm
exchange keeps per-shard gauges and counters current: bytes shipped per
batch, encode/decode seconds, and ring occupancy (see docs/COLUMNAR.md).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import sys
import traceback
from array import array
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from struct import Struct
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.columnar import ColumnBatch
import repro.engine.shm as shm_rings
from repro.engine.shm import RingClosedError, ShmRing
from repro.temporal.elements import Element

#: Builds one shard's merge; receives the sink callable capturing output.
ShardFactory = Callable[[Callable[[Element], None]], Any]

BACKENDS = ("serial", "thread", "process")
ENVELOPES = ("object", "columnar")

#: Micro-batches a shard's input queue holds before :meth:`submit
#: <ParallelRuntime.submit>` blocks (thread backend, and process backend
#: with the object envelope).  The shm exchange is bounded by its ring.
QUEUE_CAPACITY = 64
#: Bytes in each shm ring, one input and one output ring per shard.
RING_CAPACITY = 1 << 20
#: An OUT frame's head: rows emitted before it, the BATCH seq it
#: answers, its row count.  One ``i32`` source per row follows (the row
#: index into that BATCH, or -1 for the next RCB1 row), then the RCB1
#: frame of the ``-1`` rows.
_OUT_HEAD = Struct("<QQI")

#: One submit() argument: an element list or a ColumnBatch.
Batch = Union[List[Element], ColumnBatch]


class _Rows(list):
    """An OUT frame's resolved rows: a plain element list, which also
    answers the reads of a ColumnBatch (``vs``, ``runs``, ``slice``,
    ``encoded_size``, ...) from one columnarized copy built on the first
    such read.  Only a caller that feeds poll() output to a columnar
    reader pays for it; ShardedLMerge reads the list."""

    __slots__ = ("_columns",)

    def __init__(self, rows: List[Element]) -> None:
        super().__init__(rows)
        self._columns: Optional[ColumnBatch] = None

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        if self._columns is None:
            self._columns = ColumnBatch.from_elements(list(self))
        return getattr(self._columns, name)


class ShardError(RuntimeError):
    """A shard worker died; carries the worker's traceback text."""

    def __init__(self, shard: int, details: str):
        super().__init__(f"shard {shard} failed:\n{details}")
        self.shard = shard
        self.details = details


class _MergeFactory:
    """Picklable ``cls(**kwargs)`` factory (process workers rebuild the
    merge on their side of the fork/spawn)."""

    def __init__(self, cls: type, kwargs: Optional[dict] = None):
        self.cls = cls
        self.kwargs = kwargs or {}

    def __call__(self, sink: Callable[[Element], None]) -> Any:
        return self.cls(sink=sink, **self.kwargs)


def _apply(merge: Any, stream_id, batch: Batch, coalesce_stables: bool) -> None:
    """Feed one by-reference micro-batch to *merge*, whichever envelope
    it travels in."""
    if isinstance(batch, ColumnBatch):
        merge.process_columns(batch, stream_id, coalesce_stables=coalesce_stables)
    else:
        merge.process_batch(batch, stream_id, coalesce_stables=coalesce_stables)


def _shard_loop(
    shard: int,
    factory: ShardFactory,
    get: Callable[[], Any],
    put: Callable[[Tuple], None],
    coalesce_stables: bool,
) -> None:
    """The queue worker's life: build the merge, apply messages until the
    ``None`` sentinel, report outputs after every batch and statistics at
    the end.  Runs identically on a thread or in a child process."""
    try:
        buffer: List[Element] = []
        merge = factory(buffer.append)
        while True:
            message = get()
            if message is None:
                put(("done", shard, merge.stats))
                return
            kind = message[0]
            if kind == "batch":
                _apply(merge, message[1], message[2], coalesce_stables)
                if buffer:
                    put(("out", shard, buffer[:]))
                    buffer.clear()
            elif kind == "attach":
                merge.attach(message[1], message[2])
            elif kind == "detach":
                merge.detach(message[1])
            else:  # pragma: no cover - driver and worker are in lockstep
                raise ValueError(f"unknown envelope kind {kind!r}")
    except BaseException:
        put(("error", shard, traceback.format_exc()))


def _ring_shard_loop(
    shard: int,
    factory: ShardFactory,
    in_ring: ShmRing,
    out_ring: ShmRing,
    coalesce_stables: bool,
    telemetry_interval: float,
    supervision: Any,
) -> None:
    """The shm-exchange worker: one incarnation of one shard.

    Applies the driver's sequenced frames behind a duplicate/gap gate
    (a frame already applied is skipped; a frame past the next expected
    one is reported as ``("gap", expected, got)`` and ends the worker),
    decodes :data:`~repro.engine.shm.BATCH` frames straight out of the
    input ring, and answers each with one :data:`~repro.engine.shm.OUT`
    frame behind the count of rows emitted before it: an output row that
    is one of the frame's own input elements travels as its row index,
    every other row in RCB1.  Control frames share the input
    ring, so they apply in exactly the order the driver issued them.

    With *telemetry_interval* > 0 the worker keeps a local registry and
    observer, and ships snapshot deltas to the driver as best-effort
    :data:`~repro.engine.shm.TELEM` frames — dropped (never blocking)
    when the output ring is full.

    *supervision* is ``None`` on a plain plan.  A supervised plan passes
    the worker half of :mod:`repro.resilience.supervisor`: it restores
    the last durable snapshot, and after every batch records it, fires
    the fault sites and says when to checkpoint.  It owns the disk; this
    loop owns the rings, so every frame a worker can put is put here.
    """
    try:
        in_ring.child_deregister()
        out_ring.child_deregister()
        parent = multiprocessing.parent_process()
        if parent is not None:
            # A dead driver turns blocking ring waits into PeerDeadError
            # (a RingClosedError), so the worker exits instead of
            # spinning as an orphan on a ring nobody will ever drain.
            in_ring.set_liveness(parent.is_alive)
            out_ring.set_liveness(parent.is_alive)
        buffer: List[Element] = []
        merge = factory(buffer.append)
        applied_seq = emitted = processed = 0
        beat_interval = None  # an unsupervised worker blocks on its ring
        if supervision is not None:
            applied_seq, emitted = supervision.open(shard, merge)
            beat_interval = supervision.heartbeat_interval
            # Bounded like every heartbeat: if the driver is wedged with
            # a full ring, blocking here would deadlock the restart — a
            # missed announce is recovered by the driver's resume timeout.
            out_ring.put_pickle(
                shm_rings.HB, ("resumed", applied_seq, emitted), timeout=5.0
            )
        emitter = None
        if telemetry_interval > 0:
            # Imported here: obs stays out of the engine's import graph
            # (and out of the fork image) unless telemetry is on.
            from repro.obs.lmerge_obs import LMergeObserver
            from repro.obs.registry import MetricRegistry
            from repro.obs.telemetry import TelemetryEmitter
            from repro.obs.trace import RingTracer

            worker_registry = MetricRegistry()
            observer = LMergeObserver(merge, worker_registry)
            worker_tracer = RingTracer(capacity=4096)
            emitter = TelemetryEmitter(
                worker_registry,
                shard,
                tracer=worker_tracer,
                interval=telemetry_interval,
            )
            batch_seconds = worker_registry.histogram(
                "shard_batch_seconds",
                help="Worker-side wall seconds per input batch.",
            )
        while True:
            if emitter is not None:
                delta = emitter.maybe_delta()
                if delta is not None:
                    out_ring.put_pickle(shm_rings.TELEM, delta, timeout=0)
            frame = in_ring.get(timeout=beat_interval)
            if frame is None:  # idle for a whole heartbeat interval
                out_ring.put_pickle(
                    shm_rings.HB, ("hb", applied_seq, emitted), timeout=0
                )
                supervision.idle()
                continue
            kind, payload = frame
            if kind == shm_rings.BATCH:
                seq = int.from_bytes(payload[:8], "little")
            elif kind == shm_rings.CTRL:
                message = pickle.loads(payload)
                if message is None:
                    if supervision is not None:
                        supervision.close(applied_seq, emitted)
                    if emitter is not None:
                        observer.sample(clock=float(processed))
                        delta = emitter.delta()
                        if delta is not None:
                            out_ring.put_pickle(
                                shm_rings.TELEM, delta, timeout=0
                            )
                    out_ring.put_pickle(shm_rings.DONE, merge.stats)
                    return
                seq = message[1] if message[0] == "op" else 0
            else:  # pragma: no cover - driver and worker in lockstep
                raise ValueError(f"unexpected frame kind {kind}")
            if seq:
                if seq <= applied_seq:
                    continue  # duplicated delivery: already applied
                if seq != applied_seq + 1:
                    # A frame was lost or reordered in front of us; we
                    # cannot apply out of order — report it and stop.
                    out_ring.put_pickle(
                        shm_rings.HB,
                        ("gap", applied_seq + 1, seq),
                        timeout=5.0,
                    )
                    return
            checkpoint = None
            if kind == shm_rings.BATCH:
                sid_len = int.from_bytes(payload[8:10], "little")
                stream_id = pickle.loads(payload[10 : 10 + sid_len])
                batch = ColumnBatch.decode(
                    memoryview(payload)[10 + sid_len :]
                )
                started = perf_counter()
                elements = batch.to_elements()
                merge.process_batch(
                    elements, stream_id, coalesce_stables=coalesce_stables
                )
                applied_seq = seq
                rows = len(buffer)
                if rows:
                    # A row the merge re-emits from this very frame goes
                    # back as its row index; the driver answers it with
                    # the object its caller submitted.
                    row_of = {id(e): i for i, e in enumerate(elements)}.get
                    sources = array("i", [row_of(id(e), -1) for e in buffer])
                    out = ColumnBatch.from_elements(
                        [e for e, row in zip(buffer, sources) if row < 0]
                    )
                    buffer.clear()
                    # Lineage: the output inherits the triggering input
                    # batch's trace id, closing the submit->output span.
                    out.trace_id = batch.trace_id
                    size, prebuilt = out.encoded_size()
                    head = _OUT_HEAD.pack(emitted, seq, rows) + sources.tobytes()

                    def fill(view: memoryview) -> None:
                        view[: len(head)] = head
                        out.encode_into(view[len(head) :], prebuilt)

                    out_ring.put_frame(shm_rings.OUT, len(head) + size, fill)
                    emitted += rows
                if emitter is not None:
                    processed += batch.n
                    duration = perf_counter() - started
                    batch_seconds.observe(duration)
                    # The worker half of the cross-process trace: ships
                    # in the next delta and stitches (by tid) to the
                    # driver's exchange span for the same batch.
                    worker_tracer.record(
                        "span",
                        "shard-batch",
                        tid=batch.trace_id,
                        n=batch.n,
                        dur=duration,
                    )
                    observer.sample(clock=float(processed))
                if supervision is not None:
                    # Publish, then record and fire the fault sites, then
                    # beat, then checkpoint: a killed batch is never
                    # durable, so recovery always has a tail to replay.
                    supervision.batch_applied(
                        seq, batch.n, rows, perf_counter() - started
                    )
                    out_ring.put_pickle(
                        shm_rings.HB, ("hb", applied_seq, emitted), timeout=0
                    )
                    if supervision.checkpoint_due():
                        checkpoint = "auto"
            elif message[0] == "op":
                op = message[2]
                if op[0] == "attach":
                    merge.attach(op[1], op[2])
                else:
                    merge.detach(op[1])
                applied_seq = seq
            elif message[0] == "ckpt":
                checkpoint = message[1]
            else:  # pragma: no cover - driver and worker in lockstep
                raise ValueError(f"unknown control {message!r}")
            if checkpoint is not None:
                store_bytes = supervision.checkpoint(applied_seq, emitted)
                out_ring.put_pickle(
                    shm_rings.CKPT,
                    (checkpoint, applied_seq, emitted, store_bytes),
                    timeout=5.0,
                )
    except RingClosedError:  # pragma: no cover - driver aborted first
        pass
    except BaseException:
        details = traceback.format_exc()
        delivered = False
        try:
            delivered = out_ring.put_pickle(
                shm_rings.ERR, details, timeout=5.0
            )
        except Exception:  # pragma: no cover - ring torn down
            pass
        if not delivered:  # pragma: no cover - ERR frame could not land
            # Last resort: the driver will only see "worker died without
            # reporting stats", so leave the real cause on stderr.
            sys.stderr.write(f"[ring shard {shard}] {details}\n")


class ParallelRuntime:
    """Drive N shard programs on parallel workers with bounded queues.

    Lifecycle::

        runtime = ParallelRuntime(factory, num_shards=4, backend="process")
        runtime.start()
        runtime.broadcast_attach(stream_id)
        runtime.submit(shard, stream_id, elements)   # blocks when full
        for shard, outputs in runtime.poll():        # drain ready output
            ...
        stats = runtime.close()                      # join; final outputs
        for shard, outputs in runtime.poll():        #   remain pollable
            ...

    *factory* is called once per worker with the output sink; for the
    process backend it must be picklable (see :func:`merge_factory`).
    """

    def __init__(
        self,
        factory: ShardFactory,
        num_shards: int,
        backend: str = "serial",
        coalesce_stables: bool = False,
        registry=None,
        envelope: str = "columnar",
        telemetry_interval: float = 0.0,
        tracer=None,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected {BACKENDS}")
        if envelope not in ENVELOPES:
            raise ValueError(
                f"unknown envelope {envelope!r}; expected {ENVELOPES}"
            )
        self.factory = factory
        self.num_shards = num_shards
        self.backend = backend
        self.envelope = envelope
        self.coalesce_stables = coalesce_stables
        #: Optional :class:`repro.obs.registry.MetricRegistry`: when set,
        #: submit/poll keep per-shard queue-depth gauges and element
        #: counters current (sampled per micro-batch, not per element).
        self.registry = registry
        #: Seconds between worker TELEM emissions (0 disables live
        #: telemetry).  Only meaningful on the shm exchange — the other
        #: backends share the driver's address space already.
        self.telemetry_interval = telemetry_interval
        #: Live TELEM merge target, built lazily in :meth:`start` when
        #: both a registry and a telemetry interval are configured.
        self.telemetry = None
        #: Optional callback fired after each merged TELEM frame with the
        #: emitting shard — the live-sampling hook
        #: (:meth:`repro.obs.lmerge_obs.ShardObserver.sample_shard`).
        self.on_telemetry: Optional[Callable[[int], None]] = None
        self._tracer = tracer
        self.submitted = 0
        self.collected = 0
        #: Grace period close() gives each worker before escalating to
        #: terminate()/kill() (see :meth:`_join_or_escalate`).
        self.close_join_timeout = 30.0
        self._started = False
        self._closed = False
        self._pending: List[Tuple[int, List[Element]]] = []
        self._stats: List[Any] = []
        # Backend state, populated by start().
        self._inputs: List[Any] = []
        self._output: Any = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._processes: List[multiprocessing.Process] = []
        self._serial_shards: List[Any] = []
        self._serial_buffers: List[List[Element]] = []
        self._context: Any = None  # multiprocessing context (process backend)
        # Shm-exchange state (process backend + columnar envelope).
        self._in_rings: List[Optional[ShmRing]] = []
        self._out_rings: List[Optional[ShmRing]] = []
        self._final_stats: Dict[int, Any] = {}
        #: Next frame number per shard (the worker's gate expects them
        #: consecutive from 1) and output rows already handed to poll().
        self._next_seq = [1] * num_shards
        self._delivered = [0] * num_shards
        #: Per shard, ``(seq, elements)`` of every BATCH sent since the
        #: shard's last OUT: the rows an OUT frame may refer back to.
        self._inflight: List[deque] = [deque() for _ in range(num_shards)]

    @property
    def _uses_shm(self) -> bool:
        return self.backend == "process" and self.envelope == "columnar"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ParallelRuntime":
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        if self.backend == "serial":
            for shard in range(self.num_shards):
                buffer: List[Element] = []
                self._serial_buffers.append(buffer)
                self._serial_shards.append(self.factory(buffer.append))
        elif self.backend == "thread":
            self._inputs = [
                queue.Queue(maxsize=QUEUE_CAPACITY)
                for _ in range(self.num_shards)
            ]
            self._output = queue.SimpleQueue()
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="shard",
            )
            for shard in range(self.num_shards):
                self._executor.submit(
                    _shard_loop,
                    shard,
                    self.factory,
                    self._inputs[shard].get,
                    self._output.put,
                    self.coalesce_stables,
                )
        else:
            self._context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            self._processes = [None] * self.num_shards  # type: ignore[list-item]
            if self._uses_shm:
                if self.registry is not None and self.telemetry_interval > 0:
                    # Imported lazily: the engine never touches repro.obs
                    # unless live telemetry is actually requested.
                    from repro.obs.telemetry import TelemetryAggregator

                    self.telemetry = TelemetryAggregator(
                        self.registry, self._tracer
                    )
                self._in_rings = [None] * self.num_shards
                self._out_rings = [None] * self.num_shards
                for shard in range(self.num_shards):
                    self._spawn(shard)
            else:  # object envelope: pickled queues
                self._inputs = [
                    self._context.Queue(maxsize=QUEUE_CAPACITY)
                    for _ in range(self.num_shards)
                ]
                self._output = self._context.Queue()
                for shard in range(self.num_shards):
                    process = self._context.Process(
                        target=_shard_loop,
                        args=(
                            shard,
                            self.factory,
                            self._inputs[shard].get,
                            self._output.put,
                            self.coalesce_stables,
                        ),
                        daemon=True,
                    )
                    process.start()
                    self._processes[shard] = process
        return self

    def _worker_supervision(self, shard: int) -> Any:
        """What *shard*'s ring worker is supervised by: nothing."""
        return None

    def _spawn(self, shard: int) -> None:
        """Create fresh rings and one ring worker for *shard*."""
        in_ring = ShmRing(RING_CAPACITY)
        out_ring = ShmRing(RING_CAPACITY)
        process = self._context.Process(
            target=_ring_shard_loop,
            args=(
                shard,
                self.factory,
                in_ring,
                out_ring,
                self.coalesce_stables,
                self.telemetry_interval,
                self._worker_supervision(shard),
            ),
            daemon=True,
        )
        process.start()
        # A dead worker turns blocking ring waits into PeerDeadError
        # instead of an infinite spin.
        in_ring.set_liveness(process.is_alive)
        out_ring.set_liveness(process.is_alive)
        self._in_rings[shard] = in_ring
        self._out_rings[shard] = out_ring
        self._processes[shard] = process

    def close(self) -> List[Any]:
        """Send every worker its sentinel, gather final outputs and the
        per-shard statistics, and join the workers.

        Returns the per-shard stats list (``merge.stats`` objects, index =
        shard).  Remaining outputs stay queued for :meth:`poll`.
        """
        self._require_started()
        if self._closed:
            return self._stats
        self._closed = True
        if self.backend == "serial":
            self._stats = [shard.stats for shard in self._serial_shards]
            return self._stats
        if self._uses_shm:
            return self._close_shm()
        stats: List[Any] = [None] * self.num_shards
        for shard_queue in self._inputs:
            shard_queue.put(None)
        done = 0
        while done < self.num_shards:
            message = self._output.get()
            if message[0] == "done":
                stats[message[1]] = message[2]
                done += 1
            elif message[0] == "error":
                self._abort()
                raise ShardError(message[1], message[2])
            else:
                self._note_output(message)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._join_or_escalate(stats)
        self._stats = stats
        return stats

    def _close_shm(self) -> List[Any]:
        """Shm-exchange shutdown: stop the workers, join them, free the
        rings."""
        self._stop_workers()
        stats = [self._final_stats[shard] for shard in range(self.num_shards)]
        self._join_or_escalate(stats)
        # Every worker's DONE is in, so the rings are drained (per-shard
        # FIFO puts all OUT frames before DONE); any remaining output now
        # lives in _pending, which poll() keeps serving after close.
        for ring in (*self._in_rings, *self._out_rings):
            ring.destroy()
        self._in_rings = []
        self._out_rings = []
        for inflight in self._inflight:  # frames that produced no output
            inflight.clear()
        self._stats = stats
        return stats

    def _stop_workers(self) -> None:
        """Sentinel through each input ring, then drain each output ring
        to its worker's DONE frame (parked in ``_final_stats``)."""
        for shard in range(self.num_shards):
            if not self._put_control(shard, None):
                self._undeliverable(shard, "shutdown")
        for shard in range(self.num_shards):
            while shard not in self._final_stats:
                got = self._drain_shm_ring(shard, timeout=1.0)
                if not got and not self._processes[shard].is_alive():
                    self._abort()
                    raise ShardError(
                        shard, "worker died without reporting stats"
                    )

    def _drain_shm_outputs(self) -> None:
        """One non-blocking sweep over every shard's output ring."""
        if not self._out_rings:  # rings already torn down by close()
            return
        for shard in range(self.num_shards):
            while self._drain_shm_ring(shard, timeout=0):
                pass

    def _drain_shm_ring(self, shard: int, timeout: float) -> bool:
        """Consume at most one frame from *shard*'s output ring.

        OUT frames become pending batches — minus any leading rows a
        replayed worker emitted before and the driver already has, which
        are dropped before anything is resolved — DONE frames park the
        worker's final stats for :meth:`close`, and whatever the worker
        says about itself (HB, CKPT, ERR) goes to :meth:`_worker_report`.
        Returns True when a frame was consumed.
        """
        try:
            frame = self._out_rings[shard].get(timeout=timeout)
        except RingClosedError:  # abort already ran, or the worker died
            return False
        if frame is None:
            return False
        kind, payload = frame
        if kind == shm_rings.OUT:
            registry = self.registry
            started = perf_counter() if registry is not None else 0.0
            emitted_before, seq, count = _OUT_HEAD.unpack_from(payload)
            sources = array("i")
            rows_at = _OUT_HEAD.size + sources.itemsize * count
            sources.frombytes(payload[_OUT_HEAD.size : rows_at])
            rest = ColumnBatch.decode(memoryview(payload)[rows_at:])
            inputs = self._answered(shard, seq)
            skip = self._delivered[shard] - emitted_before
            if skip < count:
                # Rows already delivered go before any reference resolves.
                skip = max(skip, 0)
                skipped_rest = sum(1 for row in sources[:skip] if row < 0)
                rows = iter(rest.elements_slice(skipped_rest, len(rest)))
                resolved = [
                    inputs[row] if row >= 0 else next(rows)
                    for row in sources[skip:]
                ]
                self._pending.append((shard, _Rows(resolved)))
                self._delivered[shard] = emitted_before + count
            if registry is not None:
                labels = {"shard": shard}
                registry.counter(
                    "exchange_decode_seconds_total", labels
                ).inc(perf_counter() - started)
                registry.counter("exchange_bytes_total", labels).inc(
                    len(payload)
                )
            if self.telemetry is not None and rest.trace_id:
                self.telemetry.note_output(rest.trace_id)
        elif kind == shm_rings.TELEM:
            if self.telemetry is not None:
                self.telemetry.merge(pickle.loads(payload))
                if self.on_telemetry is not None:
                    self.on_telemetry(shard)
        elif kind == shm_rings.DONE:
            self._final_stats[shard] = pickle.loads(payload)
        else:
            self._worker_report(shard, kind, pickle.loads(payload))
        return True

    def _answered(self, shard: int, seq: int) -> Sequence[Element]:
        """The elements of *shard*'s BATCH *seq*, which an OUT frame
        answers.  Frames up to *seq* leave the in-flight table: the
        worker applies them in order and answers only the latest."""
        inflight = self._inflight[shard]
        while inflight and inflight[0][0] < seq:
            inflight.popleft()
        if inflight and inflight[0][0] == seq:
            return inflight.popleft()[1]
        return ()

    @staticmethod
    def _reported_failure(kind: int, message: Any) -> Optional[str]:
        """The failure text in a worker's HB/ERR frame, if it holds one."""
        if kind == shm_rings.ERR:
            return message
        if kind == shm_rings.HB and message[0] == "gap":
            return (
                f"sequence gap: worker expected {message[1]}, "
                f"got {message[2]}"
            )
        return None

    def _worker_report(self, shard: int, kind: int, message: Any) -> None:
        """A worker reported on itself; nobody recovers a plain plan's
        workers, so a failure report is the end of the run."""
        details = self._reported_failure(kind, message)
        if details is not None:
            self._abort()
            raise ShardError(shard, details)

    def _note_output(self, message: Tuple) -> None:
        """Stash an ``("out", shard, elements)`` message for :meth:`poll`."""
        if message[0] == "out":
            self._pending.append((message[1], message[2]))

    def _join_or_escalate(self, stats: List[Any]) -> None:
        """Join every worker, escalating join(30) -> terminate() ->
        kill() for any that refuse to exit.

        An escalation is recorded on the shard's
        :attr:`~repro.lmerge.base.MergeStats.escalations` counter (when
        the stats object carries one) and, with a registry attached, on
        the ``shard_close_escalations_total`` counter — a hung worker at
        shutdown is a bug signal, not business as usual.
        """
        for shard, process in enumerate(self._processes):
            process.join(timeout=self.close_join_timeout)
            if not process.is_alive():
                continue
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join(timeout=5)
            if (
                shard < len(stats)
                and stats[shard] is not None
                and hasattr(stats[shard], "escalations")
            ):
                stats[shard].escalations += 1
            if self.registry is not None:
                # Escalations are a per-close rarity, not a hot loop.
                self.registry.counter(  # noqa: REP109
                    "shard_close_escalations_total", {"shard": shard}
                ).inc()

    def _abort(self) -> None:
        """Tear workers down after a shard error."""
        if self._executor is not None:
            for shard_queue in self._inputs:
                try:
                    shard_queue.put_nowait(None)
                except queue.Full:
                    pass
            self._executor.shutdown(wait=False)
        for ring in (*self._in_rings, *self._out_rings):
            if ring is not None:
                ring.close_ring()
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._processes:
            if process is not None:
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - stuck in kernel
                    process.kill()
                    process.join(timeout=5)
        for ring in (*self._in_rings, *self._out_rings):
            if ring is not None:
                ring.destroy()
        self._in_rings = []
        self._out_rings = []
        for inflight in self._inflight:
            inflight.clear()

    # ------------------------------------------------------------------
    # Element flow
    # ------------------------------------------------------------------

    def broadcast_attach(self, stream_id, guarantee_from=None) -> None:
        """Attach *stream_id* on every shard (all shards share the input
        roster — each sees its partition of every input)."""
        from repro.temporal.time import MINUS_INFINITY

        if guarantee_from is None:
            guarantee_from = MINUS_INFINITY
        self._broadcast(("attach", stream_id, guarantee_from))

    def broadcast_detach(self, stream_id) -> None:
        self._broadcast(("detach", stream_id))

    def _broadcast(self, message: Tuple) -> None:
        self._require_open()
        if self.backend == "serial":
            for shard in self._serial_shards:
                if message[0] == "attach":
                    shard.attach(message[1], message[2])
                else:
                    shard.detach(message[1])
            return
        if self._uses_shm:
            for shard in range(self.num_shards):
                self._send(shard, ("op", message))
            return
        for shard_queue in self._inputs:
            shard_queue.put(message)

    def submit(
        self, shard: int, stream_id, elements: Union[Sequence[Element], ColumnBatch]
    ) -> None:
        """Feed one micro-batch from *stream_id* to *shard*.

        *elements* may be an element sequence or a
        :class:`~repro.engine.columnar.ColumnBatch`; either is converted
        to the runtime's configured envelope at this boundary.  Blocks
        while the shard's bounded input queue (or ring) is full — the
        backpressure path that throttles an overwhelming producer.
        """
        self._require_open()
        if not len(elements):
            return
        self.submitted += len(elements)
        registry = self.registry
        if registry is not None:
            labels = {"shard": shard}
            registry.counter("shard_elements_submitted_total", labels).inc(
                len(elements)
            )
            depth = self.queue_depth(shard)
            if depth is not None:
                gauge = registry.gauge("shard_queue_depth", labels)
                gauge.set(depth)
                peak = registry.gauge("shard_queue_peak", labels)
                if depth > peak.value:
                    peak.set(depth)
        is_batch = isinstance(elements, ColumnBatch)
        batch: Batch
        if self.envelope == "columnar":
            batch = (
                elements
                if is_batch
                else ColumnBatch.from_elements(list(elements))
            )
        else:
            batch = list(elements.to_elements() if is_batch else elements)
        if self.backend == "serial":
            buffer = self._serial_buffers[shard]
            _apply(
                self._serial_shards[shard],
                stream_id,
                batch,
                self.coalesce_stables,
            )
            if buffer:
                self._pending.append((shard, buffer[:]))
                buffer.clear()
        elif self._uses_shm:
            self._send(shard, ("batch", stream_id, batch))
        else:
            self._inputs[shard].put(("batch", stream_id, batch))

    # ------------------------------------------------------------------
    # The shm exchange, driver side
    # ------------------------------------------------------------------

    def _send(self, shard: int, entry: Tuple) -> None:
        """Number *entry* — ``("batch", stream_id, ColumnBatch)`` or
        ``("op", op_tuple)`` — as *shard*'s next frame and deliver it."""
        seq = self._next_seq[shard]
        self._next_seq[shard] = seq + 1
        if entry[0] == "batch":
            self._inflight[shard].append((seq, entry[2].to_elements()))
        if not self._put_entry(shard, seq, entry):
            self._undeliverable(shard, f"frame {seq} ({entry[0]})")

    def _undeliverable(self, shard: int, what: str) -> None:
        exitcode = self._processes[shard].exitcode
        self._abort()
        raise ShardError(
            shard,
            f"worker process died (exitcode {exitcode}); {what} "
            "undeliverable",
        ) from None

    def _shard_ok(self, shard: int) -> bool:
        """Whether *shard* is still worth waiting on while its input
        ring is full.  A plain plan's dead worker surfaces from the ring
        itself (PeerDeadError), so there is nothing else to ask."""
        return True

    def _put_draining(self, shard: int, put: Callable[[], bool]) -> bool:
        """Retry *put* (one bounded ring put) until the frame lands.

        While the input ring is full the driver drains the output rings
        — the move that keeps bounded-in/bounded-out cycles
        deadlock-free.  False when the frame cannot land: the ring
        closed or its worker died, or the shard stopped being ok.
        """
        try:
            while not put():
                self._drain_shm_outputs()
                if not self._shard_ok(shard):
                    return False
        except RingClosedError:
            return False
        return True

    def _put_control(self, shard: int, message: Any) -> bool:
        """Deliver one pickled control message to *shard*."""
        ring = self._in_rings[shard]
        return self._put_draining(
            shard,
            lambda: ring.put_pickle(shm_rings.CTRL, message, timeout=0.05),
        )

    def _put_entry(self, shard: int, seq: int, entry: Tuple) -> bool:
        """Encode frame *seq* straight into *shard*'s input ring."""
        if entry[0] != "batch":
            return self._put_control(shard, ("op", seq, entry[1]))
        _, stream_id, batch = entry
        registry = self.registry
        started = perf_counter() if registry is not None else 0.0
        telemetry = self.telemetry
        if telemetry is not None:
            from repro.obs.telemetry import make_trace_id

            # Stamp lineage before encoding: the id rides the RCB1 frame
            # into the worker and back on the triggering output batch,
            # and being a function of (shard, seq) it survives a replay.
            batch.trace_id = make_trace_id(shard, seq)
            telemetry.note_submit(batch.trace_id)
        size, prebuilt = batch.encoded_size()
        sid_blob = pickle.dumps(stream_id, pickle.HIGHEST_PROTOCOL)
        head = (
            seq.to_bytes(8, "little")
            + len(sid_blob).to_bytes(2, "little")
            + sid_blob
        )
        frame_size = len(head) + size

        def fill(view: memoryview) -> None:
            view[: len(head)] = head
            batch.encode_into(view[len(head) :], prebuilt)

        ring = self._in_rings[shard]
        if registry is not None:
            encode_seconds = perf_counter() - started
            labels = {"shard": shard}
            registry.counter("exchange_batches_total", labels).inc()
            registry.counter("exchange_bytes_total", labels).inc(frame_size)
            registry.counter("exchange_encode_seconds_total", labels).inc(
                encode_seconds
            )
        landed = self._put_draining(
            shard,
            lambda: ring.put_frame(
                shm_rings.BATCH, frame_size, fill, timeout=0.05
            ),
        )
        if landed and registry is not None:
            registry.gauge("exchange_ring_occupancy", {"shard": shard}).set(
                ring.occupancy
            )
        return landed

    def poll(self) -> List[Tuple[int, List[Element]]]:
        """All output micro-batches ready right now, as ``(shard,
        batch)`` pairs in arrival order (per-shard order is FIFO).

        A batch is an element list on every backend.  On the shm
        exchange its rows are the caller's own element objects wherever
        the worker re-emitted an input, and it also answers the reads of
        a :class:`~repro.engine.columnar.ColumnBatch` (built on the first
        one), so a columnar reader such as ``ShardUnion.receive_columns``
        still takes it.
        """
        self._require_started()
        if self._uses_shm:
            self._drain_shm_outputs()
        ready = self._pending
        self._pending = []
        if self._output is not None:
            while True:
                try:
                    message = self._output.get_nowait()
                except queue.Empty:
                    break
                if message[0] == "error":
                    self._abort()
                    raise ShardError(message[1], message[2])
                if message[0] == "out":
                    ready.append((message[1], message[2]))
                # "done" messages are consumed by close().
        collected = sum(len(elements) for _, elements in ready)
        self.collected += collected
        if self.registry is not None and collected:
            self.registry.counter("shard_elements_collected_total").inc(
                collected
            )
        return ready

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self, shard: int) -> Optional[int]:
        """One shard's input-queue depth right now.

        Serial shards have no queue (always 0); ``None`` where the
        platform's queues cannot report a size (``qsize`` is unsupported
        on some macOS multiprocessing queues).
        """
        if self._uses_shm:
            return self._in_rings[shard].frames if self._in_rings else 0
        if self.backend == "serial" or not self._inputs:
            return 0
        try:
            return self._inputs[shard].qsize()
        except NotImplementedError:  # pragma: no cover - platform quirk
            return None

    def queue_depths(self) -> List[Optional[int]]:
        """Per-shard input-queue depths, index = shard."""
        return [self.queue_depth(shard) for shard in range(self.num_shards)]

    @property
    def stats(self) -> List[Any]:
        """Per-shard merge statistics; populated by :meth:`close`."""
        return self._stats

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("runtime not started; call start() first")

    def _require_open(self) -> None:
        self._require_started()
        if self._closed:
            raise RuntimeError("runtime already closed")

    def __enter__(self) -> "ParallelRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed and exc_type is None:
            self.close()
        elif not self._closed:
            # Error path: don't mask the original exception with a join.
            self._closed = True
            self._abort()


def merge_factory(cls: type, **kwargs) -> ShardFactory:
    """A picklable shard factory building ``cls(sink=..., **kwargs)``.

    Use this (not a lambda or closure) for the process backend: child
    workers unpickle the factory and construct their own merge instance.
    """
    return _MergeFactory(cls, kwargs)


def available_cores() -> int:
    """CPUs this process may run on (caps useful shard counts)."""
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return multiprocessing.cpu_count()

