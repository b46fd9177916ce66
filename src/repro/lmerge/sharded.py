"""Partition-parallel LMerge: ``shard()`` wraps any variant in an N-shard
hash-partitioned plan.

The plan is the exchange sandwich::

    inputs --partition_columns--> N x LMerge(variant) --ShardUnion--> output
              (by payload key,          (one worker        (data in arrival
               stables broadcast)        per shard)         order; CTI = min
                                                            shard frontier)

Why this is lossless: every LMerge decision — duplicate elimination,
adjust reconciliation, freeze-out — is made per ``(Vs, payload)`` key
from that key's own state plus the stable frontier.  Routing by a payload
key sends every element of a key to the same shard, and broadcasting
``stable()`` advances every shard's frontier exactly as the unsharded
merge's, so the per-key output is identical; the union of disjoint
per-key outputs reconstitutes the same TDB.  The combined punctuation is
the pointwise minimum of the shard frontiers — the output may only
promise what every shard has promised (see docs/ALGORITHMS.md,
"Partitioned execution").

:class:`ShardedLMerge` mirrors the :class:`~repro.lmerge.base.LMergeBase`
driving surface (``attach``/``process``/``process_batch``/``merge``/
``output``/``stats``) so benches and tests can swap it in for a plain
variant; call :meth:`ShardedLMerge.close` (or use the offline driver,
which closes for you) to join the workers and fold the per-shard
statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Type, Union

from repro.lmerge.base import (
    InputStateError,
    LMergeBase,
    MergeStats,
    StreamId,
    interleave_batches,
)
from repro.streams.stream import PhysicalStream
from repro.temporal.elements import Element
from repro.temporal.time import MINUS_INFINITY, Timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.parallel import ParallelRuntime


class ShardedLMerge:
    """An N-shard partitioned LMerge plan with the LMergeBase surface.

    Its keywords are the whole configuration of a sharded plan; queue
    and ring sizes live in :mod:`repro.engine.parallel` and supervision
    timings in :mod:`repro.resilience.supervisor` as module constants.
    ``durable_dir``, ``fault_plan`` and ``fsync`` configure supervision,
    so they need ``supervised=True``.  Any other keyword is the variant's
    own (``reclamation=``, ``policy=``).
    """

    #: Prefix of the union and sink operator names.
    name = "sharded-lmerge"

    def __init__(
        self,
        merge_cls: Type[LMergeBase],
        num_shards: int,
        *,
        backend: str = "serial",
        coalesce_stables: bool = False,
        registry=None,
        envelope: str = "columnar",
        supervised: bool = False,
        durable_dir: Optional[str] = None,
        fault_plan=None,
        fsync: bool = False,
        telemetry_interval: float = 0.0,
        tracer=None,
        **merge_kwargs,
    ):
        # The exchange (and multiprocessing with it) loads with the first
        # sharded plan, so an unsharded merge never compiles it.
        from repro.engine.columnar import ColumnBatch
        from repro.engine.operator import CollectorSink
        from repro.engine.parallel import ENVELOPES, ParallelRuntime, merge_factory
        from repro.operators.exchange import (
            ShardUnion,
            partition_batch,
            partition_columns,
        )

        if num_shards < 1:
            raise ValueError("need at least one shard")
        if envelope not in ENVELOPES:
            raise ValueError(
                f"unknown envelope {envelope!r}; expected {ENVELOPES}"
            )
        if supervised:
            if backend != "process" or envelope != "columnar":
                raise ValueError(
                    "supervised plans require backend='process' and "
                    "envelope='columnar' (the shm exchange carries the "
                    "sequencing and heartbeat frames)"
                )
            if durable_dir is None:
                raise ValueError(
                    "supervised plans need durable_dir for their "
                    "per-shard state stores"
                )
        elif durable_dir is not None or fault_plan is not None or fsync:
            raise ValueError(
                "durable_dir, fault_plan and fsync configure supervision; "
                "pass supervised=True"
            )
        self.merge_cls = merge_cls
        self.algorithm = f"{merge_cls.algorithm}x{num_shards}[{backend}]"
        self.restriction = merge_cls.restriction
        self.input_adapters: List[object] = []
        self.num_shards = num_shards
        self.backend = backend
        #: Exchange currency: ``"columnar"`` ships ColumnBatch slices end
        #: to end (shared-memory rings on the process backend);
        #: ``"object"`` is the PR3-era element-list path.
        self.envelope = envelope
        #: Optional :class:`repro.obs.registry.MetricRegistry`: threads
        #: through the worker runtime (queue depths), the union (frontier
        #: gauges), and a :class:`repro.obs.lmerge_obs.ShardObserver`
        #: sampled on every collect.
        self.registry = registry
        #: Seconds between worker TELEM emissions (0 = live telemetry
        #: off).  Only the shm exchange (process + columnar) streams;
        #: other backends already share the driver registry.
        self.telemetry_interval = telemetry_interval
        self.tracer = tracer
        self._column_batch: Type[ColumnBatch] = ColumnBatch
        self._partition_columns = partition_columns
        self._partition_batch = partition_batch
        self._union = ShardUnion(
            num_shards, name=f"{self.name}.union", registry=registry
        )
        sink = CollectorSink(name=f"{self.name}.out")
        self._union.subscribe(sink)
        self.output = sink.stream
        factory = merge_factory(merge_cls, **merge_kwargs)
        # A keyword the variant does not take raises TypeError here, in the
        # driver, before any worker starts (a process worker would only
        # report it as a ShardError at close()).
        factory([].append)
        shared = dict(
            coalesce_stables=coalesce_stables,
            registry=registry,
            telemetry_interval=telemetry_interval,
            tracer=tracer,
        )
        if supervised:
            from repro.resilience.supervisor import SupervisedRuntime

            self._runtime = SupervisedRuntime(
                factory,
                num_shards,
                durable_dir=durable_dir,
                fault_plan=fault_plan,
                fsync=fsync,
                **shared,
            ).start()
        else:
            self._runtime = ParallelRuntime(
                factory, num_shards, backend=backend, envelope=envelope, **shared
            ).start()
        self._observer = None
        if registry is not None:
            from repro.obs.lmerge_obs import ShardObserver

            self._observer = ShardObserver(self, registry)
            # Live sampling: every merged TELEM frame re-reads the
            # emitting shard's queue depth and frontier while the
            # exchange is actually loaded (satellite fix for the
            # collect-time-only gauges).
            self._runtime.on_telemetry = self._observer.sample_shard
        self._attached: List[StreamId] = []
        self._closed = False
        self._stats: Optional[MergeStats] = None
        self._shard_stats: List[MergeStats] = []

    # ------------------------------------------------------------------
    # Input lifecycle (broadcast: every shard sees every input's slice)
    # ------------------------------------------------------------------

    def attach(
        self, stream_id: StreamId, guarantee_from: Timestamp = MINUS_INFINITY
    ) -> None:
        if stream_id in self._attached:
            raise InputStateError(f"stream {stream_id!r} already attached")
        self._attached.append(stream_id)
        self._runtime.broadcast_attach(stream_id, guarantee_from)

    def detach(self, stream_id: StreamId) -> None:
        if stream_id not in self._attached:
            raise InputStateError(f"stream {stream_id!r} is not attached")
        self._attached.remove(stream_id)
        self._runtime.broadcast_detach(stream_id)

    def is_attached(self, stream_id: StreamId) -> bool:
        return stream_id in self._attached

    @property
    def input_ids(self) -> Tuple[StreamId, ...]:
        return tuple(self._attached)

    # ------------------------------------------------------------------
    # Element flow
    # ------------------------------------------------------------------

    def process(self, element: Element, stream_id: StreamId) -> None:
        self.process_batch((element,), stream_id)

    def process_batch(
        self,
        elements: Sequence[Element],
        stream_id: StreamId,
        *,
        coalesce_stables: bool = False,
    ) -> None:
        """Partition one micro-batch (an element sequence or a
        :class:`~repro.engine.columnar.ColumnBatch`) across the shards and
        collect any shard output that is ready.

        ``coalesce_stables`` is fixed per plan (a worker-side setting);
        the keyword is accepted for LMergeBase interface compatibility.
        """
        del coalesce_stables  # per-plan, set in __init__
        if stream_id not in self._attached:
            raise InputStateError(f"batch from unattached stream {stream_id!r}")
        runtime = self._runtime
        if self.envelope == "columnar":
            column_batch = self._column_batch
            batch = (
                elements
                if isinstance(elements, column_batch)
                else column_batch.from_elements(list(elements))
            )
            buckets = self._partition_columns(batch, self.num_shards)
        else:
            buckets = self._partition_batch(elements, self.num_shards)
        for shard, bucket in enumerate(buckets):
            if bucket:
                runtime.submit(shard, stream_id, bucket)
        self._collect()

    def _collect(self) -> None:
        union = self._union
        for shard, outputs in self._runtime.poll():
            union.receive_batch(outputs, shard)
        if self._observer is not None:
            self._observer.sample()

    def queue_depths(self) -> List[Optional[int]]:
        """Per-shard input-queue depths (see
        :meth:`~repro.engine.parallel.ParallelRuntime.queue_depths`)."""
        return self._runtime.queue_depths()

    @property
    def runtime(self) -> ParallelRuntime:
        """The worker runtime driving the shards (a
        :class:`~repro.resilience.supervisor.SupervisedRuntime` when the
        plan was built with ``supervised=True`` — its ``recoveries`` and
        ``restarts`` tell you what the supervisor had to do)."""
        return self._runtime

    def close(self) -> MergeStats:
        """Drain the workers, fold per-shard statistics, and return the
        aggregate.  Idempotent; the offline drivers call it for you."""
        if not self._closed:
            self._shard_stats = list(self._runtime.close())
            self._collect()
            self._closed = True
            self._stats = MergeStats()
            for stats in self._shard_stats:
                self._stats.merge(stats)
            if self._observer is not None:
                self._observer.record_stats()
        assert self._stats is not None
        return self._stats

    # ------------------------------------------------------------------
    # Statistics & frontiers
    # ------------------------------------------------------------------

    @property
    def stats(self) -> MergeStats:
        """The aggregate MergeStats across shards (closes the plan).

        Sums the per-shard records, so ``stables_in`` counts each
        broadcast ``stable()`` once per shard; data counts are exact (the
        partition is disjoint).
        """
        if self._stats is None:
            return self.close()
        return self._stats

    @property
    def shard_stats(self) -> List[MergeStats]:
        """Per-shard MergeStats, index = shard (closes the plan)."""
        self.close()
        return self._shard_stats

    @property
    def max_stable(self) -> Timestamp:
        """The combined output frontier: min over shard frontiers."""
        return self._union.emitted_stable

    @property
    def shard_frontiers(self) -> Tuple[Timestamp, ...]:
        return self._union.frontiers

    # ------------------------------------------------------------------
    # Offline driver (mirrors LMergeBase.merge)
    # ------------------------------------------------------------------

    def merge(
        self,
        streams: Iterable[PhysicalStream],
        schedule: str = "round_robin",
        seed: int = 0,
        batch_size: int = 64,
    ) -> PhysicalStream:
        """Merge complete physical streams offline, close the plan, and
        return the output.

        Unlike the unsharded driver, elements travel in 64-element
        envelopes by default (*batch_size* per scheduling turn):
        per-element IPC would drown the process backend in round trips.
        Stable coalescing is a per-plan setting (see ``__init__``).
        """
        streams = list(streams)
        for index in range(len(streams)):
            if not self.is_attached(index):
                self.attach(index)
        for chunk, stream_id in interleave_batches(
            streams, schedule, seed, batch_size
        ):
            self.process_batch(chunk, stream_id)
        self.close()
        return self.output

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShardedLMerge {self.algorithm} {self.name!r}>"


def shard(
    variant: Union[Type[LMergeBase], object], num_shards: int, **options
) -> ShardedLMerge:
    """Wrap an LMerge variant in an N-shard partition-parallel plan.

    *variant* is an :class:`LMergeBase` subclass (``LMergeR3``), a
    :class:`~repro.streams.properties.Restriction`, a
    :class:`~repro.streams.properties.StreamProperties`, or an iterable of
    per-input properties — the latter three resolve through the Section
    IV-G selector, so ``shard(properties, 4)`` picks the cheapest correct
    algorithm and parallelizes it.  *options* are
    :class:`ShardedLMerge`'s keywords.

    >>> plan = shard(LMergeR3, 4, backend="process")
    >>> out = plan.merge([replica_a, replica_b])
    >>> plan.stats.elements_out      # aggregate across the 4 shards
    """
    if not (isinstance(variant, type) and issubclass(variant, LMergeBase)):
        from repro.lmerge.selector import algorithm_for

        variant = algorithm_for(variant)
    return ShardedLMerge(variant, num_shards, **options)
