"""Shared-memory SPSC ring buffers for inter-process batch exchange.

The object-envelope process backend ships every micro-batch through a
``multiprocessing.Queue``: one pickle of the whole element list per
envelope, a pipe write, a pipe read, one unpickle — four copies and an
object-graph walk per hop.  :class:`ShmRing` replaces that channel for
the columnar envelope with a byte ring in
:mod:`multiprocessing.shared_memory`:

* the driver encodes a :class:`~repro.engine.columnar.ColumnBatch`
  **directly into ring storage** (``put_frame`` hands the encoder a
  contiguous ``memoryview`` when the frame does not wrap);
* the worker decodes straight out of the ring; numeric columns are one
  ``frombytes`` each and payload bytes stay untouched until first use;
* control messages (attach/detach/shutdown) travel the same ring as
  :data:`CTRL` frames, so the per-shard channel stays totally ordered —
  an attach can never overtake the batches before it.

Framing: each frame is a 5-byte header (kind byte + u32 length) followed
by the payload, written contiguously with wraparound splitting.

Synchronization is lock-free, exploiting the single-producer /
single-consumer shape: the producer alone advances the ``tail`` byte
counter, the consumer alone advances ``head``, and both counters are
aligned 8-byte stores (atomic on every platform CPython runs on).  They
are published through a ``memoryview`` of the state block cast to
``"Q"``, whose item assignment is one ``memcpy`` of the native word;
``Struct.pack_into`` zero-fills its target before packing byte by byte,
and a reader in the other process can catch the counter in between.  A
frame becomes visible only when the tail advances past it, so the reader
always sees whole frames.  An earlier draft guarded both sides with one
``multiprocessing.Condition``; on a busy exchange that one semaphore is
acquired by two processes per frame and the forced hand-offs dominated
the profile — the lock-free ring removes every syscall from the
steady-state path.  Blocking falls back to a sleep-with-backoff poll
(a few yields, then naps doubling to a 2ms cap), which only runs when
the ring is actually full or empty — i.e. when the peer is the
bottleneck and a nap costs little.

A full ring blocks the producer — the process-backend analogue of a
bounded queue applying backpressure.  Writers should bound their waits
(``timeout=``) and drain their own inbound ring meanwhile: the driver
does exactly that in ``ParallelRuntime.submit``, which is what makes
the bounded-out/bounded-in cycle deadlock-free.

The rings are created by the driver and inherited by forked workers (the
process backend prefers the ``fork`` start method, as before).  Workers
call :meth:`ShmRing.child_deregister` once on startup so the child's
``resource_tracker`` never unlinks a segment the driver still owns.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from struct import Struct
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "CTRL",
    "BATCH",
    "OUT",
    "DONE",
    "ERR",
    "HB",
    "CKPT",
    "TELEM",
    "FRAME_PROTOCOL",
    "FrameSpec",
    "frame_name",
    "RingClosedError",
    "PeerDeadError",
    "ShmRing",
]

#: Frame kinds (one byte on the wire).
CTRL = 1  #: pickled control tuple (attach / detach / shutdown sentinel)
BATCH = 2  #: u64 seq | u16 len | pickled stream id | RCB1 (driver -> worker)
OUT = 3  #: u64 emitted_before | u64 seq | u32 rows | i32 source per row | RCB1 (worker -> driver)
DONE = 4  #: pickled final MergeStats (worker -> driver, last frame)
ERR = 5  #: pickled worker traceback text (worker -> driver, last frame)
HB = 6  #: pickled heartbeat/progress tuple (supervised worker -> driver)
CKPT = 7  #: pickled checkpoint acknowledgement (supervised worker -> driver)
TELEM = 8  #: pickled metric/span delta dict (worker -> driver, best-effort)


@dataclass(frozen=True)
class FrameSpec:
    """The declared contract for one frame kind.

    This is the machine-readable half of the ring protocol: the comments
    above say what each kind *means*, this says what a conforming site
    must *do*, and ``repro.analysis.protocol`` statically checks every
    ``put``/``put_pickle``/``put_frame``/``get`` call in the codebase
    against it.  Adding a frame kind for a new subsystem means adding a
    constant above and a spec here — the verifier then covers its call
    sites with no further wiring (see docs/ANALYSIS.md).
    """

    #: Wire byte, equal to the module constant.
    kind: int
    #: Constant name, e.g. ``"CTRL"``.
    name: str
    #: Which side of the ring may produce this kind: ``"driver"`` or
    #: ``"worker"``.  A worker writing CTRL (or a driver writing OUT)
    #: is a protocol violation — the SPSC rings are directional.
    producer: str
    #: Terminal frames (DONE/ERR) end the producer's conversation on
    #: that ring: no conforming site puts another frame after one.
    terminal: bool
    #: Put discipline:
    #: ``"blocking"`` — the put may wait indefinitely (backpressure is
    #: the point: OUT, and DONE as the final frame behind it);
    #: ``"bounded"`` — the put must pass a finite ``timeout=`` so a
    #: stuck peer cannot wedge the producer (CTRL/BATCH retry loops,
    #: HB, CKPT, ERR);
    #: ``"best_effort"`` — the put must pass literal ``timeout=0`` and
    #: ignore the result; dropping the frame must be safe (TELEM).
    discipline: str
    #: One-line payload description for reports and docs.
    payload: str


#: The ShmRing frame protocol, declared once.  ``repro.analysis
#: protocol`` verifies every call site against this table, and the
#: bounded model checker (``repro.analysis.model``) explores the
#: driver/worker state machine implied by it.
FRAME_PROTOCOL: Dict[int, FrameSpec] = {
    spec.kind: spec
    for spec in (
        FrameSpec(
            kind=CTRL,
            name="CTRL",
            producer="driver",
            terminal=False,
            discipline="bounded",
            payload="pickled control tuple (attach / detach / shutdown)",
        ),
        FrameSpec(
            kind=BATCH,
            name="BATCH",
            producer="driver",
            terminal=False,
            discipline="bounded",
            payload="u64 seq | u16 len | stream id | ColumnBatch wire frame",
        ),
        FrameSpec(
            kind=OUT,
            name="OUT",
            producer="worker",
            terminal=False,
            discipline="blocking",
            payload=(
                "u64 emitted_before | u64 seq of the BATCH answered | u32 rows"
                " | i32 per row: its index in that BATCH, or -1 for the next"
                " row of the ColumnBatch wire frame that follows"
            ),
        ),
        FrameSpec(
            kind=DONE,
            name="DONE",
            producer="worker",
            terminal=True,
            discipline="blocking",
            payload="pickled final MergeStats",
        ),
        FrameSpec(
            kind=ERR,
            name="ERR",
            producer="worker",
            terminal=True,
            discipline="bounded",
            payload="pickled worker traceback text",
        ),
        FrameSpec(
            kind=HB,
            name="HB",
            producer="worker",
            terminal=False,
            discipline="bounded",
            payload="pickled heartbeat/progress tuple",
        ),
        FrameSpec(
            kind=CKPT,
            name="CKPT",
            producer="worker",
            terminal=False,
            discipline="bounded",
            payload="pickled checkpoint acknowledgement",
        ),
        FrameSpec(
            kind=TELEM,
            name="TELEM",
            producer="worker",
            terminal=False,
            discipline="best_effort",
            payload="pickled metric/span delta dict",
        ),
    )
}


def frame_name(kind: int) -> str:
    """Human name of a frame kind byte (``"?3"``-style for unknown)."""
    spec = FRAME_PROTOCOL.get(kind)
    return spec.name if spec is not None else f"?{kind}"


_FRAME = Struct("<BI")

#: State block layout: every field has exactly one writer, so no lock is
#: needed — the counters are aligned 8-byte (or 4-byte) stores.  The
#: counters are indices into the block viewed as ``"Q"`` / ``"I"`` items.
_TAIL = 0  #: u64 at byte 0: monotonic bytes written (producer-owned)
_HEAD = 1  #: u64 at byte 8: monotonic bytes consumed (consumer-owned)
_PUT = 4  #: u32 at byte 16: frames written (producer-owned)
_GOT = 5  #: u32 at byte 20: frames consumed (consumer-owned)
_CLOSED = 24  #: one byte, set by either side, never cleared

#: Data region starts past the (padded) state block.
_DATA_START = 32

#: Backoff while blocked: yield a few times, then naps that double from
#: 0.2ms up to a 2ms cap.  The growth matters on oversubscribed hosts
#: (more workers than cores): a fixed short nap has every blocked peer
#: burning the time-slice the unblocked peer needs.
_SPIN_YIELDS = 4
_NAP_SECONDS = 0.0002
_NAP_MAX = 0.002

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


#: A blocked put/get polls the liveness callback only once it has
#: entered the nap stage, and then every this-many backoff iterations —
#: `is_alive()` is a syscall, so don't pay it per 0.2ms nap.
_LIVENESS_EVERY = 8


class RingClosedError(RuntimeError):
    """The peer closed the ring; no further frames will flow."""


class PeerDeadError(RingClosedError):
    """The peer process died without closing the ring.

    Raised from a blocking :meth:`ShmRing.put_frame`/:meth:`ShmRing.get`
    when the optional liveness callback reports the other side gone —
    the dead-peer detection that replaces spinning until timeout.
    """


class ShmRing:
    """A single-producer/single-consumer byte ring in shared memory."""

    def __init__(self, capacity: int = 1 << 20):
        if capacity < 4096:
            raise ValueError("ring capacity must be at least 4096 bytes")
        self.capacity = capacity
        #: Optional peer-liveness probe consulted by blocking loops (see
        #: :meth:`set_liveness`).  Not part of the shared state: each side
        #: installs its own probe for the *other* side.
        self.liveness: Optional[Callable[[], bool]] = None
        self._shm = shared_memory.SharedMemory(
            create=True, size=_DATA_START + capacity
        )
        self.name = self._shm.name
        self._shm.buf[:_DATA_START] = bytes(_DATA_START)
        self._map_counters()

    def _map_counters(self) -> None:
        """Word-sized views of the state block (see the module docstring)."""
        state = self._shm.buf[:_DATA_START]
        self._q = state.cast("Q")
        self._i = state.cast("I")

    def set_liveness(self, probe: Optional[Callable[[], bool]]) -> None:
        """Install a peer-liveness probe for this side's blocking loops.

        *probe* returns True while the peer process is alive.  A blocked
        ``put_frame``/``get`` polls it during backoff and raises
        :class:`PeerDeadError` instead of spinning out its timeout when
        the peer has exited without a DONE/ERR frame.  The driver installs
        ``process.is_alive``; workers install a parent-process check.
        """
        self.liveness = probe

    def _peer_dead(self) -> bool:
        probe = self.liveness
        return probe is not None and not probe()

    # ------------------------------------------------------------------
    # State block accessors (each field is written by exactly one side)
    # ------------------------------------------------------------------

    def _tail(self) -> int:
        return self._q[_TAIL]

    def _head(self) -> int:
        return self._q[_HEAD]

    def _closed(self) -> bool:
        return self._shm.buf[_CLOSED] != 0

    # ------------------------------------------------------------------
    # Raw byte movement with wraparound
    # ------------------------------------------------------------------

    def _write(self, position: int, data) -> None:
        buf = self._shm.buf
        offset = _DATA_START + position % self.capacity
        first = min(len(data), _DATA_START + self.capacity - offset)
        buf[offset : offset + first] = data[:first]
        if first < len(data):
            rest = len(data) - first
            buf[_DATA_START : _DATA_START + rest] = data[first:]

    def _read(self, position: int, count: int) -> bytes:
        buf = self._shm.buf
        offset = _DATA_START + position % self.capacity
        first = min(count, _DATA_START + self.capacity - offset)
        if first == count:
            return bytes(buf[offset : offset + count])
        return bytes(buf[offset : offset + first]) + bytes(
            buf[_DATA_START : _DATA_START + count - first]
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, kind: int, payload, timeout: Optional[float] = None) -> bool:
        """Append one frame; blocks while the ring is full.

        Returns True on success, False when *timeout* elapsed with no
        room (the caller should drain its own inbound channel and retry).
        Raises :class:`RingClosedError` once the ring is closed.
        """
        return self.put_frame(
            kind,
            len(payload),
            lambda view: view.__setitem__(slice(0, len(payload)), payload),
            timeout=timeout,
        )

    def put_frame(
        self,
        kind: int,
        size: int,
        fill: Callable[[memoryview], Any],
        timeout: Optional[float] = None,
    ) -> bool:
        """Append a frame of *size* bytes produced by ``fill(view)``.

        When the frame fits contiguously, *fill* writes straight into
        ring storage (zero intermediate copy); a wrapping frame falls
        back to a scratch buffer split across the boundary.
        """
        need = _FRAME.size + size
        if need > self.capacity:
            raise ValueError(
                f"frame of {need} bytes exceeds ring capacity {self.capacity}"
            )
        buf = self._shm.buf
        tail = self._tail()
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        spins, nap = 0, 0.0
        while True:
            if buf[_CLOSED]:
                raise RingClosedError("ring closed")
            if self.capacity - (tail - self._head()) >= need:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if spins < _SPIN_YIELDS:
                time.sleep(0)
            else:
                if spins % _LIVENESS_EVERY == 0 and self._peer_dead():
                    raise PeerDeadError(
                        "ring consumer process died while the ring was full"
                    )
                nap = min(nap * 2 or _NAP_SECONDS, _NAP_MAX)
                time.sleep(nap)
            spins += 1
        position = tail + _FRAME.size
        offset = _DATA_START + position % self.capacity
        contiguous = _DATA_START + self.capacity - offset
        if size <= contiguous:
            view = memoryview(buf)[offset : offset + size]
            try:
                fill(view)
            finally:
                view.release()
        else:
            scratch = bytearray(size)
            fill(memoryview(scratch))
            self._write(position, scratch)
        self._write(tail, _FRAME.pack(kind, size))
        # Publish: the tail store makes the frame visible, so it comes
        # after every payload byte is in place.
        self._i[_PUT] = (self._i[_PUT] + 1) & 0xFFFFFFFF
        self._q[_TAIL] = tail + need
        return True

    def put_pickle(
        self, kind: int, obj, timeout: Optional[float] = None
    ) -> bool:
        """Append ``pickle.dumps(obj)`` as one frame of *kind*."""
        return self.put(kind, pickle.dumps(obj, _PICKLE_PROTOCOL), timeout)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def get(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[int, bytes]]:
        """Pop the next ``(kind, payload)`` frame.

        Blocks while the ring is empty; returns None when *timeout*
        elapsed first (``timeout=0`` never blocks).  Raises
        :class:`RingClosedError` when the ring is closed and drained.
        """
        buf = self._shm.buf
        head = self._head()
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        spins, nap = 0, 0.0
        capacity = self.capacity
        # A tail outside [head, head + capacity] cannot have been
        # published by this ring's producer; treat it as "not yet".
        while not 0 < self._tail() - head <= capacity:
            # Closed-check after the emptiness check: frames written
            # before the close flag are still served.
            if buf[_CLOSED]:
                raise RingClosedError("ring closed and drained")
            if timeout == 0 or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                return None
            if spins < _SPIN_YIELDS:
                time.sleep(0)
            else:
                if spins % _LIVENESS_EVERY == 0 and self._peer_dead():
                    # Re-check emptiness once: the peer may have published
                    # a final frame between the empty check and its death.
                    if 0 < self._tail() - head <= capacity:
                        break
                    raise PeerDeadError(
                        "ring producer process died with the ring empty"
                    )
                nap = min(nap * 2 or _NAP_SECONDS, _NAP_MAX)
                time.sleep(nap)
            spins += 1
        kind, size = _FRAME.unpack(self._read(head, _FRAME.size))
        payload = self._read(head + _FRAME.size, size)
        self._i[_GOT] = (self._i[_GOT] + 1) & 0xFFFFFFFF
        self._q[_HEAD] = head + _FRAME.size + size
        return kind, payload

    def get_nowait(self) -> Optional[Tuple[int, bytes]]:
        """Pop a frame if one is ready; never blocks, never raises on
        an open-but-empty ring."""
        try:
            return self.get(timeout=0)
        except RingClosedError:
            return None

    # ------------------------------------------------------------------
    # Introspection (occupancy gauges, queue-depth reporting)
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        # Read head before tail so a concurrent producer can only make
        # the estimate low, never negative.
        head = self._head()
        return self._tail() - head

    @property
    def frames(self) -> int:
        """Whole frames currently buffered (the ring's queue depth)."""
        got = self._i[_GOT]
        return (self._i[_PUT] - got) & 0xFFFFFFFF

    @property
    def occupancy(self) -> float:
        """Used fraction of the ring's data capacity, 0.0-1.0."""
        return self.used_bytes / self.capacity

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close_ring(self) -> None:
        """Mark the ring closed; a blocked peer notices on its next
        backoff poll and raises :class:`RingClosedError`."""
        self._shm.buf[_CLOSED] = 1

    def __getstate__(self) -> dict:
        # Only Process-spawning pickles a ring (spawn start method); mark
        # the copy so child_deregister knows the child re-registered the
        # segment with its resource tracker.  Forked children inherit the
        # object unpickled and must NOT deregister (they share the
        # driver's tracker; deregistering would orphan the driver's own
        # unlink).
        state = self.__dict__.copy()
        state["_unpickled"] = True
        # Liveness probes are per-process closures (the driver's probe
        # watches the worker and vice versa); never ship one across.
        state["liveness"] = None
        # Views of this process's mapping; the copy maps its own.
        del state["_q"], state["_i"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._map_counters()

    def child_deregister(self) -> None:
        """Worker-side startup hook: keep the child's resource tracker
        from unlinking the driver-owned segment at child exit.  A no-op
        for forked workers, which never re-register."""
        if not self.__dict__.get("_unpickled"):
            return
        try:  # pragma: no cover - tracker behaviour varies by start method
            from multiprocessing import resource_tracker

            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:
            pass

    def detach(self) -> None:
        """Unmap the segment in this process (worker exit)."""
        # The mapping cannot close while views of it are exported.
        self._q.release()
        self._i.release()
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - double close on teardown
            pass

    def destroy(self) -> None:
        """Unmap and unlink the segment (driver teardown; idempotent)."""
        self.detach()
        try:
            self._shm.unlink()
        except Exception:  # pragma: no cover - already unlinked
            pass

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShmRing {self.name} capacity={self.capacity}>"
