"""ShmRing under a real producer/consumer pair (lmbench Finding 1).

The ring's counters are read by the other process while they are being
written; a publication that is not one aligned store lets the reader see
a half-written ``tail`` and decode garbage as a frame header.  The
single-process tests cannot see that, so this forks a consumer and pushes
enough small frames through a small ring to wrap it thousands of times.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from struct import Struct

import pytest

from repro.engine.shm import BATCH, DONE, ShmRing

FRAMES = 200_000
CAPACITY = 64 * 1024
BOUND_S = 20.0

_SEQ = Struct("<I")


def _payload(seq: int) -> bytes:
    # Lengths 4..35 so frames land on every alignment and wrap the ring.
    return _SEQ.pack(seq) + bytes(seq % 32)


def _consume(ring: ShmRing, frames: int, verdict) -> None:
    ring.child_deregister()
    problem = ""
    try:
        for expected in range(frames):
            frame = ring.get(timeout=BOUND_S)
            if frame is None:
                problem = f"timed out waiting for frame {expected}"
                break
            kind, payload = frame
            if kind != BATCH or payload != _payload(expected):
                problem = (
                    f"frame {expected}: kind {kind}, {len(payload)} bytes, "
                    f"head {payload[:8]!r}"
                )
                break
        else:
            frame = ring.get(timeout=BOUND_S)
            if frame is None or frame[0] != DONE:
                problem = f"expected DONE after {frames} frames, got {frame!r}"
    except Exception as exc:  # boundary: the parent asserts on the verdict
        problem = f"{type(exc).__name__}: {exc}"
    verdict.send(problem)
    verdict.close()
    ring.detach()


def test_forked_consumer_sees_every_frame_whole():
    context = multiprocessing.get_context("fork")
    ring = ShmRing(CAPACITY)
    receiver, sender = context.Pipe(duplex=False)
    consumer = context.Process(
        target=_consume, args=(ring, FRAMES, sender), daemon=True
    )
    consumer.start()
    sender.close()
    deadline = time.monotonic() + BOUND_S
    try:
        sent = 0
        while sent < FRAMES and time.monotonic() < deadline:
            # A short bounded put: a consumer that bailed out leaves the
            # ring full, and the verdict below says why.
            if ring.put(BATCH, _payload(sent), timeout=0.5):
                sent += 1
            elif receiver.poll():
                break
        if sent == FRAMES:
            ring.put(DONE, pickle.dumps(None), timeout=1.0)
        remaining = max(0.0, deadline - time.monotonic())
        assert receiver.poll(remaining), (
            f"no verdict within {BOUND_S}s ({sent} of {FRAMES} frames sent)"
        )
        problem = receiver.recv()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert problem == "", f"after {sent} frames sent: {problem}"
        assert sent == FRAMES
    finally:
        if consumer.is_alive():
            consumer.terminate()
            consumer.join(timeout=5.0)
        receiver.close()
        ring.destroy()


def test_pickled_ring_maps_the_same_counters():
    ring = ShmRing(4096)
    try:
        ring.put(BATCH, b"abc")
        clone = pickle.loads(pickle.dumps(ring))
        try:
            assert clone.used_bytes == ring.used_bytes
            assert clone.frames == 1
            assert clone.get(timeout=0) == (BATCH, b"abc")
            assert ring.frames == 0
        finally:
            clone.detach()
    finally:
        ring.destroy()


@pytest.mark.parametrize("parked", [0, 4000], ids=["contiguous", "wrapping"])
def test_failed_fill_publishes_nothing(parked):
    """Reserve -> commit: ``fill`` runs between the space check and the
    tail store, so a ``fill`` that writes and then raises must propagate,
    publish no frame, hold no view of ring storage, and leave the ring
    usable — through both branches of ``put_frame``."""
    ring = ShmRing(4096)
    views = []

    def fill(view):
        views.append(view)
        view[:4] = b"junk"
        raise RuntimeError("encode failed")

    try:
        if parked:
            # Move head and tail near the end of the data area so the
            # next 200-byte payload straddles it (the scratch branch).
            ring.put(BATCH, bytes(parked))
            assert ring.get(timeout=0) == (BATCH, bytes(parked))
        with pytest.raises(RuntimeError, match="encode failed"):
            ring.put_frame(BATCH, 200, fill, timeout=0)
        assert ring.frames == 0 and ring.used_bytes == 0
        assert ring.get(timeout=0) is None
        if parked:
            assert isinstance(views[0].obj, bytearray)  # scratch, not shm
        else:
            with pytest.raises(ValueError):  # released: no export pins shm
                views[0][0]
        assert ring.put(BATCH, b"next", timeout=0)
        assert ring.get(timeout=0) == (BATCH, b"next")
    finally:
        ring.destroy()
