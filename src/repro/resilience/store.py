"""Durable per-key values: two checksummed slots per key.

Key ``k`` lives in files ``k.0`` and ``k.1``, one record each:
``<u64 seq><u32 len><u32 crc32><body>``, the CRC over seq, len and body.
``put`` overwrites the slot not holding the newest valid record, so a crash
tears at most that slot; ``get`` returns the valid slot with the higher seq.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from contextlib import AbstractContextManager
from typing import Dict, Optional, Tuple

__all__ = ["StateStore", "StateStoreError", "CorruptStateError"]

_HEAD = struct.Struct("<QII")  # seq, len, crc32 of the 12 bytes before it + body
_KEY = re.compile(r"[A-Za-z0-9_-]+")


class StateStoreError(RuntimeError):
    """A state-store failure."""


class CorruptStateError(StateStoreError):
    """Both slots of a key failed their check: a crash tears one at most."""


def _record(path: str) -> Optional[Tuple[int, Optional[bytes]]]:
    """A slot's ``(seq, body)``, ``(0, None)`` if absent, None if torn."""
    if not os.path.exists(path):
        return 0, None
    with open(path, "rb") as handle:
        image = handle.read()
    if len(image) >= _HEAD.size:
        seq, size, crc = _HEAD.unpack_from(image)
        body = image[_HEAD.size : _HEAD.size + size]
        if len(body) == size and zlib.crc32(body, zlib.crc32(image[:12])) == crc:
            return seq, body
    return None


class StateStore(AbstractContextManager):
    """Whole byte values under ``[A-Za-z0-9_-]+`` keys; one writer each."""

    def __init__(self, directory: str, *, fsync: bool = False):
        self.directory, self.fsync = directory, fsync
        os.makedirs(directory, exist_ok=True)
        self._newest: Dict[str, Tuple[int, int]] = {}  # key -> (seq, slot)
        self._fds: Optional[Dict[str, int]] = {}  # path -> descriptor
        if fsync:  # new slot files' directory entries are synced through it
            self._fds[directory] = os.open(directory, os.O_RDONLY)

    def get(self, key: str) -> Optional[bytes]:
        """The newest value under *key*; None if never (wholly) written."""
        if self._fds is None:
            raise StateStoreError("state store is closed")
        if not isinstance(key, str) or not _KEY.fullmatch(key):
            raise ValueError(f"store keys must match [A-Za-z0-9_-]+: {key!r}")
        slots = [_record(os.path.join(self.directory, f"{key}.{i}")) for i in (0, 1)]
        if slots == [None, None]:
            raise CorruptStateError(f"both slots of {key!r} are damaged")
        self._newest[key] = max((s[0], i) for i, s in enumerate(slots) if s)
        return slots[self._newest[key][1]][1]

    def put(self, key: str, value: bytes) -> None:
        """Store *value* under *key*.  It is at the OS on return (survives
        ``kill -9``); *fsync* also syncs slot and directory (power loss)."""
        if self._fds is None or key not in self._newest:
            self.get(key)  # checks the store and the key, finds the slots
        seq, slot = self._newest[key]
        path = os.path.join(self.directory, f"{key}.{1 - slot}")
        fd = self._fds.get(path)
        if fd is None:
            fd = self._fds[path] = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            if self.fsync:  # the slot file's directory entry, once per open
                os.fsync(self._fds[self.directory])
        head = struct.pack("<QI", seq + 1, len(value))
        record = head + struct.pack("<I", zlib.crc32(value, zlib.crc32(head))) + value
        os.pwrite(fd, record, 0)
        os.ftruncate(fd, len(record))
        if self.fsync:
            os.fsync(fd)
        self._newest[key] = (seq + 1, 1 - slot)

    @property
    def total_bytes(self) -> int:
        """Bytes on disk across every slot file (``state_store_bytes``)."""
        return sum(entry.stat().st_size for entry in os.scandir(self.directory))

    def close(self) -> None:
        for fd in (self._fds or {}).values():
            os.close(fd)
        self._fds = None

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
