"""StateStore: two checksummed slots per key under the durable merge state.

Covers the crash-safety story slot by slot: a write torn or garbled at
any byte falls back to the previous value, a torn first write reads as
absent, two damaged slots raise, and a writer killed with ``os._exit``
(no close, no flush) leaves its last ``put`` on disk.
"""

import os
import pickle

import pytest

from repro.resilience.store import CorruptStateError, StateStore, StateStoreError

HEADER = 16  # <u64 seq><u32 len><u32 crc32>


def slot(tmp_path, key, index):
    return tmp_path / f"{key}.{index}"


def test_put_get_round_trip(tmp_path):
    with StateStore(str(tmp_path)) as store:
        store.put("alpha", b"one")
        store.put("beta_2", b"two")
        store.put("empty-value", b"")
        assert store.get("alpha") == b"one"
        assert store.get("beta_2") == b"two"
        assert store.get("empty-value") == b""
        assert store.get("missing") is None


def test_last_record_wins_across_reopen(tmp_path):
    store = StateStore(str(tmp_path))
    for value in (b"v1", b"v2", b"v3"):
        store.put("key", value)
    store.close()
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("key") == b"v3"
        reopened.put("key", b"v4")  # continues the sequence
    with StateStore(str(tmp_path)) as again:
        assert again.get("key") == b"v4"


def test_kill_and_reopen_without_close(tmp_path):
    """A second open over the same directory sees every put even though
    the writer never closed — the kill -9 contract."""
    writer = StateStore(str(tmp_path))
    writer.put("snapshot", pickle.dumps({"state": [1, 2, 3]}))
    writer.put("extra", b"x" * 100)
    reader = StateStore(str(tmp_path))
    assert pickle.loads(reader.get("snapshot")) == {"state": [1, 2, 3]}
    assert reader.get("extra") == b"x" * 100
    reader.close()
    writer.close()


@pytest.mark.parametrize("puts", [1, 2, 7])
def test_killed_writer_keeps_its_last_put(tmp_path, puts):
    """A forked writer that puts N values and dies by ``os._exit`` (no
    flush, no close: what a fault-plan kill does) reopens to put N."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        code = 1
        try:
            store = StateStore(str(tmp_path))
            for n in range(1, puts + 1):
                store.put("flight", f"batch-{n}".encode() * 40)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("flight") == f"batch-{puts}".encode() * 40


def committed_then_second(tmp_path):
    """Commit v1, write v2 and return v2's slot image (the slot the
    second put landed in, which a crash mid-put would have torn)."""
    with StateStore(str(tmp_path)) as store:
        store.put("key", b"v1" * 50)
        store.put("key", b"v2" * 50)
    image = slot(tmp_path, "key", 1).read_bytes()
    assert len(image) == HEADER + 100
    return image


OFFSETS = {
    "start": 0,
    "header-1": HEADER - 1,
    "header": HEADER,
    "mid-body": HEADER + 50,
    "end-1": HEADER + 99,
}


@pytest.mark.parametrize("damage", ["cut", "garble"])
@pytest.mark.parametrize("offset", OFFSETS.values(), ids=OFFSETS.keys())
def test_torn_second_write_reopens_to_first(tmp_path, damage, offset):
    image = committed_then_second(tmp_path)
    if damage == "cut":
        torn = image[:offset]
    else:
        torn = image[:offset] + bytes([image[offset] ^ 0xFF]) + image[offset + 1 :]
    slot(tmp_path, "key", 1).write_bytes(torn)
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("key") == b"v1" * 50
        # The next put overwrites the torn slot, never the good one.
        reopened.put("key", b"v3")
        assert slot(tmp_path, "key", 0).read_bytes().endswith(b"v1" * 50)
    with StateStore(str(tmp_path)) as again:
        assert again.get("key") == b"v3"


def test_complete_second_write_reopens_to_it(tmp_path):
    image = committed_then_second(tmp_path)
    slot(tmp_path, "key", 1).write_bytes(image)
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("key") == b"v2" * 50


@pytest.mark.parametrize("offset", [0, HEADER - 1, HEADER + 3])
def test_torn_first_write_reads_none(tmp_path, offset):
    with StateStore(str(tmp_path)) as store:
        store.put("key", b"first" * 10)
    path = slot(tmp_path, "key", 0)
    path.write_bytes(path.read_bytes()[:offset])
    assert not slot(tmp_path, "key", 1).exists()
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("key") is None
        reopened.put("key", b"again")
    with StateStore(str(tmp_path)) as again:
        assert again.get("key") == b"again"


def test_two_bad_slots_raise(tmp_path):
    committed_then_second(tmp_path)
    for index in (0, 1):
        path = slot(tmp_path, "key", index)
        image = bytearray(path.read_bytes())
        image[HEADER + 1] ^= 0xFF
        path.write_bytes(bytes(image))
    with StateStore(str(tmp_path)) as reopened:
        with pytest.raises(CorruptStateError):
            reopened.get("key")
        with pytest.raises(CorruptStateError):
            reopened.put("key", b"v3")


@pytest.mark.parametrize("key", ["", "a/b", "../up", "key.0", "sp ace", b"raw"])
def test_keys_must_be_file_names(tmp_path, key):
    with StateStore(str(tmp_path)) as store:
        with pytest.raises(ValueError):
            store.put(key, b"v")
        with pytest.raises(ValueError):
            store.get(key)


def test_total_bytes_counts_both_slots(tmp_path):
    with StateStore(str(tmp_path)) as store:
        assert store.total_bytes == 0
        store.put("k", b"v" * 64)
        assert store.total_bytes == HEADER + 64
        store.put("k", b"w" * 10)  # second slot
        assert store.total_bytes == 2 * HEADER + 74
        store.put("k", b"x" * 8)  # overwrites and truncates the first
        assert store.total_bytes == 2 * HEADER + 18
        assert sorted(os.listdir(tmp_path)) == ["k.0", "k.1"]


def test_fsync_store_round_trip(tmp_path):
    with StateStore(str(tmp_path), fsync=True) as store:
        for n in range(3):
            store.put("snapshot", bytes([n]) * 32)
    with StateStore(str(tmp_path), fsync=True) as reopened:
        assert reopened.get("snapshot") == bytes([2]) * 32


def test_closed_store_refuses_io(tmp_path):
    store = StateStore(str(tmp_path))
    store.put("k", b"v")
    store.close()
    store.close()  # idempotent
    with pytest.raises(StateStoreError):
        store.get("k")
    with pytest.raises(StateStoreError):
        store.put("k", b"v2")


def test_large_values_round_trip(tmp_path):
    blob = os.urandom(300_000)
    with StateStore(str(tmp_path)) as store:
        store.put("big", blob)
        assert store.get("big") == blob
    with StateStore(str(tmp_path)) as reopened:
        assert reopened.get("big") == blob
