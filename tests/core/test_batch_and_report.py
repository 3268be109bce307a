"""WriteBatch atomicity and the operational report."""

import pytest

from repro.lsm.db import LSMConfig, LSMStore, WriteBatch
from tests.conftest import kv, make_p2_store


def test_batch_applies_all_ops(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
    stamps = store.write_batch(batch)
    assert len(stamps) == 3
    assert stamps == sorted(stamps)
    assert store.get(b"a") is None
    assert store.get(b"b") == b"2"


def test_batch_never_straddles_a_flush(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=512))
    batch = WriteBatch()
    for i in range(40):  # far beyond the write buffer
        batch.put(b"key%03d" % i, b"v" * 30)
    store.write_batch(batch)
    # A single flush at the end, not one mid-batch.
    assert store.stats.flushes == 1
    for i in range(40):
        assert store.get(b"key%03d" % i) == b"v" * 30


def test_batch_wal_logged(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    store.write_batch(WriteBatch().put(b"a", b"1").put(b"b", b"2"))
    revived = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    assert revived.recover() == 2
    assert revived.get(b"b") == b"2"


def test_empty_batch(free_env):
    store = LSMStore(free_env, LSMConfig())
    assert store.write_batch(WriteBatch()) == []


def test_p2_batch_verified_reads():
    store = make_p2_store()
    stamps = store.write_batch(
        [kv(i) for i in range(30)], deletes=[kv(2)[0]]
    )
    assert len(stamps) == 31
    store.flush()
    assert store.get(kv(1)[0]) == kv(1)[1]
    assert store.get(kv(2)[0]) is None
    assert store.current_ts == stamps[-1]


def test_p2_batch_single_ecall():
    store = make_p2_store(write_buffer_bytes=1 << 20)
    before = store.report()["ecalls"]
    store.write_batch([kv(i) for i in range(20)])
    assert store.report()["ecalls"] == before + 1


def test_p2_batch_wal_digest_advances():
    store = make_p2_store(write_buffer_bytes=1 << 20)
    initial = store.listener.wal_digest
    store.write_batch([kv(0)])
    assert store.listener.wal_digest != initial


def test_report_structure():
    store = make_p2_store()
    for i in range(120):
        store.put(*kv(i))
    store.get(kv(5)[0])
    report = store.report()
    assert report["timestamp"] == store.current_ts
    assert report["levels"]  # data reached the levels
    for level_info in report["levels"].values():
        assert level_info["records"] >= level_info["distinct_keys"] > 0
    assert report["ecalls"] > 0
    assert report["flushes"] > 0
    assert report["verified_gets"] >= 1
    assert report["simulated_us"] > 0
    assert "hash" in report["cost_breakdown_us"]


def test_report_tracks_epc_pressure():
    from tests.conftest import make_p1_store

    p1 = make_p1_store(read_buffer_bytes=1 << 20)
    for i in range(300):
        p1.put(*kv(i))
    p1.flush()
    for i in range(0, 300, 3):
        p1.get(kv(i)[0])
    assert p1.enclave.pager.fault_count > 0
