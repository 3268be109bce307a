"""WAL group appends and the engine-level commit-group path."""

import pytest

from repro.baselines.unsecured import UnsecuredLSMStore
from repro.lsm.records import Record, tombstone
from repro.lsm.wal import WriteAheadLog
from tests.conftest import TEST_SCALE, kv, make_p1_store, make_p2_store


def rec(i):
    return Record(key=b"k%d" % i, ts=i + 1, value=b"v%d" % i)


def test_append_group_replays_identically_to_sequential_appends(free_env):
    records = [rec(i) for i in range(10)] + [tombstone(b"k0", 100)]
    seq = WriteAheadLog(free_env, "wal-seq")
    for record in records:
        seq.append(record)
    grouped = WriteAheadLog(free_env, "wal-grp")
    grouped.append_group(records)
    assert list(grouped.replay()) == records
    assert list(grouped.replay()) == list(seq.replay())


def test_append_group_is_one_disk_write_and_one_fsync(env):
    wal = WriteAheadLog(env, "wal", sync_every=1000)
    file_ops = env.telemetry.metrics.counter("disk.ops")
    before_fsync = env.clock.event_count("fsync")
    appends_before = file_ops.value(op="append")
    wal.append_group([rec(i) for i in range(16)])
    assert env.clock.event_count("fsync") == before_fsync + 1
    assert file_ops.value(op="append") == appends_before + 1
    assert wal.durable_ts == 16  # the trailing sync covered the group
    assert not wal.has_unsynced


def test_append_group_torn_tail_loses_whole_or_suffix_only(free_env):
    """Power loss truncates to synced bytes; replay keeps the intact
    frame prefix — never a gap, never a reordering."""
    wal = WriteAheadLog(free_env, "wal")
    wal.append_group([rec(i) for i in range(6)])
    f = free_env.disk.open(wal.path)
    f.data = f.data[:-5]  # tear the last frame
    replayed = list(wal.replay())
    assert replayed == [rec(i) for i in range(5)]


def test_empty_group_is_a_noop(free_env):
    wal = WriteAheadLog(free_env, "wal")
    wal.append_group([])
    assert list(wal.replay()) == []


def test_commit_group_applies_records_and_counts_metrics():
    store = make_p2_store(max_immutable_memtables=2)
    ops = [("put", *kv(i)) for i in range(8)] + [("delete", kv(0)[0])]
    stamps = store.group_commit(ops)
    assert stamps == sorted(stamps)
    assert len(stamps) == 9
    metrics = store.telemetry.metrics
    assert metrics.counter("lsm.group_commit.groups").total() == 1
    assert metrics.counter("lsm.group_commit.records").total() == 9
    assert store.get(kv(0)[0]) is None  # delete sequenced after the put
    for i in range(1, 8):
        assert store.get(kv(i)[0]) == kv(i)[1]


def test_commit_group_digest_matches_sequential_writes():
    """The enclave's WAL digest must not care how records were batched:
    a group of N advances it exactly like N sequential appends."""
    grouped = make_p2_store(max_immutable_memtables=2)
    sequential = make_p2_store()
    grouped.group_commit([("put", *kv(i)) for i in range(5)])
    for i in range(5):
        sequential.put(*kv(i))
    assert grouped.listener.wal_digest == sequential.listener.wal_digest


def test_commit_group_interleaves_with_singles_and_recovers():
    store = make_p2_store(
        max_immutable_memtables=2, autoseal=True, rollback_protection=True
    )
    store.put(*kv(0))
    store.group_commit([("put", *kv(i)) for i in range(1, 6)])
    store.delete(kv(1)[0])
    store.group_commit([("put", *kv(i, version=1)) for i in range(3)])
    reopened = make_p2_store(
        max_immutable_memtables=2,
        autoseal=True,
        rollback_protection=True,
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    assert reopened.get(kv(0)[0]) == kv(0, version=1)[1]
    assert reopened.get(kv(1)[0]) == kv(1, version=1)[1]
    assert reopened.get(kv(2)[0]) == kv(2, version=1)[1]
    assert reopened.get(kv(3)[0]) == kv(3)[1]
    assert reopened.audit().clean


def test_group_commit_cheaper_than_sequential_per_put():
    """The amortisation claim at engine scale: one ECall + one WAL
    write + one fsync for the group."""
    grouped = make_p2_store(max_immutable_memtables=2, autoseal=True)
    sequential = make_p2_store(autoseal=True)
    ops = [("put", *kv(i)) for i in range(64)]
    start = grouped.clock.now_us
    grouped.group_commit(ops)
    grouped_us = grouped.clock.now_us - start
    start = sequential.clock.now_us
    for _, key, value in ops:
        sequential.put(key, value)
    sequential_us = sequential.clock.now_us - start
    assert grouped_us * 3 < sequential_us
    ecalls = grouped.telemetry.metrics.counter("enclave.ecalls")
    assert ecalls.value(call="group_commit") == 1


def _store(system):
    if system == "p1":
        return make_p1_store()
    if system == "p2":
        return make_p2_store()
    return UnsecuredLSMStore(scale=TEST_SCALE)


@pytest.mark.parametrize("system", ["p1", "p2", "plain"])
def test_group_keeps_caller_order_of_puts_and_deletes(system):
    store = _store(system)
    store.group_commit(
        [
            ("put", b"a", b"1"),
            ("delete", b"a"),  # put-then-delete: gone
            ("delete", b"b"),
            ("put", b"b", b"2"),  # delete-then-put: back
            ("put", b"c", b"3"),
            ("put", b"c", b"4"),  # last write wins
        ]
    )
    assert store.get(b"a") is None
    assert store.get(b"b") == b"2"
    assert store.get(b"c") == b"4"


@pytest.mark.parametrize("system", ["p1", "p2", "plain"])
def test_unknown_op_kind_raises_and_writes_nothing(system):
    store = _store(system)
    store.put(b"k", b"v")
    ts_before = store.current_ts
    ecalls = store.telemetry.metrics.counter("enclave.ecalls")
    ecalls_before = ecalls.total()
    with pytest.raises(ValueError, match="unknown group-commit op"):
        store.group_commit([("put", b"x", b"1"), ("upsert", b"y", b"2")])
    assert store.current_ts == ts_before
    assert ecalls.total() == ecalls_before
    assert store.db.mem_records() == 1
    assert store.db.last_ts == ts_before
    assert store.get(b"x") is None
