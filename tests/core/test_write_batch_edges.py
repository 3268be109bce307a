"""Group-commit edge cases: ordering, duplicates, and flush interaction.

The basics (atomicity, WAL logging, single ECall) live in
``test_batch_and_report.py``; these pin down the corner semantics: later
operations in a group win, a put+delete pair resolves in group order,
an empty group is a no-op at every layer, and a group large enough to
trip the flush threshold still lands as one unit (flush evaluated once,
after the group).
"""

from repro.lsm.records import KIND_DELETE, KIND_PUT
from tests.conftest import kv, make_p2_store


def test_duplicate_key_last_write_wins(free_env):
    from repro.lsm.db import LSMConfig, LSMStore

    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=1 << 20))
    stamps = store.commit_group(
        [(KIND_PUT, b"k", b"first"), (KIND_PUT, b"k", b"second")]
    )
    assert len(stamps) == 2
    assert stamps[0] < stamps[1]
    assert store.get(b"k") == b"second"


def test_put_then_delete_same_key_in_batch(free_env):
    from repro.lsm.db import LSMConfig, LSMStore

    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=1 << 20))
    store.commit_group([(KIND_PUT, b"k", b"v"), (KIND_DELETE, b"k", b"")])
    assert store.get(b"k") is None
    # And the reverse order resurrects the key.
    store.commit_group([(KIND_DELETE, b"j", b""), (KIND_PUT, b"j", b"back")])
    assert store.get(b"j") == b"back"


def test_empty_batch_is_noop_on_p2():
    store = make_p2_store()
    before_ts = store.current_ts
    ecalls = store.telemetry.counter("enclave.ecalls", labels=("call",))
    ecalls_before = ecalls.total()
    assert store.group_commit([]) == []
    assert store.current_ts == before_ts
    # The (empty) group still cost exactly one boundary crossing.
    assert ecalls.total() == ecalls_before + 1


def test_p2_duplicate_and_delete_mix_verified():
    store = make_p2_store()
    key = kv(1)[0]
    store.group_commit(
        [("put", key, b"first"), ("put", key, b"second"), ("delete", kv(2)[0])]
    )
    store.put(*kv(2, version=1))
    store.flush()
    assert store.get(key) == b"second"
    assert store.get(kv(2)[0]) == kv(2, version=1)[1]
    assert store.multi_get([key, kv(2)[0]]) == [
        b"second",
        kv(2, version=1)[1],
    ]


def test_batch_spanning_flush_threshold_applies_atomically():
    """A group far larger than the write buffer must not flush midway:
    every stamp is consecutive and every record readable afterwards."""
    store = make_p2_store(write_buffer_bytes=1024)
    pairs = [kv(i) for i in range(120)]  # several buffers' worth
    flushes_before = store.db.stats.flushes
    stamps = store.group_commit([("put", *pair) for pair in pairs])
    assert stamps == list(range(stamps[0], stamps[0] + len(pairs)))
    # The flush trigger fired once, after the group was fully applied.
    assert store.db.stats.flushes == flushes_before + 1
    for key, value in pairs:
        assert store.get(key) == value


def test_batch_then_tombstone_survives_compaction():
    store = make_p2_store()
    store.group_commit(
        [("put", *kv(i)) for i in range(60)] + [("delete", kv(30)[0])]
    )
    store.flush()
    store.compact_all()
    assert store.get(kv(30)[0]) is None
    assert store.get(kv(29)[0]) == kv(29)[1]
