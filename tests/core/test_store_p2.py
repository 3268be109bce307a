"""eLSM-P2 end-to-end behaviour (functional)."""

import pytest

from tests.conftest import kv, make_p2_store


@pytest.fixture
def store():
    return make_p2_store()


@pytest.fixture
def loaded():
    """A store with enough data to span several levels plus versions."""
    store = make_p2_store()
    for i in range(300):
        store.put(*kv(i))
    for i in range(0, 300, 5):
        store.put(*kv(i, version=1))
    return store


def test_put_get_roundtrip(store):
    store.put(b"alice", b"hello")
    assert store.get(b"alice") == b"hello"


def test_get_missing(loaded):
    assert loaded.get(b"no-such-key") is None


def test_latest_version_wins(loaded):
    key, value = kv(5, version=1)
    assert loaded.get(key) == value


def test_unversioned_key_still_original(loaded):
    key, value = kv(7)
    assert loaded.get(key) == value


def test_historical_read_with_ts(store):
    t1 = store.put(b"k", b"v1")
    store.flush()
    t2 = store.put(b"k", b"v2")
    assert store.get(b"k", ts_query=t1) == b"v1"
    assert store.get(b"k", ts_query=t2) == b"v2"
    assert store.get(b"k", ts_query=t1 - 1) is None


def test_historical_read_across_levels(loaded):
    """A key whose newest version is too new must fall through levels."""
    loaded.flush()
    key, old_value = kv(10)
    # version=1 was written later; query before it.
    verified = loaded.get_verified(key)
    newest_ts = verified.record.ts
    assert loaded.get(key, ts_query=newest_ts - 1) == old_value


def test_delete(loaded):
    key, _ = kv(3)
    loaded.delete(key)
    assert loaded.get(key) is None
    loaded.flush()
    assert loaded.get(key) is None


def test_scan_range(loaded):
    lo, _ = kv(20)
    hi, _ = kv(29)
    result = loaded.scan(lo, hi)
    assert len(result) == 10
    assert result[0][0] == lo
    assert result == sorted(result)


def test_scan_reflects_updates_and_deletes(store):
    for i in range(10):
        store.put(*kv(i))
    store.put(*kv(4, version=2))
    store.delete(kv(6)[0])
    store.flush()
    result = dict(store.scan(kv(0)[0], kv(9)[0]))
    assert result[kv(4)[0]] == kv(4, version=2)[1]
    assert kv(6)[0] not in result
    assert len(result) == 9


def test_scan_empty_range(loaded):
    assert loaded.scan(b"zzz1", b"zzz9") == []


def test_levels_exist_after_load(loaded):
    assert loaded.db.level_indices()
    assert loaded.registry.nonempty_levels() == loaded.db.level_indices()


def test_proof_bytes_accounted(loaded):
    loaded.flush()
    before = loaded.report()["proof_bytes_total"]
    loaded.get(kv(123)[0])
    assert loaded.report()["proof_bytes_total"] > before


def test_memtable_hits_need_no_proof(store):
    store.put(b"hot", b"value")
    verified = store.get_verified(b"hot")
    assert verified.proof_bytes == 0
    assert verified.record.value == b"value"


def test_compact_all_single_level(loaded):
    loaded.compact_all()
    assert len(loaded.db.level_indices()) == 1
    key, value = kv(5, version=1)
    assert loaded.get(key) == value


def test_bloom_disabled_full_protocol():
    store = make_p2_store(use_bloom=False)
    for i in range(100):
        store.put(*kv(i))
    store.flush()
    assert store.get(kv(50)[0]) == kv(50)[1]
    assert store.get(b"missing") is None


def test_early_stop_disabled_still_correct():
    store = make_p2_store(early_stop=False)
    for i in range(100):
        store.put(*kv(i))
        if i % 30 == 0:
            store.flush()
    for i in range(0, 100, 7):
        assert store.get(kv(i)[0]) == kv(i)[1]


def test_on_demand_proof_mode():
    store = make_p2_store(proof_mode="on_demand")
    for i in range(80):
        store.put(*kv(i))
    store.flush()
    assert store.get(kv(33)[0]) == kv(33)[1]
    assert store.get(b"missing") is None
    lo, _ = kv(10)
    hi, _ = kv(15)
    assert len(store.scan(lo, hi)) == 6


def test_invalid_proof_mode_rejected():
    with pytest.raises(ValueError):
        make_p2_store(proof_mode="telepathy")


def test_deterministic_encryption_mode():
    store = make_p2_store(encryption_mode="de", secret=b"s" * 32)
    store.put(b"secret-key", b"secret-value")
    store.flush()
    assert store.get(b"secret-key") == b"secret-value"
    # The untrusted disk must never see the plaintext.
    for name in store.disk.list_files():
        assert b"secret-key" not in bytes(store.disk.open(name).data)
        assert b"secret-value" not in bytes(store.disk.open(name).data)


def test_de_mode_rejects_scans():
    store = make_p2_store(encryption_mode="de", secret=b"s" * 32)
    store.put(b"k", b"v")
    with pytest.raises(ValueError):
        store.scan(b"a", b"z")


def test_ope_encryption_supports_scans():
    store = make_p2_store(encryption_mode="ope", secret=b"s" * 32)
    for i in range(30):
        store.put(*kv(i))
    store.flush()
    assert store.get(kv(12)[0]) == kv(12)[1]
    lo, _ = kv(10)
    hi, _ = kv(19)
    result = store.scan(lo, hi)
    assert len(result) == 10
    assert {k.rstrip(b"\x00") for k, _ in result} == {kv(i)[0] for i in range(10, 20)}
    for name in store.disk.list_files():
        assert kv(12)[1] not in bytes(store.disk.open(name).data)


def test_timestamps_strictly_increase(store):
    stamps = [store.put(*kv(i)) for i in range(10)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 10
    assert store.current_ts == stamps[-1]


def test_verified_get_exposes_proof(loaded):
    loaded.flush()
    verified = loaded.get_verified(kv(42)[0])
    assert verified.record is not None
    assert verified.proof.levels  # at least one level proof involved


def test_wal_digest_advances(store):
    initial = store.listener.wal_digest
    store.put(b"k", b"v")
    assert store.listener.wal_digest != initial


def test_randomized_against_model():
    import random

    rng = random.Random(11)
    store = make_p2_store()
    model: dict[bytes, bytes] = {}
    keys = [b"key%03d" % i for i in range(40)]
    for step in range(500):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.5:
            value = b"v%d" % step
            store.put(key, value)
            model[key] = value
        elif roll < 0.65:
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    assert dict(store.scan(b"key000", b"key999")) == model
