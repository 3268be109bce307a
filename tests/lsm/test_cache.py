"""Read buffer: LRU, slots, placement accounting."""

import pytest

from repro.lsm.cache import LOCATION_ENCLAVE, Block, ReadBuffer


def block(nbytes=512):
    return Block(entries=[], nbytes=nbytes)


def test_miss_then_hit(free_env):
    buffer = ReadBuffer(free_env, 4096, block_stride=512)
    assert buffer.get(("f", 0)) is None
    buffer.put(("f", 0), block())
    assert buffer.get(("f", 0)) is not None
    probes = [
        free_env.telemetry.counter(f"cache.{kind}").value(region=buffer.region)
        for kind in ("hits", "misses")
    ]
    assert probes == [1, 1]


def test_lru_eviction(free_env):
    buffer = ReadBuffer(free_env, 1024, block_stride=512)  # two slots
    buffer.put(("f", 0), block())
    buffer.put(("f", 1), block())
    buffer.get(("f", 0))  # refresh
    buffer.put(("f", 2), block())  # evicts ("f", 1)
    assert buffer.get(("f", 0)) is not None
    assert buffer.get(("f", 1)) is None
    assert buffer.get(("f", 2)) is not None


def test_slot_reuse(free_env):
    buffer = ReadBuffer(free_env, 1024, block_stride=512)
    for i in range(10):
        buffer.put(("f", i), block())
    assert buffer._next_slot <= 3  # slots recycled, not leaked


def test_invalidate_file(free_env):
    buffer = ReadBuffer(free_env, 8192, block_stride=512)
    buffer.put(("a", 0), block())
    buffer.put(("b", 0), block())
    buffer.invalidate_file("a")
    assert buffer.get(("a", 0)) is None
    assert buffer.get(("b", 0)) is not None


def test_duplicate_put_is_noop(free_env):
    buffer = ReadBuffer(free_env, 4096, block_stride=512)
    buffer.put(("f", 0), block())
    buffer.put(("f", 0), block())
    assert buffer.get(("f", 0)) is not None


def test_enclave_location_requires_enclave(free_env):
    with pytest.raises(ValueError):
        ReadBuffer(free_env, 4096, location=LOCATION_ENCLAVE)


def test_enclave_buffer_accounts_region(enclave_env):
    ReadBuffer(
        enclave_env, 16 * 1024, location=LOCATION_ENCLAVE, region="rb-test"
    )
    assert enclave_env.enclave.region_bytes("rb-test") == 16 * 1024


def test_enclave_fill_pays_copy(enclave_env):
    buffer = ReadBuffer(
        enclave_env, 16 * 1024, location=LOCATION_ENCLAVE, region="rb2"
    )
    before = enclave_env.clock.breakdown().get("enclave_copy", 0.0)
    buffer.put(("f", 0), block(4096))
    assert enclave_env.clock.breakdown()["enclave_copy"] > before


def test_untrusted_fill_pays_dram_copy(enclave_env):
    buffer = ReadBuffer(enclave_env, 16 * 1024)
    buffer.put(("f", 0), block(4096))
    assert enclave_env.clock.breakdown().get("dram_copy", 0.0) > 0
    assert enclave_env.clock.breakdown().get("enclave_copy", 0.0) == 0.0


def test_enclave_buffer_larger_than_epc_faults_on_hits(enclave_env):
    # EPC is 64 KB in the fixture; a 256 KB in-enclave buffer thrashes.
    buffer = ReadBuffer(
        enclave_env, 256 * 1024, location=LOCATION_ENCLAVE, region="rb3",
        block_stride=4096,
    )
    for i in range(64):
        buffer.put(("f", i), block(4096))
    faults_before = enclave_env.enclave.pager.fault_count
    for i in range(64):
        buffer.get(("f", i))
    assert enclave_env.enclave.pager.fault_count > faults_before


def test_per_file_index_tracks_evictions(free_env):
    """Eviction must unindex the block: a later invalidate of its file
    cannot touch the slot its space was recycled into."""
    buffer = ReadBuffer(free_env, 1024, block_stride=512)  # two slots
    buffer.put(("a", 0), block())
    buffer.put(("a", 1), block())
    buffer.put(("b", 0), block())  # evicts ("a", 0)
    buffer.invalidate_file("a")  # only ("a", 1) is still resident
    assert buffer.get(("b", 0)) is not None
    assert buffer.get(("a", 1)) is None
    assert not buffer._by_file.get("a")


def test_invalidate_unknown_file_is_noop(free_env):
    buffer = ReadBuffer(free_env, 4096, block_stride=512)
    buffer.put(("a", 0), block())
    buffer.invalidate_file("never-seen")
    assert buffer.get(("a", 0)) is not None


def test_invalidate_then_reinsert_same_file(free_env):
    buffer = ReadBuffer(free_env, 4096, block_stride=512)
    buffer.put(("a", 0), block())
    buffer.invalidate_file("a")
    buffer.put(("a", 0), block())
    assert buffer.get(("a", 0)) is not None
    buffer.invalidate_file("a")
    assert buffer.get(("a", 0)) is None
