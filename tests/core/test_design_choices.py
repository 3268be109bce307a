"""Table 1: the design-choice matrix of eLSM-P1 vs eLSM-P2.

| system   | code placement | data placement  | digest structure    |
|----------|----------------|-----------------|---------------------|
| eLSM-P1  | inside enclave | inside enclave  | file granularity    |
| eLSM-P2  | inside enclave | outside enclave | record granularity  |
"""

from repro.lsm.cache import LOCATION_ENCLAVE, LOCATION_UNTRUSTED
from tests.conftest import kv, make_p1_store, make_p2_store


def test_p1_code_runs_inside_enclave():
    store = make_p1_store()
    assert store.env.in_enclave
    store.put(b"k", b"v")
    assert store.report()["ecalls"] > 0


def test_p2_code_runs_inside_enclave():
    store = make_p2_store()
    assert store.env.in_enclave
    store.put(b"k", b"v")
    assert store.report()["ecalls"] > 0


def test_p1_data_inside_enclave():
    store = make_p1_store()
    assert store.db.config.buffer_location == LOCATION_ENCLAVE


def test_p2_data_outside_enclave():
    store = make_p2_store()
    assert store.db.config.buffer_location == LOCATION_UNTRUSTED


def test_p1_file_granularity_protection():
    store = make_p1_store()
    assert store.db.config.protect_files
    for i in range(60):
        store.put(*kv(i))
    store.flush()
    run = store.db.level_run(store.db.level_indices()[0])
    # Block MACs in trusted metadata, no per-record proofs.
    assert all(h.mac is not None for meta in run.tables for h in meta.handles)
    entry = run.get_group(store.db.fetcher, kv(5)[0])[0]
    assert entry[1] == b""  # no embedded proof annotation


def test_p2_record_granularity_digests():
    store = make_p2_store()
    for i in range(60):
        store.put(*kv(i))
    store.flush()
    assert not store.db.config.protect_files
    run = store.db.level_run(store.db.level_indices()[0])
    entry = run.get_group(store.db.fetcher, kv(5)[0])[0]
    assert entry[1] != b""  # embedded per-record proof
    assert store.registry.nonempty_levels()  # roots inside the enclave


def test_p2_memtable_and_metadata_stay_inside():
    """P2 moves only the read path out; write buffer & indices stay in."""
    store = make_p2_store()
    for i in range(60):
        store.put(*kv(i))
    enclave = store.enclave
    assert enclave.has_region("memtable")
    assert enclave.has_region("table_meta")
    assert enclave.has_region("level_digests")
    assert not enclave.has_region("p2.read_buffer")
