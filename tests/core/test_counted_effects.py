"""Each counted effect has one record, and that record matches the work.

These tests check the single remaining record of an effect against the
work itself (boundary entries seen by a wrapper, the proofs actually
returned or verified), not against a second copy of the count.
"""

import random

from tests.conftest import kv, make_p2_store
from tests.core.test_recovery import crash_and_reopen, make_store


def test_report_counts_match_the_work_done():
    store = make_p2_store(read_mode="mmap")
    rng = random.Random(11)
    keys = [kv(i)[0] for i in range(300)]
    for i in range(300):
        store.put(*kv(i))
    store.flush()

    boundary = store.env.boundary
    real_ecall = boundary.ecall
    entries = []

    def counting_ecall(name="", **kwargs):
        entries.append(name)
        return real_ecall(name, **kwargs)

    boundary.ecall = counting_ecall
    scan_proofs = []
    real_verify_scan = store.verifier.verify_scan

    def recording_verify_scan(lo, hi, tsq, proof, **kwargs):
        records = real_verify_scan(lo, hi, tsq, proof, **kwargs)
        scan_proofs.append(proof.size_bytes())
        return records

    store.verifier.verify_scan = recording_verify_scan

    before = store.report()
    served = 0
    for step in range(400):
        roll = rng.random()
        if roll < 0.3:
            store.put(rng.choice(keys), b"v%d" % step)
        elif roll < 0.7:
            served += store.get_verified(rng.choice(keys)).proof_bytes
        elif roll < 0.85:
            batch = [rng.choice(keys) for _ in range(6)]
            served += store.multi_get_verified(batch).proof_bytes
        else:
            lo = rng.choice(keys)
            store.scan(lo, lo[:-1] + b"9")
    after = store.report()

    assert scan_proofs and served > 0
    assert after["ecalls"] - before["ecalls"] == len(entries) == 400
    assert after["proof_bytes_total"] - before["proof_bytes_total"] == (
        served + sum(scan_proofs)
    )


def test_reopened_store_counts_the_page_cache_hits_it_causes():
    store = make_store(read_mode="mmap")
    for i in range(200):
        store.put(*kv(i))
    store.flush()
    blob = store.seal_state()
    revived = crash_and_reopen(store, read_mode="mmap")
    revived.recover_from_seal(blob)

    disk = revived.disk
    dead_registry_hits = store.telemetry.counter("cache.hits").total()
    disk_before = disk.cache_hit_blocks
    report_before = revived.report()["cache_hits"]
    for i in range(0, 200, 3):
        assert revived.get(kv(i)[0]) == kv(i)[1]
    device_hits = disk.cache_hit_blocks - disk_before

    assert device_hits > 0
    assert revived.report()["cache_hits"] - report_before >= device_hits
    # The store that was replaced keeps no count of the new store's reads.
    assert store.telemetry.counter("cache.hits").total() == dead_registry_hits
