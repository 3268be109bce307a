"""Accounting consistency: size_bytes() vs actual wire length.

The experiments report `proof.size_bytes()`; the remote client ships
`serialize_*` bytes.  The two measure slightly different things (the
accounting counts hashes and records, the wire adds framing), but they
must stay within a small framing factor of each other or the reported
proof sizes would be misleading.
"""

from repro.core.proofs import LevelSkipped, ScanProof
from repro.core.wire import serialize_get_proof, serialize_scan_proof
from tests.conftest import kv, make_p2_store


def build_store():
    store = make_p2_store()
    for i in range(150):
        store.put(*kv(i))
    for i in range(0, 150, 5):
        store.put(*kv(i, version=1))
    store.flush()
    return store


def test_get_proof_accounting_tracks_wire_size():
    store = build_store()
    for i in (0, 5, 73, 149):
        verified = store.get_verified(kv(i)[0])
        accounted = verified.proof.size_bytes()
        wire = len(serialize_get_proof(verified.proof))
        assert accounted > 0
        assert 0.5 * accounted <= wire <= 2.0 * accounted + 64


def test_scan_proof_accounting_tracks_wire_size():
    store = build_store()
    lo, hi = kv(40)[0], kv(60)[0]
    tsq = store.current_ts
    proof = ScanProof(lo=lo, hi=hi, ts_query=tsq)
    for level in store.registry.nonempty_levels():
        digest = store.registry.get(level)
        if digest.excludes_range(lo, hi):
            proof.levels.append(LevelSkipped(level, "range-disjoint"))
        else:
            proof.levels.append(store.prover.level_range_proof(level, lo, hi, tsq))
    accounted = proof.size_bytes()
    wire = len(serialize_scan_proof(proof))
    assert 0.5 * accounted <= wire <= 2.0 * accounted + 64


def test_total_proof_bytes_monotone():
    store = build_store()
    readings = []
    for i in range(0, 150, 10):
        store.get(kv(i)[0])
        readings.append(store.report()["proof_bytes_total"])
    assert readings == sorted(readings)
    assert readings[-1] > 0


def test_report_after_recovery_consistent():
    from tests.core.test_recovery import crash_and_reopen, make_store

    store = make_store()
    for i in range(100):
        store.put(*kv(i))
    store.flush()
    blob = store.seal_state()
    revived = crash_and_reopen(store)
    revived.recover_from_seal(blob)
    report = revived.report()
    assert report["timestamp"] == store.current_ts
    assert set(report["levels"]) == set(store.db.level_indices())
    for level, info in report["levels"].items():
        assert info["records"] == store.db.level_run(level).record_count
