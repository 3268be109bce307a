"""Verifier edge cases: degenerate trees, empty stores, tiny levels."""

import pytest

from repro.core.errors import CompletenessViolation, ProofFormatError
from repro.core.proofs import GetProof, ScanProof
from tests.conftest import kv, make_p2_store


def test_empty_store_get():
    store = make_p2_store()
    assert store.get(b"anything") is None
    assert store.report()["proof_bytes_total"] == 0  # nothing to prove


def test_empty_store_scan():
    store = make_p2_store()
    assert store.scan(b"a", b"z") == []


def test_single_record_level():
    """A one-leaf Merkle tree: the auth path is empty."""
    store = make_p2_store()
    store.put(b"only", b"value")
    store.flush()
    verified = store.get_verified(b"only")
    assert verified.record.value == b"value"
    hit = verified.proof.levels[-1]
    assert hit.path == ()
    # Non-membership around a single leaf (both boundary cases).
    assert store.get(b"aaa") is None
    assert store.get(b"zzz") is None


def test_single_key_many_versions():
    store = make_p2_store()
    for version in range(20):
        store.put(b"hot", b"v%d" % version)
    store.compact_all()
    assert store.get(b"hot") == b"v19"
    verified = store.get_verified(b"hot")
    reveal = verified.proof.levels[-1].reveal
    assert len(reveal.records) == 1  # only the newest revealed
    assert reveal.older_digest is not None  # 19 older versions digested


def test_two_record_level_scan():
    store = make_p2_store()
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    store.flush()
    assert store.scan(b"a", b"b") == [(b"a", b"1"), (b"b", b"2")]
    assert store.scan(b"0", b"9") == []
    assert store.scan(b"a", b"a") == [(b"a", b"1")]


def test_scan_single_key_window():
    store = make_p2_store()
    for i in range(50):
        store.put(*kv(i))
    store.flush()
    lo = hi = kv(25)[0]
    assert store.scan(lo, hi) == [kv(25)]


def test_get_at_ts_zero():
    store = make_p2_store()
    store.put(b"k", b"v")
    store.flush()
    assert store.get(b"k", ts_query=0) is None


def test_proof_for_empty_registry_must_be_empty():
    store = make_p2_store()
    proof = GetProof(key=b"k", ts_query=0, levels=[])
    assert store.verifier.verify_get(b"k", 0, proof) is None


def test_scan_proof_missing_levels_rejected():
    store = make_p2_store()
    for i in range(100):
        store.put(*kv(i))
    store.flush()
    lo, hi = kv(0)[0], kv(99)[0]
    proof = ScanProof(lo=lo, hi=hi, ts_query=store.current_ts, levels=[])
    with pytest.raises(CompletenessViolation):
        store.verifier.verify_scan(lo, hi, store.current_ts, proof)


def test_get_proof_query_mismatch_rejected():
    store = make_p2_store()
    proof = GetProof(key=b"k", ts_query=5, levels=[])
    with pytest.raises(ProofFormatError):
        store.verifier.verify_get(b"k", 6, proof)


def test_tombstone_then_reinsert():
    store = make_p2_store()
    store.put(b"k", b"v1")
    store.delete(b"k")
    store.flush()
    assert store.get(b"k") is None
    store.put(b"k", b"v2")
    store.flush()
    assert store.get(b"k") == b"v2"
    store.compact_all()
    assert store.get(b"k") == b"v2"


def test_adjacent_keys_non_membership():
    """A key lexicographically between two adjacent stored keys."""
    store = make_p2_store()
    store.put(b"aa", b"1")
    store.put(b"ac", b"2")
    store.flush()
    assert store.get(b"ab") is None
    # Prefix relationships must not confuse the ordering checks.
    assert store.get(b"a") is None
    assert store.get(b"aaa") is None


def test_long_keys_and_values():
    store = make_p2_store()
    long_key = b"K" * 500
    long_value = b"V" * 5000
    store.put(long_key, long_value)
    store.flush()
    assert store.get(long_key) == long_value


def test_empty_value():
    store = make_p2_store()
    store.put(b"k", b"")
    store.flush()
    assert store.get(b"k") == b""
    assert store.get_verified(b"k").record.value == b""
