"""Batched verified reads: MULTIGET equivalence, dedup, cache, attacks.

The batch pipeline must be observationally equivalent to N sequential
``get_verified`` calls (same results, same verification guarantees) while
paying less: deduplicated proofs and cached upper Merkle rungs.  Every
attack the sequential threat model enumerates must fail closed on the
batch path too, plus the batch-only splicing attacks dedup enables.
"""

from dataclasses import replace

import pytest

from repro.core.adversary import (
    BatchRefReuseProver,
    BatchSplicingProver,
    ForgingProver,
    OmittingProver,
    StaleRevealProver,
)
from repro.core.errors import (
    AuthenticationError,
    CompletenessViolation,
    FreshnessViolation,
    IntegrityViolation,
    ProofFormatError,
)
from repro.core.proofs import BatchLevelMembership
from repro.core.wire import (
    deserialize_batch_get_proof,
    serialize_batch_get_proof,
)
from tests.conftest import kv, make_p2_store


@pytest.fixture
def store():
    """Multi-level data, same-key chains, tombstones, and memtable keys."""
    s = make_p2_store()
    for i in range(200):
        s.put(*kv(i))
    for i in range(0, 200, 4):
        s.put(*kv(i, version=1))
    s.delete(kv(7)[0])
    s.flush()
    s.compact_all()
    for i in range(90, 96):
        s.put(*kv(i, version=2))  # stays in the memtable
    return s


def batch_keys():
    """Present, chained, tombstoned, memtable-resident, missing, duplicated."""
    return (
        [kv(i)[0] for i in range(0, 40, 3)]
        + [kv(7)[0], kv(91)[0], b"nope", b"zzz", kv(12)[0], kv(12)[0]]
    )


# ----------------------------------------------------------------------
# Equivalence with the sequential path
# ----------------------------------------------------------------------
def test_multiget_matches_sequential(store):
    keys = batch_keys()
    sequential = [store.get(k) for k in keys]
    assert store.multi_get(keys) == sequential


def test_multiget_verified_records_match_sequential(store):
    keys = batch_keys()
    sequential = [store.get_verified(k).record for k in keys]
    assert store.multi_get_verified(keys).records == sequential


def test_multiget_time_travel(store):
    key = kv(8)[0]
    ts_old = next(
        r.ts
        for r in [store.get_verified(key, ts_query=store.current_ts).record]
    )
    # Query strictly before the v1 overwrite: both paths see version 0.
    tsq = ts_old - 1
    keys = [key, kv(9)[0], b"nope"]
    sequential = [store.get(k, ts_query=tsq) for k in keys]
    assert store.multi_get(keys, ts_query=tsq) == sequential


def test_multiget_empty_batch(store):
    result = store.multi_get_verified([])
    assert result.records == []
    assert result.values == []


def test_multiget_all_memtable(store):
    keys = [kv(i)[0] for i in range(90, 96)]
    result = store.multi_get_verified(keys)
    assert result.values == [kv(i, version=2)[1] for i in range(90, 96)]
    assert result.proof_bytes == 0


def test_multiget_proof_smaller_than_sequential(store):
    keys = batch_keys()
    sequential_bytes = sum(store.get_verified(k).proof_bytes for k in keys)
    assert store.multi_get_verified(keys).proof_bytes < sequential_bytes


def test_multiget_wire_roundtrip(store):
    keys = sorted({store.codec.encode_key(k) for k in batch_keys()})
    proof = store.multi_get_verified(keys).proof
    decoded = deserialize_batch_get_proof(serialize_batch_get_proof(proof))
    assert decoded.keys == proof.keys
    assert decoded.node_pool == proof.node_pool
    # The deserialized proof verifies like the original.
    verified = store.verifier.verify_multi_get(
        list(proof.keys),
        proof.ts_query,
        decoded,
        trusted_absence=store._trusted_absence,
    )
    assert [r.key if r else None for r in verified] == [
        r.key if r else None
        for r in store.verifier.verify_multi_get(
            list(proof.keys),
            proof.ts_query,
            proof,
            trusted_absence=store._trusted_absence,
        )
    ]


# ----------------------------------------------------------------------
# The sequential threat model, exercised through the batch path
# ----------------------------------------------------------------------
def test_forged_value_detected_in_batch(store):
    store.prover = ForgingProver(store.db, fake_value=b"EVIL")
    with pytest.raises(IntegrityViolation):
        store.multi_get([kv(17)[0], kv(18)[0]])


def test_stale_reveal_detected_in_batch(store):
    store.prover = StaleRevealProver(store.db)
    with pytest.raises(FreshnessViolation):
        store.multi_get([kv(8)[0]])


def test_omission_detected_in_batch(store):
    store.prover = OmittingProver(store.db)
    with pytest.raises(CompletenessViolation):
        store.multi_get([kv(50)[0], kv(51)[0]])


# ----------------------------------------------------------------------
# Batch-only attacks: the dedup layer must fail closed
# ----------------------------------------------------------------------
def test_spliced_node_pool_rejected(store):
    store.prover = BatchSplicingProver(store.db)
    with pytest.raises(IntegrityViolation):
        store.multi_get([kv(17)[0], kv(50)[0], kv(101)[0]])


def test_cross_key_ref_reuse_rejected(store):
    store.prover = BatchRefReuseProver(store.db)
    with pytest.raises(IntegrityViolation):
        store.multi_get([kv(17)[0], kv(50)[0], kv(101)[0]])


def test_out_of_range_reference_rejected(store):
    keys = [store.codec.encode_key(kv(17)[0])]
    proof = store.multi_get_verified([kv(17)[0]]).proof
    tampered = False
    per_key = []
    for entries in proof.per_key:
        fixed = []
        for entry in entries:
            if isinstance(entry, BatchLevelMembership) and not tampered:
                entry = replace(entry, reveal_ref=9999)
                tampered = True
            fixed.append(entry)
        per_key.append(tuple(fixed))
    assert tampered
    proof.per_key = tuple(per_key)
    with pytest.raises(ProofFormatError, match="out of range"):
        store.verifier.verify_multi_get(
            keys, proof.ts_query, proof, trusted_absence=store._trusted_absence
        )


def test_key_mismatch_rejected(store):
    proof = store.multi_get_verified([kv(17)[0]]).proof
    with pytest.raises(ProofFormatError):
        store.verifier.verify_multi_get(
            [store.codec.encode_key(kv(18)[0])],
            proof.ts_query,
            proof,
            trusted_absence=store._trusted_absence,
        )


def test_stale_root_replay_rejected(store):
    """A batch proof captured before a compaction must not verify after
    the roots changed — the cached nodes of the old roots are gone too."""
    captured = store.multi_get_verified([kv(17)[0], kv(50)[0]])
    keys = list(captured.proof.keys)
    for i in range(40):
        store.put(*kv(i, version=3))
    store.flush()
    store.compact_all()
    with pytest.raises(AuthenticationError):
        store.verifier.verify_multi_get(
            keys,
            captured.proof.ts_query,
            captured.proof,
            trusted_absence=store._trusted_absence,
        )


# ----------------------------------------------------------------------
# The verified-node cache
# ----------------------------------------------------------------------
def test_node_cache_hits_grow_on_repeat(store):
    keys = [kv(i)[0] for i in range(0, 60, 3)]
    store.multi_get(keys)
    first = store.report()["verifier_cache_hits"]
    store.multi_get(keys)
    assert store.report()["verifier_cache_hits"] > first


def test_node_cache_invalidated_on_root_change(store):
    cache = store.verifier.node_cache
    store.multi_get([kv(i)[0] for i in range(0, 60, 3)])
    assert len(cache) > 0
    roots_before = {
        store.registry.get(lvl).root
        for lvl in store.registry.nonempty_levels()
    }
    for i in range(40):
        store.put(*kv(i, version=4))
    store.flush()
    store.compact_all()
    for root in roots_before:
        assert cache.entries_for_root(root) == 0
    assert (
        store.telemetry.counter("verifier.cache.evict", labels=("reason",))
        .total()
        > 0
    )
    # And the store still answers correctly against the new roots.
    assert store.multi_get([kv(1)[0]]) == [store.get(kv(1)[0])]


def test_node_cache_capacity_eviction(store):
    from repro.core.verifier import Verifier

    small = Verifier(store.registry, store.env, node_cache_entries=4)
    store.verifier = small
    store.multi_get([kv(i)[0] for i in range(0, 60, 3)])
    evictions = store.telemetry.counter("verifier.cache.evict")
    assert evictions.value(reason="capacity") > 0
    assert len(small.node_cache) <= 4


def test_sequential_gets_also_use_cache(store):
    store.get(kv(17)[0])
    store.get(kv(17)[0])
    assert store.report()["verifier_cache_hits"] > 0
