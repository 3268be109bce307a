"""The authenticated COMPACTION listener in isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auth_compaction import (
    WAL_DIGEST_INIT,
    AuthCompactionListener,
    advance_wal_digest,
)
from repro.core.digest import DigestRegistry, LevelDigest
from repro.core.errors import IntegrityViolation
from repro.core.proofs import EmbeddedProof
from repro.lsm.compaction import Compactor
from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.records import Record, encode_record, tombstone
from repro.mht.incremental import StreamingLevelDigester
from tests.conftest import make_p2_store


def rec(key, ts):
    return Record(key=key, ts=ts, value=b"v")


@pytest.fixture
def listener(free_env):
    return AuthCompactionListener(DigestRegistry(free_env), free_env)


def flush_ctx():
    return CompactionContext(kind="flush", input_levels=[0], output_level=1)


def run_flush(listener, records):
    """Drive a memtable-only flush through the listener hooks."""
    ctx = flush_ctx()
    listener.on_compaction_begin(ctx)
    for record in records:
        listener.on_compaction_input_record(ctx, 0, record)
        listener.on_compaction_output_record(ctx, record)
    listener.on_compaction_finish(ctx)
    return ctx


def test_wal_digest_chain(listener):
    first = advance_wal_digest(WAL_DIGEST_INIT, rec(b"a", 1))
    listener.on_wal_append(rec(b"a", 1))
    assert listener.wal_digest == first
    listener.on_wal_append(rec(b"b", 2))
    assert listener.wal_digest == advance_wal_digest(first, rec(b"b", 2))


def test_flush_installs_output_digest(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    digest = listener.registry.get(1)
    assert digest.leaf_count == 2
    assert digest.record_count == 2
    assert digest.min_key == b"a"
    assert digest.max_key == b"b"


def test_compaction_verifies_untrusted_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    # Now merge level 1 into level 2 with honest inputs.
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    for record in (rec(b"a", 2), rec(b"b", 1)):
        listener.on_compaction_input_record(ctx, 1, record)
        listener.on_compaction_output_record(ctx, record)
    listener.on_compaction_finish(ctx)
    assert listener.registry.get(1).is_empty
    assert listener.registry.get(2).leaf_count == 2


def test_compaction_rejects_tampered_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    evil = Record(key=b"a", ts=2, value=b"TAMPERED")
    listener.on_compaction_input_record(ctx, 1, evil)
    listener.on_compaction_input_record(ctx, 1, rec(b"b", 1))
    listener.on_compaction_output_record(ctx, evil)
    with pytest.raises(IntegrityViolation):
        listener.on_compaction_finish(ctx)


def test_compaction_rejects_omitted_inputs(listener):
    run_flush(listener, [rec(b"a", 2), rec(b"b", 1)])
    ctx = CompactionContext(kind="compaction", input_levels=[1], output_level=2)
    listener.on_compaction_begin(ctx)
    listener.on_compaction_input_record(ctx, 1, rec(b"a", 2))  # b omitted
    listener.on_compaction_output_record(ctx, rec(b"a", 2))
    with pytest.raises(IntegrityViolation):
        listener.on_compaction_finish(ctx)


def test_embedded_proofs_cursor(listener):
    records = [rec(b"a", 5), rec(b"b", 9), rec(b"b", 3), rec(b"c", 1)]
    ctx = run_flush(listener, records)
    entries = listener.on_table_file_created(ctx, [(r, b"") for r in records])
    proofs = [EmbeddedProof.deserialize(aux) for _, aux in entries]
    assert [p.leaf_index for p in proofs] == [0, 1, 1, 2]
    assert [p.position for p in proofs] == [0, 0, 1, 0]
    assert proofs[1].older_digest is not None  # b@9 has an older suffix
    assert proofs[2].older_digest is None  # b@3 is the oldest


def test_embedded_proofs_span_multiple_files(listener):
    records = [rec(b"a", 5), rec(b"b", 9), rec(b"c", 1)]
    ctx = run_flush(listener, records)
    first = listener.on_table_file_created(ctx, [(records[0], b"")])
    rest = listener.on_table_file_created(ctx, [(r, b"") for r in records[1:]])
    indices = [
        EmbeddedProof.deserialize(aux).leaf_index for _, aux in first + rest
    ]
    assert indices == [0, 1, 2]


def test_embedding_rejects_diverging_records(listener):
    records = [rec(b"a", 5)]
    ctx = run_flush(listener, records)
    with pytest.raises(IntegrityViolation):
        listener.on_table_file_created(ctx, [(rec(b"z", 99), b"")])


def test_embed_disabled(free_env):
    listener = AuthCompactionListener(
        DigestRegistry(free_env), free_env, embed_proofs=False
    )
    records = [rec(b"a", 5)]
    ctx = run_flush(listener, records)
    entries = listener.on_table_file_created(ctx, [(records[0], b"")])
    assert entries[0][1] == b""


def test_level_inserted_shifts_registry(listener):
    run_flush(listener, [rec(b"a", 1)])
    old = listener.registry.get(1)
    listener.on_level_inserted(1)
    assert listener.registry.get(1).is_empty
    assert listener.registry.get(2) == old
    assert listener.level_trees.get(2) is not None


def test_trusted_memtable_not_verified(listener):
    """Level-0 input needs no digester (it never left the enclave)."""
    ctx = flush_ctx()
    listener.on_compaction_begin(ctx)
    assert ctx.state["input_digesters"] == {}


# ----------------------------------------------------------------------
# Pass-through chain reuse: real merges (Compactor) through the listener
# ----------------------------------------------------------------------
def hash_calls(env):
    return env.telemetry.counter("enclave.hash.invocations").value()


def fresh_digest(records):
    """(tree, hash charges) of a from-scratch digest of ``records``."""
    charges = []
    digester = StreamingLevelDigester(on_hash=charges.append)
    for record in records:
        digester.add(record.key, record.ts, encode_record(record))
    return digester.finalize(), len(charges)


class OutputRecorder(EventListener):
    """Keeps the records a merge emits."""

    def __init__(self):
        self.records = []

    def on_compaction_output_record(self, ctx, record):
        self.records.append(record)


class Merges:
    """Runs real merges over in-memory levels through one listener."""

    def __init__(self, env):
        self.env = env
        self.listener = AuthCompactionListener(DigestRegistry(env), env)
        self.levels = {}
        self._files = 0

    def load(self, level, records):
        """Install ``level`` from a MemTable (trusted) flush."""
        self.merge({0: records}, level)

    def merge(self, sources, output, bottom=False, keep_versions=True):
        """Merge ``sources`` (level -> records) into ``output``."""
        recorder = OutputRecorder()
        compactor = Compactor(
            self.env,
            [self.listener, recorder],
            block_bytes=1024,
            file_max_bytes=1 << 20,
            bloom_bits_per_key=10,
            keep_versions=keep_versions,
        )
        ctx = CompactionContext(
            kind="flush" if 0 in sources else "compaction",
            input_levels=sorted(sources),
            output_level=output,
            is_bottom_level=bottom,
        )
        inputs = {
            level: sorted(records, key=Record.sort_key)
            for level, records in sources.items()
        }
        compactor.run(
            ctx,
            [(level, [(r, b"") for r in inputs[level]]) for level in sorted(inputs)],
            self._namer,
        )
        for level in sources:
            self.levels.pop(level, None)
        self.levels[output] = recorder.records
        return inputs, recorder.records

    def _namer(self, level):
        self._files += 1
        return f"{level:02d}-{self._files:06d}.sst", self._files


def assert_reused(m, sources, output, reused, bottom=False, keep_versions=True):
    """Merge, then check the digest and that exactly ``reused`` keys passed through.

    Every untrusted input record is still hashed; the output side saves
    one hash per record plus one leaf hash per reused chain.
    """
    before = hash_calls(m.env)
    inputs, produced = m.merge(sources, output, bottom, keep_versions)
    charged = hash_calls(m.env) - before
    expected, output_calls = fresh_digest(produced)
    input_calls = sum(fresh_digest(records)[1] for level, records in inputs.items() if level)
    saved = sum(
        g.chain_len + 1 for g in expected.groups if g.key in reused
    )
    assert charged == input_calls + output_calls - saved
    installed = m.listener.registry.get(output)
    assert (installed.root, installed.leaf_count, installed.record_count) == (
        expected.root,
        expected.leaf_count,
        expected.record_count,
    )
    return produced


def test_pass_through_compaction_saves_records_plus_leaves(free_env, hashed_bytes):
    m = Merges(free_env)
    m.load(1, [rec(b"a", 4), rec(b"b", 6), rec(b"b", 5), rec(b"c", 2)])
    hashed_bytes.clear()
    hash_bytes = free_env.telemetry.counter("enclave.hash.bytes")
    bytes_before, calls_before = hash_bytes.value(), hash_calls(free_env)
    inputs, produced = m.merge({1: m.levels[1]}, 2)
    assert hash_bytes.value() - bytes_before == sum(hashed_bytes)
    # All three L1 chains pass through to L2: 4 records + 3 leaves saved.
    assert hash_calls(free_env) - calls_before == (
        fresh_digest(inputs[1])[1] + fresh_digest(produced)[1] - 7
    )
    assert m.listener.registry.get(2).root == fresh_digest(produced)[0].root


def test_no_reuse_for_memtable_keys(free_env):
    m = Merges(free_env)
    m.load(1, [rec(b"a", 1), rec(b"c", 1)])
    memtable = [rec(b"b", 5), rec(b"c", 6)]
    # b is MemTable-only, c merges with L1's chain; only a passes through.
    assert_reused(m, {0: memtable, 1: m.levels[1]}, 1, reused={b"a"})


def test_no_reuse_for_key_in_two_levels(free_env):
    m = Merges(free_env)
    m.load(2, [rec(b"a", 2), rec(b"b", 1)])
    m.load(1, [rec(b"a", 5)])
    assert_reused(m, {1: m.levels[1], 2: m.levels[2]}, 2, reused={b"b"})


def test_no_reuse_for_tombstone_shadowed_chains(free_env):
    m = Merges(free_env)
    m.load(2, [rec(b"a", 3), rec(b"a", 2), rec(b"b", 1)])
    m.load(1, [tombstone(b"a", 5)])
    # The shadowed L2 chain of a is dropped; what survives of a is L1's
    # tombstone chain, byte-identical, so it is the one that is reused.
    out = assert_reused(m, {1: m.levels[1], 2: m.levels[2]}, 2, reused={b"a", b"b"})
    assert [(r.key, r.ts) for r in out] == [(b"a", 5), (b"b", 1)]
    # A MemTable tombstone shadowing an L1 chain leaves nothing to reuse
    # for that key.
    m.load(3, [rec(b"z", 1)])
    m.load(1, [rec(b"c", 3), rec(b"c", 2), rec(b"d", 1)])
    out = assert_reused(m, {0: [tombstone(b"c", 7)], 1: m.levels[1]}, 1, reused={b"d"})
    assert [(r.key, r.ts) for r in out] == [(b"c", 7), (b"d", 1)]


def test_no_reuse_for_bottom_level_tombstone_drop(free_env):
    m = Merges(free_env)
    m.load(2, [rec(b"a", 2), rec(b"b", 1)])
    m.load(1, [rec(b"a", 6), tombstone(b"a", 5)])
    out = assert_reused(m, {1: m.levels[1], 2: m.levels[2]}, 2, reused={b"b"}, bottom=True)
    assert [(r.key, r.ts) for r in out] == [(b"a", 6), (b"b", 1)]


def test_no_reuse_for_chains_shortened_without_versions(free_env):
    m = Merges(free_env)
    m.load(1, [rec(b"a", 5), rec(b"a", 3), rec(b"b", 2)])
    out = assert_reused(m, {1: m.levels[1]}, 2, reused={b"b"}, keep_versions=False)
    assert [(r.key, r.ts) for r in out] == [(b"a", 5), (b"b", 2)]


def test_tampered_pass_through_record_rejected(free_env):
    m = Merges(free_env)
    m.load(1, [rec(b"a", 2), rec(b"b", 1)])
    m.load(2, [rec(b"c", 1)])
    registry = m.listener.registry
    before = {level: registry.get(level) for level in (1, 2)}
    trees = dict(m.listener.level_trees)
    evil = Record(key=b"b", ts=1, value=b"w")  # one byte off b"v"
    with pytest.raises(IntegrityViolation):
        m.merge({1: [rec(b"a", 2), evil], 2: m.levels[2]}, 2)
    assert {level: registry.get(level) for level in (1, 2)} == before
    assert m.listener.level_trees == trees


class FromScratchCheck(EventListener):
    """Checks every installed digest against a from-scratch digest.

    Registered after the :class:`AuthCompactionListener`, so it sees the
    installed registry entry, the enclave's hash charges and the
    annotated output entries.
    """

    def __init__(self, auth):
        self.auth = auth
        self.checked = 0
        self.reused_groups = 0

    def on_compaction_begin(self, ctx):
        ctx.state["scratch_inputs"] = {
            level: [] for level in ctx.input_levels if level not in ctx.trusted_levels
        }
        ctx.state["scratch_output"] = []
        ctx.state["calls_before"] = hash_calls(self.auth.env)

    def on_compaction_input_record(self, ctx, level_id, record):
        if level_id in ctx.state["scratch_inputs"]:
            ctx.state["scratch_inputs"][level_id].append(record)

    def on_compaction_output_record(self, ctx, record):
        ctx.state["scratch_output"].append(record)

    def on_compaction_finish(self, ctx):
        charged = hash_calls(self.auth.env) - ctx.state["calls_before"]
        expected, calls = fresh_digest(ctx.state["scratch_output"])
        input_entries = set()
        for records in ctx.state["scratch_inputs"].values():
            tree, input_calls = fresh_digest(records)
            calls += input_calls
            input_entries.update(tuple(g.entries) for g in tree.groups)
        reused = [g for g in expected.groups if tuple(g.entries) in input_entries]
        self.reused_groups += len(reused)
        assert charged == calls - sum(g.chain_len + 1 for g in reused)

        installed = self.auth.registry.get(ctx.output_level)
        assert installed.root == expected.root
        assert installed.leaf_count == expected.leaf_count
        assert installed.record_count == expected.record_count
        tree = ctx.state["output_tree"]
        assert [g.suffixes for g in tree.groups] == [g.suffixes for g in expected.groups]
        ctx.state["scratch_proofs"] = [
            EmbeddedProof(
                leaf_index=g.leaf_index,
                chain_len=g.chain_len,
                position=position,
                older_digest=g.suffixes[position],
                path=tuple(expected.auth_path(g.leaf_index)),
            ).serialize()
            for g in expected.groups
            for position in range(g.chain_len)
        ]
        self.checked += 1

    def on_table_file_created(self, ctx, entries):
        proofs = ctx.state["scratch_proofs"]
        assert [aux for _, aux in entries] == proofs[: len(entries)]
        del proofs[: len(entries)]
        return entries


_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 40), st.integers(0, 60)),
        st.tuples(st.just("delete"), st.integers(0, 40), st.just(0)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("compact"), st.integers(1, 3), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=30, deadline=None)
@given(_store_ops, st.booleans())
def test_installed_digests_match_fresh_digest(ops, keep_versions):
    store = make_p2_store(keep_versions=keep_versions, write_buffer_bytes=1024)
    check = FromScratchCheck(store.listener)
    store.db.listeners.append(check)
    for op, arg, size in ops:
        if op == "put":
            store.put(b"key%03d" % arg, b"v" * size)
        elif op == "delete":
            store.delete(b"key%03d" % arg)
        elif op == "flush":
            store.flush()
        else:
            store.compact_level(arg)
    store.flush()
    assert check.checked == store.db.stats.flushes + store.db.stats.compactions
