"""Authenticated COMPACTION as an event-listener add-on.

This is the paper's Figure 4 realized over the engine's callback surface
(the RocksDB-style integration of Section 5.5.3).  For every flush or
compaction the listener:

a) rebuilds a Merkle tree per *untrusted* input level from the records
   the merge actually consumed and checks each root against the enclave's
   trusted copy (input authentication);
b) streams the merge output through a digester to produce the new level
   tree (output digesting);
c) embeds each output record's proof — leaf index, chain position, older
   suffix digest, authentication path — into the record's ``aux``
   annotation as the output files are created (proof embedding).

It also maintains the WAL digest (hook ``on_wal_append``) and tracks
level lifecycle so the digest registry always mirrors the manifest.
"""

from __future__ import annotations

from repro.core.digest import DigestRegistry, LevelDigest
from repro.core.errors import IntegrityViolation
from repro.core.proofs import EmbeddedProof
from repro.cryptoprim.hashing import constant_time_eq, tagged_hash
from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.records import Record, encode_record
from repro.lsm.sstable import Entry
from repro.mht.incremental import LevelTree, StreamingLevelDigester
from repro.sgx.env import ExecutionEnv

#: Initial WAL digest (an empty log).
WAL_DIGEST_INIT = tagged_hash(b"elsm/wal-init")


def advance_wal_digest(digest: bytes, record: Record) -> bytes:
    """dig' = H(dig || <k, v, ts>) — the paper's iterative WAL digest."""
    return tagged_hash(b"elsm/wal", digest, encode_record(record))


class AuthCompactionListener(EventListener):
    """Hooks authenticated COMPACTION into a vanilla LSM store."""

    def __init__(
        self,
        registry: DigestRegistry,
        env: ExecutionEnv,
        embed_proofs: bool = True,
    ) -> None:
        self.registry = registry
        self.env = env
        #: When False (the on-demand ablation), records are stored bare
        #: and the prover must rebuild level trees per query.
        self.embed_proofs = embed_proofs
        self.wal_digest = WAL_DIGEST_INIT
        #: LevelTree per level, kept so the prover-side tests can inspect
        #: the authoritative trees (the prover itself reads only files).
        self.level_trees: dict[int, LevelTree] = {}

    # ------------------------------------------------------------------
    # WAL digesting (write path, step w1)
    # ------------------------------------------------------------------
    def on_wal_append(self, record: Record) -> None:
        """Advance the in-enclave WAL digest (write path, step w1)."""
        self.env.trusted_hash(record.approximate_bytes() + 32)
        self.wal_digest = advance_wal_digest(self.wal_digest, record)

    def on_wal_reset(self) -> None:
        # Flushed records are now covered by the level digests; the WAL
        # digest restarts with the (empty) log.
        """Restart the WAL digest after a flush truncates the log."""
        self.wal_digest = WAL_DIGEST_INIT

    # ------------------------------------------------------------------
    # Authenticated COMPACTION (steps m1-m3)
    # ------------------------------------------------------------------
    def on_compaction_begin(self, ctx: CompactionContext) -> None:
        """Create one digester per untrusted input level plus the output digester."""
        charge = self.env.trusted_hash
        ctx.state["input_digesters"] = {
            level: StreamingLevelDigester(on_hash=charge)
            for level in ctx.input_levels
            if level not in ctx.trusted_levels
        }
        ctx.state["output_digester"] = StreamingLevelDigester(on_hash=charge)

    def on_compaction_input_record(
        self, ctx: CompactionContext, level_id: int, record: Record
    ) -> None:
        """Feed a consumed input record to its level's digester."""
        digester = ctx.state["input_digesters"].get(level_id)
        if digester is not None:
            digester.add(record.key, record.ts, encode_record(record))

    def on_compaction_output_record(
        self, ctx: CompactionContext, record: Record
    ) -> None:
        """The paper's Filter(): digest one surviving output record."""
        ctx.state["output_digester"].add(
            record.key, record.ts, encode_record(record)
        )

    def on_compaction_finish(self, ctx: CompactionContext) -> None:
        """Verify every input root, then install the output digest.

        The output digester reuses the leaf hash and suffix digests of
        any output chain that passed through byte-identical from an
        untrusted input level: the enclave hashed exactly those bytes
        while authenticating the input, and the output digest is only
        installed once every input root has matched.
        """
        # a) authenticate every untrusted input level.
        input_trees = []
        for level, digester in ctx.state["input_digesters"].items():
            tree = digester.finalize()
            trusted = self.registry.get(level)
            if (
                not constant_time_eq(tree.root, trusted.root)
                or tree.leaf_count != trusted.leaf_count
            ):
                raise IntegrityViolation(
                    f"compaction input at level {level} failed authentication"
                )
            input_trees.append(tree)
        # b) the output digest takes effect; consumed inputs become empty.
        output_tree = ctx.state["output_digester"].finalize(reuse=input_trees)
        for level in ctx.input_levels:
            if level != 0:
                self.registry.clear(level)
                self.level_trees.pop(level, None)
        groups = output_tree.groups
        self.registry.set(
            ctx.output_level,
            LevelDigest(
                root=output_tree.root,
                leaf_count=output_tree.leaf_count,
                record_count=output_tree.record_count,
                min_key=groups[0].key if groups else None,
                max_key=groups[-1].key if groups else None,
            ),
        )
        self.level_trees[ctx.output_level] = output_tree
        ctx.state["embed_cursor"] = [0, 0]  # (group index, chain position)
        ctx.state["output_tree"] = output_tree

    # ------------------------------------------------------------------
    # Proof embedding (step c, event OnTableFileCreated)
    # ------------------------------------------------------------------
    def on_table_file_created(
        self, ctx: CompactionContext, entries: list[Entry]
    ) -> list[Entry]:
        """Embed each output record's proof into its aux annotation."""
        if not self.embed_proofs:
            return entries
        tree: LevelTree = ctx.state["output_tree"]
        cursor = ctx.state["embed_cursor"]
        annotated: list[Entry] = []
        for record, _aux in entries:
            group_index, position = cursor
            group = tree.groups[group_index]
            expected_ts, _ = group.entries[position]
            if group.key != record.key or expected_ts != record.ts:
                raise IntegrityViolation(
                    "output file records diverge from the output Merkle tree"
                )
            proof = EmbeddedProof(
                leaf_index=group.leaf_index,
                chain_len=group.chain_len,
                position=position,
                older_digest=group.suffixes[position],
                path=tuple(tree.auth_path(group.leaf_index)),
            )
            annotated.append((record, proof.serialize()))
            if position + 1 < group.chain_len:
                cursor[1] = position + 1
            else:
                cursor[0] = group_index + 1
                cursor[1] = 0
        return annotated

    # ------------------------------------------------------------------
    # Level lifecycle (no-compaction stacking mode)
    # ------------------------------------------------------------------
    def on_level_inserted(self, level: int) -> None:
        """Shift the registry when stacking mode inserts a new level 1."""
        self.registry.shift_deeper(level)
        self.level_trees = {
            (lvl + 1 if lvl >= level else lvl): tree
            for lvl, tree in self.level_trees.items()
        }
