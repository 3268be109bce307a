"""eLSM-P1: the strawman design (Section 4).

Placement (Table 1): code *and* data inside the enclave, file-granularity
protection.  The whole LSM store — including its read buffer — lives in
enclave memory; SSTable files outside are protected by SDK-style
per-block encryption + MAC, so no Merkle forest and no query proofs are
needed.  The price is the one the paper measures: an extra copy into the
enclave on every buffer fill, and enclave paging once the buffer outgrows
the EPC.
"""

from __future__ import annotations

import threading

from repro.lsm.cache import LOCATION_ENCLAVE
from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.records import decode_group_ops
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.disk import SimDisk
from repro.sim.scale import MB, ScaleConfig
from repro.telemetry import Telemetry


class ELSMP1Store:
    """The strawman: everything in the enclave, SDK file protection."""

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        read_buffer_bytes: int | None = None,
        write_buffer_bytes: int | None = None,
        level1_max_bytes: int | None = None,
        level_size_ratio: int = 10,
        file_max_bytes: int | None = None,
        block_bytes: int = 4096,
        bloom_bits_per_key: int = 10,
        compaction: bool = True,
        keep_versions: bool = True,
        compression: bool = False,
        wal_sync_every: int | None = None,
        max_immutable_memtables: int = 0,
        reopen: bool = False,
        name_prefix: str = "p1",
    ) -> None:
        self.scale = scale or ScaleConfig()
        self.costs = costs
        self.clock = clock = clock or SimClock()
        self.disk = disk or SimDisk(
            self.clock, costs, cache_bytes=self.scale.ram_bytes
        )
        self.enclave = Enclave(
            self.clock, costs, self.scale.epc_bytes, name="elsm-p1"
        )
        self.env = ExecutionEnv(
            clock, costs, self.disk, Telemetry(clock=lambda: clock.now_us), enclave=self.enclave
        )
        self.telemetry = self.env.telemetry

        lsm_config = LSMConfig(
            write_buffer_bytes=write_buffer_bytes
            or max(self.scale.scale_bytes(4 * MB), 8 * 1024),
            block_bytes=block_bytes,
            bloom_bits_per_key=bloom_bits_per_key,
            level1_max_bytes=level1_max_bytes
            or max(self.scale.scale_bytes(10 * MB), 32 * 1024),
            level_size_ratio=level_size_ratio,
            file_max_bytes=file_max_bytes
            or max(self.scale.scale_bytes(2 * MB), 16 * 1024),
            read_mode="buffer",  # the paper: P1 cannot use mmap
            read_buffer_bytes=read_buffer_bytes
            or self.scale.scale_bytes(64 * MB),
            buffer_location=LOCATION_ENCLAVE,
            protect_files=True,
            compression=compression,
            compaction_enabled=compaction,
            keep_versions=keep_versions,
            wal_sync_every=wal_sync_every,
            max_immutable_memtables=max_immutable_memtables,
        )
        self.db = LSMStore(
            self.env, lsm_config, name_prefix=name_prefix, reopen=reopen
        )
        self._ts = 0
        # The in-enclave mutex guarding concurrent operations (5.5.2).
        self._op_lock = threading.RLock()

    # ------------------------------------------------------------------
    def _next_ts(self) -> int:
        self._ts += 1
        return self._ts

    @property
    def current_ts(self) -> int:
        return self._ts

    def put(self, key: bytes, value: bytes) -> int:
        """PUT inside the enclave; protection is the hardware's job."""
        with self._op_lock, self.telemetry.span("elsm.put"), self.env.op_call(
            "put", in_bytes=len(key) + len(value)
        ):
            ts = self._next_ts()
            self.db.put(key, value, ts)
            return ts

    def delete(self, key: bytes) -> int:
        """Tombstone write inside the enclave."""
        with self._op_lock, self.env.op_call("delete", in_bytes=len(key)):
            ts = self._next_ts()
            self.db.delete(key, ts)
            return ts

    def group_commit(self, ops) -> list[int]:
        """Group commit: one ECall, one WAL write, one fsync for the
        whole group of ``("put", key, value)`` / ``("delete", key)``
        ops (same contract as eLSM-P2's)."""
        encoded, total_bytes = decode_group_ops(ops)
        with self._op_lock, self.telemetry.span(
            "elsm.group_commit"
        ), self.env.op_call("group_commit", in_bytes=total_bytes):
            stamps = [self._next_ts() for _ in encoded]
            return self.db.commit_group(encoded, stamps=stamps)

    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """GET: hardware memory protection stands in for proofs."""
        with self._op_lock, self.telemetry.span("elsm.get"), self.env.op_call(
            "get", in_bytes=len(key)
        ):
            return self.db.get(key, ts_query)

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """Range read (no completeness proof needed under hardware trust)."""
        with self._op_lock, self.telemetry.span("elsm.scan"), self.env.op_call(
            "scan", in_bytes=len(lo) + len(hi)
        ):
            return [(r.key, r.value) for r in self.db.scan(lo, hi, ts_query)]

    def flush(self) -> None:
        """Flush the in-enclave MemTable into level 1."""
        self.db.flush()

    def report(self) -> dict:
        """An operational snapshot sourced from the telemetry registry.

        P1 has no proof machinery, so the proof-path keys of
        :meth:`repro.core.store_p2.ELSMP2Store.report` are absent; the
        placement-cost keys (boundary, paging, cache) are shared.
        """
        pager = self.enclave.pager
        metrics = self.telemetry.metrics
        return {
            "timestamp": self._ts,
            "health": self.db.health(),
            "wal_sync_every": self.db.config.wal_sync_every,
            "levels": {
                level: {
                    "files": len(self.db.level_run(level).tables),
                    "bytes": self.db.level_run(level).total_bytes,
                }
                for level in self.db.level_indices()
            },
            "memtable_records": self.db.mem_records(),
            "immutable_memtables": len(self.db.immutables),
            "enclave_bytes": self.enclave.total_bytes(),
            "epc_bytes": self.enclave.epc_bytes,
            "epc_faults": pager.fault_count,
            "dirty_evictions": pager.evicted_dirty_count,
            "ecalls": int(metrics.counter("enclave.ecalls", labels=("call",)).total()),
            "ocalls": int(metrics.counter("enclave.ocalls", labels=("call",)).total()),
            "flushes": self.db.stats.flushes,
            "compactions": self.db.stats.compactions,
            "write_amplification": self.db.write_amplification(),
            "wal_appends": int(metrics.counter("wal.appends").total()),
            # Store-side block caches plus the device's page cache.
            "cache_hits": self.disk.cache_hit_blocks
            + int(metrics.counter("cache.hits", labels=("region",)).total()),
            "cache_misses": self.disk.cache_miss_blocks
            + int(metrics.counter("cache.misses", labels=("region",)).total()),
            "disk_bytes": self.disk.total_bytes(),
            "simulated_us": self.clock.now_us,
            "cost_breakdown_us": self.clock.breakdown(),
            "spans_dropped": self.telemetry.tracer.dropped,
            "events_dropped": self.telemetry.events.dropped,
        }

    def recover(self) -> int:
        """Replay the WAL after a reopen and restore the timestamp clock.

        Unlike eLSM-P2 there is no sealed trusted state to check against:
        P1's restart trust model is exactly what the disk says (see
        tests/core/test_p1_persistence.py for the consequences).
        """
        replayed = self.db.recover()
        self._ts = max(self._ts, self.db.last_ts)
        return replayed
