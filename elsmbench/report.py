"""Per-layer metrics of a traced run.

Every figure is normalised per mix operation (``_per_op``), per query
(GET or SCAN, ``_per_query``), per write (``_per_write``) or per thousand
writes (``_per_kwrite``), so runs of different lengths compare.
"""

from __future__ import annotations

from harness import percentile
from layers import LAYERS, UNWRAPPED

#: SimClock categories reported as ``sim.clock.<category>_us_per_op``:
#: the ones every workload charges.  ``ecall`` is left out (one ECall per
#: operation makes it a constant 8 us/op; ``sgx.env.ecalls_per_op``
#: shows it), and the read-path IO categories, which only a store
#: missing its page cache charges much, are summed into ``read_io``.
CLOCK_CATEGORIES = (
    "compute",
    "disk_write",
    "dram_copy",
    "dram_touch",
    "ecall_copy",
    "enclave_touch",
    "epc_page_fault",
    "fsync",
    "hash",
    "kernel_write",
    "ocall",
    "ocall_copy",
)
READ_IO_CATEGORIES = ("kernel_read", "disk_read", "disk_seek")
#: Layers whose simulated self time is reported (the layers that charge
#: the clock on every workload).
SIM_SELF_LAYERS = ("lsm.db", "sgx.env", "sim.disk")


def layer_metrics(tracer, mix, plain, before, after, breakdown_before, breakdown_after, hits):
    ops = mix.ops
    queries = max(1, mix.queries)
    writes = max(1, mix.writes)
    kwrites = writes / 1000
    user_bytes = max(1, mix.user_bytes)
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    total_ns = tracer.total_ns
    sim_self = tracer.sim_self_us()
    for layer in LAYERS:
        lid = tracer.layer_id[layer]
        m[f"{layer}.host_self_us_per_op"] = (tracer.host_ns[lid] / 1000 / ops, "us/op")
    for layer in SIM_SELF_LAYERS:
        m[f"{layer}.sim_self_us_per_op"] = (float(sim_self[layer]) / ops, "us/op")

    block_reads = tracer.calls_of("repro.lsm.sstable.BlockFetcher.read_block")
    m["core.prover.proof_bytes_per_query"] = (
        (after["proof_bytes_total"] - before["proof_bytes_total"]) / queries,
        "B/query",
    )
    m["core.verifier.hash_calls_per_query"] = (
        tracer.hash_under["core.verifier"] / queries,
        "1/query",
    )
    m["lsm.sstable.block_reads_per_query"] = (block_reads / queries, "1/query")
    m["lsm.sstable.rows_per_block_read"] = (mix.rows / max(1, block_reads), "1/read")
    m["lsm.memtable.get_hit_pct"] = (
        100.0 * counts["memtable_hits"] / max(1, counts["memtable_gets"]),
        "%",
    )
    m["lsm.db.flushes_per_kwrite"] = (
        tracer.calls_of("repro.lsm.db.LSMStore.flush") / kwrites,
        "1/kwrite",
    )
    m["lsm.db.compactions_per_kwrite"] = (
        tracer.calls_of("repro.lsm.db.LSMStore.compact_level") / kwrites,
        "1/kwrite",
    )
    m["lsm.db.stall_host_ms_per_kwrite"] = (
        tracer.inclusive_ns["repro.lsm.db.LSMStore.flush"] / 1e6 / kwrites,
        "ms/kwrite",
    )
    m["lsm.compaction.bytes_rewritten_per_user_byte"] = (
        counts["compaction_append_bytes"] / user_bytes,
        "B/B",
    )
    for layer in ("core.auth_compaction", "mht", "cryptoprim.hashing"):
        m[f"{layer}.hash_calls_per_op"] = (tracer.hash_under[layer] / ops, "1/op")
    m["lsm.wal.fsyncs_per_write"] = (counts["wal_fsyncs"] / writes, "1/write")
    m["lsm.wal.bytes_per_write"] = (counts["wal_append_bytes"] / writes, "B/write")
    m["sgx.env.ecalls_per_op"] = (
        tracer.calls_of("repro.sgx.boundary.WorldBoundary.ecall") / ops,
        "1/op",
    )
    m["sgx.env.ocalls_per_op"] = (
        tracer.calls_of("repro.sgx.boundary.WorldBoundary.ocall") / ops,
        "1/op",
    )
    m["sgx.env.copy_in_bytes_per_query"] = (counts["copy_in_bytes"] / queries, "B/query")
    m["sgx.env.epc_faults_per_op"] = (counts["epc_faults"] / ops, "1/op")
    m["sim.disk.page_cache_hit_pct"] = (100.0 * hits[0] / max(1, hits[0] + hits[1]), "%")
    m["sim.disk.reads_per_op"] = (
        (
            tracer.calls_of("repro.sim.disk.SimDisk.read")
            + tracer.calls_of("repro.sim.disk.SimDisk.read_mmap")
        )
        / ops,
        "1/op",
    )
    m["sim.disk.bytes_written_per_user_byte"] = (
        counts["disk_append_bytes"] / user_bytes,
        "B/B",
    )
    telemetry = tracer.layer_id["telemetry"]
    m["telemetry.calls_per_op"] = (tracer.layer_calls("telemetry") / ops, "1/op")
    m["telemetry.host_share_pct"] = (100.0 * tracer.host_ns[telemetry] / total_ns, "%")
    def clock_delta(category: str) -> float:
        return breakdown_after.get(category, 0.0) - breakdown_before.get(category, 0.0)

    for category in CLOCK_CATEGORIES:
        m[f"sim.clock.{category}_us_per_op"] = (clock_delta(category) / ops, "us/op")
    m["sim.clock.read_io_us_per_op"] = (
        sum(clock_delta(c) for c in READ_IO_CATEGORIES) / ops,
        "us/op",
    )
    m["trace.unwrapped_host_us_per_op"] = (
        tracer.host_ns[tracer.layer_id[UNWRAPPED]] / 1000 / ops,
        "us/op",
    )
    # The store API layer's inclusive host figures, from the untraced run.
    m["core.store_p2.host_kops"] = (len(plain.host_ns) / sum(plain.host_ns) * 1e6, "kops/s")
    m["core.store_p2.host_p50_us"] = (percentile(plain.host_ns, 50) / 1000, "us")
    m["core.store_p2.host_p99_us"] = (percentile(plain.host_ns, 99) / 1000, "us")
    m["trace.overhead_pct"] = (100.0 * (sum(mix.host_ns) / sum(plain.host_ns) - 1.0), "%")

    lines = [
        f"traced {ops} mix ops ({queries} queries, {mix.writes} writes); "
        f"host {sum(mix.host_ns) / 1e6:.1f} ms traced vs {sum(plain.host_ns) / 1e6:.1f} ms untraced",
        "layer                  host self %   host us/op   sim us/op",
    ]
    sim_total = sum(sim_self.values())
    for name in tracer.layers:
        lid = tracer.layer_id[name]
        lines.append(
            f"{name:22s} {100.0 * tracer.host_ns[lid] / total_ns:10.1f}  "
            f"{tracer.host_ns[lid] / 1000 / ops:11.2f}  {float(sim_self[name]) / ops:10.3f}"
        )
    lines.append(
        f"{'total':22s} {100.0:10.1f}  {total_ns / 1000 / ops:11.2f}  "
        f"{float(sim_total) / ops:10.3f}"
    )
    lines.append(
        "simulated us/op by clock category: "
        + ", ".join(
            f"{c} {clock_delta(c) / ops:.4f}" for c in sorted(breakdown_after) if clock_delta(c)
        )
    )
    return m, lines
