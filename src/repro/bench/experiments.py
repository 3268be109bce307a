"""One function per paper figure/table (the reproduction suite).

Every experiment builds the systems being compared, drives the same
workload the paper describes, and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows mirror the
figure's series.  Latencies are *simulated* microseconds; sizes are
paper sizes scaled by ``REPRO_BENCH_FACTOR`` (default 1/1024 — the
128 MB EPC becomes 128 KB).  ``REPRO_BENCH_OPS`` tunes the measured
operations per point.

The paper-vs-measured comparison for each experiment lives in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os

from repro.baselines.eleos import EleosCapacityError, EleosStore
from repro.baselines.merkle_btree import MerkleBTreeStore
from repro.baselines.unsecured import UnsecuredLSMStore
from repro.bench.harness import ExperimentResult
from repro.core.store_p1 import ELSMP1Store
from repro.core.store_p2 import ELSMP2Store
from repro.sim.disk import SimDisk
from repro.sim.scale import GB, MB, ScaleConfig
from repro.ycsb.runner import RunResult, load_phase, run_phase
from repro.ycsb.workload import (
    DIST_LATEST,
    DIST_UNIFORM,
    DIST_ZIPFIAN,
    WORKLOAD_A,
    CoreWorkload,
    WorkloadSpec,
    mixed_workload,
    read_only_workload,
    scaled_spec,
    write_only_workload,
)

BENCH_FACTOR = float(os.environ.get("REPRO_BENCH_FACTOR", str(1.0 / 1024.0)))
RUN_OPS = int(os.environ.get("REPRO_BENCH_OPS", "1000"))


def bench_scale(factor: float | None = None) -> ScaleConfig:
    """The ScaleConfig benchmarks run at (REPRO_BENCH_FACTOR)."""
    return ScaleConfig(factor=factor if factor is not None else BENCH_FACTOR)


# ----------------------------------------------------------------------
# Shared measuring helpers
# ----------------------------------------------------------------------
def _measure(store, spec: WorkloadSpec, n_records: int, ops: int) -> RunResult:
    workload = CoreWorkload(spec, n_records, seed=1234)
    # Unmeasured warm-up absorbs cold caches and spreads compaction debt
    # (the paper runs each experiment three times and averages).
    run_phase(store, workload, max(1, ops // 4))
    return run_phase(store, workload, ops)


def _mean(store, spec: WorkloadSpec, n_records: int, ops: int) -> float:
    return _measure(store, spec, n_records, ops).mean_latency_us


# ----------------------------------------------------------------------
# Figure 2 — read buffer inside vs outside the enclave
# ----------------------------------------------------------------------
def fig2_buffer_placement(ops: int = RUN_OPS) -> ExperimentResult:
    """5 GB dataset (scaled), uniform read-only, buffer size sweep.

    Paper: outside-enclave flat; inside-enclave ~2x at small buffers
    (extra copy), growing to ~4.5x beyond the 128 MB EPC (paging).
    """
    scale = bench_scale(BENCH_FACTOR / 2)  # the paper's largest dataset
    data_bytes = 5 * GB
    n = scale.records_for(data_bytes)
    # "5 GB dataset (larger than untrusted memory)": cap the kernel cache
    # below the dataset so buffer misses really hit the device.
    buffer_paper_sizes = [4 * MB, 16 * MB, 64 * MB, 128 * MB, 400 * MB, 1000 * MB, 2000 * MB]

    from repro.sim.clock import SimClock
    from repro.sim.costs import DEFAULT_COSTS

    def constrained_disk(clock):
        return SimDisk(clock, DEFAULT_COSTS, cache_bytes=scale.scale_bytes(2 * GB))

    out_clock = SimClock()
    outside = UnsecuredLSMStore(
        scale=scale,
        clock=out_clock,
        disk=constrained_disk(out_clock),
        in_enclave=True,
        read_mode="buffer",
        name_prefix="fig2out",
    )
    in_clock = SimClock()
    inside = ELSMP1Store(
        scale=scale,
        clock=in_clock,
        disk=constrained_disk(in_clock),
        name_prefix="fig2in",
    )

    spec = read_only_workload(DIST_UNIFORM)
    workload = CoreWorkload(spec, n, seed=99)
    load_phase(outside, workload)
    load_phase(inside, workload)

    result = ExperimentResult(
        exp_id="fig2",
        title="Read latency vs read-buffer size: buffer inside vs outside enclave",
        columns=["buffer (paper)", "outside us/op", "inside (eLSM-P1) us/op", "in/out ratio"],
        notes=[
            f"dataset {scale.label(data_bytes)}, {n} records, uniform reads",
            "paper shape: flat outside; 2x inside at small buffers, ~4.5x past the EPC",
        ],
    )
    for paper_bytes in buffer_paper_sizes:
        scaled = scale.scale_bytes(paper_bytes)
        outside.db.resize_read_buffer(scaled)
        inside.db.resize_read_buffer(scaled)
        out_lat = _mean(outside, spec, n, ops)
        in_lat = _mean(inside, spec, n, ops)
        result.add_row(
            scale.label(paper_bytes),
            out_lat,
            in_lat,
            in_lat / out_lat if out_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 5a — latency vs read/write ratio
# ----------------------------------------------------------------------
def fig5a_read_write_ratio(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 5a: latency vs read percentage, three systems."""
    scale = bench_scale()
    data_bytes = 3 * GB
    n = scale.records_for(data_bytes)
    read_pcts = [0, 20, 40, 50, 60, 70, 80, 90, 100]

    p2 = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f5a-p2")
    p1 = ELSMP1Store(
        scale=scale,
        read_buffer_bytes=scale.scale_bytes(2 * GB),
        name_prefix="f5a-p1",
    )
    plain = UnsecuredLSMStore(scale=scale, in_enclave=False, name_prefix="f5a-plain")

    loader = CoreWorkload(read_only_workload(DIST_UNIFORM), n, seed=7)
    for store in (p2, p1, plain):
        load_phase(store, loader)

    result = ExperimentResult(
        exp_id="fig5a",
        title="Operation latency vs read percentage (uniform keys)",
        columns=["read %", "eLSM-P2-mmap", "eLSM-P1", "LevelDB (unsecure)", "P1/P2", "P2/plain"],
        notes=[
            f"dataset {scale.label(data_bytes)}, {n} records, {ops} ops/point",
            "paper shape: P2 wins except write-only; max P1/P2 gap ~4.5x at 70% reads;"
            " unsecured 1.5-4x faster than P2",
        ],
    )
    for pct in read_pcts:
        spec = mixed_workload(pct, DIST_UNIFORM)
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        plain_lat = _mean(plain, spec, n, ops)
        result.add_row(
            pct,
            p2_lat,
            p1_lat,
            plain_lat,
            p1_lat / p2_lat if p2_lat else None,
            p2_lat / plain_lat if plain_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 5b — latency vs data size under YCSB workload A
# ----------------------------------------------------------------------
def fig5b_data_size(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 5b: workload-A latency vs data size; Eleos caps at 1 GB."""
    scale = bench_scale()
    sizes = [int(0.6 * GB), 1 * GB, 2 * GB, 3 * GB]

    p2 = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f5b-p2")
    p1 = ELSMP1Store(
        scale=scale,
        read_buffer_bytes=scale.scale_bytes(2 * GB),
        name_prefix="f5b-p1",
    )
    eleos = EleosStore(scale=scale)

    result = ExperimentResult(
        exp_id="fig5b",
        title="YCSB workload A latency vs data size",
        columns=["data (paper)", "eLSM-P2-mmap", "eLSM-P1", "Eleos", "P1/P2"],
        notes=[
            "50% reads / 50% updates, zipfian keys",
            "paper shape: Eleos scales only to 1 GB; P2/P1 gap grows with data size",
        ],
    )
    loaded = 0
    spec = scaled_spec(WORKLOAD_A, request_dist=DIST_ZIPFIAN)
    for size in sizes:
        n = scale.records_for(size)
        loader = CoreWorkload(read_only_workload(), n, seed=7)
        load_phase(p2, loader, start=loaded)
        load_phase(p1, loader, start=loaded)
        eleos_lat = None
        try:
            for index in range(loaded, n):
                eleos.put(loader.key(index), loader.value(index))
            eleos_lat = _mean(eleos, spec, n, ops)
        except EleosCapacityError:
            eleos_lat = None
        loaded = n
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        result.add_row(
            scale.label(size),
            p2_lat,
            p1_lat,
            eleos_lat,
            p1_lat / p2_lat if p2_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 5c — latency vs key distribution
# ----------------------------------------------------------------------
def fig5c_distributions(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 5c: latency under Uniform/Zipfian/Latest keys."""
    scale = bench_scale()
    data_bytes = 3 * GB
    n = scale.records_for(data_bytes)

    p2 = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f5c-p2")
    p1 = ELSMP1Store(
        scale=scale,
        read_buffer_bytes=scale.scale_bytes(2 * GB),
        name_prefix="f5c-p1",
    )
    loader = CoreWorkload(read_only_workload(), n, seed=7)
    load_phase(p2, loader)
    load_phase(p1, loader)

    result = ExperimentResult(
        exp_id="fig5c",
        title="Operation latency vs key distribution (workload A mix)",
        columns=["distribution", "eLSM-P2-mmap", "eLSM-P1", "P1/P2"],
        notes=[
            f"dataset {scale.label(data_bytes)}, 50/50 read-update",
            "paper shape: P2 less sensitive to distribution; P1 worst under Uniform",
        ],
    )
    for dist in (DIST_UNIFORM, DIST_ZIPFIAN, DIST_LATEST):
        spec = scaled_spec(WORKLOAD_A, request_dist=dist)
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        result.add_row(dist, p2_lat, p1_lat, p1_lat / p2_lat if p2_lat else None)
    return result


# ----------------------------------------------------------------------
# Figure 6a — read latency vs data size, four systems
# ----------------------------------------------------------------------
def fig6a_read_scaling(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 6a: read latency vs data size across placements."""
    scale = bench_scale()
    sizes = [8 * MB, 64 * MB, 128 * MB, 512 * MB, int(1.5 * GB), 3 * GB]

    p2 = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f6a-p2")
    p1 = ELSMP1Store(
        scale=scale,
        read_buffer_bytes=scale.scale_bytes(4 * GB),  # buffer covers the data
        name_prefix="f6a-p1",
    )
    eleos = EleosStore(scale=scale)
    plain = UnsecuredLSMStore(
        scale=scale, in_enclave=True, read_mode="mmap", name_prefix="f6a-plain"
    )

    spec = read_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="fig6a",
        title="Read latency vs data size (memory placement)",
        columns=[
            "data (paper)", "eLSM-P2-mmap", "eLSM-P1", "Eleos",
            "buffer-outside (unsecured)", "P1/P2",
        ],
        notes=[
            "read-only, uniform keys",
            "paper shape: P1/Eleos win below the 128 MB EPC, P2 wins above and stays flat;"
            " Eleos stops at 1 GB",
        ],
    )
    loaded = 0
    for size in sizes:
        n = scale.records_for(size)
        loader = CoreWorkload(spec, n, seed=7)
        for store in (p2, p1, plain):
            load_phase(store, loader, start=loaded)
        eleos_ok = True
        try:
            for index in range(loaded, n):
                eleos.put(loader.key(index), loader.value(index))
        except EleosCapacityError:
            eleos_ok = False
        loaded = n
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        eleos_lat = _mean(eleos, spec, n, ops) if eleos_ok else None
        plain_lat = _mean(plain, spec, n, ops)
        result.add_row(
            scale.label(size), p2_lat, p1_lat, eleos_lat, plain_lat,
            p1_lat / p2_lat if p2_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 6b — mmap vs user-space buffer reads in eLSM-P2
# ----------------------------------------------------------------------
def fig6b_mmap_vs_buffer(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 6b: eLSM-P2 mmap vs user-space buffer reads."""
    scale = bench_scale()
    sizes = [8 * MB, 128 * MB, 512 * MB, int(1.5 * GB), 3 * GB]

    mmap_store = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f6b-mm")
    buffer_store = ELSMP2Store(
        scale=scale,
        read_mode="buffer",
        read_buffer_bytes=scale.scale_bytes(64 * MB),
        name_prefix="f6b-buf",
    )

    spec = read_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="fig6b",
        title="eLSM-P2 read path: mmap vs user-space buffer",
        columns=["data (paper)", "P2-mmap", "P2-buffer", "buffer/mmap"],
        notes=["paper shape: mmap advantage grows with data, ~5x at the largest scale"],
    )
    loaded = 0
    for size in sizes:
        n = scale.records_for(size)
        loader = CoreWorkload(spec, n, seed=7)
        load_phase(mmap_store, loader, start=loaded)
        load_phase(buffer_store, loader, start=loaded)
        loaded = n
        mmap_lat = _mean(mmap_store, spec, n, ops)
        buf_lat = _mean(buffer_store, spec, n, ops)
        result.add_row(
            scale.label(size), mmap_lat, buf_lat,
            buf_lat / mmap_lat if mmap_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 6c — read latency vs buffer size at fixed data size
# ----------------------------------------------------------------------
def fig6c_buffer_size(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 6c: read latency vs buffer size at fixed 2 GB data."""
    scale = bench_scale()
    data_bytes = 2 * GB
    n = scale.records_for(data_bytes)
    buffer_sizes = [32 * MB, 64 * MB, 128 * MB, 256 * MB, 512 * MB, 1 * GB, 2 * GB]

    p2 = ELSMP2Store(scale=scale, read_mode="buffer", name_prefix="f6c-p2")
    p1 = ELSMP1Store(scale=scale, name_prefix="f6c-p1")
    spec = read_only_workload(DIST_UNIFORM)
    loader = CoreWorkload(spec, n, seed=7)
    load_phase(p2, loader)
    load_phase(p1, loader)

    result = ExperimentResult(
        exp_id="fig6c",
        title="Read latency vs buffer size at 2 GB data (buffer configs)",
        columns=["buffer (paper)", "eLSM-P2-buffer", "eLSM-P1", "P1/P2"],
        notes=[
            f"dataset {scale.label(data_bytes)}",
            "paper shape: P2 flat; P1 rises sharply past the 128 MB EPC; P2 1.6-2.3x faster",
        ],
    )
    for size in buffer_sizes:
        scaled = scale.scale_bytes(size)
        p2.db.resize_read_buffer(scaled)
        p1.db.resize_read_buffer(scaled)
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        result.add_row(
            scale.label(size), p2_lat, p1_lat, p1_lat / p2_lat if p2_lat else None
        )
    return result


# ----------------------------------------------------------------------
# Figure 7a — write latency vs data size, with compaction
# ----------------------------------------------------------------------
def fig7a_write_compaction(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 7a: write latency vs data size with compaction."""
    scale = bench_scale()
    sizes = [int(0.2 * GB), 1 * GB, 2 * GB, 3 * GB]

    p2 = ELSMP2Store(scale=scale, read_mode="mmap", name_prefix="f7a-p2")
    p1 = ELSMP1Store(scale=scale, name_prefix="f7a-p1")
    eleos = EleosStore(scale=scale)

    spec = write_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="fig7a",
        title="Write latency vs data size (with COMPACTION)",
        columns=["data (paper)", "eLSM-P2-mmap", "eLSM-P1", "Eleos", "P2/P1"],
        notes=[
            "write-only (updates of existing keys), uniform",
            "paper shape: P1 fastest; P2 1.3-2.3x of P1; Eleos slowest, stops at 1 GB",
        ],
    )
    loaded = 0
    for size in sizes:
        n = scale.records_for(size)
        loader = CoreWorkload(spec, n, seed=7)
        load_phase(p2, loader, start=loaded)
        load_phase(p1, loader, start=loaded)
        eleos_ok = True
        try:
            for index in range(loaded, n):
                eleos.put(loader.key(index), loader.value(index))
        except EleosCapacityError:
            eleos_ok = False
        loaded = n
        p2_lat = _mean(p2, spec, n, ops)
        p1_lat = _mean(p1, spec, n, ops)
        eleos_lat = _mean(eleos, spec, n, ops) if eleos_ok else None
        result.add_row(
            scale.label(size), p2_lat, p1_lat, eleos_lat,
            p2_lat / p1_lat if p1_lat else None,
        )
    return result


# ----------------------------------------------------------------------
# Figure 7b — writes with vs without compaction
# ----------------------------------------------------------------------
def fig7b_compaction_onoff(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 7b: write latency with vs without COMPACTION."""
    scale = bench_scale()
    sizes = [int(0.2 * GB), 1 * GB, 2 * GB]

    stores = {
        "P2 w/ comp": ELSMP2Store(scale=scale, name_prefix="f7b-p2c"),
        "P1 w/ comp": ELSMP1Store(scale=scale, name_prefix="f7b-p1c"),
        "P2 w/o comp": ELSMP2Store(
            scale=scale, compaction=False, name_prefix="f7b-p2n"
        ),
        "P1 w/o comp": ELSMP1Store(
            scale=scale, compaction=False, name_prefix="f7b-p1n"
        ),
    }
    spec = write_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="fig7b",
        title="Write latency with vs without COMPACTION",
        columns=["data (paper)"] + list(stores) + ["comp/no-comp (P2)"],
        notes=["paper shape: compaction costs 2-4x on the write path"],
    )
    loaded = 0
    for size in sizes:
        n = scale.records_for(size)
        loader = CoreWorkload(spec, n, seed=7)
        for store in stores.values():
            load_phase(store, loader, start=loaded)
        loaded = n
        lats = {name: _mean(store, spec, n, ops) for name, store in stores.items()}
        ratio = (
            lats["P2 w/ comp"] / lats["P2 w/o comp"]
            if lats["P2 w/o comp"]
            else None
        )
        result.add_row(scale.label(size), *lats.values(), ratio)
    return result


class _OutsideEnclaveWriter:
    """Appendix C comparator: the enclave issues each write to an LSM
    store running entirely in the untrusted world, through an OCall."""

    def __init__(self, inner: UnsecuredLSMStore) -> None:
        from repro.sgx.boundary import WorldBoundary

        self.inner = inner
        self.clock = inner.clock
        self.telemetry = inner.telemetry
        self.boundary = WorldBoundary(inner.clock, inner.costs, inner.telemetry)

    def put(self, key: bytes, value: bytes) -> int:
        with self.boundary.ocall("put", in_bytes=len(key) + len(value)):
            return self.inner.put(key, value)

    def get(self, key: bytes, ts_query: int | None = None):
        with self.boundary.ocall("get", in_bytes=len(key)):
            return self.inner.get(key, ts_query)

    def scan(self, lo: bytes, hi: bytes, ts_query: int | None = None):
        with self.boundary.ocall("scan"):
            return self.inner.scan(lo, hi, ts_query)

    def flush(self) -> None:
        self.inner.flush()

    @property
    def disk(self):
        return self.inner.disk


# ----------------------------------------------------------------------
# Figure 8 (Appendix C) — write buffer placement
# ----------------------------------------------------------------------
def fig8_write_buffer(ops: int = RUN_OPS) -> ExperimentResult:
    """Figure 8: write-buffer placement inside vs outside."""
    scale = bench_scale()
    buffer_sizes = [4 * MB, 16 * MB, 64 * MB, 256 * MB, 512 * MB]

    spec = write_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="fig8",
        title="Write latency vs write-buffer size: inside vs outside enclave",
        columns=["write buffer (paper)", "eLSM-P1 (inside)", "outside (unsecured)", "ratio"],
        notes=[
            "paper shape: small write buffers perform the same inside and outside"
            " the enclave (so eLSM keeps the write buffer inside)",
        ],
    )
    n_seed = 2000
    for size in buffer_sizes:
        scaled = max(scale.scale_bytes(size), 4 * 1024)
        inside = ELSMP1Store(
            scale=scale, write_buffer_bytes=scaled, name_prefix=f"f8-in{size}"
        )
        outside = _OutsideEnclaveWriter(
            UnsecuredLSMStore(
                scale=scale,
                in_enclave=False,
                write_buffer_bytes=scaled,
                name_prefix=f"f8-out{size}",
            )
        )
        loader = CoreWorkload(spec, n_seed, seed=7)
        load_phase(inside, loader)
        load_phase(outside, loader)
        in_lat = _mean(inside, spec, n_seed, ops)
        out_lat = _mean(outside, spec, n_seed, ops)
        result.add_row(
            scale.label(size), in_lat, out_lat, in_lat / out_lat if out_lat else None
        )
    return result


# ----------------------------------------------------------------------
# Update-in-place ADS baseline (Sections 1 & 3.4)
# ----------------------------------------------------------------------
def update_in_place_baseline(ops: int = RUN_OPS) -> ExperimentResult:
    """Sections 1/3.4: eLSM vs the on-disk Merkle B+-tree ADS."""
    from repro.sim.costs import DEFAULT_COSTS

    scale = bench_scale()
    data_bytes = int(0.5 * GB)
    n = scale.records_for(data_bytes)
    loader = CoreWorkload(read_only_workload(), n, seed=7)
    # The paper's Section 3.4 argument assumes digests on a *disk* with
    # random-access cost; we run both an SSD-class and an HDD-class
    # storage model (the paper-era testbed had a 1 TB spinning disk).
    hdd_costs = DEFAULT_COSTS.with_overrides(
        disk_seek_us=4000.0, fsync_us=8000.0
    )

    result = ExperimentResult(
        exp_id="update_in_place",
        title="eLSM vs update-in-place Merkle B+-tree (digests on disk)",
        columns=["op / medium", "eLSM-P2 us/op", "Merkle B+-tree us/op", "MBT/P2"],
        notes=[
            f"dataset {scale.label(data_bytes)}, {n} records; durable digests",
            "paper claim (>=10x on writes) holds on the HDD-class medium"
            " the paper's random-disk-access argument assumes",
        ],
    )
    for medium, costs in (("ssd", DEFAULT_COSTS), ("hdd", hdd_costs)):
        p2 = ELSMP2Store(
            scale=scale, costs=costs, read_mode="mmap",
            name_prefix=f"uip-p2-{medium}",
        )
        mbt = MerkleBTreeStore(scale=scale, costs=costs)
        load_phase(p2, loader)
        for index in range(n):
            mbt.put(loader.key(index), loader.value(index))
        for op_name, spec in (
            ("write", write_only_workload(DIST_UNIFORM)),
            ("read", read_only_workload(DIST_UNIFORM)),
        ):
            p2_lat = _mean(p2, spec, n, ops)
            mbt_lat = _mean(mbt, spec, n, ops)
            result.add_row(
                f"{op_name} / {medium}",
                p2_lat,
                mbt_lat,
                mbt_lat / p2_lat if p2_lat else None,
            )
    return result


# ----------------------------------------------------------------------
# Case study (Section 5.7) — certificate transparency log
# ----------------------------------------------------------------------
def case_study_ct(ops: int = RUN_OPS) -> ExperimentResult:
    """Section 5.7: the CT log server case study metrics."""
    from repro.transparency import (
        CertificateStream,
        CTLogServer,
        DomainMonitor,
        LogAuditor,
    )

    scale = bench_scale()
    log = CTLogServer(ELSMP2Store(scale=scale, name_prefix="ct"))
    stream = CertificateStream(domain_count=2000, seed=11)
    certs = list(stream.stream(6000))
    clock = log.store.clock

    start = clock.now_us
    for cert in certs:
        log.submit(cert)
    ingest_us = (clock.now_us - start) / len(certs)
    log.store.flush()
    log.store.disk.prefetch_all()

    # Auditor point lookups with verified inclusion proofs.
    auditor = LogAuditor(log)
    start = clock.now_us
    proof_bytes = []
    audited = 0
    for cert in certs[:: max(1, len(certs) // ops)]:
        report = auditor.audit(cert)
        proof_bytes.append(report.proof_bytes)
        audited += 1
    audit_us = (clock.now_us - start) / max(1, audited)

    # Per-domain monitor: verified-complete downloads, sublinear bandwidth.
    monitor = DomainMonitor(log, "host0000")  # hottest domains
    start = clock.now_us
    alerts = monitor.poll()
    monitor_us = clock.now_us - start
    total_log_bytes = sum(len(c.log_key) + 32 for c in certs)

    result = ExperimentResult(
        exp_id="case_study_ct",
        title="Certificate Transparency log server on eLSM",
        columns=["metric", "value"],
        notes=["paper: lightweight monitors need sublinear bandwidth; no gossip"],
    )
    result.add_row("certificates ingested", len(certs))
    result.add_row("ingest latency (us/cert)", ingest_us)
    result.add_row("audited lookups", audited)
    result.add_row("audit latency (us/lookup)", audit_us)
    result.add_row("mean inclusion-proof bytes", sum(proof_bytes) / len(proof_bytes))
    result.add_row("monitor poll latency (us)", monitor_us)
    result.add_row("monitor alerts (new certs)", len(alerts))
    result.add_row("monitor bytes downloaded", monitor.bytes_downloaded)
    result.add_row("full-log bytes (naive monitor)", total_log_bytes)
    result.add_row(
        "bandwidth saving vs naive",
        total_log_bytes / max(1, monitor.bytes_downloaded),
    )
    return result


# ----------------------------------------------------------------------
# Ablation: early-stop proofs vs all-level proofs
# ----------------------------------------------------------------------
def ablation_early_stop(ops: int = RUN_OPS) -> ExperimentResult:
    """Ablation: early-stop GET proofs vs all-level proofs."""
    scale = bench_scale()
    n = scale.records_for(1 * GB)

    stores = {
        "early-stop": ELSMP2Store(scale=scale, early_stop=True, name_prefix="ab-es"),
        "all-levels": ELSMP2Store(scale=scale, early_stop=False, name_prefix="ab-al"),
    }
    loader = CoreWorkload(read_only_workload(), n, seed=7)
    for store in stores.values():
        load_phase(store, loader)
        store.compact_all()  # originals settle in one deep level
        # Freeze level 1 so the new versions STAY shallow: the early-stop
        # rule only matters when a key exists at several levels.
        store.db.config.level1_max_bytes = 1 << 30
        for index in range(0, n, 3):
            store.put(loader.key(index), loader.value(index, version=1))
        store.flush()
        store.disk.prefetch_all()

    spec = read_only_workload(DIST_ZIPFIAN)
    result = ExperimentResult(
        exp_id="ablation_early_stop",
        title="Ablation: early-stop GET proofs (Theorem 5.3) vs all-level proofs",
        columns=["variant", "read us/op", "proof bytes/op"],
        notes=["early stop is eLSM's distinction vs Speicher (Section 7)"],
    )
    for name, store in stores.items():
        before_bytes = store.report()["proof_bytes_total"]
        lat = _mean(store, spec, n, ops)
        proof_per_op = (store.report()["proof_bytes_total"] - before_bytes) / ops
        result.add_row(name, lat, proof_per_op)
    return result


# ----------------------------------------------------------------------
# Ablation: embedded proofs vs on-demand tree rebuilding
# ----------------------------------------------------------------------
def ablation_embedded_proofs(ops: int | None = None) -> ExperimentResult:
    """Ablation: embedded proofs vs per-query tree rebuilds."""
    ops = ops or max(50, RUN_OPS // 10)  # on-demand is deliberately slow
    scale = bench_scale()
    n = scale.records_for(int(0.25 * GB))

    embedded = ELSMP2Store(scale=scale, proof_mode="embedded", name_prefix="ab-em")
    on_demand = ELSMP2Store(scale=scale, proof_mode="on_demand", name_prefix="ab-od")
    loader = CoreWorkload(read_only_workload(), n, seed=7)
    load_phase(embedded, loader)
    load_phase(on_demand, loader)

    spec = read_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="ablation_embedded_proofs",
        title="Ablation: embedded per-record proofs vs per-query tree rebuilds",
        columns=["variant", "read us/op", "store bytes on disk"],
        notes=[
            "embedded proofs trade storage for O(log n) proof assembly"
            " (Section 5.2 storage design)",
        ],
    )
    result.add_row(
        "embedded", _mean(embedded, spec, n, ops), embedded.disk.total_bytes()
    )
    result.add_row(
        "on-demand", _mean(on_demand, spec, n, ops), on_demand.disk.total_bytes()
    )
    return result


# ----------------------------------------------------------------------
# Ablation: rollback-counter write buffer (Section 5.6.1)
# ----------------------------------------------------------------------
def ablation_counter_buffer(ops: int = RUN_OPS) -> ExperimentResult:
    """Ablation: rollback-anchor buffering vs write latency."""
    scale = bench_scale()
    n = 2000
    spec = write_only_workload(DIST_UNIFORM)
    result = ExperimentResult(
        exp_id="ablation_counter_buffer",
        title="Ablation: monotonic-counter anchor buffering vs write latency",
        columns=["anchor every N writes", "write us/op"],
        notes=[
            "counter writes cost ~10 ms on TPM-class hardware; the paper buffers"
            " them ('the size of the write buffer is tunable')",
        ],
    )
    for buffer_ops in (1, 8, 64, 512):
        store = ELSMP2Store(
            scale=scale,
            rollback_protection=True,
            counter_buffer_ops=buffer_ops,
            name_prefix=f"ab-cb{buffer_ops}",
        )
        loader = CoreWorkload(spec, n, seed=7)
        load_phase(store, loader)
        result.add_row(buffer_ops, _mean(store, spec, n, ops))
    return result
