"""Set up a store, drive one workload through its public API, check every
answer against the reference model, and compute the metrics.

One process, one thread, one client in a closed loop: the next operation
is issued only after the previous one returned.  The store is built with
its defaults (mmap reads, embedded proofs, early stop, salted Bloom
filters, no admission control, the default WAL sync policy, no background
threads); the benchmark only supplies the clock and the disk, so it can
size the kernel page cache and count bytes written.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from workloads import (
    CLASSES,
    OP_CLASS,
    WORKLOADS,
    Model,
    OpStream,
    Workload,
    key_of,
    load_records,
)

#: Stores built per run; ``setup_s`` is the median of their build times,
#: and the mix runs on the last one.
SETUP_REPEATS = 3
#: A class the mix samples fewer times is topped up to this many samples
#: by a probe after the mix, so every percentile rests on at least 2000
#: samples (p99 on twenty beyond it).
PROBE_TARGET = 2000

_MIX_STREAM, _PROBE_STREAM = 1, 2


def _counting_disk_class():
    from repro.sim.disk import SimDisk

    class CountingDisk(SimDisk):
        """The store's simulated disk, counting every byte written to it."""

        bytes_written = 0

        def append(self, name, data):
            self.bytes_written += len(data)
            return super().append(name, data)

        def write_at(self, name, offset, data):
            self.bytes_written += len(data)
            return super().write_at(name, offset, data)

    return CountingDisk


def default_store(clock, disk):
    from repro.core.store_p2 import ELSMP2Store

    return ELSMP2Store(clock=clock, disk=disk)


@dataclass
class Setup:
    store: object
    clock: object
    disk: object
    cache_bytes: int
    seconds: float


def build(workload: Workload, records, store_factory=default_store) -> Setup:
    """Build, load, flush and warm one store (the paper's Section 6.1)."""
    from repro.sim.clock import SimClock
    from repro.sim.costs import DEFAULT_COSTS
    from repro.sim.scale import ScaleConfig

    start = time.thread_time()
    clock = SimClock()
    cache = workload.cache_bytes
    if cache is None:
        cache = ScaleConfig().ram_bytes
    disk = _counting_disk_class()(clock, DEFAULT_COSTS, cache_bytes=cache)
    store = store_factory(clock, disk)
    for key, value in records:
        store.put(key, value)
    store.flush()
    disk.prefetch_all()
    return Setup(store, clock, disk, cache, time.thread_time() - start)


@dataclass
class Phase:
    """What one stretch of operations did, with every answer checked."""

    ops: int = 0
    failed: int = 0
    host_ns: list[int] = field(default_factory=list)
    sim_us: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in CLASSES})
    kinds: dict[str, int] = field(default_factory=dict)
    user_bytes: int = 0
    rows: int = 0
    first_failures: list[str] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.sim_us["get"]) + len(self.sim_us["scan"])

    @property
    def writes(self) -> int:
        return len(self.sim_us["write"])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(message)


def run_ops(setup: Setup, model: Model, stream: OpStream, count: int, kind=None, tracer=None) -> Phase:
    """Issue ``count`` operations, timing each call on both clocks."""
    store, clock = setup.store, setup.clock
    phase = Phase()
    perf = time.thread_time_ns
    for _ in range(count):
        op = stream.draw(model, kind)
        name = op[0]
        phase.kinds[name] = phase.kinds.get(name, 0) + 1
        error = None
        sim_start = clock.now_us
        if tracer is not None:
            tracer.begin_op()
        start = perf()
        try:
            if name == "get":
                result = store.get_verified(op[1])
            elif name == "scan":
                result = store.scan(op[1], op[2])
            elif name == "delete":
                result = store.delete(op[1])
            else:
                result = store.put(op[1], op[2])
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        elapsed = perf() - start
        if tracer is not None:
            tracer.end_op()
        sim = clock.now_us - sim_start
        phase.ops += 1
        phase.host_ns.append(elapsed)
        phase.sim_us[OP_CLASS[name]].append(sim)
        if error is not None:
            phase.fail(f"{name} {op[1]!r}: {type(error).__name__}: {error}")
            continue
        _check(phase, model, op, result)
    return phase


def _check(phase: Phase, model: Model, op: tuple, result) -> None:
    """Compare one answer with the model, then apply a write to it."""
    name = op[0]
    if name == "get":
        expected = model.values.get(op[1])
        if result.value != expected:
            phase.fail(f"get {op[1]!r}: got {result.value!r}, expected {expected!r}")
        elif expected is not None:
            phase.rows += 1
    elif name == "scan":
        expected = model.scan(op[3], op[4])
        if result != expected:
            phase.fail(
                f"scan [{op[1]!r}, {op[2]!r}]: got {len(result)} rows, "
                f"expected {len(expected)}"
            )
        else:
            phase.rows += len(result)
    elif name == "delete":
        phase.user_bytes += len(op[1])
        model.delete(op[1])
    else:
        phase.user_bytes += len(op[1]) + len(op[2])
        model.put(op[1], op[2])


def read_back(setup: Setup, model: Model, next_index: int) -> Phase:
    """Read every key ever written back, verified, against the model."""
    phase = Phase()
    for index in range(next_index):
        key = key_of(index)
        phase.ops += 1
        try:
            result = setup.store.get_verified(key)
        except Exception as exc:
            phase.fail(f"read-back {key!r}: {type(exc).__name__}: {exc}")
            continue
        _check(phase, model, ("get", key), result)
    return phase


def host_summary(host_ns: list[int]) -> str:
    """Host throughput and latency of a phase, as printed."""
    return (
        f"host_kops {len(host_ns) / sum(host_ns) * 1e6:.4f} kops/s, "
        f"host_p50_us {percentile(host_ns, 50) / 1000:.1f} us, "
        f"host_p99_us {percentile(host_ns, 99) / 1000:.1f} us "
        f"({len(host_ns)} samples)"
    )


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def run(workload_name: str, seed: int, seconds: int, trace: bool, store_factory=default_store) -> Outcome:
    workload = WORKLOADS[workload_name]
    records = load_records(seed)
    n_ops = workload.ops_per_second * seconds
    if trace:
        return _run_traced(workload, records, seed, n_ops, store_factory)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup = None  # release the previous store before building the next
        gc.collect()
        setup = build(workload, records, store_factory)
        setup_times.append(setup.seconds)
    model = Model(records)
    stream = OpStream(workload, seed, _MIX_STREAM, len(records))
    before = setup.store.report()
    gc.collect()
    mix = run_ops(setup, model, stream, n_ops)
    after = setup.store.report()
    disk_written = setup.disk.bytes_written
    disk_bytes = setup.disk.total_bytes()
    live_bytes = model.live_bytes()

    # A class the mix samples fewer than PROBE_TARGET times is topped up
    # by a probe of that class after the mix, on the store it left.
    probe_stream = OpStream(workload, seed, _PROBE_STREAM, stream.next_index)
    samples, sources, probes = {}, {}, []
    for cls in CLASSES:
        samples[cls] = list(mix.sim_us[cls])
        sources[cls] = f"{len(samples[cls])} mix"
        short = PROBE_TARGET - len(samples[cls])
        if short > 0:
            kind = {"get": "get", "scan": "scan", "write": workload.write_kind}[cls]
            probe = run_ops(setup, model, probe_stream, short, kind=kind)
            probes.append(probe)
            samples[cls] += probe.sim_us[cls]
            sources[cls] += f" + {short} probe"
    check = read_back(setup, model, probe_stream.next_index)

    phases = [mix, *probes, check]
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    sim_total_s = sum(sum(v) for v in mix.sim_us.values()) / 1e6
    load_bytes = sum(len(k) + len(v) for k, v in records)
    metrics = {
        "sim_kops": (mix.ops / sim_total_s / 1000, "kops/s"),
        "get_p50_us": (percentile(samples["get"], 50), "us"),
        "get_p99_us": (percentile(samples["get"], 99), "us"),
        "write_p50_us": (percentile(samples["write"], 50), "us"),
        "scan_p50_us": (percentile(samples["scan"], 50), "us"),
        "scan_p99_us": (percentile(samples["scan"], 99), "us"),
        "proof_bytes_per_query": (
            (after["proof_bytes_total"] - before["proof_bytes_total"]) / mix.queries,
            "B",
        ),
        "write_amp": (disk_written / (load_bytes + mix.user_bytes), "B/B"),
        "space_amp": (disk_bytes / live_bytes, "B/B"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"workload {workload.name} seed {seed}: {mix.ops} mix ops "
        f"({', '.join(f'{k} {v}' for k, v in sorted(mix.kinds.items()))}), "
        f"{len(records)} records loaded, page cache {setup.cache_bytes} B, "
        f"on-disk {disk_bytes} B at the end",
        "latency samples: " + ", ".join(f"{c} {sources[c]}" for c in CLASSES),
        f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
        "host clock (printed only, see RATIONALE.md): " + host_summary(mix.host_ns),
        f"write_p99_us {percentile(samples['write'], 99):.4f} us, write_mean_us "
        f"{statistics.fmean(samples['write']):.4f} us (printed only, see RATIONALE.md)",
        f"flushes {after['flushes'] - before['flushes']}, compactions "
        f"{after['compactions'] - before['compactions']} during the mix; levels "
        f"{sorted(after['levels'])}",
        f"failed_ops_pct {100.0 * failed / attempted:.4f} % "
        f"({failed} of {attempted}: mix, probes, read-back of {check.ops} keys)",
    ]
    for phase in phases:
        lines.extend(f"FAILED {m}" for m in phase.first_failures)
    return Outcome(failed == 0, attempted, failed, metrics, lines)


def _run_traced(workload, records, seed, n_ops, store_factory) -> Outcome:
    from layers import LayerTracer

    # Untraced reference run, for the tracing overhead.
    setup = build(workload, records, store_factory)
    model = Model(records)
    gc.collect()
    plain = run_ops(
        setup, model, OpStream(workload, seed, _MIX_STREAM, len(records)), n_ops
    )
    setup = None
    gc.collect()

    tracer = LayerTracer()
    tracer.install()
    try:
        setup = build(workload, records, store_factory)
        model = Model(records)
        stream = OpStream(workload, seed, _MIX_STREAM, len(records))
        before = setup.store.report()
        breakdown_before = setup.clock.breakdown()
        hits_before = (setup.disk.cache_hit_blocks, setup.disk.cache_miss_blocks)
        tracer.start_replay(breakdown_before)
        gc.collect()
        mix = run_ops(setup, model, stream, n_ops, tracer=tracer)
        breakdown_after = setup.clock.breakdown()
        after = setup.store.report()
        hits = (
            setup.disk.cache_hit_blocks - hits_before[0],
            setup.disk.cache_miss_blocks - hits_before[1],
        )
    finally:
        tracer.uninstall()
    check = read_back(setup, model, stream.next_index)
    problems = tracer.check(breakdown_after)

    from report import layer_metrics

    metrics, lines = layer_metrics(
        tracer, mix, plain, before, after, breakdown_before, breakdown_after, hits
    )
    lines.extend(f"TRACE NOT EXACT: {p}" for p in problems)
    phases = [plain, mix, check]
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        lines.extend(f"FAILED {m}" for m in phase.first_failures)
    return Outcome(failed == 0 and not problems, attempted, failed, metrics, lines)
