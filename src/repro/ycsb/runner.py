"""YCSB load/run phases against any store exposing put/get/scan/delete.

The runner measures each operation on the store's *simulated* clock —
the lap between before and after the call — exactly the quantity the
paper plots ("latency per operation (micro seconds)").  Stores are duck
typed; everything in :mod:`repro.core` and :mod:`repro.baselines`
conforms.  :func:`issue` is the one mapping from a YCSB op to store
calls; every client loop (this runner, the adversarial bench) uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.core.admission import AdmissionShedError
from repro.core.group_commit import GroupCommitQueue
from repro.ycsb.stats import LatencyStats
from repro.ycsb.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_RMW,
    OP_SCAN,
    OP_UPDATE,
    CoreWorkload,
    Operation,
)

#: Op kinds a commit group carries.
_WRITES = (OP_INSERT, OP_UPDATE, OP_DELETE)


@dataclass
class RunResult:
    """Outcome of one run phase."""

    workload: str
    operations: int
    duration_us: float
    per_op: dict[str, LatencyStats] = field(default_factory=dict)
    overall: LatencyStats = field(default_factory=LatencyStats)
    #: Operations rejected (retryably) by admission control.  They still
    #: count toward ``operations`` — the client issued them — but a
    #: caller judging *goodput* should subtract them.
    shed_ops: int = 0

    @property
    def mean_latency_us(self) -> float:
        return self.overall.mean

    def throughput_kops(self) -> float:
        """Simulated throughput in thousands of ops per second."""
        if self.duration_us == 0:
            return 0.0
        return self.operations / (self.duration_us / 1e6) / 1e3


def issue(store, workload: CoreWorkload, op: Operation, version: int) -> int:
    """Apply one YCSB op to ``store``; returns the next value version.

    UPDATE and RMW write version ``version`` of the key's value; the
    other kinds leave the counter as it is.  For the write kinds
    ``store`` may also be a :class:`GroupCommitQueue`.
    """
    key = workload.key(op.key_index)
    if op.kind == OP_READ:
        store.get(key)
    elif op.kind == OP_INSERT:
        store.put(key, workload.value(op.key_index))
    elif op.kind == OP_DELETE:
        store.delete(key)
    elif op.kind == OP_SCAN:
        store.scan(key, workload.key(op.key_index + op.scan_length))
    elif op.kind in (OP_UPDATE, OP_RMW):
        if op.kind == OP_RMW:
            store.get(key)
        store.put(key, workload.value(op.key_index, version))
        return version + 1
    else:  # pragma: no cover - spec validation prevents this
        raise ValueError(f"unknown op kind {op.kind}")
    return version


def load_phase(store, workload: CoreWorkload, start: int = 0) -> None:
    """Insert records ``[start, record_count)``, then warm the kernel
    cache (Section 6.1: "we typically scan the loaded dataset so that it
    is loaded in the untrusted memory").  A ``start`` past 0 grows a
    store loaded earlier from a smaller workload."""
    with store.telemetry.span(
        "ycsb.load",
        workload=workload.spec.name,
        records=workload.record_count - start,
    ):
        for op in islice(workload.load_ops(), start, None):
            store.put(workload.key(op.key_index), workload.value(op.key_index))
        store.flush()
        store.disk.prefetch_all()


def run_phase(
    store,
    workload: CoreWorkload,
    operations: int,
    multiget: int = 1,
    group_commit: int = 1,
    group_max_delay_us: float | None = None,
) -> RunResult:
    """Drive ``operations`` requests and collect simulated latencies.

    Latencies land both in the returned :class:`RunResult` and in the
    store's ``ycsb.op.latency_us`` histogram, labelled by op kind, so a
    ``--metrics-out`` dump includes the same distribution the result
    summarises.

    With ``multiget > 1`` (and a store exposing ``multi_get``), runs of
    consecutive READs are batched into one verified MULTIGET of up to
    that many keys.  Any other op kind issues the pending batch first,
    preserving order.

    With ``group_commit > 1`` (and a store exposing ``group_commit``),
    INSERT/UPDATE/DELETE ops go through a :class:`GroupCommitQueue` of
    that group size — one ECall, one WAL write, one fsync per group.
    Every other op submits the pending group first, so read-your-writes
    holds.  ``group_max_delay_us`` is the queue's ``max_delay_us``: a
    write arriving once the group's oldest write has waited that long
    joins the group, which is then submitted.

    A batch's lap is split evenly over its ops, so per-op statistics stay
    comparable with the sequential mode.
    """
    clock = store.clock
    latency_hist = store.telemetry.histogram(
        "ycsb.op.latency_us",
        "per-operation simulated latency by YCSB op kind",
        labels=("op",),
    )
    result = RunResult(workload=workload.spec.name, operations=operations, duration_us=0.0)
    use_multiget = multiget > 1 and hasattr(store, "multi_get")
    queue = (
        GroupCommitQueue(store, group_commit, group_max_delay_us)
        if group_commit > 1 and hasattr(store, "group_commit")
        else None
    )
    #: Ops whose latency waits on a batch: the queued writes, then the
    #: batched READs (a READ never waits ahead of a write).
    pending: list[Operation] = []

    def _queued() -> int:
        return len(queue) if queue is not None else 0

    def _record(kind: str, elapsed: float) -> None:
        result.per_op.setdefault(kind, LatencyStats()).add(elapsed)
        result.overall.add(elapsed)
        latency_hist.observe(elapsed, op=kind)

    def _settle(count: int, before: float) -> None:
        """Split the lap since ``before`` over the oldest ``count`` ops."""
        per_op = clock.lap(before) / count
        for op in pending[:count]:
            _record(op.kind, per_op)
        del pending[:count]

    def _batch(count: int, call) -> None:
        """One store call on behalf of the oldest ``count`` pending ops."""
        before = clock.now_us
        try:
            call()
        except AdmissionShedError:
            result.shed_ops += count
        _settle(count, before)

    def _drain() -> None:
        """Submit the queued writes, then the batched READs."""
        if _queued():
            _batch(_queued(), queue.flush)
        if pending:
            keys = [workload.key(op.key_index) for op in pending]
            _batch(len(pending), lambda: store.multi_get(keys))

    with store.telemetry.span(
        "ycsb.run", workload=workload.spec.name, operations=operations
    ):
        start = clock.now_us
        version = 1
        for _ in range(operations):
            op = workload.next_op()
            if use_multiget and op.kind == OP_READ:
                pending.append(op)
                if len(pending) - _queued() >= multiget:
                    _drain()
                continue
            if queue is not None and op.kind in _WRITES:
                target = queue
                if len(pending) > _queued():
                    _drain()  # the batched READs were drawn first
            else:
                target = store
                _drain()  # read-your-writes
            pending.append(op)
            before = clock.now_us
            try:
                version = issue(target, workload, op, version)
            except AdmissionShedError:
                # Retryable back-pressure: the client observed a fast
                # rejection, still a completed request to the runner.
                result.shed_ops += len(pending)
            if not _queued():  # this call completed every pending op
                _settle(len(pending), before)
        _drain()
        result.duration_us = clock.now_us - start
    return result
