"""YCSB runner over real stores."""

import pytest

from repro.baselines.eleos import EleosStore
from repro.baselines.merkle_btree import MerkleBTreeStore
from repro.baselines.unsecured import UnsecuredLSMStore
from repro.core.admission import AdmissionShedError
from repro.sim.scale import ScaleConfig
from repro.ycsb.runner import load_phase, run_phase
from repro.ycsb.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_UPDATE,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_E,
    CoreWorkload,
    write_only_workload,
)
from tests.conftest import make_p1_store, make_p2_store

SCALE = ScaleConfig(factor=1 / 4096)

STORES = {
    "p1": lambda: make_p1_store(),
    "p2": lambda: make_p2_store(),
    "unsecured": lambda: UnsecuredLSMStore(scale=SCALE),
    "eleos": lambda: EleosStore(scale=SCALE),
    "merkle-btree": lambda: MerkleBTreeStore(scale=SCALE),
}

WRITE_KINDS = (OP_INSERT, OP_UPDATE, OP_DELETE)


def test_load_phase_populates_store():
    store = UnsecuredLSMStore(scale=SCALE)
    workload = CoreWorkload(WORKLOAD_A, 200, seed=1)
    load_phase(store, workload)
    assert store.get(workload.key(0)) == workload.value(0)
    assert store.get(workload.key(199)) == workload.value(199)


@pytest.mark.parametrize("system", sorted(STORES))
def test_run_phase_measures_simulated_latency(system):
    store = STORES[system]()
    workload = CoreWorkload(WORKLOAD_A, 200, seed=1)
    load_phase(store, workload)
    result = run_phase(store, workload, 300)
    assert result.operations == 300
    assert result.overall.count == 300
    assert result.mean_latency_us > 0
    assert result.duration_us > 0
    assert set(result.per_op) <= {"read", "update", "insert", "scan", "readmodifywrite"}
    assert result.throughput_kops() > 0
    # The same latencies land in the store's own telemetry histogram.
    hist = store.telemetry.metrics.histogram("ycsb.op.latency_us", labels=("op",))
    for kind, stats in result.per_op.items():
        assert hist.count(op=kind) == stats.count
        assert hist.sum(op=kind) == pytest.approx(stats.mean * stats.count)


def test_run_phase_scans():
    store = UnsecuredLSMStore(scale=SCALE)
    workload = CoreWorkload(WORKLOAD_E, 150, seed=2)
    load_phase(store, workload)
    result = run_phase(store, workload, 60)
    assert "scan" in result.per_op


def test_run_phase_on_p2_store():
    store = make_p2_store()
    workload = CoreWorkload(WORKLOAD_A, 120, seed=3)
    load_phase(store, workload)
    result = run_phase(store, workload, 100)
    assert result.overall.count == 100
    # Verified reads succeed under the workload (no exceptions raised).
    assert store.verifier.verified_gets > 0


# ----------------------------------------------------------------------
# Batched paths: commit groups and MULTIGET
# ----------------------------------------------------------------------
def _loaded_p2(spec, records=120, **overrides):
    store = make_p2_store(max_immutable_memtables=2, **overrides)
    load_phase(store, CoreWorkload(spec, records, seed=1))
    return store, CoreWorkload(spec, records, seed=7)


def _spy(store, name, log, on_call=None):
    """Wrap ``store.<name>``, logging each call's argument and lap."""
    inner = getattr(store, name)

    def wrapper(arg):
        before = store.clock.now_us
        if on_call is not None:
            on_call(arg)
        try:
            return inner(arg)
        finally:
            log.append((name, list(arg), store.clock.now_us - before))

    setattr(store, name, wrapper)


def _spy_ops(workload, log):
    inner = workload.next_op

    def wrapper():
        op = inner()
        log.append(("op", op.kind, 0.0))
        return op

    workload.next_op = wrapper


def test_each_commit_group_holds_at_most_n_writes_and_counts_once():
    store, workload = _loaded_p2(write_only_workload())
    groups = store.telemetry.metrics.counter("lsm.group_commit.groups")
    sizes, totals = [], []

    def on_call(ops):
        sizes.append(len(ops))
        totals.append(groups.total())

    _spy(store, "group_commit", [], on_call)
    result = run_phase(store, workload, 30, group_commit=4)
    totals.append(groups.total())
    assert sizes == [4] * 7 + [2]
    # Exactly one counter increment per group, taken inside its call.
    assert [b - a for a, b in zip(totals, totals[1:])] == [1] * len(sizes)
    assert result.per_op[OP_UPDATE].count == 30


def test_group_lap_is_split_evenly_over_its_ops():
    store, workload = _loaded_p2(write_only_workload())
    calls: list = []
    _spy(store, "group_commit", calls)
    result = run_phase(store, workload, 10, group_commit=4)
    expected = []
    for _name, ops, lap in calls:
        expected += [lap / len(ops)] * len(ops)
    assert result.per_op[OP_UPDATE]._samples == pytest.approx(expected)
    assert result.duration_us == pytest.approx(sum(lap for *_, lap in calls))


def test_overdue_group_takes_the_late_write_with_it():
    """GroupCommitQueue's deadline rule: a write that finds the pending
    group overdue joins it, and the group is submitted."""
    store, workload = _loaded_p2(write_only_workload())
    inner = workload.next_op

    def next_op_after_think_time():
        store.clock.charge("compute", 10.0)
        return inner()

    workload.next_op = next_op_after_think_time
    sizes: list = []
    _spy(store, "group_commit", [], lambda ops: sizes.append(len(ops)))
    run_phase(store, workload, 10, group_commit=100, group_max_delay_us=25.0)
    # The 4th write arrives 30 us after the 1st and closes the group.
    assert sizes == [4, 4, 2]


@pytest.mark.parametrize("multiget", [1, 4])
def test_read_sees_the_writes_queued_before_it(multiget):
    store, workload = _loaded_p2(WORKLOAD_A)
    log: list = []
    _spy_ops(workload, log)
    _spy(store, "group_commit", log)
    if multiget > 1:
        _spy(store, "multi_get", log)
    else:
        inner_get = store.get

        def get(key):
            log.append(("get", [key], 0.0))
            return inner_get(key)

        store.get = get
    run_phase(store, workload, 200, multiget=multiget, group_commit=16)
    drawn = committed = 0
    #: Per READ not yet issued: how many writes were drawn before it.
    waiting: list[int] = []
    for name, what, _lap in log:
        if name == "op":
            if what == OP_READ:
                waiting.append(drawn)
            drawn += what in WRITE_KINDS
        elif name == "group_commit":
            committed += len(what)
        else:
            served, waiting = waiting[: len(what)], waiting[len(what):]
            assert served and all(committed >= before for before in served)
    assert not waiting and committed == drawn > 0


def test_multiget_records_exactly_one_latency_per_read():
    store, workload = _loaded_p2(WORKLOAD_B)
    kinds: list = []
    _spy_ops(workload, kinds)
    batches: list = []
    _spy(store, "multi_get", batches)
    result = run_phase(store, workload, 120, multiget=8)
    reads = sum(1 for _n, kind, _l in kinds if kind == OP_READ)
    assert result.per_op[OP_READ].count == reads
    assert sum(len(keys) for _n, keys, _l in batches) == reads
    assert max(len(keys) for _n, keys, _l in batches) <= 8
    hist = store.telemetry.metrics.histogram("ycsb.op.latency_us", labels=("op",))
    assert hist.count(op=OP_READ) == reads
    assert result.overall.count == 120


def test_shed_group_counts_every_op_in_shed_ops():
    store, workload = _loaded_p2(write_only_workload())
    inner = store.group_commit
    sizes: list = []

    def shedding_group_commit(ops):
        sizes.append(len(ops))
        if len(sizes) == 2:
            raise AdmissionShedError("shed", retry_after_us=10)
        return inner(ops)

    store.group_commit = shedding_group_commit
    result = run_phase(store, workload, 10, group_commit=4)
    assert sizes == [4, 4, 2]
    assert result.shed_ops == 4
    # Shed ops still completed from the client's view: one latency each.
    assert result.per_op[OP_UPDATE].count == 10
