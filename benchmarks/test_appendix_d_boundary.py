"""Appendix D: world-switch economics of code placement.

The paper dismisses the code-outside-enclave design partly on boundary
crossings: "one PUT/GET operation causes at least one OCall, while [with
code inside] it causes an OCall only when it flushes or misses a read
buffer (which can be amortized to multiple PUT/GET operations)".

This bench measures actual ECall/OCall counts per operation for the
implemented placements and compares them with the code-outside floor of
1 crossing per op.
"""

from repro.bench.experiments import bench_scale
from repro.bench.harness import ExperimentResult, record_result
from repro.core.store_p1 import ELSMP1Store
from repro.core.store_p2 import ELSMP2Store
from repro.sim.scale import GB
from repro.ycsb.runner import load_phase, run_phase
from repro.ycsb.workload import CoreWorkload, mixed_workload


def boundary_experiment(ops: int) -> ExperimentResult:
    scale = bench_scale()
    n = scale.records_for(1 * GB)
    result = ExperimentResult(
        exp_id="appendix_d_boundary",
        title="World switches per operation (Appendix D argument)",
        columns=["system", "ecalls/op", "ocalls/op", "total/op"],
        notes=[
            "code-outside-enclave would pay >= 1 OCall per op by design;"
            " code-inside amortizes file OCalls across many ops",
        ],
    )
    spec = mixed_workload(70)
    for name, store in (
        ("eLSM-P2-mmap", ELSMP2Store(scale=scale, name_prefix="ad-p2")),
        ("eLSM-P1", ELSMP1Store(scale=scale, name_prefix="ad-p1")),
    ):
        load_phase(store, CoreWorkload(spec, n, seed=1))
        before = store.report()
        run_phase(store, CoreWorkload(spec, n, seed=7), ops)
        after = store.report()
        d_ecalls = (after["ecalls"] - before["ecalls"]) / ops
        d_ocalls = (after["ocalls"] - before["ocalls"]) / ops
        result.add_row(name, d_ecalls, d_ocalls, d_ecalls + d_ocalls)
    result.add_row("code-outside (floor)", 0.0, 1.0, 1.0)
    return result


def test_appendix_d_boundary(benchmark, figure_ops):
    result = benchmark.pedantic(
        boundary_experiment, kwargs={"ops": figure_ops}, rounds=1, iterations=1
    )
    record_result(result)

    rows = {row[0]: row for row in result.rows}
    # Application-level calls: exactly one ECall per op for both designs.
    assert rows["eLSM-P2-mmap"][1] == 1.0
    assert rows["eLSM-P1"][1] == 1.0
    # P2-mmap reads avoid per-op OCalls: its OCall rate is well below
    # the code-outside floor of 1/op.
    assert rows["eLSM-P2-mmap"][2] < 1.0
