#!/usr/bin/env python3
"""Run a YCSB comparison of eLSM-P2, eLSM-P1, and the unsecured store.

A miniature version of the paper's Section 6 macro-benchmark: load a
dataset, drive the standard workloads A/B/C, and print per-workload
simulated latency for each system.

Run:  python examples/ycsb_experiment.py
"""

from repro import ScaleConfig
from repro.baselines.unsecured import UnsecuredLSMStore
from repro.core.store_p1 import ELSMP1Store
from repro.core.store_p2 import ELSMP2Store
from repro.sim.scale import GB
from repro.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    CoreWorkload,
    load_phase,
    run_phase,
)

SCALE = ScaleConfig(factor=1 / 2048)
DATA_BYTES = 1 * GB  # paper units; scaled automatically
OPS = 800


def main() -> None:
    n = SCALE.records_for(DATA_BYTES)
    systems = {
        "eLSM-P2-mmap": ELSMP2Store(scale=SCALE, read_mode="mmap"),
        "eLSM-P1": ELSMP1Store(
            scale=SCALE, read_buffer_bytes=SCALE.scale_bytes(2 * GB)
        ),
        "LevelDB (unsecure)": UnsecuredLSMStore(scale=SCALE),
    }

    print(f"loading {n} records ({SCALE.label(DATA_BYTES)}) into each system...")
    for name, store in systems.items():
        load_phase(store, CoreWorkload(WORKLOAD_A, n, seed=1))
        print(f"  {name}: loaded")

    header = f"{'workload':<12}" + "".join(f"{name:>22}" for name in systems)
    print("\nsimulated mean latency (us/op)")
    print(header)
    print("-" * len(header))
    for spec in (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C):
        row = f"{spec.name:<12}"
        for store in systems.values():
            result = run_phase(store, CoreWorkload(spec, n, seed=7), OPS)
            row += f"{result.mean_latency_us:>22.1f}"
        print(row)

    p2 = systems["eLSM-P2-mmap"]
    print(f"\neLSM-P2 proof bytes served: {p2.report()['proof_bytes_total']}")
    print(f"eLSM-P2 verified GETs: {p2.verifier.verified_gets}")
    print(f"write amplification: {p2.db.write_amplification():.1f}x")


if __name__ == "__main__":
    main()
