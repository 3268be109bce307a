"""Proof-size scaling (the paper's "small query proofs" claim).

Section 5.2/5.3: eLSM's proofs are "made small by including only the
Merkle proofs at selective levels" — per level, one O(log n) path.  This
bench measures mean GET-proof bytes as the dataset grows: logarithmic
per level, not linear in the data.
"""

from repro.bench.harness import ExperimentResult, record_result
from repro.bench.experiments import bench_scale
from repro.core.store_p2 import ELSMP2Store
from repro.sim.scale import GB, MB
from repro.ycsb.workload import CoreWorkload, read_only_workload


def proof_size_experiment() -> ExperimentResult:
    scale = bench_scale()
    sizes = [32 * MB, 128 * MB, 512 * MB, 2 * GB]
    store = ELSMP2Store(scale=scale, name_prefix="psize")
    loader = CoreWorkload(read_only_workload(), scale.records_for(sizes[-1]), seed=3)

    result = ExperimentResult(
        exp_id="proof_size",
        title="GET proof size vs data size (early-stop, embedded proofs)",
        columns=["data (paper)", "records", "mean proof bytes", "bytes/log2(n)"],
        notes=["proofs grow ~logarithmically per level, never linearly"],
    )
    loaded = 0
    for size in sizes:
        n = scale.records_for(size)
        for index in range(loaded, n):
            store.put(loader.key(index), loader.value(index))
        store.flush()
        loaded = n
        samples = 300
        served = 0
        hits = 0
        for probe in range(samples):
            index = (probe * 7919) % n
            proof_bytes = store.get_verified(loader.key(index)).proof_bytes
            served += proof_bytes
            if proof_bytes > 0:
                hits += 1
        mean_bytes = served / max(1, hits)
        import math

        result.add_row(
            scale.label(size), n, mean_bytes, mean_bytes / math.log2(max(2, n))
        )
    return result


def test_proof_size(benchmark):
    result = benchmark.pedantic(proof_size_experiment, rounds=1, iterations=1)
    record_result(result)

    mean_bytes = result.column("mean proof bytes")
    records = result.column("records")
    # Proofs grow far slower than the data: 64x more records must cost
    # far less than 8x the proof bytes.
    growth = mean_bytes[-1] / mean_bytes[0]
    data_growth = records[-1] / records[0]
    assert growth < data_growth / 4
    # Absolute sanity: sub-kilobyte-scale proofs at every size.
    assert all(b < 4096 for b in mean_bytes)
