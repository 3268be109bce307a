"""The MULTIGET perf baseline: sequential vs batched verified reads.

Builds two identical multi-level eLSM-P2 stores (same seeded write
sequence on the same simulated hardware), issues the same Zipfian query
batch to both — N sequential :meth:`get_verified` calls on one, a single
:meth:`multi_get_verified` on the other — and reports simulated-clock
time and proof bytes for each side.  Everything runs on the simulated
clock, so the numbers are exactly reproducible; ``BENCH_perf.json`` at
the repo root is the committed baseline CI regresses against (the
``perf-smoke`` job runs ``python -m repro perf-baseline --quick --check
BENCH_perf.json``).
"""

from __future__ import annotations

import json
import os

from repro.sim.scale import ScaleConfig
from repro.ycsb.distributions import ScrambledZipfianGenerator

#: The batch must beat N sequential verified GETs by at least this much.
MIN_US_SAVED_PCT = 30.0
MIN_PROOF_BYTES_SAVED_PCT = 25.0

PROFILES = {
    "default": {"records": 5000, "distinct_keys": 1500, "batch_size": 1000},
    "quick": {"records": 1500, "distinct_keys": 500, "batch_size": 250},
}


def _build_store(records: int, distinct_keys: int):
    """One deterministically-populated multi-level store."""
    from repro.core.store_p2 import ELSMP2Store

    store = ELSMP2Store(
        scale=ScaleConfig(factor=1 / 4096),
        write_buffer_bytes=4096,
        level1_max_bytes=8192,
        file_max_bytes=8192,
        block_bytes=1024,
    )
    write_keys = ScrambledZipfianGenerator(distinct_keys, seed=11)
    for i in range(records):
        idx = write_keys.next()
        store.put(b"user%06d" % idx, b"value-%06d-%06d" % (idx, i))
    store.flush()
    return store


def _query_keys(distinct_keys: int, batch_size: int) -> list[bytes]:
    gen = ScrambledZipfianGenerator(distinct_keys, seed=23)
    return [b"user%06d" % gen.next() for _ in range(batch_size)]


def run_perf_baseline(quick: bool = False) -> dict:
    """Run one profile and return its result row (plain JSON types)."""
    profile = "quick" if quick else "default"
    params = PROFILES[profile]
    keys = _query_keys(params["distinct_keys"], params["batch_size"])

    seq_store = _build_store(params["records"], params["distinct_keys"])
    start = seq_store.clock.now_us
    sequential = [seq_store.get_verified(key) for key in keys]
    sequential_us = seq_store.clock.now_us - start
    sequential_bytes = sum(v.proof_bytes for v in sequential)

    batch_store = _build_store(params["records"], params["distinct_keys"])
    start = batch_store.clock.now_us
    batched = batch_store.multi_get_verified(keys)
    batch_us = batch_store.clock.now_us - start
    metrics = batch_store.telemetry.metrics

    identical = [v.value for v in sequential] == batched.values
    return {
        "profile": profile,
        **params,
        "levels": batch_store.db.level_indices(),
        "sequential_us": round(sequential_us, 1),
        "batch_us": round(batch_us, 1),
        "us_saved_pct": _saved_pct(sequential_us, batch_us),
        "sequential_proof_bytes": sequential_bytes,
        "batch_proof_bytes": batched.proof_bytes,
        "proof_bytes_saved_pct": _saved_pct(
            sequential_bytes, batched.proof_bytes
        ),
        "identical_results": identical,
        "node_cache": {
            "hits": int(metrics.counter("verifier.cache.hit").total()),
            "misses": int(metrics.counter("verifier.cache.miss").total()),
        },
    }


def _saved_pct(sequential: float, batch: float) -> float:
    if sequential <= 0:
        return 0.0
    return round(100.0 * (sequential - batch) / sequential, 1)


def acceptance_problems(result: dict) -> list[str]:
    """Violations of a profile's standing acceptance bars.

    Dispatches on the profile: the ``group-commit`` write-path profile
    has its own bars (speedup factor, store equivalence) and no proof
    columns; every other classic profile uses the MULTIGET bars below.
    """
    if result.get("profile") == "group-commit":
        from repro.bench.group_commit import (
            acceptance_problems as group_commit_acceptance,
        )

        return group_commit_acceptance(result)
    problems = []
    if not result["identical_results"]:
        problems.append("batched results differ from sequential results")
    if result["us_saved_pct"] < MIN_US_SAVED_PCT:
        problems.append(
            f"simulated-clock saving {result['us_saved_pct']}% is below "
            f"the {MIN_US_SAVED_PCT}% bar"
        )
    if result["proof_bytes_saved_pct"] < MIN_PROOF_BYTES_SAVED_PCT:
        problems.append(
            f"proof-byte saving {result['proof_bytes_saved_pct']}% is below "
            f"the {MIN_PROOF_BYTES_SAVED_PCT}% bar"
        )
    return problems


def write_baseline(path: str, result: dict) -> None:
    """Write (or merge) a profile result into a baseline file."""
    payload = {"schema": 1, "profiles": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.setdefault("profiles", {})
    payload["profiles"][result["profile"]] = result
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def regression_problems(path: str, result: dict) -> list[str]:
    """Compare a fresh result against the committed baseline at ``path``.

    The simulated clock is deterministic, so every field of the
    committed row must come back exactly: any difference is a real code
    change, which needs a re-baseline (``--out`` plus a ``--history``
    record).  The standing acceptance bars apply too.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    committed = payload.get("profiles", {}).get(result["profile"])
    if committed is None:
        return [f"baseline {path} has no {result['profile']!r} profile"]
    problems = acceptance_problems(result)
    fresh = json.loads(json.dumps(result))  # the row as --out writes it
    for name in sorted(set(committed) | set(fresh)):
        if fresh.get(name) != committed.get(name):
            problems.append(
                f"{name} {fresh.get(name)!r} differs from committed "
                f"{committed.get(name)!r}"
            )
    return problems


def format_result(result: dict) -> str:
    """Human-readable summary of one profile run."""
    lines = [
        f"profile {result['profile']}: {result['records']} records over "
        f"{result['distinct_keys']} keys, levels {result['levels']}, "
        f"batch of {result['batch_size']}",
        f"  sequential: {result['sequential_us']:>12.1f} us  "
        f"{result['sequential_proof_bytes']:>10d} proof B",
        f"  batched:    {result['batch_us']:>12.1f} us  "
        f"{result['batch_proof_bytes']:>10d} proof B",
        f"  saved:      {result['us_saved_pct']:>11.1f}%  "
        f"{result['proof_bytes_saved_pct']:>9.1f}%",
        f"  identical results: {result['identical_results']}",
    ]
    if result.get("node_cache"):
        lines.append(
            f"  verified-node cache: {result['node_cache']['hits']} hits, "
            f"{result['node_cache']['misses']} misses"
        )
    return "\n".join(lines)
