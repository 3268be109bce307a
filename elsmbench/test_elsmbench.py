"""Self-tests of the benchmark: its answer check, its determinism and the
exactness of its traced run.

    python3 -m pytest elsmbench -q

The runs here use a small load so each takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

SMALL = {"LOAD_RECORDS": 600, "PROBE_TARGET": 100, "SETUP_REPEATS": 1}

#: End-to-end metrics read off the simulated clock and the simulated disk.
SIMULATED = (
    "sim_kops",
    "get_p50_us",
    "get_p99_us",
    "write_p50_us",
    "scan_p50_us",
    "scan_p99_us",
    "proof_bytes_per_query",
    "write_amp",
    "space_amp",
)


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    monkeypatch.setattr(workloads, "LOAD_RECORDS", SMALL["LOAD_RECORDS"])
    monkeypatch.setattr(harness, "PROBE_TARGET", SMALL["PROBE_TARGET"])
    monkeypatch.setattr(harness, "SETUP_REPEATS", SMALL["SETUP_REPEATS"])
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "update-heavy",
        dataclasses.replace(workloads.WORKLOADS["update-heavy"], cache_bytes=64 * 1024),
    )


class StaleOnce:
    """Wraps a store and answers one GET with the value the key had
    before its latest update."""

    def __init__(self, store) -> None:
        self._store = store
        self._previous: dict[bytes, bytes] = {}
        self.fired = False

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, key, value):
        old = self._store.get_verified(key).value
        if old is not None:
            self._previous[key] = old
        return self._store.put(key, value)

    def get_verified(self, key, ts_query=None):
        result = self._store.get_verified(key, ts_query)
        if not self.fired and key in self._previous and result.record is not None:
            self.fired = True
            stale = dataclasses.replace(result.record, value=self._previous[key])
            return dataclasses.replace(result, record=stale)
        return result


def test_stale_answer_is_caught():
    wrappers = []

    def factory(clock, disk):
        wrappers.append(StaleOnce(harness.default_store(clock, disk)))
        return wrappers[-1]

    outcome = harness.run("read-heavy", seed=3, seconds=1, trace=False, store_factory=factory)
    assert wrappers[-1].fired
    assert not outcome.correct
    assert outcome.failed == 1
    assert any(line.startswith("FAILED get") for line in outcome.lines)


def test_honest_store_passes_every_check():
    for name in workloads.WORKLOADS:
        outcome = harness.run(name, seed=4, seconds=1, trace=False)
        assert outcome.correct, outcome.lines
        assert outcome.failed == 0
        assert all(value > 0 for value, _ in outcome.metrics.values()), outcome.metrics


_SIMULATED_RUN = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import harness, workloads
workloads.LOAD_RECORDS = {LOAD_RECORDS}
harness.PROBE_TARGET = {PROBE_TARGET}
harness.SETUP_REPEATS = {SETUP_REPEATS}
outcome = harness.run({workload!r}, seed=7, seconds=1, trace=False)
print(json.dumps({{k: v for k, (v, _) in outcome.metrics.items()}}))
"""


@pytest.mark.parametrize("workload", ["update-heavy", "scan-heavy"])
def test_simulated_metrics_do_not_depend_on_the_hash_seed(workload):
    code = _SIMULATED_RUN.format(
        here=HERE, src=os.path.join(ROOT, "src"), workload=workload, **SMALL
    )
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    assert {k: runs[0][k] for k in SIMULATED} == {k: runs[1][k] for k in SIMULATED}


def test_traced_run_is_exact_on_both_clocks():
    outcome = harness.run("update-heavy", seed=5, seconds=1, trace=True)
    assert outcome.correct, outcome.lines
    assert not [line for line in outcome.lines if "NOT EXACT" in line]
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    assert metrics["sgx.env.ecalls_per_op"] == 1.0
    assert metrics["lsm.db.flushes_per_kwrite"] > 0
    assert metrics["core.auth_compaction.hash_calls_per_op"] > 0


def test_exactness_check_sees_an_untraced_charge():
    from layers import LayerTracer
    from repro.sim.clock import SimClock

    clock = SimClock()
    tracer = LayerTracer()
    tracer.install()
    try:
        tracer.start_replay(clock.breakdown())
        tracer.begin_op()
        clock.charge("hash", 1.5)
        tracer.end_op()
        assert tracer.check(clock.breakdown()) == []
        clock.charge("hash", 0.25)  # outside any traced operation
        assert tracer.check(clock.breakdown())
    finally:
        tracer.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "read-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
