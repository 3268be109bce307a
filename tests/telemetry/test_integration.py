"""End-to-end telemetry: instrumented stores, CLI dumps, report consistency."""

import json

import pytest

from repro.cli import main
from repro.telemetry import render_prometheus
from tests.conftest import make_p2_store


@pytest.fixture
def worked_store():
    """A P2 store that has flushed, compacted, and served verified reads."""
    store = make_p2_store()
    for i in range(120):
        store.put(b"k%04d" % (i % 60), b"v%d" % i)
    store.flush()
    store.compact_all()
    for i in range(30):
        store.get(b"k%04d" % i)
    store.get(b"missing")
    store.scan(b"k0000", b"k0005")
    return store


def test_hot_path_metrics_populated(worked_store):
    snap = worked_store.telemetry.metrics.snapshot()
    m = worked_store.telemetry.metrics
    assert m.counter("enclave.ecalls", labels=("call",)).total() > 0
    assert m.counter("wal.appends").value() > 0
    assert m.histogram("proof.get.bytes").count() > 0
    assert m.counter("enclave.hash.invocations").value() > 0
    assert "lsm.flush.duration_us" in snap
    assert "lsm.compaction.duration_us" in snap
    assert "elsm.get.duration_us" in snap
    hits = m.counter("cache.hits", labels=("region",)).total()
    misses = m.counter("cache.misses", labels=("region",)).total()
    assert hits + misses > 0


def test_spans_cover_flush_and_compaction(worked_store):
    names = {s.name for s in worked_store.telemetry.tracer.spans}
    assert {"lsm.flush", "lsm.compaction", "elsm.get"} <= names
    get_spans = [
        s for s in worked_store.telemetry.tracer.spans if s.name == "elsm.get"
    ]
    assert all(s.attributes.get("proof_bytes", 0) >= 0 for s in get_spans)
    assert any(s.attributes.get("stop_level") is not None for s in get_spans)


def test_report_consistent_with_registry(worked_store):
    report = worked_store.report()
    m = worked_store.telemetry.metrics
    assert report["ecalls"] == m.counter("enclave.ecalls", labels=("call",)).total()
    assert report["ocalls"] == m.counter("enclave.ocalls", labels=("call",)).total()
    assert report["wal_appends"] == m.counter("wal.appends").value()
    assert report["hash_invocations"] == m.counter(
        "enclave.hash.invocations"
    ).value()
    # The device's page-cache hits live on the disk, not in the registry.
    assert report["cache_hits"] == m.counter(
        "cache.hits", labels=("region",)
    ).total() + worked_store.disk.cache_hit_blocks
    assert report["bytes_flushed"] == m.counter("lsm.flush.bytes").value()
    assert report["bytes_compacted"] == m.counter("lsm.compaction.bytes").value()
    assert report["write_amplification"] >= 1.0
    assert report["level_bytes_total"] > 0


def test_stores_are_isolated():
    a = make_p2_store()
    b = make_p2_store()
    a.put(b"k", b"v")
    assert a.telemetry is not b.telemetry
    assert b.telemetry.counter("lsm.ops", labels=("op",)).total() == 0


def test_prometheus_render_of_real_store(worked_store):
    text = render_prometheus(worked_store.telemetry.metrics.snapshot())
    assert "# TYPE enclave_ecalls counter" in text
    assert "proof_get_bytes_bucket" in text


def test_ycsb_cli_metrics_out_json(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    rc = main([
        "ycsb", "--records", "300", "--ops", "150",
        "--factor", "0.000244", "--metrics-out", str(out),
    ])
    assert rc == 0
    dump = json.loads(out.read_text())
    assert set(dump) == {"metrics", "spans", "events"}
    metrics = dump["metrics"]

    def total(name):
        return sum(s["value"] for s in metrics[name]["series"])

    assert total("enclave.ecalls") > 0
    proof = metrics["proof.get.bytes"]["series"][0]
    assert proof["count"] > 0
    assert sum(proof["counts"]) == proof["count"]
    assert "lsm.compaction.duration_us" in metrics
    assert total("cache.hits") + total("cache.misses") > 0
    span_names = {s["name"] for s in dump["spans"]}
    assert {"ycsb.load", "ycsb.run"} <= span_names
    assert "ycsb.op.latency_us" in metrics
    assert "metrics written to" in capsys.readouterr().out


def test_ycsb_cli_metrics_out_prometheus(tmp_path):
    out = tmp_path / "metrics.prom"
    rc = main([
        "ycsb", "--records", "200", "--ops", "80",
        "--factor", "0.000244", "--metrics-out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "# TYPE enclave_ecalls counter" in text
    assert "# HELP" in text
