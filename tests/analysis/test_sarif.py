"""``lint --sarif-out``: the SARIF 2.1.0 export of new and baselined findings."""

from __future__ import annotations

import json

from repro.analysis import Severity
from repro.analysis.model import Finding
from repro.analysis.sarif import FINGERPRINT_KEY, sarif_report
from repro.cli import main


def test_sarif_out_maps_levels_rules_fingerprints_and_suppressions(
    project, tmp_path, capsys
):
    root = str(project.root)
    # An error-severity finding, accepted into the baseline ...
    project.add_module("enc.verifier", "from repro.host.prover import Prover\n")
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    # ... and a new warning-severity one on top of it.
    project.add_module(
        "meter",
        """
        def setup(telemetry):
            return telemetry.counter("undocumented.metric", "a counter")
        """,
    )
    out_path = tmp_path / "lint.sarif"
    # The new finding fails the run; the report is written all the same.
    assert main(["lint", "--root", root, "--sarif-out", str(out_path)]) == 1
    capsys.readouterr()

    log = json.loads(out_path.read_text())
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    rules = run["tool"]["driver"]["rules"]
    results = {r["ruleId"]: r for r in run["results"]}
    assert sorted(results) == ["EL101", "EL402"]

    baselined, new = results["EL101"], results["EL402"]
    assert baselined["level"] == "error"
    assert new["level"] == "warning"
    for result in (baselined, new):
        rule = rules[result["ruleIndex"]]
        assert rule["id"] == result["ruleId"]
        assert rule["defaultConfiguration"]["level"] == result["level"]
        fingerprint = result["partialFingerprints"][FINGERPRINT_KEY]
        assert len(fingerprint) == 16

    baseline = json.loads((project.root / "analysis" / "baseline.json").read_text())
    assert baselined["partialFingerprints"][FINGERPRINT_KEY] in json.dumps(baseline)
    assert [s["kind"] for s in baselined["suppressions"]] == ["external"]
    assert "suppressions" not in new
    location = new["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/meter.py"


def test_sarif_info_severity_is_a_note():
    finding = Finding(
        rule="EL104", severity=Severity.INFO, path="src/repro/x.py", line=0, message="gap"
    )
    (result,) = sarif_report([finding])["runs"][0]["results"]
    assert result["level"] == "note"
    assert result["partialFingerprints"][FINGERPRINT_KEY] == finding.fingerprint
    # Line 0 (module-level) is clamped to SARIF's 1-based minimum.
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 1
