"""Zone classification: precedence, roles, and config validation."""

from __future__ import annotations

import pytest

from repro.analysis import Zone, ZoneConfig, load_zone_config


def test_exact_match_beats_glob():
    config = ZoneConfig(
        zones={
            Zone.ENCLAVE: ["repro.enc.*"],
            Zone.UNTRUSTED: ["repro.enc.special"],
        }
    )
    assert config.zone_of("repro.enc.special") is Zone.UNTRUSTED
    assert config.zone_of("repro.enc.other") is Zone.ENCLAVE


def test_longest_glob_wins():
    config = ZoneConfig(
        zones={
            Zone.ENCLAVE: ["repro.x.*"],
            Zone.UNTRUSTED: ["repro.x.deep.*"],
        }
    )
    assert config.zone_of("repro.x.deep.mod") is Zone.UNTRUSTED
    assert config.zone_of("repro.x.shallow") is Zone.ENCLAVE


def test_unmatched_module_is_neutral():
    config = ZoneConfig(zones={Zone.ENCLAVE: ["repro.enc.*"]})
    assert config.zone_of("repro.lsm.db") is Zone.NEUTRAL
    # A glob does not match its own prefix.
    assert config.zone_of("repro.enc") is Zone.NEUTRAL


def test_is_fail_closed_covers_enclave_zone_and_role():
    config = ZoneConfig(
        zones={Zone.ENCLAVE: ["repro.enc.*"]},
        fail_closed=["repro.core.wire"],
    )
    assert config.is_fail_closed("repro.enc.verifier")
    assert config.is_fail_closed("repro.core.wire")
    assert not config.is_fail_closed("repro.lsm.db")


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text("[zones]\nenclave = []\n\n[roles]\nbogus = []\n")
    with pytest.raises(ValueError, match="roles.bogus"):
        load_zone_config(path)


def test_load_rejects_unknown_zone_name(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text("[zones]\nhyperspace = ['repro.*']\n")
    with pytest.raises(ValueError):
        load_zone_config(path)


def test_load_roundtrip(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text(
        "[zones]\n"
        "enclave = ['repro.enc.*']\n"
        "untrusted = ['repro.host.*']\n"
        "[roles]\n"
        "fail_closed = ['repro.fc']\n"
        "wire = ['repro.wireish']\n"
        "crash_plan = 'repro.plan'\n"
        "crash_catchers = ['repro.catcher']\n"
        "[telemetry]\n"
        "doc = 'docs/obs.md'\n"
        "name_pattern = '^[a-z.]+$'\n"
    )
    config = load_zone_config(path)
    assert config.zone_of("repro.enc.a") is Zone.ENCLAVE
    assert config.zone_of("repro.host.b") is Zone.UNTRUSTED
    assert config.crash_plan == "repro.plan"
    assert config.crash_catchers == ["repro.catcher"]
    assert config.telemetry_doc == "docs/obs.md"
    assert config.metric_name_pattern == "^[a-z.]+$"


@pytest.mark.parametrize(
    "name, tables",
    [
        ("zones.toml", ("zones", "roles", "telemetry")),
        ("costs.toml", ("operation",)),
    ],
    ids=["zones.toml", "costs.toml"],
)
def test_toml_subset_fallback_matches_tomllib(name, tables):
    """The 3.10 fallback parser agrees with tomllib on the real configs,
    dotted table headers (``[operation.put]``) included."""
    from pathlib import Path

    import repro.analysis.zones as zones_mod

    text = (Path(__file__).resolve().parents[2] / "analysis" / name).read_text()
    parsed = zones_mod._parse_toml_subset(text)
    if zones_mod.tomllib is not None:
        import tomllib

        assert parsed == tomllib.loads(text)
    assert all(table in parsed for table in tables)


def test_repo_zone_config_classifies_core_modules():
    """Sanity-check the checked-in zones.toml against the real layout."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    config = load_zone_config(root / "analysis" / "zones.toml")
    assert config.zone_of("repro.core.verifier") is Zone.ENCLAVE
    assert config.zone_of("repro.mht.merkle") is Zone.ENCLAVE
    assert config.zone_of("repro.core.prover") is Zone.UNTRUSTED
    assert config.zone_of("repro.sim.disk") is Zone.UNTRUSTED
    assert config.zone_of("repro.sgx.env") is Zone.BOUNDARY
    assert config.zone_of("repro.lsm.records") is Zone.NEUTRAL
    assert config.is_fail_closed("repro.core.wire")
