"""The group-commit perf profile: acceptance bars and gating logic."""

from repro.bench.group_commit import (
    GROUP_SIZE,
    MIN_SPEEDUP_X,
    acceptance_problems,
    format_result,
    run_group_commit_baseline,
)
from repro.bench.perf_baseline import (
    acceptance_problems as dispatch_acceptance,
    regression_problems,
)


def test_profile_meets_the_tentpole_bar():
    """The committed claim: >= 3x fewer simulated us/PUT at group 64."""
    result = run_group_commit_baseline()
    assert result["profile"] == "group-commit"
    assert result["group_size"] == GROUP_SIZE == 64
    assert result["identical_results"] is True
    assert result["speedup_x"] >= MIN_SPEEDUP_X >= 3.0
    assert result["grouped_fsyncs"] < result["sequential_fsyncs"]
    assert result["memtable_rotations"] >= 1
    assert result["background_flush_us"] > 0.0
    assert acceptance_problems(result) == []
    # perf_baseline dispatches by profile name to the same checks.
    assert dispatch_acceptance(result) == []
    assert "speedup" in format_result(result)


def test_acceptance_rejects_slow_or_divergent_results():
    bad = {
        "profile": "group-commit",
        "group_size": GROUP_SIZE,
        "speedup_x": MIN_SPEEDUP_X - 0.5,
        "identical_results": False,
    }
    problems = acceptance_problems(bad)
    assert len(problems) == 2
    assert any("differ" in p for p in problems)
    assert any("below" in p for p in problems)


def test_regression_gate_compares_batch_us_to_committed_row(tmp_path):
    """The simulated clock is deterministic: the gate is exact equality."""
    import json

    row = {
        "profile": "group-commit",
        "group_size": GROUP_SIZE,
        "batch_us": 1000.0,
        "speedup_x": 3.4,
        "identical_results": True,
    }
    baseline = tmp_path / "BENCH_perf.json"
    baseline.write_text(
        json.dumps({"schema": 1, "profiles": {"group-commit": row}})
    )
    current = dict(row)
    assert regression_problems(str(baseline), current) == []
    current["batch_us"] = 1000.1  # a 0.1 us drift is a real code change
    problems = regression_problems(str(baseline), current)
    assert problems == ["batch_us 1000.1 differs from committed 1000.0"]
    # Every field counts, not just batch_us — including a faster one.
    current = dict(row, batch_us=999.9, groups_submitted=32)
    problems = regression_problems(str(baseline), current)
    assert len(problems) == 2
    assert any(p.startswith("groups_submitted 32") for p in problems)
    # A baseline missing the profile row is itself a failure.
    empty = tmp_path / "EMPTY.json"
    empty.write_text(json.dumps({"schema": 1, "profiles": {}}))
    assert regression_problems(str(empty), current)
