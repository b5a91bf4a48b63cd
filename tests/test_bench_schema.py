"""The benchmark report's schema gate (exercised by CI's --quick job)."""

import json
from pathlib import Path

import pytest

from benchmarks.report import (
    REQUIRED_SECTIONS,
    parallel_floor_verdict,
    validate_checked_in,
    validate_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = REPO_ROOT / "BENCH_hotpath.json"


def minimal_valid_report():
    """The checked-in report, as a mutable fixture base."""
    return json.loads(CHECKED_IN.read_text())


class TestValidateReport:
    def test_checked_in_report_is_current_schema(self):
        assert validate_checked_in(CHECKED_IN) == []

    @pytest.mark.parametrize("section", sorted(REQUIRED_SECTIONS))
    def test_missing_section_is_a_regression(self, section):
        report = minimal_valid_report()
        del report[section]
        problems = validate_report(report)
        assert any(f"missing section {section!r}" in p for p in problems)

    def test_missing_faults_key_is_a_regression(self):
        report = minimal_valid_report()
        del report["faults"]["dia"]
        problems = validate_report(report)
        assert any("faults" in p and "dia" in p for p in problems)

    def test_failed_fault_guard_is_a_regression(self):
        report = minimal_valid_report()
        report["faults"]["dia"]["graceful_ok"] = False
        problems = validate_report(report)
        assert any("faults.dia" in p and "envelope" in p for p in problems)

    def test_nondeterministic_faults_are_a_regression(self):
        report = minimal_valid_report()
        report["faults"]["javanote"]["deterministic"] = False
        problems = validate_report(report)
        assert any("faults.javanote" in p and "bit-identical" in p
                   for p in problems)

    def test_parallel_floor_miss_is_a_regression(self):
        report = minimal_valid_report()
        report["replay_parallel"]["floor_ok"] = False
        problems = validate_report(report)
        assert any("replay_parallel" in p and "below the floor" in p
                   for p in problems)

    def test_parallel_fingerprint_divergence_is_a_regression(self):
        report = minimal_valid_report()
        report["replay_parallel"]["fingerprint_parity"] = False
        problems = validate_report(report)
        assert any("fingerprints diverged" in p for p in problems)

    def test_missing_parallel_key_is_a_regression(self):
        report = minimal_valid_report()
        del report["replay_parallel"]["columnar_speedup"]
        problems = validate_report(report)
        assert any("replay_parallel" in p and "columnar_speedup" in p
                   for p in problems)

    def test_fleet_fairness_miss_is_a_regression(self):
        report = minimal_valid_report()
        report["fleet"]["fairness_ok"] = False
        report["fleet"]["fairness_ratio"] = 9.99
        problems = validate_report(report)
        assert any("fleet" in p and "9.99" in p and "exceeds" in p
                   for p in problems)

    def test_fleet_fingerprint_drift_is_a_regression(self):
        report = minimal_valid_report()
        report["fleet"]["fingerprint_stable"] = False
        problems = validate_report(report)
        assert any("fleet" in p and "worker count" in p for p in problems)

    def test_missing_fleet_key_is_a_regression(self):
        report = minimal_valid_report()
        del report["fleet"]["fairness_ratio"]
        problems = validate_report(report)
        assert any("'fleet'" in p and "fairness_ratio" in p
                   for p in problems)


class TestMobilityGate:
    def test_handoff_losing_to_no_action_is_a_regression(self):
        report = minimal_valid_report()
        report["mobility"]["handoff_beats_no_action"] = False
        problems = validate_report(report)
        assert any("mobility" in p and "riding out" in p for p in problems)

    def test_handoff_losing_to_repatriation_is_a_regression(self):
        report = minimal_valid_report()
        report["mobility"]["handoff_beats_repatriate"] = False
        problems = validate_report(report)
        assert any("mobility" in p and "handoff did not beat" in p
                   for p in problems)

    def test_completion_bound_miss_names_the_ratio(self):
        report = minimal_valid_report()
        report["mobility"]["completion_bound_ok"] = False
        report["mobility"]["handoff_vs_static_ratio"] = 7.77
        problems = validate_report(report)
        assert any("mobility" in p and "7.77" in p for p in problems)

    def test_handoff_fingerprint_divergence_is_a_regression(self):
        report = minimal_valid_report()
        report["mobility"]["fingerprint_parity"] = False
        problems = validate_report(report)
        assert any("mobility" in p and "serial/columnar/sharded" in p
                   for p in problems)

    def test_nondeterministic_handoff_is_a_regression(self):
        report = minimal_valid_report()
        report["mobility"]["deterministic"] = False
        problems = validate_report(report)
        assert any("mobility" in p and "bit-identical" in p
                   for p in problems)

    def test_unrecovered_disconnection_is_a_regression(self):
        report = minimal_valid_report()
        report["mobility"]["disconnect_recovered"] = False
        problems = validate_report(report)
        assert any("mobility" in p and "disconnection" in p
                   for p in problems)

    def test_missing_mobility_key_is_a_regression(self):
        report = minimal_valid_report()
        del report["mobility"]["completion_bound_ok"]
        problems = validate_report(report)
        assert any("'mobility'" in p and "completion_bound_ok" in p
                   for p in problems)


class TestWarmColdInversionGate:
    def test_inverted_reeval_size_is_a_regression(self):
        # A steady-state epoch mean above the cold epoch means the warm
        # path lost to recomputing from scratch — the whole point of the
        # incremental session.  The gate must name the offending size.
        report = minimal_valid_report()
        size, stats = sorted(report["reeval"].items())[0]
        stats["steady_epoch_mean_s"] = stats["cold_epoch_s"] * 2.0
        problems = validate_report(report)
        assert any(f"reeval[{size}]" in p and "warm/cold inversion" in p
                   for p in problems)

    def test_every_inverted_size_is_named(self):
        report = minimal_valid_report()
        for stats in report["reeval"].values():
            stats["steady_epoch_mean_s"] = stats["cold_epoch_s"] + 1.0
        problems = validate_report(report)
        inversions = [p for p in problems if "warm/cold inversion" in p]
        assert len(inversions) == len(report["reeval"])

    def test_steady_at_or_below_cold_passes(self):
        report = minimal_valid_report()
        for stats in report["reeval"].values():
            stats["steady_epoch_mean_s"] = stats["cold_epoch_s"]
        problems = validate_report(report)
        assert not any("warm/cold inversion" in p for p in problems)


class TestParallelFloorVerdict:
    def test_missing_floor_reason_is_a_regression(self):
        report = minimal_valid_report()
        del report["replay_parallel"]["floor_reason"]
        problems = validate_report(report)
        assert any("replay_parallel" in p and "floor_reason" in p
                   for p in problems)

    def test_absolute_clause_skipped_below_four_cpus(self):
        # The 5M ev/s absolute target is unreachable by construction on
        # a 1-2 core runner; the clause must be skipped (None), not
        # reported as a miss, and the machine-robust clauses still gate.
        verdict = parallel_floor_verdict(
            aggregate_eps=10_000_000.0, serial_eps=1_000_000.0,
            columnar_eps=9_000_000.0, cpus=2)
        assert verdict["meets_absolute_floor"] is None
        assert verdict["floor_reason"] == "serial-multiple"
        assert verdict["floor_ok"]

    def test_absolute_clause_wins_on_big_boxes(self):
        verdict = parallel_floor_verdict(
            aggregate_eps=6_000_000.0, serial_eps=1_000_000.0,
            columnar_eps=5_000_000.0, cpus=8)
        assert verdict["meets_absolute_floor"] is True
        assert verdict["floor_reason"] == "absolute"
        assert verdict["floor_ok"]

    def test_columnar_retention_clause(self):
        # Below both the absolute target and 5x serial, but columnar
        # replay beats a one-shot row replay and sharding retains its
        # throughput — the loaded-runner escape hatch.
        verdict = parallel_floor_verdict(
            aggregate_eps=1_300_000.0, serial_eps=1_000_000.0,
            columnar_eps=1_400_000.0, cpus=2)
        assert verdict["floor_reason"] == "columnar-retention"
        assert verdict["floor_ok"]

    def test_floor_miss_names_no_clause(self):
        verdict = parallel_floor_verdict(
            aggregate_eps=500_000.0, serial_eps=1_000_000.0,
            columnar_eps=900_000.0, cpus=8)
        assert verdict["meets_absolute_floor"] is False
        assert verdict["floor_reason"] == "none"
        assert not verdict["floor_ok"]

    def test_zero_rates_do_not_divide_by_zero(self):
        verdict = parallel_floor_verdict(
            aggregate_eps=0.0, serial_eps=0.0, columnar_eps=0.0, cpus=8)
        assert verdict["floor_reason"] == "none"
        assert not verdict["floor_ok"]


class TestValidateCheckedIn:
    def test_missing_file_names_the_fix(self, tmp_path):
        problems = validate_checked_in(tmp_path / "BENCH_hotpath.json")
        assert len(problems) == 1
        assert "missing" in problems[0]
        assert "python -m benchmarks.report" in problems[0]

    def test_unparseable_file_is_reported(self, tmp_path):
        path = tmp_path / "BENCH_hotpath.json"
        path.write_text("{not json")
        problems = validate_checked_in(path)
        assert len(problems) == 1
        assert "not valid JSON" in problems[0]

    def test_non_object_payload_is_reported(self, tmp_path):
        path = tmp_path / "BENCH_hotpath.json"
        path.write_text("[1, 2, 3]")
        assert "not a JSON object" in validate_checked_in(path)[0]

    def test_stale_schema_points_at_regeneration(self, tmp_path):
        # A report from before the faults section existed must fail
        # with an actionable message — this is the SCHEMA REGRESSION
        # path the CI smoke job enforces.
        report = minimal_valid_report()
        del report["faults"]
        path = tmp_path / "BENCH_hotpath.json"
        path.write_text(json.dumps(report))
        problems = validate_checked_in(path)
        assert any("missing section 'faults'" in p for p in problems)
        assert all("regenerate with" in p for p in problems)
