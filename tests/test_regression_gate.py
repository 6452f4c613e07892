"""The benchmark regression gate: exact-count diffs, p99 tolerance
bands, drift-alarm pinning and the --update bless flow."""

import copy
import importlib.util
import json
import pathlib

import pytest

_GATE_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "benchmarks" / "check_regression.py")
_spec = importlib.util.spec_from_file_location("check_regression",
                                               _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def artifact(p99=20.0, requests=80, degraded=0, passed=True,
             decisions=(), quality=None):
    result = {
        "scenario": "steady",
        "totals": {"requests": requests, "degraded": degraded,
                   "shed": 0, "breaker_opens": 0, "errors": 0,
                   "invalid_responses": 0},
        "slo": {"passed": passed, "p99_ms": p99},
        "decisions": [dict(d) for d in decisions],
    }
    if quality is not None:
        result["quality"] = copy.deepcopy(quality)
    return result


def compare(current, baseline):
    errors, warnings = [], []
    gate.compare_artifact("steady", current, baseline, errors, warnings)
    return errors, warnings


class TestCompare:
    def test_identical_artifacts_pass(self):
        errors, warnings = compare(artifact(), artifact())
        assert errors == [] and warnings == []

    def test_count_change_is_exact_failure(self):
        errors, _ = compare(artifact(requests=81), artifact(requests=80))
        assert any("totals.requests" in e for e in errors)

    def test_p99_within_band_passes(self):
        errors, _ = compare(artifact(p99=23.0), artifact(p99=20.0))
        assert errors == []

    def test_p99_outside_band_fails(self):
        errors, _ = compare(artifact(p99=40.0), artifact(p99=20.0))
        assert any("p99" in e for e in errors)

    def test_p99_near_band_edge_warns(self):
        # Band is max(10%, 5ms) = 5ms for a 20ms baseline; 3.5ms over
        # is within the band but past half of it.
        errors, warnings = compare(artifact(p99=23.5), artifact(p99=20.0))
        assert errors == []
        assert any("drifting" in w for w in warnings)

    def test_verdict_flip_fails(self):
        errors, _ = compare(artifact(passed=False), artifact(passed=True))
        assert any("verdict" in e for e in errors)

    def test_decision_sequence_pinned(self):
        errors, _ = compare(
            artifact(decisions=[{"action": "rollback"}]),
            artifact(decisions=[{"action": "promote"}]))
        assert any("decisions" in e for e in errors)

    def test_decision_version_pinned(self):
        # Same verb, wrong version: a promote of v002 where the blessed
        # run promoted v003 must fail the gate.
        errors, _ = compare(
            artifact(decisions=[{"action": "promote", "version": "v002"}]),
            artifact(decisions=[{"action": "promote", "version": "v003"}]))
        assert any("decisions" in e for e in errors)

    def test_shard_queue_peak_pinned(self):
        shard = {"shard": 0, "requests": 40, "shed": 2, "respawns": 0,
                 "swaps": 0, "queue_peak": 16, "p99_ms": 20.0}
        current, baseline = artifact(), artifact()
        current["shards"] = [dict(shard, queue_peak=17)]
        baseline["shards"] = [shard]
        errors, _ = compare(current, baseline)
        assert any("per-shard counters" in e for e in errors)

    def test_drift_alarms_pinned(self):
        quality = {"verdict": "drift", "observations": 80,
                   "alarms": [{"metric": "eta_mae",
                               "detector": "page_hinkley",
                               "observations": 25}]}
        moved = copy.deepcopy(quality)
        moved["alarms"][0]["observations"] = 26
        errors, _ = compare(artifact(quality=moved),
                            artifact(quality=quality))
        assert any("drift alarms" in e for e in errors)

    def test_quality_block_vanishing_fails(self):
        quality = {"verdict": "stable", "observations": 80, "alarms": []}
        errors, _ = compare(artifact(), artifact(quality=quality))
        assert any("quality block" in e for e in errors)


class TestRunFlow:
    @pytest.fixture
    def dirs(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        monkeypatch.setattr(gate, "RESULTS_DIR", results)
        monkeypatch.setattr(gate, "BASELINES_DIR", baselines)
        return results, baselines

    def write(self, directory, name, data):
        (directory / name).write_text(json.dumps(data))

    def test_missing_baselines_dir_fails(self, dirs, capsys):
        results, _ = dirs
        self.write(results, "load_steady_smoke.json", artifact())
        assert gate.run() == 2
        assert "::error::" in capsys.readouterr().out

    def test_update_blesses_then_gate_passes(self, dirs, capsys):
        results, baselines = dirs
        self.write(results, "load_steady_smoke.json", artifact())
        assert gate.run(update=True) == 0
        assert (baselines / "load_steady_smoke.json").exists()
        assert gate.run() == 0
        assert "::error::" not in capsys.readouterr().out

    def test_regression_fails_with_annotation(self, dirs, capsys):
        results, baselines = dirs
        self.write(results, "load_steady_smoke.json", artifact())
        assert gate.run(update=True) == 0
        self.write(results, "load_steady_smoke.json",
                   artifact(p99=200.0, degraded=12))
        assert gate.run() == 1
        out = capsys.readouterr().out
        assert "::error::" in out and "totals.degraded" in out

    def test_new_scenario_without_baseline_warns_only(self, dirs, capsys):
        results, baselines = dirs
        self.write(results, "load_steady_smoke.json", artifact())
        assert gate.run(update=True) == 0
        self.write(results, "load_new_smoke.json", artifact())
        assert gate.run() == 0
        assert "::warning::" in capsys.readouterr().out

    def test_vanished_scenario_fails(self, dirs, capsys):
        results, baselines = dirs
        self.write(results, "load_steady_smoke.json", artifact())
        self.write(results, "load_surge_smoke.json", artifact())
        assert gate.run(update=True) == 0
        (results / "load_surge_smoke.json").unlink()
        assert gate.run() == 1
        assert "no artifact" in capsys.readouterr().out
