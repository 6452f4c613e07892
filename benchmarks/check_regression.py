"""Perf/quality regression gate for the smoke load-scenario artifacts.

Diffs the freshly produced ``benchmarks/results/load_*_smoke.json``
artifacts against the blessed copies in ``benchmarks/baselines/``.
Smoke runs use the deterministic virtual clock, so the behavioural
counters (requests, degraded, shed, breaker opens, decisions as
``(action, version)`` pairs, drift alarms, per-shard counts and queue
peaks) must match the baseline
*exactly*; only the latency percentile gets a tolerance band (simulated
service time has a seeded jitter, but host scheduling can still move
the tail by a fraction of a millisecond).

Failures are printed as GitHub Actions ``::error`` annotations (and
soft tolerance exceedances as ``::warning``), so a regressing PR shows
the exact counter and delta on the workflow summary.  ``--update``
blesses the current results as the new baselines — commit the diff
when a behaviour change is intentional.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from typing import Dict, List

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"

#: Relative + absolute tolerance for the p99 latency comparison.
P99_REL_TOL = 0.10
P99_ABS_TOL_MS = 5.0

#: totals[...] counters that must match the baseline exactly.
EXACT_TOTALS = ("requests", "degraded", "shed", "breaker_opens",
                "errors", "invalid_responses")

#: shards[...] fields that must match the baseline exactly; the queue
#: peak is the admission depth the virtual timeline reached.
EXACT_SHARD_FIELDS = ("shard", "requests", "shed", "respawns", "swaps",
                      "queue_peak")


def _annotate(level: str, message: str) -> None:
    """Print a plain line plus a GitHub workflow annotation."""
    print(f"{level.upper()}: {message}")
    print(f"::{level}::{message}")


def compare_artifact(name: str, current: Dict, baseline: Dict,
                     errors: List[str], warnings: List[str]) -> None:
    """Append human-readable findings for one scenario's artifact pair."""
    for key in EXACT_TOTALS:
        got = current["totals"].get(key)
        want = baseline["totals"].get(key)
        if got != want:
            errors.append(
                f"{name}: totals.{key} changed {want} -> {got} "
                f"(smoke runs are deterministic; counts must not move)")

    got_verdict = current["slo"]["passed"]
    want_verdict = baseline["slo"]["passed"]
    if got_verdict != want_verdict:
        errors.append(
            f"{name}: SLO verdict changed "
            f"{'PASS' if want_verdict else 'FAIL'} -> "
            f"{'PASS' if got_verdict else 'FAIL'}")

    got_p99 = float(current["slo"]["p99_ms"])
    want_p99 = float(baseline["slo"]["p99_ms"])
    band = max(P99_REL_TOL * want_p99, P99_ABS_TOL_MS)
    delta = got_p99 - want_p99
    if abs(delta) > band:
        errors.append(
            f"{name}: p99 latency {want_p99:.1f}ms -> {got_p99:.1f}ms "
            f"({delta:+.1f}ms, tolerance ±{band:.1f}ms)")
    elif abs(delta) > 0.5 * band:
        warnings.append(
            f"{name}: p99 latency drifting {want_p99:.1f}ms -> "
            f"{got_p99:.1f}ms ({delta:+.1f}ms, within ±{band:.1f}ms band)")

    # Decisions are pinned as (action, version): promoting or rolling
    # back the wrong version is as much a regression as the wrong verb.
    got_decisions = [(d["action"], d.get("version"))
                     for d in current.get("decisions", [])]
    want_decisions = [(d["action"], d.get("version"))
                      for d in baseline.get("decisions", [])]
    if got_decisions != want_decisions:
        errors.append(
            f"{name}: deployment decisions changed "
            f"{want_decisions} -> {got_decisions}")

    # The (phase, event) sequence is pinned: shed onsets, shard kills,
    # respawns, corruption rejections and drift rollbacks must fire in
    # the same phase and order every run (details carry free text like
    # tempdir paths and are not compared).
    got_events = [(e["phase"], e["event"])
                  for e in current.get("events", [])]
    want_events = [(e["phase"], e["event"])
                   for e in baseline.get("events", [])]
    if got_events != want_events:
        errors.append(
            f"{name}: event sequence changed "
            f"{want_events} -> {got_events}")

    got_shards = current.get("shards")
    want_shards = baseline.get("shards")
    if (got_shards is None) != (want_shards is None):
        errors.append(f"{name}: shards block "
                      f"{'appeared' if want_shards is None else 'vanished'}")
    elif got_shards is not None:
        got_counts = [{k: s[k] for k in EXACT_SHARD_FIELDS}
                      for s in got_shards]
        want_counts = [{k: s[k] for k in EXACT_SHARD_FIELDS}
                       for s in want_shards]
        if got_counts != want_counts:
            errors.append(
                f"{name}: per-shard counters changed "
                f"{want_counts} -> {got_counts} (placement, shedding "
                f"and respawn behaviour must stay deterministic)")

    got_quality = current.get("quality")
    want_quality = baseline.get("quality")
    if (got_quality is None) != (want_quality is None):
        errors.append(f"{name}: quality block "
                      f"{'appeared' if want_quality is None else 'vanished'}")
    elif got_quality is not None:
        for key in ("verdict", "observations"):
            if got_quality[key] != want_quality[key]:
                errors.append(
                    f"{name}: quality.{key} changed "
                    f"{want_quality[key]!r} -> {got_quality[key]!r}")
        got_alarms = [(a["metric"], a["detector"], a["observations"])
                      for a in got_quality["alarms"]]
        want_alarms = [(a["metric"], a["detector"], a["observations"])
                       for a in want_quality["alarms"]]
        if got_alarms != want_alarms:
            errors.append(
                f"{name}: drift alarms changed "
                f"{want_alarms} -> {got_alarms} "
                f"(detector behaviour must stay bit-reproducible)")


def run(update: bool = False) -> int:
    results = sorted(RESULTS_DIR.glob("load_*_smoke.json"))
    if not results:
        _annotate("error",
                  "no smoke artifacts in benchmarks/results/ — run "
                  "bench_load_scenarios.py --smoke first")
        return 2

    if update:
        BASELINES_DIR.mkdir(exist_ok=True)
        for path in results:
            shutil.copy(path, BASELINES_DIR / path.name)
            print(f"blessed {path.name}")
        return 0

    if not BASELINES_DIR.exists():
        _annotate("error",
                  "benchmarks/baselines/ missing — bless with "
                  "check_regression.py --update and commit it")
        return 2

    errors: List[str] = []
    warnings: List[str] = []
    for path in results:
        baseline_path = BASELINES_DIR / path.name
        if not baseline_path.exists():
            warnings.append(
                f"{path.name}: new scenario with no baseline — bless it "
                f"with --update so future runs are gated")
            continue
        current = json.loads(path.read_text())
        baseline = json.loads(baseline_path.read_text())
        compare_artifact(current["scenario"], current, baseline,
                         errors, warnings)
    for baseline_path in sorted(BASELINES_DIR.glob("load_*_smoke.json")):
        if not (RESULTS_DIR / baseline_path.name).exists():
            errors.append(
                f"{baseline_path.name}: baseline exists but the scenario "
                f"produced no artifact this run")

    for message in warnings:
        _annotate("warning", message)
    for message in errors:
        _annotate("error", message)
    checked = len(results)
    if errors:
        print(f"\nregression gate FAILED: {len(errors)} finding(s) "
              f"across {checked} artifact(s)")
        return 1
    print(f"regression gate passed: {checked} artifact(s) within "
          f"tolerance ({len(warnings)} warning(s))")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="bless current results as the new baselines")
    args = parser.parse_args()
    return run(update=args.update)


if __name__ == "__main__":
    sys.exit(main())
