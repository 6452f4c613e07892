"""Tests of the benchmark itself: load model, oracle and catalog."""

from pathlib import Path

import numpy as np
import pytest

import catalog
import harness
import oracle
import workloads
from repro.deploy import ResilienceConfig
from repro.serving_shard import ShardConfig
from repro.service import RTPService


class FakeTime:
    """A clock that only moves when slept on or worked against."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Open loop: latency from the intended arrival
# ----------------------------------------------------------------------
def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    fake = FakeTime()
    service_s = [0.050, 0.001, 0.001, 0.001]       # the first one stalls
    answered = {}

    def send(i, due):
        fake.now += service_s[i]
        answered[i] = fake.now

    result = harness.run_open_loop([0.0, 0.010, 0.020, 0.030], send,
                                   clock=fake.clock, sleep=fake.sleep,
                                   lead_s=0.0)
    latency_ms = [(answered[i] - due) * 1000.0
                  for i, due in enumerate(result.intended)]
    service_ms = [(answered[i] - sent) * 1000.0
                  for i, sent in enumerate(result.sent)]
    # Request 1 was due at 10 ms but could only be sent at 50 ms: its
    # latency counts those 40 ms although it took 1 ms to serve.
    assert service_ms[1] == pytest.approx(1.0)
    assert latency_ms[1] == pytest.approx(41.0)
    assert latency_ms[3] == pytest.approx(23.0)
    assert result.lags_ms[1:] == pytest.approx([40.0, 31.0, 22.0])
    assert result.backlog_peak == 3      # requests 1-3 all due at 50 ms


def test_open_loop_sleeps_rather_than_spins_until_due():
    fake = FakeTime()
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        fake.sleep(seconds)

    result = harness.run_open_loop([0.0, 0.5], lambda i, due: None,
                                   clock=fake.clock, sleep=sleep, lead_s=0.0)
    assert result.lags_ms == pytest.approx([0.0, 0.0])
    assert sum(sleeps) == pytest.approx(0.5)


def test_workload_latency_is_answer_minus_intended_arrival():
    class Stub(workloads.ServingWorkload):
        pass

    stub = Stub(workloads.RunContext(1, 1.0, False, Path(".")))
    stub.requests = [type("R", (), {"num_locations": 2})()]
    stub.keys = [0]
    expected = [oracle.Expected(np.array([0, 1]), np.array([1.0, 2.0]))]
    response = type("Resp", (), {"degraded": False,
                                 "route": np.array([0, 1]),
                                 "eta_minutes": np.array([1.0, 2.0])})()
    record = workloads.Record(0, due=10.0, sent=10.040, answered=10.041,
                              response=response)
    latencies = []
    out = workloads.Outcome()
    stub._judge([record], expected, out, latencies)
    assert latencies == pytest.approx([41.0])
    assert out.failed == 0


def test_closed_loop_never_exceeds_its_outstanding_count():
    in_flight = []
    peak = []

    def submit(item):
        in_flight.append(item)
        peak.append(len(in_flight))
        return item

    def wait(handle):
        in_flight.remove(handle)

    harness.run_closed_loop(range(50), 4, submit, wait)
    assert max(peak) == 4 and not in_flight


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """One request, its oracle answer (spawned pool) and a served answer."""
    ctx = workloads.RunContext(3, 1.0, False, Path("."), min_requests=4)
    wave = workloads.WaveBatched(ctx)
    wave.build_inputs()
    requests = wave.distinct[:4]
    model = workloads.build_model()
    expected = oracle.compute_oracle(dict(model.config.__dict__),
                                     model.state_dict(), requests)
    responses = RTPService(model).handle_batch(requests)
    return requests, expected, responses


def test_oracle_accepts_the_served_answers(served):
    requests, expected, responses = served
    for request, want, response in zip(requests, expected, responses):
        assert oracle.check_answer(response, want,
                                   request.num_locations) is None


@pytest.mark.parametrize("corruption", [
    "swap_route", "duplicate_stop", "eta_drift", "eta_nan", "degraded",
    "short_route"])
def test_oracle_counts_a_corrupted_response_as_failed(served, corruption):
    requests, expected, responses = served
    index = max(range(len(requests)),
                key=lambda i: requests[i].num_locations)
    response = responses[index]
    route = np.array(response.route)
    eta = np.array(response.eta_minutes, dtype=float)
    if corruption == "swap_route":
        route[[0, 1]] = route[[1, 0]]
    elif corruption == "duplicate_stop":
        route[1] = route[0]
    elif corruption == "eta_drift":
        eta[-1] += 2 * oracle.ETA_TOL
    elif corruption == "eta_nan":
        eta[0] = np.nan
    elif corruption == "short_route":
        route = route[:-1]
    bad = type(response)(**{**response.__dict__, "route": route,
                            "eta_minutes": eta})
    if corruption == "degraded":
        bad.degraded, bad.degraded_reason = True, "deadline"
    out = workloads.Outcome()
    assert not out.judge(bad, expected[index],
                         requests[index].num_locations)
    assert (out.attempted, out.failed) == (1, 1)
    assert out.judge(response, expected[index],
                     requests[index].num_locations)
    assert (out.attempted, out.failed) == (2, 1)


def test_an_exception_counts_as_failed():
    out = workloads.Outcome()
    assert not out.judge(RuntimeError("boom"), None, 3)
    assert out.failed == 1
    assert "exception:RuntimeError" in out.reasons


# ----------------------------------------------------------------------
# Saturate sheds nothing at its outstanding count
# ----------------------------------------------------------------------
def test_outstanding_counts_stay_below_every_admission_bound():
    # A shard's depth is its in-flight count; all outstanding requests
    # may land on one shard.
    assert workloads.ShardedPoll.outstanding < ShardConfig().max_queue_depth
    # The wave's flushes see at most one wave queued in the batcher.
    assert workloads.WaveBatched.outstanding < \
        ResilienceConfig().max_queue_depth
    assert workloads.B1Steady.outstanding == 1


def test_sharded_saturate_sheds_nothing(tmp_path):
    # One saturate block sends at least min_saturate / ROUNDS requests.
    ctx = workloads.RunContext(5, 0.4, False, tmp_path, min_requests=50,
                               min_saturate=50 * workloads.ROUNDS)
    shard = workloads.ShardedPoll(ctx)
    shard.build_inputs()
    system = shard.setup(0)
    try:
        indices = list(range(len(shard.requests)))
        records = shard.saturate(system, shard.saturate_stream(indices, 0))
        stats = system["router"].shard_stats()
        workers = system["router"].worker_stats()
    finally:
        shard.teardown(system)
    assert len(records) >= 50
    assert sum(s["shed"] for s in stats) == 0
    assert all(not r.response.degraded for r in records)
    assert sum(w["resilient"]["degraded"] for w in workers) == 0


# ----------------------------------------------------------------------
# Block selection by host speed
# ----------------------------------------------------------------------
def test_calmest_ranks_by_probe_plus_steal_in_run_order():
    steal = [0.0, 0.03, 0.0, 0.0, 0.0]      # 30 ms of steal counts as 3 ms
    probe = [5.0, 3.0, 9.0, 4.0, 3.5]
    assert harness.calmest(steal, probe, 3) == [0, 3, 4]
    assert harness.calmest([0.0, 0.0], [1.0, 2.0], 5) == [0, 1]


def test_speed_factor_is_the_mean_of_reference_over_probe():
    # Half the time at full speed, half at half speed: the work done is
    # 0.75 of what the reference host does in the same time.
    assert harness.speed_factor([4.0, 8.0], 4.0) == pytest.approx(0.75)
    assert harness.speed_factor([], 4.0) == 1.0


def test_probe_cost_counts_only_the_overlap_with_the_span():
    samples = [harness.Sample(1.000, 4.0, 0.002, 0.002),
               harness.Sample(1.500, 4.0, 0.002, 0.002),
               harness.Sample(2.000, 4.0, 0.002, 0.002)]
    assert harness.probe_cost_s(samples, 1.001, 1.6) == pytest.approx(0.003)
    assert harness.probe_cost_s(samples, 0.0, 0.5) == 0.0


def test_host_sampler_reads_only_while_started():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = harness.HostSampler(interval_s=0.01, steps=5)
    with sampler:
        until = time.perf_counter() + 0.1
        while time.perf_counter() < until:
            pass
    taken = sampler.take()
    time.sleep(0.05)
    assert len(taken) >= 3
    assert all(s.probe_ms > 0 and s.wall_s > 0 for s in taken)
    assert sampler.take() == []
    assert signal.getsignal(signal.SIGALRM) is before


def test_epoch_clock_takes_its_readings_out_of_the_epochs(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(workloads, "clock", fake.clock)
    monkeypatch.setattr(harness, "self_cpu_s", lambda: fake.now / 2)

    class FakeSampler:
        def __init__(self):
            self.pending = []
            self.running = False

        def start(self):
            self.running = True

        def stop(self):
            self.running = False

        def take(self):
            taken, self.pending = self.pending, []
            return taken

    sampler = FakeSampler()
    epoch_clock = workloads.EpochClock(sampler)
    epoch_clock.log("online_epoch", epoch=0)    # not started: ignored
    epoch_clock.start()
    assert sampler.running
    reading = harness.Sample
    for seconds, samples in (
            (3.5, [reading(0, 4.0, 0.010, 0.005)]),   # not an epoch
            (2.0, [reading(0, 4.0, 0.010, 0.004),
                   reading(0, 8.0, 0.010, 0.004)]),
            (2.5, [reading(0, 2.0, 0.020, 0.010)])):
        fake.now += seconds
        sampler.pending = samples
        epoch_clock.log("online_epoch", epoch=0)
    epoch_clock.log("online_rollback")          # other events: ignored
    epoch_clock.stop()
    assert not sampler.running
    epoch_clock.log("online_epoch", epoch=0)    # stopped: ignored
    # Wall and CPU (half the wall here) less the readings' own; speed
    # factors 4/4 and 4/8 -> 0.75, and 4/2 -> 2.0.
    assert epoch_clock.epochs() == pytest.approx(
        [(1.98, 0.992, 0.75), (2.48, 1.24, 2.0)])


# ----------------------------------------------------------------------
# BENCHMARK.json, the catalog and the drivers agree
# ----------------------------------------------------------------------
def test_every_benchmark_name_has_a_why_and_a_driver():
    assert set(catalog.END_TO_END) == set(catalog.END_TO_END_WHY)
    assert set(catalog.PER_LAYER) == set(catalog.PER_LAYER_WHY)
    assert list(workloads.WORKLOAD_CLASSES) == list(catalog.WORKLOADS)
    assert catalog.SPEC["command"] == ["python3", "perfbench/run.py"]
