"""The four workloads: inputs from the seed, set-up, phases, metrics.

Each serving workload generates its requests from ``--seed`` alone,
answers every distinct one with the oracle, sets the program up, then
runs

* ``steady`` -- an open loop at the workload's fixed rate for
  ``--seconds`` (at least ``min_requests`` requests); latency is taken
  from each request's intended arrival;
* ``saturate`` -- a closed loop replaying the same requests with a
  fixed number outstanding, below every admission bound, for
  ``--seconds / 2`` (at least ``min_saturate`` requests).

The two phases alternate in ``ROUNDS`` rounds.  The latency and CPU
figures come from the ``KEEP`` steady blocks the host disturbed least,
judged by the steal inside each block and a host probe read around it;
the capacity comes from all saturate blocks.  Every timing is scaled
to the host speed at which the probe reads ``REFERENCE_PROBE_MS``, by
the probes read around each block and, where the program works in the
benchmark's main thread (``b1_steady``, ``wave_batched``), all through
both phases.  ``setup_s`` is the median of
``ROUNDS + 1`` set-ups spread over the run.  With ``--trace 1`` only
the steady phase runs, its blocks untraced and traced in turn;
per-layer numbers come from the traced blocks and the tracing overhead
from the difference.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import itertools
import math
import shutil
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import harness
import oracle as oracle_mod
import seams
from catalog import AUTODIFF_OPS, END_TO_END, PER_LAYER

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.core.fallback import FallbackPredictor
from repro.data import GeneratorConfig, SyntheticWorld
from repro.deploy import (DeploymentController, ModelRegistry,
                          ResilienceConfig, ResilientRTPService)
from repro.graphs import GraphBuilder
from repro.obs import tracing
from repro.service import MicroBatcher, RTPRequest, RTPService

#: Latency limit behind ``slo_met_share`` (ms).
SLO_MS = 100.0
#: Fine-tune job budget behind ``slo_met_share`` on finetune (s).
JOB_SLO_S = 60.0
#: The learning rate the program pairs with ``replay_fraction=1.0``
#: (the continual-drift scenario's OnlineTrainer).  The trainer's
#: default, 0.02, ends this job in a NaN loss on about half the seeds.
REPLAY_LR = 0.012
#: The host probe's reading (``harness.host_probe_ms``) that timings
#: are scaled to: about its median on the 2-vCPU host the benchmark was
#: built on, whose speed swung 1.85x between runs.
REFERENCE_PROBE_MS = 4.0
#: How often (s) and how many probe steps the serving workloads' host
#: sampler reads (see ``harness.HostSampler``): about 1.3 ms of every
#: 50 ms, so a reading delays a request by little and often.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_STEPS = 50
#: Rounds each run is cut into (steady and saturate alternate; with
#: ``--trace 1``, untraced and traced steady blocks alternate).
ROUNDS = 24
#: Blocks of each phase the metrics are taken over: those the host
#: disturbed least (see ``harness.calmest``).
KEEP = 12
VERSION = "v001"
clock = time.perf_counter


class RunContext:
    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: Path, min_requests: int = 1200,
                 min_saturate: int = 1000):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.min_requests = min_requests      # steady phase, all rounds
        self.min_saturate = min_saturate      # saturate phase, all rounds
        self.records: List[Dict] = []     # exported span trees
        self.layer_table: List[Dict] = []


class Outcome:
    """Attempted/failed tally plus the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: "collections.Counter" = collections.Counter()
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}

    def judge(self, response, expected, num_locations: int) -> bool:
        self.attempted += 1
        if isinstance(response, BaseException):
            reason = f"exception:{type(response).__name__}"
        else:
            reason = oracle_mod.check_answer(response, expected,
                                             num_locations)
        if reason is None:
            return True
        self.failed += 1
        self.reasons[reason] += 1
        return False

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1


def make_world(seed: int, couriers: int, days: int) -> list:
    return SyntheticWorld(GeneratorConfig(
        num_aois=120, num_couriers=couriers, num_days=days,
        instances_per_courier_day=2, seed=seed)).generate()


def build_model() -> M2G4RTP:
    model = M2G4RTP(M2G4RTPConfig())
    model.eval()
    return model


def register(workdir: Path, tag: str) -> ModelRegistry:
    """Build the served model and register it as the parent version."""
    registry = ModelRegistry(workdir / f"registry-{tag}")
    registry.register(build_model(), version=VERSION,
                      created_at="benchmark")
    return registry


class SetupTimer:
    """Times every set-up of the program; ``setup_s`` is their median.

    The host's speed swings over seconds, so set-ups are spread over the
    run (``spare``: set up, time it, tear down) rather than done back to
    back at its start.
    """

    def __init__(self, setup, teardown):
        self._setup = setup
        self._teardown = teardown
        self.times: List[float] = []

    def __call__(self):
        started = clock()
        system = self._setup(len(self.times))
        self.times.append(clock() - started)
        return system

    def spare(self) -> None:
        self._teardown(self())

    @property
    def median_s(self) -> float:
        return harness.median(self.times)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class Record:
    """One answered request and its times on the benchmark's clock.

    ``due`` is the intended arrival (the send time in a closed loop),
    ``sent`` when the program was handed the request, ``flushed`` when
    its batch started (traced wave runs only).
    """

    __slots__ = ("index", "due", "sent", "answered", "response", "flushed")

    def __init__(self, index, due, sent, answered, response, flushed=None):
        self.index = index
        self.due = due
        self.sent = sent
        self.answered = answered
        self.response = response
        self.flushed = flushed


class ServingWorkload:
    """Shared driver; subclasses define inputs, wiring and sending."""

    name = ""
    rate = 1.0
    outstanding = 1

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        self.requests: List[RTPRequest] = []
        self.keys: List[int] = []         # request -> distinct index
        self.distinct: List[RTPRequest] = []

    # -- inputs ---------------------------------------------------------
    def steady_count(self) -> int:
        return max(self.ctx.min_requests,
                   int(round(self.rate * self.ctx.seconds)))

    def offsets(self, count: int) -> List[float]:
        return [i / self.rate for i in range(count)]

    def build_inputs(self) -> None:
        raise NotImplementedError

    def _distinct_inputs(self, instances: Sequence, count: int) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        order = rng.permutation(len(instances))[:count]
        self.distinct = [RTPRequest.from_instance(instances[i])
                         for i in order]
        self.requests = list(self.distinct)
        self.keys = list(range(len(self.distinct)))

    # -- program wiring (subclasses) ------------------------------------
    def setup(self, index: int):
        raise NotImplementedError

    def teardown(self, system) -> None:
        pass

    def steady_block(self, system, indices: Sequence[int],
                     traced: bool) -> Tuple[List[Record],
                                            harness.OpenLoopResult]:
        raise NotImplementedError

    def saturate(self, system, stream: Iterator[int]) -> List[Record]:
        """Send every index ``stream`` yields, in a closed loop."""
        raise NotImplementedError

    def saturate_stream(self, indices: Sequence[int],
                        start: int) -> Iterator[int]:
        """One saturate block's share: the steady sequence, cycled from
        ``start``, until ``seconds / 2 / ROUNDS`` have passed and at
        least ``min_saturate / ROUNDS`` requests were sent."""
        deadline = clock() + self.ctx.seconds / 2.0 / ROUNDS
        floor = math.ceil(self.ctx.min_saturate / ROUNDS)
        sent = 0
        while sent < floor or clock() < deadline:
            yield indices[(start + sent) % len(indices)]
            sent += 1

    def cpu_pids(self, system) -> List[int]:
        return []

    def layer_metrics(self, system, stats: seams.SpanStats,
                      records: List[Record], answered: int) -> Dict:
        return {}

    #: Whether spare set-ups may run between blocks while the measured
    #: system is alive (not for forked shard workers: forking next to a
    #: live router's collector thread is avoided).
    spare_setups_between_blocks = True
    #: Whether the program's work runs in this process's main thread,
    #: so that a host probe read there, inside the timed work, measures
    #: the CPU doing it (not for shard workers, whose CPU it would take).
    work_in_main_thread = True

    # -- the run ----------------------------------------------------------
    def run(self, out: Outcome) -> None:
        ctx = self.ctx
        self.build_inputs()
        state_model = build_model()
        expected = oracle_mod.compute_oracle(
            dataclasses.asdict(state_model.config), state_model.state_dict(),
            self.distinct)
        out.info["distinct_requests"] = len(self.distinct)
        # The benchmark's own inputs and oracle answers stay alive for
        # the whole run; freezing them (and nothing of the program's)
        # keeps the program's garbage collections from rescanning them.
        gc.freeze()
        setups = SetupTimer(self.setup, self.teardown)
        if not (ctx.trace or self.spare_setups_between_blocks):
            for _ in range(ROUNDS):
                setups.spare()
        system = setups()
        try:
            count = self.steady_count()
            steady_indices = list(range(count))
            if ctx.trace:
                self._traced_run(system, steady_indices, expected, out)
            else:
                self._untraced_run(system, steady_indices, expected, out,
                                   setups)
        finally:
            self.teardown(system)

    def _judge(self, records: List[Record], expected, out: Outcome,
               latencies: Optional[List[float]] = None) -> int:
        correct_in_slo = 0
        for record in records:
            request = self.requests[record.index]
            ok = out.judge(record.response, expected[self.keys[record.index]],
                           request.num_locations)
            latency = (record.answered - record.due) * 1000.0
            if latencies is not None:
                latencies.append(latency)
            if ok and latency <= SLO_MS:
                correct_in_slo += 1
        return correct_in_slo

    def _cpu_now(self, system) -> float:
        return harness.self_cpu_s() + sum(
            harness.proc_cpu_s(pid) for pid in self.cpu_pids(system))

    def _peak_rss(self, system) -> float:
        return harness.self_peak_rss_mb() + sum(
            harness.proc_peak_rss_mb(pid) for pid in self.cpu_pids(system))

    def _untraced_run(self, system, indices, expected, out: Outcome,
                      setups: SetupTimer) -> None:
        """Steady and saturate, interleaved in ``ROUNDS`` rounds.

        This host is a small virtual machine whose speed swings by tens
        of percent over seconds: the hypervisor takes CPU away (steal)
        and the CPU itself runs slower when its neighbours are busy.
        Spreading each phase over the whole run samples more of those
        swings.  Each block records the steal inside it and reads a host
        probe (:func:`harness.host_probe_ms`) before and after it.  The
        latency percentiles and the CPU cost are taken over the ``KEEP``
        steady blocks the host disturbed least (:func:`harness.calmest`).
        The program can change neither reading, so this drops the blocks
        the host slowed most without looking at their results.  The p99
        is taken in each chosen block and their median reported.  Pooled
        percentiles over all blocks are printed with every run.  The
        capacity is a count over every saturate block: a stall costs it
        no more than its own length, so more blocks steady it more than
        calmer ones do.

        Every timing is scaled to the host speed at which the probe
        reads ``REFERENCE_PROBE_MS``, so that a run in a slow stretch of
        the host reads about as one in a fast stretch: each steady
        block's latencies and CPU time by the speed factor of the probes
        read around it, the capacity by that of the probes read around
        every saturate block.  Where ``work_in_main_thread``, a
        :class:`harness.HostSampler` also reads the probe every
        ``SAMPLE_INTERVAL_S`` inside both phases, in the thread that does
        the program's work, and those readings join the block's.  Each
        reading's own time is taken out of the requests it delayed, the
        block's CPU time and the saturate wall time.  Unscaled figures
        are printed too.
        """
        steady: List[Dict] = []
        saturate: List[Dict] = []
        lags: List[float] = []
        backlog_peak = 0
        in_slo = 0
        sat_sent = 0
        size = math.ceil(len(indices) / ROUNDS)
        cursor = 0
        sampler = (harness.HostSampler(SAMPLE_INTERVAL_S, SAMPLE_STEPS,
                                       clock=clock)
                   if self.work_in_main_thread else None)
        sampling = sampler or contextlib.nullcontext()
        sat_probes: List[float] = []
        for block in range(ROUNDS):
            if self.spare_setups_between_blocks:
                setups.spare()
            part = indices[block * size:(block + 1) * size]
            probe0 = harness.host_probe_ms()
            cpu0, steal0 = self._cpu_now(system), harness.steal_s()
            with sampling:
                records, loop = self.steady_block(system, part, traced=False)
            cpu = self._cpu_now(system) - cpu0
            stolen = harness.steal_s() - steal0
            probe1 = harness.host_probe_ms()
            samples = sampler.take() if sampler is not None else []
            latencies: List[float] = []
            in_slo += self._judge(records, expected, out, latencies)
            # A reading delays whatever request it interrupts or waits
            # behind; its time is taken out of those requests.
            raw = [lat - 1000.0 * harness.probe_cost_s(
                       samples, record.due, record.answered)
                   for lat, record in zip(latencies, records)]
            speed = harness.speed_factor(
                [probe0, probe1] + [s.probe_ms for s in samples],
                REFERENCE_PROBE_MS)
            cpu -= sum(s.cpu_s for s in samples)
            steady.append({"host": (probe0 + probe1) / 2, "steal": stolen,
                           "speed": speed, "raw": raw,
                           "latencies": [lat * speed for lat in raw],
                           "cpu": cpu * speed, "answered": len(records)})
            for _ in range(len(part) - len(records)):
                out.fail("no answer")
            lags.extend(loop.lags_ms)
            backlog_peak = max(backlog_peak, loop.backlog_peak)

            stream = self.saturate_stream(indices, cursor)
            started, steal0 = clock(), harness.steal_s()
            with sampling:
                sat_records = self.saturate(system, stream)
            wall, stolen = clock() - started, harness.steal_s() - steal0
            samples = sampler.take() if sampler is not None else []
            sat_probes.extend([probe1, harness.host_probe_ms()]
                              + [s.probe_ms for s in samples])
            wall -= sum(s.wall_s for s in samples)
            cursor += len(sat_records)
            before = out.failed
            self._judge(sat_records, expected, out)
            sat_sent += len(sat_records)
            saturate.append({"steal": stolen, "wall": wall,
                             "ok": len(sat_records) - (out.failed - before)})
        calm = [steady[b] for b in harness.calmest(
            [blk["steal"] for blk in steady],
            [blk["host"] for blk in steady], KEEP)]
        calm_latencies = [lat for blk in calm for lat in blk["latencies"]]
        speed = harness.speed_factor(sat_probes, REFERENCE_PROBE_MS)
        unscaled = (sum(blk["ok"] for blk in saturate)
                    / sum(blk["wall"] for blk in saturate))
        capacity = unscaled / speed
        pooled = [lat for blk in steady for lat in blk["raw"]]
        out.metrics.update({
            "setup_s": setups.median_s,
            "latency_p50_ms": harness.percentile(calm_latencies, 50),
            # Per block, then the median: a stall (steal or not) fills
            # the tail of the block it falls in, not of the whole run.
            "latency_p99_ms": harness.median(
                [harness.percentile(blk["latencies"], 99) for blk in calm]),
            "slo_met_share": in_slo / len(indices),
            "capacity_rps": capacity,
            "cpu_ms_per_req": (sum(blk["cpu"] for blk in calm) * 1000.0
                               / max(sum(blk["answered"] for blk in calm),
                                     1)),
            "peak_rss_mb": self._peak_rss(system),
            "train_instances_per_s": capacity,
        })
        out.info.update({
            "setups": len(setups.times),
            "steady_requests": len(indices),
            "latency_samples": len(calm_latencies),
            "pooled_calm_p99_ms": harness.percentile(calm_latencies, 99),
            "unscaled_p50_ms": harness.percentile(
                [lat for blk in calm for lat in blk["raw"]], 50),
            "calm_speed_factor": harness.median(
                [blk["speed"] for blk in calm]),
            "pooled_p50_ms": harness.percentile(pooled, 50),
            "pooled_p99_ms": harness.percentile(pooled, 99),
            "steady_block_probe_ms": [round(blk["host"], 2)
                                      for blk in steady],
            "steady_block_steal_ms": [round(blk["steal"] * 1000)
                                      for blk in steady],
            "steady_block_p99_ms": [
                round(harness.percentile(blk["latencies"], 99), 2)
                for blk in steady],
            "saturate_block_steal_ms": [round(blk["steal"] * 1000)
                                        for blk in saturate],
            "saturate_requests": sat_sent,
            "saturate_probe_samples": len(sat_probes),
            "saturate_speed_factor": speed,
            "unscaled_capacity_rps": unscaled,
            "saturate_outstanding": self.outstanding,
            "load.lag_p99_ms": harness.percentile(lags, 99),
            "load.backlog_peak": backlog_peak,
        })

    def _traced_run(self, system, indices, expected, out: Outcome) -> None:
        size = math.ceil(len(indices) / ROUNDS)
        collector = tracing.TraceCollector()
        traced_records: List[Record] = []
        latency = {False: [], True: []}
        lags: List[float] = []
        backlog_peak = 0
        cpu_untraced = {"self": 0.0, "workers": 0.0, "answered": 0}
        for block in range(ROUNDS):
            traced = block % 2 == 1
            part = indices[block * size:(block + 1) * size]
            pids = self.cpu_pids(system)
            self_cpu0 = harness.self_cpu_s()
            worker_cpu0 = sum(harness.proc_cpu_s(p) for p in pids)
            if traced:
                tracing.enable_tracing(collector)
            try:
                records, loop = self.steady_block(system, part, traced)
            finally:
                if traced:
                    tracing.disable_tracing()
            if not traced:
                cpu_untraced["self"] += harness.self_cpu_s() - self_cpu0
                cpu_untraced["workers"] += sum(
                    harness.proc_cpu_s(p) for p in pids) - worker_cpu0
                cpu_untraced["answered"] += len(records)
            self._judge(records, expected, out, latency[traced])
            for _ in range(len(part) - len(records)):
                out.fail("no answer")
            lags.extend(loop.lags_ms)
            backlog_peak = max(backlog_peak, loop.backlog_peak)
            if traced:
                traced_records.extend(records)
        self.ctx.records = seams.collector_records(collector)
        stats = seams.analyse(self.ctx.records)
        answered = len(traced_records)
        per_req = max(answered, 1)
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(self.common_layer_metrics(stats, answered))
        layer.update(self.layer_metrics(system, stats, traced_records,
                                        answered))
        answered_untraced = max(cpu_untraced["answered"], 1)
        if self.cpu_pids(system):
            layer["serving_shard.parent_cpu_ms_per_req"] = (
                cpu_untraced["self"] * 1000.0 / answered_untraced)
            layer["serving_shard.worker_cpu_ms_per_req"] = (
                cpu_untraced["workers"] * 1000.0 / answered_untraced)
        traced_lags = [(r.sent - r.due) * 1000.0 for r in traced_records]
        waits = [(r.flushed - r.sent) * 1000.0 for r in traced_records
                 if r.flushed is not None]
        e2e_mean = float(np.mean(latency[True])) if latency[True] else 0.0
        extra = {"load.lag": sum(traced_lags) / per_req,
                 "service.queue_wait": sum(waits) / per_req}
        rows, residual = seams.self_time_table(stats, answered, e2e_mean,
                                               extra)
        self.ctx.layer_table = rows
        layer.update({
            "load.lag_p99_ms": harness.percentile(lags, 99),
            "load.backlog_peak": float(backlog_peak),
            "obs.tracing_overhead_ms": (
                harness.percentile(latency[True], 50)
                - harness.percentile(latency[False], 50)),
            "obs.stage_residual_ms": residual,
            "obs.stage_residual_share": residual / e2e_mean if e2e_mean
            else 0.0,
            "service.queue_wait_p99_ms": harness.percentile(waits, 99),
        })
        out.metrics.update(layer)
        out.info.update({"traced_requests": answered,
                         "e2e_mean_ms": e2e_mean})

    def common_layer_metrics(self, stats: seams.SpanStats,
                             answered: int) -> Dict[str, float]:
        per_req = max(answered, 1)
        calls = max(stats.model_calls(), 1)
        deploy_self = sum(
            stats.self_ms(name) for name in stats.name_self_ms
            if seams.layer_of(name) == "deploy")
        kernel_calls = sum(stats.count(f"kernel.{k}")
                           for k in seams.KERNELS)
        metrics = {
            "deploy.self_ms": deploy_self / per_req,
            "graphs.build_ms": stats.total("graph_build") / per_req,
            "core.infer_ms.b1": (float(np.mean(stats.infer_b1))
                                 if stats.infer_b1 else 0.0),
            "core.infer_ms.batched": (float(np.mean(stats.infer_batched))
                                      if stats.infer_batched else 0.0),
            "core.batching.unattributed_ms": (
                float(np.mean(stats.unattributed_batched))
                if stats.unattributed_batched else 0.0),
            "core.encoder_ms": stats.total("encoder") / calls,
            "core.route_decode_ms": stats.total("route_decode") / calls,
            "core.time_decode_ms": stats.total("time_decode") / calls,
            "kernels.calls_per_req": kernel_calls / per_req,
            "service.batch_size_mean": (float(np.mean(stats.batch_sizes))
                                        if stats.batch_sizes else 0.0),
        }
        for kernel in seams.KERNELS:
            metrics[f"kernels.{kernel}.self_ms"] = (
                stats.self_ms(f"kernel.{kernel}") / per_req)
        return metrics


def _degraded_metrics(snapshot: Dict[str, int]) -> Dict[str, float]:
    return {f"deploy.degraded.{reason}": float(snapshot.get(reason, 0))
            for reason in ("shed", "deadline", "breaker_open", "error")}


class B1Steady(ServingWorkload):
    """DeploymentController -> ResilientRTPService -> RTPService.handle."""

    name = "b1_steady"
    rate = 50.0
    outstanding = 1
    warmup = 8

    def build_inputs(self) -> None:
        count = self.steady_count()
        days = math.ceil((count + self.warmup) / 96) + 1
        self._distinct_inputs(make_world(self.ctx.seed, 48, days),
                              count + self.warmup)
        self.warm = self.distinct[count:]

    def setup(self, index: int):
        registry = register(self.ctx.workdir, f"b1-{index}")
        fallback = None
        wrapper = None
        if self.ctx.trace:
            fallback = seams.CountingFallback(FallbackPredictor())
            wrapper = lambda inner: seams.TracedService(inner, "service.rtp")
        controller = DeploymentController(
            registry, resilience=ResilienceConfig(), seed=0,
            fallback=fallback, service_wrapper=wrapper)
        for request in self.warm:
            controller.handle(request)
        return {"controller": controller, "fallback": fallback,
                "baseline": controller.primary.snapshot()}

    def steady_block(self, system, indices, traced):
        controller = system["controller"]
        records: List[Record] = []

        def send(k: int, due: float) -> None:
            index = indices[k]
            sent = clock()
            try:
                if traced:
                    with tracing.span("deploy.controller"):
                        response = controller.handle(self.requests[index])
                else:
                    response = controller.handle(self.requests[index])
            except Exception as exc:   # counted as a failed answer
                response = exc
            records.append(Record(index, due, sent, clock(), response))

        loop = harness.run_open_loop(self.offsets(len(indices)), send)
        return records, loop

    def saturate(self, system, stream):
        controller = system["controller"]
        records: List[Record] = []
        for index in stream:
            started = clock()
            try:
                response = controller.handle(self.requests[index])
            except Exception as exc:
                response = exc
            records.append(Record(index, started, started, clock(),
                                  response))
        return records

    def layer_metrics(self, system, stats, records, answered):
        snapshot = system["controller"].primary.snapshot()
        baseline = system["baseline"]
        metrics = _degraded_metrics(
            {k: snapshot[k] - baseline.get(k, 0) for k in snapshot})
        metrics["core.fallback_calls"] = float(system["fallback"].calls)
        return metrics


class WaveBatched(ServingWorkload):
    """MicroBatcher(8) -> ResilientRTPService.handle_batch -> engine."""

    name = "wave_batched"
    wave_size = 16
    wave_period_s = 0.2
    #: A wave's couriers query this far apart.  Eight arrive within
    #: MicroBatcher's 10 ms age limit, so every flush is a full batch of
    #: 8, and the wave's latencies spread evenly instead of splitting
    #: into one cluster per batch.
    stagger_s = 0.001
    rate = wave_size / wave_period_s
    outstanding = wave_size
    couriers = 48

    def steady_count(self) -> int:
        """Whole waves in every steady block."""
        per_round = self.wave_size * ROUNDS
        return max(1, round(super().steady_count() / per_round)) * per_round

    def offsets(self, count: int) -> List[float]:
        return [(i // self.wave_size) * self.wave_period_s
                + (i % self.wave_size) * self.stagger_s
                for i in range(count)]

    def build_inputs(self) -> None:
        """Each wave holds 16 distinct couriers, each on a fresh request."""
        count = self.steady_count() + 2 * self.wave_size   # + warm-up
        per_courier = math.ceil(count / self.couriers) + 2
        days = math.ceil(per_courier / 2)
        instances = make_world(self.ctx.seed, self.couriers, days)
        by_courier: Dict[int, list] = collections.defaultdict(list)
        for instance in instances:
            by_courier[instance.courier.courier_id].append(instance)
        rng = np.random.default_rng(self.ctx.seed)
        for queue in by_courier.values():
            rng.shuffle(queue)
        courier_ids = np.array(sorted(by_courier))
        requests = []
        while len(requests) < count:
            # Couriers with more requests left are likelier to dispatch,
            # so no courier runs dry while 16 distinct ones remain.
            left = np.array([len(by_courier[c]) for c in courier_ids],
                            dtype=float)
            wave = rng.choice(courier_ids, size=self.wave_size,
                              replace=False, p=left / left.sum())
            for courier in wave:
                requests.append(RTPRequest.from_instance(
                    by_courier[int(courier)].pop()))
        self.distinct = requests[:count]
        steady = self.steady_count()
        self.requests = self.distinct[:steady]
        self.keys = list(range(steady))
        self.warm = self.distinct[steady:]

    def setup(self, index: int):
        registry = register(self.ctx.workdir, f"wave-{index}")
        model, _ = registry.load(VERSION)
        service = RTPService(model)
        inner = (seams.TracedService(service, "service.rtp")
                 if self.ctx.trace else service)
        fallback = (seams.CountingFallback(FallbackPredictor())
                    if self.ctx.trace else None)
        resilient = ResilientRTPService(
            inner, fallback=fallback, config=ResilienceConfig(),
            version=VERSION)
        front = (seams.BatchFront(resilient, clock) if self.ctx.trace
                 else resilient)
        batcher = MicroBatcher(front, max_batch_size=8, clock=clock)
        resilient.batcher = batcher     # admission reads the queue depth
        for start in range(0, len(self.warm), self.wave_size):
            for request in self.warm[start:start + self.wave_size]:
                batcher.submit(request)
            batcher.flush()
        if self.ctx.trace:
            front.reset()
        return {"batcher": batcher, "resilient": resilient,
                "front": front, "fallback": fallback,
                "baseline": resilient.snapshot()}

    def steady_block(self, system, indices, traced):
        batcher: MicroBatcher = system["batcher"]
        records: List[Record] = []
        pending: List[Tuple[int, float, object]] = []

        flushed = system["front"].flush_started if traced else {}

        def reap() -> None:
            now = clock()
            still = []
            for index, due, ticket in pending:
                if ticket.done:
                    records.append(Record(
                        index, due, ticket.enqueued_at, now, ticket.result(),
                        flushed.get(id(ticket.request))))
                else:
                    still.append((index, due, ticket))
            pending[:] = still

        def send(k: int, due: float) -> None:
            index = indices[k]
            try:
                if traced:
                    with tracing.span("service.submit"):
                        ticket = batcher.submit(self.requests[index])
                else:
                    ticket = batcher.submit(self.requests[index])
            except Exception as exc:
                now = clock()
                records.append(Record(index, due, now, now, exc))
                return
            pending.append((index, due, ticket))
            reap()

        def idle(now: float) -> Optional[float]:
            if not batcher.pending:
                return None
            if traced:
                with tracing.span("service.poll"):
                    batcher.poll()
            else:
                batcher.poll()
            reap()
            if not pending:
                return None
            oldest = min(ticket.enqueued_at for _, _, ticket in pending)
            return oldest + batcher.max_wait_ms / 1000.0

        loop = harness.run_open_loop(self.offsets(len(indices)), send,
                                     idle=idle)
        batcher.flush()
        reap()
        return records, loop

    def saturate(self, system, stream):
        batcher: MicroBatcher = system["batcher"]
        records: List[Record] = []
        while True:
            wave = list(itertools.islice(stream, self.wave_size))
            if not wave:
                break
            started = clock()
            tickets = [batcher.submit(self.requests[i]) for i in wave]
            batcher.flush()
            done = clock()
            for index, ticket in zip(wave, tickets):
                records.append(Record(index, started, started, done,
                                      ticket.result() if ticket.done
                                      else None))
        return records

    def layer_metrics(self, system, stats, records, answered):
        snapshot = system["resilient"].snapshot()
        baseline = system["baseline"]
        metrics = _degraded_metrics(
            {k: snapshot[k] - baseline.get(k, 0) for k in snapshot})
        metrics["core.fallback_calls"] = float(system["fallback"].calls)
        metrics["core.batching.pad_ratio"] = system["front"].pad_ratio
        return metrics


class ShardedPoll(ServingWorkload):
    """Process-mode ShardRouter, 2 shards, couriers re-polling state."""

    name = "sharded_poll"
    rate = 100.0
    couriers = 48
    shards = 2
    repeat_share = 0.5
    outstanding = 16        # < ShardConfig.max_queue_depth (32) per shard
    warmup = 16
    spare_setups_between_blocks = False
    work_in_main_thread = False

    def build_inputs(self) -> None:
        """Round-robin polls; each poll keeps or advances its courier's state.

        Every courier polls once per round of 48 requests, so between
        two polls of one courier its shard sees about 24 other
        requests -- its live state is never evicted from the 32-entry
        cache, and roughly ``repeat_share`` of requests are cache hits.
        """
        count = self.steady_count()
        per_courier = math.ceil(count / self.couriers) + 4
        days = math.ceil(per_courier / 2)
        instances = make_world(self.ctx.seed, self.couriers, days)
        states: Dict[int, List[RTPRequest]] = collections.defaultdict(list)
        for instance in instances:
            states[instance.courier.courier_id].append(
                RTPRequest.from_instance(instance))
        rng = np.random.default_rng(self.ctx.seed)
        couriers = list(rng.permutation(sorted(states)))
        position = {c: 0 for c in couriers}
        distinct_index: Dict[int, int] = {}
        self.distinct, self.requests, self.keys = [], [], []
        for i in range(count + self.warmup):
            courier = int(couriers[i % len(couriers)])
            first_poll = i < len(couriers)
            if not first_poll and rng.random() >= self.repeat_share:
                position[courier] = (position[courier] + 1) \
                    % len(states[courier])
            request = states[courier][position[courier]]
            if id(request) not in distinct_index:
                distinct_index[id(request)] = len(self.distinct)
                self.distinct.append(request)
            self.requests.append(request)
            self.keys.append(distinct_index[id(request)])
        # The warm-up polls come from the same couriers, after the run's.
        self.warm = self.requests[count:]
        self.requests = self.requests[:count]
        self.keys = self.keys[:count]

    def setup(self, index: int):
        from repro.serving_shard import ShardConfig, ShardRouter

        registry = register(self.ctx.workdir, f"shard-{index}")
        model, _ = registry.load(VERSION)
        router = ShardRouter(
            model, version=VERSION,
            config=ShardConfig(num_shards=self.shards),
            resilience=ResilienceConfig())
        router.wait_all([router.submit(r) for r in self.warm])
        stats = router.worker_stats()
        return {"router": router, "pids": [s["pid"] for s in stats],
                "baseline": stats,
                "shard_baseline": router.shard_stats()}

    def teardown(self, system) -> None:
        system["router"].shutdown()

    def cpu_pids(self, system) -> List[int]:
        return list(system["pids"])

    def steady_block(self, system, indices, traced):
        router = system["router"]
        submitted: List[Tuple[int, float, object]] = []

        def send(k: int, due: float) -> None:
            index = indices[k]
            try:
                if traced:
                    with tracing.span("serving_shard.submit"):
                        ticket = router.submit(self.requests[index])
                else:
                    ticket = router.submit(self.requests[index])
            except Exception as exc:
                submitted.append((index, due, exc))
                return
            submitted.append((index, due, ticket))

        loop = harness.run_open_loop(self.offsets(len(indices)), send)
        records: List[Record] = []
        tickets = [t for _, _, t in submitted
                   if not isinstance(t, BaseException)]
        responses = iter(router.wait_all(tickets))
        for index, due, ticket in submitted:
            if isinstance(ticket, BaseException):
                now = clock()
                records.append(Record(index, due, now, now, ticket))
                continue
            response = next(responses)
            records.append(Record(index, due, ticket.submitted,
                                  ticket.done_at, response))
        return records, loop

    def saturate(self, system, stream):
        router = system["router"]
        records: List[Record] = []

        def submit(index: int):
            return index, clock(), router.submit(self.requests[index])

        def wait(handle) -> None:
            index, started, ticket = handle
            response = router.wait_all([ticket])[0]
            records.append(Record(index, started, started,
                                  ticket.done_at or clock(), response))

        harness.run_closed_loop(stream,
                                self.outstanding, submit, wait)
        return records

    def layer_metrics(self, system, stats, records, answered):
        router = system["router"]
        workers = router.worker_stats()
        base = {s["shard"]: s for s in system["baseline"]}
        degraded = collections.Counter()
        hits = misses = 0
        for stat in workers:
            before = base.get(stat["shard"], {})
            for reason, value in stat["resilient"].items():
                degraded[reason] += value - before.get(
                    "resilient", {}).get(reason, 0)
            hits += stat["cache_hits"] - before.get("cache_hits", 0)
            misses += stat["cache_misses"] - before.get("cache_misses", 0)
        shard_now = router.shard_stats()
        shard_base = {s["shard"]: s for s in system["shard_baseline"]}
        per_shard = [s["requests"] - shard_base[s["shard"]]["requests"]
                     for s in shard_now]
        shed = sum(s["shed"] - shard_base[s["shard"]]["shed"]
                   for s in shard_now)
        answers = [(r.answered - r.sent) * 1000.0 for r in records]
        weighted = stats.serve_weighted
        serve = (sum(d * b for d, b in weighted) / sum(b for _, b in weighted)
                 if weighted else 0.0)
        per_req = max(answered, 1)
        metrics = _degraded_metrics(degraded)
        metrics.update({
            "core.fallback_calls": float(degraded["degraded"] + shed),
            "service.cache_hit_ratio": (hits / (hits + misses)
                                        if hits + misses else 0.0),
            "serving_shard.submit_ms": (stats.total("serving_shard.submit")
                                        / per_req),
            "serving_shard.answer_p50_ms": harness.percentile(answers, 50),
            "serving_shard.answer_p99_ms": harness.percentile(answers, 99),
            "serving_shard.worker_serve_ms": serve,
            "serving_shard.hop_ms": (float(np.mean(answers)) - serve
                                     if answers else 0.0),
            "serving_shard.imbalance": (max(per_shard) / np.mean(per_shard)
                                        if sum(per_shard) else 0.0),
            "serving_shard.shed": float(shed),
        })
        return metrics


# ----------------------------------------------------------------------
# Fine-tune workload
# ----------------------------------------------------------------------
class EpochClock:
    """Marks the end of every fine-tune epoch, through ``event_log=``,
    and samples the host's speed all through each epoch.

    :class:`~repro.online.OnlineTrainer` logs ``online_epoch`` right
    after an epoch's checkpoint and progress record are written; each
    such event marks the clock and the CPU time.  While started, a
    :class:`harness.HostSampler` reads the host probe every 0.1 s in
    the training thread, so each epoch carries the probe readings
    taken inside it; their own time is taken out of the epoch's.  It
    does nothing until :meth:`start` is called.
    """

    def __init__(self, sampler: Optional[harness.HostSampler] = None):
        self.sampler = sampler or harness.HostSampler(clock=clock)
        self.marks: List[Tuple[float, float, List[tuple]]] = []
        self.active = False

    def _mark(self) -> None:
        self.marks.append((clock(), harness.self_cpu_s(),
                           self.sampler.take()))

    def start(self) -> None:
        self.marks = []
        self.sampler.take()
        self.active = True
        self._mark()
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self.active = False

    def log(self, event_type: str, **fields) -> Dict:
        if self.active and event_type == "online_epoch":
            self._mark()
        return {}

    def epochs(self) -> List[Tuple[float, float, float]]:
        """(wall s, CPU s, speed factor) of each epoch after the first.

        Wall and CPU time exclude the probe readings inside the epoch;
        the speed factor is :func:`harness.speed_factor` of those
        readings.  The first interval also holds the job's registry
        load and graph build, so it is not an epoch like the others.
        An epoch without a reading is left out.
        """
        out = []
        for before, after in zip(self.marks[1:], self.marks[2:]):
            samples = after[2]
            if not samples:
                continue
            out.append((after[0] - before[0] - sum(s.wall_s for s in samples),
                        after[1] - before[1] - sum(s.cpu_s for s in samples),
                        harness.speed_factor([s.probe_ms for s in samples],
                                             REFERENCE_PROBE_MS)))
        return out


class Finetune:
    """OnlineTrainer.fine_tune from a registry parent, checkpointing."""

    name = "finetune"
    window = 64
    #: Replay pool, as large as the replay ``replay_fraction=1.0`` draws
    #: from a 64-instance window, so every job replays the whole pool.
    replay_pool = 64
    #: Jobs per run, at least; more while ``--seconds`` have not passed.
    min_jobs = 1
    #: Set-ups before the first job, between jobs and after the last.
    setups_per_gap = 3

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        self.epoch_clock = EpochClock()
        self.instances_per_epoch = 0     # window + replay, set by job()

    def build_inputs(self) -> None:
        """A window and a replay pool with the same mix of sizes every seed.

        An epoch's cost follows the number of locations it trains on.
        Drawn at random, 128 instances held 960-1240 locations depending
        on the seed, which moved the epoch time as much as the host did.
        So the instances of a 288-instance world are sorted by size (ties
        in a seeded order), evenly spaced ones are taken, and they are
        dealt alternately to the window and the pool.
        """
        instances = make_world(self.ctx.seed, 48, 3)
        rng = np.random.default_rng(self.ctx.seed)
        tiebreak = rng.permutation(len(instances))
        by_size = sorted(range(len(instances)),
                         key=lambda i: (len(instances[i].locations),
                                        tiebreak[i]))
        wanted = self.window + self.replay_pool
        picked = [instances[by_size[(k * len(by_size)) // wanted]]
                  for k in range(wanted)]
        self.window_instances = [picked[i] for i in
                                 rng.permutation(range(0, wanted, 2))]
        self.replay_instances = [picked[i] for i in
                                 rng.permutation(range(1, wanted, 2))]

    def _trainer(self, registry, tag: str):
        from repro.online import OnlineTrainer, OnlineTrainerConfig

        builder = GraphBuilder(num_aoi_ids=M2G4RTPConfig().num_aoi_ids)
        if self.ctx.trace:
            builder = seams.TracedBuilder(builder)
        return OnlineTrainer(
            registry, self.ctx.workdir / f"jobs-{tag}",
            OnlineTrainerConfig(epochs=4, batch_size=4, replay_fraction=1.0,
                                learning_rate=REPLAY_LR),
            builder=builder, event_log=self.epoch_clock)

    def setup(self, index: int):
        registry = register(self.ctx.workdir, f"ft-{index}")
        trainer = self._trainer(registry, f"setup-{index}")
        trainer.fine_tune(VERSION, self.window_instances[:4], job_id="warm",
                          stop_after_epoch=1,
                          replay=self.replay_instances[:4])
        return {"trainer": trainer}

    def job(self, trainer, job_id: str, out: Outcome, **kwargs):
        """Run one job; returns (seconds, instance-epochs, ok)."""
        started = clock()
        try:
            result = trainer.fine_tune(VERSION, self.window_instances,
                                       job_id=job_id,
                                       replay=self.replay_instances,
                                       **kwargs)
        except Exception as exc:
            out.fail(f"exception:{type(exc).__name__}")
            return clock() - started, 0, False
        seconds = clock() - started
        want = kwargs.get("stop_after_epoch") or trainer.config.epochs
        ok = (result.epochs_done == want
              and (result.completed or "stop_after_epoch" in kwargs)
              and len(result.losses) == want
              and all(math.isfinite(loss) for loss in result.losses)
              and Path(result.checkpoint_path).exists())
        out.attempted += 1
        if not ok:
            out.failed += 1
            out.reasons["fine-tune incomplete or non-finite loss"] += 1
        self.instances_per_epoch = (len(self.window_instances)
                                    + result.replay_samples)
        return seconds, self.instances_per_epoch * result.epochs_done, ok

    def run(self, out: Outcome) -> None:
        self.build_inputs()
        gc.freeze()     # the benchmark's inputs only, as in ServingWorkload
        setups = SetupTimer(self.setup, lambda system: None)
        system = setups()
        trainer = system["trainer"]
        if self.ctx.trace:
            self._traced_run(trainer, out)
            return
        for _ in range(self.setups_per_gap - 1):
            setups.spare()
        times: List[float] = []
        epochs: List[Tuple[float, float, float]] = []
        work = 0
        good = 0
        budget_started = clock()
        while (len(times) < self.min_jobs
               or clock() - budget_started < self.ctx.seconds):
            self.epoch_clock.start()
            try:
                seconds, instance_epochs, ok = self.job(
                    trainer, f"job{len(times)}", out)
            finally:
                self.epoch_clock.stop()
            epochs.extend(self.epoch_clock.epochs())
            times.append(seconds)
            work += instance_epochs
            good += int(ok and seconds <= JOB_SLO_S)
            for _ in range(self.setups_per_gap):
                setups.spare()
        # An epoch is the timed unit: every job of a run trains the same
        # batches in the same order, so its epochs after the first are
        # the same work.  Each epoch's times are scaled to the host speed
        # at which the probe reads REFERENCE_PROBE_MS, and the median
        # over epochs stands for the run.
        per_epoch = self.instances_per_epoch
        scaled_ms = [wall * 1000.0 * factor for wall, _, factor in epochs]
        epoch_ms = harness.median(scaled_ms)
        rate = per_epoch * 1000.0 / epoch_ms if epoch_ms else 0.0
        out.metrics.update({
            "setup_s": setups.median_s,
            "latency_p50_ms": epoch_ms,
            "latency_p99_ms": harness.percentile(scaled_ms, 99),
            "slo_met_share": good / len(times),
            "capacity_rps": rate,
            "cpu_ms_per_req": harness.median(
                [cpu * 1000.0 * factor / max(per_epoch, 1)
                 for _, cpu, factor in epochs]),
            "peak_rss_mb": harness.self_peak_rss_mb(),
            "train_instances_per_s": rate,
        })
        raw_ms = [wall * 1000.0 for wall, _, _ in epochs]
        out.info.update({
            "setups": len(setups.times),
            "jobs": len(times), "instance_epochs": work,
            "job_s": [round(t, 3) for t in times],
            "latency_samples": len(epochs),
            "epoch_s": [round(ms / 1000.0, 3) for ms in raw_ms],
            "epoch_speed_factor": [round(factor, 3)
                                   for _, _, factor in epochs],
            "unscaled_p50_ms": harness.median(raw_ms),
            "unscaled_train_instances_per_s": (
                per_epoch * 1000.0 / harness.median(raw_ms)
                if raw_ms else 0.0),
        })

    def _traced_run(self, trainer, out: Outcome) -> None:
        from repro.obs.opprofile import profile_ops

        collector = tracing.enable_tracing(tracing.TraceCollector())
        started = clock()
        try:
            with tracing.span("training.fine_tune"):
                self.job(trainer, "traced", out)
        finally:
            tracing.disable_tracing()
        seconds = clock() - started
        self.ctx.records = seams.collector_records(collector)
        stats = seams.analyse(self.ctx.records)
        rows, residual = seams.self_time_table(stats, 1, seconds * 1000.0)
        self.ctx.layer_table = rows
        # One profiled epoch for the op table (the profiler is slow, so
        # it runs apart from the timed, traced job).
        with profile_ops() as profiler:
            _, profiled_work, _ = self.job(trainer, "profiled", out,
                                           stop_after_epoch=1)
        op_stats = profiler.stats()
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update({
            "training.build_graphs_ms": stats.total("graphs.build"),
            "training.epoch_s": (stats.total("online.epoch")
                                 / max(stats.count("online.epoch"), 1)
                                 / 1000.0),
            "obs.stage_residual_ms": residual,
            "obs.stage_residual_share": (residual / (seconds * 1000.0)
                                         if seconds else 0.0),
            "service.batch_size_mean": float(trainer.config.batch_size),
        })
        for op in AUTODIFF_OPS:
            stat = op_stats.get(op)
            layer[f"autodiff.op_self_ms.{op}"] = (
                stat.self_ms / max(profiled_work, 1) if stat else 0.0)
        out.metrics.update(layer)
        out.info.update({"traced_job_s": seconds,
                         "top_ops": sorted(
                             ((name, round(s.self_ms, 3))
                              for name, s in op_stats.items()),
                             key=lambda item: -item[1])[:10]})


WORKLOAD_CLASSES = {
    "b1_steady": B1Steady,
    "wave_batched": WaveBatched,
    "sharded_poll": ShardedPoll,
    "finetune": Finetune,
}


def run_workload(name: str, ctx: RunContext) -> Outcome:
    out = Outcome()
    workload = WORKLOAD_CLASSES[name](ctx)
    try:
        workload.run(out)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    wanted = PER_LAYER if ctx.trace else END_TO_END
    out.metrics["failed_share"] = out.failed / max(out.attempted, 1)
    missing = [m for m in wanted if m not in out.metrics]
    if missing:
        raise RuntimeError(f"{name}: metrics not produced: {missing}")
    return out
