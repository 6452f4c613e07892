"""Request router over N serving shards with admission control.

The :class:`ShardRouter` is the front door of the sharded serving tier:

* **consistent placement** — requests hash by courier id (SHA-256, so
  placement is stable across processes and Python hash seeds) onto a
  fixed shard: a courier's repeat queries always land on the shard
  whose :class:`~repro.service.GraphCache` already holds their graph;
* **lanes** — a :class:`~repro.deploy.lanes.LaneTable` of serialized
  model specs picks each request's lane (canary split, regime lane,
  primary) *before* admission, exactly as in-process serving does, so
  a shed answer carries its lane's version and counts in that
  version's tallies (:meth:`ShardRouter.lane_stats`, which
  :class:`~repro.deploy.DeploymentController` reads for its rollout
  decisions).  New versions are broadcast once as serialized state
  dicts, and FIFO per-shard queues make swap and rollback *drains*
  (in-flight work completes on the old version, nothing is dropped);
* **admission control** — per-shard depth (in-flight dispatches plus
  an optional external backlog probe, e.g. the open-loop driver's) is
  bounded; beyond ``max_queue_depth`` the request is shed to a
  degraded answer through the shared
  :func:`~repro.deploy.resilience.degraded_response` fallback path —
  load never grows a queue without bound;
* **respawn** — control messages go to live shards only; a dead shard
  is rebuilt on its next request (or while a caller waits on it) from
  the *current* primary weights and every canary or regime lane in the
  table, with its outstanding requests resubmitted;
* **observability** — per-shard ``rtp_shard_*`` series (requests,
  shed, queue depth/peak, respawns, swaps, latency histogram with
  exemplars keyed by each request's trace id) in the shared registry,
  and shard-side spans shipped back via :mod:`repro.obs.propagate` and
  stitched under the router's dispatch span.

Every request follows one lifecycle — :meth:`~ShardRouter.submit`
returns a ticket, the shard's reply resolves it, and
:meth:`~ShardRouter.wait_all` (or :meth:`~ShardRouter.handle`, which
is submit-and-wait) hands back the answer.  Each shard is a small
transport with ``put(message)``, ``alive`` and ``kill()``, and both
kinds deliver their replies through the router's one ``_on_reply``:

* ``inline=True`` — an in-process :class:`ShardRuntime` that answers
  each message synchronously inside ``put``.  Single-threaded and
  deterministic; the load scenarios use it under a virtual clock,
  where killing a shard, respawning it and every shed decision replay
  bit-for-bit.
* ``inline=False`` — a forked worker process fed through its task
  queue; a collector thread hands its replies to ``_on_reply``.
  Liveness is the process's own ``is_alive()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..core.fallback import FallbackPredictor
from ..deploy.lanes import CANDIDATE, REGIME_PREFIX, LaneTable
from ..deploy.resilience import ResilienceConfig, degraded_response
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from ..obs.propagate import capture_context, merge_worker_spans
from .runtime import ShardRuntime, shard_worker_main

#: Latency buckets for the per-shard histogram (ms); wide enough that
#: queue collapse still lands in a finite bucket.
SHARD_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                         500.0, 1000.0, 2000.0, 5000.0, float("inf"))

#: Tail exemplars kept per shard latency cell.
SHARD_LATENCY_EXEMPLARS = 8


@dataclasses.dataclass
class ShardConfig:
    """Deployment knobs of the sharded tier."""

    num_shards: int = 2
    max_queue_depth: int = 32      # per-shard admission bound
    max_batch_size: int = 8        # worker-side micro-batch bound
    cache_size: int = 32           # per-shard graph-cache entries
    health_timeout_s: float = 10.0  # control-ack / readiness budget
    max_respawns: int = 3          # per-shard respawn budget
    seed: int = 0                  # canary traffic-split RNG seed
    #: When > 0, every shard wraps its service in a
    #: :class:`~repro.load.clock.ModeledLatencyService` that sleeps
    #: this base cost — the spec-data (picklable) way to model
    #: I/O-shaped serving time in worker processes, used by the
    #: wall-clock soak bench.
    sleep_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")


class ShardTicket:
    """Pending answer for one routed request."""

    __slots__ = ("req_id", "shard", "request", "lane", "trace_ctx",
                 "submitted", "done_at", "response", "spans", "event")

    def __init__(self, req_id: int, shard: int, request, lane: str,
                 trace_ctx, submitted: float):
        self.req_id = req_id
        self.shard = shard
        self.request = request
        self.lane = lane
        self.trace_ctx = trace_ctx
        self.submitted = submitted
        self.done_at: Optional[float] = None
        self.response = None
        self.spans: List[Dict] = []
        self.event = threading.Event()

    @property
    def done(self) -> bool:
        return self.event.is_set()

    @property
    def message(self) -> tuple:
        """The request message a shard serves this ticket from."""
        return ("request", self.req_id, self.request, self.lane,
                self.trace_ctx)

    def resolve(self, response, done_at: float) -> None:
        self.response, self.done_at = response, done_at
        self.event.set()


class _InlineShard:
    """A shard in the router's process: ``put`` answers synchronously."""

    def __init__(self, runtime: ShardRuntime,
                 on_reply: Callable[[tuple], None]):
        self.runtime = runtime
        self.on_reply = on_reply
        on_reply(("ready", runtime.shard_id, os.getpid()))

    @property
    def alive(self) -> bool:
        return self.runtime.alive

    def put(self, message: tuple) -> None:
        for reply in self.runtime.process(message):
            self.on_reply(reply)

    def kill(self) -> None:
        self.runtime.alive = False

    def close(self) -> None:
        pass


class _ProcessShard:
    """A shard in a forked worker process, fed through its task queue."""

    runtime = None   # lives in the worker

    def __init__(self, mp, shard: int, spec: Dict[str, object],
                 result_queue):
        self.task_queue = mp.Queue()
        self.process = mp.Process(
            target=shard_worker_main,
            args=(shard, spec, self.task_queue, result_queue),
            name=f"rtp-shard-{shard}", daemon=True)
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def put(self, message: tuple) -> None:
        self.task_queue.put(message)

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=2.0)

    def close(self) -> None:
        """Stop the worker cleanly (or kill it); reap a dead one."""
        if self.process.is_alive():
            self.task_queue.put(("stop",))
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()


class _ShardTally:
    """Router-side per-shard accounting behind the artifact block."""

    __slots__ = ("requests", "shed", "respawns", "swaps", "queue_peak",
                 "latencies_ms")

    def __init__(self):
        self.requests = 0
        self.shed = 0
        self.respawns = 0
        self.swaps = 0
        self.queue_peak = 0
        self.latencies_ms: List[float] = []


@dataclasses.dataclass
class _VersionTally:
    """Router-side answers attributed to one model version."""

    requests: int = 0
    degraded: int = 0
    latency_sum_ms: float = 0.0   # over non-degraded answers
    latency_count: int = 0


@dataclasses.dataclass(frozen=True)
class _ModelSpec:
    """A serialized model version: what a lane is on the router side."""

    version: str
    model_config: Dict[str, object]
    state: Dict[str, np.ndarray]

    @classmethod
    def of(cls, version: str, model) -> "_ModelSpec":
        return cls(version, dataclasses.asdict(model.config),
                   model.state_dict())

    def install(self, name: str) -> tuple:
        """The control message installing this spec as lane ``name``."""
        return ("install", name, self.version, self.model_config,
                self.state)


class ShardRouter:
    """Fan requests over N shards; see module docstring for semantics.

    Parameters
    ----------
    model:
        The initial serving model; its config and state dict are
        serialized once and broadcast — live model objects never cross
        into workers.
    inline:
        Serve from in-process shard runtimes instead of worker
        processes (see the module docstring).
    backlog_probe:
        Optional object with a ``pending`` attribute (the open-loop
        driver's :class:`~repro.load.BacklogProbe`) folded into the
        admission depth, so shedding responds to scheduled-but-unissued
        arrivals as well as dispatched in-flight work.
    service_wrapper:
        Inline shards only: ``service_wrapper(shard_id)`` returns a
        callable wrapping that shard's inner service (fault injection,
        modeled latency).  Not picklable, hence not available for
        worker processes.
    on_respawn / on_shed:
        Optional callbacks ``(shard_id) -> None`` fired when a dead
        shard is respawned / a request is shed; the load scenarios
        record pinned events through these.
    regime_of:
        Request → regime key for regime lanes (default: the model
        zoo's weather-derived key).  ``config.seed`` seeds the canary
        split.
    """

    def __init__(self, model, *, version: str = "v001",
                 config: Optional[ShardConfig] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 inline: bool = False,
                 clock: Callable[[], float] = time.perf_counter,
                 service_wrapper: Optional[Callable] = None,
                 backlog_probe=None,
                 on_respawn: Optional[Callable[[int], None]] = None,
                 on_shed: Optional[Callable[[int], None]] = None,
                 regime_of: Optional[Callable] = None):
        self.config = config or ShardConfig()
        self.resilience = resilience or ResilienceConfig()
        self.inline = inline
        self.clock = clock
        self.backlog_probe = backlog_probe
        self.on_respawn = on_respawn
        self.on_shed = on_shed
        self.fallback = FallbackPredictor()
        #: Lanes as serialized specs: the table picks each request's
        #: lane name (shards resolve it against their installed lanes),
        #: and non-primary specs are replayed onto respawned shards.
        self.lanes: LaneTable[_ModelSpec] = LaneTable(
            _ModelSpec.of(version, model), seed=self.config.seed,
            regime_of=regime_of)
        self._feedback = None
        self._req_counter = 0
        self._lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._tallies = [_ShardTally()
                         for _ in range(self.config.num_shards)]
        self._versions: Dict[str, _VersionTally] = {}
        self._in_flight = [0] * self.config.num_shards
        self._tickets: Dict[int, ShardTicket] = {}
        self._control_events: Dict[tuple, threading.Event] = {}
        self._pong_payloads: Dict[int, Dict] = {}
        self._init_metrics(metrics)

        self._wrappers = ([service_wrapper(i)
                           for i in range(self.config.num_shards)]
                          if service_wrapper is not None
                          else [None] * self.config.num_shards)
        self._collector: Optional[threading.Thread] = None
        self._stopping = False
        self._shards: List = [None] * self.config.num_shards
        self._start_shards(range(self.config.num_shards))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        self.metrics = metrics
        if metrics is None:
            return
        self._m_requests = metrics.counter(
            "rtp_shard_requests_total", "Requests routed per shard",
            labels=("shard",))
        self._m_shed = metrics.counter(
            "rtp_shard_shed_total", "Requests shed at shard admission",
            labels=("shard",))
        self._m_respawns = metrics.counter(
            "rtp_shard_respawns_total", "Dead-shard respawns",
            labels=("shard",))
        self._m_swaps = metrics.counter(
            "rtp_shard_swaps_total", "Model swaps applied per shard",
            labels=("shard",))
        self._m_depth = metrics.gauge(
            "rtp_shard_queue_depth", "Admission depth at last placement",
            labels=("shard",))
        self._m_peak = metrics.gauge(
            "rtp_shard_queue_peak", "Peak admission depth seen",
            labels=("shard",))
        self._m_latency = metrics.histogram(
            "rtp_shard_latency_ms",
            "Dispatch-to-answer latency per shard",
            labels=("shard",), buckets=SHARD_LATENCY_BUCKETS,
            exemplars=SHARD_LATENCY_EXEMPLARS)

    @property
    def version(self) -> str:
        """The version every shard's primary lane is serving."""
        return self.lanes.primary.version

    def _spec(self) -> Dict[str, object]:
        """:class:`ShardRuntime` keyword arguments, as plain data."""
        primary = self.lanes.primary
        return {
            "model_config": primary.model_config, "state": primary.state,
            "version": primary.version, "resilience": self.resilience,
            "cache_size": self.config.cache_size,
            "max_batch_size": self.config.max_batch_size,
            "sleep_latency_ms": self.config.sleep_latency_ms,
        }

    def _make_shard(self, shard: int):
        """A fresh transport serving the current primary lane."""
        if self.inline:
            return _InlineShard(
                ShardRuntime(shard, **self._spec(), clock=self.clock,
                             service_wrapper=self._wrappers[shard]),
                self._on_reply)
        if self._collector is None:
            import multiprocessing as mp
            self._mp = mp.get_context("fork")
            self._result_queue = self._mp.Queue()
            self._collector = threading.Thread(
                target=self._collect_loop, name="shard-router-collector",
                daemon=True)
            self._collector.start()
        return _ProcessShard(self._mp, shard, self._spec(),
                             self._result_queue)

    def _start_shards(self, shards: Iterable[int]) -> None:
        """Build shards from the lane table and wait until they are up."""
        ready = {shard: self._expect("ready", shard) for shard in shards}
        for shard in ready:
            self._shards[shard] = self._make_shard(shard)
            for name, spec in self.lanes.extra_lanes().items():
                self._shards[shard].put(spec.install(name))
        for shard in set(ready) - set(self._await(ready, "ready")):
            raise RuntimeError(f"shard {shard} died before it was ready")

    # ------------------------------------------------------------------
    # Placement and admission
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    def place(self, request) -> int:
        """Stable request→shard placement by courier identity."""
        courier_id = int(request.courier.courier_id)
        digest = hashlib.sha256(
            courier_id.to_bytes(8, "little", signed=True)).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards

    def _depth(self, shard: int) -> int:
        depth = self._in_flight[shard]
        if self.backlog_probe is not None:
            depth += int(self.backlog_probe.pending)
        return depth

    def _note_depth(self, shard: int, depth: int) -> None:
        tally = self._tallies[shard]
        tally.queue_peak = max(tally.queue_peak, depth)
        if self.metrics is not None:
            self._m_depth.labels(shard=str(shard)).set(depth)
            self._m_peak.labels(shard=str(shard)).set(tally.queue_peak)

    def _count_answer(self, version: str, degraded: bool,
                      latency_ms: float) -> None:
        """Tally one answer for ``version`` (caller holds the lock)."""
        answers = self._versions.get(version)
        if answers is None:
            answers = self._versions[version] = _VersionTally()
        answers.requests += 1
        if degraded:
            answers.degraded += 1
        else:
            answers.latency_sum_ms += latency_ms
            answers.latency_count += 1

    def _shed(self, shard: int, request, version: str):
        with self._lock:
            self._tallies[shard].shed += 1
            self._count_answer(version, True, 0.0)
        if self.metrics is not None:
            self._m_shed.labels(shard=str(shard)).inc()
        if self.on_shed is not None:
            self.on_shed(shard)
        return degraded_response(self.fallback, request, "shed",
                                 version=version)

    def _record_answer(self, shard: int, response, latency_ms: float,
                       trace_id: Optional[str]) -> None:
        with self._lock:
            tally = self._tallies[shard]
            tally.requests += 1
            tally.latencies_ms.append(latency_ms)
            self._count_answer(response.model_version, response.degraded,
                               latency_ms)
        if self.metrics is not None:
            self._m_requests.labels(shard=str(shard)).inc()
            self._m_latency.labels(shard=str(shard)).observe(
                latency_ms, trace_id=trace_id)

    # ------------------------------------------------------------------
    # Serving: one lifecycle for every shard transport
    # ------------------------------------------------------------------
    def handle(self, request):
        """Answer one request synchronously (sheds instead of queueing)."""
        with tracing.span("shard.route", shard=self.place(request)):
            return self._wait(self.submit(request))

    def attach_feedback(self, sink) -> None:
        """Register a completed-route sink (e.g. ``OnlineLoop``).

        Same contract as
        :meth:`~repro.deploy.ResilientRTPService.attach_feedback`:
        ``sink.offer(...)`` must be bounded and non-blocking.
        """
        self._feedback = sink

    def complete_route(self, request, response, actual_route,
                       actual_arrival_minutes) -> bool:
        """Report a route's late ground truth to the feedback sink."""
        if self._feedback is None:
            return False
        return bool(self._feedback.offer(
            request, response, actual_route, actual_arrival_minutes))

    def submit(self, request) -> ShardTicket:
        """Route, admit and dispatch one request; returns its ticket.

        The lane is drawn first, so a shed answer is stamped with the
        routed lane's version and counted in that version's tallies.
        Shed answers come back as already-done tickets (inline shards
        resolve every ticket before it is returned), so callers treat
        every submission uniformly.
        """
        shard = self.place(request)
        lane, spec = self.lanes.route(request)
        depth = self._depth(shard)
        self._note_depth(shard, depth)
        if depth >= self.config.max_queue_depth:
            ticket = ShardTicket(-1, shard, request, lane, None, self.clock())
            ticket.resolve(self._shed(shard, request, spec.version),
                           self.clock())
            return ticket
        if not self._shards[shard].alive:
            self._respawn(shard)
        ticket = ShardTicket(self._next_req_id(), shard, request, lane,
                             capture_context(), self.clock())
        with self._lock:
            self._tickets[ticket.req_id] = ticket
            self._in_flight[shard] += 1
        try:
            self._shards[shard].put(ticket.message)
        except BaseException:
            self._forget(ticket)
            raise
        return ticket

    def wait_all(self, tickets: List[ShardTicket]) -> List:
        """Resolve a batch of tickets (pipelined callers)."""
        return [self._wait(ticket) for ticket in tickets]

    def _wait(self, ticket: ShardTicket):
        """Block until a ticket resolves; respawn its shard if it dies."""
        deadline = time.monotonic() + self.config.health_timeout_s
        while not ticket.event.wait(timeout=0.05):
            if not self._shards[ticket.shard].alive:
                self._respawn(ticket.shard)
            if time.monotonic() > deadline:
                self._forget(ticket)
                return degraded_response(
                    self.fallback, ticket.request, "error",
                    version=self.version)
        merge_worker_spans(ticket.spans, ticket.trace_ctx)
        return ticket.response

    def _forget(self, ticket: ShardTicket) -> None:
        """Stop waiting for a ticket's reply (a late one is dropped)."""
        with self._lock:
            if self._tickets.pop(ticket.req_id, None) is not None:
                self._in_flight[ticket.shard] -= 1

    def _on_reply(self, message: tuple) -> None:
        """Take one shard reply: resolve its ticket or set its ack."""
        kind, shard = message[0], message[1]
        if kind != "response":
            if kind == "pong":
                self._pong_payloads[shard] = message[3]
            event = self._control_events.get((kind, shard))
            if event is not None:
                event.set()
            return
        _, _, req_id, response, spans = message
        with self._lock:
            ticket = self._tickets.pop(req_id, None)
            if ticket is None:
                return   # late duplicate after a respawn resubmit
            self._in_flight[shard] -= 1
        done_at = self.clock()
        self._record_answer(
            shard, response, (done_at - ticket.submitted) * 1000.0,
            ticket.trace_ctx[0] if ticket.trace_ctx is not None else None)
        ticket.spans = spans
        ticket.resolve(response, done_at)

    def _collect_loop(self) -> None:
        import queue as queue_mod
        while not self._stopping:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            self._on_reply(message)

    def _next_req_id(self) -> int:
        with self._lock:
            self._req_counter += 1
            return self._req_counter

    def _respawn(self, shard: int) -> None:
        """Rebuild a dead shard from the lane table; resubmit its work."""
        with self._respawn_lock:
            if self._shards[shard].alive:   # another thread got here first
                return
            tally = self._tallies[shard]
            if tally.respawns >= self.config.max_respawns:
                raise RuntimeError(
                    f"shard {shard} exceeded its respawn budget "
                    f"({self.config.max_respawns})")
            tally.respawns += 1
            if self.metrics is not None:
                self._m_respawns.labels(shard=str(shard)).inc()
            if self.on_respawn is not None:
                self.on_respawn(shard)
            with self._lock:
                outstanding = [t for t in self._tickets.values()
                               if t.shard == shard]
            self._shards[shard].close()
            self._start_shards([shard])
            for ticket in outstanding:   # resubmit, nothing is dropped
                self._shards[shard].put(ticket.message)

    # ------------------------------------------------------------------
    # Control messages: live shards only, acked behind their queues
    # ------------------------------------------------------------------
    def _expect(self, kind: str, shard: int) -> threading.Event:
        event = threading.Event()
        self._control_events[(kind, shard)] = event
        return event

    def _await(self, events: Dict[int, threading.Event],
               kind: str) -> List[int]:
        """Wait for each shard's ``kind`` reply; returns who answered.

        A shard that dies meanwhile is skipped (it is rebuilt on its
        next request); a live one silent past ``health_timeout_s``
        raises, naming the shard.
        """
        answered = []
        for shard, event in events.items():
            deadline = time.monotonic() + self.config.health_timeout_s
            while (not event.wait(timeout=0.05)
                   and self._shards[shard].alive):
                if time.monotonic() > deadline:
                    self._control_events.pop((kind, shard), None)
                    raise RuntimeError(
                        f"shard {shard} sent no {kind!r} within "
                        f"{self.config.health_timeout_s} s")
            self._control_events.pop((kind, shard), None)
            if event.is_set():
                answered.append(shard)
        return answered

    def _send_all(self, message: tuple, ack_kind: str) -> List[int]:
        """Apply a message on every live shard; returns the ackers."""
        events = {}
        for shard, transport in enumerate(self._shards):
            if transport.alive:
                events[shard] = self._expect(ack_kind, shard)
                transport.put(message)
        return self._await(events, ack_kind)

    # ------------------------------------------------------------------
    # Lifecycle: swap, canary, kill, shutdown
    # ------------------------------------------------------------------
    def swap_to(self, version: str, model) -> None:
        """Hot-swap every shard's primary to ``model`` (drains FIFO)."""
        spec = _ModelSpec.of(version, model)
        self.lanes.primary = spec
        self._send_all(("swap", self._next_req_id(), version,
                        spec.model_config, spec.state), "swapped")
        self._count_swaps()

    def _count_swaps(self) -> None:
        for shard in range(self.num_shards):
            self._tallies[shard].swaps += 1
            if self.metrics is not None:
                self._m_swaps.labels(shard=str(shard)).inc()

    def start_canary(self, version: str, model, fraction: float) -> None:
        """Install ``model`` as the canary lane on every shard (its
        version's answer tally restarts with this canary)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        spec = _ModelSpec.of(version, model)
        self.lanes.install(CANDIDATE, spec)   # replayed, not yet routed
        self._send_all(spec.install(CANDIDATE), "installed")
        with self._lock:
            self._versions.pop(version, None)
        self.lanes.fraction = fraction       # route only after all acks

    def stop_canary(self, promote: bool = False) -> None:
        """End the canary: drop the candidate, or promote it in place.

        The stop message queues behind any in-flight requests, so each
        shard drains its canary work before switching — a rollback
        never drops an answered-by-candidate request on the floor.
        """
        if self.lanes.candidate is None:
            raise RuntimeError("no canary is active")
        self.lanes.fraction = 0.0   # stop routing before draining
        self._send_all(("uninstall", CANDIDATE, promote), "uninstalled")
        self.lanes.uninstall(CANDIDATE, promote)
        if promote:
            self._count_swaps()

    # ------------------------------------------------------------------
    # Regime-matched routing (model zoo)
    # ------------------------------------------------------------------
    def install_regime(self, regime: str, version: str, model) -> None:
        """Install ``model`` as the dedicated lane for one regime.

        Respawned shards re-install the lane from its spec, exactly
        like the canary; routing follows the lane table's rule.
        """
        name, spec = REGIME_PREFIX + regime, _ModelSpec.of(version, model)
        self._send_all(spec.install(name), "installed")
        self.lanes.install(name, spec)   # route only after all acks

    def clear_regime(self, regime: str) -> bool:
        """Drop one regime lane everywhere; ``False`` if not installed."""
        name = REGIME_PREFIX + regime
        if self.lanes.uninstall(name) is None:
            return False    # removed first: stop routing before draining
        self._send_all(("uninstall", name, False), "uninstalled")
        return True

    def kill_shard(self, shard: int) -> None:
        """Kill one shard (tests / kill scenarios); respawn is lazy."""
        self._shards[shard].kill()

    def alive_shards(self) -> List[int]:
        return [i for i, transport in enumerate(self._shards)
                if transport.alive]

    def shutdown(self) -> None:
        """Stop every worker process (inline shards have none)."""
        for transport in self._shards:
            transport.close()
        if self._collector is not None:
            self._stopping = True
            self._collector.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runtimes(self) -> List[ShardRuntime]:
        """In-process shard runtimes (none when shards are workers)."""
        return [transport.runtime for transport in self._shards
                if transport.runtime is not None]

    @property
    def breakers(self) -> List[object]:
        """Inline lanes' circuit breakers (for scenario breaker watch)."""
        return [lane.resilient.breaker for runtime in self.runtimes
                for lane in (runtime.primary,
                             *runtime.lanes.extra_lanes().values())]

    def shard_stats(self) -> List[Dict[str, object]]:
        """Router-side per-shard accounting (the artifact block)."""
        stats = []
        with self._lock:
            for shard, tally in enumerate(self._tallies):
                latencies = np.asarray(tally.latencies_ms, dtype=float)
                stats.append({
                    "shard": shard,
                    "requests": tally.requests,
                    "shed": tally.shed,
                    "respawns": tally.respawns,
                    "swaps": tally.swaps,
                    "queue_peak": tally.queue_peak,
                    "p99_ms": (float(np.percentile(latencies, 99))
                               if latencies.size else 0.0),
                })
        return stats

    def lane_stats(self, version: str) -> Dict[str, float]:
        """Answers stamped with ``version`` since its canary started:
        counts (sheds included), degraded count, and mean
        dispatch-to-answer latency of the non-degraded ones (0 when
        there are none)."""
        with self._lock:
            tally = self._versions.get(version) or _VersionTally()
            return {
                "requests": tally.requests,
                "degraded": tally.degraded,
                "latency_ms": (tally.latency_sum_ms / tally.latency_count
                               if tally.latency_count else 0.0),
            }

    def worker_stats(self) -> List[Dict[str, object]]:
        """Shard-side stats snapshots of every live shard (ping/pong).

        A live shard that sends no pong within ``health_timeout_s``
        raises, naming the shard, rather than leaving a short list.
        """
        answered = self._send_all(("ping", self._next_req_id()), "pong")
        return [self._pong_payloads.pop(shard) for shard in answered]
