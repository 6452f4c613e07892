"""Per-shard serving engine: one batched model stack per shard.

A :class:`ShardRuntime` is everything one serving shard owns — rebuilt
from plain data (model config dict + state-dict arrays) so the same
class backs both shard transports of the
:class:`~repro.serving_shard.ShardRouter`:

* **worker process** — :func:`shard_worker_main` constructs the
  runtime *inside* the worker process from the spec message, so
  nothing built in the router process (model, caches, buffer pools) is
  ever shared through ``fork``;
* **inline** — the router holds the runtime in-process and hands it
  each message synchronously (the deterministic virtual-clock path of
  the load scenarios); each runtime enters its own
  :func:`~repro.kernels.workspace_scope` around request work so the
  fused kernels draw from per-shard scratch pools even on a shared
  thread.

Either way the runtime speaks one message protocol (plain tuples in,
reply tuples out).  Per shard, each lane of a
:class:`~repro.deploy.lanes.LaneTable` is an
:class:`~repro.service.RTPService` (own :class:`~repro.service.GraphCache`)
wrapped by :class:`~repro.deploy.ResilientRTPService`
(deadline/breaker/fallback, fixed ``model_version`` stamp per installed
version); the request messages one wake-up drains are served as one
batched call per lane.  Hot model swap and lane install/uninstall
arrive as queue messages; FIFO ordering is what makes a swap *drain* —
every request enqueued before the swap message is answered by the old
version, every one after by the new, and no request is ever dropped.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import M2G4RTP, M2G4RTPConfig
from ..core.fallback import FallbackPredictor
from ..deploy.lanes import LaneTable
from ..deploy.resilience import ResilienceConfig, ResilientRTPService
from ..kernels import Workspace, workspace_scope
from ..obs import tracing
from ..obs.propagate import worker_span_session
from ..service import RTPService

#: Exit code a worker uses for injected crashes (mirrors repro.parallel).
CRASH_EXIT_CODE = 23


def build_model(model_config: Dict[str, object],
                state: Dict[str, np.ndarray]) -> M2G4RTP:
    """Rebuild an eval-mode model from its config dict + state dict.

    This is the "weights distributed once per version" half of the
    serving tier: the router serialises ``dataclasses.asdict(config)``
    and ``model.state_dict()`` exactly once per version and broadcasts
    them; every shard rebuilds locally.
    """
    model = M2G4RTP(M2G4RTPConfig(**model_config))
    model.load_state_dict(state)
    model.eval()
    return model


class _Lane:
    """One installed model version: its service behind a resilient wrap."""

    def __init__(self, version: str, model: M2G4RTP, *,
                 cache_size: int,
                 resilience: ResilienceConfig,
                 fallback: FallbackPredictor,
                 clock: Callable[[], float],
                 service_wrapper: Optional[Callable] = None):
        self.version = version
        self.service = RTPService(model, cache_size=cache_size)
        inner = (service_wrapper(self.service) if service_wrapper is not None
                 else self.service)
        self.resilient = ResilientRTPService(
            inner, fallback=fallback, config=resilience, version=version,
            clock=clock)


class ShardRuntime:
    """The complete serving stack of one shard.

    Parameters mirror what fits in a picklable spec message: the model
    arrives as ``(model_config, state)`` plain data, never as a live
    object.  ``service_wrapper`` (inline shards only — closures do not
    cross process boundaries) wraps the inner service per lane, which
    is how the load scenarios install fault injection and
    modeled-latency shims per shard; ``sleep_latency_ms`` is the
    plain-data way to the same modeled cost in a worker process.
    """

    def __init__(self, shard_id: int, model_config: Dict[str, object],
                 state: Dict[str, np.ndarray], version: str, *,
                 resilience: Optional[ResilienceConfig] = None,
                 cache_size: int = 32,
                 max_batch_size: int = 8,
                 clock: Callable[[], float] = time.perf_counter,
                 service_wrapper: Optional[Callable] = None,
                 sleep_latency_ms: float = 0.0):
        self.shard_id = int(shard_id)
        self.clock = clock
        self.cache_size = cache_size
        self.max_batch_size = max_batch_size
        self.resilience = resilience or ResilienceConfig()
        if service_wrapper is None and sleep_latency_ms > 0.0:
            # Spec-data path for process workers: the modeled cost is
            # built here, post-fork, from plain numbers, and slept.
            from ..load.clock import ModeledLatencyService
            service_wrapper = (
                lambda inner: ModeledLatencyService(
                    inner, time.sleep, sleep_latency_ms, sigma=0.25,
                    seed=1000 + self.shard_id))
        self.service_wrapper = service_wrapper
        self.fallback = FallbackPredictor()
        #: Per-shard scratch pool for the fused kernels; entered via
        #: workspace_scope around every request so two inline shards
        #: never alias buffers.
        self.workspace = Workspace()
        self.alive = True
        self.requests = 0
        self.swaps = 0
        #: Primary, canary candidate and regime lanes of this shard.
        #: The router picks lane *names*; the table resolves each to an
        #: installed lane, falling back to the primary.
        self.lanes: LaneTable[_Lane] = LaneTable(
            self._make_lane(model_config, state, version))

    @property
    def primary(self) -> _Lane:
        return self.lanes.primary

    # ------------------------------------------------------------------
    def _make_lane(self, model_config: Dict[str, object],
                   state: Dict[str, np.ndarray], version: str) -> _Lane:
        return _Lane(version, build_model(model_config, state),
                     cache_size=self.cache_size,
                     resilience=self.resilience, fallback=self.fallback,
                     clock=self.clock,
                     service_wrapper=self.service_wrapper)

    # ------------------------------------------------------------------
    # Message protocol (plain picklable tuples, repro.parallel style)
    # ------------------------------------------------------------------
    def process(self, message: Tuple) -> List[Tuple]:
        """Handle one control or request message; returns replies."""
        kind = message[0]
        if kind == "request":
            return self.process_requests([message])
        if kind == "swap":
            _, swap_id, version, model_config, state = message
            self.lanes.primary = self._make_lane(model_config, state, version)
            self.swaps += 1
            return [("swapped", self.shard_id, swap_id, version)]
        if kind == "install":
            _, name, version, model_config, state = message
            self.lanes.install(
                name, self._make_lane(model_config, state, version))
            return [("installed", self.shard_id, name, version)]
        if kind == "uninstall":
            _, name, promote = message
            if self.lanes.uninstall(name, promote) is not None and promote:
                self.swaps += 1
            return [("uninstalled", self.shard_id, name,
                     self.primary.version)]
        if kind == "ping":
            return [("pong", self.shard_id, message[1], self.stats())]
        if kind == "crash":  # fault injection for respawn tests
            os._exit(CRASH_EXIT_CODE)
        raise ValueError(f"shard {self.shard_id}: unknown message "
                         f"kind {kind!r}")

    def process_requests(self, messages: Sequence[Tuple]) -> List[Tuple]:
        """Serve a drained batch of request messages.

        Messages are grouped by lane (primary, canary candidate, regime
        lanes) and each group is one batched call; reply order matches
        message order.  Worker-side spans are captured under a session
        keyed by the first message that shipped a trace context and
        returned with that message's reply (one flush serves many
        traces; the router stitches the shipped tree under its own
        dispatch span).
        """
        ctx_index = next((i for i, m in enumerate(messages)
                          if m[4] is not None), 0)
        session = worker_span_session(messages[ctx_index][4])
        with session, workspace_scope(self.workspace):
            with tracing.span("shard.serve", shard=self.shard_id,
                              batch=len(messages)):
                responses: Dict[int, object] = {}
                groups: Dict[str, Tuple[_Lane, List[int]]] = {}
                for index, message in enumerate(messages):
                    name, lane = self.lanes.resolve(message[3])
                    groups.setdefault(name, (lane, []))[1].append(index)
                for lane, indices in groups.values():
                    answers = lane.resilient.handle_batch(
                        [messages[i][2] for i in indices])
                    for index, answer in zip(indices, answers):
                        responses[index] = answer
            spans = session.export()
        self.requests += len(messages)
        replies = []
        for index, message in enumerate(messages):
            shipped = spans if index == ctx_index else []
            replies.append(("response", self.shard_id, message[1],
                            responses[index], shipped))
        return replies

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot of the shard's internal accounting."""
        cache = self.primary.service.cache
        return {
            "shard": self.shard_id,
            "pid": os.getpid(),
            "version": self.primary.version,
            "candidate": (self.lanes.candidate.version
                          if self.lanes.candidate is not None else None),
            "regimes": dict(sorted(self.lanes.regime_versions().items())),
            "requests": self.requests,
            "swaps": self.swaps,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "resilient": self.primary.resilient.snapshot(),
        }


def shard_worker_main(shard_id: int, spec: Dict[str, object],
                      task_queue, result_queue) -> None:
    """Entry point of one shard worker process.

    Builds the runtime from the plain-data ``spec`` (the
    :class:`ShardRuntime` keyword arguments) *after* the fork, announces
    readiness, then loops: drain up to ``max_batch_size`` consecutive
    request messages per wake-up (each lane's share is one batched
    call) and answer control messages in arrival order.  ``stop``
    exits the loop cleanly.
    """
    runtime = ShardRuntime(shard_id, **spec)
    result_queue.put(("ready", shard_id, os.getpid()))
    held: Optional[Tuple] = None
    while True:
        if held is not None:
            message, held = held, None
        else:
            message = task_queue.get()
        if message[0] == "stop":
            result_queue.put(("stopped", shard_id))
            return
        if message[0] == "request":
            batch = [message]
            while len(batch) < runtime.max_batch_size:
                try:
                    nxt = task_queue.get_nowait()
                except queue.Empty:
                    break
                if nxt[0] == "request":
                    batch.append(nxt)
                else:
                    held = nxt  # control messages keep FIFO order
                    break
            replies = runtime.process_requests(batch)
        else:
            replies = runtime.process(message)
        for reply in replies:
            result_queue.put(reply)
