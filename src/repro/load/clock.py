"""Virtual time for the load harness' deterministic fast path.

The open-loop driver, the resilience layer and the fault injector all
take injectable ``clock``/``sleeper`` callables.  :class:`VirtualClock`
implements both over a simulated timeline: ``sleep`` advances time
instead of blocking, so a 60-second scenario replays in milliseconds
and — because nothing depends on the host's scheduler — every latency,
deadline breach, shed decision and breaker transition is bit-for-bit
reproducible from the seed.

:class:`ModeledLatencyService` is the missing piece between the two
worlds: under a virtual clock the real model forward costs zero
*virtual* time, so the wrapper advances the clock by a seeded modeled
service duration per call.  Queueing collapse then emerges from
arithmetic (modeled service time > arrival interval) exactly as it
does from wall-clock physics.  Shard workers hand the same wrapper
``time.sleep`` instead, to model I/O-shaped serving time on the wall
clock.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np


class VirtualClock:
    """A monotonic simulated clock; callable like ``time.perf_counter``.

    ``sleep`` advances the timeline (never blocks) and records every
    requested delay, so scheduler tests can assert the exact waits the
    open-loop driver asked for.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: List[float] = []

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds`` (negative requests are a no-op)."""
        self.sleeps.append(float(seconds))
        if seconds > 0:
            self._now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += float(seconds)


#: Default service-time multiplier per simulator weather code
#: (0 clear, 1 cloudy, 2 rain, 3 storm).  Bad weather slows the whole
#: fulfilment path — couriers confirm late, map services degrade — so
#: the modeled serving cost inflates with it.
WEATHER_SERVICE_SLOWDOWN = {0: 1.0, 1: 1.05, 2: 1.35, 3: 2.0}


class ModeledLatencyService:
    """Service shim that charges a modeled duration per call.

    Each call passes a lognormal-shaped service time (``base_ms``
    scaled by ``exp(sigma * N(0, 1))``, in seconds) drawn from a
    seeded RNG to ``advance``, then delegates to the wrapped service.
    The real forward still runs — predictions are the model's — and
    ``advance`` decides what the cost means: a virtual scenario passes
    :meth:`VirtualClock.advance`, so *time* is simulated and
    deadline/shedding/breaker dynamics are deterministic; a shard
    worker passes ``time.sleep``, so the cost is I/O-shaped wall time
    that overlaps across processes.  One cost is charged per call,
    batched or not.

    ``weather_factors`` optionally couples the cost to the request's
    ``weather`` feature (see :data:`WEATHER_SERVICE_SLOWDOWN`).  The
    multiplier is applied *after* the lognormal draw, so enabling the
    coupling never perturbs the RNG stream — clear-weather requests
    cost exactly what they cost without it.
    """

    def __init__(self, service, advance: Callable[[float], None],
                 base_ms: float, sigma: float = 0.2, seed: int = 0,
                 weather_factors=None):
        if base_ms < 0:
            raise ValueError("base_ms must be non-negative")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.service = service
        self.advance = advance
        self.base_ms = base_ms
        self.sigma = sigma
        self.weather_factors = (dict(weather_factors)
                                if weather_factors is not None else None)
        self._rng = np.random.default_rng(seed)

    def _weather_factor(self, weather) -> float:
        if self.weather_factors is None or weather is None:
            return 1.0
        return float(self.weather_factors.get(int(weather), 1.0))

    def _charge(self, weather=None) -> None:
        cost_ms = self.base_ms * float(np.exp(
            self.sigma * self._rng.standard_normal()))
        cost_ms *= self._weather_factor(weather)
        self.advance(cost_ms / 1000.0)

    def handle(self, request):
        self._charge(getattr(request, "weather", None))
        return self.service.handle(request)

    def handle_batch(self, requests: Sequence):
        # One charge per batch; the worst weather in the batch gates
        # the whole batch, like the slowest item in a fused forward.
        weathers = [getattr(r, "weather", None) for r in requests]
        weathers = [w for w in weathers if w is not None]
        self._charge(max(weathers) if weathers else None)
        return self.service.handle_batch(requests)

    def __getattr__(self, name):
        # Forward cache/queries_served/... to the wrapped service.
        return getattr(self.service, name)
