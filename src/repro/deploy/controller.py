"""Canary / shadow rollout control over the model registry.

The controller owns the serving-side model lifecycle — hot swap,
canary, promote, rollback, drift-alarm rollback, regime lanes, the
registry's ``ACTIVE`` pointer and rollout decisions — for both serving
topologies.  In-process, each installed version is a
:class:`~repro.deploy.ResilientRTPService` in the controller's own
:class:`~repro.deploy.lanes.LaneTable`; given a
:class:`~repro.serving_shard.ShardRouter`, the router's lane table
routes and each lifecycle action is a broadcast every shard applies
behind its in-flight work.  Rollout modes:

* **canary** — a configurable fraction of live requests is answered by
  the candidate; once it has seen enough traffic the controller
  compares the candidate lane's answers (requests, degraded rate, mean
  latency) with the primary's against the rollout policy and
  **auto-promotes** or **auto-rolls-back**;
* **shadow** (in-process only) — every request is duplicated to the
  candidate, whose answer is discarded; only the divergence (route
  permutation mismatch and ETA MAE against the served answer) is
  recorded.

Promotion writes the registry's ``ACTIVE`` pointer, so a restarted
controller comes back serving the promoted version.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.fallback import FallbackPredictor
from ..obs.metrics import MetricsRegistry
from ..service.request import RTPRequest
from ..service.rtp_service import RTPResponse, RTPService
from .faults import FaultInjector
from .lanes import CANDIDATE, REGIME_PREFIX, LaneTable
from .registry import ModelRegistry
from .resilience import ResilienceConfig, ResilientRTPService


@dataclasses.dataclass
class RolloutPolicy:
    """Thresholds for the canary auto-promote / auto-rollback verdict."""

    canary_fraction: float = 0.2     # share of traffic sent to candidate
    min_requests: int = 20           # candidate traffic before a verdict
    max_degraded_rate: float = 0.2   # candidate degraded share → rollback
    max_latency_ratio: float = 5.0   # candidate/primary mean latency cap
    #: When set, the verdict also reads the ``rtp_quality_eta_mae``
    #: gauges (``segment="model_version"``): promotion additionally
    #: waits for ``min_quality_routes`` completed-route observations of
    #: the candidate and rolls back if its windowed ETA MAE exceeds
    #: ``max_quality_mae_ratio`` times the primary's.  ``None`` keeps
    #: the latency/degraded-only verdict.
    max_quality_mae_ratio: Optional[float] = None
    min_quality_routes: int = 0      # candidate quality obs before verdict

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if self.max_degraded_rate < 0:
            raise ValueError("max_degraded_rate must be non-negative")
        if self.max_latency_ratio <= 0:
            raise ValueError("max_latency_ratio must be positive")
        if (self.max_quality_mae_ratio is not None
                and self.max_quality_mae_ratio <= 0):
            raise ValueError("max_quality_mae_ratio must be positive")
        if self.min_quality_routes < 0:
            raise ValueError("min_quality_routes must be non-negative")


@dataclasses.dataclass
class RolloutDecision:
    """Outcome of one canary evaluation (kept in ``decisions``)."""

    action: str                  # "promote" or "rollback"
    version: str
    reason: str
    candidate_requests: int
    candidate_degraded_rate: float
    candidate_latency_ms: float
    primary_latency_ms: float


@dataclasses.dataclass
class ShadowStats:
    """Divergence of the shadow candidate against the primary."""

    requests: int = 0
    route_mismatches: int = 0
    degraded_candidate: int = 0
    eta_mae_sum: float = 0.0

    @property
    def route_mismatch_rate(self) -> float:
        """Share of shadowed requests with a different permutation."""
        return self.route_mismatches / self.requests if self.requests else 0.0

    @property
    def eta_mae(self) -> float:
        """Mean absolute ETA difference vs the primary (minutes)."""
        return self.eta_mae_sum / self.requests if self.requests else 0.0


class DeploymentController:
    """Routes live traffic across registry versions with rollout logic.

    Parameters
    ----------
    registry:
        The :class:`~repro.deploy.ModelRegistry` versions are loaded
        from; promotion moves its ``ACTIVE`` pointer.
    metrics:
        Shared :class:`~repro.obs.MetricsRegistry`; rollout decisions
        and drift alarms are counted here, and the quality-gated verdict
        reads the per-version ``rtp_quality_*`` gauges back.
    router:
        Optional :class:`~repro.serving_shard.ShardRouter` to drive; its
        version, split seed and regime map apply, and the arguments
        that build in-process lanes (``initial`` to ``regime_of``) are
        unused.
    initial:
        Version ref served at start — default: the registry's active
        version, else ``latest``.
    seed:
        Seeds the canary routing RNG (deterministic traffic split).
    batcher:
        Optional queue-depth source (anything with a ``pending``
        attribute) handed to every resilient wrapper the controller
        builds, so admission control sheds on the shared backlog.  The
        load harness passes its open-loop backlog probe here.
    service_wrapper:
        Optional callable applied to each version's inner service
        (after fault injection) before the resilient wrapper — the
        load harness uses it to install modeled-latency shims under a
        virtual clock.
    """

    def __init__(self, registry: ModelRegistry, *,
                 resilience: Optional[ResilienceConfig] = None,
                 policy: Optional[RolloutPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 fallback: Optional[FallbackPredictor] = None,
                 initial: Optional[str] = None,
                 seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter,
                 batcher=None,
                 service_wrapper: Optional[Callable] = None,
                 regime_of: Optional[Callable[[RTPRequest], str]] = None,
                 router=None):
        self.registry = registry
        self.resilience = resilience or ResilienceConfig()
        self.policy = policy or RolloutPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fallback = fallback or FallbackPredictor()
        self.clock = clock
        self.batcher = batcher
        self.service_wrapper = service_wrapper
        self.router = router
        self._decision_counter = self.metrics.counter(
            "rtp_rollout_decisions_total", "Canary verdicts by action",
            labels=("action",))
        if router is not None:
            self.lanes = router.lanes
        else:
            if initial is None:
                initial = ("active" if registry.active() is not None
                           else "latest")
            self.lanes = LaneTable(
                self._make_service(registry.resolve(initial)), seed=seed,
                regime_of=regime_of)
        if registry.active() != self.active_version:
            registry.activate(self.active_version)
        self.mode: Optional[str] = None        # None | "canary" | "shadow"
        self.decisions: List[RolloutDecision] = []
        self.shadow_stats = ShadowStats()

    # ------------------------------------------------------------------
    @property
    def primary(self):
        """The primary lane: a resilient service, or a router spec."""
        return self.lanes.primary

    @property
    def candidate(self):
        """The canary/shadow candidate lane, if one is in flight."""
        return self.lanes.candidate

    @property
    def active_version(self) -> str:
        """Version currently serving non-candidate traffic."""
        return self.lanes.primary.version

    def _make_service(self, version: str,
                      fault_injector: Optional[FaultInjector] = None,
                      ) -> ResilientRTPService:
        model, _ = self.registry.load(version)
        service = RTPService(model)
        inner = fault_injector.wrap(service) if fault_injector else service
        if self.service_wrapper is not None:
            inner = self.service_wrapper(inner)
        return ResilientRTPService(
            inner, fallback=self.fallback, config=self.resilience,
            registry=self.metrics, version=version, clock=self.clock,
            batcher=self.batcher)

    def _load_model(self, version: str, fault_injector=None):
        """The model a router broadcasts for ``version``."""
        if fault_injector is not None:
            raise ValueError("per-lane fault injection needs in-process "
                             "serving (shards use service_wrapper)")
        return self.registry.load(version)[0]

    # ------------------------------------------------------------------
    # Rollout lifecycle
    # ------------------------------------------------------------------
    def start_canary(self, ref: str, fraction: Optional[float] = None,
                     fault_injector: Optional[FaultInjector] = None) -> str:
        """Load ``ref`` as the canary candidate; returns its version.

        ``fault_injector`` (tests/benchmarks, in-process only) wraps the
        candidate's inner service so injected faults hit only the
        candidate path.
        """
        version = self._resolve_candidate(ref)
        if fraction is not None:
            self.policy = dataclasses.replace(
                self.policy, canary_fraction=fraction)
        fraction = self.policy.canary_fraction
        if self.router is None:
            self.lanes.install(
                CANDIDATE, self._make_service(version, fault_injector))
            self.lanes.fraction = fraction
        else:
            self.router.start_canary(
                version, self._load_model(version, fault_injector), fraction)
        self.mode = "canary"
        return version

    def start_shadow(self, ref: str,
                     fault_injector: Optional[FaultInjector] = None) -> str:
        """Load ``ref`` as a shadow candidate; returns its version."""
        if self.router is not None:
            raise RuntimeError("shadow rollouts need in-process serving")
        version = self._resolve_candidate(ref)
        self.lanes.install(CANDIDATE,
                           self._make_service(version, fault_injector))
        self.mode = "shadow"
        self.shadow_stats = ShadowStats()
        return version

    def _resolve_candidate(self, ref: str) -> str:
        if self.lanes.candidate is not None:
            # Replacing a live candidate would drop it without a
            # decision and restart its verdict evidence from zero.
            raise RuntimeError(
                f"candidate {self.lanes.candidate.version!r} is already "
                "in flight; promote or roll it back first")
        version = self.registry.resolve(ref)
        if version == self.active_version:
            # The per-version metric series would collide and the
            # canary verdict would be computed on merged numbers.
            raise ValueError(
                f"candidate {version!r} is already the serving primary; "
                "register a new version to roll out")
        return version

    def swap(self, ref: str) -> str:
        """Hot-swap the primary to an already-registered version.

        The model-zoo re-activation path: a *returning* regime swaps
        back to the version that already knows it, with no canary (the
        zoo only holds gate-approved versions) and no retrain.  Refused
        mid-rollout — a swap under a live candidate would invalidate
        the canary verdict's baselines.  ``ACTIVE`` moves only once the
        new primary serves (after every shard acked, when sharded).
        """
        version = self.registry.resolve(ref)
        if version == self.active_version:
            return version
        if self.lanes.candidate is not None:
            raise RuntimeError(
                "cannot swap the primary while a candidate is in flight")
        if self.router is None:
            self.lanes.primary = self._make_service(version)
        else:
            self.router.swap_to(version, self._load_model(version))
        self.registry.activate(version)
        return version

    # ------------------------------------------------------------------
    # Regime-matched routing (model zoo)
    # ------------------------------------------------------------------
    def install_regime(self, regime: str, ref: str,
                       fault_injector: Optional[FaultInjector] = None,
                       ) -> str:
        """Serve requests in ``regime`` from ``ref`` instead of ACTIVE.

        Fallback stays the primary: requests whose regime has no lane
        (or whose lane's version *is* the primary) are untouched, and a
        live canary takes its split first so an experiment is never
        starved of its traffic share.
        """
        version = self.registry.resolve(ref)
        if self.router is None:
            self.lanes.install(REGIME_PREFIX + regime,
                               self._make_service(version, fault_injector))
        else:
            self.router.install_regime(
                regime, version, self._load_model(version, fault_injector))
        return version

    def clear_regime(self, regime: str) -> bool:
        """Drop one regime lane; ``False`` if it wasn't installed."""
        if self.router is None:
            return self.lanes.uninstall(REGIME_PREFIX + regime) is not None
        return self.router.clear_regime(regime)

    def promote(self, reason: str = "manual") -> RolloutDecision:
        """Make the candidate the primary and persist it as ACTIVE."""
        if self.lanes.candidate is None:
            raise RuntimeError("no candidate to promote")
        decision = self._decision("promote", reason)
        self._end_candidate(promote=True)
        self.registry.activate(decision.version)
        return decision

    def rollback(self, reason: str = "manual") -> RolloutDecision:
        """Drop the candidate; the primary keeps serving."""
        if self.lanes.candidate is None:
            raise RuntimeError("no candidate to roll back")
        decision = self._decision("rollback", reason)
        self._end_candidate(promote=False)
        return decision

    def on_drift_alarm(self, alarm) -> Optional[RolloutDecision]:
        """React to a quality-drift alarm; returns the rollback, if any.

        Designed as a :meth:`QualityMonitor.on_alarm` subscriber:
        ``alarm`` is duck-typed (``metric`` / ``detector`` /
        ``statistic`` / ``threshold`` attributes).  A drifting quality
        stream during a canary is the strongest rollback signal there
        is — the latency/degraded verdict may still look healthy while
        the model is quietly wrong — so the candidate is dropped
        immediately.  Outside a canary the alarm is only counted: the
        primary has nothing to roll back to.
        """
        self.metrics.counter(
            "rtp_drift_alarms_total",
            "Quality-drift alarms seen by the deployment controller",
            labels=("metric", "detector")).labels(
            metric=str(getattr(alarm, "metric", "unknown")),
            detector=str(getattr(alarm, "detector", "unknown"))).inc()
        if self.mode != "canary" or self.lanes.candidate is None:
            return None
        return self.rollback(reason=(
            f"drift: {alarm.metric} {alarm.detector} statistic "
            f"{alarm.statistic:.3f} > {alarm.threshold:.3f}"))

    def _end_candidate(self, promote: bool) -> None:
        """Stop the split, then promote or drop the candidate lane."""
        if self.router is None:
            self.lanes.uninstall(CANDIDATE, promote)
        else:
            self.router.stop_canary(promote=promote)
        self.mode = None

    def _evidence(self) -> Tuple[int, float, float, float]:
        """Candidate requests, degraded rate and mean latency (ms), and
        the primary's mean latency, from each lane's own answers: the
        resilient tallies in-process (model latency), the router's
        per-version tallies sharded (dispatch-to-answer latency)."""
        candidate = self.lanes.candidate
        if self.router is not None:
            stats = self.router.lane_stats(candidate.version)
            requests = int(stats["requests"])
            return (requests,
                    stats["degraded"] / requests if requests else 0.0,
                    stats["latency_ms"],
                    self.router.lane_stats(self.active_version)["latency_ms"])
        return (candidate.counts["requests"], candidate.degraded_rate,
                candidate.model_latency_mean_ms(),
                self.lanes.primary.model_latency_mean_ms())

    def _decision(self, action: str, reason: str) -> RolloutDecision:
        requests, degraded_rate, candidate_ms, primary_ms = self._evidence()
        decision = RolloutDecision(
            action=action,
            version=self.lanes.candidate.version,
            reason=reason,
            candidate_requests=requests,
            candidate_degraded_rate=degraded_rate,
            candidate_latency_ms=candidate_ms,
            primary_latency_ms=primary_ms,
        )
        self.decisions.append(decision)
        self._decision_counter.labels(action=action).inc()
        return decision

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def handle(self, request: RTPRequest) -> RTPResponse:
        """Serve one request from the lane the lane table picks.

        Lanes, ``mode`` and ``candidate`` are read once: a concurrent
        :meth:`promote` / :meth:`rollback` never yanks the service from
        under an in-flight request, so its ``model_version`` stamp stays
        coherent.  A candidate answer gives the verdict a chance to fire.
        """
        mode, candidate = self.mode, self.lanes.candidate
        if self.router is not None:
            response = self.router.handle(request)
        else:
            response = self.lanes.route(request)[1].handle(request)
            if mode == "shadow" and candidate is not None:
                self._shadow(candidate, request, response)
        if (mode == "canary" and candidate is not None
                and response.model_version == candidate.version):
            self._maybe_decide()
        return response

    def _shadow(self, candidate: ResilientRTPService, request: RTPRequest,
                served: RTPResponse) -> None:
        shadow = candidate.handle(request)  # resilient: cannot raise
        self.shadow_stats.requests += 1
        if shadow.degraded:
            self.shadow_stats.degraded_candidate += 1
        if not np.array_equal(shadow.route, served.route):
            self.shadow_stats.route_mismatches += 1
            self.metrics.counter(
                "rtp_shadow_divergence_total", "Shadow mismatches by kind",
                labels=("kind",)).labels(kind="route").inc()
        mae = float(np.mean(np.abs(shadow.eta_minutes - served.eta_minutes)))
        self.shadow_stats.eta_mae_sum += mae
        self.metrics.summary(
            "rtp_shadow_eta_mae",
            "Per-request ETA MAE of shadow vs primary").observe(mae)

    # ------------------------------------------------------------------
    # Canary verdict
    # ------------------------------------------------------------------
    def _metric_value(self, name: str, **labels) -> float:
        instrument = self.metrics.get(name)
        if instrument is None:
            return 0.0
        return float(instrument.labels(**labels).value)

    def _maybe_decide(self) -> Optional[RolloutDecision]:
        """Auto-promote / auto-rollback once the candidate has traffic.

        Health comes from the candidate lane's own answers
        (:meth:`_evidence`); the optional quality leg reads the
        per-version ``rtp_quality_*`` gauges from the shared metrics
        registry — the same exposition operators scrape.
        """
        if self.lanes.candidate is None or self.mode != "canary":
            return None
        version = self.lanes.candidate.version
        requests, degraded_rate, candidate_latency, primary_latency = (
            self._evidence())
        if requests < self.policy.min_requests:
            return None
        if degraded_rate > self.policy.max_degraded_rate:
            return self.rollback(
                reason=f"degraded rate {degraded_rate:.2f} > "
                       f"{self.policy.max_degraded_rate:.2f}")
        if (primary_latency > 0 and candidate_latency
                > self.policy.max_latency_ratio * primary_latency):
            return self.rollback(
                reason=f"latency {candidate_latency:.1f}ms > "
                       f"{self.policy.max_latency_ratio:.1f}x primary "
                       f"{primary_latency:.1f}ms")
        if self.policy.max_quality_mae_ratio is not None:
            routes = self._metric_value(
                "rtp_quality_routes_total",
                segment="model_version", key=version)
            if routes < self.policy.min_quality_routes:
                return None  # healthy, but quality evidence still thin
            candidate_mae = self._metric_value(
                "rtp_quality_eta_mae",
                segment="model_version", key=version)
            primary_mae = self._metric_value(
                "rtp_quality_eta_mae",
                segment="model_version", key=self.active_version)
            if (primary_mae > 0 and candidate_mae
                    > self.policy.max_quality_mae_ratio * primary_mae):
                return self.rollback(
                    reason=f"quality: candidate eta mae "
                           f"{candidate_mae:.1f} > "
                           f"{self.policy.max_quality_mae_ratio:.2f}x "
                           f"primary {primary_mae:.1f} over "
                           f"{int(routes)} completed routes")
            return self.promote(
                reason=f"quality: candidate eta mae {candidate_mae:.1f} "
                       f"vs primary {primary_mae:.1f} over "
                       f"{int(routes)} completed routes")
        return self.promote(
            reason=f"healthy after {int(requests)} canary requests")

    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """Prometheus exposition of the shared registry."""
        return self.metrics.render()
