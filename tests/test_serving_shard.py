"""Sharded serving tier: placement, admission, isolation, swap, respawn.

The properties that make :mod:`repro.serving_shard` trustworthy:

* placement is a pure function of courier identity — stable across
  router instances and process boundaries (sha256, never ``hash()``);
* admission control sheds at the per-shard depth bound through the
  degraded fallback path, never with an error;
* two shards never share mutable serving state: each runtime owns its
  workspace (no kernel scratch aliasing), graph cache and batcher, and
  process workers rebuild everything post-fork from plain spec data;
* hot swap and canary stop/promote are *drains* — every in-flight
  request is answered by a coherent installed version, versions are
  FIFO-monotonic per shard, and nothing is dropped;
* a killed worker is respawned (from current weights) and outstanding
  work resubmitted — the caller just sees answers;
* lane routing and rollout control are topology-blind: the one
  :class:`~repro.deploy.DeploymentController` serves the same version
  for the same request in-process, over one shard and over two, and
  its rollout decisions describe the candidate lane's own answers.
"""

import dataclasses
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import M2G4RTP, M2G4RTPConfig
from repro.deploy import (DeploymentController, ModelRegistry,
                          ResilienceConfig, RolloutPolicy)
from repro.load import VirtualClock
from repro.obs import MetricsRegistry, disable_tracing, enable_tracing
from repro.service import RTPRequest
from repro.load.clock import ModeledLatencyService
from repro.serving_shard import (ShardConfig, ShardRouter, ShardRuntime,
                                 build_model)


def tiny_model(seed: int = 3) -> M2G4RTP:
    model = M2G4RTP(M2G4RTPConfig(
        hidden_dim=16, num_heads=2, num_encoder_layers=1,
        continuous_embed_dim=8, discrete_embed_dim=4, position_dim=4,
        courier_embed_dim=4, seed=seed))
    model.eval()
    return model


@pytest.fixture(scope="module")
def requests(dataset):
    instances = list(dataset)
    return [RTPRequest.from_instance(instances[i % len(instances)])
            for i in range(24)]


def make_router(num_shards=2, **kwargs) -> ShardRouter:
    kwargs.setdefault("inline", True)
    config = kwargs.pop("config", None) or ShardConfig(num_shards=num_shards)
    return ShardRouter(tiny_model(), version="v001", config=config, **kwargs)


#: Serving topologies one DeploymentController can drive.
TOPOLOGIES = ("inprocess", "shards1", "shards2")

#: Admission bound every make_controller topology sheds at.
SHED_DEPTH = 4


@pytest.fixture()
def registry(tmp_path):
    """v001 = the make_router primary, v002 = canary, v003 = storm lane."""
    registry = ModelRegistry(tmp_path / "registry")
    for seed in (3, 9, 7):
        registry.register(tiny_model(seed=seed), created_at=f"s{seed}",
                          data_seed=0)
    return registry


def make_controller(registry, topology, seed=0, backlog=None,
                    **router_kwargs):
    """A controller serving v001 in ``topology``; verdicts stay manual.

    ``backlog`` (anything with ``pending``) is the admission signal;
    every topology sheds once it reaches :data:`SHED_DEPTH`.
    """
    policy = RolloutPolicy(min_requests=10 ** 9)
    if topology == "inprocess":
        return DeploymentController(
            registry, initial="v001", seed=seed, policy=policy,
            resilience=ResilienceConfig(max_queue_depth=SHED_DEPTH),
            batcher=backlog)
    model, _ = registry.load("v001")
    router = ShardRouter(
        model, version="v001", inline=True,
        config=ShardConfig(num_shards=int(topology[-1]), seed=seed,
                           max_queue_depth=SHED_DEPTH),
        backlog_probe=backlog, **router_kwargs)
    return DeploymentController(registry, router=router, policy=policy)


def assert_valid(response, request):
    assert (sorted(int(i) for i in response.route)
            == list(range(request.num_locations)))
    assert len(response.eta_minutes) == request.num_locations
    assert np.all(np.isfinite(response.eta_minutes))


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_consistent_across_router_instances(self, requests):
        a = make_router(num_shards=3)
        b = make_router(num_shards=3)
        for request in requests:
            assert a.place(request) == b.place(request)
            assert 0 <= a.place(request) < 3

    def test_same_courier_same_shard(self, requests):
        router = make_router(num_shards=4)
        by_courier = {}
        for request in requests:
            shard = router.place(request)
            previous = by_courier.setdefault(request.courier.courier_id,
                                             shard)
            assert previous == shard

    def test_known_pinned_values(self, requests):
        """sha256 placement must never drift (a resharding event)."""
        import hashlib

        router = make_router(num_shards=2)
        for request in requests[:4]:
            cid = int(request.courier.courier_id)
            digest = hashlib.sha256(
                cid.to_bytes(8, "little", signed=True)).digest()
            assert router.place(request) == int.from_bytes(
                digest[:8], "big") % 2


# ----------------------------------------------------------------------
# Inline serving + admission control
# ----------------------------------------------------------------------
class TestInlineServing:
    def test_round_trip_and_version_stamp(self, requests):
        router = make_router(num_shards=2)
        for request in requests[:8]:
            response = router.handle(request)
            assert_valid(response, request)
            assert response.model_version == "v001"
            assert not response.degraded

    def test_admission_sheds_via_fallback(self, requests):
        class Backlog:
            pending = 10_000

        router = make_router(num_shards=2, backlog_probe=Backlog())
        response = router.handle(requests[0])
        assert_valid(response, requests[0])   # degraded, never an error
        assert response.degraded and response.degraded_reason == "shed"
        stats = router.shard_stats()
        assert sum(s["shed"] for s in stats) == 1
        assert sum(s["requests"] for s in stats) == 0

    def test_shed_callback_fires(self, requests):
        class Backlog:
            pending = 10_000

        shed_shards = []
        router = make_router(num_shards=2, backlog_probe=Backlog(),
                             on_shed=shed_shards.append)
        router.handle(requests[0])
        assert shed_shards == [router.place(requests[0])]


# ----------------------------------------------------------------------
# Isolation (satellite: no fork sharing, no workspace aliasing)
# ----------------------------------------------------------------------
class TestShardIsolation:
    def test_inline_shards_never_alias_workspace_buffers(self, requests):
        router = make_router(num_shards=2)
        served = [0, 0]
        for request in requests:
            served[router.place(request)] += 1
            router.handle(request)
        assert all(served), "pool must exercise both shards"
        ws0 = router.runtimes[0].workspace
        ws1 = router.runtimes[1].workspace
        assert ws0 is not ws1
        assert len(ws0) > 0 and len(ws1) > 0, (
            "serving must draw kernel scratch from the shard workspace")
        for a in ws0._buffers.values():
            for b in ws1._buffers.values():
                assert not np.shares_memory(a, b)

    def test_inline_shards_own_caches_and_batchers(self, requests):
        router = make_router(num_shards=2)
        lanes = [runtime.primary for runtime in router.runtimes]
        assert lanes[0].service is not lanes[1].service
        assert lanes[0].service.cache is not lanes[1].service.cache

    def test_spec_is_plain_data(self):
        """The worker spec must cross fork as pickled values — no live
        model, cache or workspace objects smuggled through."""
        router = make_router(num_shards=1)
        spec = router._spec()
        rebuilt = pickle.loads(pickle.dumps(spec))
        assert rebuilt["version"] == "v001"
        model = build_model(rebuilt["model_config"], rebuilt["state"])
        assert isinstance(model, M2G4RTP)

    def test_runtime_rebuild_matches_original_outputs(self, requests):
        router = make_router(num_shards=1)
        spec = pickle.loads(pickle.dumps(router._spec()))
        runtime = ShardRuntime(0, spec["model_config"], spec["state"],
                               spec["version"])
        [(kind, _shard, _req, response, _spans)] = runtime.process(
            ("request", 0, requests[0], "primary", None))
        assert kind == "response"
        direct = router.handle(requests[0])
        np.testing.assert_allclose(response.eta_minutes,
                                   direct.eta_minutes, rtol=1e-9)
        assert list(response.route) == list(direct.route)


# ----------------------------------------------------------------------
# Hot swap / canary (inline: deterministic drain semantics)
# ----------------------------------------------------------------------
class TestInlineSwap:
    def test_swap_to_changes_stamp_everywhere(self, requests):
        router = make_router(num_shards=2)
        before = router.handle(requests[0])
        assert before.model_version == "v001"
        router.swap_to("v002", tiny_model(seed=9))
        for request in requests[:6]:
            assert router.handle(request).model_version == "v002"
        assert all(s["swaps"] == 1 for s in router.shard_stats())

    def test_canary_split_then_promote(self, requests):
        router = make_router(num_shards=2,
                             config=ShardConfig(num_shards=2, seed=4))
        router.start_canary("v002", tiny_model(seed=9), fraction=0.5)
        versions = {router.handle(request).model_version
                    for request in requests}
        assert versions == {"v001", "v002"}
        router.stop_canary(promote=True)
        assert router.version == "v002"
        assert {router.handle(r).model_version
                for r in requests[:6]} == {"v002"}

    def test_canary_rollback_restores_primary(self, requests):
        router = make_router(num_shards=2)
        router.start_canary("v002", tiny_model(seed=9), fraction=1.0)
        assert router.handle(requests[0]).model_version == "v002"
        router.stop_canary(promote=False)
        assert router.version == "v001"
        assert router.handle(requests[0]).model_version == "v001"

    def test_inline_kill_respawns_from_current_version(self, requests):
        router = make_router(num_shards=2)
        router.swap_to("v002", tiny_model(seed=9))
        victim = router.place(requests[0])
        router.kill_shard(victim)
        respawned = []
        router.on_respawn = respawned.append
        response = router.handle(requests[0])
        assert_valid(response, requests[0])
        assert response.model_version == "v002", (
            "respawn must rebuild from the *current* weights, not v001")
        assert respawned == [victim]
        assert router.shard_stats()[victim]["respawns"] == 1


# ----------------------------------------------------------------------
# Regime-matched routing (model-zoo lanes)
# ----------------------------------------------------------------------
def _with_weather(requests, weather):
    return [dataclasses.replace(r, weather=weather) for r in requests]


class _RegimeLaneCases:
    """Regime-lane routing through the controller, for one topology."""

    topology = "shards2"

    @pytest.fixture()
    def controller(self, registry):
        return make_controller(registry, self.topology)

    def test_regime_requests_serve_from_their_lane(self, controller,
                                                   requests):
        assert controller.install_regime("weather:storm", "v003") == "v003"
        assert controller.lanes.regime_versions() == {
            "weather:storm": "v003"}
        for request in _with_weather(requests[:6], weather=3):
            response = controller.handle(request)
            assert_valid(response, request)
            assert response.model_version == "v003"
        for request in _with_weather(requests[6:12], weather=0):
            assert controller.handle(request).model_version == "v001"

    def test_lane_matching_primary_version_defers_to_primary(
            self, controller, requests):
        """When the primary *is* the regime model, the lane stays dark;
        once the primary moves on, the lane serves the old regime."""
        controller.install_regime("weather:storm", "v001")
        storm = _with_weather(requests[:4], weather=3)
        assert {controller.handle(r).model_version
                for r in storm} == {"v001"}
        controller.swap("v002")
        assert {controller.handle(r).model_version
                for r in storm} == {"v001"}
        assert {controller.handle(r).model_version
                for r in _with_weather(requests[4:8], 0)} == {"v002"}

    def test_clear_regime_restores_primary_routing(self, controller,
                                                   requests):
        controller.install_regime("weather:storm", "v003")
        storm = _with_weather(requests[:4], weather=3)
        assert controller.handle(storm[0]).model_version == "v003"
        assert controller.clear_regime("weather:storm") is True
        assert {controller.handle(r).model_version
                for r in storm} == {"v001"}
        assert controller.clear_regime("weather:storm") is False
        assert controller.lanes.regime_versions() == {}

    def test_canary_owns_its_split_before_regime_routing(self, controller,
                                                         requests):
        controller.install_regime("weather:storm", "v003")
        controller.start_canary("v002", fraction=1.0)
        storm = _with_weather(requests[:4], weather=3)
        assert {controller.handle(r).model_version
                for r in storm} == {"v002"}
        controller.rollback(reason="test")
        assert {controller.handle(r).model_version
                for r in storm} == {"v003"}


class TestRegimeLanesInProcess(_RegimeLaneCases):
    topology = "inprocess"


class TestRegimeLanesOneShard(_RegimeLaneCases):
    topology = "shards1"


class TestRegimeLanes(_RegimeLaneCases):
    """Two inline shards; respawn replays the regime lane spec."""

    def test_respawn_reinstalls_regime_lane(self, requests):
        router = make_router(num_shards=2)
        router.install_regime("weather:storm", "v-storm",
                              tiny_model(seed=7))
        storm = _with_weather(requests, weather=3)
        victim = router.place(storm[0])
        router.kill_shard(victim)
        response = router.handle(storm[0])
        assert_valid(response, storm[0])
        assert response.model_version == "v-storm", (
            "respawn must replay the regime spec, like the canary")
        assert router.shard_stats()[victim]["respawns"] == 1


# ----------------------------------------------------------------------
# One controller, any topology
# ----------------------------------------------------------------------
class _FixedCost:
    """Advances a virtual clock by a fixed cost per served batch."""

    def __init__(self, inner, clock, cost_ms):
        self.inner = inner
        self.clock = clock
        self.cost_ms = cost_ms

    def handle_batch(self, requests):
        self.clock.advance(self.cost_ms / 1000.0)
        return self.inner.handle_batch(requests)


class TestLaneConformance:
    def test_topologies_serve_identical_version_sequences(self, registry,
                                                          requests):
        """Same seed, same requests, canary at 0.3 plus a regime lane:
        every topology answers each request from the same version."""
        mixed = [dataclasses.replace(r, weather=3 if i % 3 == 0 else 0)
                 for i, r in enumerate(requests * 2)]
        sequences = {}
        for topology in TOPOLOGIES:
            controller = make_controller(registry, topology, seed=11)
            controller.install_regime("weather:storm", "v003")
            controller.start_canary("v002", fraction=0.3)
            sequences[topology] = [controller.handle(r).model_version
                                   for r in mixed]
        assert (sequences["inprocess"] == sequences["shards1"]
                == sequences["shards2"])
        assert set(sequences["inprocess"]) == {"v001", "v002", "v003"}

    def test_shed_burst_draws_the_lane_before_admission(self, registry,
                                                         requests):
        """A backlog burst over the admission bound mid-canary: every
        topology sheds the same requests, stamps each shed with its
        routed lane's version, keeps the same split afterwards, and
        counts the candidate's sheds in its rollout evidence."""
        outcomes = {}
        for topology in TOPOLOGIES:
            backlog = SimpleNamespace(pending=0)
            controller = make_controller(registry, topology, seed=11,
                                         backlog=backlog)
            controller.start_canary("v002", fraction=0.3)
            served = []
            for index, request in enumerate(requests):
                backlog.pending = 10 if 10 <= index <= 15 else 0
                response = controller.handle(request)
                served.append((response.model_version,
                               response.degraded_reason))
            decision = controller.rollback(reason="test")
            outcomes[topology] = (served, decision.candidate_requests,
                                  decision.candidate_degraded_rate)
        assert (outcomes["inprocess"] == outcomes["shards1"]
                == outcomes["shards2"])
        served = outcomes["inprocess"][0]
        assert ("v002", "shed") in served, "the burst must hit the canary"
        assert ("v001", "shed") in served
        assert sum(reason == "shed" for _, reason in served) == 6


class TestTopologyRollouts:
    def test_sharded_decision_describes_the_candidate_lane(self, registry,
                                                           requests):
        """Counts, degraded rate and latency come from the candidate's
        own answers, not from the whole fleet."""
        clock = VirtualClock()
        cost_ms = {3: 1.0, 9: 5.0}   # by model seed: v001, v002

        def wrapper(shard):
            return lambda inner: _FixedCost(
                inner, clock, cost_ms[inner.model.config.seed])

        controller = make_controller(registry, "shards2", seed=4,
                                     clock=clock, service_wrapper=wrapper)
        controller.start_canary("v002", fraction=0.5)
        served = [controller.handle(r).model_version for r in requests[:16]]
        decision = controller.promote(reason="test")
        assert 0 < served.count("v002") < len(served)
        assert decision.candidate_requests == served.count("v002")
        assert decision.candidate_degraded_rate == 0.0
        assert decision.candidate_latency_ms == pytest.approx(5.0)
        assert decision.primary_latency_ms == pytest.approx(1.0)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_live_candidate_is_never_silently_replaced(self, registry,
                                                       topology):
        controller = make_controller(registry, topology)
        controller.start_canary("v002")
        with pytest.raises(RuntimeError):
            controller.start_canary("v003")
        assert controller.candidate.version == "v002"
        assert controller.decisions == []

    def test_live_shadow_is_never_silently_replaced(self, registry):
        controller = make_controller(registry, "inprocess")
        controller.start_shadow("v002")
        for start in (controller.start_shadow, controller.start_canary):
            with pytest.raises(RuntimeError):
                start("v003")
        assert controller.candidate.version == "v002"
        assert controller.mode == "shadow"

    def test_sharded_rollouts_are_counted(self, registry):
        controller = make_controller(registry, "shards2")
        alarm = SimpleNamespace(metric="eta_mae", detector="page_hinkley",
                                statistic=9.0, threshold=1.0)
        assert controller.on_drift_alarm(alarm) is None
        controller.start_canary("v002")
        controller.promote(reason="test")
        text = controller.render_metrics()
        assert ('rtp_drift_alarms_total{metric="eta_mae",'
                'detector="page_hinkley"} 1') in text
        assert 'rtp_rollout_decisions_total{action="promote"} 1' in text
        assert registry.active() == "v002"


# ----------------------------------------------------------------------
# One request lifecycle, either shard transport
# ----------------------------------------------------------------------
def assert_same_answers(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.model_version == b.model_version
        assert a.degraded_reason == b.degraded_reason
        assert np.array_equal(a.route, b.route)
        assert a.eta_minutes.tobytes() == b.eta_minutes.tobytes()


class TestOneLifecycle:
    def test_inline_and_process_shards_answer_identically(self, requests):
        """Canary at 0.3 and a mid-stream swap: an inline router and a
        two-process router give bitwise-equal answers and counts."""
        answers, counts = {}, {}
        for inline in (True, False):
            router = ShardRouter(tiny_model(), version="v001",
                                 config=ShardConfig(num_shards=2, seed=11),
                                 inline=inline)
            try:
                router.start_canary("v002", tiny_model(seed=9), 0.3)
                served = []
                for index, request in enumerate(requests):
                    if index == len(requests) // 2:
                        router.swap_to("v003", tiny_model(seed=7))
                    served.append(router.handle(request))
            finally:
                router.shutdown()
            answers[inline] = served
            counts[inline] = [(s["requests"], s["shed"], s["swaps"])
                              for s in router.shard_stats()]
        assert_same_answers(answers[True], answers[False])
        assert counts[True] == counts[False]
        assert {a.model_version for a in answers[True]} == {
            "v001", "v002", "v003"}

    def test_inline_submit_and_wait_all_equal_handle(self, requests):
        answers = []
        for pipelined in (False, True):
            router = make_router(config=ShardConfig(num_shards=2, seed=4))
            router.start_canary("v002", tiny_model(seed=9), fraction=0.5)
            if pipelined:
                tickets = [router.submit(r) for r in requests]
                assert all(t.done for t in tickets)
                answers.append(router.wait_all(tickets))
            else:
                answers.append([router.handle(r) for r in requests])
        assert_same_answers(*answers)

    def test_missing_pong_names_the_shard(self, requests):
        router = make_router(config=ShardConfig(num_shards=2,
                                                health_timeout_s=0.2))
        router.runtimes[1].process = lambda message: []
        with pytest.raises(RuntimeError, match="shard 1"):
            router.worker_stats()


# ----------------------------------------------------------------------
# Span stitching
# ----------------------------------------------------------------------
class TestSpanStitching:
    def test_worker_spans_nest_under_route_span(self, requests):
        collector = enable_tracing()
        try:
            router = make_router(num_shards=2)
            router.handle(requests[0])
        finally:
            disable_tracing()
        roots = collector.roots
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "shard.route"
        child_names = [c.name for c in root.children]
        assert "shard.serve" in child_names
        serve = root.children[child_names.index("shard.serve")]
        assert serve.trace_id == root.trace_id, (
            "worker spans must be stitched into the router's trace")


# ----------------------------------------------------------------------
# Process mode (real workers; small but end-to-end)
# ----------------------------------------------------------------------
class TestProcessMode:
    def test_round_trip_kill_respawn_and_swap_drain(self, requests):
        router = ShardRouter(tiny_model(), version="v001",
                             config=ShardConfig(num_shards=2), inline=False)
        try:
            parent_pid = __import__("os").getpid()
            pids = {s["pid"] for s in router.worker_stats()}
            assert len(pids) == 2 and parent_pid not in pids, (
                f"every shard must serve from its own process: worker "
                f"pids {pids}, router pid {parent_pid}")

            for request in requests[:4]:
                response = router.handle(request)
                assert_valid(response, request)
                assert response.model_version == "v001", (
                    f"served {response.model_version} "
                    f"({response.degraded_reason}) before any swap")

            # Pipelined stream with a swap in the middle: versions must
            # be coherent and FIFO-monotonic per shard, nothing dropped.
            tickets = []
            for i, request in enumerate(requests):
                if i == len(requests) // 2:
                    router.swap_to("v002", tiny_model(seed=9))
                tickets.append((router.place(request),
                                router.submit(request)))
            responses = router.wait_all([t for _, t in tickets])
            seen = {}
            for (shard, _), response in zip(tickets, responses):
                assert response.model_version in ("v001", "v002"), (
                    f"shard {shard} served {response.model_version} "
                    f"({response.degraded_reason})")
                if seen.get(shard) == "v002":
                    assert response.model_version == "v002", (
                        "a shard must never step back to the old "
                        "version after the swap drained")
                seen[shard] = response.model_version
            assert set(seen.values()) == {"v002"}, (
                f"last version per shard after the swap: {seen}")

            victim = router.place(requests[0])
            router.kill_shard(victim)
            response = router.handle(requests[0])
            assert_valid(response, requests[0])
            assert response.model_version == "v002", (
                f"respawned shard {victim} served "
                f"{response.model_version} ({response.degraded_reason})")
            stats = router.shard_stats()
            assert stats[victim]["respawns"] == 1, f"shard stats {stats}"
            assert sorted(router.alive_shards()) == [0, 1], (
                f"alive after respawn: {router.alive_shards()}")
        finally:
            router.shutdown()

    def test_latency_exemplar_carries_the_trace_id(self, requests):
        """Answers resolved on the collector thread still key their
        latency exemplar by the request's trace, as inline ones do."""
        metrics = MetricsRegistry()
        collector = enable_tracing()
        try:
            router = ShardRouter(tiny_model(), version="v001",
                                 config=ShardConfig(num_shards=1),
                                 metrics=metrics, inline=False)
            try:
                router.handle(requests[0])
            finally:
                router.shutdown()
        finally:
            disable_tracing()
        [root] = [r for r in collector.roots if r.name == "shard.route"]
        entries = metrics.get("rtp_shard_latency_ms").exemplars(shard="0")
        assert [e["trace_id"] for e in entries] == [root.trace_id]

    def test_sleep_latency_spec_reaches_workers(self, requests):
        router = ShardRouter(
            tiny_model(), version="v001",
            config=ShardConfig(num_shards=1, sleep_latency_ms=5.0),
            inline=False)
        try:
            import time

            start = time.perf_counter()
            router.handle(requests[0])
            assert (time.perf_counter() - start) >= 0.004
        finally:
            router.shutdown()


# ----------------------------------------------------------------------
# The modeled-latency shim as a worker sleeps it
# ----------------------------------------------------------------------
class TestModeledLatencyService:
    def test_one_charge_per_batch_and_delegation(self):
        sleeps = []

        class Inner:
            def handle(self, request):
                return ("one", request)

            def handle_batch(self, batch):
                return [("many", r) for r in batch]

            extra = "passthrough"

        service = ModeledLatencyService(Inner(), sleeps.append, base_ms=10.0,
                                        sigma=0.25, seed=1)
        assert service.handle("a") == ("one", "a")
        assert service.handle_batch(["b", "c"]) == [("many", "b"),
                                                    ("many", "c")]
        assert len(sleeps) == 2, "one modeled cost per call, not per item"
        assert all(s > 0 for s in sleeps)
        assert service.extra == "passthrough"

    def test_seeded_costs_reproducible(self):
        def costs(seed):
            sleeps = []

            class Inner:
                def handle(self, request):
                    return request

            service = ModeledLatencyService(Inner(), sleeps.append,
                                            base_ms=10.0, sigma=0.25,
                                            seed=seed)
            for _ in range(5):
                service.handle(None)
            return sleeps

        assert costs(3) == costs(3)
        assert costs(3) != costs(4)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestShardConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(num_shards=0),
        dict(max_queue_depth=0),
        dict(max_respawns=-1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)
