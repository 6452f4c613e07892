"""Sharded multi-process serving tier.

A request router (:class:`ShardRouter`) fans traffic over N serving
shards — worker processes (or inline runtimes under a virtual clock),
each running the full batched engine with its own micro-batcher,
kernel workspace and graph cache.  Placement is consistent by courier
identity, admission is bounded per shard with load shedding to the
degraded fallback path, dead shards respawn from current weights, and
hot model swap / canary rollouts broadcast serialized state dicts that
drain behind in-flight work.  Lane routing follows the one
:class:`~repro.deploy.lanes.LaneTable` rule, and
:class:`~repro.deploy.DeploymentController` (given the router) drives
the rollout lifecycle against the model registry, exactly as it does
for in-process serving.
"""

from .router import (SHARD_LATENCY_BUCKETS, SHARD_LATENCY_EXEMPLARS,
                     ShardConfig, ShardRouter, ShardTicket)
from .runtime import (CRASH_EXIT_CODE, ShardRuntime, SleepLatencyService,
                      build_model, shard_worker_main)

__all__ = [
    "CRASH_EXIT_CODE",
    "SHARD_LATENCY_BUCKETS",
    "SHARD_LATENCY_EXEMPLARS",
    "ShardConfig",
    "ShardRouter",
    "ShardRuntime",
    "ShardTicket",
    "SleepLatencyService",
    "build_model",
    "shard_worker_main",
]
