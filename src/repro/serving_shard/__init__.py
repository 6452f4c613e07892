"""Sharded multi-process serving tier.

A request router (:class:`ShardRouter`) fans traffic over N serving
shards — worker processes, or inline runtimes under a virtual clock —
each running the full batched engine with its own kernel workspace and
graph cache.  Both kinds of shard are transports behind one request
lifecycle (submit, reply, wait).  Placement is consistent by courier
identity, the lane is drawn before admission, admission is bounded per
shard with load shedding to the degraded fallback path, dead shards
respawn from current weights on their next request, and hot model swap
/ canary rollouts broadcast serialized state dicts that drain behind
in-flight work.  Lane routing follows the one
:class:`~repro.deploy.lanes.LaneTable` rule, and
:class:`~repro.deploy.DeploymentController` (given the router) drives
the rollout lifecycle against the model registry, exactly as it does
for in-process serving.
"""

from .router import (SHARD_LATENCY_BUCKETS, SHARD_LATENCY_EXEMPLARS,
                     ShardConfig, ShardRouter, ShardTicket)
from .runtime import (CRASH_EXIT_CODE, ShardRuntime, build_model,
                      shard_worker_main)

__all__ = [
    "CRASH_EXIT_CODE",
    "SHARD_LATENCY_BUCKETS",
    "SHARD_LATENCY_EXEMPLARS",
    "ShardConfig",
    "ShardRouter",
    "ShardRuntime",
    "ShardTicket",
    "build_model",
    "shard_worker_main",
]
