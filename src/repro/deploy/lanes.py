"""The lane table: which installed model version answers a request.

A *lane* is an installed model version; one rule picks the lane for
each request: the **canary split** first (while a canary is live, a
seeded draw sends ``fraction`` of traffic to the candidate), then a
**regime lane** matching the request's regime key (deferring to the
primary when its version *is* the primary's), then the **primary**.

:class:`LaneTable` is the only code that knows this rule, the split RNG
and the regime map.  Lanes need only a ``version`` attribute: the
in-process :class:`~repro.deploy.DeploymentController` holds resilient
services, the :class:`~repro.serving_shard.ShardRouter` serialized
model specs, and each :class:`~repro.serving_shard.ShardRuntime` its
per-shard batched stacks.  The split draws exactly one ``random()`` per
routed request, and only while a canary is live.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

import numpy as np

PRIMARY = "primary"
CANDIDATE = "candidate"
REGIME_PREFIX = "regime:"

Lane = TypeVar("Lane")


class LaneTable(Generic[Lane]):
    """Primary, optional candidate and regime lanes, plus the routing rule.

    Lanes other than the primary are named ``"candidate"`` and
    ``"regime:<key>"``.  An installed candidate stays dark until
    ``fraction`` is set above 0 (a shadow candidate, or a canary still
    being broadcast, never is): until then no RNG draw is made.
    """

    def __init__(self, primary: Lane, *, seed: int = 0,
                 regime_of: Optional[Callable[[object], str]] = None):
        self.primary = primary
        self.candidate: Optional[Lane] = None
        self.fraction = 0.0
        self.regimes: Dict[str, Lane] = {}
        if regime_of is None:
            from ..online.zoo import regime_of_request as regime_of
        self.regime_of = regime_of
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, request) -> Tuple[str, Lane]:
        """Pick the lane for one request: ``(name, lane)``.

        ``primary`` and ``candidate`` are read once, so a concurrent
        promote or rollback never hands back a lane that was swapped
        out between the check and the return.
        """
        primary, candidate = self.primary, self.candidate
        if (candidate is not None and self.fraction > 0.0
                and float(self._rng.random()) < self.fraction):
            return CANDIDATE, candidate
        if self.regimes:
            key = self.regime_of(request)
            lane = self.regimes.get(key)
            if lane is not None and lane.version != primary.version:
                return REGIME_PREFIX + key, lane
        return PRIMARY, primary

    def resolve(self, name: str) -> Tuple[str, Lane]:
        """The lane a routed name serves from, falling back to primary.

        A name can outlive its lane (a rollback or regime clear landed
        between routing and serving); such requests serve from the
        primary under the canonical name ``"primary"``.
        """
        if name == CANDIDATE:
            candidate = self.candidate
            if candidate is not None:
                return CANDIDATE, candidate
        elif name.startswith(REGIME_PREFIX):
            lane = self.regimes.get(name[len(REGIME_PREFIX):])
            if lane is not None:
                return name, lane
        return PRIMARY, self.primary

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, name: str, lane: Lane) -> None:
        """Install ``lane`` under a lane name (a candidate starts dark)."""
        if name == CANDIDATE:
            self.candidate, self.fraction = lane, 0.0
        else:
            self.regimes[name[len(REGIME_PREFIX):]] = lane

    def uninstall(self, name: str, promote: bool = False) -> Optional[Lane]:
        """Remove and return the named lane (``None`` if not installed).

        Removing the candidate stops the split first; ``promote`` makes
        it the primary instead of dropping it.
        """
        if name != CANDIDATE:
            return self.regimes.pop(name[len(REGIME_PREFIX):], None)
        candidate, self.fraction = self.candidate, 0.0
        if promote and candidate is not None:
            self.primary = candidate
        self.candidate = None
        return candidate

    def extra_lanes(self) -> Dict[str, Lane]:
        """Every non-primary lane by name (replayed onto fresh shards)."""
        lanes = {} if self.candidate is None else {CANDIDATE: self.candidate}
        lanes.update((REGIME_PREFIX + key, lane)
                     for key, lane in self.regimes.items())
        return lanes

    def regime_versions(self) -> Dict[str, str]:
        """Installed regime → version mapping (introspection)."""
        return {key: str(lane.version) for key, lane in self.regimes.items()}
