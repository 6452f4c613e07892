"""The answer oracle: B=1 ``model.predict`` on the reference kernels.

Every distinct request a run sends is answered once, in set-up, by the
plainest path the program has: graph build plus the single-instance
``M2G4RTP.predict`` under the ``reference`` kernel backend.  Served
answers must match it exactly on the route and within ``ETA_TOL``
minutes on every ETA; anything else is a failed operation.

The oracle runs in a small pool of forked processes (one model copy
each) before any timing starts and is shut down before the workload
begins, so it competes with nothing that is measured.  The pool is
forked, not spawned: a spawn-context pool also starts multiprocessing's
resource tracker, a process that outlives the pool and is only reaped
after the benchmark has exited.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Largest ETA difference (minutes) still counted as the same answer.
ETA_TOL = 1e-6

_worker_state: Dict[str, object] = {}


class Expected:
    """The oracle's answer for one request."""

    __slots__ = ("route", "eta")

    def __init__(self, route: np.ndarray, eta: np.ndarray):
        self.route = np.asarray(route)
        self.eta = np.asarray(eta, dtype=float)


def _init_worker(model_config: Dict[str, object],
                 state: Dict[str, np.ndarray]) -> None:
    from repro.core import M2G4RTP, M2G4RTPConfig
    from repro.graphs import GraphBuilder

    model = M2G4RTP(M2G4RTPConfig(**model_config))
    model.load_state_dict(state)
    model.eval()
    _worker_state["model"] = model
    _worker_state["builder"] = GraphBuilder(
        num_aoi_ids=model.config.num_aoi_ids)


def _answer(requests: Sequence) -> List[Tuple[np.ndarray, np.ndarray]]:
    from repro import kernels

    model = _worker_state["model"]
    builder = _worker_state["builder"]
    out = []
    with kernels.backend_scope("reference"):
        for request in requests:
            prediction = model.predict(builder.build(request))
            out.append((prediction.route, prediction.arrival_times))
    return out


def compute_oracle(model_config: Dict[str, object],
                   state: Dict[str, np.ndarray], requests: Sequence,
                   workers: int = 2) -> List[Expected]:
    """Oracle answers for ``requests`` (in order)."""
    if not requests:
        return []
    workers = max(1, min(workers, len(requests)))
    chunk = -(-len(requests) // (workers * 4))
    chunks = [list(requests[i:i + chunk])
              for i in range(0, len(requests), chunk)]
    context = multiprocessing.get_context("fork")
    with context.Pool(workers, initializer=_init_worker,
                      initargs=(model_config, state)) as pool:
        parts = pool.map(_answer, chunks)
        pool.close()
        pool.join()
    return [Expected(route, eta) for part in parts for route, eta in part]


def check_answer(response, expected: Expected,
                 num_locations: int) -> Optional[str]:
    """``None`` if ``response`` is a correct answer, else why not."""
    if response is None:
        return "no answer"
    if getattr(response, "degraded", False):
        return f"degraded:{response.degraded_reason or '?'}"
    route = np.asarray(response.route)
    if route.shape != (num_locations,) or not np.array_equal(
            np.sort(route), np.arange(num_locations)):
        return "route is not a permutation"
    if not np.array_equal(route, expected.route):
        return "route differs from oracle"
    eta = np.asarray(response.eta_minutes, dtype=float)
    if eta.shape != expected.eta.shape or not np.all(np.isfinite(eta)):
        return "eta shape or value invalid"
    if float(np.max(np.abs(eta - expected.eta))) > ETA_TOL:
        return "eta differs from oracle"
    return None
