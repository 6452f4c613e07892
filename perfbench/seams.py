"""Trace-mode instrumentation at the program's injection seams.

The traced run wraps the program's public objects from the outside --
the ``service_wrapper=`` / ``builder=`` / ``fallback=`` arguments, the
service a :class:`~repro.service.MicroBatcher` drives, and the calls
the benchmark itself makes -- in spans recorded on the program's own
trace collector, so they nest with the spans the program already has.
Nothing here adds a span inside ``src/``.  Every wrapper is a no-op
pass-through while tracing is off.

:func:`analyse` turns the collected span trees into per-layer self
times (a span's duration minus the time its children cover).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import tracing

#: Span-name prefixes owned by each layer, first match wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("kernel.", "kernels"),
    ("serving_shard.", "serving_shard"),
    ("shard.", "serving_shard"),
    ("deploy.", "deploy"),
    ("rtp.resilient", "deploy"),
    ("rtp.batch.flush", "service"),
    ("rtp.request", "service"),
    ("rtp.batch", "service"),
    ("service.", "service"),
    ("graph_build", "graphs"),
    ("graphs.", "graphs"),
    ("infer", "core"),
    ("encoder", "core"),
    ("route_decode", "core"),
    ("time_decode", "core"),
    ("core.", "core"),
    ("training.", "training"),
    ("online.", "training"),
    ("train.", "training"),
    ("parallel.", "training"),
)

#: Zero-work spans the program grafts in to mark a wait (their
#: duration is a queue wait already counted elsewhere).
WAIT_SPANS = ("service.batch.hop",)

KERNELS = ("gat_encoder", "level_embed", "lstm_unroll", "pointer_decode",
           "sort_rnn")


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


# ----------------------------------------------------------------------
# Seam wrappers
# ----------------------------------------------------------------------
class TracedService:
    """Wraps a service-like object (``handle``/``handle_batch``)."""

    def __init__(self, inner, name: str):
        self.inner = inner
        self.name = name

    def handle(self, request):
        with tracing.span(self.name, batch=1):
            return self.inner.handle(request)

    def handle_batch(self, requests):
        with tracing.span(self.name, batch=len(requests)):
            return self.inner.handle_batch(requests)


class TracedBuilder:
    """Wraps a :class:`~repro.graphs.GraphBuilder` (``builder=`` seam)."""

    def __init__(self, inner):
        self.inner = inner

    def build(self, instance):
        with tracing.span("graphs.build"):
            return self.inner.build(instance)


class CountingFallback:
    """Wraps a :class:`~repro.core.FallbackPredictor` (``fallback=``)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, request):
        self.calls += 1
        with tracing.span("core.fallback"):
            return self.inner.predict(request)


class BatchFront:
    """The service a :class:`MicroBatcher` flushes into, observed.

    Records, per flush, the batch size, the padded versus real node
    slots the batch will be packed into (both graph levels), and the
    flush start time of each member so queue waits can be taken
    against the members' submit times.
    """

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.flush_started: Dict[int, float] = {}
        self.padded_slots = 0
        self.real_slots = 0

    def reset(self) -> None:
        self.flush_started.clear()
        self.padded_slots = 0
        self.real_slots = 0

    def handle_batch(self, requests):
        if not tracing.tracing_enabled():
            return self.inner.handle_batch(requests)
        started = self.clock()
        for request in requests:
            self.flush_started[id(request)] = started
        if len(requests) > 1:
            for sizes in ([r.num_locations for r in requests],
                          [r.num_aois for r in requests]):
                self.real_slots += sum(sizes)
                self.padded_slots += len(sizes) * max(sizes) - sum(sizes)
        with tracing.span("deploy.handle_batch", batch=len(requests)):
            return self.inner.handle_batch(requests)

    @property
    def pad_ratio(self) -> float:
        return self.padded_slots / self.real_slots if self.real_slots else 0.0


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
class SpanStats:
    """Aggregates over exported span records (``Span.to_dict`` form)."""

    def __init__(self):
        self.layer_self_ms: Dict[str, float] = {}
        #: Self time charged to every member of the batch it served:
        #: the time requests spent waiting in each layer.
        self.layer_waited_ms: Dict[str, float] = {}
        self.name_count: Dict[str, int] = {}
        self.name_total_ms: Dict[str, float] = {}
        self.name_self_ms: Dict[str, float] = {}
        self.infer_b1: List[float] = []
        self.infer_batched: List[float] = []
        self.unattributed_batched: List[float] = []
        self.batch_sizes: List[int] = []
        self.serve_weighted: List[Tuple[float, int]] = []

    def add(self, record: Dict) -> None:
        self._walk(record, 1, 1)

    def _walk(self, node: Dict, parent_batch: int, members: int) -> None:
        name = node["name"]
        if name in WAIT_SPANS:
            return
        duration = float(node.get("duration_ms", 0.0))
        attrs = node.get("attrs", {})
        if members == 1:
            # The outermost span of a batch: every member waits through
            # everything below it.
            members = max(int(attrs.get("batch", 1)), 1)
        local = "start_ms" in node
        batch_size = 1 if name == "rtp.request" else int(
            attrs.get("batch_size", parent_batch))
        covered = 0.0
        for child in node.get("children", ()):
            if child["name"] in WAIT_SPANS:
                continue
            # A child shipped from another process ran in parallel with
            # this span, not inside it: it is a tree of its own.
            if not local or "start_ms" in child:
                covered += float(child.get("duration_ms", 0.0))
            self._walk(child, batch_size, members)
        self_ms = duration - covered
        layer = layer_of(name)
        self.layer_self_ms[layer] = self.layer_self_ms.get(layer, 0.0) + self_ms
        self.layer_waited_ms[layer] = (self.layer_waited_ms.get(layer, 0.0)
                                       + self_ms * members)
        self.name_count[name] = self.name_count.get(name, 0) + 1
        self.name_total_ms[name] = self.name_total_ms.get(name, 0.0) + duration
        self.name_self_ms[name] = self.name_self_ms.get(name, 0.0) + self_ms
        if name == "infer":
            if parent_batch > 1:
                self.infer_batched.append(duration)
                self.unattributed_batched.append(duration - covered)
            else:
                self.infer_b1.append(duration)
        elif name == "rtp.request":
            self.batch_sizes.append(1)
        elif name == "rtp.batch":
            self.batch_sizes.append(int(attrs.get("batch_size", 1)))
        elif name == "shard.serve":
            self.serve_weighted.append((duration, int(attrs.get("batch", 1))))

    # -- derived --------------------------------------------------------
    def total(self, name: str) -> float:
        return self.name_total_ms.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.name_count.get(name, 0)

    def self_ms(self, name: str) -> float:
        return self.name_self_ms.get(name, 0.0)

    def model_calls(self) -> int:
        return len(self.infer_b1) + len(self.infer_batched)


def analyse(records: Iterable[Dict]) -> SpanStats:
    stats = SpanStats()
    for record in records:
        stats.add(record)
    return stats


def collector_records(collector) -> List[Dict]:
    text = collector.to_jsonl()
    return [json.loads(line) for line in text.splitlines() if line]


def self_time_table(stats: SpanStats, requests: int,
                    e2e_ms_per_req: float,
                    extra_layers: Optional[Dict[str, float]] = None,
                    ) -> Tuple[List[Dict], float]:
    """Per-layer self time per request and the stage-sum residual.

    Each row gives a layer's work (its self time, a shared batch
    counted once) and the time a request spent in it (a batch's self
    time charged to each member).  ``extra_layers`` adds stages no span
    covers (the generator's lag and the batching queue wait, in ms per
    request).  The residual is ``e2e_ms_per_req`` minus the sum of the
    time-in-layer column: time on the request path no stage explains.
    """
    per_req = max(requests, 1)
    rows = [{"layer": layer,
             "work_ms_per_req": total / per_req,
             "waited_ms_per_req": stats.layer_waited_ms[layer] / per_req}
            for layer, total in sorted(stats.layer_self_ms.items())]
    for layer, value in (extra_layers or {}).items():
        rows.append({"layer": layer, "work_ms_per_req": 0.0,
                     "waited_ms_per_req": value})
    stage_sum = sum(row["waited_ms_per_req"] for row in rows)
    return rows, e2e_ms_per_req - stage_sum


def write_spans(path, records: Sequence[Dict], summary: Dict) -> None:
    """All span trees, one JSON object per line, then one summary line."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps({"summary": summary}) + "\n")
