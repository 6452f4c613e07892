"""The one-sentence "why" of every metric the benchmark reports.

``BENCHMARK.json`` is the one place that names the workloads (with
their why) and the metrics with their unit and direction; this module
reads it and adds a why to each metric, which the file's metric entries
have no key for.  ``python3 perfbench/run.py --list`` prints the lot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

#: workload name -> why, in BENCHMARK.json's order.
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: metric name -> (unit, better), in BENCHMARK.json's order.
END_TO_END: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}

#: The op profiler's ten costliest ops on the fine-tune job, by self
#: time (matmul ~25%, add ~18%, concat ~9% of profiled op time), as
#: BENCHMARK.json lists them.
_OP_PREFIX = "autodiff.op_self_ms."
AUTODIFF_OPS = tuple(name[len(_OP_PREFIX):] for name in PER_LAYER
                     if name.startswith(_OP_PREFIX))

END_TO_END_WHY = {
    "setup_s": (
        "Program set-up (model build, registry load, shard fork-to-ready, "
        "warm-up), median of 6-25 set-ups spread over the run; oracle "
        "work excluded."),
    "latency_p50_ms": (
        "Median steady latency from intended arrival to answer, over the 12 "
        "of 24 steady blocks the host disturbed least, scaled to the host "
        "speed where the host probe reads 4.0 ms (finetune: median scaled "
        "time of the epochs after the job's first)."),
    "latency_p99_ms": (
        "p99 steady latency from intended arrival to answer within each of "
        "the 12 of 24 steady blocks the host disturbed least, median over "
        "those blocks, scaled like latency_p50_ms (finetune: p99 of the "
        "epoch times latency_p50_ms uses)."),
    "slo_met_share": (
        "Share of steady requests sent answered correctly, not degraded, "
        "within 100 ms (finetune: jobs correct within 60 s)."),
    "capacity_rps": (
        "Correct answers per second in the closed-loop saturate phase, over "
        "all its 24 blocks, scaled like latency_p50_ms (finetune: "
        "instances per epoch over the scaled median epoch time)."),
    "cpu_ms_per_req": (
        "CPU time of the benchmark process plus shard workers per answered "
        "steady request, over the blocks latency_p50_ms uses and scaled "
        "like it (finetune: median over epochs of CPU per trained "
        "instance, scaled like latency_p50_ms)."),
    "peak_rss_mb": (
        "Peak resident memory, summed over the benchmark process and its "
        "shard workers."),
    "train_instances_per_s": (
        "Instances x epochs per second of fine_tune: instances per epoch "
        "over the scaled median epoch time (serving workloads: equal to "
        "capacity_rps)."),
}

#: Not an end-to-end metric in BENCHMARK.json, because it is 0 on a
#: healthy run; it is printed with every run, given by the ``failed``
#: and ``attempted`` fields of the result line, and is a per-layer
#: metric of the traced run.
FAILED_SHARE_WHY = (
    "Failed operations (wrong, degraded, missing or raising answers; "
    "failed fine-tune jobs) over attempted ones, across all phases.")

PER_LAYER_WHY = {
    "deploy.self_ms": (
        "DeploymentController/ResilientRTPService time outside the wrapped "
        "service per request; moves latency_p50_ms on b1_steady."),
    "deploy.degraded.shed": (
        "Shed answers from ResilientRTPService.snapshot(); moves "
        "failed_share and slo_met_share."),
    "deploy.degraded.deadline": (
        "Deadline-degraded answers from snapshot(); moves failed_share "
        "and slo_met_share."),
    "deploy.degraded.breaker_open": (
        "Breaker-open answers from snapshot(); moves failed_share and "
        "slo_met_share."),
    "deploy.degraded.error": (
        "Error-degraded answers from snapshot(); moves failed_share and "
        "slo_met_share."),
    "core.fallback_calls": (
        "FallbackPredictor.predict calls (router sheds plus degraded "
        "answers on the shard tier); moves failed_share."),
    "service.queue_wait_p99_ms": (
        "p99 MicroBatcher wait from submit to flush; moves latency_p99_ms "
        "on wave_batched."),
    "service.batch_size_mean": (
        "Mean requests per RTPService call; moves capacity_rps and "
        "cpu_ms_per_req on wave_batched and sharded_poll."),
    "service.cache_hit_ratio": (
        "GraphCache hits over lookups on the shard workers; moves "
        "cpu_ms_per_req on sharded_poll (0 by construction elsewhere)."),
    "graphs.build_ms": (
        "graph_build span time per answered request, cache lookups "
        "included; moves latency_p50_ms on b1_steady."),
    "core.batching.pad_ratio": (
        "Padded over real node slots (both graph levels) in B>1 flushes; "
        "moves capacity_rps on wave_batched."),
    "core.batching.unattributed_ms": (
        "Part of a batched infer call outside encoder/decoder spans "
        "(packing, guidance, slicing); moves latency_p50_ms on "
        "wave_batched."),
    "core.infer_ms.b1": (
        "Mean B=1 infer call; moves latency_p50_ms on b1_steady."),
    "core.infer_ms.batched": (
        "Mean B>1 infer call; moves capacity_rps on wave_batched."),
    "core.encoder_ms": (
        "Encoder time per model call; moves what core.infer_ms moves."),
    "core.route_decode_ms": (
        "Route decoding (both levels) per model call; moves what "
        "core.infer_ms moves."),
    "core.time_decode_ms": (
        "Time decoding (both levels) per model call; moves what "
        "core.infer_ms moves."),
    "kernels.calls_per_req": (
        "Fused-kernel calls per answered request (0 on b1_steady today); "
        "moves latency_p50_ms on b1_steady."),
    "kernels.gat_encoder.self_ms": (
        "gat_encoder kernel self time per request; moves capacity_rps on "
        "wave_batched."),
    "kernels.level_embed.self_ms": (
        "level_embed kernel self time per request; moves capacity_rps on "
        "wave_batched."),
    "kernels.lstm_unroll.self_ms": (
        "lstm_unroll kernel self time per request; moves capacity_rps on "
        "wave_batched."),
    "kernels.pointer_decode.self_ms": (
        "pointer_decode kernel self time per request; moves capacity_rps "
        "on wave_batched."),
    "kernels.sort_rnn.self_ms": (
        "sort_rnn kernel self time per request; moves capacity_rps on "
        "wave_batched."),
    "serving_shard.submit_ms": (
        "Parent-side ShardRouter.submit time per request; moves "
        "capacity_rps on sharded_poll, where the parent is serial."),
    "serving_shard.answer_p50_ms": (
        "Median submit-to-answer time of shard tickets; moves the "
        "latencies on sharded_poll."),
    "serving_shard.answer_p99_ms": (
        "p99 submit-to-answer time of shard tickets; moves the latencies "
        "on sharded_poll."),
    "serving_shard.worker_serve_ms": (
        "shard.serve span time of the batch that answered a request, "
        "batch-weighted mean; moves the latencies on sharded_poll."),
    "serving_shard.hop_ms": (
        "Mean answer time minus worker serve time (queues, pickling, "
        "collector thread); moves the latencies on sharded_poll."),
    "serving_shard.imbalance": (
        "Max over mean requests per shard; moves capacity_rps on "
        "sharded_poll."),
    "serving_shard.shed": (
        "Requests shed at shard admission; moves failed_share."),
    "serving_shard.parent_cpu_ms_per_req": (
        "Benchmark-process CPU per answered steady request (untraced "
        "blocks); moves cpu_ms_per_req."),
    "serving_shard.worker_cpu_ms_per_req": (
        "Shard-worker CPU per answered steady request (untraced blocks); "
        "moves cpu_ms_per_req."),
    "training.build_graphs_ms": (
        "Graph building per fine-tune job (builder seam); moves "
        "train_instances_per_s on finetune."),
    "training.epoch_s": (
        "Mean online.epoch span; moves train_instances_per_s on "
        "finetune."),
    **{f"autodiff.op_self_ms.{op}": (
        f"Self time of autodiff op {op} per trained instance-epoch "
        "(op profiler, one epoch); moves train_instances_per_s.")
       for op in AUTODIFF_OPS},
    "load.lag_p99_ms": (
        "p99 of how late the open-loop generator sent a request; large "
        "values mean the run did not hold its rate."),
    "load.backlog_peak": (
        "Most arrivals due but not yet sent at one send, the current one "
        "included (16 per wave on wave_batched by design)."),
    "obs.tracing_overhead_ms": (
        "Traced minus untraced latency_p50_ms over interleaved steady "
        "blocks of the same run (serving workloads)."),
    "obs.stage_residual_ms": (
        "Mean traced end-to-end time minus the per-request sum of layer "
        "self times, generator lag and queue wait."),
    "obs.stage_residual_share": (
        "obs.stage_residual_ms over the mean traced end-to-end time."),
    "failed_share": FAILED_SHARE_WHY,
}


def why(name: str) -> str:
    return {**END_TO_END_WHY, **PER_LAYER_WHY}[name]


def print_catalog() -> None:
    print("workloads:")
    for name, text in WORKLOADS.items():
        print(f"  {name}: {text}")
    for title, table in (("end_to_end (traced off)", END_TO_END),
                         ("per_layer (--trace 1)", PER_LAYER)):
        print(f"{title}:")
        for name, (unit, better) in table.items():
            print(f"  {name} [{unit}, {better} is better]: {why(name)}")
    print(f"failed_share [share, printed every run]: {FAILED_SHARE_WHY}")
