#!/usr/bin/env python3
"""Real-CPU serving and retrain benchmark for the M2G4RTP program.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload b1_steady --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --list          # every workload and metric

It drives the program in ``src/`` through its public entry points,
checks every answer against an oracle, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs with
spans on and reports the per-layer metrics, writing the spans once, at
the end, as JSONL under ``perfbench/out/``.  The exit code is 0 only
when every output check passed.

BLAS is pinned to one thread per process here, before numpy loads;
``--blas-threads 0`` leaves the library default (for the comparison in
``NOTES.md``).
"""

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402  (reads BENCHMARK.json; loads no numpy)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads per process; 0 = library default")
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric, then exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    return args


def pin_blas(threads: int) -> str:
    """Set the BLAS thread env vars (inherited by every child process)."""
    if threads <= 0:
        return "library default"
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return f"{threads} thread(s) via {','.join(BLAS_ENV)}"


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _exit_on_term(signum, frame):
    # Unwind through the workloads' ``finally`` blocks, which stop the
    # shard workers and the oracle pool, instead of dying in place.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _exit_on_term)
    blas_pin = pin_blas(args.blas_threads)
    if args.list:
        catalog.print_catalog()
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    try:
        return measure(args, blas_pin)
    finally:
        left = harness.stop_children()
        if left:
            print(f"warning: stopped {len(left)} process(es) the run left "
                  f"behind: {left}", file=sys.stderr)


def measure(args, blas_pin: str) -> int:
    """Run one workload, print its metrics and result line; exit code."""
    import harness
    import seams
    import workloads
    from repro import kernels

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ctx = workloads.RunContext(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        workdir=out_dir / f"work-{os.getpid()}")
    facts = harness.host_facts(ROOT, kernels.active_name(), args.seed,
                               blas_pin)
    started = time.perf_counter()
    outcome = workloads.run_workload(args.workload, ctx)
    wall_s = time.perf_counter() - started

    table = catalog.PER_LAYER if ctx.trace else catalog.END_TO_END
    units = {**catalog.END_TO_END, **catalog.PER_LAYER}
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"wall {wall_s:.1f}s")
    for key, value in facts.items():
        print(f"# host {key}: {value}")
    for key, value in outcome.info.items():
        print(f"# info {key}: {fmt(value)}")
    for name, value in outcome.metrics.items():
        print(f"{name:<40s} {value:>14.6g} {units[name][0]}")
    if outcome.reasons:
        for reason, count in outcome.reasons.most_common():
            print(f"# FAILED {count} x {reason}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": facts, "info": outcome.info,
              "metrics": outcome.metrics,
              "failures": dict(outcome.reasons)}
    if ctx.trace:
        spans_path = out_dir / f"{tag}-spans.jsonl"
        summary = {"layer_self_time": ctx.layer_table,
                   "residual_ms": outcome.metrics["obs.stage_residual_ms"],
                   "metrics": outcome.metrics}
        seams.write_spans(spans_path, ctx.records, summary)
        print("# per-layer self time, ms per request (finetune: per job)")
        print(f"#   {'layer':<22s} {'work':>10s} {'in layer':>10s}")
        for row in ctx.layer_table:
            print(f"#   {row['layer']:<22s} {row['work_ms_per_req']:10.4f} "
                  f"{row['waited_ms_per_req']:10.4f}")
        print(f"#   {'residual':<22s} {'':>10s} "
              f"{outcome.metrics['obs.stage_residual_ms']:10.4f}")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    with open(out_dir / f"{tag}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": table[name][0]}
                    for name in table},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
