#!/usr/bin/env python3
"""NeurFill benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mm-fill --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload with span recorders around each
layer's public entry points and prints the per-layer metrics instead.
Every run prints its metadata (sources digest, git sha when available,
nproc, numpy/BLAS build, pinned environment, chosen conv plans) as a JSON
line, then the result as the last line of standard output.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import common

WORKLOAD_NAMES = ("mm-fill", "fullchip-pkb", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(outcome, limit_s: float | None) -> tuple[dict, dict]:
    """End-to-end figures over the timed ops; attempted and failed
    counts (and ``success_rate``) also hold the untimed check-only ops.
    Goodput counts timed ops that passed their checks, within
    ``limit_s`` where the workload has a latency limit."""
    ops = outcome.ops
    timed = [op for op in ops if op.timed]
    latencies = [op.latency for op in timed if op.ok]
    good = sum(1 for op in timed
               if op.ok and (limit_s is None or op.latency <= limit_s))
    qualities = [op.quality for op in ops if op.ok and op.quality is not None]
    if not latencies or not qualities:
        raise RuntimeError("no op succeeded; nothing to report")
    values = {
        "setup_s": statistics.median(outcome.setup_times),
        "op_p50_s": common.nearest_rank(latencies, 50),
        "op_p90_s": common.nearest_rank(latencies, 90),
        "ops_per_s": len(timed) / outcome.op_span,
        "goodput_per_s": good / outcome.op_span,
        "quality": sum(qualities) / len(qualities),
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_rate": sum(op.ok for op in ops) / len(ops),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}
    notes = {
        "ops": len(ops),
        "timed_ops": len(timed),
        "op_p90_supported": common.percentile_supported(len(latencies), 90),
        "latency_limit_s": limit_s,
        "setup_times_s": outcome.setup_times,
        "latencies_s": [op.latency for op in timed],
    }
    return metrics, notes


def per_layer(outcome, spans) -> dict:
    import tracing

    n_ops = sum(op.timed for op in outcome.ops)
    figures = tracing.layer_metrics(spans, outcome.setup_window,
                                    outcome.op_window,
                                    len(outcome.setup_times), n_ops)
    capture = outcome.capture or {}
    calls = sum(capture.get(k, 0) for k in tracing.CAPTURE_COUNTERS)
    plans = common.plan_summary(outcome.plans)
    figures.update({
        "nn.calibrated_plans": len(plans["calibrated"]),
        "nn.plan_table_hash": plans["hash"],
        "nn.capture_traces": capture.get("trace", 0) / max(n_ops, 1),
        "nn.capture_replays": capture.get("replay", 0) / max(n_ops, 1),
        "nn.capture_bypass": capture.get("bypass", 0) / max(n_ops, 1),
        "nn.capture_hit_frac": capture.get("replay", 0) / calls if calls else 0.0,
        "nn.arena_mb": capture.get("arena_bytes", 0) / 2**20,
        "serve.queue_wait_p50_s": 0.0,
        "serve.execute_p50_s": 0.0,
        "serve.batch_mean": 0.0,
        "serve.coalesced_frac": 0.0,
        "serve.sim_batch_mean": 0.0,
        "loadgen.late_p99_s": 0.0,
    })
    figures.update(outcome.layers)
    return figures


#: Every per-layer metric of the traced run, with its unit.
LAYER_UNITS = {
    "surrogate.train_s": "s",
    "surrogate.datagen_s": "s",
    "surrogate.evaluate_calls": "count",
    "surrogate.evaluate_s": "s",
    "surrogate.evaluate_batch_calls": "count",
    "surrogate.evaluate_batch_s": "s",
    "surrogate.evaluate_region_calls": "count",
    "surrogate.evaluate_region_s": "s",
    "surrogate.batch_rows_mean": "count",
    "surrogate.s_per_eval": "s",
    "nn.corr_s": "s",
    "nn.wgrad_s": "s",
    "nn.setup_corr_s": "s",
    "nn.setup_wgrad_s": "s",
    "nn.calibrated_plans": "count",
    "nn.plan_table_hash": "id",
    "nn.capture_traces": "count",
    "nn.capture_replays": "count",
    "nn.capture_bypass": "count",
    "nn.capture_hit_frac": "ratio",
    "nn.arena_mb": "MB",
    "optimize.nmmso_s": "s",
    "optimize.nmmso_evals": "count",
    "optimize.sqp_iterations": "count",
    "optimize.sqp_self_s": "s",
    "cmp.simulate_calls": "count",
    "cmp.simulate_s": "s",
    "cmp.setup_simulate_s": "s",
    "core.pkb_s": "s",
    "core.coefficients_s": "s",
    "core.degradation_s": "s",
    "core.eco_s": "s",
    "core.eco_free_frac": "ratio",
    "serve.execute_calls": "count",
    "serve.queue_wait_p50_s": "s",
    "serve.execute_p50_s": "s",
    "serve.batch_mean": "count",
    "serve.coalesced_frac": "ratio",
    "serve.sim_batch_mean": "count",
    "loadgen.late_p99_s": "s",
    "trace.setup_s": "s",
    "trace.op_p50_s": "s",
    "trace.spans": "count",
}

#: Every end-to-end metric, with its unit.
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
             "goodput_per_s": "1/s", "quality": "score", "peak_rss_mb": "MB",
             "success_rate": "ratio"}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = common.new_run_dir(args.workload, args.seed, args.trace)
    pinned = common.pin_environment(run_dir)
    sys.path.insert(0, str(common.SRC))

    # numpy and the program are imported only now, after pinning.
    import workloads

    ctx = workloads.Context(args.workload, args.seed, args.seconds, run_dir)
    patches = None
    if args.trace:
        import tracing

        ctx.store = tracing.SpanStore()
        patches = tracing.install(ctx.store)
    started = time.time()
    cpu_before = common.cpu_times()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if patches is not None:
            tracing.uninstall(patches)

    steal = common.steal_fraction(cpu_before, common.cpu_times())
    limit = workloads.LATENCY_LIMIT_S.get(args.workload)
    e2e, notes = end_to_end(outcome, limit)
    failures = [op.reason for op in outcome.ops if not op.ok]
    meta = common.metadata(pinned)
    meta.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "started_unix": started, "run_dir": str(run_dir.relative_to(common.ROOT)),
                 "conv_plans": common.plan_summary(outcome.plans),
                 "host_steal_frac": steal,
                 **notes, **outcome.notes, "failures": failures})
    if args.trace:
        ctx.store.write(run_dir / "spans.jsonl")
        figures = per_layer(outcome, ctx.store.spans)
        # Traced end-to-end figures: minus the untraced run's on the same
        # seed, they are the tracing overhead.
        figures["trace.setup_s"] = e2e["setup_s"]["value"]
        figures["trace.op_p50_s"] = e2e["op_p50_s"]["value"]
        figures["trace.spans"] = len(ctx.store.spans)
        metrics = {name: _metric(figures[name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        metrics = e2e
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=1, default=str))
    for reason in failures:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcome.ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
