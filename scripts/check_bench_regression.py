#!/usr/bin/env python3
"""Gate the hot-path microbenchmark against the committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--max-regress PCT]

Both files come from `bench_micro --json`. Fails (exit 1) when
  * tco_us_per_message regressed by more than --max-regress percent
    (default 25), or
  * the steady phase performed any fresh pool allocations — the pooled
    hot path promises exactly zero, or
  * the batch-ingestion sweep shows a batched step() costing more per
    message than the batch-size-1 path (plus --batch-slack percent of
    noise headroom). This check reads CURRENT only: the curve compares
    batch sizes against each other on the same machine, so it needs no
    baseline and older baselines without the sweep still gate cleanly, or
  * the tracing-disabled tco (trace_overhead.disabled_us_per_message —
    emit call sites compiled in, no Tracer attached) exceeds the
    baseline's by more than --trace-slack percent (default 1): attaching
    the tracing subsystem's call sites must be free when tracing is off.
    Skipped when the baseline predates the trace_overhead rows.

Refresh the baseline (after an intentional perf change, on the reference
machine) with: ./build/bench/bench_micro --json BENCH_baseline.json
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=25.0,
                    help="max tco_us_per_message regression, percent")
    ap.add_argument("--batch-slack", type=float, default=10.0,
                    help="noise headroom for the batch-sweep check, percent")
    ap.add_argument("--trace-slack", type=float, default=1.0,
                    help="max tracing-disabled tco regression vs the "
                         "baseline, percent")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    failures = []

    base_tco = float(base["tco_us_per_message"])
    cur_tco = float(cur["tco_us_per_message"])
    limit = base_tco * (1.0 + args.max_regress / 100.0)
    delta_pct = (cur_tco / base_tco - 1.0) * 100.0 if base_tco else 0.0
    print(f"tco_us_per_message: baseline={base_tco:.4f} current={cur_tco:.4f} "
          f"({delta_pct:+.1f}%, limit +{args.max_regress:.0f}%)")
    if cur_tco > limit:
        failures.append(
            f"tco_us_per_message regressed {delta_pct:+.1f}% "
            f"(> +{args.max_regress:.0f}% allowed)")

    steady_allocs = int(cur.get("steady_state_allocations", 0))
    print(f"steady_state_allocations: {steady_allocs} (must be 0)")
    if steady_allocs != 0:
        failures.append(
            f"{steady_allocs} fresh pool allocations in the steady phase "
            "(hot path must run on recycled PDU bodies)")

    sweep = cur.get("batch_step_us_per_message")
    if sweep is not None:
        curve = sorted((int(k), float(v)) for k, v in sweep.items())
        printable = "  ".join(f"{b}:{v:.4f}" for b, v in curve)
        print(f"batch_step_us_per_message: {printable}")
        single = dict(curve).get(1)
        if single is None:
            failures.append("batch sweep is missing the batch-size-1 point")
        else:
            cap = single * (1.0 + args.batch_slack / 100.0)
            for b, v in curve:
                if b > 1 and v > cap:
                    failures.append(
                        f"batch size {b} costs {v:.4f} us/message, slower "
                        f"than the single-message path ({single:.4f} "
                        f"+{args.batch_slack:.0f}% = {cap:.4f})")

    kernels = cur.get("kernels_ns")
    if kernels is not None:
        dispatch_name = cur.get("kernel_dispatch", "?")
        print(f"kernel_dispatch: {dispatch_name}")
        base_kernels = base.get("kernels_ns", {})
        for name in sorted(kernels):
            row = kernels[name]
            scalar_ns = float(row["scalar"])
            dispatch_ns = float(row["dispatch"])
            print(f"kernel {name}: scalar={scalar_ns:.1f}ns "
                  f"dispatch={dispatch_ns:.1f}ns")
            # The selected backend must never lose to its own scalar
            # reference (same machine, same run — no baseline needed).
            # Slack covers timer noise on sub-10ns kernels.
            if dispatch_name != "scalar":
                cap = scalar_ns * (1.0 + args.batch_slack / 100.0) + 2.0
                if dispatch_ns > cap:
                    failures.append(
                        f"kernel {name}: dispatch ({dispatch_name}) costs "
                        f"{dispatch_ns:.1f}ns vs scalar {scalar_ns:.1f}ns — "
                        "the SIMD backend lost to the reference")
            # And it must not regress against the committed baseline
            # (skipped per-kernel when the baseline predates the kernel).
            base_row = base_kernels.get(name)
            if base_row is not None:
                base_ns = float(base_row["dispatch"])
                limit_ns = base_ns * (1.0 + args.max_regress / 100.0)
                if dispatch_ns > limit_ns:
                    failures.append(
                        f"kernel {name}: dispatch regressed to "
                        f"{dispatch_ns:.1f}ns from baseline {base_ns:.1f}ns "
                        f"(> +{args.max_regress:.0f}% allowed)")
    elif "kernels_ns" in base:
        failures.append("baseline has kernels_ns but current run does not — "
                        "per-kernel metrics vanished from bench_micro")

    trace = cur.get("trace_overhead")
    if trace is not None:
        disabled = float(trace["disabled_us_per_message"])
        parts = []
        for mode in ("disabled", "null_sink", "ring"):
            v = trace.get(f"{mode}_us_per_message")
            if v is None:
                continue
            rel = (float(v) / disabled - 1.0) * 100.0 if disabled else 0.0
            parts.append(f"{mode}={float(v):.4f} ({rel:+.1f}%)")
        print(f"trace_overhead us/message: {'  '.join(parts)}")
        base_disabled = base.get("trace_overhead", {}).get(
            "disabled_us_per_message")
        if base_disabled is not None:
            base_disabled = float(base_disabled)
            limit = base_disabled * (1.0 + args.trace_slack / 100.0)
            if disabled > limit:
                failures.append(
                    f"tracing-disabled tco is {disabled:.4f} us/message vs "
                    f"baseline {base_disabled:.4f} "
                    f"(> +{args.trace_slack:.1f}% allowed — the emit call "
                    "sites must stay off the hot path when no tracer is "
                    "attached)")
    elif "trace_overhead" in base:
        failures.append("baseline has trace_overhead but current run does "
                        "not — tracing-overhead rows vanished from "
                        "bench_micro")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK: hot-path bench within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
