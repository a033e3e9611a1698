#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a triad checkout. It builds perfbench/ (and with it the
triad library from the same checkout) under $CARGO_TARGET_DIR, default
.bench_build, runs triad_perfbench for one workload, checks the outputs, and
prints every metric by name with its unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 reports
the per-layer metrics from a separate traced run and writes its spans as a
Chrome trace-event file (Perfetto loads it) under <build dir>/traces/.
Workloads and metrics are declared in perfbench/metrics.py. The exit code is
non-zero when the build or run fails or a correctness check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(out):
    """Builds triad_perfbench, configuring first when the build directory is
    new or its last configure failed; returns the executable's path."""
    cmd = ["cmake", "--build", str(out), "--target", "triad_perfbench",
           "-j", "4"]
    if not ((out / "CMakeCache.txt").exists()
            and subprocess.run(cmd, stdout=sys.stderr).returncode == 0):
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    return out / "triad_perfbench"


# --- metric extraction ------------------------------------------------------

def unique_batches(phase):
    """Execution time of each distinct batch: every request of a batch
    carries the same (batch_seconds, batch_size) pair."""
    return [s for s, _ in set(zip(phase["batch_s"], phase["batch_size"]))]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus sample counts."""
    setup = stats.median(raw["setup_s"])
    if raw["kind"] == "train":
        steps = raw["step_s"]
        return {
            "step_s_p50": stats.median(steps),
            "step_s_p90": stats.tail(steps, 0.90),
            "peak_mem_bytes": stats.median(raw["peak_bytes"]),
            "setup_s": setup,
            "latency_s_p50": stats.median(steps),
            "latency_s_p99": stats.tail(steps, 0.99),
            "goodput_rps": len(steps) / sum(steps),
        }, {"steps": len(steps), "vertices": raw["vertices"],
            "edges": raw["edges"], "shards": raw["shards"]}
    u = raw["untraced"]
    batches = unique_batches(u)
    # One window per second of traffic, each holding thousands of requests.
    windows = round(u["wall_seconds"])
    return {
        "step_s_p50": stats.median(batches),
        "step_s_p90": stats.tail(batches, 0.90),
        "peak_mem_bytes": raw["max_batch_peak_bytes"],
        "setup_s": setup,
        "latency_s_p50": stats.median(u["latency_s"]),
        "latency_s_p99": stats.windowed(
            u["latency_s"], windows, lambda w: stats.tail(w, 0.99)),
        "goodput_rps": u["good"] / u["wall_seconds"],
    }, {"rate_rps": raw["rate_rps"], "requests": len(u["latency_s"]),
        "batches": len(batches), "plans warmed": raw["warmup_plans"]}


def median_child(roots, *names):
    """Median over roots of the summed duration of the named children."""
    if not roots:
        return 0.0
    return stats.median([sum(r["children"].get(n, 0.0) for n in names)
                         for r in roots])


def frac(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """The per-layer metrics of a traced run (zero where a layer is unused)."""
    m = {name: 0.0 for name in metrics.PER_LAYER}
    spans = raw["spans"]
    setups = stats.per_root(spans, "setup")
    m["ir.passes_s"] = raw["pass_seconds"]
    m["engine.plan_build_s"] = raw["plan_seconds"]
    if raw["kind"] == "train":
        partition = sum(p["seconds"] for p in raw["compile_passes"]
                        if p["name"].startswith("partition"))
        m["ir.passes_s"] -= partition
        m["graph.partition_s"] = partition
        m["graph.build_s"] = median_child(setups, "graph.build")
        m["ir.nodes_after"] = raw["ir_nodes_after"]
        steps = stats.per_root(spans, "step")
        c = {k: stats.median([tc[k] for tc in raw["traced_counters"]])
             for k in raw["traced_counters"][0]}
        fwd = median_child(steps, "engine.forward")
        bwd = median_child(steps, "engine.backward")
        m.update({
            "engine.kernel_launches": c["kernel_launches"],
            "engine.flops": c["flops"],
            "engine.modeled_io_bytes": c["io_bytes"],
            "engine.forward_s": fwd,
            "engine.backward_s": bwd,
            "engine.achieved_gbps": frac(c["io_bytes"], fwd + bwd) / 1e9,
            "engine.specialized_fwd_frac": frac(
                c["specialized_fwd_edges"],
                c["specialized_fwd_edges"] + c["interpreted_fwd_edges"]),
            "engine.specialized_bwd_frac": frac(
                c["specialized_bwd_edges"],
                c["specialized_bwd_edges"] + c["interpreted_bwd_edges"]),
            "tensor.loss_s": median_child(steps, "tensor.loss"),
            "transport.update_s": median_child(
                steps, "transport.push_grads", "transport.pull_params"),
            "pipeline.walk_s": c["walk_ns"] * 1e-9,
            "pipeline.combine_s": c["combine_ns"] * 1e-9,
            "pipeline.combine_overlap_frac": frac(c["combine_overlap_ns"],
                                                  c["combine_ns"]),
            "pipeline.boundary_stash_bytes": c["boundary_stash_bytes"],
            "pipeline.stash_saved_bytes": c["boundary_stash_saved_bytes"],
            "transport.msgs": c["transport_msgs"],
            "transport.boundary_bytes": (c["transport_bytes"]
                                         - c["param_push_bytes"]
                                         - c["param_pull_bytes"]),
            "transport.param_bytes": (c["param_push_bytes"]
                                      + c["param_pull_bytes"]),
            "trace.unattributed_s": stats.median([r["self"] for r in steps]),
            "trace.unattributed_frac": stats.median(
                [r["self"] / r["duration"] for r in steps]),
            "trace.overhead_frac": (
                stats.median([r["duration"] for r in steps])
                / stats.median(raw["step_s"]) - 1.0),
        })
        return m
    t, u = raw["traced"], raw["untraced"]
    batches = stats.per_root(spans, "serve.batch")
    offered = t["offered"]
    refused = t["shed"] + t["rejected"] + t["failed"]
    m.update({
        "serve.queue_wait_s_p50": stats.median(t["queue_wait_s"]),
        "serve.queue_wait_s_p99": stats.tail(t["queue_wait_s"], 0.99),
        "serve.batch_exec_s_p50": stats.median(unique_batches(t)),
        "serve.batch_size_mean": frac(t["completed"],
                                      len(unique_batches(t))),
        "serve.collate_s": median_child(batches, "serve.collate"),
        "serve.run_s": median_child(batches, "engine.run"),
        "serve.decollate_s": median_child(batches, "serve.decollate"),
        "baselines.plan_cache_misses": (t["plan_cache_misses"]
                                        + u["plan_cache_misses"]),
        "serve.shed": t["shed"],
        "serve.rejected": t["rejected"],
        "serve.failed": t["failed"],
        "serve.error_frac": frac(refused, offered),
        "serve.send_lag_s_p99": stats.tail(t["send_lag_s"], 0.99),
        "trace.unattributed_s": stats.median([r["self"] for r in batches]),
        "trace.unattributed_frac": stats.median(
            [r["self"] / r["duration"] for r in batches]),
        "trace.overhead_frac": (stats.median(t["latency_s"])
                                / stats.median(u["latency_s"]) - 1.0),
    })
    return m


# --- correctness ------------------------------------------------------------

def checks(raw):
    """(name, ok, detail) for every check: the binary's own plus the ones
    made here on its samples."""
    out = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    if raw["kind"] == "train":
        losses = raw["losses"]
        finite = all(x is not None and math.isfinite(x) for x in losses)
        third = max(1, len(losses) // 3)
        falling = finite and len(losses) >= 3 and losses[-1] < losses[0] and (
            sum(losses[-third:]) < sum(losses[:third]))
        out.append(("losses finite", finite, f"{len(losses)} steps"))
        out.append(("loss decreases over the run", falling,
                    f"{losses[0]:.6f} -> {losses[-1]:.6f}" if finite else ""))
    else:
        for key in ("untraced", "traced"):
            p = raw.get(key)
            if p is None:
                continue
            out.append((f"{key}: no plan compiled while serving",
                        p["plan_cache_misses"] == 0,
                        f"{p['plan_cache_misses']} misses"))
    return out


def attempts(raw):
    """(attempted, failed) operations of the run."""
    if raw["kind"] == "train":
        losses = raw["losses"] + raw.get("traced_losses", [])
        bad = sum(1 for x in losses if x is None or not math.isfinite(x))
        return len(losses), bad
    attempted = failed = 0
    for key in ("untraced", "traced"):
        p = raw.get(key)
        if p is not None:
            attempted += p["offered"]
            failed += p["shed"] + p["rejected"] + p["failed"]
    return attempted, failed


# --- report -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    raw_path = out / "raw" / f"{args.workload}-{args.seed}-{args.trace}.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    started = time.monotonic()
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({time.monotonic() - started:.1f} s)")
    if args.trace:
        values = per_layer(raw)
        units = {n: (u, moves) for n, (u, _, moves) in metrics.PER_LAYER.items()}
        trace_path = out / "traces" / f"{args.workload}-{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as f:
            json.dump(stats.chrome_trace(raw["spans"]), f)
        print(f"trace: {len(raw['spans'])} spans -> {trace_path}")
        self_s = {}
        for span, t in zip(raw["spans"], stats.self_times(raw["spans"])):
            n, total = self_s.get(span["name"], (0, 0.0))
            self_s[span["name"]] = (n + 1, total + t)
        print(f"{'span':32} {'count':>8} {'self time (s)':>14}")
        for name, (n, total) in sorted(self_s.items()):
            print(f"{name:32} {n:8d} {total:14.6g}")
        print(f"{'per-layer metric':32} {'value':>14} {'unit':6}  moves")
        for name, v in values.items():
            unit, moves = units[name]
            print(f"{name:32} {v:14.6g} {unit:6}  {moves}")
    else:
        values, counts = end_to_end(raw)
        units = {n: u for n, (u, *_rest) in metrics.END_TO_END.items()}
        print("samples: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        print(f"{'end-to-end metric':18} {'value':>14} {'unit':5}")
        for name, v in values.items():
            print(f"{name:18} {v:14.6g} {units[name]:5}")

    results = checks(raw)
    for name, ok, detail in results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}  ({detail})")
    correct = all(ok for _, ok, _ in results)
    attempted, failed = attempts(raw)
    unit_of = {n: v[0] for n, v in {**metrics.END_TO_END,
                                    **metrics.PER_LAYER}.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]}
                    for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
