"""Every workload and metric the benchmark reports.

BENCHMARK.json at the repository root lists the same workloads and metrics
(tests/test_stats.py checks that the two agree). This file adds what that
file's fixed schema has no room for: what each end-to-end metric means on
training vs serving, and which end-to-end metric each per-layer metric
should move.

Layers are the repository's modules: graph, ir, engine, pipeline, transport,
models, tensor, baselines, serve, api; `trace` describes the trace itself.
"""

# Seconds one run measures (BENCHMARK.json's run_seconds).
RUN_SECONDS = 30

WORKLOADS = {
    "train-edgeconv-knn": (
        "EdgeConv training, the paper's edge-centric model, on 8 k-NN clouds "
        "(2048 v, 40960 e), unsharded; stresses ir reorg/recompute and engine "
        "cores; skips partition, pipeline, serve"),
    "train-gat-rmat-k3": (
        "GAT training on an R-MAT power-law graph (2^14 v, 2^17 e) sharded "
        "K=3; the only user of graph.partition, pipeline and transport "
        "exchange; backward-heavy; skips serve"),
    "serve-mix-openloop": (
        "ServingHost, 2 workers, GCN+GAT mix, open-loop Poisson at 3000 rps "
        "(about half saturation) with a warm PlanCache; stresses serve and "
        "plan_cache; skips backward, transport, partition"),
}

# name: (unit, better, bound, meaning on training / on serving)
#
# Bounds: over ten seeds on a 4-vCPU VM whose host steal drifted between 0
# and 15% during a run, step and latency medians spread (quartile distance
# over median) up to 0.15 and tails up to 0.18, so every timing gets the 0.25
# ceiling. Peak memory repeats exactly.
END_TO_END = {
    "step_s_p50": ("s", "lower", 0.25,
                   "median Trainer::train_step wall time / median batch "
                   "execution time"),
    "step_s_p90": ("s", "lower", 0.25,
                   "p90 of the same (lowered to keep ten samples beyond)"),
    "peak_mem_bytes": ("B", "lower", 0.05,
                       "median per-step peak of the trainer's MemoryPool / "
                       "pool peak of one largest admissible batch"),
    "setup_s": ("s", "lower", 0.25,
                "median of repeated set-ups: graph build + Model::compiled + "
                "Trainer / host + registration + PlanCache warm-up"),
    "latency_s_p50": ("s", "lower", 0.25,
                      "median step latency (a step is the unit of work) / "
                      "median request latency from its due instant"),
    "latency_s_p99": ("s", "lower", 0.25,
                      "p99 of the same (lowered to keep ten samples beyond) / "
                      "median over 1 s windows of each window's p99"),
    "goodput_rps": ("1/s", "higher", 0.25,
                    "training steps completed per second / requests "
                    "completed within the 10 ms SLO per wall second"),
}

# name: (unit, better, end-to-end metric it should move)
PER_LAYER = {
    "ir.passes_s": ("s", "lower", "setup_s"),
    "engine.plan_build_s": ("s", "lower", "setup_s"),
    "graph.build_s": ("s", "lower", "setup_s"),
    "graph.partition_s": ("s", "lower", "setup_s"),
    "ir.nodes_after": ("count", "lower", "step_s_p50"),
    "engine.kernel_launches": ("count", "lower", "step_s_p50"),
    "engine.flops": ("count", "lower", "step_s_p50"),
    "engine.modeled_io_bytes": ("B", "lower", "step_s_p50"),
    "engine.forward_s": ("s", "lower", "step_s_p50"),
    "engine.backward_s": ("s", "lower", "step_s_p50"),
    "engine.achieved_gbps": ("GB/s", "higher", "step_s_p50"),
    "engine.specialized_fwd_frac": ("ratio", "higher", "engine.forward_s"),
    "engine.specialized_bwd_frac": ("ratio", "higher", "engine.backward_s"),
    "tensor.loss_s": ("s", "lower", "step_s_p50"),
    "transport.update_s": ("s", "lower", "step_s_p50"),
    "pipeline.walk_s": ("s", "lower", "step_s_p50"),
    "pipeline.combine_s": ("s", "lower", "step_s_p50"),
    "pipeline.combine_overlap_frac": ("ratio", "higher", "step_s_p50"),
    "pipeline.boundary_stash_bytes": ("B", "lower", "peak_mem_bytes"),
    "pipeline.stash_saved_bytes": ("B", "higher", "peak_mem_bytes"),
    "transport.msgs": ("count", "lower", "step_s_p50"),
    "transport.boundary_bytes": ("B", "lower", "step_s_p50"),
    "transport.param_bytes": ("B", "lower", "step_s_p50"),
    "serve.queue_wait_s_p50": ("s", "lower", "latency_s_p50"),
    "serve.queue_wait_s_p99": ("s", "lower", "latency_s_p99"),
    "serve.batch_exec_s_p50": ("s", "lower", "latency_s_p50"),
    "serve.batch_size_mean": ("count", "higher", "goodput_rps"),
    "serve.collate_s": ("s", "lower", "latency_s_p50"),
    "serve.run_s": ("s", "lower", "latency_s_p50"),
    "serve.decollate_s": ("s", "lower", "latency_s_p50"),
    "baselines.plan_cache_misses": ("count", "lower", "latency_s_p99"),
    "serve.shed": ("count", "lower", "goodput_rps"),
    "serve.rejected": ("count", "lower", "goodput_rps"),
    "serve.failed": ("count", "lower", "goodput_rps"),
    "serve.error_frac": ("ratio", "lower", "goodput_rps"),
    "serve.send_lag_s_p99": ("s", "lower", "latency_s_p99"),
    "trace.unattributed_s": ("s", "lower", "-"),
    "trace.unattributed_frac": ("ratio", "lower", "-"),
    "trace.overhead_frac": ("ratio", "lower", "-"),
}


def benchmark_json():
    """The BENCHMARK.json document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, (u, b, _) in PER_LAYER.items()],
    }

