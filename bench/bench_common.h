// Shared harness for the per-figure benchmark binaries.
//
// Every binary reproduces one table/figure of the paper's evaluation
// (Section 7): it builds the workload at a CPU-feasible scale (scales are
// printed and recorded in EXPERIMENTS.md), compiles each strategy ONCE into
// an ExecutionPlan, runs many steps off that plan, and prints the same
// normalized rows the figure plots — compile time reported separately from
// run time. Absolute numbers differ from the paper's GPUs; the *shape* (who
// wins, by what factor) is the reproduction target.
//
// Besides the human table, each binary emits one machine-readable
// BENCH_<name>.json (disable with --no-json, redirect with --json-dir=…) so
// the perf trajectory can be tracked across PRs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <atomic>
#include <memory>

#include "api/triad.h"
#include "engine/device.h"
#include "graph/partition.h"
#include "ir/dot.h"
#include "ir/passes/pass_manager.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace triad::bench {

/// Matches a "--flag=value" argv entry; returns the value part or nullptr.
/// Shared by Options::parse and per-bench extra-flag parsers.
inline const char* flag_value(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

struct Options {
  double scale = 1.0;        ///< graph scale for citation datasets
  double reddit_scale = 0.01;///< Reddit is huge; default heavily scaled
  double feat_scale = 0.25;  ///< input feature width scale (latency knob)
  int steps = 10;            ///< measured steps (after 1 warmup)
  int points = 256;          ///< EdgeConv points per cloud (paper: 1024)
  int shards = 0;            ///< K-way sharded execution (0 = unsharded)
  int threads = 0;           ///< global pool size override (0 = auto)
  unsigned seed = 42;
  bool specialize = true;    ///< bind specialized kernel cores (--no-specialize)
  bool transport = true;     ///< ParamServer parameter updates (--no-transport)
  bool json = true;          ///< emit BENCH_<name>.json
  std::string json_dir = "."; ///< where to write it
  std::string dump_ir;       ///< write one DOT file per pipeline stage here

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      auto val = [&](const char* flag) { return flag_value(argv[i], flag); };
      if (const char* v = val("--scale")) o.scale = std::atof(v);
      if (const char* v = val("--reddit-scale")) o.reddit_scale = std::atof(v);
      if (const char* v = val("--feat-scale")) o.feat_scale = std::atof(v);
      if (const char* v = val("--steps")) o.steps = std::atoi(v);
      if (const char* v = val("--points")) o.points = std::atoi(v);
      if (const char* v = val("--shards")) o.shards = std::atoi(v);
      if (const char* v = val("--threads")) o.threads = std::atoi(v);
      if (const char* v = val("--seed")) o.seed = static_cast<unsigned>(std::atoi(v));
      if (const char* v = val("--json-dir")) o.json_dir = v;
      if (const char* v = val("--dump-ir")) o.dump_ir = v;
      if (std::strcmp(argv[i], "--no-specialize") == 0) o.specialize = false;
      if (std::strcmp(argv[i], "--no-transport") == 0) o.transport = false;
      if (std::strcmp(argv[i], "--no-json") == 0) o.json = false;
      if (std::strcmp(argv[i], "--full") == 0) {
        o.scale = 1.0;
        o.reddit_scale = 1.0;
        o.feat_scale = 1.0;
        o.points = 1024;
      }
    }
    // The pool can only be sized before its first use; parse() runs first
    // thing in main, so this is the window.
    if (o.threads > 0) set_global_pool_threads(static_cast<unsigned>(o.threads));
    if (!o.dump_ir.empty()) {
      // One DOT file per pipeline stage, numbered in execution order across
      // every compilation this process performs. The directory must exist.
      // Atomic: serving-style benches compile concurrently from workers.
      auto stage = std::make_shared<std::atomic<int>>(0);
      PassManager::set_default_dump_hook(
          [stage, dir = o.dump_ir](const std::string& pass, const IrGraph& ir) {
            char path[512];
            std::snprintf(path, sizeof path, "%s/%03d_%s.dot", dir.c_str(),
                          stage->fetch_add(1), pass.c_str());
            std::FILE* f = std::fopen(path, "w");
            if (f == nullptr) {
              std::fprintf(stderr, "warning: cannot write %s\n", path);
              return;
            }
            const std::string dot = to_dot(ir, pass);
            std::fwrite(dot.data(), 1, dot.size(), f);
            std::fclose(f);
          });
    }
    return o;
  }

  double scale_for(const std::string& dataset) const {
    return dataset == "reddit" ? reddit_scale : scale;
  }
};

struct Measurement {
  double seconds = 0;           ///< measured CPU wall time per step (run-time)
  /// Spread of the per-step times behind `seconds` (measure_training's
  /// median); 0 when the row was not timed step by step.
  double seconds_p10 = 0;
  double seconds_p90 = 0;
  double compile_seconds = 0;   ///< one-time pass pipeline + plan build
  std::uint64_t io_bytes = 0;   ///< modeled DRAM traffic per step
  std::size_t peak_bytes = 0;   ///< peak pool memory
  PerfCounters counters;        ///< full counter delta per step
  int shards = 0;               ///< K of this run (0 = unsharded)
  std::size_t shard_peak_bytes = 0;  ///< max per-shard analytic peak (K > 0)
  /// Compile-phase breakdown: the full PassManager report (including note()
  /// entries) plus the IR node counts entering and leaving the pipeline —
  /// what the JSON `compile_passes` array and node-count fields are built
  /// from, so compile-time cost vs run-time win is machine-readable.
  std::vector<PassInfo> passes;
  int ir_nodes_before = 0;
  int ir_nodes_after = 0;
};

/// The benches' compile path: one Engine invocation per (module, strategy)
/// pair, threading the harness options (shards, seed) through CompileOptions.
/// The result is the shared artifact every measured step executes.
inline std::shared_ptr<const Compiled> engine_compile(
    std::shared_ptr<const api::Module> module, const Strategy& s, bool training,
    const Graph& g, const Options& opt) {
  api::CompileOptions co;
  co.strategy = s;
  if (!opt.specialize && co.strategy.specialize) {
    // Interpreter-only ablation run. The name suffix matters beyond display:
    // the plan cache keys on the strategy name, so specialized and
    // interpreter-only artifacts must never alias.
    co.strategy.specialize = false;
    co.strategy.name += "(-specialize)";
  }
  if (!opt.transport && co.strategy.transport) {
    // In-place-update ablation run (no ParamServer); same cache-key
    // reasoning as above.
    co.strategy.transport = false;
    co.strategy.name += "(-transport)";
  }
  co.shards = opt.shards;
  co.init_seed = opt.seed + 1;
  return api::Engine(co).compile(std::move(module)).compiled(g, training);
}

/// Linear-interpolated quantile `q` in [0, 1] of ascending `sorted`.
inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Runs `steps` training (or forward-only) steps off the model's compiled
/// plan and reports the median step time with its p10 and p90. The plan was
/// built exactly once by the Engine; the step loop performs no pass or
/// liveness work (Measurement::compile_seconds carries the one-time cost for
/// separate reporting).
inline Measurement measure_training(std::shared_ptr<const Compiled> compiled,
                                    const Graph& g, const Tensor& features,
                                    const Tensor& pseudo,
                                    const IntTensor& labels, int steps,
                                    bool training, MemoryPool* pool) {
  Measurement m;
  m.compile_seconds = compiled->stats.total_seconds();
  m.passes = compiled->stats.passes;
  if (!m.passes.empty()) {
    m.ir_nodes_before = m.passes.front().nodes_before;
    m.ir_nodes_after = m.passes.back().nodes_after;
  }
  if (compiled->partition != nullptr) {
    m.shards = compiled->partition->num_shards();
    m.shard_peak_bytes = compiled->plan->max_shard_peak_bytes();
  }
  const bool has_pseudo = compiled->pseudo >= 0;
  Trainer trainer(std::move(compiled), g,
                  features.clone(MemTag::kInput, pool),
                  has_pseudo ? pseudo.clone(MemTag::kInput, pool) : Tensor{},
                  pool);
  // Warmup step (allocator, caches).
  if (training) {
    trainer.train_step(labels, 1e-3f);
  } else {
    trainer.forward(labels);
  }
  std::vector<double> step_s;
  for (int i = 0; i < steps; ++i) {
    const StepMetrics sm =
        training ? trainer.train_step(labels, 1e-3f) : trainer.forward(labels);
    step_s.push_back(sm.seconds);
    m.io_bytes += sm.counters.io_bytes();
    m.counters += sm.counters;
    m.peak_bytes = std::max(m.peak_bytes, sm.peak_bytes);
  }
  std::sort(step_s.begin(), step_s.end());
  m.seconds = quantile(step_s, 0.5);
  m.seconds_p10 = quantile(step_s, 0.1);
  m.seconds_p90 = quantile(step_s, 0.9);
  m.io_bytes /= static_cast<std::uint64_t>(steps);
  return m;
}

inline void print_header(const char* title, const char* note) {
  std::printf("\n=== %s ===\n", title);
  if (note != nullptr && *note != '\0') std::printf("%s\n", note);
  std::printf("%-22s %-14s %12s %12s %12s %12s %10s %8s %8s\n", "workload",
              "strategy", "latency(ms)", "compile(ms)", "IO", "memory",
              "kernels", "speedup", "vs-mem");
}

/// Prints one row, normalized against `base` (speedup = base/this for
/// latency, vs-mem = base/this for memory — higher is better for "Ours").
inline void print_row(const std::string& workload, const std::string& strategy,
                      const Measurement& m, const Measurement& base) {
  const double speedup = m.seconds > 0 ? base.seconds / m.seconds : 0.0;
  const double mem_ratio =
      m.peak_bytes > 0 ? static_cast<double>(base.peak_bytes) /
                             static_cast<double>(m.peak_bytes)
                       : 0.0;
  std::printf("%-22s %-14s %12.2f %12.2f %12s %12s %10llu %7.2fx %7.2fx\n",
              workload.c_str(), strategy.c_str(), m.seconds * 1e3,
              m.compile_seconds * 1e3, human_bytes(m.io_bytes).c_str(),
              human_bytes(m.peak_bytes).c_str(),
              static_cast<unsigned long long>(m.counters.kernel_launches),
              speedup, mem_ratio);
}

inline void print_footnote(const Options& o) {
  std::printf(
      "(scales: citation=%.3g reddit=%.3g feat=%.3g; steps=%d; shards=%d; "
      "threads=%u; normalized columns are relative to the first row of each "
      "workload)\n",
      o.scale, o.reddit_scale, o.feat_scale, o.steps, o.shards,
      global_pool().size());
}

/// Collects the rows a benchmark prints and dumps them as
/// BENCH_<name>.json — one file per figure bench, machine-readable, with
/// compile-time and run-time reported as separate fields.
class JsonReport {
 public:
  JsonReport(std::string name, const Options& opt)
      : name_(std::move(name)), opt_(opt) {}

  /// Prints the table row AND records it for the JSON dump. `extra` is an
  /// optional raw JSON fragment (`"key": value, ...` without braces) merged
  /// into the row object — how bench_serving reports throughput and latency
  /// percentiles alongside the standard fields.
  void row(const std::string& workload, const std::string& strategy,
           const Measurement& m, const Measurement& base,
           const std::string& extra = "") {
    print_row(workload, strategy, m, base);
    add(workload, strategy, m, base, extra);
  }

  /// Records without printing (for benches with custom table formats). The
  /// step-time spread (`run_seconds_p10/p90`, rows timed step by step) and
  /// the compile-phase breakdown (`compile_passes`, `ir_nodes_before/after`)
  /// are appended to the row through the same extra-field mechanism callers
  /// use.
  void add(const std::string& workload, const std::string& strategy,
           const Measurement& m, const Measurement& base,
           const std::string& extra = "") {
    std::string merged = extra;
    if (!merged.empty()) merged += ", ";
    if (m.seconds_p90 > 0) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "\"run_seconds_p10\": %.6e, \"run_seconds_p90\": %.6e, ",
                    m.seconds_p10, m.seconds_p90);
      merged += buf;
    }
    merged += compile_fields_json(m);
    rows_.push_back({workload, strategy, m, base.seconds, base.peak_bytes,
                     std::move(merged)});
  }

  /// `"ir_nodes_before": …, "ir_nodes_after": …, "compile_passes": […]` —
  /// the full PassManager report (note() entries included) as raw JSON
  /// fragments for one row.
  static std::string compile_fields_json(const Measurement& m) {
    std::string out = "\"ir_nodes_before\": " +
                      std::to_string(m.ir_nodes_before) +
                      ", \"ir_nodes_after\": " +
                      std::to_string(m.ir_nodes_after) +
                      ", \"compile_passes\": [";
    char buf[96];
    for (std::size_t i = 0; i < m.passes.size(); ++i) {
      const PassInfo& p = m.passes[i];
      std::snprintf(buf, sizeof buf,
                    "\"seconds\": %.6e, \"nodes_before\": %d, "
                    "\"nodes_after\": %d",
                    p.seconds, p.nodes_before, p.nodes_after);
      out += (i ? ", " : "") + ("{\"name\": \"" + p.name + "\", ") + buf;
      if (!p.rules.empty()) {
        out += ", \"rules\": [";
        for (std::size_t r = 0; r < p.rules.size(); ++r) {
          out += (r ? ", " : "") + ("{\"rule\": \"" + p.rules[r].rule +
                                    "\", \"hits\": ") +
                 std::to_string(p.rules[r].hits) + "}";
        }
        out += "]";
      }
      out += "}";
    }
    return out + "]";
  }

  void write() const {
    if (!opt_.json) return;
    const std::string path = opt_.json_dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n"
                 "  \"options\": {\"scale\": %g, \"reddit_scale\": %g, "
                 "\"feat_scale\": %g, \"steps\": %d, \"points\": %d, "
                 "\"shards\": %d, \"threads\": %u, "
                 "\"seed\": %u},\n  \"rows\": [\n",
                 name_.c_str(), opt_.scale, opt_.reddit_scale, opt_.feat_scale,
                 opt_.steps, opt_.points, opt_.shards, global_pool().size(),
                 opt_.seed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      const double speedup =
          r.m.seconds > 0 ? r.base_seconds / r.m.seconds : 0.0;
      const double mem_ratio =
          r.m.peak_bytes > 0 ? static_cast<double>(r.base_peak) /
                                   static_cast<double>(r.m.peak_bytes)
                             : 0.0;
      std::fprintf(
          f,
          "    {\"workload\": \"%s\", \"strategy\": \"%s\", "
          "\"run_seconds\": %.6e, \"compile_seconds\": %.6e, "
          "\"io_bytes\": %llu, \"peak_bytes\": %zu, "
          "\"kernel_launches\": %llu, \"atomic_ops\": %llu, "
          "\"flops\": %llu, \"combine_bytes\": %llu, "
          "\"specialized_edges\": %llu, \"interpreted_edges\": %llu, "
          "\"specialized_fwd_edges\": %llu, \"specialized_bwd_edges\": %llu, "
          "\"interpreted_fwd_edges\": %llu, \"interpreted_bwd_edges\": %llu, "
          "\"walk_ns\": %llu, \"combine_ns\": %llu, "
          "\"boundary_stash_bytes\": %llu, "
          "\"boundary_stash_saved_bytes\": %llu, "
          "\"transport_msgs\": %llu, \"transport_bytes\": %llu, "
          "\"param_push_bytes\": %llu, \"param_pull_bytes\": %llu, "
          "\"shards\": %d, \"shard_peak_bytes\": %zu, "
          "\"speedup\": %.4f, \"mem_ratio\": %.4f%s%s}%s\n",
          r.workload.c_str(), r.strategy.c_str(), r.m.seconds,
          r.m.compile_seconds,
          static_cast<unsigned long long>(r.m.io_bytes), r.m.peak_bytes,
          static_cast<unsigned long long>(r.m.counters.kernel_launches),
          static_cast<unsigned long long>(r.m.counters.atomic_ops),
          static_cast<unsigned long long>(r.m.counters.flops),
          static_cast<unsigned long long>(r.m.counters.combine_bytes),
          static_cast<unsigned long long>(r.m.counters.specialized_edges()),
          static_cast<unsigned long long>(r.m.counters.interpreted_edges()),
          static_cast<unsigned long long>(r.m.counters.specialized_fwd_edges),
          static_cast<unsigned long long>(r.m.counters.specialized_bwd_edges),
          static_cast<unsigned long long>(r.m.counters.interpreted_fwd_edges),
          static_cast<unsigned long long>(r.m.counters.interpreted_bwd_edges),
          static_cast<unsigned long long>(r.m.counters.walk_ns),
          static_cast<unsigned long long>(r.m.counters.combine_ns),
          static_cast<unsigned long long>(r.m.counters.boundary_stash_bytes),
          static_cast<unsigned long long>(
              r.m.counters.boundary_stash_saved_bytes),
          static_cast<unsigned long long>(r.m.counters.transport_msgs),
          static_cast<unsigned long long>(r.m.counters.transport_bytes),
          static_cast<unsigned long long>(r.m.counters.param_push_bytes),
          static_cast<unsigned long long>(r.m.counters.param_pull_bytes),
          r.m.shards, r.m.shard_peak_bytes, speedup, mem_ratio,
          r.extra.empty() ? "" : ", ", r.extra.c_str(),
          i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Row {
    std::string workload, strategy;
    Measurement m;
    double base_seconds = 0;
    std::size_t base_peak = 0;
    std::string extra;  ///< raw JSON fragment merged into the row object
  };
  std::string name_;
  Options opt_;
  std::vector<Row> rows_;
};

}  // namespace triad::bench
