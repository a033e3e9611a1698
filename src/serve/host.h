/// \file
/// ServingHost: the batched serving runtime — one or N models behind one
/// front door.
///
/// Requests enter a model's bounded queue; a worker collects a batch under
/// the model's max-batch/max-wait policy, collates it into one block-diagonal
/// graph, fetches the matching immutable ExecutionPlan from the process-wide
/// PlanCache (one compile per (model, batch shape), ever), runs it through a
/// PlanRunner — shard-parallel when configured — and de-collates per-request
/// outputs back to their futures. A single-model deployment is a host with
/// one registered model (api::Model::register_with).
///
/// Each model is keyed by its cache identity into its own PlanCache namespace
/// with its own ServerStats, latency histogram, bounded admission queue, and
/// SLO feedback controller. Shared workers drain the per-model queues
/// round-robin; every batch is single-model (collation is block-diagonal per
/// model), so the bit-identity guarantee of serve/collate.h carries over
/// unchanged — batched serving is still exactly solo execution per request.
///
/// Three serving policies live on top of plain batching:
///
///  * Request priorities + admission control. Each model's BoundedQueue has
///    one lane per Priority; High drains before Normal before Low. When queue
///    depth reaches shed_fraction of capacity, Low-priority submissions are
///    shed at admission (counted in ServerStats::shed) — load shedding
///    protects the SLO of the traffic that matters instead of letting the
///    queue tail inflate everyone's p99.
///
///  * SLO-aware adaptive batching. With an enabled SloPolicy the batch knobs
///    stop being static: a target-p99 feedback controller (serve/slo.h)
///    observes the recent latency tail after every batch and steers the
///    effective max-wait/max-batch, trading batching headroom for tail
///    latency only when the SLO has room.
///
///  * Hot weight reload. reload() swaps a model's parameter tensors without
///    touching its shape-keyed plans (plans are weight-independent: workers
///    bind the current weight snapshot at batch-serve time). The swap is
///    atomic per batch — every response is computed entirely under the old or
///    entirely under the new weights, never a torn mix.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/strategy.h"
#include "graph/partition.h"
#include "serve/collate.h"
#include "serve/slo.h"
#include "support/counters.h"
#include "support/histogram.h"
#include "support/queue.h"
#include "support/timer.h"

namespace triad::serve {

/// Request priority: the queue lane a submission lands in. High drains
/// first; Low is the sheddable class under admission control.
enum class Priority { High = 0, Normal = 1, Low = 2 };
inline constexpr int kPriorityLanes = 3;

/// Admission verdict of try_submit — the open-loop load generator tells shed
/// (SLO protection) apart from rejected (queue full) apart from closed.
enum class Admission { Accepted, Shed, Rejected, Closed };

/// What a request's future resolves to.
struct InferenceResult {
  Tensor output;             ///< this request's output rows (de-collated)
  double latency_seconds = 0;  ///< submit -> result ready, on the host clock
  double batch_seconds = 0;    ///< execution time of the batch it rode in
  int batch_size = 0;          ///< how many requests shared that run
};

/// Serving metrics of one model (HostStats::total sums them across models).
/// wall_seconds spans first submit to last completion, so throughput_rps()
/// reflects the actually loaded window.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  ///< try_submit refusals (queue full)
  /// Low-priority submissions refused by admission control because queue
  /// depth threatened the SLO (never counted as rejected).
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;    ///< promises fulfilled with an exception
  std::uint64_t batches = 0;
  std::uint64_t reloads = 0;   ///< hot weight swaps applied
  /// SLO feedback-controller activity (models with an enabled SloPolicy):
  /// counted knob adjustments prove the mechanism engaged.
  std::uint64_t slo_shrinks = 0;
  std::uint64_t slo_grows = 0;
  std::int64_t eff_max_wait_us = 0;  ///< effective max-wait at snapshot time
  int eff_max_batch = 0;             ///< effective max-batch at snapshot time
  /// Most workers ever serving this model's batches at once. With a
  /// max_workers_per_model quota this is the fairness bound: it never
  /// exceeds the quota, however hot the model runs.
  int peak_workers = 0;
  double busy_seconds = 0;  ///< summed batch execution time (all workers)
  double wall_seconds = 0;
  std::size_t queue_depth = 0;      ///< at snapshot time
  std::size_t pool_peak_bytes = 0;  ///< host-internal batch memory peak
  LatencyHistogram::Snapshot latency;
  PerfCounters counters;  ///< summed per-batch deltas across workers
  /// batch_size_hist[b] = batches served at size b (index 0 unused); sized
  /// max_batch + 1 at registration.
  std::vector<std::uint64_t> batch_size_hist;

  double throughput_rps() const {
    return wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds : 0;
  }
  double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(completed) / static_cast<double>(batches)
                       : 0;
  }
};

/// Per-model serving configuration, fixed at registration.
struct ModelOptions {
  Strategy strategy = ours();  ///< pass pipeline the plans are compiled under
  BatchPolicy batch;           ///< static knobs; the SLO controller's baseline
  SloPolicy slo;               ///< disabled by default (pure static policy)
  /// K > 0: execute each batch shard-parallel (deterministic boundary
  /// combine — still bit-identical). 0 = unsharded chunked kernels.
  int shards = 0;
  PartitionStrategy partition_strategy = PartitionStrategy::DegreeBalanced;
  /// Queue-depth fraction at or above which Low-priority submissions are
  /// shed at admission. >= 1.0 disables shedding.
  double shed_fraction = 0.75;
};

struct HostConfig {
  /// Shared batch-serving loops across all models. 0 starts no threads —
  /// batches are then served only by explicit pump() calls (deterministic
  /// tests drive the host this way).
  int workers = 1;
  /// Cap on workers concurrently serving any single model's batches;
  /// 0 = unlimited. The fairness knob for the shared pool: one hot model can
  /// saturate at most this many workers, leaving the rest free for other
  /// models' queues. ServerStats::peak_workers observes the bound.
  int max_workers_per_model = 0;
};

/// Per-model stats plus a cross-model aggregate. `total` sums the numeric
/// fields; its latency snapshot carries merged count/sum/min/max only
/// (percentiles do not compose across models — read them per model).
struct HostStats {
  std::map<std::string, ServerStats> models;
  ServerStats total;
};

class ServingHost {
 public:
  /// Builds the model IR + parameters. Called at registration, on reload(),
  /// and on PlanCache misses (one per distinct batch shape) from worker
  /// threads, possibly concurrently — it must be self-contained (seed an Rng
  /// inside).
  using ModelBuilder = std::function<ModelGraph()>;

  explicit ServingHost(HostConfig config = {});
  ~ServingHost();  ///< implies shutdown()

  ServingHost(const ServingHost&) = delete;
  ServingHost& operator=(const ServingHost&) = delete;

  /// Registers a model under `name` (its PlanCache identity — include the
  /// hyperparameters and weight version, e.g. api::Model::cache_identity()).
  /// Builds the model once to capture the initial weight snapshot. Throws on
  /// duplicate names and after shutdown().
  void register_model(const std::string& name, ModelBuilder builder,
                      ModelOptions opts = {});

  /// Blocking submit: waits for queue space under back-pressure. Throws
  /// triad::Error after shutdown(), for unknown models, and when the request
  /// is shed by admission control (Low priority, queue depth at threshold).
  std::future<InferenceResult> submit(const std::string& model,
                                      InferenceRequest request,
                                      Priority priority = Priority::Normal);

  /// Admission-controlled submit: never blocks, never throws on refusal.
  /// Shed and Rejected refusals are counted in the model's ServerStats;
  /// `out` is set only when Accepted.
  Admission try_submit(const std::string& model, InferenceRequest request,
                       Priority priority,
                       std::future<InferenceResult>* out);

  /// Rebuilds `model`'s weights from its registered builder (or `builder`,
  /// which also replaces the registered one for future plan compiles) and
  /// swaps them in atomically. The model's compiled plans stay valid — only
  /// the bound parameter payloads change. Throws (leaving the old weights
  /// serving) if the builder throws or the new parameters do not match the
  /// old shapes. The new builder must produce the same IR structure.
  void reload(const std::string& model);
  void reload(const std::string& model, ModelBuilder builder);

  /// Serves at most one ready batch on the calling thread (zero batching
  /// wait — only already-queued requests are collected). Returns false when
  /// no request was waiting. The workers = 0 test-driving path.
  bool pump();

  /// Stops accepting requests, serves everything already queued, joins the
  /// workers. Idempotent.
  void shutdown();

  ServerStats stats(const std::string& model) const;
  HostStats stats() const;
  std::vector<std::string> models() const;
  const HostConfig& config() const { return config_; }

 private:
  struct Pending {
    InferenceRequest request;
    std::promise<InferenceResult> promise;
    double submit_seconds = 0;  ///< on the host clock
    Priority priority = Priority::Normal;
  };

  struct Entry;
  struct Batch {
    Entry* entry = nullptr;
    std::vector<Pending> items;
  };

  Entry& entry(const std::string& model) const;
  Admission admit(const std::string& model, InferenceRequest request,
                  Priority priority, bool blocking,
                  std::future<InferenceResult>* out);
  /// Pops the next batch. Returns false when the host is closed and every
  /// queue is drained (worker exit). `blocking` waits for work and honors
  /// the effective max-wait; pump() passes false (zero-wait, at most one
  /// scan). On true, out->items may still be empty (nothing ready).
  bool collect(bool blocking, Batch* out);
  /// Releases the worker slot collect() claimed on the batch's model and
  /// wakes a waiter (one may have skipped the model at quota).
  void finish_batch(Entry& e);
  void do_reload(Entry& e, ModelBuilder builder, bool install_builder);
  void serve_batch(Entry& e, std::vector<Pending>& batch);
  void worker_loop();
  ServerStats snapshot(const Entry& e) const;

  const HostConfig config_;
  Timer clock_;  ///< host-lifetime clock; all timestamps are its seconds

  mutable std::mutex mu_;  ///< registry, work signal, round-robin cursor
  std::condition_variable work_cv_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
  std::size_t rr_next_ = 0;     ///< round-robin fairness across models
  std::size_t queued_hint_ = 0; ///< queued items across models (work signal)
  bool closed_ = false;

  std::vector<std::thread> workers_;
  std::mutex join_mu_;  ///< separate from mu_: workers take mu_ while running
  bool joined_ = false;
};

}  // namespace triad::serve
