/// \file
/// Open-loop load generation against a ServingHost.
///
/// Closed-loop clients (submit, wait, submit again) hide overload: the
/// arrival rate degrades with the server, so tail latency looks flat right up
/// to collapse. The open-loop generator does what real traffic does — it
/// draws seeded Poisson arrivals (exponential inter-arrival times) and fires
/// each request at its scheduled instant whether or not earlier ones have
/// completed, so queueing delay and admission-control behaviour actually show
/// up in the measurements.
///
/// Traffic shape: a weighted model mix (each class carries its own pool of
/// request templates, typically of mixed graph sizes, sampled uniformly) and
/// a priority mix. Everything is driven by one seeded Rng, so a (spec,
/// classes) pair replays the identical request/model/priority sequence —
/// arrival *timestamps* are wall-clock, but the decision sequence is
/// deterministic.
///
/// Each request is timed from its scheduled (due) instant, not from the
/// moment it was handed to the host: latency = send lag + the host's own
/// submit-to-result latency. A generator that falls behind its schedule
/// would otherwise drop its own lag from every measurement (coordinated
/// omission) and report a tail the offered load never saw.
///
/// The report is goodput-first: a request only counts as "good" when it
/// completed within the SLO. bench_serving_slo.cc turns one of these into a
/// BENCH JSON row; tests/test_serving_slo.cc checks the identities
/// (offered = accepted + shed + rejected, accepted = completed + failed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/host.h"
#include "support/histogram.h"

namespace triad::serve {

/// One model's slice of the traffic mix.
struct TrafficClass {
  std::string model;   ///< must be registered with the host
  double weight = 1;   ///< mix probability, normalised over all classes
  /// Request templates sampled uniformly per arrival (mix graph sizes here).
  std::vector<InferenceRequest> requests;
};

/// The offered-load schedule.
struct LoadSpec {
  double rate_rps = 500;      ///< aggregate Poisson arrival rate
  int total_requests = 256;   ///< arrivals to schedule
  std::uint64_t seed = 1;     ///< drives arrivals, model mix, priority mix
  double slo_seconds = 0.01;  ///< goodput threshold on per-request latency
  /// Priority mix: P(High) = high_fraction, P(Low) = low_fraction, the rest
  /// Normal. Low is the class admission control may shed.
  double high_fraction = 0.0;
  double low_fraction = 0.0;
};

/// Per-model slice of a load run.
struct LoadModelReport {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;      ///< admission control (Low priority)
  std::uint64_t rejected = 0;  ///< queue full
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< future resolved with an exception
  std::uint64_t good = 0;    ///< completed within the SLO
  LatencyHistogram::Snapshot latency;  ///< due instant -> result ready
};

/// Whole-run result. The identities the tests pin down:
///   offered  = accepted + shed + rejected
///   accepted = completed + failed
struct LoadReport {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t good = 0;
  double wall_seconds = 0;  ///< first scheduled arrival -> last completion
  double slo_seconds = 0;
  /// Per offered arrival: how late the generator handed it to the host
  /// (actual send instant - due instant). Part of every request's latency.
  LatencyHistogram::Snapshot send_lag;
  std::map<std::string, LoadModelReport> models;

  double goodput_rps() const {
    return wall_seconds > 0 ? static_cast<double>(good) / wall_seconds : 0;
  }
  double offered_rps() const {
    return wall_seconds > 0 ? static_cast<double>(offered) / wall_seconds : 0;
  }
};

/// Runs the open-loop schedule against `host` on the calling thread and
/// blocks until every accepted request resolved. Submissions use try_submit —
/// an open-loop client never blocks on back-pressure; refused arrivals are
/// counted and dropped. Requires a host with workers > 0.
LoadReport run_open_loop(ServingHost& host,
                         const std::vector<TrafficClass>& classes,
                         const LoadSpec& spec);

}  // namespace triad::serve
