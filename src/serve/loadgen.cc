#include "serve/loadgen.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "support/macros.h"
#include "support/rng.h"
#include "support/timer.h"

namespace triad::serve {

namespace {

/// One scheduled arrival, fully decided up front so the decision sequence is
/// a pure function of the seed.
struct Arrival {
  double at_seconds = 0;  ///< offset from the schedule start
  std::size_t klass = 0;
  std::size_t request = 0;
  Priority priority = Priority::Normal;
};

Priority draw_priority(Rng& rng, const LoadSpec& spec) {
  const double u = rng.uniform();
  if (u < spec.high_fraction) return Priority::High;
  if (u < spec.high_fraction + spec.low_fraction) return Priority::Low;
  return Priority::Normal;
}

}  // namespace

LoadReport run_open_loop(ServingHost& host,
                         const std::vector<TrafficClass>& classes,
                         const LoadSpec& spec) {
  TRIAD_CHECK(!classes.empty(), "loadgen: no traffic classes");
  TRIAD_CHECK(spec.rate_rps > 0, "loadgen: rate_rps must be positive");
  double total_weight = 0;
  for (const TrafficClass& c : classes) {
    TRIAD_CHECK(!c.requests.empty(),
                "loadgen: class '" << c.model << "' has no request templates");
    TRIAD_CHECK(c.weight > 0,
                "loadgen: class '" << c.model << "' needs a positive weight");
    total_weight += c.weight;
  }

  // Decide the whole schedule before firing anything: arrivals, model mix and
  // priority mix come from one seeded stream, so the sequence replays exactly
  // for a given (spec, classes) pair.
  Rng rng(spec.seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(std::max(0, spec.total_requests)));
  double t = 0;
  for (int i = 0; i < spec.total_requests; ++i) {
    // Exponential inter-arrival: -ln(U)/rate, U in (0, 1].
    const double u = std::max(rng.uniform(), 1e-12);
    t += -std::log(u) / spec.rate_rps;
    Arrival a;
    a.at_seconds = t;
    double pick = rng.uniform() * total_weight;
    for (std::size_t k = 0; k < classes.size(); ++k) {
      pick -= classes[k].weight;
      if (pick <= 0 || k + 1 == classes.size()) {
        a.klass = k;
        break;
      }
    }
    a.request = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(classes[a.klass].requests.size())));
    a.priority = draw_priority(rng, spec);
    schedule.push_back(a);
  }

  struct InFlight {
    std::future<InferenceResult> future;
    std::size_t klass = 0;
    double lag = 0;  ///< seconds the submission ran behind its due instant
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(schedule.size());

  LoadReport report;
  report.slo_seconds = spec.slo_seconds;
  for (const TrafficClass& c : classes) report.models.emplace(c.model, LoadModelReport{});

  // Open loop: fire each arrival at its scheduled instant, never waiting on
  // completions. sleep_until self-corrects — a slow submission does not delay
  // the rest of the schedule beyond its own overrun — but an overrun still
  // delays that request, so its lag is charged to its latency below.
  using clock = std::chrono::steady_clock;
  Timer wall;
  LatencyHistogram send_lag;
  const auto start = clock::now();
  for (const Arrival& a : schedule) {
    const auto due = start + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double>(a.at_seconds));
    std::this_thread::sleep_until(due);
    // sleep_until returns no earlier than `due`, so the lag is never negative.
    const double lag = std::chrono::duration<double>(clock::now() - due).count();
    send_lag.record(lag);
    const TrafficClass& c = classes[a.klass];
    LoadModelReport& m = report.models[c.model];
    ++report.offered;
    ++m.offered;
    std::future<InferenceResult> fut;
    switch (host.try_submit(c.model, c.requests[a.request], a.priority, &fut)) {
      case Admission::Accepted:
        ++report.accepted;
        ++m.accepted;
        in_flight.push_back({std::move(fut), a.klass, lag});
        break;
      case Admission::Shed:
        ++report.shed;
        ++m.shed;
        break;
      case Admission::Rejected:
      case Admission::Closed:
      default:
        ++report.rejected;
        ++m.rejected;
        break;
    }
  }

  // Drain. Latency percentiles are computed from the futures (client view:
  // due instant -> result ready), per model; the host's own histograms
  // (submit -> result ready) remain available via stats().
  std::map<std::string, LatencyHistogram> latencies;
  for (InFlight& f : in_flight) {
    const std::string& model = classes[f.klass].model;
    LoadModelReport& m = report.models[model];
    try {
      const double latency = f.lag + f.future.get().latency_seconds;
      ++report.completed;
      ++m.completed;
      if (latency <= spec.slo_seconds) {
        ++report.good;
        ++m.good;
      }
      latencies[model].record(latency);
    } catch (...) {
      ++report.failed;
      ++m.failed;
    }
  }
  report.wall_seconds = wall.seconds();
  report.send_lag = send_lag.snapshot();
  for (auto& [model, hist] : latencies) {
    report.models[model].latency = hist.snapshot();
  }
  return report;
}

}  // namespace triad::serve
