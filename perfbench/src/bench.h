// Shared pieces of the benchmark program: run arguments, the in-memory span
// tracer, and a minimal JSON writer for the raw result the Python front end
// (perfbench/run.py) turns into metrics.
//
// The benchmark measures the library from the outside: spans are recorded
// around calls into public functions (Model::compiled, PlanRunner::run_*,
// ops::softmax_cross_entropy, ParamServer::push_grads/pull_params,
// serve::collate/decollate, ServingHost::try_submit), and counts come from
// PerfCounters deltas read through CounterScope. Nothing here changes what the
// library does.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured-phase budget for the whole run
  bool trace = false;   ///< record spans (a separate, traced run)
  std::string out;      ///< where the raw JSON result goes
};

/// Nanoseconds on the steady clock since the first call in this process.
inline std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              origin)
      .count();
}

/// One recorded interval. `parent` indexes the enclosing span on the same
/// thread (-1 for a root); `thread` is a small per-thread number.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int thread = 0;
};

/// Keeps spans in memory until the run ends. Disabled, it records nothing and
/// a Span costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  int begin(const char* name) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    ThreadState& ts = state();
    spans_.push_back({name, t, t, ts.open.empty() ? -1 : ts.open.back(),
                      ts.number});
    const int id = static_cast<int>(spans_.size()) - 1;
    ts.open.push_back(id);
    return id;
  }

  void end(int id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    ThreadState& ts = state();
    if (!ts.open.empty() && ts.open.back() == id) ts.open.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  struct ThreadState {
    int number = 0;
    std::vector<int> open;  ///< stack of open span ids on this thread
  };

  // Called with mu_ held.
  ThreadState& state() {
    const std::thread::id me = std::this_thread::get_id();
    for (auto& [id, ts] : threads_) {
      if (id == me) return ts;
    }
    threads_.push_back({me, ThreadState{static_cast<int>(threads_.size()), {}}});
    return threads_.back().second;
  }

  const bool enabled_;
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::pair<std::thread::id, ThreadState>> threads_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const int id_;
};

/// Append-only JSON text builder. Commas are inserted automatically; keys are
/// trusted identifiers (no escaping needed).
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const char* k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    out_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }

  template <typename T>
  Json& field(const char* k, const T& v) {
    return key(k).value(v);
  }
  Json& field(const char* k, const std::vector<double>& v) {
    key(k).begin_array();
    for (const double x : v) value(x);
    return end_array();
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ", ";
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

/// Writes the tracer's spans as a "spans" array of the result object.
inline void write_spans(Json& j, const Tracer& tracer) {
  j.key("spans").begin_array();
  for (const SpanRecord& s : tracer.spans()) {
    j.begin_object()
        .field("name", s.name)
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .field("parent", s.parent)
        .field("thread", s.thread)
        .end_object();
  }
  j.end_array();
}

/// A named correctness check with a one-line detail for the report.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

inline void write_checks(Json& j, const std::vector<Check>& checks) {
  j.key("checks").begin_array();
  for (const Check& c : checks) {
    j.begin_object()
        .field("name", c.name)
        .field("ok", c.ok)
        .field("detail", c.detail)
        .end_object();
  }
  j.end_array();
}

/// The two workload families. Each appends its fields to the open result
/// object `j` (between begin_object and end_object, done by main).
void run_train(const Args& args, Json& j);
void run_serve(const Args& args, Json& j);

}  // namespace perfbench
