#include "support/counters.h"

#include <array>
#include <cstdio>

namespace triad {

PerfCounters& global_counters() {
  // Thread-local: kernels charge analytically on the calling thread (never
  // inside parallel_for workers), so each request thread owns its ledger and
  // concurrent PlanRunners neither race nor pollute each other's deltas.
  thread_local PerfCounters counters;
  return counters;
}

std::string human_bytes(std::uint64_t bytes) {
  static const std::array<const char*, 5> units = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t u = 0;
  while (v >= 1024.0 && u + 1 < units.size()) {
    v /= 1024.0;
    ++u;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f %s", v, units[u]);
  return buf;
}

std::string human_count(std::uint64_t n) {
  static const std::array<const char*, 4> units = {"", "K", "M", "G"};
  double v = static_cast<double>(n);
  std::size_t u = 0;
  while (v >= 1000.0 && u + 1 < units.size()) {
    v /= 1000.0;
    ++u;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f%s", v, units[u]);
  return buf;
}

std::string PerfCounters::to_string() const {
  return "io=" + human_bytes(io_bytes()) + " (r=" + human_bytes(dram_read_bytes) +
         " w=" + human_bytes(dram_write_bytes) + ") flops=" + human_count(flops) +
         " atomics=" + human_count(atomic_ops) +
         " kernels=" + std::to_string(kernel_launches) +
         " onchip=" + human_bytes(onchip_bytes) +
         " combine=" + human_bytes(combine_bytes) +
         " passes=" + std::to_string(ir_passes) +
         " rewrites=" + std::to_string(graph_rewrites) +
         " plans=" + std::to_string(plan_compiles) +
         " spec_edges=" + human_count(specialized_edges()) +
         " (fwd=" + human_count(specialized_fwd_edges) +
         " bwd=" + human_count(specialized_bwd_edges) + ")" +
         " interp_edges=" + human_count(interpreted_edges()) +
         " (fwd=" + human_count(interpreted_fwd_edges) +
         " bwd=" + human_count(interpreted_bwd_edges) + ")" +
         " walk=" + human_count(walk_ns) + "ns" +
         " comb=" + human_count(combine_ns) + "ns" +
         " stash=" + human_bytes(boundary_stash_bytes) +
         " stash_saved=" + human_bytes(boundary_stash_saved_bytes) +
         " tx_msgs=" + std::to_string(transport_msgs) +
         " tx=" + human_bytes(transport_bytes) +
         " push=" + human_bytes(param_push_bytes) +
         " pull=" + human_bytes(param_pull_bytes);
}

}  // namespace triad
