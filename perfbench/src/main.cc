// triad_perfbench: runs one benchmark workload and writes its raw result.
//
//   triad_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//
// Workloads: train-edgeconv-knn, train-gat-rmat-k3, serve-mix-openloop.
// The raw result (per-step samples, counters, spans, correctness checks) is
// one JSON object in FILE; perfbench/run.py turns it into metrics. Exit code
// 2 means bad arguments, 1 an exception inside the run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "support/parallel.h"

namespace {

bool parse(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      a->workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a->seconds = std::atof(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a->trace = std::atoi(v) != 0;
    } else if (std::strcmp(flag, "--out") == 0) {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty() &&
         a->seconds > 0;
}

/// Pool threads per workload, within a 4-core host. EdgeConv computes on all
/// four. The K = 3 GAT gets one per shard, leaving a core free (a fourth
/// thread measured no faster). Serving runs each batch on its worker's own
/// thread, so two workers and the load generator fit beside each other.
unsigned pool_threads(const std::string& workload) {
  const unsigned cores =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  if (workload == "serve-mix-openloop") return 1;
  if (workload == "train-gat-rmat-k3") return std::min(3u, cores);
  return cores;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out FILE\n",
                 argv[0]);
    return 2;
  }
  triad::set_global_pool_threads(pool_threads(args.workload));

  perfbench::Json j;
  j.begin_object()
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("trace", args.trace);
  try {
    if (args.workload == "train-edgeconv-knn" ||
        args.workload == "train-gat-rmat-k3") {
      perfbench::run_train(args, j);
    } else if (args.workload == "serve-mix-openloop") {
      perfbench::run_serve(args, j);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  j.end_object();

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  const std::string& text = j.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok ? 0 : 1;
}
