// The benchmark's workloads. Each fills a Result with every metric it
// measured, and only those: a metric with no sample is left out, never set
// to 0. The per-layer metrics are measured only in the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string duetd;       // path of the duetd binary under test
  std::string spans_path;  // where the traced run writes its spans
};

// serve_stateful, serve_fast_tier, churn_live: duetd driven over loopback.
void run_serving(const RunArgs& args, Result& result);
// churn_live's traced run also times the control-plane layers on an
// in-process PersistentController at medium scale. Adds to `result`'s
// attempted and failed counts and sets per-layer metrics only.
void run_controller_layers(const RunArgs& args, Result& result);

}  // namespace perfbench
