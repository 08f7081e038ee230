// perfbench: runs one named workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --duetd PATH
//             [--spans PATH]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric the run measured, with its unit (the per-layer ones only with
// --trace 1). run.py picks the set BENCHMARK.json names. The exit code is
// non-zero when a correctness gate failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_stateful|serve_fast_tier|churn_live"
               " --seed N --seconds S --trace 0|1 --duetd PATH [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--duetd") {
      args.duetd = value;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  std::printf("%s\n", machine_line().c_str());
  std::fflush(stdout);

  if (args.workload != "serve_stateful" && args.workload != "serve_fast_tier" &&
      args.workload != "churn_live") {
    return usage();
  }
  if (args.duetd.empty()) return usage();
  Result result;
  run_serving(args, result);
  if (args.trace && args.workload == "churn_live") {
    RunArgs ctl = args;
    if (!ctl.spans_path.empty()) {
      if (ctl.spans_path.ends_with(".json")) ctl.spans_path.resize(ctl.spans_path.size() - 5);
      ctl.spans_path += "-controller.json";
    }
    run_controller_layers(ctl, result);
  }

  print_result_line(result);
  return result.correct ? 0 : 1;
}
