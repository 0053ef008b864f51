// perfbench: one workload of the engine benchmark per invocation.
//
//   perfbench --workload <pagerank-bulk|cc-workset|serve-cc-net>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--perturb-reference]
//
// Prints the host fingerprint and every check, then one JSON line with every
// metric's value and sample count (perfbench/run.py attaches the units from
// BENCHMARK.json). Exits non-zero when an output differs from its reference
// or the serving latency limit is missed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pagerank-bulk|cc-workset|serve-cc-net> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] "
               "[--perturb-reference]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perturb-reference") {
      options.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (arg == "--scale") {
      options.scale = std::strtod(value, &end);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  if (!(options.seconds > 0) || options.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (!(options.scale > 0) || options.scale > 4) {
    return Usage("--scale must be in (0, 4]");
  }

  perfbench::Report report;
  int code = 0;
  if (options.workload == "pagerank-bulk") {
    code = perfbench::RunPageRankBulk(options, &report);
  } else if (options.workload == "cc-workset") {
    code = perfbench::RunCcWorkset(options, &report);
  } else if (options.workload == "serve-cc-net") {
    code = perfbench::RunServeCcNet(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  report.Print(options);
  return code;
}
