#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ProcessUsage CurrentUsage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return ProcessUsage{static_cast<double>(usage.ru_stime.tv_sec) * 1e3 +
                          static_cast<double>(usage.ru_stime.tv_usec) / 1e3,
                      static_cast<int64_t>(usage.ru_minflt)};
}

void Report::Set(const std::string& name, double value, int64_t samples) {
  metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, samples};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.emplace_back(name, ok);
  if (!ok) correct_ = false;
  std::printf("check %-28s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void Report::Print(const Options& options) const {
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string compiler = JsonEscape(__VERSION__);
  std::printf("host nproc=%u compiler=\"%s\" build_type=%s seed=%llu "
              "workload=%s scale=%g trace=%d\n",
              nproc, compiler.c_str(), PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(options.seed),
              options.workload.c_str(), options.scale,
              options.trace ? 1 : 0);
  std::string json = "{\"correct\": ";
  json += correct_ && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buffer[128];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buffer +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}, \"checks\": {";
  first = true;
  for (const auto& [name, ok] : checks_) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": " + (ok ? "true" : "false");
  }
  json += "}, \"host\": {\"nproc\": " + std::to_string(nproc) +
          ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" +
          PERFBENCH_BUILD_TYPE + "\", \"seed\": " +
          std::to_string(options.seed) + "}";
  json += ", \"spans\": " + spans_json_ + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
