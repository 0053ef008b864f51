#include <algorithm>

#include "bench.h"

namespace perfbench {

void Layers::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Layers::Add(const std::string& name, double value) {
  Set(name, Get(name) + value);
}

double Layers::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Layers::ReportTo(Report* report, int64_t samples,
                      const std::vector<std::string>& only) const {
  for (const auto& [name, value] : metrics_) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), name) == only.end()) {
      continue;
    }
    report->Set(name, value, samples);
  }
}

void Layers::SetSpanMetrics(
    const std::map<std::string, TraceCollector::NameStats>& spans,
    double per) {
  auto stat = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? TraceCollector::NameStats{} : it->second;
  };
  Set("engine.busy_ms", stat("engine.task").total_ms / per);
  Set("superstep.wave_self_ms", stat("superstep.wave").self_ms / per);
  Set("superstep.decide_self_ms", stat("superstep.decide").self_ms / per);
  Set("superstep.flips", static_cast<double>(stat("superstep.flip").count) / per);
  Set("service.admits", static_cast<double>(stat("service.admit").count) / per);
  Set("service.round_self_ms", stat("service.round").self_ms / per);
  Set("service.epoch_commits",
      static_cast<double>(stat("service.epoch.commit").count) / per);
  Set("gateway.request_self_ms", stat("gateway.request").self_ms / per);
}

void Layers::SetUsage(const ProcessUsage& before, const ProcessUsage& after,
                      double per) {
  Set("os.sys_ms", (after.sys_ms - before.sys_ms) / per);
  Set("os.minor_faults",
      static_cast<double>(after.minor_faults - before.minor_faults) / per);
}

void Layers::SetProbes(const ProbeTimes& probes) {
  Set("probe.hash_build_ns", probes.hash_build_ns);
  Set("probe.hash_probe_ns", probes.hash_probe_ns);
  Set("probe.sort_ns", probes.sort_ns);
  Set("probe.exchange_ns", probes.exchange_ns);
  Set("probe.serde_ns", probes.serde_ns);
  Set("probe.frame_ns", probes.frame_ns);
}

void Layers::SetFloor(const FloorTimes& floor, double step_p50_ms) {
  Set("floor.csr_iter_ms", floor.csr_iter_ms);
  Set("floor.cc_ms", floor.cc_ms);
  Set("floor.ratio",
      floor.csr_iter_ms > 0 ? step_p50_ms / floor.csr_iter_ms : 0.0);
}

}  // namespace perfbench
