#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

// Drain period and the ring capacity (obs/trace.cc). A thread would have to
// record more than kRing events per period (≈160k events/s) before a drain
// misses any; such a window is counted as lapped.
constexpr auto kDrainPeriod = std::chrono::milliseconds(50);
constexpr size_t kRing = 8192;

}  // namespace

TraceCollector::TraceCollector() = default;

TraceCollector::~TraceCollector() { Stop(); }

void TraceCollector::Start() {
  start_ns_ = sfdf::trace::NowNs();
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
}

void TraceCollector::Stop() {
  if (!running_.exchange(false)) return;
  sfdf::trace::SetEnabled(false);
  thread_.join();
  Drain();
}

void TraceCollector::Loop() {
  auto next = std::chrono::steady_clock::now();
  while (running_.load()) {
    next += kDrainPeriod;
    std::this_thread::sleep_until(next);
    Drain();
  }
}

void TraceCollector::Drain() {
  const std::vector<sfdf::trace::TraceEvent> snapshot =
      sfdf::trace::Snapshot();
  // A ring's events are written in end-time order, so everything newer than
  // the thread's watermark is new; an old event is never returned twice.
  std::map<uint32_t, int64_t> oldest;
  std::map<uint32_t, size_t> returned;
  std::map<uint32_t, int64_t> newest;
  for (const sfdf::trace::TraceEvent& e : snapshot) {
    const int64_t end = e.ts_ns + std::max<int64_t>(e.dur_ns, 0);
    auto [it, fresh] = oldest.emplace(e.tid, end);
    if (!fresh) it->second = std::min(it->second, end);
    returned[e.tid] += 1;
    auto mark = watermark_.find(e.tid);
    const int64_t floor = mark == watermark_.end() ? start_ns_ : mark->second;
    if (end <= floor) continue;
    auto [nit, nfresh] = newest.emplace(e.tid, end);
    if (!nfresh) nit->second = std::max(nit->second, end);
    auto [id_it, added] =
        name_ids_.emplace(e.name, static_cast<uint16_t>(names_.size()));
    if (added) names_.push_back(e.name);
    events_.push_back(Event{e.ts_ns, e.dur_ns, e.tid, id_it->second});
  }
  for (const auto& [tid, count] : returned) {
    auto mark = watermark_.find(tid);
    const int64_t floor = mark == watermark_.end() ? start_ns_ : mark->second;
    if (count >= kRing && oldest[tid] > floor) ++lapped_windows_;
  }
  for (const auto& [tid, end] : newest) watermark_[tid] = end;
}

std::map<std::string, TraceCollector::NameStats> TraceCollector::Aggregate()
    const {
  std::map<uint32_t, std::vector<const Event*>> by_thread;
  for (const Event& e : events_) by_thread[e.tid].push_back(&e);
  std::vector<NameStats> stats(names_.size());
  for (auto& [tid, list] : by_thread) {
    // Outer spans first: earlier start, then longer duration.
    std::sort(list.begin(), list.end(), [](const Event* a, const Event* b) {
      if (a->ts != b->ts) return a->ts < b->ts;
      return a->dur > b->dur;
    });
    struct Open {
      int64_t end;
      size_t name;
      int64_t child_ns;
      int64_t dur;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& open) {
      stats[open.name].self_ms +=
          static_cast<double>(open.dur - open.child_ns) / 1e6;
    };
    for (const Event* e : list) {
      NameStats& s = stats[e->name];
      s.count += 1;
      if (e->dur < 0) {
        s.instant = true;
        continue;
      }
      s.total_ms += static_cast<double>(e->dur) / 1e6;
      const int64_t end = e->ts + e->dur;
      while (!stack.empty() && stack.back().end <= e->ts) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty() && end <= stack.back().end) {
        stack.back().child_ns += e->dur;
      } else {
        // Not nested in the open span (overlap without containment cannot
        // happen on one thread): treat the open spans as finished.
        while (!stack.empty()) {
          close(stack.back());
          stack.pop_back();
        }
      }
      stack.push_back(Open{end, e->name, 0, e->dur});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < names_.size(); ++i) out[names_[i]] = stats[i];
  return out;
}

std::vector<double> TraceCollector::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  auto id = name_ids_.find(name);
  if (id == name_ids_.end()) return out;
  for (const Event& e : events_) {
    if (e.name == id->second && e.dur >= 0) {
      out.push_back(static_cast<double>(e.dur) / 1e6);
    }
  }
  return out;
}

std::string SpansJson(
    const std::map<std::string, TraceCollector::NameStats>& spans) {
  std::string json = "{";
  char buffer[256];
  bool first = true;
  for (const auto& [name, s] : spans) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"count\": %lld, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f, \"instant\": %s}",
                  first ? "" : ", ", name.c_str(),
                  static_cast<long long>(s.count), s.total_ms, s.self_ms,
                  s.instant ? "true" : "false");
    json += buffer;
    first = false;
  }
  return json + "}";
}

}  // namespace perfbench
