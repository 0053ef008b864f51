// Shared pieces of the engine benchmark: command-line options, the metric
// report, sample statistics, the traced-run aggregator, the sequential
// floor kernels and the single-thread layer probes.
//
// The benchmark drives the engine only through its public headers; it adds
// no instrumentation to the engine. Per-layer numbers come from the
// counters the engine already returns, from the flight recorder's spans,
// and from probes that call public layer functions on the workload's own
// records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "record/record.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Dataset scale (1 = the sizes BENCHMARK.json documents); the smoke test
  /// uses a tiny scale.
  double scale = 1.0;
  /// Test hook: corrupts the reference the outputs are checked against, to
  /// prove that the correctness gate catches a mismatch.
  bool perturb_reference = false;
};

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MB (ru_maxrss).
double PeakRssMb();

/// Kernel CPU time and minor page faults of this process so far
/// (getrusage): the cost of memory the engine returns to the OS and
/// touches again.
struct ProcessUsage {
  double sys_ms = 0;
  int64_t minor_faults = 0;
};
ProcessUsage CurrentUsage();

/// Every metric and check of one run. The last line of output is one JSON
/// object with each metric's value and sample count; the runner script
/// (perfbench/run.py) attaches the units from BENCHMARK.json, prints every
/// metric by name and filters the contract's result line.
class Report {
 public:
  void Set(const std::string& name, double value, int64_t samples = 1);
  /// Records a correctness check; a failing check marks the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Operations the workload attempted / that failed or were wrong.
  void CountOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void SetSpansJson(std::string json) { spans_json_ = std::move(json); }
  bool correct() const { return correct_; }
  /// Prints the host fingerprint and the JSON line.
  void Print(const Options& options) const;

 private:
  struct Metric {
    double value = 0;
    int64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string spans_json_ = "{}";
};

// ---------------------------------------------------------------------------
// Traced-run aggregation.
// ---------------------------------------------------------------------------

/// Drains the flight recorder's per-thread rings (trace::Snapshot) on a
/// background thread, keeping each event once; the caller turns tracing on
/// and off (trace::SetEnabled) around the work it wants traced. The
/// rings hold 8,192 events per thread; a drain window in which a ring
/// lapped (its oldest returned event is newer than the previous drain's
/// newest) is counted in `lapped_windows` — each such window lost at least
/// one event.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Starts draining.
  void Start();
  /// Disables tracing, stops the drain thread and drains once more.
  void Stop();

  struct NameStats {
    int64_t count = 0;
    double total_ms = 0;  ///< summed span durations (0 for instants)
    double self_ms = 0;   ///< minus the time direct children cover
    bool instant = false;
  };
  /// Per span name: count, total and self time of everything collected.
  std::map<std::string, NameStats> Aggregate() const;
  /// Durations (ms) of every collected span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  int64_t lapped_windows() const { return lapped_windows_; }

 private:
  struct Event {
    int64_t ts = 0;
    int64_t dur = -1;  ///< < 0: instant
    uint32_t tid = 0;
    uint16_t name = 0;
  };
  void Drain();
  void Loop();

  std::vector<Event> events_;  // guarded by being touched only by Drain
  std::vector<std::string> names_;
  std::map<std::string, uint16_t> name_ids_;
  std::map<uint32_t, int64_t> watermark_;  ///< newest end seen per thread
  int64_t start_ns_ = 0;
  int64_t lapped_windows_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

/// Renders an aggregate as a JSON object keyed by span name.
std::string SpansJson(const std::map<std::string, TraceCollector::NameStats>&
                          spans);

// ---------------------------------------------------------------------------
// Hardware floor: sequential kernels on the workload's own CSR graph.
// ---------------------------------------------------------------------------

struct FloorTimes {
  double csr_iter_ms = 0;
  double cc_ms = 0;
};
/// Times the floor kernels on `graph` (medians over a few repetitions): one
/// single-thread push-style PageRank iteration over the CSR adjacency, and
/// connected components by sequential union-find.
FloorTimes MeasureFloor(const sfdf::Graph& graph);

// ---------------------------------------------------------------------------
// Single-thread layer probes on the workload's own records.
// ---------------------------------------------------------------------------

struct ProbeTimes {
  double hash_build_ns = 0;  ///< JoinHashTable::Insert, per record
  double hash_probe_ns = 0;  ///< JoinHashTable::Probe, per probe record
  double sort_ns = 0;        ///< SortByKey, per record
  double exchange_ns = 0;    ///< OutputPort::Send → Exchange drain, per record
  double serde_ns = 0;       ///< SerializeBatch, per record
  double frame_ns = 0;       ///< EncodeFrame + FrameDecoder, per frame
};
/// `build` is hashed on `build_key_field`, `probe` probes with its field 0.
/// `edges` supplies the single-edge mutation frames for the frame probe.
ProbeTimes MeasureProbes(const std::vector<sfdf::Record>& build,
                         int build_key_field,
                         const std::vector<sfdf::Record>& probe,
                         const std::vector<std::pair<int64_t, int64_t>>& edges);

// ---------------------------------------------------------------------------
// Per-layer metrics.
// ---------------------------------------------------------------------------

/// The per-layer metrics a workload measures, by name. BENCHMARK.json holds
/// their units; the layer table in perfbench/layers.json says which
/// workload should move which. Batch workloads report counters and span
/// times per job; serve-cc-net reports them per second of open loop.
class Layers {
 public:
  void Set(const std::string& name, double value);
  void Add(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// Copies every metric (or only those named in `only`) into the report.
  void ReportTo(Report* report, int64_t samples,
                const std::vector<std::string>& only = {}) const;
  /// Fills the span-derived metrics (engine.busy_ms, superstep.*,
  /// service.*, gateway.*) from an aggregate, divided by `per`.
  void SetSpanMetrics(
      const std::map<std::string, TraceCollector::NameStats>& spans,
      double per);
  /// Kernel time and page faults between two usage samples, divided by
  /// `per`.
  void SetUsage(const ProcessUsage& before, const ProcessUsage& after,
                double per);
  void SetProbes(const ProbeTimes& probes);
  void SetFloor(const FloorTimes& floor, double step_p50_ms);

 private:
  std::map<std::string, double> metrics_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

int RunPageRankBulk(const Options& options, Report* report);
int RunCcWorkset(const Options& options, Report* report);
int RunServeCcNet(const Options& options, Report* report);

}  // namespace perfbench
