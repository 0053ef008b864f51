// The two batch workloads: dense bulk PageRank and sparse workset CC. Both
// run the engine's public entry point (RunPageRank / RunConnectedComponents)
// back to back for the measured time, check every output against the
// sequential reference, and take per-layer numbers from the counters each
// ExecutionResult carries plus, in the traced run, the flight recorder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "bench.h"
#include "graph/generators.h"
#include "graph/union_find.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

using sfdf::ExecutionResult;
using sfdf::Graph;
using sfdf::Record;

/// Set-ups before and after the timed jobs.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 2;

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

uint64_t GraphSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

struct JobRun {
  sfdf::Status status;
  double wall_ms = 0;
  ExecutionResult exec;
  int64_t mismatches = 0;  ///< outputs that differ from the reference
};

/// One timed call of the workload's entry point on the prepared graph.
using JobFn = std::function<JobRun()>;

struct BatchSpec {
  const char* job_span;
  std::function<Graph()> generate;
  /// Returns the job on `graph`; when `check`, builds the reference first
  /// (corrupted when `perturb`) and counts mismatches against it.
  std::function<JobFn(const Graph& graph, bool check, bool perturb)> make_job;
  /// Records for the layer probes: `build` hashed on `key`, `probe` probing.
  std::function<void(const Graph&, std::vector<Record>* build, int* key,
                     std::vector<Record>* probe)>
      probe_records;
};

template <typename Fn>
void ForEachSuperstep(const ExecutionResult& exec, Fn&& fn) {
  for (const auto& report : exec.bulk_reports) {
    for (const auto& s : report.supersteps) fn(s);
  }
  for (const auto& report : exec.workset_reports) {
    for (const auto& s : report.supersteps) fn(s);
  }
}

struct Phase {
  std::vector<JobRun> plain;
  std::vector<JobRun> traced;
};

/// Runs jobs back to back for `seconds` (at least three of each kind).
/// With `alternate`, every other job runs with the flight recorder on, so
/// the traced and untraced jobs interleave under the same conditions.
Phase RunPhase(const JobFn& job, double seconds, bool alternate,
               uint16_t span_name) {
  Phase phase;
  const int64_t start = NowNs();
  for (int i = 0; phase.plain.size() < 3 ||
                  (alternate && phase.traced.size() < 3) ||
                  static_cast<double>(NowNs() - start) < seconds * 1e9;
       ++i) {
    const bool traced = alternate && i % 2 == 1;
    sfdf::trace::SetEnabled(traced);
    JobRun run;
    {
      sfdf::trace::Span span(span_name);
      run = job();
    }
    sfdf::trace::SetEnabled(false);
    (traced ? phase.traced : phase.plain).push_back(std::move(run));
  }
  return phase;
}

std::vector<std::pair<int64_t, int64_t>> Arcs(const Graph& graph) {
  std::vector<std::pair<int64_t, int64_t>> arcs;
  for (int64_t u = 0; u < graph.num_vertices(); ++u) {
    for (const int64_t* v = graph.NeighborsBegin(u);
         v != graph.NeighborsEnd(u); ++v) {
      arcs.emplace_back(u, *v);
    }
  }
  return arcs;
}

void ReportLayers(const std::vector<JobRun>& runs,
                  const TraceCollector& collector, Layers* layers) {
  const double jobs = static_cast<double>(runs.size());
  std::vector<double> prep;
  std::vector<double> run_ms;
  std::vector<double> first;
  std::vector<double> walls;
  double steps = 0;
  double step_ms = 0;
  double queue_wait_max = 0;
  double depth_hw = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  int workers = 1;
  for (const JobRun& run : runs) {
    const ExecutionResult& e = run.exec;
    walls.push_back(run.wall_ms);
    prep.push_back(run.wall_ms - e.total_millis);
    run_ms.push_back(e.total_millis);
    bool first_seen = false;
    ForEachSuperstep(e, [&](const sfdf::SuperstepStats& s) {
      if (!first_seen) first.push_back(s.millis);
      first_seen = true;
      steps += 1;
      step_ms += s.millis;
      layers->Add("solution.lookups", static_cast<double>(s.solution_lookups));
      layers->Add("solution.applied", static_cast<double>(s.delta_applied));
      layers->Add("solution.discarded",
                  static_cast<double>(s.delta_discarded));
      layers->Add("workset.records", static_cast<double>(s.workset_size));
    });
    layers->Add("engine.tasks", static_cast<double>(e.engine_tasks));
    layers->Add("engine.queue_wait_ms",
                static_cast<double>(e.engine_queue_wait_ns_total) / 1e6);
    queue_wait_max = std::max(
        queue_wait_max, static_cast<double>(e.engine_queue_wait_ns_max) / 1e6);
    layers->Add("engine.parks", static_cast<double>(e.engine_parks));
    layers->Add("engine.wakes", static_cast<double>(e.engine_wakes));
    layers->Add("exchange.records", static_cast<double>(e.records_shipped));
    layers->Add("exchange.remote_records",
                static_cast<double>(e.records_remote));
    layers->Add("exchange.bytes", static_cast<double>(e.bytes_shipped));
    layers->Add("exchange.combined", static_cast<double>(e.records_combined));
    depth_hw = std::max(depth_hw, static_cast<double>(e.queue_depth_high_water));
    pool_hits += static_cast<double>(e.batch_pool_hits);
    pool_misses += static_cast<double>(e.batch_pool_misses);
    workers = std::max(workers, e.engine_workers);
  }
  // Counters are per job.
  for (const char* name :
       {"solution.lookups", "solution.applied", "solution.discarded",
        "workset.records", "engine.tasks", "engine.queue_wait_ms",
        "engine.parks", "engine.wakes", "exchange.records",
        "exchange.remote_records", "exchange.bytes", "exchange.combined"}) {
    layers->Set(name, layers->Get(name) / jobs);
  }
  layers->Set("plan.prep_ms", Median(prep));
  layers->Set("executor.run_ms", Median(run_ms));
  layers->Set("superstep.count", steps / jobs);
  layers->Set("superstep.first_ms", Median(first));
  layers->Set("engine.queue_wait_max_ms", queue_wait_max);
  const double records = layers->Get("exchange.records");
  const double combined = layers->Get("exchange.combined");
  layers->Set("exchange.bytes_per_record",
              records > 0 ? layers->Get("exchange.bytes") / records : 0);
  layers->Set("exchange.combine_ratio",
              records + combined > 0 ? combined / (records + combined) : 0);
  layers->Set("exchange.depth_hw", depth_hw);
  layers->Set("exchange.pool_hit_ratio",
              pool_hits + pool_misses > 0
                  ? pool_hits / (pool_hits + pool_misses)
                  : 0);
  const double applied = layers->Get("solution.applied");
  const double discarded = layers->Get("solution.discarded");
  layers->Set("solution.apply_ratio", applied + discarded > 0
                                          ? applied / (applied + discarded)
                                          : 0);

  layers->SetSpanMetrics(collector.Aggregate(), jobs);
  const double busy_ms = layers->Get("engine.busy_ms");
  const double wall_ms = Median(walls);
  layers->Set("engine.util", busy_ms / (wall_ms * workers));
  // The part of a superstep in which the average worker ran no task:
  // barrier, scheduling and coordination time.
  const double steps_per_job = steps / jobs;
  const double idle_ms = step_ms / jobs - busy_ms / workers;
  layers->Set("superstep.sync_us_per_step",
              steps_per_job > 0 ? std::max(0.0, idle_ms) * 1000.0 /
                                      steps_per_job
                                : 0);
}

int RunBatch(const Options& options, const BatchSpec& spec, Report* report) {
  const uint16_t job_span = sfdf::trace::RegisterName(spec.job_span);
  // Set-up: generate the input graph and run one warm-up job (the first job
  // of a process pays one-time costs such as pool start and heap growth).
  // Repeated, and the median reported; the set-ups are split between before
  // and after the timed jobs, so that a few seconds of contention on the
  // host cannot move the median alone. The timed jobs use the graph of the
  // last set-up before them.
  std::vector<double> setup;
  auto set_up = [&](std::optional<Graph>* graph) {
    const int64_t start = NowNs();
    graph->emplace(spec.generate());
    JobRun warm = spec.make_job(**graph, false, false)();
    setup.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!warm.status.ok()) {
      report->Check("warmup_job", false, warm.status.ToString());
    }
    return warm.status.ok();
  };
  std::optional<Graph> graph;
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up(&graph)) return 1;
  }
  std::printf("input: %lld vertices, %lld arcs\n",
              static_cast<long long>(graph->num_vertices()),
              static_cast<long long>(graph->num_directed_edges()));

  const JobFn job = spec.make_job(*graph, true, options.perturb_reference);
  TraceCollector collector;
  if (options.trace) collector.Start();
  const ProcessUsage usage_before = CurrentUsage();
  const Phase phase = RunPhase(job, options.seconds, options.trace, job_span);
  const ProcessUsage usage_after = CurrentUsage();
  collector.Stop();

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::string first_error;
  for (const auto* list : {&phase.plain, &phase.traced}) {
    for (const JobRun& run : *list) {
      failed += !run.status.ok() || run.mismatches > 0 ? 1 : 0;
      mismatches += run.mismatches;
      if (!run.status.ok() && first_error.empty()) {
        first_error = run.status.ToString();
      }
    }
    attempted += static_cast<int64_t>(list->size());
  }
  std::vector<double> job_s;
  std::vector<double> step_ms;
  std::printf("job samples (s / median superstep ms):");
  for (const JobRun& run : phase.plain) {
    job_s.push_back(run.wall_ms / 1000.0);
    std::vector<double> steps;
    ForEachSuperstep(run.exec, [&](const sfdf::SuperstepStats& s) {
      steps.push_back(s.millis);
    });
    std::printf(" %.3f/%.3f", run.wall_ms / 1000.0, Median(steps));
    // The first superstep also builds the loop-invariant path and is
    // reported as superstep.first_ms; the quantiles cover the steady state.
    step_ms.insert(step_ms.end(), steps.begin() + (steps.empty() ? 0 : 1),
                   steps.end());
  }
  std::printf("\n");
  const double step_p50 = Median(step_ms);
  report->Set("job_s", Median(job_s), static_cast<int64_t>(job_s.size()));
  report->Set("step_p50_ms", step_p50,
              static_cast<int64_t>(step_ms.size()));
  report->Set("step_p90_ms", Quantile(step_ms, 0.9),
              static_cast<int64_t>(step_ms.size()));
  report->Set("peak_rss_mb", PeakRssMb());

  if (options.trace) {
    Layers layers;
    ReportLayers(phase.traced, collector, &layers);
    layers.SetUsage(usage_before, usage_after,
                    static_cast<double>(phase.plain.size() + phase.traced.size()));
    std::vector<double> traced_s;
    for (const JobRun& run : phase.traced) {
      traced_s.push_back(run.wall_ms / 1000.0);
    }
    layers.Set("trace.overhead_pct",
               (Median(traced_s) / Median(job_s) - 1.0) * 100.0);
    layers.Set("trace.events_lost",
               static_cast<double>(collector.lapped_windows()));
    layers.SetFloor(MeasureFloor(*graph), step_p50);
    std::vector<Record> build;
    std::vector<Record> probe;
    int key = 0;
    spec.probe_records(*graph, &build, &key, &probe);
    layers.SetProbes(MeasureProbes(build, key, probe, Arcs(*graph)));
    layers.ReportTo(report, static_cast<int64_t>(phase.traced.size()));
    report->SetSpansJson(SpansJson(collector.Aggregate()));
  }
  for (int i = 0; i < kSetupsAfter; ++i) {
    std::optional<Graph> extra;
    if (!set_up(&extra)) return 1;
  }
  report->Set("setup_s", Median(setup), static_cast<int64_t>(setup.size()));
  report->CountOps(attempted, failed);
  report->Check("outputs_match_reference", failed == 0,
                std::to_string(mismatches) + " mismatching outputs" +
                    (first_error.empty() ? "" : ", error: " + first_error));
  return report->correct() ? 0 : 1;
}

// --- pagerank-bulk ---------------------------------------------------------

JobFn MakePageRankJob(const Graph& graph, bool check, bool perturb) {
  sfdf::PageRankOptions pr;
  pr.iterations = 20;
  pr.plan = sfdf::PageRankPlan::kPartition;
  pr.parallelism = Nproc();
  std::vector<double> reference;
  if (check) {
    reference = sfdf::ReferencePageRank(graph, pr.iterations, pr.damping);
    if (perturb) {
      for (int64_t v = 0; v < graph.num_vertices(); ++v) {
        if (graph.OutDegree(v) > 0) {
          reference[v] += 1e-6;
          break;
        }
      }
    }
  }
  return [&graph, pr, check, reference = std::move(reference)] {
    JobRun run;
    const int64_t start = NowNs();
    auto result = sfdf::RunPageRank(graph, pr);
    run.wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!result.ok()) {
      run.status = result.status();
      return run;
    }
    run.exec = std::move(result->exec);
    if (!check) return run;
    // Ranks of vertices without in-edges are undefined in the dataflow
    // formulation; every vertex with an edge must match within 1e-8.
    std::vector<char> seen(static_cast<size_t>(graph.num_vertices()), 0);
    for (const auto& [pid, rank] : result->ranks) {
      if (pid < 0 || pid >= graph.num_vertices()) {
        ++run.mismatches;
        continue;
      }
      seen[pid] = 1;
      if (graph.OutDegree(pid) > 0 && !(std::fabs(rank - reference[pid]) <= 1e-8)) {
        ++run.mismatches;
      }
    }
    for (int64_t v = 0; v < graph.num_vertices(); ++v) {
      if (graph.OutDegree(v) > 0 && !seen[v]) ++run.mismatches;
    }
    return run;
  };
}

// --- cc-workset ------------------------------------------------------------

/// Webbase stand-in: an R-MAT core with a path tail hanging off vertex 0,
/// whose length sets the number of supersteps to convergence.
Graph CoreWithTail(uint64_t seed, double scale) {
  sfdf::RmatOptions core;
  core.num_vertices = std::max<int64_t>(64, static_cast<int64_t>(65536 * scale));
  core.num_edges = std::max<int64_t>(256, static_cast<int64_t>(1150000 * scale));
  core.seed = GraphSeed(seed, 2);
  int64_t core_n = 1;
  while (core_n < core.num_vertices) core_n <<= 1;
  const int64_t tail =
      std::max<int64_t>(32, static_cast<int64_t>(720 * std::sqrt(scale)));
  sfdf::GraphBuilder builder(core_n + tail);
  sfdf::GenerateRmatEdges(
      core, [&](int64_t u, int64_t v) { builder.AddEdge(u, v); });
  int64_t previous = 0;
  for (int64_t i = 0; i < tail; ++i) {
    builder.AddEdge(previous, core_n + i);
    previous = core_n + i;
  }
  return builder.Build(/*symmetrize=*/true);
}

JobFn MakeCcJob(const Graph& graph, bool check, bool perturb) {
  sfdf::CcOptions cc;
  cc.variant = sfdf::CcVariant::kIncrementalCoGroup;
  cc.max_iterations = 1000000;
  cc.parallelism = Nproc();
  cc.sync_mode = sfdf::SyncMode::kSuperstep;
  std::vector<int64_t> reference;
  if (check) {
    reference = sfdf::ReferenceComponents(graph);
    if (perturb) reference.back() += 1;
  }
  return [&graph, cc, check, reference = std::move(reference)] {
    JobRun run;
    const int64_t start = NowNs();
    auto result = sfdf::RunConnectedComponents(graph, cc);
    run.wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (!result.ok()) {
      run.status = result.status();
      return run;
    }
    run.exec = std::move(result->exec);
    if (!check) return run;
    if (!result->converged || result->labels.size() != reference.size()) {
      run.mismatches = std::max<int64_t>(1, static_cast<int64_t>(reference.size()));
      return run;
    }
    for (size_t v = 0; v < reference.size(); ++v) {
      if (result->labels[v] != reference[v]) ++run.mismatches;
    }
    return run;
  };
}

}  // namespace

int RunPageRankBulk(const Options& options, Report* report) {
  BatchSpec spec;
  spec.job_span = "bench.run_pagerank";
  spec.generate = [&options] {
    // Wikipedia stand-in: R-MAT, symmetrized.
    sfdf::RmatOptions rmat;
    rmat.num_vertices =
        std::max<int64_t>(64, static_cast<int64_t>(65536 * options.scale));
    rmat.num_edges =
        std::max<int64_t>(256, static_cast<int64_t>(430000 * options.scale));
    rmat.seed = GraphSeed(options.seed, 1);
    return sfdf::GenerateRmat(rmat);
  };
  spec.make_job = MakePageRankJob;
  spec.probe_records = [](const Graph& graph, std::vector<Record>* build,
                          int* key, std::vector<Record>* probe) {
    // The partition plan's join: the transition matrix (tid, pid, prob)
    // hashed on pid, probed by the rank vector (pid, rank).
    *build = sfdf::BuildTransitionMatrix(graph);
    *key = 1;
    *probe = sfdf::BuildInitialRanks(graph);
  };
  return RunBatch(options, spec, report);
}

int RunCcWorkset(const Options& options, Report* report) {
  BatchSpec spec;
  spec.job_span = "bench.run_cc";
  spec.generate = [&options] {
    return CoreWithTail(options.seed, options.scale);
  };
  spec.make_job = MakeCcJob;
  spec.probe_records = [](const Graph& graph, std::vector<Record>* build,
                          int* key, std::vector<Record>* probe) {
    // The update's CoGroup input: neighbor records (src, dst) keyed by
    // src, probed by candidate labels (vid, cid).
    *build = sfdf::BuildEdgeRecords(graph);
    *key = 0;
    probe->clear();
    for (int64_t v = 0; v < graph.num_vertices(); ++v) {
      probe->push_back(Record::OfInts(v, v));
    }
  };
  return RunBatch(options, spec, report);
}

}  // namespace perfbench
