// serve-cc-net: one ServingCc tenant on a 2-worker ServiceHost behind the
// TCP gateway on loopback. An open loop sends single-edge inserts at a fixed
// rate on one connection (a sender and a receiver thread, each mutation
// timed from its due time to its committed reply); beside it one closed-loop
// connection issues point reads. The served labels are checked against
// union-find over everything inserted.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "graph/generators.h"
#include "graph/union_find.h"
#include "net/client.h"
#include "obs/trace.h"
#include "service/gateway.h"
#include "service/serving_cc.h"

namespace perfbench {

namespace {

using sfdf::GraphMutation;

constexpr const char* kTenant = "cc";
constexpr double kRatePerS = 8000;
constexpr int kHostWorkers = 2;
constexpr int64_t kMaxPending = 1 << 14;
constexpr size_t kPreloadChunk = 8192;
/// The set-ups are split between before and after the open loop, so that a
/// few seconds of contention on the host cannot move their median alone.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr int kSnapshotReads = 51;
/// Serving latency limit on the mutate p90 (ms).
constexpr double kMutateP90LimitMs = 10;

using Edges = std::vector<std::pair<int64_t, int64_t>>;

/// Host, tenant and gateway. Stop order: gateway, then host (which stops
/// the tenant's service), and only then may the tenant object die.
struct Stack {
  std::unique_ptr<sfdf::ServiceHost> host;
  std::unique_ptr<sfdf::ServingCc> tenant;
  std::unique_ptr<sfdf::RpcGateway> gateway;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { (void)Stop(); }

  sfdf::Status Stop() {
    sfdf::Status status;
    if (gateway) status = gateway->Stop();
    if (host) {
      sfdf::Status host_status = host->StopAll();
      if (status.ok()) status = host_status;
    }
    gateway.reset();
    host.reset();
    tenant.reset();
    return status;
  }
};

sfdf::Status StartStack(int64_t num_vertices, Stack* stack) {
  stack->host = std::make_unique<sfdf::ServiceHost>(
      sfdf::ServiceHost::Options{.workers = kHostWorkers});
  sfdf::ServingCc::Options cc;
  cc.num_vertices = num_vertices;
  cc.service.max_pending_mutations = kMaxPending;
  auto tenant = sfdf::ServingCc::StartOn(stack->host.get(), kTenant, cc);
  if (!tenant.ok()) return tenant.status();
  stack->tenant = std::move(tenant).value();
  auto gateway =
      sfdf::RpcGateway::Start(stack->host.get(), sfdf::GatewayOptions{});
  if (!gateway.ok()) return gateway.status();
  stack->gateway = std::move(gateway).value();
  return sfdf::Status::OK();
}

sfdf::Status Preload(sfdf::IterationService& service, const Edges& edges) {
  static const uint16_t kApply = sfdf::trace::RegisterName("bench.apply");
  for (size_t i = 0; i < edges.size(); i += kPreloadChunk) {
    std::vector<GraphMutation> chunk;
    for (size_t j = i; j < std::min(edges.size(), i + kPreloadChunk); ++j) {
      chunk.push_back(GraphMutation::EdgeInsert(edges[j].first, edges[j].second));
    }
    sfdf::trace::Span span(kApply, static_cast<int64_t>(chunk.size()));
    SFDF_RETURN_NOT_OK(service.Apply(std::move(chunk)));
  }
  return sfdf::Status::OK();
}

/// Checks one served snapshot of (vertex, label) records against the
/// reference labels: every vertex once, with its reference label. Returns
/// the number of vertices that break a rule.
int64_t LabelErrors(const std::vector<sfdf::Record>& records,
                    const std::vector<int64_t>& reference) {
  const int64_t n = static_cast<int64_t>(reference.size());
  std::vector<int64_t> label(static_cast<size_t>(n), -1);
  int64_t errors = 0;
  for (const sfdf::Record& rec : records) {
    const int64_t v = rec.GetInt(0);
    if (v < 0 || v >= n || label[v] >= 0) {
      ++errors;
      continue;
    }
    label[v] = rec.GetInt(1);
  }
  for (int64_t v = 0; v < n; ++v) {
    if (label[v] != reference[v]) ++errors;
  }
  return errors;
}

struct Window {
  double seconds = 0;
  double traced_seconds = 0;  ///< time with the flight recorder on
  int64_t scheduled = 0;
  int64_t sent = 0;
  int64_t acked = 0;          ///< committed replies
  int64_t mutate_failed = 0;  ///< refused, failed or unanswered mutations
  int64_t reads = 0;
  int64_t read_failed = 0;    ///< errors, misses or epochs going backwards
  /// Latencies by whether their one-second slice ran traced.
  std::vector<double> mutate_ms;
  std::vector<double> mutate_traced_ms;
  std::vector<double> read_ms;
  std::vector<double> read_traced_ms;
  std::vector<double> lag_ms;
  double last_reply_s = 0;    ///< last committed reply, from window start
};

/// One open-loop window: `stream` at kRatePerS for `seconds`, beside a
/// closed-loop point reader over keys [0, num_vertices). With `alternate`,
/// every odd one-second slice runs with the flight recorder on, so traced
/// and untraced slices interleave.
Window RunWindow(Stack* stack, uint16_t port, const Edges& stream,
                 int64_t num_vertices, double seconds, bool alternate,
                 std::mt19937_64* rng) {
  static const uint16_t kSend =
      sfdf::trace::RegisterName("bench.rpc.send_mutate");
  static const uint16_t kReply = sfdf::trace::RegisterName("bench.rpc.reply");
  static const uint16_t kQuery = sfdf::trace::RegisterName("bench.rpc.query");
  Window w;
  w.seconds = seconds;
  for (int slice = 1; alternate && slice < seconds; slice += 2) {
    w.traced_seconds += std::min(1.0, seconds - slice);
  }
  w.scheduled = std::min<int64_t>(static_cast<int64_t>(kRatePerS * seconds),
                                  static_cast<int64_t>(stream.size()));
  auto writer = sfdf::net::RpcClient::Connect("127.0.0.1", port);
  auto reader = sfdf::net::RpcClient::Connect("127.0.0.1", port);
  if (!writer.ok() || !reader.ok()) {
    w.mutate_failed = w.scheduled;
    return w;
  }
  std::vector<std::atomic<int64_t>> due(static_cast<size_t>(w.scheduled));
  std::atomic<int64_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> stop_reads{false};
  const int64_t period_ns = static_cast<int64_t>(1e9 / kRatePerS);
  const int64_t t0 = NowNs() + 2000000;  // first send 2 ms from now
  auto traced_at = [alternate, t0](int64_t ns) {
    return alternate && ns >= t0 && ((ns - t0) / 1000000000) % 2 == 1;
  };

  std::thread sender([&] {
    bool tracing = false;
    for (int64_t i = 0; i < w.scheduled; ++i) {
      const int64_t due_ns = t0 + i * period_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due_ns)));
      if (traced_at(due_ns) != tracing) {
        tracing = !tracing;
        sfdf::trace::SetEnabled(tracing);
      }
      due[i].store(due_ns, std::memory_order_relaxed);
      w.lag_ms.push_back(static_cast<double>(NowNs() - due_ns) / 1e6);
      const auto& edge = stream[static_cast<size_t>(i)];
      sfdf::trace::Span span(kSend);
      auto id = (*writer)->SendMutate(
          kTenant, {GraphMutation::EdgeInsert(edge.first, edge.second)});
      if (!id.ok() || *id != static_cast<uint64_t>(i + 1)) break;
      sent.store(i + 1, std::memory_order_release);
    }
    sfdf::trace::SetEnabled(false);
    sender_done.store(true, std::memory_order_release);
  });

  std::atomic<bool> receiver_done{false};
  std::thread receiver([&] {
    int64_t received = 0;
    for (;;) {
      // Block for a reply only while one is outstanding.
      if (received >= sent.load(std::memory_order_acquire)) {
        if (sender_done.load(std::memory_order_acquire) &&
            received >= sent.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::yield();
        continue;
      }
      sfdf::trace::Span span(kReply);
      auto reply = (*writer)->ReceiveReply();
      if (!reply.ok()) break;  // connection closed: the rest is unanswered
      ++received;
      const int64_t now = NowNs();
      const uint64_t id = reply->request_id;
      if (id < 1 || id > static_cast<uint64_t>(w.scheduled) ||
          reply->opcode != sfdf::net::Opcode::kMutateBatch ||
          reply->status != sfdf::net::WireCode::kOk) {
        ++w.mutate_failed;
        continue;
      }
      ++w.acked;
      const int64_t due_ns = due[id - 1].load(std::memory_order_relaxed);
      (traced_at(due_ns) ? w.mutate_traced_ms : w.mutate_ms)
          .push_back(static_cast<double>(now - due_ns) / 1e6);
      w.last_reply_s = static_cast<double>(now - t0) / 1e9;
    }
    receiver_done.store(true, std::memory_order_release);
  });

  std::thread read_loop([&] {
    uint64_t last_epoch = 0;
    std::uniform_int_distribution<int64_t> key(0, num_vertices - 1);
    std::mt19937_64 local(rng->operator()());
    while (NowNs() < t0) std::this_thread::yield();
    while (!stop_reads.load(std::memory_order_acquire)) {
      const int64_t start = NowNs();
      sfdf::trace::Span span(kQuery);
      auto result = (*reader)->QueryKey(kTenant, key(local));
      const double ms = static_cast<double>(NowNs() - start) / 1e6;
      ++w.reads;
      if (!result.ok() || !result->found || result->epoch < last_epoch) {
        ++w.read_failed;
        if (!result.ok()) break;
        continue;
      }
      last_epoch = result->epoch;
      (traced_at(start) ? w.read_traced_ms : w.read_ms).push_back(ms);
    }
  });

  sender.join();
  // Reads run while writes run; then every outstanding reply gets up to
  // ten seconds before the gateway is closed under the receiver.
  stop_reads.store(true, std::memory_order_release);
  read_loop.join();
  const int64_t deadline = NowNs() + 10000000000LL;
  while (!receiver_done.load(std::memory_order_acquire) && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!receiver_done.load(std::memory_order_acquire)) (void)stack->Stop();
  receiver.join();
  w.sent = sent.load();
  w.mutate_failed += w.scheduled - w.acked - w.mutate_failed;
  return w;
}

Edges RmatEdges(int64_t vertices, int64_t edges, uint64_t seed) {
  sfdf::RmatOptions rmat;
  rmat.num_vertices = vertices;
  rmat.num_edges = edges;
  rmat.seed = seed;
  Edges out;
  sfdf::GenerateRmatEdges(rmat, [&out](int64_t u, int64_t v) {
    if (u != v) out.emplace_back(u, v);
  });
  return out;
}

}  // namespace

int RunServeCcNet(const Options& options, Report* report) {
  int64_t n = 1;
  while (n < std::max<int64_t>(64, static_cast<int64_t>(65536 * options.scale))) {
    n <<= 1;
  }
  const Edges preload =
      RmatEdges(n, std::max<int64_t>(256, static_cast<int64_t>(430000 * options.scale)),
                options.seed * 0x9E3779B97F4A7C15ULL + 3);
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 4);
  Edges stream;
  {
    std::uniform_int_distribution<int64_t> vertex(0, n - 1);
    const size_t count = static_cast<size_t>(kRatePerS * options.seconds);
    while (stream.size() < count) {
      const int64_t u = vertex(rng);
      const int64_t v = vertex(rng);
      if (u != v) stream.emplace_back(u, v);
    }
  }

  // Set-up: host, tenant and gateway start plus the preload through
  // IterationService::Apply. The last stack set up before the loop serves
  // it; the set-ups after it use stacks of their own.
  std::vector<double> setup_s;
  auto set_up = [&](Stack* stack) {
    (void)stack->Stop();
    const int64_t start = NowNs();
    sfdf::Status status = StartStack(n, stack);
    if (status.ok()) status = Preload(stack->tenant->service(), preload);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) report->Check("setup", false, status.ToString());
    return status.ok();
  };
  Stack stack;
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up(&stack)) return 1;
  }
  std::printf("input: %lld vertices, %zu preload edges, %zu stream edges\n",
              static_cast<long long>(n), preload.size(), stream.size());

  sfdf::IterationService& service = stack.tenant->service();
  const uint16_t port = stack.gateway->port();
  Layers layers;
  {
    auto client = sfdf::net::RpcClient::Connect("127.0.0.1", port);
    std::vector<double> rtt;
    for (int i = 0; client.ok() && i < 200; ++i) {
      const int64_t start = NowNs();
      if (!(*client)->Ping().ok()) break;
      rtt.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
    layers.Set("net.ping_rtt_p50_ms", Median(rtt));
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  const sfdf::ServiceStats before = service.stats();
  const sfdf::RpcGateway::Counters net_before = stack.gateway->counters();

  TraceCollector collector;
  if (options.trace) collector.Start();
  const ProcessUsage usage_before = CurrentUsage();
  const Window w = RunWindow(&stack, port, stream, n, options.seconds,
                             options.trace, &rng);
  const ProcessUsage usage_after = CurrentUsage();
  collector.Stop();
  attempted += w.scheduled + w.reads;
  failed += w.mutate_failed + w.read_failed;
  if (!stack.gateway) {
    report->Check("replies", false, "gateway closed on a stuck reply");
    report->CountOps(attempted, failed);
    return 1;
  }
  const double mutate_p50 = Median(w.mutate_ms);
  const double mutate_p90 = Quantile(w.mutate_ms, 0.9);
  report->Set("step_p50_ms", mutate_p50,
              static_cast<int64_t>(w.mutate_ms.size()));
  report->Set("step_p90_ms", mutate_p90,
              static_cast<int64_t>(w.mutate_ms.size()));
  const double achieved =
      static_cast<double>(w.acked) / std::max(w.seconds, w.last_reply_s);
  const double offered = static_cast<double>(w.scheduled) / w.seconds;
  layers.Set("net.read_p50_ms", Median(w.read_ms));
  layers.Set("net.read_p90_ms", Quantile(w.read_ms, 0.9));
  layers.Set("net.reads_per_s", static_cast<double>(w.reads) / w.seconds);
  layers.Set("loadgen.offered_per_s", offered);
  layers.Set("loadgen.achieved_per_s", achieved);
  layers.Set("loadgen.lag_p99_ms", Quantile(w.lag_ms, 0.99));
  layers.Set("loadgen.lag_max_ms", Quantile(w.lag_ms, 1.0));

  const sfdf::ServiceStats s = service.stats();
  const bool limit_ok = mutate_p90 <= kMutateP90LimitMs &&
                        s.admission_queue_depth == 0 &&
                        achieved >= 0.99 * offered;
  char limit_detail[256];
  std::snprintf(limit_detail, sizeof(limit_detail),
                "mutate p90 %.3f ms (limit %.0f), queue depth %llu, "
                "achieved %.0f of %.0f/s",
                mutate_p90, kMutateP90LimitMs,
                static_cast<unsigned long long>(s.admission_queue_depth),
                achieved, offered);
  report->Check("mutations_and_reads_ok", failed == 0,
                std::to_string(failed) + " of " + std::to_string(attempted) +
                    " mutations and reads failed, refused or wrong");
  report->Check("serving_latency_limit", limit_ok, limit_detail);

  if (options.trace) {
    // Counters over the whole window, per second; span times and round
    // quantiles from the traced slices. The engine's queue-wait maximum is
    // the service's lifetime figure, so it includes the preload.
    const sfdf::RpcGateway::Counters c = stack.gateway->counters();
    const double per = w.seconds;
    const double rounds = static_cast<double>(s.rounds - before.rounds);
    layers.Set("service.rounds", rounds / per);
    layers.Set("service.avg_batch",
               rounds > 0 ? static_cast<double>(s.mutations_applied -
                                                before.mutations_applied) /
                                rounds
                          : 0);
    const std::vector<double> round_ms_traced =
        collector.DurationsMs("service.round");
    layers.Set("service.round_p50_ms", Median(round_ms_traced));
    layers.Set("service.round_p99_ms", Quantile(round_ms_traced, 0.99));
    const double round_ms = (s.total_round_millis - before.total_round_millis) / per;
    layers.Set("service.round_busy_frac", round_ms / 1000.0);
    layers.Set("service.rejected", static_cast<double>(s.mutations_rejected -
                                                       before.mutations_rejected));
    const double steps =
        static_cast<double>(s.total_supersteps - before.total_supersteps) / per;
    layers.Set("superstep.count", steps);
    layers.Set("engine.tasks",
               static_cast<double>(s.engine_tasks - before.engine_tasks) / per);
    layers.Set("engine.queue_wait_ms", (s.engine_queue_wait_total_ms -
                                        before.engine_queue_wait_total_ms) /
                                           per);
    layers.Set("engine.queue_wait_max_ms", s.engine_queue_wait_max_ms);
    layers.Set("engine.parks",
               static_cast<double>(s.engine_parks - before.engine_parks) / per);
    layers.Set("engine.wakes",
               static_cast<double>(s.engine_wakes - before.engine_wakes) / per);
    layers.Set("net.frames_in",
               static_cast<double>(c.frames_received - net_before.frames_received) /
                   per);
    layers.Set("net.frames_out",
               static_cast<double>(c.frames_sent - net_before.frames_sent) / per);
    layers.Set("net.reads_paused",
               static_cast<double>(c.reads_paused - net_before.reads_paused));
    layers.Set("net.protocol_errors",
               static_cast<double>(c.protocol_errors - net_before.protocol_errors));
    layers.SetUsage(usage_before, usage_after, per);
    const auto spans = collector.Aggregate();
    layers.SetSpanMetrics(spans, w.traced_seconds);
    const double busy_ms = layers.Get("engine.busy_ms");
    layers.Set("engine.util", busy_ms / (1000.0 * kHostWorkers));
    layers.Set("superstep.sync_us_per_step",
               steps > 0 ? std::max(0.0, round_ms - busy_ms / kHostWorkers) *
                               1000.0 / steps
                         : 0);
    layers.Set("trace.overhead_pct",
               (Median(w.mutate_traced_ms) / mutate_p50 - 1.0) * 100.0);
    layers.Set("trace.events_lost",
               static_cast<double>(collector.lapped_windows()));
    report->SetSpansJson(SpansJson(spans));

    sfdf::GraphBuilder builder(n);
    for (const auto& [u, v] : preload) builder.AddEdge(u, v);
    const sfdf::Graph graph = builder.Build(/*symmetrize=*/true);
    layers.SetFloor(MeasureFloor(graph), mutate_p50);
    std::vector<sfdf::Record> build;
    std::vector<sfdf::Record> probe;
    for (const auto& [u, v] : preload) build.push_back(sfdf::Record::OfInts(u, v));
    for (int64_t v = 0; v < n; ++v) probe.push_back(sfdf::Record::OfInts(v, v));
    layers.SetProbes(MeasureProbes(build, 0, probe, preload));
  }

  // The complete result: the served labels read back over the wire (paged
  // snapshot) kSnapshotReads times after the loop, each checked against
  // union-find over the preload plus every streamed edge. The median read
  // time is the workload's job time.
  std::vector<int64_t> reference;
  {
    sfdf::GraphBuilder builder(n);
    for (const auto& [u, v] : preload) builder.AddEdge(u, v);
    for (int64_t i = 0; i < w.sent; ++i) {
      builder.AddEdge(stream[i].first, stream[i].second);
    }
    reference = sfdf::ReferenceComponents(builder.Build(/*symmetrize=*/true));
  }
  if (options.perturb_reference) reference.back() += 1;
  std::vector<double> snapshot_s;
  int64_t snapshots_wrong = 0;
  std::string snapshot_detail = "no snapshot read";
  {
    auto client = sfdf::net::RpcClient::Connect("127.0.0.1", port);
    for (int i = 0; i < kSnapshotReads; ++i) {
      const int64_t start = NowNs();
      auto snapshot =
          client.ok() ? (*client)->Snapshot(kTenant)
                      : sfdf::Result<sfdf::net::RpcClient::SnapshotReply>(
                            client.status());
      snapshot_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (!snapshot.ok()) {
        ++snapshots_wrong;
        snapshot_detail = snapshot.status().ToString();
        break;
      }
      const int64_t errors = LabelErrors(snapshot->records, reference);
      snapshots_wrong += errors > 0 ? 1 : 0;
      snapshot_detail = std::to_string(errors) + " of " + std::to_string(n) +
                        " labels differ from union-find";
    }
  }
  attempted += static_cast<int64_t>(snapshot_s.size());
  failed += snapshots_wrong;
  std::printf("snapshot samples (s): min %.4f median %.4f max %.4f\n",
              Quantile(snapshot_s, 0), Median(snapshot_s),
              Quantile(snapshot_s, 1));
  report->Set("job_s", Median(snapshot_s),
              static_cast<int64_t>(snapshot_s.size()));
  report->Check("snapshots_match_union_find", snapshots_wrong == 0,
                std::to_string(snapshots_wrong) + " of " +
                    std::to_string(snapshot_s.size()) +
                    " snapshots wrong; last: " + snapshot_detail);
  report->CountOps(attempted, failed);
  const sfdf::Status stopped = stack.Stop();
  report->Check("clean_shutdown", stopped.ok(), stopped.ToString());
  report->Set("peak_rss_mb", PeakRssMb());
  for (int i = 0; i < kSetupsAfter; ++i) {
    Stack extra;
    if (!set_up(&extra)) return 1;
  }
  std::printf("setup samples (s):");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  report->Set("setup_s", Median(setup_s),
              static_cast<int64_t>(setup_s.size()));
  if (options.trace) {
    layers.ReportTo(report, 1);
  } else {
    // The untraced run still prints the read path and load generator.
    layers.ReportTo(report, 1,
                    {"net.read_p50_ms", "net.read_p90_ms", "net.reads_per_s",
                     "net.ping_rtt_p50_ms", "loadgen.offered_per_s",
                     "loadgen.achieved_per_s", "loadgen.lag_p99_ms",
                     "loadgen.lag_max_ms"});
  }
  return report->correct() ? 0 : 1;
}

}  // namespace perfbench
