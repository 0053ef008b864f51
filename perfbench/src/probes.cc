// Single-thread probes of the local strategies and codecs, timed through
// their public functions on the workload's own records. Each probe runs a
// few times; the median per-record (per-frame) cost is reported.
#include <algorithm>
#include <atomic>
#include <functional>

#include "bench.h"
#include "graph/mutation.h"
#include "net/frame.h"
#include "record/batch.h"
#include "record/serde.h"
#include "runtime/exchange.h"
#include "runtime/hash_table.h"
#include "runtime/metrics.h"
#include "runtime/router.h"
#include "runtime/sorter.h"

namespace perfbench {

namespace {

using sfdf::KeySpec;
using sfdf::Record;

constexpr size_t kMaxRecords = 200000;

/// Every probe folds its results in here, so none of the work is dead.
std::atomic<int64_t> g_sink{0};
constexpr int kRepetitions = 3;

/// Median over kRepetitions of `fn()`'s wall time, in ns per item.
double PerItemNs(size_t items, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) {
    const int64_t start = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(std::max<size_t>(items, 1)));
  }
  return Median(samples);
}

std::vector<Record> Head(const std::vector<Record>& records) {
  return std::vector<Record>(
      records.begin(),
      records.begin() + static_cast<std::ptrdiff_t>(
                            std::min(records.size(), kMaxRecords)));
}

}  // namespace

ProbeTimes MeasureProbes(
    const std::vector<Record>& build_all, int build_key_field,
    const std::vector<Record>& probe_all,
    const std::vector<std::pair<int64_t, int64_t>>& edges) {
  ProbeTimes t;
  const std::vector<Record> build = Head(build_all);
  const std::vector<Record> probe = Head(probe_all);
  const KeySpec build_key{build_key_field};
  const KeySpec probe_key{0};
  int64_t sink = 0;

  sfdf::JoinHashTable table(build_key);
  t.hash_build_ns = PerItemNs(build.size(), [&] {
    table.Clear();
    for (const Record& rec : build) table.Insert(rec);
  });
  t.hash_probe_ns = PerItemNs(probe.size(), [&] {
    for (const Record& rec : probe) {
      table.Probe(rec, probe_key, [&sink](const Record&) { ++sink; });
    }
  });

  t.sort_ns = PerItemNs(build.size(), [&] {
    std::vector<Record> copy = build;
    sfdf::SortByKey(&copy, build_key);
    sink += copy.empty() ? 0 : copy.front().GetInt(build_key_field);
  });

  // One producer hash-partitioning into four consumer exchanges, then each
  // consumer draining its phase: the push/route/drain path of a superstep.
  t.exchange_ns = PerItemNs(build.size(), [&] {
    constexpr int kPartitions = 4;
    std::vector<std::unique_ptr<sfdf::Exchange>> exchanges;
    std::vector<sfdf::Exchange*> targets;
    for (int p = 0; p < kPartitions; ++p) {
      exchanges.push_back(std::make_unique<sfdf::Exchange>(1));
      targets.push_back(exchanges.back().get());
    }
    sfdf::Metrics metrics;
    sfdf::OutputPort port(targets, sfdf::ShipStrategy::kHashPartition,
                          build_key, 0, &metrics, /*in_loop=*/false);
    for (const Record& rec : build) port.Send(rec);
    port.SendMarker(sfdf::MarkerKind::kEndStream);
    for (auto& exchange : exchanges) {
      exchange->ReadPhase(sfdf::MarkerKind::kEndStream,
                          [&sink](const sfdf::RecordBatch& batch) {
                            sink += static_cast<int64_t>(batch.size());
                          });
    }
  });

  std::vector<sfdf::RecordBatch> batches;
  for (size_t i = 0; i < build.size(); i += sfdf::RecordBatch::kDefaultBatchSize) {
    const size_t end =
        std::min(build.size(), i + sfdf::RecordBatch::kDefaultBatchSize);
    batches.emplace_back(std::vector<Record>(
        build.begin() + static_cast<std::ptrdiff_t>(i),
        build.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  std::vector<uint8_t> bytes;
  t.serde_ns = PerItemNs(build.size(), [&] {
    for (const sfdf::RecordBatch& batch : batches) {
      bytes.clear();
      sfdf::SerializeBatch(batch, &bytes);
      sink += static_cast<int64_t>(bytes.size());
    }
  });

  // The single-edge MutateBatch request frame the serving load generator
  // sends, encoded and decoded back.
  const size_t frames = std::min(edges.size(), kMaxRecords);
  std::vector<uint8_t> wire;
  t.frame_ns = PerItemNs(frames, [&] {
    sfdf::net::FrameDecoder decoder;
    for (size_t i = 0; i < frames; ++i) {
      sfdf::net::Frame frame;
      frame.opcode = sfdf::net::Opcode::kMutateBatch;
      frame.request_id = i + 1;
      sfdf::net::PutString("cc", &frame.payload);
      sfdf::net::PutU32(1, &frame.payload);
      sfdf::net::PutMutation(
          sfdf::GraphMutation::EdgeInsert(edges[i].first, edges[i].second),
          &frame.payload);
      wire.clear();
      sfdf::net::EncodeFrame(frame, &wire);
      decoder.Feed(wire.data(), wire.size());
      bool got = false;
      sfdf::net::Frame decoded;
      if (decoder.Next(&got, &decoded).ok() && got) {
        sink += static_cast<int64_t>(decoded.request_id);
      }
    }
  });
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return t;
}

}  // namespace perfbench
