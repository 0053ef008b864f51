// The hardware floor: hand-written sequential kernels over the same CSR
// graph the engine runs on. The ratio of the engine's superstep to one CSR
// iteration says how far the dataflow is from what one core can do.
#include <numeric>

#include "bench.h"

namespace perfbench {

namespace {

/// The same arithmetic as ReferencePageRank, one iteration.
void FloorPageRankIteration(const sfdf::Graph& graph, double damping,
                            const std::vector<double>& ranks,
                            std::vector<double>* next) {
  const int64_t n = graph.num_vertices();
  next->assign(static_cast<size_t>(n), 0.0);
  for (int64_t u = 0; u < n; ++u) {
    const int64_t degree = graph.OutDegree(u);
    if (degree == 0) continue;
    const double share = ranks[u] / static_cast<double>(degree);
    for (const int64_t* v = graph.NeighborsBegin(u); v != graph.NeighborsEnd(u);
         ++v) {
      (*next)[*v] += share;
    }
  }
  const double base = (1.0 - damping) / static_cast<double>(n);
  for (double& r : *next) r = base + damping * r;
}

/// Labels every vertex with the minimum vertex id of its component.
std::vector<int64_t> FloorComponents(const sfdf::Graph& graph) {
  const int64_t n = graph.num_vertices();
  std::vector<int64_t> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (int64_t u = 0; u < n; ++u) {
    for (const int64_t* v = graph.NeighborsBegin(u); v != graph.NeighborsEnd(u);
         ++v) {
      int64_t a = find(u);
      int64_t b = find(*v);
      // Union by smaller id keeps every root the component minimum.
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    }
  }
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

}  // namespace

FloorTimes MeasureFloor(const sfdf::Graph& graph) {
  FloorTimes times;
  const int64_t n = graph.num_vertices();
  std::vector<double> ranks(static_cast<size_t>(n),
                            1.0 / static_cast<double>(n));
  std::vector<double> next;
  std::vector<double> iter_ms;
  for (int i = 0; i < 21; ++i) {
    const int64_t start = NowNs();
    FloorPageRankIteration(graph, 0.85, ranks, &next);
    iter_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    ranks.swap(next);
  }
  times.csr_iter_ms = Median(iter_ms);
  std::vector<double> cc_ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    const std::vector<int64_t> labels = FloorComponents(graph);
    cc_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  times.cc_ms = Median(cc_ms);
  return times;
}

}  // namespace perfbench
