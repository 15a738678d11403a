#include "topo/topology.h"

#include <cassert>
#include <limits>
#include <tuple>
#include <queue>

namespace ocn::topo {

const char* port_name(Port p) {
  switch (p) {
    case Port::kRowPos: return "row+";
    case Port::kRowNeg: return "row-";
    case Port::kColPos: return "col+";
    case Port::kColNeg: return "col-";
    case Port::kTile: return "tile";
  }
  return "?";
}

int Topology::ring_index(NodeId n, int dim) const {
  return dim == 0 ? x_of(n) : y_of(n);
}

std::vector<ChannelDesc> Topology::channels() const {
  std::vector<ChannelDesc> out;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (int p = 0; p < kNumDirPorts; ++p) {
      const auto port = static_cast<Port>(p);
      if (auto link = neighbor(n, port)) {
        out.push_back({n, port, link->dst, link->dst_in_port, link->length_mm});
      }
    }
  }
  return out;
}

std::vector<int> Topology::hop_distances(NodeId src) const {
  std::vector<int> dist(static_cast<std::size_t>(num_nodes()), -1);
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(num_nodes()));
  dist[static_cast<std::size_t>(src)] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    for (int p = 0; p < kNumDirPorts; ++p) {
      if (auto link = neighbor(n, static_cast<Port>(p))) {
        int& d = dist[static_cast<std::size_t>(link->dst)];
        if (d < 0) {
          d = dist[static_cast<std::size_t>(n)] + 1;
          queue.push_back(link->dst);
        }
      }
    }
  }
  assert(queue.size() == static_cast<std::size_t>(num_nodes()) &&
         "topology is disconnected");
  return dist;
}

int Topology::min_hops(NodeId src, NodeId dst) const {
  return hop_distances(src)[static_cast<std::size_t>(dst)];
}

double Topology::avg_min_hops() const {
  double sum = 0.0;
  for (NodeId s = 0; s < num_nodes(); ++s) {
    for (const int h : hop_distances(s)) sum += h;
  }
  return sum / (static_cast<double>(num_nodes()) * num_nodes());
}

double Topology::avg_min_distance_mm() const {
  // Among minimal-hop paths, take the one with least physical wire length:
  // Dijkstra on the lexicographic (hops, mm) cost.
  const double inf = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (NodeId s = 0; s < num_nodes(); ++s) {
    std::vector<int> hops(num_nodes(), std::numeric_limits<int>::max());
    std::vector<double> mm(num_nodes(), inf);
    using Entry = std::tuple<int, double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    hops[s] = 0;
    mm[s] = 0.0;
    pq.emplace(0, 0.0, s);
    while (!pq.empty()) {
      auto [h, d, n] = pq.top();
      pq.pop();
      if (h > hops[n] || (h == hops[n] && d > mm[n])) continue;
      for (int p = 0; p < kNumDirPorts; ++p) {
        if (auto link = neighbor(n, static_cast<Port>(p))) {
          const int nh = h + 1;
          const double nd = d + link->length_mm;
          if (nh < hops[link->dst] || (nh == hops[link->dst] && nd < mm[link->dst])) {
            hops[link->dst] = nh;
            mm[link->dst] = nd;
            pq.emplace(nh, nd, link->dst);
          }
        }
      }
    }
    for (NodeId d = 0; d < num_nodes(); ++d) sum += mm[d];
  }
  return sum / (static_cast<double>(num_nodes()) * num_nodes());
}

LinkTable::LinkTable(const Topology& topo)
    : next_(static_cast<std::size_t>(topo.num_nodes()) * kNumDirPorts,
            kInvalidNode),
      dateline_(next_.size(), 0) {
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (int p = 0; p < kNumDirPorts; ++p) {
      const auto port = static_cast<Port>(p);
      const std::size_t i = index(n, port);
      if (const auto link = topo.neighbor(n, port)) next_[i] = link->dst;
      dateline_[i] = topo.crosses_dateline(n, port) ? 1 : 0;
    }
  }
}

}  // namespace ocn::topo
