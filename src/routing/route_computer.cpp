#include "routing/route_computer.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ocn::routing {

using topo::Port;

void RouteComputer::set_link_dead(NodeId src, Port port, bool dead) {
  assert(port != Port::kTile && "only direction links can die");
  assert(topo_.neighbor(src, port).has_value() && "no link leaves this port");
  if (dead_.empty()) {
    dead_.assign(static_cast<std::size_t>(topo_.num_nodes()) *
                     static_cast<std::size_t>(topo::kNumDirPorts),
                 0);
  }
  auto& flag = dead_[static_cast<std::size_t>(src) * topo::kNumDirPorts +
                     static_cast<std::size_t>(port)];
  if (flag != static_cast<std::uint8_t>(dead)) {
    flag = static_cast<std::uint8_t>(dead);
    dead_count_ += dead ? 1 : -1;
  }
}

bool RouteComputer::is_link_dead(NodeId src, Port port) const {
  if (dead_count_ == 0 || port == Port::kTile) return false;
  return dead_[static_cast<std::size_t>(src) * topo::kNumDirPorts +
               static_cast<std::size_t>(port)] != 0;
}

void RouteComputer::clear_dead_links() {
  dead_.clear();
  dead_count_ = 0;
}

bool RouteComputer::segment_live(NodeId from, Port dir, int hops) const {
  NodeId node = from;
  for (int i = 0; i < hops; ++i) {
    if (is_link_dead(node, dir)) return false;
    node = topo_.neighbor(node, dir)->dst;
  }
  return true;
}

bool RouteComputer::path_live(NodeId src, NodeId dst) const {
  if (dead_count_ == 0) return true;
  NodeId node = src;
  for (const Port p : port_path(src, dst)) {
    if (p == Port::kTile) break;
    if (is_link_dead(node, p)) return false;
    node = topo_.neighbor(node, p)->dst;
  }
  return true;
}

std::vector<Port> RouteComputer::port_path(NodeId src, NodeId dst) const {
  std::vector<Port> path;
  if (src == dst) return path;
  const int k = topo_.radix();
  // At most k - 1 hops per dimension (a detour included) plus the extract:
  // one allocation per path.
  path.reserve(static_cast<std::size_t>(2 * k - 1));
  // Tie-break (ring distance exactly k/2): both members of an antipodal
  // pair orbit the same rotational direction, and pairs alternate direction
  // by the parity of their lower ring index. Every directed ring link then
  // carries exactly one tied flow under antipodal patterns (tornado,
  // bit-complement), using the full ring capacity.
  auto tie_bit = [&](int dim) {
    const int a = topo_.ring_index(src, dim);
    const int b = topo_.ring_index(dst, dim);
    return (std::min(a, b) % 2) == 0;
  };
  NodeId node = src;
  for (int dim = 0; dim < 2; ++dim) {
    const int from = topo_.ring_index(node, dim);
    const int to = topo_.ring_index(dst, dim);
    if (from == to) continue;
    const Port pos = dim == 0 ? Port::kRowPos : Port::kColPos;
    const Port neg = dim == 0 ? Port::kRowNeg : Port::kColNeg;
    Port dir;
    int hops;
    if (topo_.has_wraparound()) {
      const int dist_pos = (to - from + k) % k;
      const int dist_neg = (from - to + k) % k;
      const bool go_pos =
          dist_pos != dist_neg ? dist_pos < dist_neg : tie_bit(dim);
      dir = go_pos ? pos : neg;
      hops = go_pos ? dist_pos : dist_neg;
      // Fault-aware detour: when the chosen ring segment crosses a dead
      // link, go the other way around the ring if that side is intact. The
      // detour is non-minimal but still dimension-ordered, so the turn
      // encoding and the dateline VC scheme apply unchanged.
      if (dead_count_ > 0 && !segment_live(node, dir, hops)) {
        const Port alt = go_pos ? neg : pos;
        if (segment_live(node, alt, k - hops)) {
          dir = alt;
          hops = k - hops;
        }
      }
    } else {
      dir = to > from ? pos : neg;
      hops = to > from ? to - from : from - to;
    }
    path.insert(path.end(), static_cast<std::size_t>(hops), dir);
    // A hop changes only its own dimension's ring index, so the walk to the
    // corner node is needed only to test the next leg for dead links.
    if (dead_count_ > 0) {
      for (int i = 0; i < hops; ++i) node = topo_.neighbor(node, dir)->dst;
    }
  }
  path.push_back(Port::kTile);
  return path;
}

SourceRoute RouteComputer::compute(NodeId src, NodeId dst) const {
  SourceRoute route;
  if (src == dst) return route;
  if (dead_count_ == 0) {
    // Fault-free fast path: emit the turn codes straight from the two
    // per-dimension (direction, hops) legs, skipping port_path's vector and
    // its per-hop neighbor() walks (a virtual call each — this runs per
    // injected packet). Identical to the slow path below: a row hop changes
    // only the row ring index (and vice versa), so both legs' endpoints are
    // known from src alone, and the tie-break already uses only src/dst.
    const int k = topo_.radix();
    Port dirs[2] = {Port::kRowPos, Port::kColPos};
    int hops[2] = {0, 0};
    for (int dim = 0; dim < 2; ++dim) {
      const int from = topo_.ring_index(src, dim);
      const int to = topo_.ring_index(dst, dim);
      if (from == to) continue;
      const Port pos = dim == 0 ? Port::kRowPos : Port::kColPos;
      const Port neg = dim == 0 ? Port::kRowNeg : Port::kColNeg;
      if (topo_.has_wraparound()) {
        const int dist_pos = (to - from + k) % k;
        const int dist_neg = (from - to + k) % k;
        const bool go_pos = dist_pos != dist_neg ? dist_pos < dist_neg
                                                 : (std::min(from, to) % 2) == 0;
        dirs[dim] = go_pos ? pos : neg;
        hops[dim] = go_pos ? dist_pos : dist_neg;
      } else {
        dirs[dim] = to > from ? pos : neg;
        hops[dim] = to > from ? to - from : from - to;
      }
    }
    const bool row = hops[0] > 0;
    const bool col = hops[1] > 0;
    route.push(injection_code(row ? dirs[0] : dirs[1]));
    if (row) {
      const auto straight = turn_between(dirs[0], dirs[0]);
      assert(straight.has_value());
      for (int i = 1; i < hops[0]; ++i) route.push(static_cast<std::uint8_t>(*straight));
      if (col) {
        const auto turn = turn_between(dirs[0], dirs[1]);
        assert(turn.has_value() && "dimension-order path must be turn-encodable");
        route.push(static_cast<std::uint8_t>(*turn));
      }
    }
    if (col) {
      const auto straight = turn_between(dirs[1], dirs[1]);
      assert(straight.has_value());
      for (int i = 1; i < hops[1]; ++i) route.push(static_cast<std::uint8_t>(*straight));
    }
    const auto extract = turn_between(col ? dirs[1] : dirs[0], Port::kTile);
    assert(extract.has_value());
    route.push(static_cast<std::uint8_t>(*extract));
    return route;
  }
  const auto path = port_path(src, dst);
  if (path.empty()) return route;
  route.push(injection_code(path.front()));
  for (std::size_t i = 1; i < path.size(); ++i) {
    const auto turn = turn_between(path[i - 1], path[i]);
    assert(turn.has_value() && "dimension-order path must be turn-encodable");
    route.push(static_cast<std::uint8_t>(*turn));
  }
  return route;
}

std::vector<NodeId> RouteComputer::walk(NodeId src, SourceRoute route) const {
  std::vector<NodeId> nodes{src};
  if (route.empty()) return nodes;
  Port heading = injection_port(route.pop());
  NodeId node = src;
  while (true) {
    const auto link = topo_.neighbor(node, heading);
    assert(link.has_value() && "route walks off the topology");
    node = link->dst;
    nodes.push_back(node);
    if (route.empty()) break;  // malformed route without extract; stop
    const auto code = static_cast<TurnCode>(route.pop());
    if (code == TurnCode::kExtract) break;
    heading = apply_turn(heading, code);
  }
  return nodes;
}

int RouteComputer::hop_count(NodeId src, NodeId dst) const {
  const auto path = port_path(src, dst);
  return path.empty() ? 0 : static_cast<int>(path.size()) - 1;
}

}  // namespace ocn::routing
