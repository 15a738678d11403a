// Channel-dependency graph over (link, virtual channel) pairs.
//
// Dally's deadlock criterion: a routing function is deadlock-free iff the
// graph whose nodes are the network's channels and whose edges connect every
// channel a packet may hold to every channel it may request next is acyclic.
// Here a channel is one (upstream router, output port, VC) triple — the
// resource a packet owns from VC allocation until its tail crosses the link —
// and the edges are derived statically from every producible source route
// plus the dateline VC-transition rules the allocator enforces
// (Router::effective_dateline / VcAllocator::allocate).
//
// The same per-hop expansion — a port path plus one VC mask per hop —
// feeds three consumers: the CDG builder, the verifier's VC-reachability
// lint (both from a single walk per (src, dst), shared by every service
// class), and the RuntimeMonitor's per-packet hop checks during simulation
// (expand_route into a RouteExpansion the caller reuses).
//
// Cost. A channel (n, p, v) has successors only at neighbor(n, p), so its
// whole out-set is one 64-bit word over bit `port * vcs + vc` at that node
// (5 ports x vcs <= 8 = at most 40 bits): adding an edge is an OR, edges
// are never listed, and the graph takes O(channels) memory. Channel ids are
// handed out in (node, port, vc) order, so ascending bits are ascending ids
// and find_cycle visits successors in id order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "routing/route_computer.h"
#include "topo/topology.h"

namespace ocn::verify {

/// One CDG node: the VC `vc` of the link leaving router `src` through
/// `port`. `port == kTile` names the ejection channel into the NIC.
struct ChannelNode {
  NodeId src = kInvalidNode;
  topo::Port port = topo::Port::kTile;
  VcId vc = kInvalidVc;
};

/// Hop-by-hop expansion of the route src -> dst for one service class:
/// the router driving hop i, the output port taken, and the VCs the
/// allocator could grant on that hop as a mask (bit v = VC v; a singleton
/// under the dateline parity discipline on direction ports; the whole class
/// pair at the ejection port where parity is ignored; the injection VC alone
/// in dropping mode, which keeps the VC index end to end; 0 when no VC is
/// allocatable and the packet would wedge).
struct RouteExpansion {
  std::vector<NodeId> nodes;
  std::vector<topo::Port> ports;
  std::vector<std::uint8_t> vc_masks;

  bool empty() const { return ports.empty(); }
  std::size_t hops() const { return ports.size(); }
  /// True when VC `vc` is allocatable on hop `hop`.
  bool allows(std::size_t hop, VcId vc) const {
    return vc >= 0 && vc < 8 && ((vc_masks[hop] >> vc) & 1u) != 0;
  }
};

/// Overwrites `out` with the expansion of src -> dst (empty for src == dst);
/// `out`'s buffers are reused, so a caller expanding many routes allocates
/// once.
void expand_route(const core::Config& config,
                  const routing::RouteComputer& routes, NodeId src, NodeId dst,
                  int service_class, RouteExpansion& out);

/// Expansion for a pre-scheduled flow: same port path, but every hop rides
/// the dedicated scheduled VC (reservation bypass skips allocation).
void expand_scheduled_route(const core::Config& config,
                            const routing::RouteComputer& routes, NodeId src,
                            NodeId dst, RouteExpansion& out);

/// Service classes dynamic traffic may inject under this configuration
/// (class pair must exist within the VC count; the scheduled class is closed
/// when exclusive_scheduled_vc — Nic::inject refuses it).
std::vector<int> dynamic_classes(const core::Config& config);

/// A dynamic route with a hop on which no VC is allocatable: the packet
/// would wedge there forever.
struct StrandedRoute {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int service_class = 0;
  int hop = 0;  ///< first hop with an empty VC mask
  NodeId node = kInvalidNode;
  topo::Port port = topo::Port::kTile;
};

class Cdg {
 public:
  Cdg(const core::Config& config, const routing::RouteComputer& routes);

  int num_channels() const { return static_cast<int>(channels_.size()); }
  std::int64_t num_edges() const { return num_edges_; }

  /// Channel id for (src, port, vc); -1 when the port has no link (mesh
  /// boundary) or the VC is out of range.
  int channel_id(NodeId src, topo::Port port, VcId vc) const;
  const ChannelNode& channel(int id) const {
    return channels_[static_cast<std::size_t>(id)];
  }

  /// False for ids outside the graph.
  bool has_edge(int from, int to) const;
  /// True when some route's first hop can occupy this channel.
  bool is_start(int id) const {
    return start_[static_cast<std::size_t>(id)] != 0;
  }

  /// One dependency cycle as a channel-id sequence (the edge from the last
  /// entry back to the first closes it), or empty when the graph is acyclic
  /// — the deadlock-freedom proof.
  std::vector<int> find_cycle() const;

  /// Dynamic (src, dst, class) routes with a hop no VC is allocatable on,
  /// and the first of them in (src, dst, class) order.
  int stranded_routes() const { return stranded_routes_; }
  const StrandedRoute& first_stranded() const { return first_stranded_; }

  std::string describe(int id) const;
  std::string describe_cycle(const std::vector<int>& cycle) const;

 private:
  /// Adds the dependencies, start channels and stranded routes of every
  /// (src, dst) route, walking each once for all service classes.
  void add_routes(const core::Config& config,
                  const routing::RouteComputer& routes,
                  const topo::LinkTable& links);
  /// Channel at the downstream node of `id` named by out-set bit `bit`.
  int successor(int id, int bit) const;

  int vcs_ = 0;
  int num_nodes_ = 0;
  std::vector<ChannelNode> channels_;
  std::vector<int> id_map_;  // (node, port, vc) -> channel id
  /// Router each channel's link enters; kInvalidNode for ejection channels.
  std::vector<NodeId> down_;
  /// Out-set per channel: bit port * vcs + vc names (down_, port, vc).
  std::vector<std::uint64_t> out_;
  std::vector<std::uint8_t> start_;
  std::int64_t num_edges_ = 0;
  int stranded_routes_ = 0;
  StrandedRoute first_stranded_;
};

}  // namespace ocn::verify
