// Topology abstraction for 2-D tiled on-chip networks (paper section 2).
//
// Ports are named logically rather than by compass direction because the
// folded torus places both ring neighbours of an end node on the same
// physical side of the tile. A flit travelling in the +row direction leaves
// through output port kRowPos and arrives at the downstream router's input
// controller kRowPos (input controllers are named by direction of travel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace ocn::topo {

enum class Port : int {
  kRowPos = 0,  ///< +1 in row-ring order
  kRowNeg = 1,  ///< -1 in row-ring order
  kColPos = 2,  ///< +1 in column-ring order
  kColNeg = 3,  ///< -1 in column-ring order
  kTile = 4,    ///< the local client (injection/extraction)
};

inline constexpr int kNumPorts = 5;
inline constexpr int kNumDirPorts = 4;

const char* port_name(Port p);

/// True for row-dimension ports.
inline bool is_row(Port p) { return p == Port::kRowPos || p == Port::kRowNeg; }
/// True for +direction ports.
inline bool is_positive(Port p) { return p == Port::kRowPos || p == Port::kColPos; }
/// Dimension index: 0 = row, 1 = column. kTile has no dimension.
inline int dim_of(Port p) { return is_row(p) ? 0 : 1; }

/// The opposite-direction port (the link credits piggyback on); kTile maps
/// to itself (the NIC's inject/eject pair).
inline Port reverse(Port p) {
  switch (p) {
    case Port::kRowPos: return Port::kRowNeg;
    case Port::kRowNeg: return Port::kRowPos;
    case Port::kColPos: return Port::kColNeg;
    case Port::kColNeg: return Port::kColPos;
    case Port::kTile: return Port::kTile;
  }
  return Port::kTile;
}

/// One unidirectional inter-router connection.
struct Link {
  NodeId dst = kInvalidNode;
  Port dst_in_port = Port::kTile;  ///< input controller at dst
  double length_mm = 0.0;          ///< physical wire length
};

/// Fully describes one channel for network construction.
struct ChannelDesc {
  NodeId src;
  Port src_out_port;
  NodeId dst;
  Port dst_in_port;
  double length_mm;
};

class Topology {
 public:
  Topology(int radix, double tile_mm) : radix_(radix), tile_mm_(tile_mm) {}
  virtual ~Topology() = default;

  virtual std::string name() const = 0;

  int radix() const { return radix_; }
  int num_nodes() const { return radix_ * radix_; }
  double tile_mm() const { return tile_mm_; }

  NodeId node_at(int x, int y) const { return y * radix_ + x; }
  int x_of(NodeId n) const { return n % radix_; }
  int y_of(NodeId n) const { return n / radix_; }

  /// Downstream connection through the given output port, or nullopt at a
  /// mesh boundary.
  virtual std::optional<Link> neighbor(NodeId n, Port out) const = 0;

  /// True when traversing (n, out) crosses the ring dateline of its
  /// dimension (used by the VC dateline deadlock-avoidance scheme). Always
  /// false for topologies without wraparound.
  virtual bool crosses_dateline(NodeId n, Port out) const { (void)n; (void)out; return false; }

  virtual bool has_wraparound() const = 0;

  /// Unidirectional channels crossing the row bisection (both directions).
  /// Paper section 3.1: the torus has twice the mesh's bisection.
  virtual int bisection_channels() const = 0;

  /// Ring coordinate of node n along dimension `dim` (0=row): the logical
  /// position in ring order, which differs from the physical coordinate in
  /// a folded torus.
  virtual int ring_index(NodeId n, int dim) const;

  /// All channels, for network construction.
  std::vector<ChannelDesc> channels() const;

  /// Minimum hop count from src to every node, indexed by destination: one
  /// BFS over neighbor(). Callers that need many destinations from one
  /// source (the route lint, avg_min_hops) take the whole row at once.
  std::vector<int> hop_distances(NodeId src) const;

  /// Minimum hop count between two nodes: hop_distances(src)[dst].
  int min_hops(NodeId src, NodeId dst) const;

  /// Mean minimal hop count over all (src,dst) pairs including self-pairs.
  double avg_min_hops() const;

  /// Mean physical link distance (mm) along minimal paths, over all pairs.
  double avg_min_distance_mm() const;

 protected:
  int radix_;
  double tile_mm_;
};

/// neighbor() and crosses_dateline() of every (node, direction port), read
/// once through the virtual interface. Passes that walk all N^2 routes (the
/// deadlock proof, the route lint) look links up here instead.
class LinkTable {
 public:
  explicit LinkTable(const Topology& topo);

  /// Router the link out of (n, out) enters; kInvalidNode at a mesh
  /// boundary. `out` must be a direction port.
  NodeId next(NodeId n, Port out) const { return next_[index(n, out)]; }
  bool crosses_dateline(NodeId n, Port out) const {
    return dateline_[index(n, out)] != 0;
  }

 private:
  static std::size_t index(NodeId n, Port out) {
    return static_cast<std::size_t>(n) * kNumDirPorts +
           static_cast<std::size_t>(out);
  }
  std::vector<NodeId> next_;
  std::vector<std::uint8_t> dateline_;
};

}  // namespace ocn::topo
