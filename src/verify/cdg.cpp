#include "verify/cdg.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/interface.h"

namespace ocn::verify {

using topo::Port;

namespace {

/// VCs the allocator could grant on one hop, as a mask. `want_odd` is the
/// dateline parity the packet will have on the link
/// (Router::effective_dateline).
std::uint8_t hop_vc_mask(const router::RouterParams& rp, int service_class,
                         bool tile, bool want_odd, bool scheduled) {
  if (scheduled) return static_cast<std::uint8_t>(1u << rp.scheduled_vc);
  const std::uint8_t mask = core::vc_mask_for_class(service_class);
  std::uint8_t set = 0;
  for (VcId v = 0; v < rp.vcs; ++v) {
    if ((mask & (1u << static_cast<unsigned>(v))) == 0) continue;
    if (rp.exclusive_scheduled_vc && v == rp.scheduled_vc) continue;
    if (rp.dropping()) {
      // Dropping flow control keeps the injection VC index across hops
      // (VcAllocator::allocate_exact), so the class's even VC is the only
      // channel the packet ever occupies.
      if (v != static_cast<VcId>(2 * service_class) && rp.vcs != 1) continue;
    } else if (rp.enforce_vc_parity && !tile) {
      // Dateline discipline: parity must match on direction ports; the
      // ejection port allocates with ignore_parity (the dateline scheme
      // does not apply there), so both members stay eligible.
      if ((v % 2 != 0) != want_odd) continue;
    }
    set = static_cast<std::uint8_t>(set | (1u << static_cast<unsigned>(v)));
  }
  return set;
}

/// The VC mask of one service class (or the scheduled chain) on each kind of
/// hop: the mask depends on the hop only through "ejection or not" and the
/// flit's dateline parity.
struct ClassMasks {
  int service_class = 0;
  std::uint8_t by_kind[3] = {0, 0, 0};  // indexed by hop_kind()

  ClassMasks(const router::RouterParams& rp, int cls, bool scheduled)
      : service_class(cls),
        by_kind{hop_vc_mask(rp, cls, true, false, scheduled),
                hop_vc_mask(rp, cls, false, false, scheduled),
                hop_vc_mask(rp, cls, false, true, scheduled)} {}
};

int hop_kind(Port out, bool odd) {
  return out == Port::kTile ? 0 : (odd ? 2 : 1);
}

/// The topology's links as walk_route reads them, through its virtual
/// interface: right for one route at a time (the monitor's per-packet
/// expansion).
struct TopologyLinks {
  const topo::Topology& topo;
  NodeId next(NodeId n, Port out) const { return topo.neighbor(n, out)->dst; }
  bool crosses_dateline(NodeId n, Port out) const {
    return topo.crosses_dateline(n, out);
  }
};

/// Walks the route src -> dst once, calling hop(node, out, odd) for every
/// hop. Replicates the flit's dateline state: reset when entering the
/// network or changing dimension, set when the hop crosses the ring's
/// dateline (exactly Router::effective_dateline, which both the allocator's
/// want_odd and the stored flit state are derived from).
template <class Links, class Hop>
void walk_route(const routing::RouteComputer& routes, const Links& links,
                NodeId src, NodeId dst, Hop&& hop) {
  bool crossed = false;
  NodeId node = src;
  Port in = Port::kTile;
  for (const Port out : routes.port_path(src, dst)) {
    bool eff = crossed;
    if (out != Port::kTile) {
      if (in == Port::kTile || topo::dim_of(in) != topo::dim_of(out)) {
        eff = false;
      }
      if (links.crosses_dateline(node, out)) eff = true;
    }
    hop(node, out, eff);
    if (out != Port::kTile) {
      node = links.next(node, out);
      crossed = eff;
      in = out;
    }
  }
}

void expand(const routing::RouteComputer& routes, NodeId src, NodeId dst,
            const ClassMasks& masks, RouteExpansion& e) {
  e.nodes.clear();
  e.ports.clear();
  e.vc_masks.clear();
  walk_route(routes, TopologyLinks{routes.topology()}, src, dst,
             [&](NodeId node, Port out, bool odd) {
    e.nodes.push_back(node);
    e.ports.push_back(out);
    e.vc_masks.push_back(masks.by_kind[hop_kind(out, odd)]);
  });
}

}  // namespace

void expand_route(const core::Config& config,
                  const routing::RouteComputer& routes, NodeId src, NodeId dst,
                  int service_class, RouteExpansion& out) {
  expand(routes, src, dst, ClassMasks(config.router, service_class, false),
         out);
}

void expand_scheduled_route(const core::Config& config,
                            const routing::RouteComputer& routes, NodeId src,
                            NodeId dst, RouteExpansion& out) {
  expand(routes, src, dst, ClassMasks(config.router, 0, true), out);
}

std::vector<int> dynamic_classes(const core::Config& config) {
  std::vector<int> classes;
  const auto& rp = config.router;
  const int max_classes = rp.vcs == 1 ? 1 : rp.vcs / 2;
  for (int c = 0; c < std::min(4, max_classes); ++c) {
    if (rp.exclusive_scheduled_vc && c == rp.scheduled_vc / 2) continue;
    classes.push_back(c);
  }
  return classes;
}

Cdg::Cdg(const core::Config& config, const routing::RouteComputer& routes)
    : vcs_(config.router.vcs) {
  const topo::Topology& topo = routes.topology();
  num_nodes_ = topo.num_nodes();
  // One out-set word holds kNumPorts * vcs bits; vcs <= 8 is enforced by
  // Config::validate and the verifier's precheck.
  assert(vcs_ >= 1 && vcs_ * topo::kNumPorts <= 64);

  // Enumerate channels: every existing direction link plus the ejection
  // channel of each router, times the VC count.
  id_map_.assign(
      static_cast<std::size_t>(num_nodes_) * topo::kNumPorts *
          static_cast<std::size_t>(vcs_),
      -1);
  const topo::LinkTable links(topo);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    for (int p = 0; p < topo::kNumPorts; ++p) {
      const auto port = static_cast<Port>(p);
      NodeId down = kInvalidNode;
      if (port != Port::kTile) {
        down = links.next(n, port);
        if (down == kInvalidNode) continue;
      }
      for (VcId v = 0; v < vcs_; ++v) {
        id_map_[(static_cast<std::size_t>(n) * topo::kNumPorts +
                 static_cast<std::size_t>(p)) *
                    static_cast<std::size_t>(vcs_) +
                static_cast<std::size_t>(v)] =
            static_cast<int>(channels_.size());
        channels_.push_back(ChannelNode{n, port, v});
        down_.push_back(down);
      }
    }
  }

  add_routes(config, routes, links);
  num_edges_ = 0;
  for (const std::uint64_t word : out_) num_edges_ += std::popcount(word);
}

void Cdg::add_routes(const core::Config& config,
                     const routing::RouteComputer& routes,
                     const topo::LinkTable& links) {
  out_.assign(channels_.size(), 0);
  start_.assign(channels_.size(), 0);

  // Dependencies induced by every dynamic route. A packet holding the VC of
  // hop i requests a VC of hop i+1: edge for every pair the allocator could
  // produce. Scheduled flows add their fixed-VC chains as well; their slots
  // are conflict-free by construction, but the channels are still held
  // across cycles whenever a bypass hop waits on a credit.
  std::vector<ClassMasks> chains;
  for (const int c : dynamic_classes(config)) {
    chains.emplace_back(config.router, c, false);
  }
  const std::size_t dynamic_chains = chains.size();
  if (config.router.exclusive_scheduled_vc) {
    chains.emplace_back(config.router, 0, true);
  }

  // Every chain shares the walk, so fold them into tables over hop kinds:
  // held[k] = the VCs any chain may hold on a hop of kind k, and
  // next[k][j][v] = the VCs of a following kind-j hop that a chain holding
  // VC v may request. Their union over chains is exactly the edge set the
  // chains add one by one.
  std::uint8_t held[3] = {0, 0, 0};
  std::uint8_t next[3][3][8] = {};
  unsigned stranding_kinds = 0;  // kinds on which some dynamic chain has no VC
  for (std::size_t c = 0; c < chains.size(); ++c) {
    for (int k = 0; k < 3; ++k) {
      const unsigned mask = chains[c].by_kind[k];
      held[k] = static_cast<std::uint8_t>(held[k] | mask);
      if (mask == 0 && c < dynamic_chains) stranding_kinds |= 1u << k;
      for (unsigned m = mask; m != 0; m &= m - 1) {
        for (int j = 0; j < 3; ++j) {
          std::uint8_t& w = next[k][j][std::countr_zero(m)];
          w = static_cast<std::uint8_t>(w | chains[c].by_kind[j]);
        }
      }
    }
  }

  // One walk per (src, dst): each hop adds the edges from the previous hop's
  // channels. `base` is the channel id of the hop's VC 0 (a hop's VCs are
  // consecutive ids) and out * vcs the out-set bit of its VC 0.
  struct Stranding {
    int hop = -1;
    NodeId node = kInvalidNode;
    Port port = Port::kTile;
  };
  std::vector<Stranding> stranding(dynamic_chains);
  for (NodeId s = 0; s < num_nodes_; ++s) {
    for (NodeId d = 0; d < num_nodes_; ++d) {
      if (s == d) continue;
      int hop = 0;
      int prev_base = -1;
      int prev_kind = 0;
      bool stranded = false;
      walk_route(routes, links, s, d, [&](NodeId node, Port out, bool odd) {
        const int kind = hop_kind(out, odd);
        const int base = channel_id(node, out, 0);
        if (prev_base < 0) {
          for (unsigned m = held[kind]; m != 0; m &= m - 1) {
            start_[static_cast<std::size_t>(base + std::countr_zero(m))] = 1;
          }
        } else {
          const int shift = static_cast<int>(out) * vcs_;
          for (unsigned m = held[prev_kind]; m != 0; m &= m - 1) {
            const int v = std::countr_zero(m);
            out_[static_cast<std::size_t>(prev_base + v)] |=
                static_cast<std::uint64_t>(next[prev_kind][kind][v]) << shift;
          }
        }
        if ((stranding_kinds >> kind) & 1u) {
          for (std::size_t c = 0; c < dynamic_chains; ++c) {
            if (chains[c].by_kind[kind] == 0 && stranding[c].hop < 0) {
              stranding[c] = {hop, node, out};
              stranded = true;
            }
          }
        }
        prev_base = base;
        prev_kind = kind;
        ++hop;
      });
      if (!stranded) continue;
      // Count and report in (src, dst, class) order, not hop order.
      for (std::size_t c = 0; c < dynamic_chains; ++c) {
        if (stranding[c].hop < 0) continue;
        if (stranded_routes_++ == 0) {
          first_stranded_ = {s,
                             d,
                             chains[c].service_class,
                             stranding[c].hop,
                             stranding[c].node,
                             stranding[c].port};
        }
        stranding[c] = {};
      }
    }
  }
}

int Cdg::channel_id(NodeId src, Port port, VcId vc) const {
  if (src < 0 || src >= num_nodes_ || vc < 0 || vc >= vcs_) return -1;
  return id_map_[(static_cast<std::size_t>(src) * topo::kNumPorts +
                  static_cast<std::size_t>(port)) *
                     static_cast<std::size_t>(vcs_) +
                 static_cast<std::size_t>(vc)];
}

int Cdg::successor(int id, int bit) const {
  return id_map_[static_cast<std::size_t>(down_[static_cast<std::size_t>(id)]) *
                     topo::kNumPorts * static_cast<std::size_t>(vcs_) +
                 static_cast<std::size_t>(bit)];
}

bool Cdg::has_edge(int from, int to) const {
  if (from < 0 || to < 0 || from >= num_channels() || to >= num_channels()) {
    return false;
  }
  const ChannelNode& head = channel(to);
  if (head.src != down_[static_cast<std::size_t>(from)]) return false;
  const int bit = static_cast<int>(head.port) * vcs_ + head.vc;
  return ((out_[static_cast<std::size_t>(from)] >> bit) & 1u) != 0;
}

std::vector<int> Cdg::find_cycle() const {
  // Iterative DFS with three colours; a gray-to-gray edge closes a cycle,
  // recovered from the explicit stack so the report shows the actual
  // dependency path.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(channels_.size(), kWhite);
  struct Frame {
    int node;
    std::uint64_t rest;  // out-set bits not yet visited, ascending = id order
  };
  std::vector<Frame> stack;
  for (int root = 0; root < num_channels(); ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    stack.push_back({root, out_[static_cast<std::size_t>(root)]});
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.rest != 0) {
        const int n = successor(f.node, std::countr_zero(f.rest));
        f.rest &= f.rest - 1;
        if (color[static_cast<std::size_t>(n)] == kGray) {
          // Extract the cycle: the stack suffix from n (inclusive — gray
          // nodes are exactly the on-stack nodes) up to the top, whose edge
          // back to n closes it.
          std::vector<int> cycle;
          std::size_t i = stack.size();
          while (i > 0 && stack[i - 1].node != n) --i;
          assert(i > 0 && "gray neighbor must be on the DFS stack");
          for (--i; i < stack.size(); ++i) cycle.push_back(stack[i].node);
          return cycle;
        }
        if (color[static_cast<std::size_t>(n)] == kWhite) {
          color[static_cast<std::size_t>(n)] = kGray;
          stack.push_back({n, out_[static_cast<std::size_t>(n)]});
        }
      } else {
        color[static_cast<std::size_t>(f.node)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::string Cdg::describe(int id) const {
  // channel_id() returns -1 for (node, port, vc) triples outside the CDG —
  // e.g. a rogue flit the monitor observed on a VC no route may use. Such an
  // id names no channel, so describe it as such instead of indexing with it.
  if (id < 0 || static_cast<std::size_t>(id) >= channels_.size()) {
    return "<no such channel (id " + std::to_string(id) + ")>";
  }
  const ChannelNode& c = channel(id);
  // Appended piecewise: GCC 12's -Wrestrict misfires on `"n" + to_string()`
  // here once the rest of the function is inlined around it.
  std::string s = "n";
  s += std::to_string(c.src);
  if (c.port == Port::kTile) {
    s += " --eject";
  } else {
    s += " --";
    s += topo::port_name(c.port);
    s += "--> n";
    s += std::to_string(down_[static_cast<std::size_t>(id)]);
  }
  s += " [vc";
  s += std::to_string(c.vc);
  s += "]";
  return s;
}

std::string Cdg::describe_cycle(const std::vector<int>& cycle) const {
  std::string s;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) s += " -> ";
    s += describe(cycle[i]);
  }
  if (!cycle.empty()) s += " -> (closes at " + describe(cycle.front()) + ")";
  return s;
}

}  // namespace ocn::verify
