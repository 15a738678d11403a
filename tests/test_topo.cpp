// Topology structure: neighbours, wire lengths, folding, bisection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "topo/folded_torus.h"
#include "topo/mesh.h"
#include "topo/torus.h"

namespace ocn::topo {
namespace {

constexpr double kTile = 3.0;

TEST(Mesh, BoundariesHaveNoNeighbors) {
  const Mesh m(4, kTile);
  EXPECT_FALSE(m.neighbor(m.node_at(0, 0), Port::kRowNeg).has_value());
  EXPECT_FALSE(m.neighbor(m.node_at(0, 0), Port::kColNeg).has_value());
  EXPECT_FALSE(m.neighbor(m.node_at(3, 3), Port::kRowPos).has_value());
  EXPECT_FALSE(m.neighbor(m.node_at(3, 3), Port::kColPos).has_value());
  const auto east = m.neighbor(m.node_at(1, 2), Port::kRowPos);
  ASSERT_TRUE(east.has_value());
  EXPECT_EQ(east->dst, m.node_at(2, 2));
  EXPECT_DOUBLE_EQ(east->length_mm, kTile);
}

TEST(Mesh, ChannelCountAndBisection) {
  const Mesh m(4, kTile);
  // 2 * k * (k-1) bidirectional = 48 unidirectional channels for k=4.
  EXPECT_EQ(m.channels().size(), 48u);
  EXPECT_EQ(m.bisection_channels(), 8);
  EXPECT_FALSE(m.has_wraparound());
}

TEST(Torus, WrapsWithLongEndWires) {
  const Torus t(4, kTile);
  const auto wrap = t.neighbor(t.node_at(3, 1), Port::kRowPos);
  ASSERT_TRUE(wrap.has_value());
  EXPECT_EQ(wrap->dst, t.node_at(0, 1));
  EXPECT_DOUBLE_EQ(wrap->length_mm, 3 * kTile);  // physical loop-back wire
  EXPECT_EQ(t.channels().size(), 64u);
  EXPECT_EQ(t.bisection_channels(), 16);  // 2x the mesh (section 3.1)
}

TEST(Torus, DatelineOnWrapLinksOnly) {
  const Torus t(4, kTile);
  EXPECT_TRUE(t.crosses_dateline(t.node_at(3, 0), Port::kRowPos));
  EXPECT_TRUE(t.crosses_dateline(t.node_at(0, 0), Port::kRowNeg));
  EXPECT_FALSE(t.crosses_dateline(t.node_at(1, 0), Port::kRowPos));
  EXPECT_TRUE(t.crosses_dateline(t.node_at(0, 3), Port::kColPos));
}

TEST(FoldedTorus, PaperRingOrder0231) {
  const FoldedTorus f(4, kTile);
  // Section 2: "nodes 0-3 in each row cyclically connected in the order
  // 0,2,3,1".
  EXPECT_EQ(f.ring_order(), (std::vector<int>{0, 2, 3, 1}));
}

TEST(FoldedTorus, NoWireLongerThanTwoTiles) {
  for (int k : {2, 4, 6, 8}) {
    const FoldedTorus f(k, kTile);
    for (const auto& ch : f.channels()) {
      EXPECT_LE(ch.length_mm, 2 * kTile) << "k=" << k;
      EXPECT_GE(ch.length_mm, kTile);
    }
  }
}

TEST(FoldedTorus, RowRingFollowsPaperOrder) {
  const FoldedTorus f(4, kTile);
  // Walk row 0 in the + direction starting at physical x=0.
  NodeId n = f.node_at(0, 0);
  std::vector<int> visited{f.x_of(n)};
  for (int i = 0; i < 3; ++i) {
    n = f.neighbor(n, Port::kRowPos)->dst;
    visited.push_back(f.x_of(n));
  }
  EXPECT_EQ(visited, (std::vector<int>{0, 2, 3, 1}));
  EXPECT_EQ(f.neighbor(n, Port::kRowPos)->dst, f.node_at(0, 0));  // cyclic
}

TEST(FoldedTorus, LinkLengthsAre2121Pattern) {
  const FoldedTorus f(4, kTile);
  // Ring edges (0,2),(2,3),(3,1),(1,0) have physical lengths 2,1,2,1 tiles.
  std::multiset<double> lengths;
  NodeId n = f.node_at(0, 0);
  for (int i = 0; i < 4; ++i) {
    const auto link = f.neighbor(n, Port::kRowPos);
    lengths.insert(link->length_mm);
    n = link->dst;
  }
  EXPECT_EQ(lengths.count(2 * kTile), 2u);
  EXPECT_EQ(lengths.count(kTile), 2u);
}

TEST(FoldedTorus, EverdDirectionReversible) {
  const FoldedTorus f(4, kTile);
  for (NodeId n = 0; n < f.num_nodes(); ++n) {
    for (int p = 0; p < kNumDirPorts; ++p) {
      const auto port = static_cast<Port>(p);
      const auto fwd = f.neighbor(n, port);
      ASSERT_TRUE(fwd.has_value());
      // The reverse port at the destination leads back.
      const Port reverse = is_row(port)
                               ? (is_positive(port) ? Port::kRowNeg : Port::kRowPos)
                               : (is_positive(port) ? Port::kColNeg : Port::kColPos);
      const auto back = f.neighbor(fwd->dst, reverse);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->dst, n);
      EXPECT_DOUBLE_EQ(back->length_mm, fwd->length_mm);
    }
  }
}

TEST(FoldedTorus, DatelineExactlyOncePerRingDirection) {
  const FoldedTorus f(4, kTile);
  // Going + around any row ring must cross the dateline exactly once.
  NodeId n = f.node_at(0, 2);
  int crossings = 0;
  for (int i = 0; i < 4; ++i) {
    if (f.crosses_dateline(n, Port::kRowPos)) ++crossings;
    n = f.neighbor(n, Port::kRowPos)->dst;
  }
  EXPECT_EQ(crossings, 1);
}

TEST(AvgHops, MatchesAnalyticExpectations) {
  // Exact uniform-traffic averages (self-pairs included): mesh (k^2-1)/3k
  // per dim, torus k/4 per dim.
  const Mesh m(4, kTile);
  EXPECT_NEAR(m.avg_min_hops(), 2.5, 1e-9);
  const Torus t(4, kTile);
  EXPECT_NEAR(t.avg_min_hops(), 2.0, 1e-9);
  const FoldedTorus f(4, kTile);
  EXPECT_NEAR(f.avg_min_hops(), 2.0, 1e-9);  // folding preserves hop structure
}

TEST(HopDistances, OneBfsMatchesMinHopsAndTheClosedForm) {
  // One BFS per source answers every destination: each entry equals
  // min_hops and the closed-form dimension-ordered distance (sum over both
  // dimensions of the line distance on a mesh, the shorter way around the
  // ring, in ring order, on either torus).
  for (int k = 2; k <= 6; ++k) {
    const Mesh mesh(k, kTile);
    const Torus torus(k, kTile);
    const FoldedTorus folded(k, kTile);
    for (const Topology* t : {static_cast<const Topology*>(&mesh),
                              static_cast<const Topology*>(&torus),
                              static_cast<const Topology*>(&folded)}) {
      for (NodeId s = 0; s < t->num_nodes(); ++s) {
        const std::vector<int> dist = t->hop_distances(s);
        ASSERT_EQ(dist.size(), static_cast<std::size_t>(t->num_nodes()));
        for (NodeId d = 0; d < t->num_nodes(); ++d) {
          int expect = 0;
          for (int dim = 0; dim < 2; ++dim) {
            const int gap = std::abs(t->ring_index(s, dim) - t->ring_index(d, dim));
            expect += t->has_wraparound() ? std::min(gap, k - gap) : gap;
          }
          EXPECT_EQ(dist[static_cast<std::size_t>(d)], t->min_hops(s, d))
              << t->name() << " " << s << "->" << d;
          EXPECT_EQ(dist[static_cast<std::size_t>(d)], expect)
              << t->name() << " " << s << "->" << d;
        }
      }
    }
  }
}

TEST(AvgDistance, FoldedTorusTravelsFurtherThanMesh) {
  // Section 3.1: the torus trades longer average transmission distance for
  // fewer hops.
  const Mesh m(4, kTile);
  const FoldedTorus f(4, kTile);
  EXPECT_GT(f.avg_min_distance_mm(), m.avg_min_distance_mm());
}

TEST(AllTopologies, ChannelsAreConsistentWithNeighbor) {
  const Mesh m(4, kTile);
  const Torus t(4, kTile);
  const FoldedTorus f(4, kTile);
  for (const Topology* topo : {static_cast<const Topology*>(&m),
                               static_cast<const Topology*>(&t),
                               static_cast<const Topology*>(&f)}) {
    for (const auto& ch : topo->channels()) {
      const auto link = topo->neighbor(ch.src, ch.src_out_port);
      ASSERT_TRUE(link.has_value());
      EXPECT_EQ(link->dst, ch.dst);
      EXPECT_EQ(static_cast<int>(link->dst_in_port), static_cast<int>(ch.dst_in_port));
    }
  }
}

TEST(FoldedTorus, LargerRadixFoldings) {
  const FoldedTorus f6(6, kTile);
  EXPECT_EQ(f6.ring_order(), (std::vector<int>{0, 2, 4, 5, 3, 1}));
  const FoldedTorus f8(8, kTile);
  EXPECT_EQ(f8.ring_order(), (std::vector<int>{0, 2, 4, 6, 7, 5, 3, 1}));
}

}  // namespace
}  // namespace ocn::topo
