// Static verifier: the CDG deadlock proof on golden and known-bad configs,
// the route linter over a malformed-route corpus, credit arithmetic, the
// hardened Config::validate, and the runtime protocol monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/network.h"
#include "traffic/generator.h"
#include "verify/cdg.h"
#include "verify/monitor.h"
#include "verify/verifier.h"

namespace ocn {
namespace {

using core::Config;
using core::TopologyKind;
using routing::SourceRoute;
using routing::TurnCode;
using verify::Finding;
using verify::Report;
using verify::Severity;

bool has_code(const std::vector<Finding>& findings, const std::string& code,
              Severity severity) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.code == code && f.severity == severity;
  });
}

Config torus_no_dateline(int radix) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kTorus;
  c.radix = radix;
  c.router.enforce_vc_parity = false;
  return c;
}

// --- golden safe configurations ---------------------------------------------

TEST(Verifier, PaperBaselineProvedDeadlockFree) {
  const Report rep = verify::verify(Config::paper_baseline());
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.proof_ran);
  EXPECT_TRUE(rep.deadlock_free);
  EXPECT_TRUE(rep.cycle.empty());
  EXPECT_TRUE(has_code(rep.findings, "cdg-acyclic", Severity::kNote));
  EXPECT_TRUE(has_code(rep.findings, "credit-ok", Severity::kNote));
  EXPECT_EQ(rep.routes_linted, 16 * 15);
  EXPECT_LE(rep.max_route_bits, SourceRoute::kPaperRouteBits);
  EXPECT_GT(rep.channels, 0);
  EXPECT_GT(rep.edges, 0);
}

TEST(Verifier, MeshProvedDeadlockFree) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kMesh;
  c.router.enforce_vc_parity = false;
  const Report rep = verify::verify(c);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  // Dimension-ordered routing on a mesh needs no datelines at all.
  EXPECT_TRUE(rep.deadlock_free);
}

TEST(Verifier, Radix4TorusTieBreakIsSafeEvenWithoutDatelines) {
  // A radix-4 ring's longest minimal route is exactly half the ring, so
  // every 2-hop flow is an antipodal tie — and the route computer's
  // tie-break sends the {0,2} pair one way around and the {1,3} pair the
  // other. That alternation leaves each directed ring with only half of the
  // dependency edges a cycle would need, so this one radix is provably
  // deadlock-free even with the dateline discipline off. The proof is the
  // point: intuition ("torus without datelines deadlocks") is wrong here.
  const Report rep = verify::verify(torus_no_dateline(4));
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.deadlock_free);
}

// --- the known-deadlocking configuration ------------------------------------

TEST(Verifier, DatelineDisabledTorusReportsTheCycle) {
  // Radix 6: distance-2 ring routes are direction-forced (2 < 4), so the
  // row+ dependency chain closes all the way around the ring.
  const Config c = torus_no_dateline(6);
  const Report rep = verify::verify(c);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.proof_ran);
  EXPECT_FALSE(rep.deadlock_free);
  EXPECT_TRUE(has_code(rep.findings, "cdg-cycle", Severity::kError));
  ASSERT_GE(rep.cycle.size(), 3u);
  // The report renders the cycle as readable channel descriptions.
  EXPECT_NE(rep.cycle.front().find("-->"), std::string::npos);
  EXPECT_NE(rep.to_string().find("DEADLOCK POSSIBLE"), std::string::npos);

  // Re-derive the CDG and check the reported cycle's structure directly:
  // consecutive edges exist, the last edge closes back to the first, and
  // the whole cycle stays within one dimension's rings (row-then-column
  // routing admits no column->row dependencies).
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes);
  const auto cycle = cdg.find_cycle();
  ASSERT_EQ(cycle.size(), rep.cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const int from = cycle[i];
    const int to = cycle[(i + 1) % cycle.size()];
    EXPECT_TRUE(cdg.has_edge(from, to))
        << cdg.describe(from) << " -> " << cdg.describe(to);
  }
  const int dim = topo::dim_of(cdg.channel(cycle.front()).port);
  for (const int id : cycle) {
    const auto& ch = cdg.channel(id);
    ASSERT_NE(ch.port, topo::Port::kTile);
    EXPECT_EQ(topo::dim_of(ch.port), dim) << "cycle crosses dimensions";
  }
}

TEST(Verifier, DatelineDisciplineBreaksTheCycle) {
  Config c = torus_no_dateline(6);
  c.router.enforce_vc_parity = true;
  const Report rep = verify::verify(c);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(rep.deadlock_free);
}

TEST(Verifier, DroppingDowngradesTheCycleToAWarning) {
  Config c = torus_no_dateline(6);
  c.router.flow_control = router::FlowControl::kDropping;
  const Report rep = verify::verify(c);
  // The cyclic dependency exists, but dropping resolves contention by
  // shedding packets instead of blocking, so it is not an error.
  EXPECT_FALSE(rep.deadlock_free);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(has_code(rep.findings, "cdg-cycle", Severity::kWarning));
}

TEST(Verifier, OddVcCountWithParityIsRejectedUpFront) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kTorus;
  c.router.vcs = 3;  // class 1 is the orphan {vc2} pair half
  c.router.scheduled_vc = 0;
  const Report rep = verify::verify(c);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep.findings, "config-vc-parity", Severity::kError));
  // The orphan class cannot even be injected (its odd pair member does not
  // exist), so the producible-traffic model excludes it entirely.
  EXPECT_EQ(verify::dynamic_classes(c), std::vector<int>{0});
}

TEST(Verifier, ExcludedVcLeavesAnEmptyAllocatableSet) {
  // The defensive reachability check in the expansion itself: force class
  // 1's odd member (vc3) out of the dynamic pool and expand a route that
  // crosses a dateline — the post-dateline hop has no VC it may occupy.
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  c.router.scheduled_vc = 3;
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  bool saw_empty_set = false;
  verify::RouteExpansion e;
  for (NodeId s = 0; s < topology->num_nodes() && !saw_empty_set; ++s) {
    for (NodeId d = 0; d < topology->num_nodes() && !saw_empty_set; ++d) {
      if (s == d) continue;
      verify::expand_route(c, routes, s, d, /*service_class=*/1, e);
      for (const std::uint8_t mask : e.vc_masks) {
        if (mask == 0) saw_empty_set = true;
      }
    }
  }
  EXPECT_TRUE(saw_empty_set)
      << "no dateline-crossing route starved: exclusion model is inert";
}

// --- credit-loop arithmetic --------------------------------------------------

TEST(Verifier, CreditStarvedConfigurationFlagged) {
  Config c = Config::paper_baseline();
  c.router.buffer_depth = 1;
  c.link_latency = 3;
  c.router.vcs = 4;
  c.router.scheduled_vc = 3;  // keep the scheduled VC inside the new range
  const Report rep = verify::verify(c);
  EXPECT_EQ(rep.credit_round_trip, 7);  // 2*3 link + 1 router
  EXPECT_NEAR(rep.per_vc_throughput_bound, 1.0 / 7.0, 1e-9);
  // 4 VCs x 1 slot < 7: even all VCs together cannot saturate the link.
  EXPECT_TRUE(has_code(rep.findings, "credit-starved", Severity::kWarning));
  EXPECT_TRUE(rep.ok()) << rep.to_string();  // degraded, not broken
}

TEST(Verifier, PiggybackAddsACycleToTheRoundTrip) {
  Config c = Config::paper_baseline();
  c.router.piggyback_credits = true;
  const Report rep = verify::verify(c);
  EXPECT_EQ(rep.credit_round_trip, 4);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// --- route linter corpus ------------------------------------------------------

class RouteLint : public ::testing::Test {
 protected:
  RouteLint()
      : config_(Config::paper_baseline()),
        topology_(config_.make_topology()),
        routes_(*topology_) {}

  std::vector<Finding> lint(NodeId src, NodeId dst, const SourceRoute& r) {
    return verify::lint_route(config_, routes_, src, dst, r);
  }
  static SourceRoute make(std::initializer_list<std::uint8_t> codes) {
    SourceRoute r;
    for (const auto c : codes) r.push(c);
    return r;
  }

  Config config_;
  std::unique_ptr<topo::Topology> topology_;
  routing::RouteComputer routes_;
};

TEST_F(RouteLint, EveryComputedRouteIsClean) {
  for (NodeId s = 0; s < topology_->num_nodes(); ++s) {
    for (NodeId d = 0; d < topology_->num_nodes(); ++d) {
      const auto findings = lint(s, d, routes_.compute(s, d));
      EXPECT_TRUE(findings.empty())
          << s << "->" << d << ": " << findings.front().message;
    }
  }
}

TEST_F(RouteLint, SelfRouteMustBeEmpty) {
  EXPECT_TRUE(lint(3, 3, SourceRoute{}).empty());
  const auto findings = lint(3, 3, routes_.compute(3, 5));
  EXPECT_TRUE(has_code(findings, "route-self", Severity::kError));
}

TEST_F(RouteLint, EmptyRouteForDistinctPair) {
  const auto findings = lint(0, 5, SourceRoute{});
  EXPECT_TRUE(has_code(findings, "route-empty", Severity::kError));
}

TEST_F(RouteLint, WrongDestinationCaught) {
  // A perfectly well-formed route... to somewhere else.
  const auto findings = lint(0, 5, routes_.compute(0, 1));
  EXPECT_TRUE(has_code(findings, "route-wrong-destination", Severity::kError));
}

TEST_F(RouteLint, RowAfterColumnViolatesDimensionOrder) {
  // Inject column-first, then turn left back into the row dimension.
  const auto r = make({routing::injection_code(topo::Port::kColPos),
                       static_cast<std::uint8_t>(TurnCode::kLeft),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = lint(0, 5, r);
  EXPECT_TRUE(has_code(findings, "route-dimension-order", Severity::kError));
}

TEST_F(RouteLint, MeshBoundaryHopIsOffTopology) {
  Config mesh = config_;
  mesh.topology = TopologyKind::kMesh;
  mesh.router.enforce_vc_parity = false;
  const auto topology = mesh.make_topology();
  const routing::RouteComputer routes(*topology);
  // Node 0 sits on the mesh corner: row- has no link.
  const auto r = make({routing::injection_code(topo::Port::kRowNeg),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = verify::lint_route(mesh, routes, 0, 5, r);
  EXPECT_TRUE(has_code(findings, "route-off-topology", Severity::kError));
}

TEST_F(RouteLint, RouteWithoutExtractCaught) {
  const auto r = make({routing::injection_code(topo::Port::kRowPos)});
  const auto findings = lint(0, 1, r);
  EXPECT_TRUE(has_code(findings, "route-no-extract", Severity::kError));
}

TEST_F(RouteLint, NonMinimalRouteIsAWarning) {
  // The long way around the row ring: 3 hops where 1 suffices.
  Config torus = config_;
  torus.topology = TopologyKind::kTorus;
  const auto topology = torus.make_topology();
  const routing::RouteComputer routes(*topology);
  const NodeId dst = topology->neighbor(0, topo::Port::kRowPos)->dst;
  const auto r = make({routing::injection_code(topo::Port::kRowNeg),
                       static_cast<std::uint8_t>(TurnCode::kStraight),
                       static_cast<std::uint8_t>(TurnCode::kStraight),
                       static_cast<std::uint8_t>(TurnCode::kExtract)});
  const auto findings = verify::lint_route(torus, routes, 0, dst, r);
  EXPECT_TRUE(has_code(findings, "route-non-minimal", Severity::kWarning));
  EXPECT_FALSE(has_code(findings, "route-non-minimal", Severity::kError));
}

TEST_F(RouteLint, OversizedEncodingIsAWarningNotAnError) {
  // Radix-6 mesh corner to corner: 11 entries = 22 bits > the paper's 16.
  // The simulator carries it fine, so the linter warns instead of failing.
  Config mesh = config_;
  mesh.topology = TopologyKind::kMesh;
  mesh.radix = 6;
  mesh.router.enforce_vc_parity = false;
  const auto topology = mesh.make_topology();
  const routing::RouteComputer routes(*topology);
  const NodeId far = topology->num_nodes() - 1;
  const auto route = routes.compute(0, far);
  EXPECT_GT(route.bits_required(), SourceRoute::kPaperRouteBits);
  const auto findings = verify::lint_route(mesh, routes, 0, far, route);
  EXPECT_TRUE(has_code(findings, "route-overflow", Severity::kWarning));
  EXPECT_FALSE(std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  }));
}

// --- route expansion (the static model the monitor checks against) ----------

TEST(Expansion, DatelineDisciplineYieldsSingletonVcSets) {
  const Config c = Config::paper_baseline();
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  bool saw_odd_after_dateline = false;
  verify::RouteExpansion e;
  for (NodeId s = 0; s < topology->num_nodes(); ++s) {
    for (NodeId d = 0; d < topology->num_nodes(); ++d) {
      if (s == d) continue;
      verify::expand_route(c, routes, s, d, /*service_class=*/1, e);
      ASSERT_FALSE(e.empty());
      ASSERT_EQ(e.vc_masks.size(), e.hops());
      bool crossed = false;
      for (std::size_t i = 0; i < e.hops(); ++i) {
        if (e.ports[i] == topo::Port::kTile) {
          // Ejection ignores parity: both pair members stay eligible.
          EXPECT_EQ(e.vc_masks[i], 0b1100);
          continue;
        }
        ASSERT_EQ(std::popcount(e.vc_masks[i]), 1);
        if (topology->crosses_dateline(e.nodes[i], e.ports[i])) crossed = true;
        if (crossed && e.allows(i, 3)) saw_odd_after_dateline = true;
      }
      // Entry into the network starts on the even VC of the class — unless
      // the very first hop already crosses a dateline.
      if (e.ports[0] != topo::Port::kTile &&
          !topology->crosses_dateline(s, e.ports[0])) {
        EXPECT_EQ(e.vc_masks[0], 0b0100);
      }
    }
  }
  EXPECT_TRUE(saw_odd_after_dateline)
      << "no route ever switched to the odd VC: dateline model is inert";
}

TEST(Expansion, ScheduledRoutesRideTheDedicatedVc) {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  verify::RouteExpansion e;
  verify::expand_scheduled_route(c, routes, 0, 15, e);
  ASSERT_FALSE(e.empty());
  for (const std::uint8_t mask : e.vc_masks) {
    EXPECT_EQ(mask, 1u << c.router.scheduled_vc);
  }
}

// --- CDG representation: one out-set word per channel ------------------------

TEST(Cdg, PaperBaselineSizes) {
  const Config c = Config::paper_baseline();
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes);
  EXPECT_EQ(cdg.num_channels(), 640);  // 16 routers x 5 ports x 8 VCs
  EXPECT_EQ(cdg.num_edges(), 896);
  // The popcount total and the per-pair bit test describe the same graph.
  std::int64_t edges = 0;
  for (int from = 0; from < cdg.num_channels(); ++from) {
    for (int to = 0; to < cdg.num_channels(); ++to) {
      if (cdg.has_edge(from, to)) ++edges;
    }
  }
  EXPECT_EQ(edges, cdg.num_edges());
}

TEST(Cdg, HasEdgeRejectsWhatNoRouteProduces) {
  const Config c = Config::paper_baseline();
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes);
  // A real dependency: the first two links of the longest route from node 0.
  verify::RouteExpansion e;
  NodeId far = 1;
  for (NodeId d = 1; d < topology->num_nodes(); ++d) {
    if (routes.hop_count(0, d) > routes.hop_count(0, far)) far = d;
  }
  verify::expand_route(c, routes, 0, far, /*service_class=*/0, e);
  ASSERT_GE(e.hops(), 3u);
  const int from = cdg.channel_id(e.nodes[0], e.ports[0],
                                  std::countr_zero(e.vc_masks[0]));
  const int to = cdg.channel_id(e.nodes[1], e.ports[1],
                                std::countr_zero(e.vc_masks[1]));
  ASSERT_GE(from, 0);
  ASSERT_GE(to, 0);
  ASSERT_TRUE(cdg.has_edge(from, to));

  EXPECT_FALSE(cdg.has_edge(-1, to));
  EXPECT_FALSE(cdg.has_edge(from, -1));
  EXPECT_FALSE(cdg.has_edge(cdg.num_channels(), to));
  // The reverse dependency is not produced by any route.
  EXPECT_FALSE(cdg.has_edge(to, from));
  // Same port and VC as `to`, but at a router the link of `from` does not
  // enter: the out-set bit matches, the node does not.
  const auto& head = cdg.channel(to);
  for (NodeId n = 0; n < topology->num_nodes(); ++n) {
    if (n == head.src) continue;
    const int other = cdg.channel_id(n, head.port, head.vc);
    if (other < 0) continue;
    EXPECT_FALSE(cdg.has_edge(from, other)) << cdg.describe(other);
  }
}

TEST(Cdg, EveryFirstHopChannelIsAStart) {
  Config c = Config::paper_baseline();
  c.router.exclusive_scheduled_vc = true;
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes);
  verify::RouteExpansion e;
  for (NodeId s = 0; s < topology->num_nodes(); ++s) {
    for (NodeId d = 0; d < topology->num_nodes(); ++d) {
      if (s == d) continue;
      for (const int cls : verify::dynamic_classes(c)) {
        verify::expand_route(c, routes, s, d, cls, e);
        ASSERT_FALSE(e.empty());
        for (VcId v = 0; v < c.router.vcs; ++v) {
          if (!e.allows(0, v)) continue;
          EXPECT_TRUE(cdg.is_start(cdg.channel_id(e.nodes[0], e.ports[0], v)))
              << s << "->" << d << " class " << cls << " vc" << v;
        }
      }
      verify::expand_scheduled_route(c, routes, s, d, e);
      EXPECT_TRUE(cdg.is_start(
          cdg.channel_id(e.nodes[0], e.ports[0], c.router.scheduled_vc)));
    }
  }
}

// --- golden verifier matrix --------------------------------------------------

// Every verdict the verifier prints over the golden matrix: topology x vcs
// {1,2,3,4,8} x dateline parity x dropping x exclusive scheduled VC at radix
// {3,4,5,8}, then the radix-6 dateline-disabled torus whose witness the CDG
// tests replay. Each config is one "== ..." header, the full report text and
// one "cycle: " line per witness channel.
std::string verify_matrix_text() {
  struct Topo {
    core::TopologyKind kind;
    const char* name;
  };
  const Topo topos[] = {{core::TopologyKind::kFoldedTorus, "folded_torus"},
                        {core::TopologyKind::kTorus, "torus"},
                        {core::TopologyKind::kMesh, "mesh"}};
  std::string out;
  auto emit = [&](const core::Config& c, const char* topo_name) {
    out += "== " + std::string(topo_name) + " K=" + std::to_string(c.radix) +
           " vcs=" + std::to_string(c.router.vcs) +
           " parity=" + std::to_string(c.router.enforce_vc_parity) +
           " dropping=" + std::to_string(c.router.dropping()) +
           " exclusive=" + std::to_string(c.router.exclusive_scheduled_vc) +
           "\n";
    const verify::Report rep = verify::verify(c);
    out += rep.to_string();
    for (const auto& ch : rep.cycle) out += "cycle: " + ch + "\n";
  };
  for (const int radix : {3, 4, 5, 8}) {
    for (const Topo& t : topos) {
      for (const int vcs : {1, 2, 3, 4, 8}) {
        for (const bool parity : {true, false}) {
          for (const bool dropping : {false, true}) {
            for (const bool exclusive : {false, true}) {
              core::Config c = core::Config::paper_baseline();
              c.topology = t.kind;
              c.radix = radix;
              c.router.vcs = vcs;
              c.router.scheduled_vc = vcs - 1;
              c.router.enforce_vc_parity = parity;
              if (dropping) c.router.flow_control = router::FlowControl::kDropping;
              c.router.exclusive_scheduled_vc = exclusive;
              emit(c, t.name);
            }
          }
        }
      }
    }
  }
  core::Config c = core::Config::paper_baseline();
  c.topology = core::TopologyKind::kTorus;
  c.radix = 6;
  c.router.enforce_vc_parity = false;
  emit(c, "torus");
  return out;
}

std::string read_golden_matrix() {
  std::ifstream in(std::string(OCN_TEST_DATA_DIR) + "/verify_matrix_golden.txt");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Verifier, MatrixReportsMatchGolden) {
  const std::string golden = read_golden_matrix();
  ASSERT_FALSE(golden.empty()) << "tests/data/verify_matrix_golden.txt missing";
  const std::string actual = verify_matrix_text();
  if (actual == golden) return;
  // Point at the first differing line instead of dumping both files.
  std::istringstream a(actual), g(golden);
  std::string la, lg, header;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_g = static_cast<bool>(std::getline(g, lg));
    if (!more_a && !more_g) break;
    if (more_g && lg.rfind("== ", 0) == 0) header = lg;
    if (!more_a || !more_g || la != lg) {
      FAIL() << "line " << line << " (config " << header << ")\n  golden: "
             << (more_g ? lg : "<eof>") << "\n  actual: "
             << (more_a ? la : "<eof>");
    }
  }
}

TEST(Cdg, Radix6WitnessMatchesGolden) {
  // The dateline-disabled radix-6 torus (ocn-verify --topology torus
  // --no-vc-parity --radix 6): the DFS must close the same cycle, channel
  // for channel and in the same order, as the recorded verifier did.
  const std::string golden = read_golden_matrix();
  const std::string header =
      "== torus K=6 vcs=8 parity=0 dropping=0 exclusive=0\n";
  const auto at = golden.find(header);
  ASSERT_NE(at, std::string::npos);
  std::istringstream section(golden.substr(at + header.size()));
  std::vector<std::string> expected;
  for (std::string line; std::getline(section, line) && line.rfind("== ", 0) != 0;) {
    if (line.rfind("cycle: ", 0) == 0) expected.push_back(line.substr(7));
  }
  ASSERT_EQ(expected.size(), 6u);

  const Config c = torus_no_dateline(6);
  const auto topology = c.make_topology();
  const routing::RouteComputer routes(*topology);
  const verify::Cdg cdg(c, routes);
  std::vector<std::string> actual;
  for (const int id : cdg.find_cycle()) actual.push_back(cdg.describe(id));
  EXPECT_EQ(actual, expected);
}

// --- hardened Config::validate ----------------------------------------------

TEST(ConfigValidate, RejectsRoutesWiderThanTheEncoder) {
  Config c = Config::paper_baseline();
  c.topology = TopologyKind::kMesh;
  c.router.enforce_vc_parity = false;
  c.radix = 64;  // worst route: 2*63+1 = 127 entries, still fits 128
  EXPECT_NO_THROW(c.validate());
  c.radix = 65;  // 129 entries
  try {
    c.validate();
    FAIL() << "radix-65 mesh must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("route entries"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidate, RejectsDroppingWithDatelineParity) {
  Config c = Config::paper_baseline();
  c.router.flow_control = router::FlowControl::kDropping;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.router.enforce_vc_parity = false;
  c.topology = TopologyKind::kMesh;
  EXPECT_NO_THROW(c.validate());
}

TEST(ConfigValidate, MessagesNameTheOffendingValue) {
  Config c = Config::paper_baseline();
  c.router.vcs = 9;
  try {
    c.validate();
    FAIL() << "vcs=9 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("9"), std::string::npos) << e.what();
  }
}

// --- runtime protocol monitor -------------------------------------------------

TEST(Monitor, CleanTrafficProducesNoViolations) {
  verify::VerifiedNetwork vnet(Config::paper_baseline());
  EXPECT_TRUE(vnet.report().deadlock_free);
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.25;
  opt.warmup = 100;
  opt.measure = 1500;
  opt.seed = 11;
  traffic::LoadHarness harness(vnet.network(), opt);
  const auto r = harness.run();
  EXPECT_TRUE(r.drained);
  const auto& mon = vnet.monitor();
  EXPECT_TRUE(mon.ok()) << mon.violations().front();
  EXPECT_GT(mon.hops_checked(), 0);
  EXPECT_GT(mon.credit_checks(), 0);
  EXPECT_EQ(mon.packets_in_flight(), 0u);
}

TEST(Monitor, VerifiedNetworkRefusesAnUnprovableConfig) {
  try {
    verify::VerifiedNetwork vnet(torus_no_dateline(6));
    FAIL() << "construction must throw on a failed proof";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DEADLOCK POSSIBLE"), std::string::npos) << what;
    EXPECT_NE(what.find("cdg-cycle"), std::string::npos) << what;
  }
}

TEST(Monitor, RogueFlitOnForbiddenVcIsFlagged) {
  core::Network net(Config::paper_baseline());
  verify::RuntimeMonitor monitor(net);
  ASSERT_TRUE(monitor.ok());

  // Hand-craft a class-0 flit occupying vc5 — a VC its mask forbids — and
  // drive it through a router output behind the allocator's back.
  const auto port = topo::Port::kRowPos;
  const auto link = net.topology().neighbor(0, port);
  ASSERT_TRUE(link.has_value());
  router::Flit f;
  f.type = router::FlitType::kHeadTail;
  f.vc = 5;
  f.vc_mask = core::vc_mask_for_class(0);
  f.src = 0;
  f.dst = link->dst;
  f.packet = 0x7e57;
  f.route.push(static_cast<std::uint8_t>(TurnCode::kExtract));
  auto& out = net.router_at(0).output(port);
  out.consume_credit(5);  // keep the credit books balanced downstream
  out.stage_push(0, f);
  net.run(4);

  EXPECT_FALSE(monitor.ok());
  EXPECT_GE(monitor.violation_count(), 1);
  ASSERT_FALSE(monitor.violations().empty());
}

TEST(Monitor, DetachesCleanly) {
  core::Network net(Config::paper_baseline());
  {
    verify::RuntimeMonitor monitor(net);
    EXPECT_EQ(monitor.cdg().find_cycle().size(), 0u);
  }
  // Monitor destroyed: the network must still simulate unobserved.
  ASSERT_TRUE(net.nic(0).inject(core::make_word_packet(5, 0, 0xabc), net.now()));
  EXPECT_TRUE(net.drain(1000));
  EXPECT_EQ(net.stats().packets_delivered, 1);
}

}  // namespace
}  // namespace ocn
