// Sharded-kernel determinism: the kernel's contract is bit-identical
// execution for every shard count. The matrix here replays the same recorded
// trace at shards 1, 2, 4 and the radix (one row per shard) and demands the
// identical delivery sequence (order AND cycles), identical per-link flit
// event stream, and identical final counters — the same golden-replay bar
// tests/test_replay.cpp sets for serialization round-trips. Registered under
// the `sweep` ctest label so the tsan preset races the shard workers.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "core/network.h"
#include "core/trace.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "traffic/generator.h"
#include "traffic/replay.h"

namespace ocn {
namespace {

using core::Config;
using core::Network;
using traffic::parse_trace;
using traffic::TraceReplay;

// --- Golden replay at N shards -----------------------------------------
// Mirror of test_replay.cpp's run_recorded, parameterized on the shard
// count, plus the kernel's work counters, which are shard-invariant too.

struct GoldenRun {
  std::vector<std::string> deliveries;  // "cycle:src->dst id payload"
  std::string link_events;              // TraceRecorder CSV, every traversal
  Cycle end_cycle = 0;
  std::int64_t delivered = 0;
  std::int64_t flits_delivered = 0;
  std::int64_t component_steps = 0;
  std::int64_t channel_advances = 0;
};

GoldenRun run_sharded(const std::string& csv, int shards, bool chaos_kill) {
  Config c = Config::paper_baseline();
  if (chaos_kill) c.fault_layer = true;
  Network net(c, shards);
  EXPECT_EQ(net.shards(), shards);
  obs::CounterRegistry work;
  net.kernel().attach_metrics(&work);
  core::TraceRecorder recorder;
  net.enable_tracing(&recorder);
  GoldenRun out;
  net.set_delivery_observer([&](const core::Packet& p) {
    out.deliveries.push_back(
        std::to_string(net.now()) + ":" + std::to_string(p.src) + "->" +
        std::to_string(p.dst) + " id=" + std::to_string(p.id) +
        " pay=" + std::to_string(p.flit_payloads[0][0]));
  });
  TraceReplay replay(net, parse_trace(csv));
  replay.start();
  for (int t = 0; t < 20000; ++t) {
    if (chaos_kill && net.now() == 70) {
      const auto report = chaos::kill_link(net, 0, topo::Port::kRowPos);
      EXPECT_TRUE(report.committed);
    }
    net.step();
    if (replay.finished() && net.idle()) break;
  }
  EXPECT_TRUE(replay.finished());
  EXPECT_TRUE(net.idle());
  out.end_cycle = net.now();
  out.delivered = net.stats().packets_delivered;
  out.flits_delivered = net.stats().flits_delivered;
  out.link_events = recorder.to_csv();
  out.component_steps = work.counter("kernel.component_steps").value();
  out.channel_advances = work.counter("kernel.channel_advances").value();
  return out;
}

void expect_identical(const GoldenRun& a, const GoldenRun& b, int shards) {
  EXPECT_EQ(a.end_cycle, b.end_cycle) << "shards=" << shards;
  EXPECT_EQ(a.delivered, b.delivered) << "shards=" << shards;
  EXPECT_EQ(a.flits_delivered, b.flits_delivered) << "shards=" << shards;
  EXPECT_EQ(a.component_steps, b.component_steps) << "shards=" << shards;
  EXPECT_EQ(a.channel_advances, b.channel_advances) << "shards=" << shards;
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << "shards=" << shards;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    ASSERT_EQ(a.deliveries[i], b.deliveries[i])
        << "delivery #" << i << " shards=" << shards;
  }
  EXPECT_EQ(a.link_events, b.link_events) << "shards=" << shards;
}

std::string matrix_csv(std::uint64_t seed) {
  return traffic::trace_to_csv(traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/8, /*burst_len=*/3,
      /*period=*/40, seed));
}

TEST(ShardedDeterminism, MatrixMatchesSingleShardExactly) {
  const std::string csv = matrix_csv(101);
  const GoldenRun base = run_sharded(csv, /*shards=*/1, /*chaos_kill=*/false);
  ASSERT_GT(base.delivered, 0);
  ASSERT_FALSE(base.link_events.empty());
  // paper_baseline is radix 4: one row per shard at the top of the range.
  for (const int shards : {2, 4}) {
    const GoldenRun run = run_sharded(csv, shards, /*chaos_kill=*/false);
    expect_identical(base, run, shards);
  }
}

TEST(ShardedDeterminism, KillLinkMatrixMatchesSingleShardExactly) {
  const std::string csv = matrix_csv(103);
  const GoldenRun base = run_sharded(csv, /*shards=*/1, /*chaos_kill=*/true);
  ASSERT_GT(base.delivered, 0);
  for (const int shards : {2, 4}) {
    const GoldenRun run = run_sharded(csv, shards, /*chaos_kill=*/true);
    expect_identical(base, run, shards);
  }
}

// A channel crossing shards is skipped by the same rule as any other: once
// its one value is delivered, idle ticks advance nothing.
TEST(ShardedDeterminism, IdleCrossShardChannelIsSkipped) {
  struct Sender final : Clockable {
    Channel<int>* out = nullptr;
    void step(Cycle now) override {
      if (now == 0) out->send(7);
    }
  };
  struct Receiver final : Clockable {
    Channel<int>* in = nullptr;
    std::vector<Cycle> arrivals;
    void step(Cycle now) override {
      if (in->take()) arrivals.push_back(now);
    }
  };
  Channel<int> ch(2, "cross");
  Sender sender;
  sender.out = &ch;
  Receiver receiver;
  receiver.in = &ch;
  Kernel k(2);
  obs::CounterRegistry reg;
  k.attach_metrics(&reg);
  k.add(0, &sender);
  k.add(1, &receiver);
  k.add(1, &ch);  // filed under the receiver's shard
  k.run(3);       // sent in cycle 0, advanced twice, taken in cycle 2
  EXPECT_EQ(receiver.arrivals, std::vector<Cycle>{2});
  EXPECT_EQ(reg.counter("kernel.channel_advances").value(), 2);
  for (int i = 0; i < 8; ++i) {
    k.tick();
    EXPECT_EQ(k.last_tick_advanced(), 0) << "idle tick " << i;
  }
  EXPECT_EQ(receiver.arrivals.size(), 1u);
  EXPECT_EQ(reg.counter("kernel.channel_advances").value(), 2);
}

// Network::step() is kernel().tick(): driving the kernel directly must move
// the routers and NICs at every shard count, not only the global
// components registered on it (the traffic replay here), and must give the
// same deliveries (order and cycles) and statistics as net.run().
TEST(ShardedDeterminism, KernelRunEqualsNetworkRun) {
  const std::string csv = matrix_csv(107);
  for (const int shards : {1, 2, 4}) {
    auto run = [&](bool through_kernel) {
      Network net(Config::paper_baseline(), shards);
      std::vector<std::string> log;
      net.set_delivery_observer([&](const core::Packet& p) {
        log.push_back(std::to_string(net.now()) + ":" + std::to_string(p.src) +
                      "->" + std::to_string(p.dst) + " id=" + std::to_string(p.id));
      });
      TraceReplay replay(net, parse_trace(csv));
      replay.start();
      if (through_kernel) {
        net.kernel().run(600);
      } else {
        net.run(600);
      }
      return std::make_pair(log, net.stats());
    };
    const auto [net_log, net_stats] = run(false);
    const auto [kernel_log, kernel_stats] = run(true);
    ASSERT_GT(net_stats.packets_delivered, 0) << "shards=" << shards;
    EXPECT_EQ(kernel_log, net_log) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.packets_injected, net_stats.packets_injected) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.packets_delivered, net_stats.packets_delivered) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.flits_delivered, net_stats.flits_delivered) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.buffer_writes, net_stats.buffer_writes) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.latency.sum(), net_stats.latency.sum()) << "shards=" << shards;
    EXPECT_EQ(kernel_stats.hops.sum(), net_stats.hops.sum()) << "shards=" << shards;
  }
}

// Shard counts above the row count clamp to the radix rather than creating
// empty shards; the env knob feeds the same resolver.
TEST(ShardedDeterminism, ShardCountClampsToRadix) {
  Config c = Config::paper_baseline();  // radix 4
  Network net(c, 64);
  EXPECT_EQ(net.shards(), 4);
  Network one(c, -3);
  EXPECT_EQ(one.shards(), 1);
}

// The row-strip partition: monotone in y, covers [0, shards), and tile
// channels never cross a boundary (a node's NIC and router share a shard by
// construction).
TEST(ShardedDeterminism, RowStripPartitionIsMonotoneAndComplete) {
  Config c = Config::paper_baseline();
  c.radix = 8;
  Network net(c, 4);
  ASSERT_EQ(net.shards(), 4);
  std::vector<int> rows_seen(4, 0);
  int prev = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const int s = net.shard_of(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++rows_seen[static_cast<std::size_t>(s)];
    // node ids are row-major, so the shard index never decreases.
    ASSERT_GE(s, prev);
    prev = s;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(rows_seen[static_cast<std::size_t>(s)], 16) << "shard " << s;
  }
}

// The open-loop load harness folds per-shard delivery statistics in shard
// order, so every derived number — including the floating-point latency
// moments — is bit-identical across shard counts.
TEST(ShardedDeterminism, LoadHarnessStatsAreBitIdentical) {
  traffic::HarnessOptions opt;
  opt.injection_rate = 0.1;
  opt.warmup = 100;
  opt.measure = 400;
  opt.seed = 7;

  auto run_at = [&](int shards) {
    Network net(Config::paper_baseline(), shards);
    traffic::LoadHarness harness(net, opt);
    return harness.run();
  };
  const traffic::HarnessResult base = run_at(1);
  ASSERT_GT(base.measured_packets, 0);
  for (const int shards : {2, 4}) {
    const traffic::HarnessResult r = run_at(shards);
    EXPECT_EQ(r.measured_packets, base.measured_packets) << shards;
    EXPECT_EQ(r.offered_flits, base.offered_flits) << shards;
    EXPECT_EQ(r.accepted_flits, base.accepted_flits) << shards;
    EXPECT_EQ(r.avg_latency, base.avg_latency) << shards;
    EXPECT_EQ(r.stddev_latency, base.stddev_latency) << shards;
    EXPECT_EQ(r.p99_latency, base.p99_latency) << shards;
    EXPECT_EQ(r.avg_hops, base.avg_hops) << shards;
    EXPECT_TRUE(r.drained) << shards;
  }
}

// The OCN_SIM_SHARDS env default kicks in only when the constructor is not
// given an explicit count.
TEST(ShardedDeterminism, EnvKnobSetsDefaultShardCount) {
  ASSERT_EQ(setenv("OCN_SIM_SHARDS", "2", 1), 0);
  Network from_env(Config::paper_baseline());
  EXPECT_EQ(from_env.shards(), 2);
  Network explicit_count(Config::paper_baseline(), 4);
  EXPECT_EQ(explicit_count.shards(), 4);
  ASSERT_EQ(unsetenv("OCN_SIM_SHARDS"), 0);
  Network plain(Config::paper_baseline());
  EXPECT_EQ(plain.shards(), 1);
}

// End-to-end referee smoke: the shard-lockstep harness compares the full
// observable state vector every cycle and must report zero divergences on a
// clean baseline cell.
TEST(ShardedDeterminism, ShardLockstepSmoke) {
  const Config c = Config::paper_baseline();
  const auto trace = traffic::synthesize_soc_trace(
      /*nodes=*/16, /*flows=*/8, /*bursts=*/4, /*burst_len=*/3,
      /*period=*/40, /*seed=*/11);
  const ref::DiffResult r =
      ref::run_shard_lockstep(c, ref::Scenario{}, trace, /*shards=*/4,
                              /*max_cycles=*/20000);
  EXPECT_FALSE(r.diverged) << r.divergence.to_string();
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.deliveries, 0);
  EXPECT_THROW(
      ref::run_shard_lockstep(c, ref::Scenario{}, trace, 1, 100),
      std::invalid_argument);
}

// One campaign point per cell over the quick matrix keeps the referee wired
// into the same grid the CLI runs, without CI-visible runtime.
TEST(ShardedDeterminism, ShardCampaignQuickMatrixOneSeed) {
  ref::CampaignOptions co;
  co.seeds = 1;
  co.trace_cycles = 200;
  co.threads = 2;
  const ref::CampaignResult result =
      ref::run_shard_campaign(ref::quick_matrix(), co, /*shards=*/4);
  EXPECT_EQ(result.diverged, 0);
  EXPECT_GT(result.deliveries, 0);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f.cell << " seed " << f.seed << "\n"
                  << f.divergence.to_string();
  }
}

}  // namespace
}  // namespace ocn
