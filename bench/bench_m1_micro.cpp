// M1 — Simulator micro-benchmarks (google-benchmark).
//
// Not a paper experiment: tracks the cost of the core operations so
// performance regressions in the simulator itself are visible. The custom
// main wraps google-benchmark so the run doubles as an ocn-bench-report:
// BenchReporter strips --json/--quick first, then the remaining argv is
// forwarded to benchmark::Initialize untouched, so all --benchmark_* flags
// still work. The recorded per-op times are wall-clock dependent, so the
// committed baseline for this bench is compared schema-only (key presence,
// not values) — see scripts/bench_compare.py --schema-only.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bench/common.h"
#include "core/fault.h"
#include "core/network.h"
#include "obs/counters.h"
#include "routing/route_computer.h"
#include "sim/rng.h"
#include "topo/folded_torus.h"
#include "traffic/patterns.h"

using namespace ocn;

namespace {

void BM_NetworkStepIdle(benchmark::State& state) {
  core::Config c = core::Config::paper_baseline();
  c.radix = static_cast<int>(state.range(0));
  core::Network net(c);
  for (auto _ : state) net.step();
  state.SetItemsProcessed(state.iterations() * net.num_nodes());
}
BENCHMARK(BM_NetworkStepIdle)->Arg(4)->Arg(8);

void BM_NetworkStepLoaded(benchmark::State& state) {
  core::Config c = core::Config::paper_baseline();
  core::Network net(c);
  Rng rng(1);
  traffic::TrafficPattern pattern(traffic::Pattern::kUniform, net.topology());
  for (auto _ : state) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      if (rng.bernoulli(0.2)) {
        net.nic(n).inject(core::make_word_packet(pattern.destination(n, rng), 0, 1),
                          net.now());
      }
    }
    net.step();
  }
  state.SetItemsProcessed(state.iterations() * net.num_nodes());
}
BENCHMARK(BM_NetworkStepLoaded);

// Same loop as BM_NetworkStepLoaded but with the full counter registry
// attached (per-router gauges + kernel counters + interval sampling off).
// The items/s gap between the two is the observability overhead; the
// acceptance bar is within a few percent.
void BM_NetworkStepLoadedMetrics(benchmark::State& state) {
  core::Config c = core::Config::paper_baseline();
  core::Network net(c);
  obs::CounterRegistry registry;
  net.register_metrics(registry);
  Rng rng(1);
  traffic::TrafficPattern pattern(traffic::Pattern::kUniform, net.topology());
  for (auto _ : state) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      if (rng.bernoulli(0.2)) {
        net.nic(n).inject(core::make_word_packet(pattern.destination(n, rng), 0, 1),
                          net.now());
      }
    }
    net.step();
  }
  benchmark::DoNotOptimize(net.kernel().sample());
  state.SetItemsProcessed(state.iterations() * net.num_nodes());
}
BENCHMARK(BM_NetworkStepLoadedMetrics);

void BM_RouteCompute(benchmark::State& state) {
  const topo::FoldedTorus topo(8, 3.0);
  const routing::RouteComputer rc(topo);
  Rng rng(2);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(rng.next_below(64));
    auto d = static_cast<NodeId>(rng.next_below(63));
    if (d >= s) ++d;
    benchmark::DoNotOptimize(rc.compute(s, d));
  }
}
BENCHMARK(BM_RouteCompute);

void BM_SteeredLinkTransmit(benchmark::State& state) {
  core::SteeredLink link(256, 1);
  link.inject_stuck_at(100, true);
  link.configure_steering();
  std::vector<bool> bits(256);
  Rng rng(3);
  for (auto&& b : bits) b = rng.bernoulli(0.5);
  for (auto _ : state) benchmark::DoNotOptimize(link.transmit(bits));
}
BENCHMARK(BM_SteeredLinkTransmit);

void BM_RngU64(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngU64);

// Sharded-kernel scaling cell: a 64x64 fabric under uniform-random load,
// timed wall-clock at 1 shard and at 4 shards. The headline number is
// delivered flits per second of wall clock; the sharded kernel's contract
// is bit-identical results, so the delivered-flit counts must match across
// shard counts and only the wall time may differ. Single-core hosts will
// show speedup <= 1 (barrier overhead, no parallelism) — the cell measures,
// it does not assert.
struct ShardCellResult {
  std::int64_t flits = 0;
  double seconds = 0.0;
};

ShardCellResult run_shard_cell(int shards, int radix, Cycle cycles,
                               double inject_rate = 0.05) {
  core::Config c = core::Config::paper_baseline();
  c.radix = radix;
  core::Network net(c, shards);
  ShardCellResult r;
  net.set_delivery_observer(
      [&r](const core::Packet& p) { r.flits += p.num_flits(); });
  Rng rng(7);
  traffic::TrafficPattern pattern(traffic::Pattern::kUniform, net.topology());
  const auto t0 = std::chrono::steady_clock::now();
  for (Cycle t = 0; t < cycles; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      if (rng.bernoulli(inject_rate)) {
        net.nic(n).inject(
            core::make_word_packet(pattern.destination(n, rng), 0, 1),
            net.now());
      }
    }
    net.step();
  }
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

// Saturation-load throughput cell: a 64x64 fabric driven past its
// saturation point (offered load well above the uniform-random capacity),
// single shard — this measures the router hot path itself, not parallel
// scaling. The headline number is delivered Mflit per wall-clock second,
// recorded as a first-class perf_metric ("perf_metrics" in the report
// schema): CI gates it with a conservative floor via
// bench_compare.py --min-metric, while the delivered-flit count stays a
// deterministic, value-compared metric.
std::int64_t run_saturation_cell(bench::BenchReporter& rep) {
  rep.section("saturation-load hot path (64x64, single shard)");
  const Cycle cycles = rep.quick() ? 40 : 200;
  const ShardCellResult r = run_shard_cell(1, 64, cycles, /*inject_rate=*/0.5);
  const double mflits =
      r.seconds > 0 ? static_cast<double>(r.flits) / r.seconds / 1e6 : 0.0;
  TablePrinter t({"cycles", "flits", "wall_s", "Mflit_per_s_wall"});
  t.add_row({std::to_string(cycles), std::to_string(r.flits),
             bench::fmt(r.seconds, 3), bench::fmt(mflits, 3)});
  rep.table("saturation64", t);
  rep.metric("saturation64.flits", static_cast<double>(r.flits));
  rep.perf_metric("mflits_per_sec.saturation64", mflits);
  return cycles;
}

std::int64_t run_shard_scaling(bench::BenchReporter& rep) {
  rep.section("sharded-kernel scaling (64x64 uniform random)");
  const int radix = 64;
  const Cycle cycles = rep.quick() ? 48 : 240;
  std::int64_t simulated = 0;
  TablePrinter t({"shards", "cycles", "flits", "wall_s", "flits_per_sec_wall"});
  double base_flits_per_sec = 0.0;
  std::int64_t base_flits = -1;
  bool flits_match = true;
  for (const int shards : {1, 4}) {
    const ShardCellResult r = run_shard_cell(shards, radix, cycles);
    simulated += cycles;
    const double fps =
        r.seconds > 0 ? static_cast<double>(r.flits) / r.seconds : 0.0;
    t.add_row({std::to_string(shards), std::to_string(cycles),
               std::to_string(r.flits), bench::fmt(r.seconds, 3),
               bench::fmt(fps, 0)});
    if (base_flits < 0) {
      base_flits = r.flits;
      base_flits_per_sec = fps;
    } else if (r.flits != base_flits) {
      flits_match = false;
    }
    // Flit counts are seed-deterministic and shard-invariant; wall-clock
    // derived rates are note()s so the committed baseline stays stable.
    rep.metric("shard_scaling.flits.shards" + std::to_string(shards),
               static_cast<double>(r.flits));
    rep.note("flits_per_sec_wall.shards" + std::to_string(shards),
             bench::fmt(fps, 0));
    if (base_flits_per_sec > 0 && shards > 1) {
      rep.note("shard_speedup.shards" + std::to_string(shards),
               bench::fmt(fps / base_flits_per_sec, 2));
    }
  }
  rep.table("shard_scaling", t);
  rep.verdict("shard determinism (delivered flits, 1 vs 4 shards)", "equal",
              flits_match ? "equal" : "DIFFER", flits_match);
  return simulated;
}

/// ConsoleReporter that also captures every run for the JSON report.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) captured_.push_back(r);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter rep(argc, argv, "M1", "Simulator micro-benchmarks",
                           "simulator hot-path cost tracking; metrics overhead "
                           "within a few percent of the plain step loop");

  // Quick mode shortens each benchmark's measurement window. Injected before
  // user flags so an explicit --benchmark_min_time still wins.
  std::vector<char*> args;
  args.push_back(argv[0]);
  char min_time[] = "--benchmark_min_time=0.05";
  if (rep.quick()) args.push_back(min_time);
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return rep.finish(2);
  }

  CaptureReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Wall-clock dependent values go in perf_metrics: the comparison checks
  // that each key is present and never diffs the numbers.
  double plain_items = 0.0, metrics_items = 0.0;
  for (const auto& r : reporter.runs()) {
    if (r.error_occurred) continue;
    const std::string name = r.benchmark_name();
    rep.perf_metric("ns_per_op." + name, r.GetAdjustedRealTime());
    const auto it = r.counters.find("items_per_second");
    if (it != r.counters.end()) {
      rep.perf_metric("items_per_sec." + name, it->second.value);
      if (name == "BM_NetworkStepLoaded") plain_items = it->second.value;
      if (name == "BM_NetworkStepLoadedMetrics") metrics_items = it->second.value;
    }
  }
  if (plain_items > 0 && metrics_items > 0) {
    // Wall-clock noise makes this an unreliable pass/fail gate, so it is a
    // note rather than a verdict; the regression check compares whole builds.
    const double overhead = plain_items / metrics_items - 1.0;
    rep.note("metrics_overhead_percent", bench::fmt(100.0 * overhead, 2));
  }
  std::int64_t simulated = run_shard_scaling(rep);
  simulated += run_saturation_cell(rep);

  rep.note("benchmarks_run", std::to_string(ran));
  rep.timing(simulated);
  return rep.finish(ran > 0 ? 0 : 1);
}
