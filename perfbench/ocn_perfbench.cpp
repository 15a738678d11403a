// ocn_perfbench — the libocn benchmark program.
//
//   ocn_perfbench --workload sat64|light64|sweep16|diff --seed N
//                 --seconds S --trace 0|1 [--shards N]
//
// One process runs one workload. Work is open-loop in simulated time and
// sized from --seconds by fixed per-workload constants (never from the
// host's speed), so a seed and a length always simulate the same cycles and
// every deterministic count repeats exactly. The program calls libocn only
// through its public API and checks every output it counts:
//
//   sat64, light64  an operation is a delivered packet; each packet carries
//                   (src, seq, dst) in its payload and must reach dst
//                   exactly once (light64 also drains and must conserve
//                   flits).
//   sweep16         an operation is a load point of SweepRunner::run; each
//                   must drain and conserve packets.
//   diff            an operation is a lockstep point of ref::run_campaign;
//                   each must agree with the reference model and drain.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same work
// twice, untraced then traced, and prints per-layer metrics: self time of
// every span recorded around the library calls, deterministic counts, the
// tracing overhead (traced minus untraced wall time of the same work) and
// the share of wall time no span covers. Spans are kept in memory and
// written to .bench_build/perfbench-trace-<workload>-<seed>.json at exit.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Its metrics are the ones every workload reports (BENCHMARK.json
// lists them); readings of layers only some workloads cross are printed
// before it as `# name value unit` lines.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/analyzer.h"
#include "core/config.h"
#include "core/interface.h"
#include "core/network.h"
#include "obs/counters.h"
#include "ref/campaign.h"
#include "ref/diff.h"
#include "router/flit.h"
#include "sim/rng.h"
#include "sim/sweep/sweep.h"
#include "traffic/generator.h"
#include "traffic/patterns.h"
#include "traffic/replay.h"
#include "verify/verifier.h"

using namespace ocn;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up runs at least kSetupMinReps times and until kSetupMinSeconds have
// been spent on it (at most kSetupMaxReps times); its median is reported, so
// one slow allocation or a millisecond-scale set-up does not decide setup_s.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 50;
constexpr double kSetupMinSeconds = 0.5;

// Runs `once` as above; returns each repetition's duration.
std::vector<double> repeat_setup(const std::function<void()>& once) {
  std::vector<double> times;
  double spent = 0;
  while (static_cast<int>(times.size()) < kSetupMinReps ||
         (spent < kSetupMinSeconds && static_cast<int>(times.size()) < kSetupMaxReps)) {
    const Clock::time_point t0 = Clock::now();
    once();
    times.push_back(seconds_since(t0));
    spent += times.back();
  }
  return times;
}

// min(4, nproc): the CPUs this process may run on, as nproc counts them.
int pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus, 1, 4);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------- tracing --

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the same span list, -1 for a root
  int point;   // sweep/lockstep point index, -1 outside point replays
};

// In-memory span recorder for one thread. Off, it records nothing and costs
// a branch per boundary. Spans nest by construction order (RAII scopes).
class Tracer {
 public:
  Tracer(bool on, Clock::time_point epoch, int point = -1)
      : on_(on), epoch_(epoch), point_(point) {}

  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  int begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), 0, open_, point_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  int open() const { return open_; }

  // Append a worker's spans; its roots become children of `parent`.
  void adopt(const Tracer& other, int parent) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(s);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Total duration of every span named `name`.
  double total_s(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }
  std::vector<double> durations_s(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  int point_;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Length of the union of [start, end) intervals.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_s = 0;
  std::int64_t cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

struct SelfTimes {
  std::vector<std::pair<std::string, double>> by_name;  // first-seen order
  double unaccounted_share = 0.0;
};

// Self time of a span: its duration minus the part of its interval its
// children cover (a union, so concurrent children on a pool count once).
SelfTimes self_times(const std::vector<Span>& spans, std::int64_t begin_ns,
                     std::int64_t end_ns) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      roots.emplace_back(s.start_ns, s.end_ns);
    } else {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t self = (s.end_ns - s.start_ns) - covered_ns(children[i]);
    auto it = std::find_if(out.by_name.begin(), out.by_name.end(),
                           [&](const auto& p) { return p.first == s.name; });
    if (it == out.by_name.end()) {
      out.by_name.emplace_back(s.name, 0.0);
      it = out.by_name.end() - 1;
    }
    it->second += static_cast<double>(self) * 1e-9;
  }
  const double wall = static_cast<double>(end_ns - begin_ns);
  out.unaccounted_share =
      wall > 0 ? (wall - static_cast<double>(covered_ns(roots))) / wall : 0.0;
  return out;
}

void write_trace_file(const std::string& workload, std::uint64_t seed,
                      const std::vector<Span>& spans) {
  std::filesystem::create_directories(".bench_build");
  const std::string path =
      ".bench_build/perfbench-trace-" + workload + "-" + std::to_string(seed) + ".json";
  std::ofstream f(path);
  f << "{\"run\":\"" << workload << "-" << seed << "\",\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
      << ",\"point\":" << s.point << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

// ----------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // failed global checks
  std::vector<Metric> metrics;        // the result line: every workload has them
  std::vector<Metric> notes;          // `#` lines only: this workload's own layers

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const { return failed == 0 && problems.empty() && attempted > 0; }
};

// --------------------------------------------------------- open-loop 64x64 --

// sat64 / light64: a Bernoulli source per node drives Nic::inject directly,
// open loop in simulated time. Each cycle generates every node's packet
// first (traffic layer), then offers them to the NICs (NIC layer, refusals
// are modelled backpressure), then steps the network.
struct OpenLoopSpec {
  double rate;   // packets per node per cycle
  int shards;
  bool analyze;  // set-up includes the concurrency analyzer for `shards`
  Cycle warmup;
  Cycle measure;
  Cycle drain_max;  // 0: no drain (the saturated fabric never empties)
};

struct OpenLoopResult {
  double wall_s = 0;
  double setup_s = 0;
  double construct_s = 0;
  double analyze_s = 0;
  std::vector<double> cycle_s;  // one sample per measured cycle
  std::int64_t offered = 0;
  std::int64_t refused = 0;
  std::int64_t window_hops = 0;
  std::int64_t window_flits_delivered = 0;
  // Whole-run deterministic outputs.
  std::int64_t flit_hops = 0;
  std::int64_t flits_delivered = 0;
  std::int64_t buffer_writes = 0;
  std::int64_t buffer_reads = 0;
  std::int64_t contention_cycles = 0;
  std::int64_t component_steps = 0;
  std::int64_t channel_advances = 0;
  double accepted = 0;  // flits per node per cycle in the window
  double latency_avg = 0;
  Cycle cycles = 0;      // warm-up + measured (the network.step spans)
  Cycle sim_cycles = 0;  // every simulated cycle, drain included
  std::int64_t packets_delivered = 0;
  int nodes = 0;
  // Checks.
  std::int64_t checked = 0;  // operations: deliveries (or accepted packets when drained)
  std::int64_t bad = 0;
  std::vector<std::string> problems;
};

std::int64_t total_hops(const core::Network& net) {
  std::int64_t n = 0;
  for (const core::LinkUsage& l : net.link_usage()) n += l.flits;
  return n;
}

OpenLoopResult run_open_loop(const OpenLoopSpec& spec, std::uint64_t seed, Tracer& tr) {
  const Clock::time_point t_run = Clock::now();
  OpenLoopResult out;
  core::Config cfg = core::Config::paper_baseline();
  cfg.radix = 64;
  cfg.seed = seed;

  // Set-up: the CDG proof (verify::verify) is left out at 64x64; it does
  // not finish there.
  std::unique_ptr<core::Network> net;
  std::vector<double> construct, analyze_t;
  repeat_setup([&] {
    if (net) {
      Tracer::Scope s(tr, "network.destroy");
      net.reset();
    }
    if (spec.analyze) {
      Tracer::Scope s(tr, "setup.analyze");
      const Clock::time_point t0 = Clock::now();
      const analyze::AnalysisReport ar = analyze::analyze_config(cfg, spec.shards);
      analyze_t.push_back(seconds_since(t0));
      if (!ar.ok()) out.problems.push_back("analyzer refused the partition");
    }
    Tracer::Scope s(tr, "setup.construct");
    const Clock::time_point t0 = Clock::now();
    net = std::make_unique<core::Network>(cfg, spec.shards);
    construct.push_back(seconds_since(t0));
  });
  // Set-up time leaves out tearing down the previous repetition's network.
  std::vector<double> setup = construct;
  for (std::size_t i = 0; i < analyze_t.size(); ++i) setup[i] += analyze_t[i];
  out.setup_s = median(setup);
  out.construct_s = median(construct);
  out.analyze_s = median(analyze_t);

  const int n = net->num_nodes();
  out.nodes = n;
  traffic::TrafficPattern pattern(traffic::Pattern::kUniform, net->topology());
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rngs.emplace_back(seed, static_cast<std::uint64_t>(i));
  std::vector<std::uint32_t> seq(static_cast<std::size_t>(n), 0);  // accepted per source

  // Delivery checks: every NIC observes its own deliveries (on its shard's
  // thread; the log is per node, so nothing is shared).
  struct NodeLog {
    std::vector<std::uint64_t> tags;
    std::int64_t misrouted = 0;
  };
  std::vector<NodeLog> logs(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    NodeLog* log = &logs[static_cast<std::size_t>(i)];
    net->nic(i).set_delivery_observer([log, i](const core::Packet& p) {
      const router::Payload& w = p.flit_payloads[0];
      if (p.dst != i || static_cast<NodeId>(w[1]) != i ||
          static_cast<NodeId>(w[0] >> 32) != p.src) {
        ++log->misrouted;
      } else {
        log->tags.push_back(w[0]);
      }
    });
    net->nic(i).set_delivery_handler([](core::Packet&&) {});
  }

  obs::CounterRegistry registry;
  if (tr.on()) net->kernel().attach_metrics(&registry);

  std::vector<std::pair<NodeId, core::Packet>> batch;
  batch.reserve(static_cast<std::size_t>(n));
  auto one_cycle = [&] {
    {
      Tracer::Scope s(tr, "traffic.generate");
      for (NodeId i = 0; i < n; ++i) {
        Rng& rng = rngs[static_cast<std::size_t>(i)];
        if (!rng.bernoulli(spec.rate)) continue;
        const NodeId dst = pattern.destination(i, rng);
        const int cls = static_cast<int>(rng.next_below(4));
        core::Packet p = core::make_packet(dst, cls, 1, router::kDataBits);
        p.flit_payloads[0][0] = (static_cast<std::uint64_t>(i) << 32) |
                                seq[static_cast<std::size_t>(i)];
        p.flit_payloads[0][1] = static_cast<std::uint64_t>(dst);
        batch.emplace_back(i, std::move(p));
      }
    }
    {
      Tracer::Scope s(tr, "nic.inject");
      for (auto& [src, p] : batch) {
        if (net->nic(src).inject(std::move(p), net->now())) {
          ++seq[static_cast<std::size_t>(src)];
        } else {
          ++out.refused;
        }
      }
      out.offered += static_cast<std::int64_t>(batch.size());
      batch.clear();
    }
    Tracer::Scope s(tr, "network.step");
    net->step();
  };

  for (Cycle c = 0; c < spec.warmup; ++c) one_cycle();
  const std::int64_t hops0 = total_hops(*net);
  const std::int64_t flits0 = net->stats().flits_delivered;
  out.cycle_s.reserve(static_cast<std::size_t>(spec.measure));
  for (Cycle c = 0; c < spec.measure; ++c) {
    const Clock::time_point t0 = Clock::now();
    one_cycle();
    out.cycle_s.push_back(seconds_since(t0));
  }
  out.window_hops = total_hops(*net) - hops0;
  out.window_flits_delivered = net->stats().flits_delivered - flits0;
  out.cycles = spec.warmup + spec.measure;

  bool drained = true;
  if (spec.drain_max > 0) {
    Tracer::Scope s(tr, "network.drain");
    drained = net->drain(spec.drain_max);
  }

  {
    Tracer::Scope check_span(tr, "check");
    const core::NetworkStats st = net->stats();
    out.flit_hops = total_hops(*net);
    out.flits_delivered = st.flits_delivered;
    out.buffer_writes = st.buffer_writes;
    out.buffer_reads = st.buffer_reads;
    out.packets_delivered = st.packets_delivered;
    out.sim_cycles = net->now();
    for (NodeId i = 0; i < n; ++i) {
      for (int p = 0; p < topo::kNumPorts; ++p) {
        out.contention_cycles +=
            net->router_at(i).output(static_cast<topo::Port>(p)).contention_cycles();
      }
    }
    if (tr.on()) {
      const obs::MetricsSnapshot snap = net->kernel().sample();
      out.component_steps = snap.value("kernel.component_steps");
      out.channel_advances = snap.value("kernel.channel_advances");
      net->kernel().attach_metrics(nullptr);
    }
    out.accepted = static_cast<double>(out.window_flits_delivered) /
                   (static_cast<double>(spec.measure) * n);
    out.latency_avg = st.latency.mean();

    // Exactly-once: count each (src, seq) tag over every node's log.
    std::vector<std::vector<std::uint8_t>> seen(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) seen[static_cast<std::size_t>(s)].assign(seq[static_cast<std::size_t>(s)], 0);
    std::int64_t delivered = 0;
    for (const NodeLog& log : logs) {
      out.bad += log.misrouted;
      delivered += log.misrouted + static_cast<std::int64_t>(log.tags.size());
      for (std::uint64_t tag : log.tags) {
        const std::uint64_t s = tag >> 32;
        const std::uint64_t k = tag & 0xffffffffu;
        if (s >= static_cast<std::uint64_t>(n) || k >= seq[s]) {
          ++out.bad;  // never injected
        } else if (seen[s][k] != 0) {
          ++out.bad;  // duplicate
        } else {
          seen[s][k] = 1;
        }
      }
    }
    if (spec.drain_max > 0) {
      // Drained workloads: an operation is an accepted packet, which must
      // have been delivered.
      std::int64_t accepted = 0;
      for (int s = 0; s < n; ++s) {
        accepted += seq[static_cast<std::size_t>(s)];
        for (std::uint8_t c : seen[static_cast<std::size_t>(s)]) out.bad += c == 0 ? 1 : 0;
      }
      out.checked = accepted;
      if (!drained) out.problems.push_back("network did not drain");
      // Packets are one flit, so dropped packets are dropped flits.
      if (st.flits_injected != st.flits_delivered + st.packets_dropped) {
        out.problems.push_back("flits injected " + std::to_string(st.flits_injected) +
                               " != delivered " + std::to_string(st.flits_delivered) +
                               " + dropped " + std::to_string(st.packets_dropped));
      }
    } else {
      out.checked = delivered;
    }
    if (delivered != st.packets_delivered) {
      out.problems.push_back("observer saw " + std::to_string(delivered) +
                             " deliveries, NICs report " + std::to_string(st.packets_delivered));
    }
  }
  {
    Tracer::Scope s(tr, "network.destroy");
    net.reset();
  }
  out.wall_s = seconds_since(t_run);
  return out;
}

// Deterministic outputs of an open-loop pass, for run-to-run comparison.
std::vector<Metric> open_loop_counts(const OpenLoopResult& r) {
  return {
      {"traffic.packets_offered", static_cast<double>(r.offered), "count"},
      {"nic.refused_ratio", r.offered > 0 ? static_cast<double>(r.refused) / static_cast<double>(r.offered) : 0.0, "ratio"},
      {"nic.flits_delivered", static_cast<double>(r.flits_delivered), "count"},
      {"router.flit_hops", static_cast<double>(r.flit_hops), "count"},
      {"router.buffer_writes", static_cast<double>(r.buffer_writes), "count"},
      {"router.buffer_reads", static_cast<double>(r.buffer_reads), "count"},
      {"router.contention_cycles", static_cast<double>(r.contention_cycles), "count"},
      {"sim.accepted_flits_per_node_cycle", r.accepted, "flits/node/cyc"},
      {"sim.latency_avg_cycles", r.latency_avg, "cycles"},
  };
}

// ---------------------------------------------------------------- sweep16 --

// sweep16: the 16x16 load-latency curve, 8 uniform rates from 0.02 to 0.4
// packets/node/cycle (past the ~0.35 knee), replicated once per --seconds
// in one SweepRunner::run, so every replica point has its own derived seed.
// The pool takes points in index order, so the grid lists the costliest
// (highest-rate) points first: the run then ends on cheap points, and how
// the seed happens to balance the pool moves its time little.
std::vector<sweep::LoadPoint> sweep_grid(const core::Config& config, int replicas) {
  traffic::HarnessOptions base;
  base.pattern = traffic::Pattern::kUniform;
  base.packet_flits = 1;
  base.warmup = 300;
  base.measure = 1500;
  base.drain_max = 20000;
  std::vector<double> rates;
  for (int i = 7; i >= 0; --i) {
    for (int r = 0; r < replicas; ++r) rates.push_back(0.02 + (0.4 - 0.02) * i / 7.0);
  }
  std::vector<sweep::LoadPoint> points = sweep::SweepRunner::rate_grid(config, base, rates);
  for (sweep::LoadPoint& p : points) p.shards = 1;
  return points;
}

// One point's packet accounting is closed: everything the NICs accepted
// was delivered or dropped, and the point drained. (Past saturation the
// harness's delivered_fraction falls below 1 because full NIC queues refuse
// packets at the source; that is modelled backpressure, not a loss.)
bool point_ok(const sweep::LoadResult& r) {
  const obs::MetricsSnapshot& m = r.metrics;
  return r.harness.drained && r.harness.measured_packets > 0 &&
         m.value("net.packets_injected") ==
             m.value("net.packets_delivered") + m.value("net.packets_dropped");
}

std::int64_t snapshot_hops(const obs::MetricsSnapshot& m) {
  std::int64_t n = 0;
  for (const auto& [name, v] : m.values) {
    if (name.rfind("link.", 0) == 0) n += v;
  }
  return n;
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  int shards = 0;  // 0: the workload's own shard count
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ocn_perfbench: %s\n"
               "usage: ocn_perfbench --workload sat64|light64|sweep16|diff --seed N "
               "--seconds S --trace 0|1 [--shards N]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    const bool is_int = end != nullptr && *end == '\0' && !v.empty();
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed" && is_int && x >= 0) {
      a.seed = static_cast<std::uint64_t>(x);
    } else if (k == "--seconds" && is_int && x >= 1 && x <= 600) {
      a.seconds = static_cast<int>(x);
    } else if (k == "--trace" && is_int && (x == 0 || x == 1)) {
      a.trace = x == 1;
    } else if (k == "--shards" && is_int && x >= 1 && x <= 64) {
      a.shards = static_cast<int>(x);
    } else {
      usage("bad argument " + k + " " + v);
    }
  }
  if (a.workload != "sat64" && a.workload != "light64" && a.workload != "sweep16" &&
      a.workload != "diff") {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

// The per-layer metrics every workload reports. `step_s` is the traced time
// of the calls that advance simulated time (Network::step and drain,
// LoadHarness::run, ref::run_lockstep), summed over points; `overhead_s` is
// traced minus untraced time of the same work.
struct CommonLayers {
  std::int64_t cycles = 0;             // simulated, summed over points
  std::int64_t routers = 0;            // per network
  std::int64_t packets_delivered = 0;  // summed over points
  double step_s = 0;
  double overhead_s = 0;
};

void add_layers(Report& rep, const CommonLayers& c, const Tracer& tr, std::int64_t begin_ns,
                std::int64_t end_ns) {
  const SelfTimes st = self_times(tr.spans(), begin_ns, end_ns);
  for (const auto& [name, s] : st.by_name) rep.note("self." + name, s, "s");
  rep.add("sim.cycles", static_cast<double>(c.cycles), "count");
  rep.add("nic.packets_delivered", static_cast<double>(c.packets_delivered), "count");
  rep.add("sim.step_ns_per_router_cycle",
          c.step_s * 1e9 / (static_cast<double>(c.cycles) * static_cast<double>(c.routers)),
          "ns");
  rep.add("router.flit_bytes", static_cast<double>(sizeof(router::Flit)), "B");
  rep.add("trace.unaccounted_share", st.unaccounted_share, "ratio");
  rep.add("trace.overhead_s", c.overhead_s, "s");
}

// sat64 and light64.
void run_open_loop_workload(const Args& a, Report& rep) {
  const bool sat = a.workload == "sat64";
  // Measured cycles scale with --seconds. At 10 s sat64 takes 1000 per-cycle
  // samples, so at least 10 lie beyond cycle_us_p99.
  OpenLoopSpec spec;
  if (sat) {
    spec = {0.5, 1, false, 150, static_cast<Cycle>(100) * a.seconds, 0};
  } else {
    spec = {0.001, pool_threads(), true, 100,
            static_cast<Cycle>(4000) * a.seconds, 5000};
  }
  if (a.shards > 0) spec.shards = a.shards;

  const Clock::time_point epoch = Clock::now();
  Tracer off(false, epoch);
  const OpenLoopResult r = run_open_loop(spec, a.seed, off);
  rep.attempted = r.checked;
  rep.failed = r.bad;
  for (const std::string& p : r.problems) rep.problems.push_back(p);

  // The window is cut into kChunks runs of consecutive cycles; times are
  // taken at the median chunk, so a burst of load on the host moves a chunk,
  // not the result.
  constexpr Cycle kChunks = 20;
  const Cycle chunk_cycles = spec.measure / kChunks;
  std::vector<double> chunk_s(kChunks, 0.0);
  for (std::size_t c = 0; c < r.cycle_s.size(); ++c) {
    chunk_s[std::min<std::size_t>(c / chunk_cycles, kChunks - 1)] += r.cycle_s[c];
  }
  const double window_s = median(chunk_s) * kChunks;
  const double cyc_p50 = percentile(r.cycle_s, 0.50) * 1e6;
  const double cyc_p99 = percentile(r.cycle_s, 0.99) * 1e6;
  const double hops_per_s = static_cast<double>(r.window_hops) / window_s;
  if (!a.trace) {
    rep.add("router_step_ns",
            median(chunk_s) * 1e9 / (static_cast<double>(chunk_cycles) * r.nodes), "ns");
    // Packets delivered in the window (all are checked; packets are one flit).
    rep.add("ops_per_s", static_cast<double>(r.window_flits_delivered) / window_s, "1/s");
    rep.add("setup_s", r.setup_s, "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("wall_s", seconds_since(epoch), "s");
    // Printed for reading, not bounded: at a fixed seed both are a
    // deterministic count divided by the window time router_step_ns reads.
    std::printf("# flit_hops_per_s %s 1/s\n# cycle_us_p50 %s us\n# cycle_us_p99 %s us "
                "(%zu samples)\n",
                num(hops_per_s).c_str(), num(cyc_p50).c_str(), num(cyc_p99).c_str(),
                r.cycle_s.size());
    std::string det = "det";
    for (const Metric& m : open_loop_counts(r)) det += " " + m.name + "=" + num(m.value);
    std::printf("%s\n", det.c_str());
    return;
  }

  // Traced pass over the same seed: per-layer times and kernel counts.
  const Clock::time_point t_traced = Clock::now();
  Tracer tr(true, epoch);
  const std::int64_t begin_ns = tr.now_ns();
  const OpenLoopResult t = run_open_loop(spec, a.seed, tr);
  const std::int64_t end_ns = tr.now_ns();
  const double traced_wall = seconds_since(t_traced);
  for (const std::string& p : t.problems) rep.problems.push_back("traced: " + p);
  rep.failed += t.bad;

  const std::vector<Metric> c0 = open_loop_counts(r);
  const std::vector<Metric> c1 = open_loop_counts(t);
  for (std::size_t i = 0; i < c0.size(); ++i) {
    rep.check(c0[i].value == c1[i].value,
              "traced pass changed deterministic count " + c0[i].name);
  }
  for (const Metric& m : c1) rep.note(m.name, m.value, m.unit);

  const double cycles = static_cast<double>(t.cycles);
  rep.note("traffic.gen_ns_per_packet",
           tr.total_s("traffic.generate") * 1e9 / static_cast<double>(std::max<std::int64_t>(1, t.offered)), "ns");
  rep.note("nic.inject_ns_per_packet",
           tr.total_s("nic.inject") * 1e9 / static_cast<double>(std::max<std::int64_t>(1, t.offered)), "ns");
  rep.note("network.step_ns_per_cycle", tr.total_s("network.step") * 1e9 / cycles, "ns");
  rep.note("network.step_ns_per_component_step",
           tr.total_s("network.step") * 1e9 /
               static_cast<double>(std::max<std::int64_t>(1, t.component_steps)),
           "ns");
  rep.note("kernel.component_steps", static_cast<double>(t.component_steps), "count");
  rep.note("kernel.channel_advances", static_cast<double>(t.channel_advances), "count");
  rep.note("setup.construct_s", t.construct_s, "s");
  if (spec.analyze) rep.note("setup.analyze_s", t.analyze_s, "s");
  // From the untraced pass.
  rep.note("flit_hops_per_s", hops_per_s, "1/s");
  rep.note("cycle_us_p50", cyc_p50, "us");
  rep.note("cycle_us_p99", cyc_p99, "us");
  rep.note("cycle_samples", static_cast<double>(r.cycle_s.size()), "count");
  CommonLayers common;
  common.cycles = t.sim_cycles;
  common.routers = t.nodes;
  common.packets_delivered = t.packets_delivered;
  common.step_s = tr.total_s("network.step") + tr.total_s("network.drain");
  common.overhead_s = traced_wall - r.wall_s;
  add_layers(rep, common, tr, begin_ns, end_ns);
  write_trace_file(a.workload, a.seed, tr.spans());
}

// One sweep point through the public calls SweepRunner::run makes for it
// (Network ctor, register_metrics, LoadHarness::run, kernel().sample()),
// each in its own span. Deliveries are observed per NIC: each must reach its
// own dst, and no packet id may arrive twice.
void replay_point(const sweep::LoadPoint& point, std::uint64_t seed, Tracer& tr,
                  traffic::HarnessResult& harness_out, obs::MetricsSnapshot& metrics_out,
                  std::size_t& instruments_out, std::int64_t& bad) {
  Tracer::Scope point_span(tr, "sweep.point");
  core::Config cfg = point.config;
  traffic::HarnessOptions opt = point.harness;
  cfg.seed = seed;
  opt.seed = seed;
  std::unique_ptr<core::Network> net;
  {
    Tracer::Scope s(tr, "network.construct");
    net = std::make_unique<core::Network>(cfg, point.shards);
  }
  obs::CounterRegistry registry;
  {
    Tracer::Scope s(tr, "obs.register_metrics");
    net->register_metrics(registry);
  }
  instruments_out = registry.instruments();
  std::vector<std::vector<PacketId>> ids(static_cast<std::size_t>(net->num_nodes()));
  for (NodeId n = 0; n < net->num_nodes(); ++n) {
    std::vector<PacketId>* log = &ids[static_cast<std::size_t>(n)];
    net->nic(n).set_delivery_observer([log, &bad, n](const core::Packet& p) {
      if (p.dst != n) ++bad;
      log->push_back(p.id);
    });
  }
  {
    Tracer::Scope s(tr, "traffic.harness_run");
    traffic::LoadHarness harness(*net, opt);
    harness_out = harness.run();
  }
  {
    Tracer::Scope s(tr, "obs.sample");
    metrics_out = net->kernel().sample();
  }
  std::vector<PacketId> all;
  for (const std::vector<PacketId>& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  bad += static_cast<std::int64_t>(all.end() - std::unique(all.begin(), all.end()));
  if (static_cast<std::int64_t>(all.size()) != net->stats().packets_delivered) ++bad;
}

void run_sweep_workload(const Args& a, Report& rep) {
  const Clock::time_point epoch = Clock::now();
  core::Config config = core::Config::paper_baseline();
  config.radix = 16;
  const int threads = pool_threads();
  Tracer tr(a.trace, epoch);

  // Set-up: the static proof of the config, then the load grid.
  std::vector<sweep::LoadPoint> points;
  std::vector<double> verify_t;
  const std::vector<double> setup = repeat_setup([&] {
    const Clock::time_point t0 = Clock::now();
    verify::Report vr;
    {
      Tracer::Scope s(tr, "setup.verify");
      vr = verify::verify(config);
    }
    verify_t.push_back(seconds_since(t0));
    rep.check(vr.ok() && vr.deadlock_free, "verify::verify rejected the 16x16 config");
    Tracer::Scope s(tr, "setup.grid");
    points = sweep_grid(config, a.seconds);
  });

  sweep::SweepOptions so;
  so.threads = threads;
  so.master_seed = a.seed;
  sweep::SweepRunner runner(so);
  const Clock::time_point t_run = Clock::now();
  std::vector<sweep::LoadResult> results;
  {
    Tracer::Scope s(tr, "untraced.sweep_run");
    results = runner.run(points);
  }
  const double run_s = seconds_since(t_run);

  std::int64_t hops = 0, router_cycles = 0;
  for (const sweep::LoadResult& lr : results) {
    ++rep.attempted;
    if (!point_ok(lr)) ++rep.failed;
    router_cycles += lr.metrics.value("kernel.cycles") * config.radix * config.radix;
    hops += snapshot_hops(lr.metrics);
  }
  // Latency folds in point order, as SweepRunner::merge does. merge itself
  // is not called: it also sums the points' metric snapshots by linear name
  // lookup, ~0.08 s per 16x16 point, outside what this workload measures.
  Accumulator latency;
  double accepted = 0;
  for (const sweep::LoadResult& lr : results) {
    latency.merge(lr.latency);
    accepted += lr.harness.accepted_flits;
  }
  accepted /= static_cast<double>(results.size());

  if (!a.trace) {
    rep.add("router_step_ns", threads * run_s * 1e9 / static_cast<double>(router_cycles), "ns");
    rep.add("ops_per_s", static_cast<double>(rep.attempted) / run_s, "1/s");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("wall_s", seconds_since(epoch), "s");
    std::printf("# flit_hops_per_s %s 1/s\n", num(static_cast<double>(hops) / run_s).c_str());
    std::printf("det router.flit_hops=%lld sim.accepted_flits_per_node_cycle=%s "
                "sim.latency_avg_cycles=%s\n",
                static_cast<long long>(hops), num(accepted).c_str(),
                num(latency.mean()).c_str());
    return;
  }

  // Traced: replay every point through the calls SweepRunner::run makes,
  // on a pool of the same size with the same seeds, one tracer per point.
  const Clock::time_point t_traced = Clock::now();
  struct Replay {
    Tracer tracer{false, Clock::time_point{}};
    traffic::HarnessResult harness;
    obs::MetricsSnapshot metrics;
    std::size_t instruments = 0;
    std::int64_t bad = 0;
  };
  std::vector<Replay> replays;
  {
    Tracer::Scope sweep_span(tr, "sweep.replay");
    replays = runner.map<Replay>(points.size(), [&](std::size_t i, std::uint64_t seed) {
      Replay out;
      out.tracer = Tracer(true, epoch, static_cast<int>(i));
      replay_point(points[i], seed, out.tracer, out.harness, out.metrics, out.instruments,
                   out.bad);
      return out;
    });
    for (const Replay& r : replays) tr.adopt(r.tracer, tr.open());
  }
  const double traced_wall = seconds_since(t_traced);

  std::int64_t steps = 0, advances = 0, cycles = 0, delivered = 0;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    const sweep::LoadResult& lr = results[i];
    rep.failed += r.bad;
    rep.check(r.harness.accepted_flits == lr.harness.accepted_flits &&
                  r.harness.avg_latency == lr.harness.avg_latency &&
                  r.metrics.value("kernel.component_steps") ==
                      lr.metrics.value("kernel.component_steps"),
              "replayed point " + std::to_string(i) + " differs from SweepRunner::run");
    steps += r.metrics.value("kernel.component_steps");
    advances += r.metrics.value("kernel.channel_advances");
    cycles += r.metrics.value("kernel.cycles");
    delivered += r.metrics.value("net.packets_delivered");
  }
  const std::vector<double> point_s = tr.durations_s("sweep.point");
  double point_sum = 0;
  for (double s : point_s) point_sum += s;
  rep.note("kernel.component_steps", static_cast<double>(steps), "count");
  rep.note("kernel.channel_advances", static_cast<double>(advances), "count");
  rep.note("router.flit_hops", static_cast<double>(hops), "count");
  rep.note("sim.accepted_flits_per_node_cycle", accepted, "flits/node/cyc");
  rep.note("sim.latency_avg_cycles", latency.mean(), "cycles");
  rep.note("setup.verify_s", median(verify_t), "s");
  rep.note("setup.construct_s", median(tr.durations_s("network.construct")), "s");
  rep.note("setup.register_metrics_s", median(tr.durations_s("obs.register_metrics")), "s");
  rep.note("obs.instruments", static_cast<double>(replays.front().instruments), "count");
  rep.note("sweep.point_s_p50", median(point_s), "s");
  rep.note("sweep.point_s_max", *std::max_element(point_s.begin(), point_s.end()), "s");
  rep.note("sweep.harness_run_s", median(tr.durations_s("traffic.harness_run")), "s");
  rep.note("sweep.pool_efficiency", point_sum / (threads * traced_wall), "ratio");
  CommonLayers common;
  common.cycles = cycles;
  common.routers = config.radix * config.radix;
  common.packets_delivered = delivered;
  common.step_s = tr.total_s("traffic.harness_run");
  common.overhead_s = traced_wall - run_s;
  add_layers(rep, common, tr, 0, tr.now_ns());
  write_trace_file(a.workload, a.seed, tr.spans());
}

// The traffic ref::run_campaign synthesizes for each point (kept in step
// with src/ref/campaign.cpp; the replay cross-checks the delivery total
// against the campaign's, so a drift fails the run).
std::vector<traffic::TraceEntry> campaign_trace(const core::Config& config,
                                                Cycle trace_cycles, std::uint64_t seed) {
  const int nodes = config.make_topology()->num_nodes();
  const Cycle period = 40;
  const int bursts = static_cast<int>(std::max<Cycle>(1, trace_cycles / period));
  return traffic::synthesize_soc_trace(nodes, 8, bursts, 3, period, seed);
}

// One campaign point through the calls run_campaign makes for it.
ref::DiffResult replay_lockstep_point(const ref::CampaignCell& cell,
                                      const ref::CampaignOptions& co, std::uint64_t seed,
                                      Tracer& tr) {
  Tracer::Scope point_span(tr, "ref.point");
  std::vector<traffic::TraceEntry> trace;
  {
    Tracer::Scope s(tr, "traffic.synthesize");
    trace = campaign_trace(cell.config, co.trace_cycles, seed);
  }
  Tracer::Scope s(tr, "ref.run_lockstep");
  return ref::run_lockstep(cell.config, cell.scenario, trace, co.max_cycles);
}

void run_diff_workload(const Args& a, Report& rep) {
  const Clock::time_point epoch = Clock::now();
  const int threads = pool_threads();

  // Set-up: the quick matrix and the static deadlock proof of every cell.
  Tracer tr(a.trace, epoch);
  std::vector<ref::CampaignCell> cells;
  const std::vector<double> setup = repeat_setup([&] {
    Tracer::Scope s(tr, "setup.matrix_verify");
    cells = ref::quick_matrix();
    for (const ref::CampaignCell& c : cells) {
      const verify::Report vr = verify::verify(c.config);
      rep.check(vr.ok() && vr.deadlock_free, "verify::verify rejected cell " + c.name);
    }
  });

  ref::CampaignOptions co;
  co.seeds = 3 * a.seconds;
  co.threads = threads;
  co.master_seed = a.seed;
  co.minimize = false;
  const std::size_t n = cells.size() * static_cast<std::size_t>(co.seeds);

  const Clock::time_point tc = Clock::now();
  ref::CampaignResult cr;
  {
    Tracer::Scope s(tr, "untraced.campaign");
    cr = ref::run_campaign(cells, co);
  }
  const double campaign_s = seconds_since(tc);
  rep.attempted = static_cast<std::int64_t>(n);
  rep.check(cr.points == static_cast<int>(n), "campaign ran " + std::to_string(cr.points) +
                                                  " points, expected " + std::to_string(n));

  // Replay every point through run_lockstep (what the campaign calls) to
  // check the parts the campaign does not return: each point drained.
  // Traced, each point gets its own span list.
  const Clock::time_point tp = Clock::now();
  struct Replay {
    Tracer tracer{false, Clock::time_point{}};
    ref::DiffResult result;
  };
  sweep::SweepOptions so;
  so.threads = threads;
  so.master_seed = co.master_seed;
  sweep::SweepRunner runner(so);
  std::vector<Replay> replays;
  {
    Tracer::Scope replay_span(tr, "ref.replay");
    const int parent = tr.open();
    replays = runner.map<Replay>(n, [&](std::size_t i, std::uint64_t seed) {
      Replay out;
      out.tracer = Tracer(a.trace, epoch, static_cast<int>(i));
      out.result = replay_lockstep_point(cells[i / static_cast<std::size_t>(co.seeds)], co,
                                         seed, out.tracer);
      return out;
    });
    for (const Replay& r : replays) tr.adopt(r.tracer, parent);
  }
  const double replay_s = seconds_since(tp);

  std::int64_t deliveries = 0, cycles = 0, divergences = 0;
  for (const Replay& r : replays) {
    deliveries += r.result.deliveries;
    cycles += r.result.cycles_run;
    divergences += r.result.diverged ? 1 : 0;
    rep.failed += r.result.diverged || !r.result.drained ? 1 : 0;
  }
  rep.check(divergences == cr.diverged, "replay divergences differ from the campaign's");
  rep.check(deliveries == cr.deliveries,
            "replay delivered " + std::to_string(deliveries) + " packets, campaign " +
                std::to_string(cr.deliveries));

  const int routers = cells.front().config.radix * cells.front().config.radix;
  if (!a.trace) {
    rep.add("router_step_ns",
            threads * campaign_s * 1e9 / (static_cast<double>(cycles) * routers), "ns");
    rep.add("ops_per_s", static_cast<double>(n) / campaign_s, "1/s");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("wall_s", seconds_since(epoch), "s");
    std::printf("det ref.cycles_run=%lld ref.deliveries=%lld ref.divergences=%lld\n",
                static_cast<long long>(cycles), static_cast<long long>(deliveries),
                static_cast<long long>(divergences));
    return;
  }
  const std::vector<double> point_s = tr.durations_s("ref.point");
  rep.note("ref.point_s_p50", median(point_s), "s");
  rep.note("ref.cycles_per_s", static_cast<double>(cycles) / tr.total_s("ref.run_lockstep"), "1/s");
  rep.note("ref.cycles_run", static_cast<double>(cycles), "count");
  rep.note("ref.deliveries", static_cast<double>(deliveries), "count");
  rep.note("ref.divergences", static_cast<double>(divergences), "count");
  CommonLayers common;
  common.cycles = cycles;
  common.routers = routers;
  common.packets_delivered = deliveries;
  common.step_s = tr.total_s("ref.run_lockstep");
  // The untraced twin of the traced replay is the campaign itself.
  common.overhead_s = replay_s - campaign_s;
  add_layers(rep, common, tr, 0, tr.now_ns());
  write_trace_file(a.workload, a.seed, tr.spans());
}

void print_result(const Report& rep) {
  for (const std::vector<Metric>* list : {&rep.notes, &rep.metrics}) {
    for (const Metric& m : *list) {
      std::printf("# %-40s %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
    }
  }
  for (const std::string& p : rep.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::string json = std::string("{\"correct\": ") + (rep.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Report rep;
  try {
    if (a.workload == "sat64" || a.workload == "light64") {
      run_open_loop_workload(a, rep);
    } else if (a.workload == "sweep16") {
      run_sweep_workload(a, rep);
    } else {
      run_diff_workload(a, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ocn_perfbench: %s\n", e.what());
    return 1;
  }
  // A failed check is reported in the result (correct: false), not by the
  // exit status, which stays for runs that could not produce a result.
  print_result(rep);
  std::fflush(stdout);
  return 0;
}
