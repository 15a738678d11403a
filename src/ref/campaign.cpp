#include "ref/campaign.h"

#include <algorithm>

#include "analyze/analyzer.h"
#include "sim/sweep/sweep.h"
#include "traffic/replay.h"

namespace ocn::ref {

namespace {

// Synthesized load per point: a handful of bursty flows over the trace
// horizon, enough to exercise contention, piggybacking and the dateline
// discipline without saturating small configs into multi-thousand-cycle
// drains.
std::vector<traffic::TraceEntry> point_trace(const core::Config& config,
                                             Cycle trace_cycles,
                                             std::uint64_t seed) {
  const int nodes = config.make_topology()->num_nodes();
  const Cycle period = 40;
  const int bursts = static_cast<int>(std::max<Cycle>(1, trace_cycles / period));
  return traffic::synthesize_soc_trace(nodes, /*flows=*/8, bursts,
                                       /*burst_len=*/3, period, seed);
}

}  // namespace

std::vector<CampaignCell> quick_matrix() {
  std::vector<CampaignCell> cells;
  const core::Config base = core::Config::paper_baseline();

  cells.push_back({"baseline", base, {}});

  {
    core::Config c = base;
    c.topology = core::TopologyKind::kMesh;
    c.router.enforce_vc_parity = false;  // no wraparound, no dateline
    cells.push_back({"mesh", c, {}});
  }
  {
    core::Config c = base;
    c.topology = core::TopologyKind::kTorus;
    cells.push_back({"torus", c, {}});
  }
  {
    core::Config c = base;
    c.router.piggyback_credits = true;
    cells.push_back({"piggyback", c, {}});
  }
  {
    core::Config c = base;
    c.router.flow_control = router::FlowControl::kDropping;
    c.router.enforce_vc_parity = false;  // validate() rejects the combination
    cells.push_back({"dropping", c, {}});
  }
  {
    core::Config c = base;
    c.router.speculative = false;
    cells.push_back({"two-stage", c, {}});
  }
  {
    core::Config c = base;
    c.router.priority_arbitration = false;
    cells.push_back({"rr-arb", c, {}});
  }
  {
    core::Config c = base;
    c.router.buffer_depth = 2;
    cells.push_back({"shallow", c, {}});
  }
  {
    core::Config c = base;
    c.link_latency = 2;
    cells.push_back({"latency2", c, {}});
  }

  // Link-death scenarios (require the fault layer). The kill lands mid-load
  // so in-flight flits cross the dying link and new packets reroute.
  Scenario kill;
  kill.kill_node = 0;
  kill.kill_port = topo::Port::kRowPos;
  kill.kill_cycle = 60;
  {
    core::Config c = base;
    c.fault_layer = true;
    cells.push_back({"chaos-baseline", c, kill});
  }
  {
    core::Config c = base;
    c.fault_layer = true;
    c.router.piggyback_credits = true;
    cells.push_back({"chaos-piggyback", c, kill});
  }
  {
    core::Config c = base;
    c.topology = core::TopologyKind::kMesh;
    c.router.enforce_vc_parity = false;
    c.fault_layer = true;
    cells.push_back({"chaos-mesh", c, kill});
  }
  return cells;
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options) {
  sweep::SweepOptions so;
  so.threads = options.threads;
  so.master_seed = options.master_seed;
  sweep::SweepRunner runner(so);

  const std::size_t seeds = static_cast<std::size_t>(std::max(1, options.seeds));
  const std::size_t n = cells.size() * seeds;
  std::vector<PointResult> points = runner.map<PointResult>(
      n, [&](std::size_t i, std::uint64_t seed) {
        const CampaignCell& cell = cells[i / seeds];
        PointResult pr;
        pr.cell = cell.name;
        pr.seed = seed;
        const std::vector<traffic::TraceEntry> trace =
            point_trace(cell.config, options.trace_cycles, seed);
        const DiffResult r = run_lockstep(cell.config, cell.scenario, trace,
                                          options.max_cycles);
        pr.diverged = r.diverged;
        pr.drained = r.drained;
        pr.cycles_run = r.cycles_run;
        pr.deliveries = r.deliveries;
        pr.divergence = r.divergence;
        if (r.diverged) {
          std::vector<traffic::TraceEntry> minimized = trace;
          DiffResult final_run = r;
          if (options.minimize) {
            MinimizeResult m = minimize_divergence(cell.config, cell.scenario,
                                                   trace, options.max_cycles);
            minimized = std::move(m.trace);
            final_run = run_lockstep(cell.config, cell.scenario, minimized,
                                     options.max_cycles);
            if (final_run.diverged) pr.divergence = final_run.divergence;
          }
          pr.report = divergence_report(cell.config, cell.scenario, minimized,
                                        final_run);
        }
        return pr;
      });

  CampaignResult result;
  result.points = static_cast<int>(points.size());
  for (auto& pr : points) {
    result.deliveries += pr.deliveries;
    if (pr.diverged) {
      ++result.diverged;
      result.failures.push_back(std::move(pr));
    }
  }
  return result;
}

CampaignResult run_shard_campaign(const std::vector<CampaignCell>& cells,
                                  const CampaignOptions& options, int shards) {
  sweep::SweepOptions so;
  so.threads = options.threads;
  so.master_seed = options.master_seed;
  sweep::SweepRunner runner(so);

  const std::size_t seeds = static_cast<std::size_t>(std::max(1, options.seeds));
  const std::size_t n = cells.size() * seeds;
  std::vector<PointResult> points = runner.map<PointResult>(
      n, [&](std::size_t i, std::uint64_t seed) {
        const CampaignCell& cell = cells[i / seeds];
        PointResult pr;
        pr.cell = cell.name;
        pr.seed = seed;
        const std::vector<traffic::TraceEntry> trace =
            point_trace(cell.config, options.trace_cycles, seed);
        const DiffResult r = run_shard_lockstep(cell.config, cell.scenario,
                                                trace, shards,
                                                options.max_cycles);
        pr.diverged = r.diverged;
        pr.drained = r.drained;
        pr.cycles_run = r.cycles_run;
        pr.deliveries = r.deliveries;
        pr.divergence = r.divergence;
        if (r.diverged) {
          pr.report =
              divergence_report(cell.config, cell.scenario, trace, r, shards);
        }
        return pr;
      });

  CampaignResult result;
  result.points = static_cast<int>(points.size());
  // Evidence against the analyzer: only a divergence in what the fabric did
  // (its delivery log or its state). The analyzer proves that sharding
  // cannot change those; it says nothing about kernel work counts.
  std::vector<bool> fabric_diverged(cells.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& pr = points[i];
    result.deliveries += pr.deliveries;
    if (pr.diverged) {
      ++result.diverged;
      const std::string& kind = pr.divergence.kind;
      if (kind == "state" || kind == "delivery") fabric_diverged[i / seeds] = true;
      result.failures.push_back(std::move(pr));
    }
  }

  if (options.analyze) {
    // Cross-validate the static analyzer against the dynamic truth this
    // campaign just established, in both directions: a partition it proves
    // safe must not diverge, and one it refuses must not silently pass (the
    // refusal would block VerifiedNetwork for no dynamic reason).
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const analyze::AnalysisReport ar =
          analyze::analyze_config(cells[c].config, shards);
      ++result.analyzer_cells;
      const bool static_ok = ar.ok();
      const bool dynamic_ok = !fabric_diverged[c];
      if (static_ok == dynamic_ok) continue;
      ++result.analyzer_mismatches;
      std::string note = "cell " + cells[c].name + " at " +
                         std::to_string(shards) + " shards: ";
      if (static_ok) {
        note += "analyzer PROVED the partition safe but lockstep diverged "
                "(unsound proof)";
      } else {
        note += "analyzer REFUSED the partition but every lockstep point "
                "agreed (spurious refusal):\n" + ar.to_string();
      }
      result.analyzer_notes.push_back(std::move(note));
    }
  }
  return result;
}

}  // namespace ocn::ref
