// Lockstep differential harness (see DESIGN.md, "Reference model and
// differential testing").
//
// Drives the production core::Network and the ref::RefNetwork on identical
// seeded traffic, one cycle at a time, and compares the canonical observable
// state vector (RefNetwork::snapshot order) plus the delivery log after
// every cycle. The first mismatch stops the run and is reported with the
// offending labels side by side.
//
// This is the one per-tick check of production state. The router's object
// layer is a set of views over RouterStatePool and the NIC keeps occupancy
// counters; nothing else compares them. A view bound to the wrong slice or a
// counter that misses an update shows up here as a "delivery" or "state"
// divergence against the reference model's independent bookkeeping.
//
// On divergence the caller can hand the trace to minimize_divergence(),
// a ddmin-style delta debugger that runs fresh model pairs on candidate
// subsequences until no chunk can be removed, then render the result with
// divergence_report() — a CSV that traffic::parse_trace round-trips, with
// the config summary and scenario recorded as '#' comments so the failure
// replays from the file alone (`ocn-diff --replay`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "ref/ref_model.h"
#include "traffic/replay.h"

namespace ocn::ref {

/// Chaos to apply mid-run, mirrored on both sides: chaos::kill_link on the
/// production network, RefNetwork::kill_link on the reference (committing
/// the reroute only when the production CDG proof passed). Inactive unless
/// kill_cycle >= 0.
struct Scenario {
  NodeId kill_node = kInvalidNode;
  topo::Port kill_port = topo::Port::kRowPos;
  Cycle kill_cycle = -1;

  bool active() const { return kill_cycle >= 0 && kill_node != kInvalidNode; }
  std::string to_string() const;
};

/// Test hook: skew one reference-side credit counter mid-run, to prove the
/// harness detects (and the minimizer survives) a seeded divergence.
struct Perturbation {
  Cycle cycle = -1;
  NodeId node = 0;
  topo::Port port = topo::Port::kRowPos;
  VcId vc = 0;
  int delta = 1;
};

struct Divergence {
  Cycle cycle = -1;
  /// "delivery" (ejection logs differ), "state" (snapshot fields differ),
  /// "shape" (snapshot lengths differ) or, for the shard referee only,
  /// "work" (components stepped / channels advanced differ).
  std::string kind;
  /// Side-by-side mismatches, "label: production=X reference=Y" (capped).
  std::vector<std::string> details;
  std::string to_string() const;
};

struct DiffResult {
  bool diverged = false;
  Divergence divergence;
  Cycle cycles_run = 0;
  std::int64_t deliveries = 0;  ///< production-side delivered packets
  bool drained = false;         ///< replay finished and both sides idle
};

/// Run both models in lockstep for at most `max_cycles` cycles (stops early
/// once the trace is fully injected and both networks drain). The config
/// must be one the reference model supports (no scheduled traffic, no
/// interface partitioning); Scenario requires config.fault_layer.
DiffResult run_lockstep(const core::Config& config, const Scenario& scenario,
                        const std::vector<traffic::TraceEntry>& trace,
                        Cycle max_cycles, const Perturbation* perturb = nullptr);

/// Shard-determinism referee: run the production network twice on the same
/// config/scenario/trace — once on the single-threaded kernel, once with
/// `shards` spatial shards — and compare the delivery log, the full
/// observable state vector (the same one run_lockstep checks) and the
/// kernel's work (components stepped, channels advanced) after every cycle.
/// The sharded kernel's contract is bit-identical execution, so any
/// divergence is a bug in the shard partitioning or barrier, never
/// tolerance. Requires shards >= 2.
DiffResult run_shard_lockstep(const core::Config& config,
                              const Scenario& scenario,
                              const std::vector<traffic::TraceEntry>& trace,
                              int shards, Cycle max_cycles);

/// ddmin: the smallest subsequence of `trace` on which run_lockstep still
/// diverges (under the same scenario/perturbation). `probes` counts the
/// lockstep runs spent minimizing.
struct MinimizeResult {
  std::vector<traffic::TraceEntry> trace;
  int probes = 0;
};
MinimizeResult minimize_divergence(const core::Config& config,
                                   const Scenario& scenario,
                                   std::vector<traffic::TraceEntry> trace,
                                   Cycle max_cycles,
                                   const Perturbation* perturb = nullptr);

/// Render a replayable failure report: the minimized trace as CSV plus the
/// config summary, scenario and divergence details as '#' comments.
/// parse_trace() reads the result back unchanged. When `shards` >= 2 (the
/// shard-determinism campaigns) a "# shards: N" directive is recorded so
/// --replay reruns the trace under the same kernel partitioning
/// (traffic::trace_header_shards reads it back).
std::string divergence_report(const core::Config& config,
                              const Scenario& scenario,
                              const std::vector<traffic::TraceEntry>& trace,
                              const DiffResult& result, int shards = 0);

/// Validate a replayed trace's shard-count request against the row-strip
/// partition clamp (core::resolve_shards caps shards at the radix). Returns
/// "" when `shards` is honored exactly, else a message naming the request,
/// the clamp and the radix — replay must refuse rather than silently run a
/// different partitioning than the one that produced the trace.
std::string replay_shards_error(int shards, int radix);

}  // namespace ocn::ref
