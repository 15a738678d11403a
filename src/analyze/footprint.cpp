#include "analyze/footprint.h"

#include <utility>

namespace ocn::analyze {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kParallelStep: return "parallel step";
    case Phase::kSerialStep: return "serial step";
    case Phase::kAdvance: return "channel advance";
    case Phase::kSerialFlush: return "serial flush";
  }
  return "?";
}

bool parallel_phase(Phase p) {
  return p == Phase::kParallelStep || p == Phase::kAdvance;
}

const char* break_kind_name(BreakKind k) {
  switch (k) {
    case BreakKind::kZeroLatencyCross: return "zero-latency-cross";
    case BreakKind::kGlobalMutator: return "global-mutator";
    case BreakKind::kGatedBoundary: return "gated-boundary";
  }
  return "?";
}

int FootprintModel::add_component(std::string name, int shard, double work) {
  components.push_back(Component{std::move(name), shard, work});
  return static_cast<int>(components.size()) - 1;
}

int FootprintModel::add_state(State s) {
  states.push_back(std::move(s));
  return static_cast<int>(states.size()) - 1;
}

void FootprintModel::access(int component, int state, Phase phase, AccessKind kind) {
  accesses.push_back(Access{component, state, phase, kind});
}

int FootprintModel::executor_shard(const Access& a) const {
  // A channel's advance runs on its own advancing shard. An arrival-byte
  // stamp (kAdvance write to a non-channel state) runs on whatever shard's
  // advancer issued it — the component's shard — which is how a mis-filed
  // channel is caught: its stamp lands on a wake byte owned by another
  // shard.
  if (a.phase == Phase::kAdvance &&
      states[static_cast<std::size_t>(a.state)].channel) {
    return states[static_cast<std::size_t>(a.state)].advance_shard;
  }
  return components[static_cast<std::size_t>(a.component)].shard;
}

std::string FootprintModel::describe_component(int id) const {
  const Component& c = components[static_cast<std::size_t>(id)];
  if (c.shard == kSerialShard) return c.name + " (serial)";
  return c.name + " (shard " + std::to_string(c.shard) + ")";
}

std::string FootprintModel::describe_state(int id) const {
  const State& s = states[static_cast<std::size_t>(id)];
  std::string d = s.name;
  if (s.channel) {
    d += " [latency " + std::to_string(s.latency) +
         (s.boundary ? ", boundary" : ", interior") + "]";
  } else if (s.atomic_commutative) {
    d += " [atomic accumulator]";
  } else if (s.latency == 0) {
    d += " [plain state]";
  }
  return d;
}

namespace {

// Static per-tick work estimates for the quality verdict. Unitless; chosen
// so a router (which sweeps every port's VC state each active cycle)
// dominates a NIC, and a channel advance is the cheap fast-path test.
double router_work(const core::Config& c) {
  return static_cast<double>(topo::kNumPorts * c.router.vcs);
}
constexpr double kNicWork = 4.0;
constexpr double kChannelWork = 1.0;

}  // namespace

FootprintModel build_footprint(const core::Config& config,
                               const core::ShardPartition& partition) {
  FootprintModel m;
  m.partition = partition;
  m.config = config;

  const auto topo = config.make_topology();
  const int n = topo->num_nodes();
  const int shards = partition.shards();

  // --- components, mirroring Network::build registration order -------------
  std::vector<int> nic_of(static_cast<std::size_t>(n));
  std::vector<int> router_of(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const int s = partition.shard_of(i);
    nic_of[static_cast<std::size_t>(i)] =
        m.add_component("nic." + std::to_string(i), s, kNicWork);
    router_of[static_cast<std::size_t>(i)] =
        m.add_component("router." + std::to_string(i), s, router_work(config));
  }
  // Per-shard channel advancers (phase B executors).
  std::vector<int> advancer(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    advancer[static_cast<std::size_t>(s)] =
        m.add_component("shard." + std::to_string(s) + ".advancer", s, 0.0);
  }
  // Serial-phase globals: traffic clients/services/monitor (whatever is
  // registered in the global kernel steps here), and the end-of-tick
  // observer/tracer flush the sharded network runs in node order.
  const int clients = m.add_component("clients", kSerialShard, 0.0);
  const int flusher = m.add_component("observer-flush", kSerialShard, 0.0);

  // --- per-node internal state ---------------------------------------------
  // router.N.pool is the node's RouterStatePool slot: the SoA rows holding
  // every per-VC field (buffer counts, routing decisions, credits, allocator
  // flags, pipeline stage, per-cycle transients) that the object layer views
  // into. One state suffices because the whole slot has one owner — the
  // router component on the node's shard.
  std::vector<int> arb_state(static_cast<std::size_t>(n));
  std::vector<int> router_state(static_cast<std::size_t>(n));
  std::vector<int> nic_state(static_cast<std::size_t>(n));
  std::vector<int> router_wake(static_cast<std::size_t>(n));
  std::vector<int> nic_wake(static_cast<std::size_t>(n));
  std::vector<int> delivery_buf(static_cast<std::size_t>(n));
  std::vector<int> trace_buf(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const std::string node = std::to_string(i);
    const int s = partition.shard_of(i);
    arb_state[static_cast<std::size_t>(i)] =
        m.add_state(State{"router." + node + ".arb", 0, false, kSerialShard, false, false});
    router_state[static_cast<std::size_t>(i)] =
        m.add_state(State{"router." + node + ".pool", 0, false, kSerialShard, false, false});
    nic_state[static_cast<std::size_t>(i)] =
        m.add_state(State{"nic." + node + ".state", 0, false, kSerialShard, false, false});
    // Per-port arrival bytes (the pool's wake row / the NIC's arrival
    // flags): stamped by the phase-B advance of each incoming channel,
    // scanned by the receiver's quiescent() and read/cleared by the
    // receiving component in phase A. The stamping accesses are added by
    // add_channel below; here the receiver's own step accesses.
    router_wake[static_cast<std::size_t>(i)] =
        m.add_state(State{"router." + node + ".wake_row", 0, false, s, false, false});
    nic_wake[static_cast<std::size_t>(i)] =
        m.add_state(State{"nic." + node + ".wake", 0, false, s, false, false});
    delivery_buf[static_cast<std::size_t>(i)] =
        m.add_state(State{"nic." + node + ".delivery_buffer", 0, false, kSerialShard, false, false});
    trace_buf[static_cast<std::size_t>(i)] =
        m.add_state(State{"router." + node + ".trace_buffer", 0, false, kSerialShard, false, false});

    const int nic = nic_of[static_cast<std::size_t>(i)];
    const int rtr = router_of[static_cast<std::size_t>(i)];
    // Routers own their arbiter/allocator rotation pointers and pipeline
    // state outright; NICs own their queues, stats and delivery path. The
    // NIC's register-write filter pokes its own router's reservation tables
    // (same node, hence same shard).
    m.access(rtr, arb_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kRead);
    m.access(rtr, arb_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(rtr, router_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kRead);
    m.access(rtr, router_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(nic, router_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(nic, nic_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kRead);
    m.access(nic, nic_state[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    // Delivery observer callbacks land in the node's buffer during the
    // parallel phase; tracer hooks likewise per router. Both flush serially.
    // The receiver probes its arrival bytes and clears them as it consumes
    // (read + write, phase A).
    m.access(rtr, router_wake[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kRead);
    m.access(rtr, router_wake[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(nic, nic_wake[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kRead);
    m.access(nic, nic_wake[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(nic, delivery_buf[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(rtr, trace_buf[static_cast<std::size_t>(i)], Phase::kParallelStep, AccessKind::kWrite);
    m.access(flusher, delivery_buf[static_cast<std::size_t>(i)], Phase::kSerialFlush, AccessKind::kRead);
    m.access(flusher, trace_buf[static_cast<std::size_t>(i)], Phase::kSerialFlush, AccessKind::kRead);
    // The serial-phase globals drive NICs (injection) and read stats.
    m.access(clients, nic_state[static_cast<std::size_t>(i)], Phase::kSerialStep, AccessKind::kRead);
    m.access(clients, nic_state[static_cast<std::size_t>(i)], Phase::kSerialStep, AccessKind::kWrite);
  }

  // --- global accumulators ---------------------------------------------------
  // NIC register-write filters bump one shared counter from the parallel
  // phase: modelled as the atomic commutative accumulator it is.
  const int reg_counter = m.add_state(
      State{"net.register_writes_applied", 0, false, kSerialShard, false, true});
  for (NodeId i = 0; i < n; ++i) {
    m.access(nic_of[static_cast<std::size_t>(i)], reg_counter, Phase::kParallelStep,
             AccessKind::kWrite);
  }
  m.access(clients, reg_counter, Phase::kSerialStep, AccessKind::kRead);
  // The harness/monitor's own state (RNGs, fold buffers) lives with the
  // serial clients component.
  const int harness_state =
      m.add_state(State{"global.harness", 0, false, kSerialShard, false, false});
  m.access(clients, harness_state, Phase::kSerialStep, AccessKind::kRead);
  m.access(clients, harness_state, Phase::kSerialStep, AccessKind::kWrite);

  // --- channels --------------------------------------------------------------
  // One state per delay line, carrying sender (write, phase A), receiver
  // (read, phase A) and the phase-B advance by the classifying shard —
  // exactly Network::build's add_channel: interior when both endpoints
  // share a shard, boundary (advanced by the *receiver's* shard,
  // unconditionally) otherwise. Sender/receiver are per channel direction:
  // a link's credit channel flows dst -> src, so it is filed under
  // shard_of(src) while the flit channel is filed under shard_of(dst).
  // Each advance also stamps the receiving component's arrival byte
  // (ChannelBase::notify_wake), modelled as a phase-B write to the wake
  // state — the analyzer folds it into the shard-locality check, which is
  // what makes the receiver-shard filing invariant a proven property rather
  // than a comment.
  std::vector<int> chan_states;
  const auto add_channel = [&](const std::string& name, NodeId sender_node,
                               NodeId receiver_node, int latency, int sender,
                               int receiver, int wake) {
    const int s_snd = partition.shard_of(sender_node);
    const int s_rcv = partition.shard_of(receiver_node);
    State st;
    st.name = "chan." + name;
    st.latency = latency;
    st.channel = true;
    st.boundary = s_snd != s_rcv;
    st.advance_shard = s_rcv;
    const int adv = st.advance_shard;
    const int id = m.add_state(std::move(st));
    chan_states.push_back(id);
    m.access(sender, id, Phase::kParallelStep, AccessKind::kWrite);
    m.access(receiver, id, Phase::kParallelStep, AccessKind::kRead);
    m.access(advancer[static_cast<std::size_t>(adv)], id, Phase::kAdvance,
             AccessKind::kWrite);
    m.access(advancer[static_cast<std::size_t>(adv)], wake, Phase::kAdvance,
             AccessKind::kWrite);
    m.components[static_cast<std::size_t>(advancer[static_cast<std::size_t>(adv)])]
        .work += kChannelWork;
    return id;
  };

  for (const auto& desc : topo->channels()) {
    const std::string name = "link:" + std::to_string(desc.src) + ":" +
                             topo::port_name(desc.src_out_port);
    const int src_rtr = router_of[static_cast<std::size_t>(desc.src)];
    const int dst_rtr = router_of[static_cast<std::size_t>(desc.dst)];
    add_channel(name, desc.src, desc.dst, config.link_latency, src_rtr, dst_rtr,
                router_wake[static_cast<std::size_t>(desc.dst)]);
    // Credits flow downstream -> upstream: the upstream router's output
    // controller is the receiver, so the channel files under its shard.
    add_channel(name + ":credit", desc.dst, desc.src, config.link_latency,
                dst_rtr, src_rtr, router_wake[static_cast<std::size_t>(desc.src)]);
  }
  for (NodeId i = 0; i < n; ++i) {
    const std::string node = std::to_string(i);
    const int nic = nic_of[static_cast<std::size_t>(i)];
    const int rtr = router_of[static_cast<std::size_t>(i)];
    const int rw = router_wake[static_cast<std::size_t>(i)];
    const int nw = nic_wake[static_cast<std::size_t>(i)];
    add_channel("inject:" + node, i, i, 1, nic, rtr, rw);
    add_channel("inject_credit:" + node, i, i, 1, rtr, nic, nw);
    add_channel("eject:" + node, i, i, 1, rtr, nic, nw);
    add_channel("eject_credit:" + node, i, i, 1, nic, rtr, rw);
  }

  // --- determinism obligations ----------------------------------------------
  m.obligations.push_back(ObligationSpec{
      "arbiter-pointer-ownership",
      "arbiter and allocator rotation pointers are touched only by their "
      "router's shard",
      arb_state});
  m.obligations.push_back(ObligationSpec{
      "observer-flush-order",
      "delivery-observer callbacks buffer per node and flush serially in "
      "node order after the barrier",
      delivery_buf});
  m.obligations.push_back(ObligationSpec{
      "tracer-flush-order",
      "trace events buffer per router and flush serially in node order "
      "after the barrier",
      trace_buf});
  {
    ObligationSpec stats;
    stats.name = "stats-folding";
    stats.claim =
        "per-node statistics are folded by serial-phase components in a "
        "fixed global order; the one parallel-phase accumulator commutes";
    stats.states.push_back(reg_counter);
    stats.states.push_back(harness_state);
    m.obligations.push_back(std::move(stats));
  }
  m.obligations.push_back(ObligationSpec{
      "channel-barrier-slack",
      "every channel either stays inside one shard or crosses the barrier "
      "with >= 1 cycle of slack and an unconditional advance",
      chan_states});
  {
    // The arrival bytes' correctness hinges on receiver-shard filing:
    // the phase-B advance that stamps an arrival byte must run on the same
    // shard whose phase-A step reads and clears it next cycle.
    ObligationSpec wake;
    wake.name = "arrival-byte-filing";
    wake.claim =
        "per-port arrival bytes are stamped only by phase-B advances of the "
        "receiving component's own shard (receiver-shard channel filing) and "
        "read/cleared by that component in phase A";
    wake.states.reserve(static_cast<std::size_t>(2 * n));
    for (NodeId i = 0; i < n; ++i) {
      wake.states.push_back(router_wake[static_cast<std::size_t>(i)]);
      wake.states.push_back(nic_wake[static_cast<std::size_t>(i)]);
    }
    m.obligations.push_back(std::move(wake));
  }

  return m;
}

void corrupt(FootprintModel& model, BreakKind kind) {
  switch (kind) {
    case BreakKind::kZeroLatencyCross:
      for (State& s : model.states) {
        if (s.channel && s.boundary) s.latency = 0;
      }
      return;
    case BreakKind::kGlobalMutator: {
      // A per-shard "stats scraper" stepped inside the parallel phase,
      // all writing one plain global accumulator.
      const int global = model.add_state(
          State{"global.mutable_stats", 0, false, kSerialShard, false, false});
      for (int s = 0; s < model.partition.shards(); ++s) {
        const int c = model.add_component(
            "shard." + std::to_string(s) + ".stats_scraper", s, 0.0);
        model.access(c, global, Phase::kParallelStep, AccessKind::kRead);
        model.access(c, global, Phase::kParallelStep, AccessKind::kWrite);
      }
      // Fold the corrupted state into the stats obligation so the verdict
      // names the obligation it breaks.
      for (ObligationSpec& ob : model.obligations) {
        if (ob.name == "stats-folding") ob.states.push_back(global);
      }
      return;
    }
    case BreakKind::kGatedBoundary:
      for (State& s : model.states) {
        if (s.channel && s.boundary) s.boundary = false;
      }
      return;
  }
}

}  // namespace ocn::analyze
