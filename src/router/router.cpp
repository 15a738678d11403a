#include "router/router.h"

#include <cassert>
#include <cstring>

namespace ocn::router {

using topo::Port;

Router::Router(NodeId node, const topo::Topology& topology, const RouterParams& params,
               RouterStatePool& pool, int slot)
    : node_(node), topo_(topology), params_(params), pool_(&pool), slot_(slot) {
  assert(slot >= 0 && slot < pool.routers());
  assert(params_.vcs <= kMaxArbiterInputs);
  inputs_.reserve(topo::kNumPorts);
  outputs_.reserve(topo::kNumPorts);
  switch_arbs_.reserve(topo::kNumPorts);
  for (int p = 0; p < topo::kNumPorts; ++p) {
    inputs_.emplace_back(static_cast<Port>(p), params_, *pool_, slot_);
    outputs_.emplace_back(static_cast<Port>(p), params_, *pool_, slot_);
    switch_arbs_.emplace_back(params_.vcs, pool_->switch_pointer(slot_, p));
  }
  for (int p = 0; p < topo::kNumPorts; ++p) {
    const Port rev = topo::reverse(static_cast<Port>(p));
    inputs_[static_cast<std::size_t>(p)].set_reverse_output(
        &outputs_[static_cast<std::size_t>(rev)]);
  }
  std::memset(req_scratch_, 0, sizeof(req_scratch_));
  std::memset(prio_scratch_, 0, sizeof(prio_scratch_));
  for (int p = 0; p < topo::kNumPorts; ++p) {
    dateline_cache_[p] = topo_.crosses_dateline(node_, static_cast<Port>(p));
  }
}

bool Router::quiescent() const {
  const std::uint8_t* row = pool_->wake_row(slot_);
  for (int i = 0; i < RouterStatePool::kWakeWidth; ++i) {
    if (row[i] != 0) return false;
  }
  return !pool_->has_internal_work(slot_);
}

bool Router::effective_dateline(const Flit& head, Port in_port, Port out_port) const {
  if (out_port == Port::kTile) return head.dateline_crossed;
  bool crossed = head.dateline_crossed;
  // Entering a new dimension (or entering the network) resets the state.
  if (in_port == Port::kTile || topo::dim_of(in_port) != topo::dim_of(out_port)) {
    crossed = false;
  }
  if (dateline_cache_[static_cast<int>(out_port)]) crossed = true;
  return crossed;
}

void Router::step(Cycle now) {
  for (auto& out : outputs_) out.process_credits();
  for (auto& in : inputs_) in.accept_arrival();
  for (auto& in : inputs_) in.decode_fronts(now);
  vc_allocation(now);
  reservation_bypass(now);
  link_arbitration(now);
  switch_traversal(now);
  // The per-cycle transients (popped, link_used, stage_fresh) are pool
  // rows, cleared with contiguous writes.
  pool_->clear_cycle_flags(slot_);
}

void Router::vc_allocation(Cycle now) {
  // Rotate the input starting point so no input gets structural priority on
  // downstream VCs. Derived from the cycle counter (identical to a counter
  // incremented every cycle) so skipped quiescent cycles don't perturb it.
  const int start = static_cast<int>(now % topo::kNumPorts);
  for (int i = 0; i < topo::kNumPorts; ++i) {
    const int p = (start + i) % topo::kNumPorts;
    auto& in = inputs_[static_cast<std::size_t>(p)];
    if (!in.attached()) continue;
    // Candidate filter over the pool's contiguous rows — the same pure
    // reads the facade would make, as sequential loads. Only VCs that are
    // occupied, routed, and still ungranted fall through.
    const int* cnt = pool_->buf_count_row(slot_, p);
    const bool* routed = pool_->routed_row(slot_, p);
    const VcId* outvc = pool_->out_vc_row(slot_, p);
    const Cycle* routed_at = pool_->routed_at_row(slot_, p);
    const Port* outport = pool_->out_port_row(slot_, p);
    std::uint8_t* amask = pool_->alloc_mask_row(slot_, p);
    bool* awant = pool_->alloc_want_odd_row(slot_, p);
    bool* ahead = pool_->alloc_head_row(slot_, p);
    bool* aprimed = pool_->alloc_primed_row(slot_, p);
    const int nvcs = in.num_vcs();
    for (VcId v = 0; v < nvcs; ++v) {
      if (cnt[v] == 0 || !routed[v] || outvc[v] != kInvalidVc) continue;
      // Conservative pipeline: decode and allocation are separate stages.
      if (!params_.speculative && routed_at[v] >= now) continue;
      // Retry cache: the request (front-is-head, mask, parity) is a pure
      // function of the head flit, which stays at the front for as long as
      // this VC remains a candidate (a pop requires the grant this stage is
      // trying to produce, and a new head re-decodes, which invalidates).
      // Priming reads the slab once per packet; retries replay the rows.
      if (!aprimed[v]) {
        const Flit& head = in.vc(v).front();
        aprimed[v] = true;
        ahead[v] = is_head(head.type);
        amask[v] = head.vc_mask;
        awant[v] = effective_dateline(head, in.port(), outport[v]);
      }
      if (!ahead[v]) continue;  // alloc happens at the head only
      auto& out = outputs_[static_cast<std::size_t>(outport[v])];
      if (v == params_.scheduled_vc && params_.exclusive_scheduled_vc) {
        // Pre-scheduled traffic keeps its dedicated VC end to end; slots
        // were reserved at configuration time so no allocation is needed.
        in.vc(v).out_vc = params_.scheduled_vc;
        continue;
      }
      if (params_.dropping()) {
        // Dropping flow control keeps the same VC index across hops; the
        // VC is still owned for the packet's duration so wormholes from
        // different inputs never interleave on one link VC.
        if (out.vc_alloc().allocate_exact(v)) in.vc(v).out_vc = v;
        continue;
      }
      const bool ignore_parity = outport[v] == Port::kTile;
      const VcId granted = out.vc_alloc().allocate(amask[v], awant[v], ignore_parity);
      if (granted != kInvalidVc) in.vc(v).out_vc = granted;
    }
  }
}

Flit Router::take_flit(InputController& in, VcId vc, Port out_port, VcId out_vc) {
  Flit f = in.pop(vc);
  if (is_head(f.type)) {
    f.dateline_crossed = effective_dateline(f, in.port(), out_port);
  }
  f.vc = out_vc;
  return f;
}

void Router::reservation_bypass(Cycle now) {
  // Pool-row early-out: without a single reserved slot anywhere (the common
  // case outside scheduled-traffic configs) there is nothing to bypass.
  const int* resv = pool_->resv_count_row(slot_);
  bool any = false;
  for (int p = 0; p < topo::kNumPorts; ++p) any |= resv[p] != 0;
  if (!any) return;
  for (auto& out : outputs_) {
    if (!out.attached() || !out.reservations().any()) continue;
    const auto& slot = out.reservations().at(now);
    if (!slot.reserved()) continue;
    auto& in = inputs_[static_cast<std::size_t>(slot.input)];
    if (!in.attached() || in.popped_this_cycle()) continue;
    VcBuffer& buf = in.vc(slot.vc);
    if (buf.empty() || !buf.routed || buf.out_port != out.port()) continue;
    if (buf.out_vc == kInvalidVc) continue;
    if (!out.has_credit(buf.out_vc)) continue;  // reservation mis-set; wait
    const VcId out_vc = buf.out_vc;
    out.consume_credit(out_vc);
    Flit f = take_flit(in, slot.vc, out.port(), out_vc);
    out.send_bypass(std::move(f));
  }
}

void Router::link_arbitration(Cycle now) {
  // Pool-row gate: arbitrate_link can only act when some stage register is
  // occupied, a piggyback credit is queued (credit-only filler), or a
  // reservation exists (idle reserved slots are accounted every cycle).
  // All three are visible in contiguous pool rows.
  bool any = false;
  const bool* full = pool_->stage_full_block(slot_);
  for (int i = 0; i < topo::kNumPorts * topo::kNumPorts; ++i) any |= full[i];
  if (!any && params_.piggyback_credits) {
    const int* carry = pool_->carry_count_row(slot_);
    for (int p = 0; p < topo::kNumPorts; ++p) any |= carry[p] != 0;
  }
  if (!any) {
    const int* resv = pool_->resv_count_row(slot_);
    for (int p = 0; p < topo::kNumPorts; ++p) any |= resv[p] != 0;
  }
  if (!any) return;
  for (auto& out : outputs_) {
    if (out.attached()) out.arbitrate_link(now);
  }
}

void Router::switch_traversal(Cycle now) {
  for (int i = 0; i < topo::kNumPorts; ++i) {
    auto& in = inputs_[static_cast<std::size_t>(i)];
    if (!in.attached() || in.popped_this_cycle()) continue;
    const int nvcs = in.num_vcs();
    // Row filter first (occupied + routed + VC granted), then the remaining
    // per-candidate checks through the facade. Same request set as checking
    // everything through the views — the predicates are all pure reads.
    const int* cnt = pool_->buf_count_row(slot_, i);
    const bool* routed = pool_->routed_row(slot_, i);
    const VcId* outvc = pool_->out_vc_row(slot_, i);
    int requesters = 0;
    for (VcId v = 0; v < nvcs; ++v) {
      req_scratch_[v] = 0;
      prio_scratch_[v] = 0;
      if (cnt[v] == 0 || !routed[v] || outvc[v] == kInvalidVc) continue;
      // Pre-scheduled traffic moves only on its reserved slots (bypass
      // path); letting it use the dynamic path would reintroduce jitter.
      if (params_.exclusive_scheduled_vc && v == params_.scheduled_vc) continue;
      const VcBuffer& buf = in.vc(v);
      if (!params_.speculative && buf.routed_at >= now) continue;
      const auto& out = outputs_[static_cast<std::size_t>(buf.out_port)];
      if (!out.attached()) continue;
      if (!out.stage_empty(i)) continue;
      if (!out.has_credit(buf.out_vc)) continue;
      req_scratch_[v] = 1;
      prio_scratch_[v] = params_.priority_arbitration ? buf.front().priority : 0;
      ++requesters;
    }
    // Zero requesters: the arbiter would return -1 and leave its pointer
    // frozen (the semantics tests/test_router_units.cpp pins) — skip it.
    if (requesters == 0) continue;
    const int winner =
        params_.priority_arbitration
            ? switch_arbs_[static_cast<std::size_t>(i)].arbitrate(req_scratch_,
                                                                  prio_scratch_)
            : switch_arbs_[static_cast<std::size_t>(i)].arbitrate_flat(req_scratch_);
    if (winner < 0) continue;
    VcBuffer& buf = in.vc(winner);
    auto& out = outputs_[static_cast<std::size_t>(buf.out_port)];
    const VcId out_vc = buf.out_vc;
    const Port out_port = buf.out_port;
    out.consume_credit(out_vc);
    Flit f = take_flit(in, winner, out_port, out_vc);
    out.stage_push(i, std::move(f));
  }
}

std::int64_t Router::buffer_writes() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.buffer_writes();
  return n;
}

std::int64_t Router::buffer_reads() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.buffer_reads();
  return n;
}

std::int64_t Router::packets_dropped() const {
  std::int64_t n = 0;
  for (const auto& in : inputs_) n += in.packets_dropped();
  return n;
}

void Router::register_metrics(obs::CounterRegistry& registry,
                              const std::string& prefix) const {
  registry.gauge(prefix + ".buffer_writes", [this] { return buffer_writes(); });
  registry.gauge(prefix + ".buffer_reads", [this] { return buffer_reads(); });
  registry.gauge(prefix + ".packets_dropped", [this] { return packets_dropped(); });
  for (const auto& in : inputs_) {
    if (!in.attached()) continue;
    const std::string in_prefix =
        prefix + ".in." + topo::port_name(in.port());
    registry.gauge(in_prefix + ".flits", [&in] { return in.flits_arrived(); });
    for (VcId v = 0; v < in.num_vcs(); ++v) {
      registry.gauge(in_prefix + ".vc" + std::to_string(v) + ".flits",
                     [&in, v] { return in.vc_flits(v); });
    }
  }
  for (std::size_t p = 0; p < outputs_.size(); ++p) {
    const auto& out = outputs_[p];
    const std::string out_prefix =
        prefix + ".out." + topo::port_name(static_cast<Port>(p));
    registry.gauge(out_prefix + ".flits", [&out] { return out.flits_sent(); });
    registry.gauge(out_prefix + ".bypass_flits", [&out] { return out.bypass_flits(); });
    registry.gauge(out_prefix + ".contention_cycles",
                   [&out] { return out.contention_cycles(); });
  }
}

}  // namespace ocn::router
