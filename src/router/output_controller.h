// Output controller: one per router port (paper Figure 3, bottom).
//
// Provides a single stage of buffering for each input-port connection; the
// flits in those stage buffers arbitrate for the outgoing link. Tracks
// downstream credits per VC, owns the downstream VC allocation state, and
// holds the cyclic reservation table for pre-scheduled traffic.
//
// Credits, VC-allocation flags, the stage registers, the
// piggyback carry ring, and the link-arbiter rotation pointer all live in
// the owning router's RouterStatePool slot. The stage is a flat Flit slab
// plus full/fresh flag arrays (replacing std::optional per slot), and the
// carry queue is a fixed ring bounded by vcs x buffer_depth (credit
// conservation: an entry is a freed buffer slot not yet signalled
// upstream). arbitrate_link builds its request/priority sets in stack
// arrays and calls the raw arbiter overload — the per-call vector
// allocations this replaces dominated the pre-SoA hot-path profile.
#pragma once

#include <cassert>
#include <functional>
#include <vector>

#include "router/arbiter.h"
#include "router/flit.h"
#include "router/params.h"
#include "router/reservation.h"
#include "router/soa.h"
#include "router/vc_allocator.h"
#include "sim/kernel.h"
#include "topo/topology.h"

namespace ocn::router {

class OutputController {
 public:
  OutputController(topo::Port port, const RouterParams& params,
                   RouterStatePool& pool, int slot);

  OutputController(OutputController&&) = default;
  OutputController(const OutputController&) = delete;
  OutputController& operator=(const OutputController&) = delete;
  OutputController& operator=(OutputController&&) = delete;

  /// Wire the outgoing link and the downstream credit return. length_mm is
  /// the physical wire length for energy/duty accounting.
  void attach(Channel<Flit>* link, Channel<Credit>* credit_downstream,
              double length_mm);

  bool attached() const { return link_ != nullptr; }
  topo::Port port() const { return port_; }
  double length_mm() const { return length_mm_; }

  /// Install a per-link transform (fault layer). Not owned.
  void set_transform(LinkTransform* t) { transform_ = t; }

  /// Observer invoked for every flit driven onto the link (tracing);
  /// second argument is true for pre-scheduled bypass traversals.
  using Tracer = std::function<void(const Flit&, bool)>;
  void set_tracer(Tracer t) { tracer_ = std::move(t); }

  /// Second observer slot, reserved for the protocol monitor
  /// (verify::RuntimeMonitor) so monitoring composes with client tracing.
  void set_monitor(Tracer t) { monitor_ = std::move(t); }

  /// Phase: absorb credits returned by the downstream input controller.
  void process_credits();

  /// Piggyback path: a credit harvested by the co-located reverse input
  /// controller (this controller's own downstream buffers were freed).
  void receive_credit(VcId vc);
  /// Piggyback path: queue a credit to carry on this link's next flit.
  void queue_carry(VcId vc) {
    assert(*carry_count_ < carry_cap_ &&
           "carry ring overflow: credit conservation violated");
    carry_ring_[(*carry_head_ + *carry_count_) % carry_cap_] = vc;
    ++*carry_count_;
  }
  int carry_backlog() const { return *carry_count_; }

  bool has_credit(VcId vc) const;
  void consume_credit(VcId vc);
  int credits(VcId vc) const { return credits_[vc]; }

  VcAllocator& vc_alloc() { return vc_alloc_; }
  const VcAllocator& vc_alloc() const { return vc_alloc_; }
  ReservationTable& reservations() { return reservations_; }
  const ReservationTable& reservations() const { return reservations_; }

  // --- state inspection (differential harness) ------------------------------
  /// Flits currently sitting in the per-input stage registers.
  int staged_flits() const {
    int n = 0;
    for (int i = 0; i < topo::kNumPorts; ++i) n += stage_full_[i] ? 1 : 0;
    return n;
  }
  const PriorityArbiter& link_arbiter() const { return link_arb_; }
  /// Stage register content for `input` (valid only when !stage_empty).
  const Flit& staged(int input) const { return stage_flits_[input]; }

  // --- output stage ---------------------------------------------------------
  bool stage_empty(int input) const { return !stage_full_[input]; }
  /// Insert a flit that crossed the switch this cycle; it becomes eligible
  /// for link arbitration next cycle (the stage is a register).
  void stage_push(int input, Flit f);

  // --- link -----------------------------------------------------------------
  bool link_used_this_cycle() const { return *link_used_; }
  /// Pre-scheduled bypass: the flit goes straight from the input buffer to
  /// the link, skipping the output stage and arbitration (section 2.6).
  void send_bypass(Flit f);
  /// Arbitrate among non-fresh stage buffers and send the winner; with
  /// piggybacking, an idle link with queued credits emits a credit-only
  /// flit instead.
  void arbitrate_link(Cycle now);

  // --- statistics -----------------------------------------------------------
  std::int64_t flits_sent() const { return flits_sent_; }
  std::int64_t bypass_flits() const { return bypass_flits_; }
  std::int64_t idle_reserved_cycles() const { return idle_reserved_cycles_; }
  /// Cycles in which a ready stage flit lost the link (contention measure).
  std::int64_t contention_cycles() const { return contention_cycles_; }
  /// Active (size-gated) bits sent: control + 2^size_code data bits per
  /// flit. The size field keeps unused data wires from toggling (sec 2.1).
  std::int64_t active_bits_sent() const { return active_bits_sent_; }
  /// Sum over flits of active bits x link mm (inter-router links only).
  double active_bit_mm() const { return active_bit_mm_; }
  std::int64_t credit_only_flits() const { return credit_only_flits_; }
  /// Data-dependent switching activity: bits that actually toggled on the
  /// link, i.e. the Hamming distance between consecutive frames (the
  /// "toggles" of paper section 4.4). Upper-bounded by active_bits_sent().
  std::int64_t toggled_bits() const { return toggled_bits_; }
  double toggled_bit_mm() const { return toggled_bit_mm_; }

 private:
  void send_on_link(Flit f, bool bypass);
  VcId carry_pop() {
    const VcId v = carry_ring_[*carry_head_];
    *carry_head_ = (*carry_head_ + 1) % carry_cap_;
    --*carry_count_;
    return v;
  }

  topo::Port port_;
  const RouterParams& params_;
  Channel<Flit>* link_ = nullptr;
  Channel<Credit>* credit_downstream_ = nullptr;
  LinkTransform* transform_ = nullptr;
  Tracer tracer_;
  Tracer monitor_;
  double length_mm_ = 0.0;

  int* credits_;  ///< pool slice, `vcs` wide
  VcAllocator vc_alloc_;
  ReservationTable reservations_;

  VcId* carry_ring_;  ///< pool ring, carry_cap_ slots
  int* carry_head_;
  int* carry_count_;
  int carry_cap_;
  Flit* stage_flits_;  ///< pool slab, kNumPorts slots (one per input)
  bool* stage_full_;
  bool* stage_fresh_;
  PriorityArbiter link_arb_;
  /// This port's credit-arrival byte in the pool's wake row (see
  /// InputController::arrive_flit_ for the protocol).
  std::uint8_t* arrive_credit_;
  /// Pool-backed per-cycle transient (one flit per link per cycle), cleared
  /// with the stage_fresh flags by RouterStatePool::clear_cycle_flags.
  bool* link_used_;

  std::int64_t flits_sent_ = 0;
  std::int64_t bypass_flits_ = 0;
  std::int64_t idle_reserved_cycles_ = 0;
  std::int64_t contention_cycles_ = 0;
  std::int64_t active_bits_sent_ = 0;
  double active_bit_mm_ = 0.0;
  std::int64_t credit_only_flits_ = 0;
  Flit last_sent_;  ///< previous frame on the wire, for toggle counting
  bool has_last_sent_ = false;
  std::int64_t toggled_bits_ = 0;
  double toggled_bit_mm_ = 0.0;

  friend class Router;
};

}  // namespace ocn::router
