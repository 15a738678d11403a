// Network interface controller: the "local logic" of paper section 2.2.
//
// Converts client datagrams (Packet) into flit streams and back. Implements
// the section-2.1 port semantics: per-VC ready (credit) state toward the
// tile input controller, class-of-service selection via the VC mask, and
// priority interleaving — injection of a long low-priority packet is
// interrupted to inject a short high-priority packet and then resumed,
// because injection arbitration runs per flit across VC queues.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/interface.h"
#include "router/arbiter.h"
#include "routing/route_computer.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace ocn::core {

class Nic final : public Clockable {
 public:
  using DeliveryHandler = std::function<void(Packet&&)>;

  Nic(NodeId node, const Config& config, const routing::RouteComputer& routes);

  void attach(Channel<router::Flit>* inject, Channel<router::Credit>* inject_credit,
              Channel<router::Flit>* eject, Channel<router::Credit>* eject_credit);

  NodeId node() const { return node_; }

  // --- client API -----------------------------------------------------------
  /// Queue a datagram for injection. Returns false when the class queue is
  /// full (client backpressure). Self-addressed packets are delivered
  /// locally without entering the network.
  bool inject(Packet packet, Cycle now);

  /// Packets for which no delivery handler is installed accumulate here.
  std::deque<Packet>& received() { return received_; }
  void set_delivery_handler(DeliveryHandler handler) { handler_ = std::move(handler); }

  /// Pre-delivery filters (first match consumes the packet); used by the
  /// network-register decoder and by services that snoop their own message
  /// types without disturbing the client handler.
  using Filter = std::function<bool(const Packet&)>;
  void add_filter(Filter filter) { filters_.push_back(std::move(filter)); }

  /// Observer invoked for every packet this NIC delivers, before filters run
  /// and regardless of handler installation. Non-consuming: the packet is
  /// still filtered/handled/queued exactly as without an observer. Used by
  /// the differential harness to log ejection order without perturbing the
  /// client-visible path.
  using DeliveryObserver = std::function<void(const Packet&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    delivery_observer_ = std::move(observer);
  }

  /// The section-2.1 "ready" field: bit v set when the network can accept a
  /// flit on VC v.
  std::uint8_t ready_mask() const;

  /// Test hook: client refuses delivery on a VC (exercises the ejection
  /// credit loop).
  void set_ejection_stall(VcId vc, bool stalled);

  // --- scheduled traffic ----------------------------------------------------
  /// Queue a single-flit scheduled packet to leave the NIC at exactly
  /// `send_at` (its reservation phase). Used by traffic::ScheduledFlow.
  void schedule_packet(Packet packet, Cycle send_at, Cycle now);

  void step(Cycle now) override;

  /// Active-set fast path: a NIC with nothing arriving on its tile port, no
  /// queued injection flits, no pending ejections and no loopback deliveries
  /// is skipped by the kernel (see Clockable::quiescent).
  bool quiescent() const override;

  // --- statistics -----------------------------------------------------------
  std::int64_t packets_injected() const { return packets_injected_; }
  std::int64_t packets_delivered() const { return packets_delivered_; }
  std::int64_t flits_injected() const { return flits_injected_; }
  std::int64_t flits_delivered() const { return flits_delivered_; }
  std::int64_t injection_queue_rejects() const { return queue_rejects_; }
  std::int64_t missed_slots() const { return missed_slots_; }
  const Accumulator& latency() const { return latency_; }
  const Accumulator& network_latency() const { return network_latency_; }
  const Accumulator& hops() const { return hops_; }
  const Accumulator& link_mm() const { return link_mm_; }
  const Accumulator& class_latency(int service_class) const {
    return class_latency_[static_cast<std::size_t>(service_class)];
  }
  /// Flits currently queued for injection (all VCs).
  int queued_flits() const;

  // --- state inspection (differential harness) ------------------------------
  /// Credits held toward the router's tile input buffer for VC v.
  int injection_credits(VcId vc) const { return credits_[static_cast<std::size_t>(vc)]; }
  /// Ejected flits parked awaiting the one-flit-per-cycle consume port.
  int pending_eject_flits() const {
    int n = 0;
    for (const auto& q : eject_pending_) n += static_cast<int>(q.size());
    return n;
  }
  /// Piggyback credits queued to ride on the next injected flit.
  int carry_backlog() const { return static_cast<int>(carry_to_router_.size()); }
  /// Incrementally-maintained occupancy counters behind quiescent() and the
  /// injection/ejection fast paths. The SoA cross-check compares them
  /// against queued_flits()/pending_eject_flits()/scheduled_flits_queued(),
  /// which recompute from the queues.
  int queued_flit_counter() const { return queued_flit_count_; }
  int eject_pending_counter() const { return eject_pending_count_; }
  int scheduled_flit_counter() const { return scheduled_flit_count_; }
  /// Scheduled (send_at >= 0) flits queued, recomputed from the queues.
  int scheduled_flits_queued() const {
    int n = 0;
    for (const auto& q : vc_queues_) {
      for (const auto& qf : q) n += qf.send_at >= 0 ? 1 : 0;
    }
    return n;
  }
  const router::PriorityArbiter& inject_arbiter() const { return inject_arb_; }
  const router::RoundRobinArbiter& eject_arbiter() const { return eject_arb_; }

 private:
  struct QueuedFlit {
    router::Flit flit;
    Cycle send_at = -1;  ///< exact departure cycle for scheduled flits
  };
  struct Reassembly {
    bool active = false;
    router::Flit head;  ///< metadata from the head flit
    std::vector<router::Payload> payloads;
    int last_bits = router::kDataBits;
  };

  void enqueue_packet_flits(Packet& packet, Cycle now, Cycle send_at);
  void process_ejection(Cycle now);
  void consume_flit(router::Flit flit, Cycle now);
  void do_injection(Cycle now);
  void deliver(Packet&& packet);

  NodeId node_;
  const Config& config_;
  const routing::RouteComputer& routes_;

  Channel<router::Flit>* inject_ = nullptr;
  Channel<router::Credit>* inject_credit_ = nullptr;
  Channel<router::Flit>* eject_ = nullptr;
  Channel<router::Credit>* eject_credit_ = nullptr;
  /// Arrival bytes for the two channels delivering INTO this NIC (ejected
  /// flits, returned injection credits), same protocol as the router pool's
  /// wake row: attach() wires them, the channel stamps on delivery, and
  /// quiescent()/step() probe the channel object only when the byte is set,
  /// clearing it as they consume. Plain bytes: both channels are filed under
  /// this NIC's shard, so stamp and clear never run on two shards at once.
  std::uint8_t eject_arrive_ = 0;
  std::uint8_t inj_credit_arrive_ = 0;

  std::vector<std::deque<QueuedFlit>> vc_queues_;
  /// Piggyback mode: credits for the router's tile output controller
  /// (reassembly slots freed here), carried on injected flits.
  std::deque<VcId> carry_to_router_;
  std::vector<int> queued_packets_per_class_;
  std::vector<int> credits_;
  /// Rotation pointers the two arbiters view (router arbiters keep theirs
  /// in the RouterStatePool). Declared before the arbiters that bind them.
  int inject_rotation_ = 0;
  int eject_rotation_ = 0;
  router::PriorityArbiter inject_arb_;

  std::vector<std::deque<router::Flit>> eject_pending_;
  /// Occupancy counters over vc_queues_ / eject_pending_ (sum of queue
  /// sizes, maintained at every push/pop) so the per-cycle quiescent poll
  /// and the ejection-arbitration gate are O(1) instead of walking all the
  /// deques. The accessors queued_flits()/pending_eject_flits() still
  /// recompute from the queues — the SoA cross-check compares both.
  int queued_flit_count_ = 0;
  int eject_pending_count_ = 0;
  /// Scheduled (send_at >= 0) flits currently queued. While zero, the
  /// injection request scan can test credit readiness before touching the
  /// queue front (no reservation-phase checks or missed-slot accounting can
  /// apply), which skips the deque access for credit-starved VCs.
  int scheduled_flit_count_ = 0;
  std::vector<bool> eject_stalled_;
  router::RoundRobinArbiter eject_arb_;
  std::vector<Reassembly> reassembly_;
  // Per-cycle arbitration scratch, reused to keep allocations off the hot
  // path.
  std::vector<std::uint8_t> req_scratch_;  // raw-arbiter request format
  std::vector<int> prio_scratch_;

  std::deque<std::pair<Packet, Cycle>> loopback_;  ///< self-addressed, (packet, deliver_at)

  DeliveryHandler handler_;
  DeliveryObserver delivery_observer_;
  std::vector<Filter> filters_;
  std::deque<Packet> received_;

  PacketId next_packet_id_;
  std::int64_t packets_injected_ = 0;
  std::int64_t packets_delivered_ = 0;
  std::int64_t flits_injected_ = 0;
  std::int64_t flits_delivered_ = 0;
  std::int64_t queue_rejects_ = 0;
  std::int64_t missed_slots_ = 0;
  Accumulator latency_;
  Accumulator network_latency_;
  Accumulator hops_;
  Accumulator link_mm_;
  std::vector<Accumulator> class_latency_;
};

}  // namespace ocn::core
