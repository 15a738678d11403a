// Two-phase synchronous cycle kernel.
//
// Components (Clockable) communicate exclusively through Channel<T> delay
// lines. Within a cycle every component reads channel outputs (the values
// that arrived this cycle) and writes channel inputs (values that will
// arrive `latency` cycles later); the kernel then advances all channels at
// once. Because no component ever observes another component's same-cycle
// writes, evaluation order is irrelevant and simulations are deterministic.
//
// One kernel, one skip rule. Channels are not virtual: every Channel<T> is
// one ring of latency + 1 slots, advanced through a function pointer only
// when a value is in flight or at its output, so idle channels are never
// advanced, at every shard count. A component is stepped only when
// !quiescent(); routers answer that from their arrival bytes (stamped by
// the channels delivering into them) and one occupancy scan of their
// RouterStatePool slot, NICs from O(1) counters, everything else by
// default "never quiescent".
//
// Spatial shards. A kernel built with N > 1 shards steps each shard's
// components on its own pool worker; with N == 1 the one shard is stepped
// inline on the caller and no thread is created. The correctness argument
// is the determinism argument above, applied across threads: every channel
// has latency >= 1, so a barriered two-phase tick preserves single-shard
// semantics verbatim:
//
//   phase A  every shard steps its components; then the global components
//            (traffic harnesses, monitors, services) step serially, in
//            registration order;
//   barrier  the pool's scatter-gather join: every phase-A write
//            happens-before every phase-B read;
//   phase B  every shard advances its due channels. A channel is filed
//            under its receiver's shard; the fields its due test reads have
//            one writer per phase (ChannelBase), so a channel crossing
//            shards is skipped by the same rule as one inside a shard;
//   flush    the end-of-tick hook (core::Network replays per-node observer
//            buffers in node order) runs on the caller before time advances.
//
// Because no step() observes another shard's same-cycle writes, an N-shard
// run is bit-identical to a 1-shard run; the src/ref lockstep harness and
// tests/test_sharded.cpp hold the kernel to that.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "sim/types.h"

namespace ocn {

namespace sweep {
class ThreadPool;
}

/// Anything that does work once per clock cycle.
class Clockable {
 public:
  virtual ~Clockable() = default;
  /// Called once per cycle, after channel outputs for `now` are visible.
  virtual void step(Cycle now) = 0;
  /// True when step() would be an exact no-op this cycle (no arrivals on any
  /// input channel and no internal work pending). The kernel skips stepping
  /// quiescent components, so an implementation must only return true when
  /// skipping is indistinguishable from stepping — including statistics.
  /// The default keeps every component on the clock.
  virtual bool quiescent() const { return false; }
};

/// Non-virtual channel base so the kernel can test every channel for work
/// inline and advance only the due ones, through one direct function-pointer
/// call.
///
/// A channel is due when a value is in flight or sitting at its output,
/// i.e. when it has accepted more values (`sends_`) than it has retired
/// (consumed by the receiver, or expired unconsumed at an advance). Each
/// count has one writer per phase: the sender bumps `sends_` in phase A;
/// the receiver bumps `retired_` in phase A, and the advance — run by the
/// receiver's shard in phase B — bumps it on expiry. The kernel tests them
/// in phase B, after the barrier, so a channel crossing shards is skipped
/// by the same rule as any other, with no atomics.
class ChannelBase {
 public:
  void advance() { advance_fn_(this); }
  /// True when the channel has a value in flight or at its output; channels
  /// that are not are skipped by Kernel::tick.
  bool active() const { return sends_ != retired_; }
  std::int64_t sends() const { return sends_; }

  /// Arrival-byte wiring: stamp `*wake` (store 1) whenever an advance leaves
  /// a value visible at the output — i.e. whenever the receiving component
  /// has an arrival to consume next cycle. The byte is owned by the receiver
  /// (RouterStatePool or the NIC), and a channel is filed under its
  /// receiver's shard, so the phase-B stamp and the phase-A read/clear run
  /// on one shard, ordered by the barrier between the phases.
  void set_wake(std::uint8_t* wake) { wake_ = wake; }

 protected:
  using AdvanceFn = void (*)(ChannelBase*);
  explicit ChannelBase(AdvanceFn fn) : advance_fn_(fn) {}
  ~ChannelBase() = default;  // never deleted through the base
  void notify_wake() {
    if (wake_ != nullptr) *wake_ = 1;
  }

  std::int64_t sends_ = 0;
  std::int64_t retired_ = 0;

 private:
  AdvanceFn advance_fn_;
  std::uint8_t* wake_ = nullptr;
};

/// Unidirectional delay line carrying at most one value per cycle.
///
/// send(v) during cycle t makes v visible via receive() during cycle
/// t + latency. The line is a ring of latency + 1 slots: the read slot is
/// the output, the slot behind it is where this cycle's send lands, and an
/// advance clears the read slot (an unconsumed value expires) and moves the
/// read index one step on. Sending twice in one cycle is a modelling error:
/// it would silently lose a flit in flight, so it is detected
/// unconditionally (all build types) and terminates with the channel name.
template <typename T>
class Channel final : public ChannelBase {
 public:
  explicit Channel(int latency = 1, std::string name = {})
      : ChannelBase(&advance_ring),
        name_(std::move(name)),
        ring_(static_cast<std::size_t>(latency > 0 ? latency : 1) + 1) {
    assert(latency >= 1 && "channels are registered; latency must be >= 1");
  }

  /// The value arriving this cycle, if any. May be called repeatedly.
  const std::optional<T>& receive() const { return ring_[head_]; }

  /// Consume the arriving value (clears it so a second reader sees nothing).
  std::optional<T> take() {
    std::optional<T> v = std::move(ring_[head_]);
    consume();
    return v;
  }

  /// Clear the arriving value without moving it out. Receivers that process
  /// the value in place via receive() (the router/NIC hot paths — saves one
  /// full copy of the payload per arrival) MUST call this afterwards; it is
  /// what take() does minus the move. A consume() with no value arriving is
  /// a no-op.
  void consume() { retire(ring_[head_]); }

  void send(T v) {
    std::optional<T>& slot = ring_[write_index()];
    if (slot.has_value()) {
      std::fprintf(stderr,
                   "ocn: fatal: double send on channel '%s' in one cycle "
                   "(one value per channel per cycle)\n",
                   name_.empty() ? "<unnamed>" : name_.c_str());
      std::terminate();
    }
    slot = std::move(v);
    ++sends_;
  }

  int latency() const { return static_cast<int>(ring_.size()) - 1; }
  const std::string& name() const { return name_; }

  /// Physical length of the wires this channel models, in mm. Used for
  /// wire-energy and duty-factor accounting. Zero for purely logical links.
  double length_mm = 0.0;

 private:
  static void advance_ring(ChannelBase* base) {
    auto* self = static_cast<Channel*>(base);
    self->retire(self->ring_[self->head_]);
    if (++self->head_ == self->ring_.size()) self->head_ = 0;
    if (self->ring_[self->head_].has_value()) self->notify_wake();
  }

  /// The slot this cycle's send lands in: latency advances behind the read
  /// slot, which on a ring of latency + 1 slots is the one just before it.
  std::size_t write_index() const { return (head_ == 0 ? ring_.size() : head_) - 1; }

  void retire(std::optional<T>& slot) {
    if (!slot.has_value()) return;
    slot.reset();
    ++retired_;
  }

  std::string name_;
  std::vector<std::optional<T>> ring_;
  std::size_t head_ = 0;  // read slot
};

/// Owns nothing; sequences registered components and channels. The caller
/// (typically core::Network) owns the objects and guarantees they outlive
/// the kernel.
class Kernel {
 public:
  /// `shards` spatial partitions (clamped to >= 1); see the header comment.
  /// `end_of_tick`, when set, runs on the calling thread after both phases
  /// of every tick but before time advances.
  explicit Kernel(int shards = 1, std::function<void()> end_of_tick = {});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// A global component: stepped serially after every shard, in
  /// registration order.
  void add(Clockable* c) { components_.push_back(c); }
  /// A component stepped by shard `shard`'s worker.
  void add(int shard, Clockable* c) { shard_at(shard).components.push_back(c); }
  /// A channel advanced by shard `shard`'s worker whenever it is due. File
  /// it under its receiver's shard: the receiver consumes the output in
  /// phase A and the advance stamps the receiver's arrival byte in phase B,
  /// so every field the advance writes then stays on one shard.
  void add(int shard, ChannelBase* ch) { shard_at(shard).channels.push_back(ch); }

  /// Unregister a global component (used by detachable observers like the
  /// protocol monitor, whose lifetime is shorter than the network's). No-op
  /// when the component was never registered. Safe to call from inside a
  /// component's own step(): removal during an in-flight tick is deferred to
  /// the end of that tick so the component list is never mutated while
  /// iterated.
  void remove(Clockable* c);

  /// Run `cycles` cycles from the current time.
  void run(Cycle cycles);

  /// Advance exactly one cycle.
  void tick();

  Cycle now() const { return now_; }

  /// Components whose step() ran last tick (active-set instrumentation).
  int last_tick_stepped() const { return last_tick_stepped_; }
  /// Channels advanced last tick.
  int last_tick_advanced() const { return last_tick_advanced_; }

  // --- observability ---------------------------------------------------------
  /// Attach a counter registry. The kernel registers its own counters
  /// (`kernel.cycles`, `kernel.component_steps`, `kernel.channel_advances`)
  /// and, when `sample_interval` > 0, bulk-samples the *whole* registry into
  /// interval_snapshots() every that many cycles. Cost while attached: one
  /// pointer test plus three counter increments per tick — nothing per
  /// component or per channel, so observability stays off the hot path.
  /// Pass nullptr to detach.
  void attach_metrics(obs::CounterRegistry* registry, Cycle sample_interval = 0);

  obs::CounterRegistry* metrics() const { return metrics_; }

  /// Bulk-sample the attached registry, stamped with the current cycle.
  /// Returns an empty snapshot when no registry is attached.
  obs::MetricsSnapshot sample() const;

  /// Snapshots collected by the periodic sampler (empty unless
  /// attach_metrics was called with sample_interval > 0).
  const std::vector<obs::MetricsSnapshot>& interval_snapshots() const {
    return interval_snapshots_;
  }

 private:
  struct Shard {
    std::vector<Clockable*> components;
    std::vector<ChannelBase*> channels;
    int stepped = 0;
    int advanced = 0;
  };

  Shard& shard_at(int shard) { return shards_.at(static_cast<std::size_t>(shard)); }
  /// Run `body` on every shard: on the pool when there is one, else inline.
  template <typename Body>
  void for_each_shard(const Body& body);

  std::vector<Shard> shards_;
  std::unique_ptr<sweep::ThreadPool> pool_;  // null when there is one shard
  std::function<void()> end_of_tick_;
  std::vector<Clockable*> components_;
  Cycle now_ = 0;
  int last_tick_stepped_ = 0;
  int last_tick_advanced_ = 0;
  bool in_tick_ = false;
  std::vector<Clockable*> deferred_removals_;

  obs::CounterRegistry* metrics_ = nullptr;
  Cycle metrics_interval_ = 0;
  obs::Counter* cycles_counter_ = nullptr;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* advances_counter_ = nullptr;
  std::vector<obs::MetricsSnapshot> interval_snapshots_;
};

}  // namespace ocn
