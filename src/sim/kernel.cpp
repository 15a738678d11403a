#include "sim/kernel.h"

#include <algorithm>

#include "sim/sweep/thread_pool.h"

namespace ocn {

Kernel::Kernel(int shards, std::function<void()> end_of_tick)
    : shards_(static_cast<std::size_t>(std::max(shards, 1))),
      end_of_tick_(std::move(end_of_tick)) {
  // One worker per shard, so the partitions genuinely step concurrently
  // (machines with fewer cores just timeslice — determinism does not depend
  // on the interleaving).
  if (shards_.size() > 1) {
    pool_ = std::make_unique<sweep::ThreadPool>(static_cast<int>(shards_.size()));
  }
}

Kernel::~Kernel() = default;

void Kernel::remove(Clockable* c) {
  if (in_tick_) {
    // A component may detach itself (or a peer) from inside step(); erasing
    // here would invalidate the iteration in tick(). Defer to the end of the
    // tick, after the loop is done with the vector.
    deferred_removals_.push_back(c);
    return;
  }
  components_.erase(std::remove(components_.begin(), components_.end(), c),
                    components_.end());
}

template <typename Body>
void Kernel::for_each_shard(const Body& body) {
  if (!pool_) {
    body(shards_.front());
    return;
  }
  pool_->for_each_index(shards_.size(), [&](std::size_t s) { body(shards_[s]); });
}

namespace {

int step_due(const std::vector<Clockable*>& components, Cycle now) {
  int stepped = 0;
  for (Clockable* c : components) {
    if (c->quiescent()) continue;
    c->step(now);
    ++stepped;
  }
  return stepped;
}

int advance_due(const std::vector<ChannelBase*>& channels) {
  int advanced = 0;
  for (ChannelBase* ch : channels) {
    if (ch->active()) {
      ch->advance();
      ++advanced;
    }
  }
  return advanced;
}

}  // namespace

void Kernel::tick() {
  in_tick_ = true;
  const Cycle now = now_;

  // Phase A: shard components (in parallel when there is a pool), then the
  // global components serially.
  for_each_shard([now](Shard& sh) { sh.stepped = step_due(sh.components, now); });
  int stepped = step_due(components_, now);

  // Phase B: every shard advances its due channels.
  for_each_shard([](Shard& sh) { sh.advanced = advance_due(sh.channels); });
  int advanced = 0;

  for (const Shard& sh : shards_) {
    stepped += sh.stepped;
    advanced += sh.advanced;
  }
  if (end_of_tick_) end_of_tick_();

  last_tick_stepped_ = stepped;
  last_tick_advanced_ = advanced;
  ++now_;
  if (metrics_) {
    cycles_counter_->inc();
    steps_counter_->inc(stepped);
    advances_counter_->inc(advanced);
    if (metrics_interval_ > 0 && now_ % metrics_interval_ == 0) {
      interval_snapshots_.push_back(metrics_->snapshot(now_));
    }
  }
  in_tick_ = false;
  if (!deferred_removals_.empty()) {
    for (Clockable* c : deferred_removals_) remove(c);
    deferred_removals_.clear();
  }
}

void Kernel::attach_metrics(obs::CounterRegistry* registry, Cycle sample_interval) {
  metrics_ = registry;
  metrics_interval_ = sample_interval;
  if (metrics_) {
    cycles_counter_ = &metrics_->counter("kernel.cycles");
    steps_counter_ = &metrics_->counter("kernel.component_steps");
    advances_counter_ = &metrics_->counter("kernel.channel_advances");
  } else {
    cycles_counter_ = steps_counter_ = advances_counter_ = nullptr;
  }
}

obs::MetricsSnapshot Kernel::sample() const {
  return metrics_ ? metrics_->snapshot(now_) : obs::MetricsSnapshot{};
}

void Kernel::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) tick();
}

}  // namespace ocn
