#include "obs/counters.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace ocn::obs {

bool MetricsSnapshot::has(std::string_view name) const {
  return std::any_of(values.begin(), values.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

std::int64_t MetricsSnapshot::value(std::string_view name) const {
  for (const auto& [k, v] : values) {
    if (k == name) return v;
  }
  return 0;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  cycle = std::max(cycle, other.cycle);
  // Name -> position of its first occurrence, as a linear scan would find
  // it. Keys are copies: appending below may reallocate `values`.
  std::map<std::string, std::size_t, std::less<>> at;
  for (std::size_t i = 0; i < values.size(); ++i) at.emplace(values[i].first, i);
  for (const auto& [name, v] : other.values) {
    if (const auto it = at.find(name); it != at.end()) {
      values[it->second].second += v;
    } else {
      at.emplace(name, values.size());
      values.emplace_back(name, v);
    }
  }
}

Json MetricsSnapshot::to_json() const {
  Json counters = Json::object();
  for (const auto& [k, v] : values) counters.set(k, Json(v));
  return Json::object().set("cycle", Json(cycle)).set("counters", std::move(counters));
}

MetricsSnapshot MetricsSnapshot::from_json(const Json& j) {
  MetricsSnapshot s;
  if (const Json* c = j.find("cycle")) s.cycle = c->as_int();
  if (const Json* counters = j.find("counters"); counters && counters->is_object()) {
    for (const auto& [k, v] : counters->as_object()) {
      s.values.emplace_back(k, v.as_int());
    }
  }
  return s;
}

Counter& CounterRegistry::counter(const std::string& name) {
  if (const auto it = index_.find(name); it != index_.end()) {
    if (it->second == nullptr) {
      throw std::invalid_argument("obs: counter name already registered as gauge: " + name);
    }
    return *it->second;
  }
  auto& [key, c] = counters_.emplace_back(name, Counter{});
  index_.emplace(key, &c);
  return c;
}

void CounterRegistry::gauge(std::string name, std::function<std::int64_t()> read) {
  if (index_.count(name) != 0) {
    throw std::invalid_argument("obs: instrument name already registered: " + name);
  }
  index_.emplace(gauges_.emplace_back(std::move(name), std::move(read)).first, nullptr);
}

MetricsSnapshot CounterRegistry::snapshot(std::int64_t cycle) const {
  MetricsSnapshot s;
  s.cycle = cycle;
  s.values.reserve(instruments());
  for (const auto& [k, c] : counters_) s.values.emplace_back(k, c.value());
  for (const auto& [k, fn] : gauges_) s.values.emplace_back(k, fn());
  return s;
}

void CounterRegistry::reset_counters() {
  for (auto& [k, c] : counters_) c.reset();
}

}  // namespace ocn::obs
