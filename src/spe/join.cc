#include "spe/join.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cosmos {
namespace {

constexpr size_t kHashSeed = 0xCBF29CE484222325ULL;

// One FNV-style step. Value::Hash makes equal cross-type numerics collide,
// so equal keys always share a bucket.
size_t HashStep(size_t h, const Value& v) {
  return (h ^ v.Hash()) * 0x100000001B3ULL;
}

size_t KeyHash(const Tuple& t, const std::vector<size_t>& attrs) {
  size_t h = kHashSeed;
  for (size_t a : attrs) h = HashStep(h, t.value(a));
  return h;
}

bool KeysEqual(const Value& a, const Value& b) {
  auto cmp = a.Compare(b);
  return cmp.ok() && *cmp == 0;
}

// The latest tau at which a component with timestamp `t` is still inside
// its window.
Timestamp WindowEnd(Timestamp t, Duration window) {
  return window == kInfiniteDuration ? std::numeric_limits<Timestamp>::max()
                                     : t + window;
}

}  // namespace

WindowJoinOperator::WindowJoinOperator(
    std::vector<Duration> windows, std::vector<KeyConstraint> keys,
    ExprPtr residual, std::shared_ptr<const Schema> output_schema)
    : residual_(std::move(residual)),
      output_schema_(std::move(output_schema)) {
  const size_t n = windows.size();
  COSMOS_CHECK(n >= 2 && n <= 8) << "window join takes 2-8 ports, got " << n;
  ports_.resize(n);
  for (size_t i = 0; i < n; ++i) ports_[i].window = windows[i];
  chosen_.resize(n, nullptr);
  for (const auto& k : keys) {
    COSMOS_CHECK(k.left_port < n && k.right_port < n &&
                 k.left_port != k.right_port)
        << "key constraint between ports " << k.left_port << " and "
        << k.right_port;
  }

  walks_.resize(n);
  for (size_t arrival = 0; arrival < n; ++arrival) {
    std::vector<bool> bound(n, false);
    bound[arrival] = true;
    // The constraints between `p` and the bound ports, as checks on `p`.
    auto checks_of = [&](size_t p) {
      std::vector<Check> checks;
      for (const auto& k : keys) {
        if (k.left_port == p && bound[k.right_port]) {
          checks.push_back({k.left_attr, k.right_port, k.right_attr});
        } else if (k.right_port == p && bound[k.left_port]) {
          checks.push_back({k.right_attr, k.left_port, k.left_attr});
        }
      }
      return checks;
    };
    for (size_t s = 1; s < n; ++s) {
      // The lowest unbound port with a key constraint to the bound ports,
      // else the lowest unbound port (scanned).
      Step step;
      step.port = n;
      for (size_t p = 0; p < n; ++p) {
        if (bound[p]) continue;
        std::vector<Check> checks = checks_of(p);
        if (step.port == n || (step.checks.empty() && !checks.empty())) {
          step.port = p;
          step.checks = std::move(checks);
        }
        if (!step.checks.empty()) break;
      }
      if (!step.checks.empty()) {
        std::vector<size_t> attrs;
        for (const Check& c : step.checks) attrs.push_back(c.attr);
        std::vector<Index>& indexes = ports_[step.port].indexes;
        auto it = std::find_if(
            indexes.begin(), indexes.end(),
            [&](const Index& index) { return index.attrs == attrs; });
        step.index = static_cast<size_t>(it - indexes.begin());
        if (it == indexes.end()) indexes.push_back({std::move(attrs), {}});
      }
      bound[step.port] = true;
      walks_[arrival].push_back(std::move(step));
    }
  }
}

void WindowJoinOperator::Evict(Port& port, Timestamp bound) {
  if (port.window == kInfiniteDuration || bound == kInvalidTimestamp) return;
  const Timestamp cutoff = bound - port.window;
  while (!port.tuples.empty() && port.tuples.front().timestamp() < cutoff) {
    for (Index& index : port.indexes) {
      auto [begin, end] =
          index.entries.equal_range(KeyHash(port.tuples.front(), index.attrs));
      for (auto it = begin; it != end; ++it) {
        if (it->second == port.base) {
          index.entries.erase(it);
          break;
        }
      }
    }
    port.tuples.pop_front();
    ++port.base;
  }
}

void WindowJoinOperator::EmitCombination(Timestamp tau) {
  std::vector<Value> values;
  values.reserve(output_schema_->num_attributes());
  for (const Tuple* t : chosen_) {
    values.insert(values.end(), t->values().begin(), t->values().end());
  }
  Tuple joined(output_schema_, std::move(values), tau);
  if (!residual_.has_expr() || residual_.Matches(joined)) Emit(joined);
}

void WindowJoinOperator::Extend(size_t arrival_port, size_t step,
                                Timestamp tau, Timestamp cap) {
  const std::vector<Step>& walk = walks_[arrival_port];
  const Step& s = walk[step];
  const Port& port = ports_[s.port];
  auto bind = [&](const Tuple& resident) {
    const Timestamp t = resident.timestamp();
    const Timestamp next_tau = std::max(tau, t);
    const Timestamp next_cap = std::min(cap, WindowEnd(t, port.window));
    if (next_tau > next_cap) return;
    for (const Check& c : s.checks) {
      if (!KeysEqual(resident.value(c.attr),
                     chosen_[c.other_port]->value(c.other_attr))) {
        return;
      }
    }
    chosen_[s.port] = &resident;
    if (step + 1 == walk.size()) {
      EmitCombination(next_tau);
    } else {
      Extend(arrival_port, step + 1, next_tau, next_cap);
    }
  };
  if (s.index == kScan) {
    for (const Tuple& resident : port.tuples) bind(resident);
    return;
  }
  size_t h = kHashSeed;
  for (const Check& c : s.checks) {
    h = HashStep(h, chosen_[c.other_port]->value(c.other_attr));
  }
  auto [begin, end] = port.indexes[s.index].entries.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    bind(port.tuples[static_cast<size_t>(it->second - port.base)]);
  }
}

void WindowJoinOperator::Push(size_t port, const Tuple& tuple) {
  COSMOS_CHECK_LT(port, ports_.size());
  ports_[port].latest = tuple.timestamp();
  for (size_t j = 0; j < ports_.size(); ++j) {
    if (j == port) continue;
    Timestamp bound = std::numeric_limits<Timestamp>::max();
    for (size_t q = 0; q < ports_.size(); ++q) {
      if (q != j) bound = std::min(bound, ports_[q].latest);
    }
    Evict(ports_[j], bound);
  }

  chosen_[port] = &tuple;
  Extend(port, 0, tuple.timestamp(),
         WindowEnd(tuple.timestamp(), ports_[port].window));

  Port& own = ports_[port];
  const uint64_t seq = own.base + own.tuples.size();
  own.tuples.push_back(tuple);
  for (Index& index : own.indexes) {
    index.entries.emplace(KeyHash(tuple, index.attrs), seq);
  }
}

}  // namespace cosmos
