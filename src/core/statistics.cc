#include "core/statistics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cosmos {

RateMonitor::RateMonitor(Duration window) : window_(window) {
  COSMOS_CHECK_GT(window, 0);
}

RateMonitor::Series* RateMonitor::Track(const std::string& stream) {
  return &series_[stream];
}

void RateMonitor::Record(Series* series, Timestamp ts) {
  Series& s = *series;
  ++s.total_tuples;
  if (s.max_ts == kInvalidTimestamp || ts > s.max_ts) s.max_ts = ts;
  // An out-of-order record already older than the whole window would lodge
  // behind newer entries (front pruning only removes a prefix) and inflate
  // window stats for up to another full window: count it in the lifetime
  // total only.
  if (ts < s.max_ts - window_) return;
  s.events.push_back(ts);
  // Keep memory bounded even without rate queries.
  Prune(s, s.max_ts);
}

void RateMonitor::Prune(const Series& s, Timestamp now) const {
  const Timestamp cutoff = now - window_;
  while (!s.events.empty() && s.events.front() < cutoff) {
    s.events.pop_front();
  }
}

double RateMonitor::SpanSeconds(const Series& s, Timestamp now) const {
  if (s.events.empty()) return 0.0;
  Timestamp oldest = s.events.front();
  Duration span = std::min<Duration>(window_, now - oldest);
  // A single sample spans at least one second so rates stay finite.
  return std::max(1.0, static_cast<double>(span) / kSecond);
}

double RateMonitor::TupleRate(const std::string& stream,
                              Timestamp now) const {
  auto it = series_.find(stream);
  if (it == series_.end()) return 0.0;
  Prune(it->second, now);
  if (it->second.events.empty()) return 0.0;
  return static_cast<double>(it->second.events.size()) /
         SpanSeconds(it->second, now);
}

size_t RateMonitor::WindowCount(const std::string& stream,
                                Timestamp now) const {
  auto it = series_.find(stream);
  if (it == series_.end()) return 0;
  Prune(it->second, now);
  return it->second.events.size();
}

uint64_t RateMonitor::TotalTuples(const std::string& stream) const {
  auto it = series_.find(stream);
  return it == series_.end() ? 0 : it->second.total_tuples;
}

size_t RateMonitor::CalibrateCatalog(Catalog& catalog, Timestamp now) const {
  size_t updated = 0;
  for (const auto& [stream, s] : series_) {
    if (!catalog.HasStream(stream)) continue;
    double rate = TupleRate(stream, now);
    if (rate <= 0.0) continue;
    if (catalog.UpdateRate(stream, rate).ok()) ++updated;
  }
  return updated;
}

double RateMonitor::MaxDriftRatio(const Catalog& catalog,
                                  Timestamp now) const {
  double max_drift = 0.0;
  for (const auto& [stream, s] : series_) {
    if (!catalog.HasStream(stream)) continue;
    double observed = TupleRate(stream, now);
    if (observed <= 0.0) continue;
    auto info = catalog.Lookup(stream);
    if (!info.ok() || info->rate_tuples_per_sec <= 0.0) continue;
    double drift =
        std::abs(observed / info->rate_tuples_per_sec - 1.0);
    if (drift > max_drift) max_drift = drift;
  }
  return max_drift;
}

std::vector<std::string> RateMonitor::ObservedStreams() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [stream, s] : series_) out.push_back(stream);
  return out;
}

}  // namespace cosmos
