#ifndef COSMOS_CORE_STATISTICS_H_
#define COSMOS_CORE_STATISTICS_H_

#include <deque>
#include <map>
#include <string>

#include "common/time.h"
#include "stream/catalog.h"

namespace cosmos {

// Observed-rate statistics over a sliding event-time window. The benefit
// model C(q) starts from catalog rate *estimates*; a self-tuning deployment
// measures the real arrival rates and recalibrates (COSMOS = COoperative
// and Self-tuning Management Of Streaming data). CosmosSystem feeds every
// published source tuple through a RateMonitor; CalibrateCatalog() writes
// the observed rates back so subsequent grouping decisions use reality.
class RateMonitor {
 public:
  explicit RateMonitor(Duration window = 10 * kMinute);

  Duration window() const { return window_; }

  // One stream's observations. Series are never removed, so a pointer
  // from Track() stays valid for the monitor's lifetime.
  struct Series {
    // Event times, pruned against the window lazily.
    mutable std::deque<Timestamp> events;
    uint64_t total_tuples = 0;
    Timestamp max_ts = kInvalidTimestamp;
  };

  // `stream`'s series, created empty (observed from now on) when new.
  Series* Track(const std::string& stream);

  // Records one tuple of `stream` at event time `ts`. Timestamps may
  // arrive slightly out of order; pruning uses the maximum seen so far.
  void Record(const std::string& stream, Timestamp ts) {
    Record(Track(stream), ts);
  }
  // The same, for a series already resolved with Track().
  void Record(Series* series, Timestamp ts);

  // Observed tuples per second of `stream` over the trailing window ending
  // at `now` (0.0 when nothing was observed).
  double TupleRate(const std::string& stream, Timestamp now) const;

  // Tuples currently inside the window.
  size_t WindowCount(const std::string& stream, Timestamp now) const;

  // Lifetime totals (never pruned).
  uint64_t TotalTuples(const std::string& stream) const;

  // Writes each observed stream's tuple rate into `catalog` (streams the
  // catalog does not know are skipped). Returns how many were updated.
  size_t CalibrateCatalog(Catalog& catalog, Timestamp now) const;

  std::vector<std::string> ObservedStreams() const;

  // Largest relative drift |observed/estimate - 1| between observed tuple
  // rates and the catalog's current estimates at `now` (streams the catalog
  // does not know, or with nothing in the window, are skipped). The
  // SelfTuner gates catalog recalibration on this.
  double MaxDriftRatio(const Catalog& catalog, Timestamp now) const;

 private:
  void Prune(const Series& s, Timestamp now) const;
  // Effective averaging span at `now`: the window, clipped to the span of
  // data actually observed (so early measurements are not diluted).
  double SpanSeconds(const Series& s, Timestamp now) const;

  Duration window_;
  std::map<std::string, Series> series_;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_STATISTICS_H_
