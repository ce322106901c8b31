#ifndef COSMOS_SPE_AGGREGATE_H_
#define COSMOS_SPE_AGGREGATE_H_

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "query/ast.h"
#include "spe/operator.h"

namespace cosmos {

// One aggregate computed by the operator.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  bool star = false;   // COUNT(*)
  size_t arg = 0;      // input attribute index (when !star)
};

// Windowed grouped aggregation over one input stream: maintains the
// sliding-window contents per Theorem 2's w(T) semantics and, on each
// arrival, emits the refreshed aggregate row of the arriving tuple's group
// (timestamp = arrival time). Evictions update state silently — the next
// emission of a group reflects them; no retraction rows are produced (an
// Istream-style simplification documented in DESIGN.md).
//
// Every aggregate is maintained incrementally, so an arrival costs amortized
// O(1) per aggregate whatever the window size:
//  - COUNT counts the group's rows (nulls included); SUM and AVG add each
//    numeric argument on arrival and subtract it on eviction, in that order.
//  - MIN/MAX keep a monotonic deque per group of (arrival sequence number,
//    value) candidates: an arrival pops only the candidates it is strictly
//    better than, and an eviction pops the front only if it is the victim.
//    The front is therefore the earliest buffered value among the best ones,
//    ranked by Value::Compare. Nulls and NaNs are skipped (a NaN compares
//    equal to every number, so it has no place in the order); a group with
//    no other argument yields null. The argument column's values must be
//    mutually comparable (numerics with numerics, strings with strings).
// An unbounded window ([Range Unbounded]) never evicts, so it buffers no
// rows at all and keeps only the running best per MIN/MAX aggregate.
class WindowAggregateOperator final : public Operator {
 public:
  // `group_keys` are input attribute indexes; the output schema lists the
  // group columns first, then one column per AggSpec.
  WindowAggregateOperator(Duration window, std::vector<size_t> group_keys,
                          std::vector<AggSpec> aggs,
                          std::shared_ptr<const Schema> output_schema);

  void Push(size_t port, const Tuple& tuple) override;

  size_t num_groups() const { return groups_.size(); }
  // Rows held for eviction; always 0 for an unbounded window.
  size_t buffered_tuples() const { return window_.size(); }
  // MIN/MAX candidates held across all groups (at most one per group and
  // aggregate for an unbounded window). O(groups); for tests.
  size_t extremum_candidates() const;

 private:
  // The group columns of an input tuple, compared against stored keys
  // without copying them out.
  struct TupleKey {
    const Tuple& tuple;
    const std::vector<size_t>& columns;
  };
  // Group key as a vector of values (ordered map keeps determinism);
  // transparent so an arrival finds its group through a TupleKey.
  struct KeyLess {
    using is_transparent = void;
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
    bool operator()(const std::vector<Value>& a, const TupleKey& b) const;
    bool operator()(const TupleKey& a, const std::vector<Value>& b) const;
  };
  // One MIN/MAX aggregate.
  struct Extremum {
    size_t arg;     // input attribute
    bool want_min;  // MIN (else MAX)
  };
  // A MIN/MAX candidate: arrival sequence number and argument value.
  struct Candidate {
    uint64_t seq;
    Value value;
  };
  struct GroupState {
    int64_t count = 0;             // rows in window
    std::vector<double> sums;      // per SUM/AVG slot
    std::vector<int64_t> numeric;  // per SUM/AVG slot: numeric arguments
    std::vector<std::deque<Candidate>> extrema;  // per MIN/MAX slot
  };
  using GroupMap = std::map<std::vector<Value>, GroupState, KeyLess>;
  // A buffered row: enough to retract it, never the tuple itself.
  struct Buffered {
    Timestamp timestamp;
    uint64_t seq;
    GroupMap::iterator group;  // stable: erased only after its last row
  };

  GroupMap::iterator FindOrAddGroup(const Tuple& t);
  void Add(GroupState& g, const Tuple& t, uint64_t seq);
  void EvictFront();
  Value Finalize(const GroupState& g, size_t agg_index) const;

  Duration window_size_;
  bool bounded_;
  std::vector<size_t> group_keys_;
  std::vector<AggSpec> aggs_;
  std::shared_ptr<const Schema> output_schema_;
  // Per agg: its index into GroupState::sums/numeric (SUM, AVG) or
  // GroupState::extrema (MIN, MAX); unused for COUNT.
  std::vector<size_t> slot_;
  std::vector<size_t> sum_args_;     // input attribute per SUM/AVG slot
  std::vector<Extremum> ext_slots_;  // per MIN/MAX slot

  GroupMap groups_;
  uint64_t next_seq_ = 0;
  // Bounded windows only, in arrival order (so eviction order).
  std::deque<Buffered> window_;
  // The SUM/AVG arguments of window_'s rows, sum_args_.size() per row;
  // nullopt where the argument was not numeric.
  std::deque<std::optional<double>> window_args_;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_AGGREGATE_H_
