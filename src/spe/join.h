#ifndef COSMOS_SPE_JOIN_H_
#define COSMOS_SPE_JOIN_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "spe/operator.h"

namespace cosmos {

// Sliding-window join of 2 to 8 streams (Lemma 1 of the paper, extended to
// N inputs): a combination (t_1, ..., t_n), one tuple per port, joins iff
//   (1) every equi-key constraint holds (Value::Compare; null never
//       matches),
//   (2) the residual predicate holds on the concatenated tuple, and
//   (3) tau - t_i.timestamp <= T_i for every port i, where tau is the
//       maximum timestamp in the combination.
// For n == 2 condition (3) is Lemma 1's -T1 <= t1.ts - t2.ts <= T2. [Now]
// windows (T = 0) admit only components at tau; unbounded windows never
// evict. The result carries timestamp tau and the values of the inputs in
// port order; the output schema must be MakeJoinedSchema over the input
// schemas in port order.
//
// Arrival order is promised per port only, so an arrival need not carry
// tau: residents newer than it still join. Eviction is lossless under that
// promise: every future combination holding a resident of port j is
// completed by an arrival on some other port q, no older than q's latest
// arrival. So on each arrival, buffer j drops the tuples older than
// min over q != j of latest(q), minus T_j; port j's own arrivals never
// evict buffer j.
//
// Each arrival binds its own port, then walks the other ports in an order
// fixed at construction: at each step the lowest unbound port with a key
// constraint to the ports already bound, probed through a hash index over
// those key attributes (O(matches)); a port with no such constraint is
// scanned.
class WindowJoinOperator final : public Operator {
 public:
  // An equi-key constraint between two ports' attributes (indexes into the
  // respective input schemas).
  struct KeyConstraint {
    size_t left_port = 0;
    size_t left_attr = 0;
    size_t right_port = 0;
    size_t right_attr = 0;
  };

  // One window per port. `keys` may be empty (a temporal cross join);
  // `residual` is evaluated on the joined tuple (alias-qualified names) and
  // may be null.
  WindowJoinOperator(std::vector<Duration> windows,
                     std::vector<KeyConstraint> keys, ExprPtr residual,
                     std::shared_ptr<const Schema> output_schema);

  void Push(size_t port, const Tuple& tuple) override;

  size_t num_ports() const { return ports_.size(); }
  size_t buffer_size(size_t port) const { return ports_[port].tuples.size(); }

 private:
  // A hash index over some key attributes of one port's residents.
  // Residents are addressed by monotonically increasing sequence numbers,
  // so entries survive front eviction (seq - base = deque position).
  struct Index {
    std::vector<size_t> attrs;
    std::unordered_multimap<size_t, uint64_t> entries;  // key hash -> seq
  };
  struct Port {
    Duration window = kInfiniteDuration;
    Timestamp latest = kInvalidTimestamp;  // latest arrival's timestamp
    std::deque<Tuple> tuples;
    uint64_t base = 0;
    std::vector<Index> indexes;
  };
  // A key constraint checked when `port` is bound: its `attr` must equal
  // `other_attr` of the already bound `other_port`.
  struct Check {
    size_t attr = 0;
    size_t other_port = 0;
    size_t other_attr = 0;
  };
  // One step of an arrival's walk: bind `port`. Its index `index` is over
  // the `attr`s of `checks`, in order, and is probed with the bound values
  // they compare against; kScan: no checks, scan the buffer.
  static constexpr size_t kScan = static_cast<size_t>(-1);
  struct Step {
    size_t port = 0;
    size_t index = kScan;
    std::vector<Check> checks;
  };

  void Evict(Port& port, Timestamp bound);
  // Binds walk step `step` of the arrival on `arrival_port`, then the rest.
  // `tau` is the maximum bound timestamp and `cap` the minimum over bound
  // ports of t_i + T_i: condition (3) holds while tau <= cap.
  void Extend(size_t arrival_port, size_t step, Timestamp tau, Timestamp cap);
  void EmitCombination(Timestamp tau);

  std::vector<Port> ports_;
  std::vector<std::vector<Step>> walks_;  // per arrival port
  LazyPredicate residual_;
  std::shared_ptr<const Schema> output_schema_;
  // The tuple bound on each port during a walk.
  std::vector<const Tuple*> chosen_;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_JOIN_H_
