#ifndef COSMOS_CBN_MATCHER_H_
#define COSMOS_CBN_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cbn/profile.h"
#include "expr/interval.h"

namespace cosmos {

// Compiled counting matcher over every profile of one (link, stream)
// routing-table bucket. Instead of tree-walking each profile's clause per
// datagram, compilation inverts the bucket: every canonical attribute
// constraint of every conjunct becomes an entry in a per-attribute table
// (sorted point equalities, intervals sorted by lower bound, or a general
// residue list), attribute names are resolved to schema column offsets once
// per schema, and a single pass over the datagram's attributes bumps a
// counter per conjunct. A conjunct whose counter reaches its arity (its
// constraint count) is satisfied; a profile matches when any of its
// conjuncts is satisfied (its filters are a disjunction) or when it
// requests the stream without filters. Clause residuals — the conjuncts
// canonicalization could not turn into per-attribute constraints — fall
// back to the interpreted Evaluator, but only for conjuncts that already
// passed the counting stage.
//
// Semantics are exactly those of the interpreted path
// (Profile::Covers -> Filter::Covers -> MatchesCanonical + residuals):
//  - an attribute named by any constraint must be present in the datagram's
//    schema, even when the constraint is vacuous (presence requirement);
//  - unsatisfiable conjuncts can never match and are dropped at compile
//    time (dropping the whole conjunct, never a single constraint, so
//    arities stay truthful);
//  - type mismatches (numeric constraint vs string value, ...) fail the
//    constraint just like AttrConstraint::Matches.
// Router cross-checks this equivalence against the interpreted path on
// every decision in debug builds.
//
// A matcher is immutable after construction and holds raw Profile/Filter
// pointers; its owner must rebuild it whenever the profile set changes
// (RoutingTable::Add and Remove drop a bucket's, alongside its cached
// attribute union, and Router drops a stream's local matcher whenever its
// subscribers change). A bucket whose slots filter nothing never builds
// one: Router::DecideForward takes every slot without matching.
class CompiledMatcher {
 public:
  // Reusable per-caller scratch: counter array indexed by conjunct, the
  // touched-conjunct list that makes the post-match reset O(work done)
  // instead of O(table size), and per-profile seen flags that dedupe
  // disjunctions. All vectors grow monotonically and are reset to their
  // empty/zero state before Match returns.
  struct Scratch {
    std::vector<uint32_t> counters;
    std::vector<uint32_t> touched;
    std::vector<uint8_t> profile_seen;
    // Residual (fallback) evaluations performed by the last Match call.
    uint64_t fallback_evals = 0;
  };

  // Compiles the matcher for `profiles` (the bucket's slots, in slot
  // order) against `stream`. Profiles must outlive the matcher.
  CompiledMatcher(std::string stream,
                  const std::vector<const Profile*>& profiles);
  // A copy's last binding would point into the original's cache.
  CompiledMatcher(const CompiledMatcher&) = delete;
  CompiledMatcher& operator=(const CompiledMatcher&) = delete;

  const std::string& stream() const { return stream_; }
  size_t num_profiles() const { return num_profiles_; }
  size_t num_conjuncts() const { return conjuncts_.size(); }
  size_t num_attribute_tables() const { return attrs_.size(); }

  // Fills `*out` with the indices (ascending, into the compile-time
  // profile vector) of the profiles covering `d`. `d.stream` must equal
  // stream(). Allocation-free once scratch and `*out` have grown to the
  // bucket's high-water mark.
  void Match(const Datagram& d, Scratch* scratch,
             std::vector<uint32_t>* out) const;

 private:
  struct EqEntry {
    double value = 0.0;
    uint32_t conjunct = 0;
  };
  struct RangeEntry {
    Interval interval;
    uint32_t conjunct = 0;
  };
  // Constraints the numeric tables cannot express (string/bool equalities,
  // disequalities, presence-only constraints): evaluated with the
  // interpreted AttrConstraint::Matches, but still only once per attribute
  // per datagram.
  struct MiscEntry {
    AttrConstraint constraint;
    uint32_t conjunct = 0;
  };
  struct AttrTable {
    std::string name;
    std::vector<EqEntry> eq;       // sorted by value
    std::vector<RangeEntry> range;  // sorted by interval lower bound
    std::vector<MiscEntry> misc;
  };
  struct Conjunct {
    uint32_t profile = 0;
    uint32_t arity = 0;
    // Clause whose residual to evaluate when the counting stage passes;
    // nullptr when the conjunct has no residual.
    const ConjunctiveClause* residual = nullptr;
  };
  // Column offsets of attrs_ (aligned; -1 = absent) in one tuple schema.
  // Retaining the schema makes the by-address cache ABA-safe: no other
  // schema can be allocated at a cached address while the entry lives.
  struct Binding {
    std::shared_ptr<const Schema> schema;
    std::vector<int32_t> offsets;
  };

  const std::vector<int32_t>& OffsetsFor(
      const std::shared_ptr<const Schema>& schema) const;

  std::string stream_;
  size_t num_profiles_ = 0;
  std::vector<AttrTable> attrs_;
  // attrs_[i].name, aligned — the argument to Schema::ResolveOffsets.
  std::vector<std::string> attr_names_;
  std::vector<Conjunct> conjuncts_;
  // Conjuncts with no canonical constraints (arity 0): satisfied by every
  // datagram of the stream, subject only to their residual.
  std::vector<uint32_t> zero_arity_;
  // Profiles requesting the stream with no filters at all: unconditional.
  std::vector<uint32_t> unconditional_;
  mutable std::unordered_map<const Schema*, Binding> bindings_;
  // The binding OffsetsFor returned last (nullptr: none yet). Bindings are
  // never erased and map nodes do not move, so it stays valid, and its
  // retained schema keeps the address check ABA-safe like the map's.
  mutable const Binding* last_binding_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_MATCHER_H_
