#ifndef COSMOS_CBN_ROUTER_H_
#define COSMOS_CBN_ROUTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cbn/routing_table.h"
#include "telemetry/registry.h"

namespace cosmos {

// Delivery callback of a local subscriber: receives the tuple of `stream`,
// projected onto P, or built in the shape of the subscriber's target and
// named by the target schema's stream.
using DeliveryCallback =
    std::function<void(const std::string& stream, const Tuple& tuple)>;

// A subscriber at a node: its profile, its callback, the target its
// consumer takes (nullptr: the projection onto P) and, per requested
// stream, a reference on the stream's id and the exact projection set P as
// a mask with the plans applying it or the target. The node's routing
// table files it under each of those streams.
struct LocalSubscriber {
  ProfileId id = 0;
  ProfilePtr profile;
  DeliveryCallback callback;
  std::shared_ptr<const TupleTarget> target;
  struct Projection {
    StreamRef stream;
    AttrMask mask = kAllAttributes;
    ProjectionCache plans;
  };
  std::vector<Projection> projections;
};

// One CBN node: the per-link routing table plus local subscriptions.
// Forwarding decisions are made here; the Network drives the hop-by-hop
// traversal and accounts link bytes. A bucket in which some slot filters
// the stream, and every set of local subscribers, is matched with the
// compiled counting matcher (cbn/matcher.h); a bucket with no filtered
// slot forwards every datagram of its stream, and a set of local
// subscribers none of whom filters the stream takes every datagram of it,
// without a matcher. Debug builds cross-check every verdict against the
// per-profile Profile::Covers walk.
class Router {
 public:
  // `streams` interns stream names for the routing table and the local
  // subscriptions; it must outlive the router. `neighbors` are the node's
  // tree neighbours in visiting order (see RoutingTable).
  Router(NodeId id, StreamTable* streams, std::vector<NodeId> neighbors = {})
      : id_(id), streams_(streams), table_(streams, std::move(neighbors)) {}

  NodeId id() const { return id_; }
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }

  // Files a subscriber under each stream `profile` requests. A `target`
  // must name only columns of P on each of them (any, where P is all):
  // its subscriber is handed the tuple built in the target's shape.
  void AddLocal(ProfileId id, ProfilePtr profile, DeliveryCallback callback,
                std::shared_ptr<const TupleTarget> target = nullptr);
  bool RemoveLocal(ProfileId id);
  // Replaces the profile of local subscriber `id` in place with `profile`,
  // which requests the same streams; its callback, target and place among
  // the node's subscribers stay. False when there is no such subscriber.
  bool UpdateLocal(ProfileId id, ProfilePtr profile);

  // Delivers `d` to every matching local subscriber, applying the
  // subscriber's exact projection set P (last-hop projection, paper §3.1)
  // or building its target's tuple straight from `d`. Only subscribers of
  // `d.stream_id` are evaluated: they are filed in the routing table's
  // record of the stream, and when none of them filters it, all of them
  // take `d` without a matcher. Returns the number of deliveries.
  size_t DeliverLocal(const Datagram& d);

  // One forwarding decision for `bucket`, a bucket of d's stream in this
  // router's table: nullptr when no profile matches, else the datagram to
  // put on the wire — `d` itself, or its projection onto the union of the
  // matching profiles' required attributes (when `early_projection`),
  // built in `*projected`, which is emplaced on the first projection and
  // reused by later ones. A bucket without filtered slots takes every slot
  // without matching; otherwise the bucket's compiled matcher runs with
  // internal scratch buffers, so a decision allocates nothing on the
  // no-match and unprojected paths.
  const Datagram* DecideForward(const Datagram& d,
                                const RoutingTable::StreamBucket& bucket,
                                bool early_projection,
                                std::optional<Datagram>* projected) const;

  // Attaches (nullptr: detaches) matcher instruments in `metrics`:
  // cbn.matcher_compiles (bucket/local compilations), cbn.matcher_fallbacks
  // (residual evaluations behind the counting stage) and cbn.match_ns.
  // Handles are cached; the histogram samples every 64th match so timing
  // cannot erode the telemetry throughput budget.
  void SetTelemetry(MetricsRegistry* metrics);

  // Projection plans cached by the routing table and the local
  // subscriptions.
  size_t CachedPlans() const;

 private:
  // The compiled matcher over `local`'s subscribers.
  const CompiledMatcher& LocalMatcher(const RoutingTable::LocalStream& local,
                                      const std::string& stream);

  // Hands `d` to `sub`'s callback, projected to P or built in the shape of
  // its target.
  void Deliver(LocalSubscriber& sub, const Datagram& d);

  // Runs `m` over `d` into `*hits` with sampled timing and fallback
  // accounting.
  void MatchCompiled(const CompiledMatcher& m, const Datagram& d,
                     std::vector<uint32_t>* hits) const;

  NodeId id_;
  StreamTable* streams_;
  RoutingTable table_;
  std::vector<std::unique_ptr<LocalSubscriber>> locals_;
  Counter* matcher_compiles_ = nullptr;
  Counter* matcher_fallbacks_ = nullptr;
  Histogram* match_time_ns_ = nullptr;
  mutable uint64_t match_sample_ = 0;
  // Scratch for DecideForward (single-threaded per node, like the table).
  mutable CompiledMatcher::Scratch matcher_scratch_;
  mutable std::vector<uint32_t> hit_scratch_;
  // DeliverLocal's hit buffer is swapped out while subscriber callbacks
  // run: a callback that publishes re-enters matching on this router, and
  // the nested Match must not clobber the list being delivered.
  mutable std::vector<uint32_t> local_hit_scratch_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTER_H_
