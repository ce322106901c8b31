#ifndef COSMOS_CBN_ROUTER_H_
#define COSMOS_CBN_ROUTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cbn/routing_table.h"
#include "telemetry/registry.h"

namespace cosmos {

// Delivery callback of a local subscriber: receives the (possibly
// projected) tuple of `stream`.
using DeliveryCallback =
    std::function<void(const std::string& stream, const Tuple& tuple)>;

// One CBN node: the per-link routing table plus local subscriptions.
// Forwarding decisions are made here; the Network drives the hop-by-hop
// traversal and accounts link bytes. Both DecideForward and DeliverLocal
// match with the compiled counting matcher (cbn/matcher.h); debug builds
// cross-check every verdict against the per-profile Profile::Covers walk.
class Router {
 public:
  // `streams` interns stream names for the routing table and the local
  // subscriptions; it must outlive the router.
  Router(NodeId id, StreamTable* streams)
      : id_(id), streams_(streams), table_(streams) {}

  NodeId id() const { return id_; }
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }

  void AddLocal(ProfileId id, ProfilePtr profile, DeliveryCallback callback);
  bool RemoveLocal(ProfileId id);

  // Delivers `d` to every matching local subscriber, applying the
  // subscriber's exact projection set P (last-hop projection, paper §3.1).
  // Only subscribers of `d.stream_id` are evaluated (per-stream index).
  // Returns the number of deliveries.
  size_t DeliverLocal(const Datagram& d);

  // One forwarding decision for `link`: nullptr when no profile matches,
  // else the datagram to put on the wire — `d` itself, or its projection
  // onto the union of the matching profiles' required attributes (when
  // `early_projection`), built in `*projected`. Evaluates only the
  // (d.stream_id, link) bucket of the routing table and reuses internal
  // scratch buffers, so a decision allocates nothing on the no-match and
  // unprojected paths.
  const Datagram* DecideForward(const Datagram& d, NodeId link,
                                bool early_projection,
                                Datagram* projected) const;

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
  struct LocalSubscription {
    ProfileId id = 0;
    ProfilePtr profile;
    DeliveryCallback callback;
    // Per requested stream: the exact projection set P as a mask, and the
    // plans applying it.
    struct Projection {
      StreamId stream = kNoStream;
      AttrMask mask = kAllAttributes;
      ProjectionCache plans;
    };
    std::vector<Projection> projections;
  };
  // The local subscribers of one stream, in subscription order, and the
  // compiled matcher over them (built lazily, dropped when they change).
  struct LocalStream {
    StreamRef stream;  // keeps the id assigned while subscribers exist
    std::vector<LocalSubscription*> subscribers;
    std::unique_ptr<CompiledMatcher> matcher;
  };

  // The compiled matcher over `local`'s subscribers.
  const CompiledMatcher& LocalMatcher(LocalStream& local,
                                      const std::string& stream);

  // Hands `d` to `sub`'s callback, projected to P.
  void Deliver(LocalSubscription& sub, const Datagram& d);

  // Runs `m` over `d` into `*hits` with sampled timing and fallback
  // accounting.
  void MatchCompiled(const CompiledMatcher& m, const Datagram& d,
                     std::vector<uint32_t>* hits) const;

  NodeId id_;
  StreamTable* streams_;
  RoutingTable table_;
  std::vector<std::unique_ptr<LocalSubscription>> locals_;
  // Stream id -> its local subscribers.
  std::vector<LocalStream> local_by_stream_;
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
